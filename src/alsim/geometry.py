"""2D geometry for the labeling oracle: search windows, matching and duplicate suppression."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .records import CameraModel, GroundTruthObject

__all__ = [
    "Radius2D",
    "MatchResult",
    "labeling_radius",
    "match_request",
    "suppress_duplicate",
]


@dataclass(frozen=True)
class Radius2D:
    """Per-axis search radius in pixels."""

    r_x: float
    r_y: float


@dataclass(frozen=True)
class MatchResult:
    """Outcome of one oracle request: a ground-truth id, or None for a
    false-positive request with no labelable object in the window."""

    gt_id: int | None
    distance: float | None = None

    @property
    def matched(self) -> bool:
        return self.gt_id is not None


def labeling_radius(cam: CameraModel, pred_depth: float, h_scale: float) -> Radius2D:
    """Depth-dependent window radius around a requested 2D center.

    Each axis scales the focal length by ``h_scale`` and divides by the
    predicted depth, so closer objects get a wider search window.

    Args:
        cam: camera focal lengths in pixels.
        pred_depth: predicted depth of the requested instance, meters.
        h_scale: window scale factor (2.0 gives roughly a 47 px radius
            for an object 30 m away with a typical automotive camera).

    Raises:
        ValueError: if depth or scale is not positive.
    """
    if not pred_depth > 0:
        raise ValueError(f"pred_depth must be > 0, got {pred_depth}")
    if not h_scale > 0:
        raise ValueError(f"h_scale must be > 0, got {h_scale}")
    return Radius2D(r_x=h_scale * cam.f_x / pred_depth, r_y=h_scale * cam.f_y / pred_depth)


def match_request(
    req_center: tuple[float, float],
    pred_depth: float,
    pred_class: int,
    gts: Sequence[GroundTruthObject],
    cam: CameraModel,
    h_scale: float,
    min_px_height: float,
) -> MatchResult:
    """Resolve one labeling request against the ground truth of its image.

    Among the candidate objects (callers pass only still-unlabeled ones)
    with pixel height at least ``min_px_height`` and center inside the
    per-axis window given by ``labeling_radius``, the closest center by
    Euclidean distance wins; equal distances resolve to the lowest gt_id.
    The result depends only on which candidates lie inside the window, so
    callers may narrow the candidates to the window first (``|dx| <= r_x``
    and ``|dy| <= r_y``, the comparisons made here), in any order.
    Matching is class-agnostic: ``pred_class`` travels with the request
    for bookkeeping only.

    Returns a null MatchResult when nothing qualifies, which the budget
    still charges as a false-positive request.
    """
    rad = labeling_radius(cam, pred_depth, h_scale)
    return _match(req_center, gts, rad.r_x, rad.r_y, min_px_height)


def _match(
    req_center: tuple[float, float], gts: Sequence[GroundTruthObject], r_x: float, r_y: float, min_px_height: float
) -> MatchResult:
    """``match_request`` inside the window of radii ``r_x`` and ``r_y``."""
    best_gt: GroundTruthObject | None = None
    best_d = math.inf
    for gt in gts:
        if gt.pixel_height < min_px_height:
            continue
        dx = gt.center2d[0] - req_center[0]
        dy = gt.center2d[1] - req_center[1]
        if abs(dx) > r_x or abs(dy) > r_y:
            continue
        d = math.hypot(dx, dy)
        if d < best_d or (d == best_d and best_gt is not None and gt.gt_id < best_gt.gt_id):
            best_gt, best_d = gt, d
    if best_gt is None:
        return MatchResult(gt_id=None)
    return MatchResult(gt_id=best_gt.gt_id, distance=best_d)


def suppress_duplicate(
    req_center: tuple[float, float],
    pred_depth: float,
    pred_class: int,
    prior: Iterable[tuple[tuple[float, float], int]],
    cam: CameraModel,
    h_scale: float,
) -> bool:
    """Decide whether a new request duplicates a previously issued one.

    ``prior`` is an iterable of ``(center, class_id)`` pairs for requests
    already issued in the same image. The new request is suppressed when
    some prior request shares its predicted class and its center lies
    within 95% of the labeling radius on both axes, boundary inclusive.
    The radius is computed from the new request's predicted depth.
    """
    rad = labeling_radius(cam, pred_depth, h_scale)
    return _suppresses(req_center, pred_class, prior, rad.r_x, rad.r_y)


def _suppresses(
    req_center: tuple[float, float],
    pred_class: int,
    prior: Iterable[tuple[tuple[float, float], int]],
    r_x: float,
    r_y: float,
) -> bool:
    """``suppress_duplicate`` under the labeling radii ``r_x`` and ``r_y``."""
    rx = 0.95 * r_x
    ry = 0.95 * r_y
    for (px, py), pclass in prior:
        if pclass != pred_class:
            continue
        if abs(req_center[0] - px) <= rx and abs(req_center[1] - py) <= ry:
            return True
    return False
