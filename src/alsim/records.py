"""Domain types for the instance pool, ground truth, and feature views."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from numbers import Integral
from typing import Mapping

import numpy as np

__all__ = [
    "CameraModel",
    "Box2D",
    "ViewSpec",
    "InstanceRecord",
    "GroundTruthObject",
    "Dataset",
    "validate_dataset",
]


@dataclass(frozen=True)
class CameraModel:
    """Pinhole focal lengths in pixels."""

    f_x: float
    f_y: float


@dataclass(frozen=True)
class Box2D:
    """Axis-aligned 2D box given by center, width, and height in pixels."""

    cx: float
    cy: float
    w: float
    h: float


@dataclass(frozen=True)
class ViewSpec:
    """A named feature view: vector dimensionality plus its fusion weight."""

    name: str
    dim: int
    lam: float


@dataclass(frozen=True, eq=False)
class InstanceRecord:
    """One detector prediction in the unlabeled pool.

    ``features`` maps view name to a float vector. ``pred_depth`` and
    ``confidence`` may be absent; strategies that need them reject such
    pools at setup time. ``aux_depths`` holds depth predictions of
    auxiliary ensemble members already associated to this instance.
    """

    image_id: str
    instance_id: int
    class_id: int
    box2d: Box2D
    features: Mapping[str, np.ndarray] = field(default_factory=dict)
    pred_depth: float | None = None
    confidence: float | None = None
    aux_depths: tuple[float, ...] | None = None

    @property
    def center(self) -> tuple[float, float]:
        return (self.box2d.cx, self.box2d.cy)


@dataclass(frozen=True)
class GroundTruthObject:
    """An annotatable object known to the oracle."""

    gt_id: int
    image_id: str
    class_id: int
    center2d: tuple[float, float]
    depth: float
    pixel_height: float


@dataclass(frozen=True, eq=False)
class Dataset:
    """Immutable container for one feature export.

    ``images`` maps image id to its ground-truth object count, in
    manifest order. ``matrix(name)`` is one view's features as a single
    matrix in instance order. The loader hands over the matrices that its
    records' rows are views of; any other dataset stacks a view's rows on
    first use and keeps the result. That memo is the only thing that
    changes after construction, and it only ever gains an entry equal to
    the records' rows, so the container is safe to share read-only across
    workers. Treat the matrices as read-only: the loader's are the
    records' own feature rows.
    """

    camera: CameraModel
    views: tuple[ViewSpec, ...]
    instances: tuple[InstanceRecord, ...]
    ground_truth: tuple[GroundTruthObject, ...]
    images: dict[str, int]
    # Not an init field, so ``dataclasses.replace`` starts an empty memo.
    _matrices: dict[str, np.ndarray] = field(default_factory=dict, init=False, repr=False)

    def matrix(self, name: str) -> np.ndarray:
        """The ``(len(instances), dim)`` float64 features of view ``name``,
        one row per instance in instance order."""
        m = self._matrices.get(name)
        if m is None:
            dim = self.view(name).dim
            rows = [r.features[name] for r in self.instances]
            m = np.array(rows, dtype=np.float64).reshape(len(self.instances), dim)
            self._matrices[name] = m
        return m

    def labelable_counts(self, min_px_height: float) -> dict[str, int]:
        """Per-image count of ground-truth objects tall enough to label."""
        counts = {img: 0 for img in self.images}
        for g in self.ground_truth:
            if g.pixel_height >= min_px_height:
                counts[g.image_id] = counts.get(g.image_id, 0) + 1
        return counts

    def view(self, name: str) -> ViewSpec:
        for v in self.views:
            if v.name == name:
                return v
        raise KeyError(f"unknown view {name!r}")


def _finite(*values: float) -> bool:
    return all(math.isfinite(v) for v in values)


def _whole(value) -> int:
    """``value`` as an int: 3, 3.0 and numpy numbers like them pass; a
    fraction, a non-finite float, a boolean, a string or anything else
    raises ValueError. Plain type tests first: parsers call this per line."""
    if type(value) is int:
        return value
    if isinstance(value, float) and value.is_integer() or isinstance(value, Integral) and not isinstance(value, bool):
        return int(value)
    raise ValueError(f"expected a whole number, got {value!r}")


def _real(value) -> float:
    """A JSON number as a float; a boolean, a string or anything else
    raises ValueError. Plain type tests only: parsers call this per field
    of every line."""
    if type(value) is float:
        return value
    if type(value) is int:
        return float(value)
    raise ValueError(f"expected a number, got {value!r}")


def validate_dataset(d: Dataset) -> list[str]:
    """Check every type invariant and return the list of violations.

    Violations are data, not exceptions: each entry names the offending
    record and the broken rule. An empty list means the dataset is valid.
    Note the 25-px minimum height is a selection-time rule, so short
    ground-truth objects are not flagged here.
    """
    violations: list[str] = []

    if not (0 < d.camera.f_x < math.inf and 0 < d.camera.f_y < math.inf):
        violations.append(f"camera: focal lengths must be finite and > 0, got ({d.camera.f_x}, {d.camera.f_y})")

    seen_views: set[str] = set()
    for v in d.views:
        if v.name in seen_views:
            violations.append(f"view {v.name!r}: duplicate view name")
        seen_views.add(v.name)
        if v.dim < 1:
            violations.append(f"view {v.name!r}: dim must be >= 1, got {v.dim}")
        if not 0 <= v.lam < math.inf:
            violations.append(f"view {v.name!r}: lambda must be finite and >= 0, got {v.lam}")

    seen_ids: set[int] = set()
    for r in d.instances:
        tag = f"instance {r.instance_id}"
        if r.instance_id in seen_ids:
            violations.append(f"{tag}: duplicate instance_id")
        seen_ids.add(r.instance_id)
        if r.image_id not in d.images:
            violations.append(f"{tag}: image_id {r.image_id!r} not in dataset images")
        if not _finite(r.box2d.cx, r.box2d.cy, r.box2d.w, r.box2d.h):
            violations.append(f"{tag}: box2d coordinates must be finite")
        elif r.box2d.w < 0 or r.box2d.h < 0:
            violations.append(f"{tag}: box2d width/height must be >= 0")
        # Chained comparisons against inf also refuse NaN, without a call.
        if r.pred_depth is not None and not 0 < r.pred_depth < math.inf:
            violations.append(f"{tag}: pred_depth must be finite and > 0, got {r.pred_depth}")
        if r.aux_depths is not None and not all(map(math.isfinite, r.aux_depths)):
            violations.append(f"{tag}: aux_depths must be finite, got {r.aux_depths}")
        if r.confidence is not None and not 0.0 <= r.confidence <= 1.0:
            violations.append(f"{tag}: confidence must be in [0, 1], got {r.confidence}")
        for v in d.views:
            vec = r.features.get(v.name)
            if vec is None:
                violations.append(f"{tag}: missing feature view {v.name!r}")
            elif vec.shape != (v.dim,):
                violations.append(
                    f"{tag}: view {v.name!r} has dimension {vec.shape}, declared {v.dim}"
                )

    seen_gt: set[int] = set()
    for g in d.ground_truth:
        tag = f"gt {g.gt_id}"
        if g.gt_id in seen_gt:
            violations.append(f"{tag}: duplicate gt_id")
        seen_gt.add(g.gt_id)
        if not (math.isfinite(g.center2d[0]) and math.isfinite(g.center2d[1])):
            violations.append(f"{tag}: center2d must be finite, got {g.center2d}")
        if not 0 < g.depth < math.inf:
            violations.append(f"{tag}: depth must be finite and > 0, got {g.depth}")
        if not 0 <= g.pixel_height < math.inf:
            violations.append(f"{tag}: pixel_height must be finite and >= 0, got {g.pixel_height}")

    return violations
