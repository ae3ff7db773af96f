"""Budget-normalized learning-curve metrics.

The headline quantity integrates a performance curve over the
requested-instance axis up to a target budget with the trapezoidal rule,
then divides by the budget. Curves that overshoot the budget are
linearly interpolated back to it; curves that end early hold their last
value (no extrapolation). This puts image-level selection (which charges
whole images' worth of instances) and instance-level selection (which
charges every issued request) on the same axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

__all__ = [
    "CurvePoint",
    "Curve",
    "aurc_segment",
    "interpolate_at_budget",
    "naurc",
    "accounting_x",
]


@dataclass(frozen=True)
class CurvePoint:
    """One measurement: x requested instances, y performance."""

    x: float
    y: float


@dataclass(frozen=True)
class Curve:
    """A performance curve with strictly increasing x and finite y."""

    points: tuple[CurvePoint, ...]

    def __post_init__(self):
        if len(self.points) < 1:
            raise ValueError("curve needs at least one point")
        for p in self.points:
            if not (math.isfinite(p.x) and math.isfinite(p.y)):
                raise ValueError(f"curve point ({p.x}, {p.y}) is not finite")
        xs = [p.x for p in self.points]
        if any(b <= a for a, b in zip(xs, xs[1:])):
            raise ValueError(f"curve x values must be strictly increasing, got {xs}")

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[float, float]]) -> "Curve":
        return cls(tuple(CurvePoint(float(x), float(y)) for x, y in pairs))

    def __len__(self) -> int:
        return len(self.points)


def aurc_segment(p_i: CurvePoint, p_next: CurvePoint) -> float:
    """Trapezoid area of one curve segment: (y_next + y_i)/2 * (x_next - x_i).

    Raises:
        ValueError: unless x strictly increases across the segment.
    """
    if not p_next.x > p_i.x:
        raise ValueError(f"segment x must increase: {p_i.x} -> {p_next.x}")
    return (p_next.y + p_i.y) / 2.0 * (p_next.x - p_i.x)


def interpolate_at_budget(curve: Curve, budget: float) -> float:
    """Curve value at the budget: linear interpolation inside a straddling
    segment, the exact knot value at a knot, and the last observed value
    held when the curve ends at or before the budget.

    Raises:
        ValueError: if the budget is not finite or lies before the first
            point.
    """
    pts = curve.points
    if not math.isfinite(budget):
        raise ValueError(f"budget must be finite, got {budget}")
    if budget < pts[0].x:
        raise ValueError(f"budget {budget} is below the curve start {pts[0].x}")
    # index of the last knot at or before the budget
    j = 0
    for i, p in enumerate(pts):
        if p.x <= budget:
            j = i
        else:
            break
    if j == len(pts) - 1:
        return pts[j].y
    lo, hi = pts[j], pts[j + 1]
    return lo.y + (hi.y - lo.y) * (budget - lo.x) / (hi.x - lo.x)


def naurc(curve: Curve, budget: float) -> float:
    """Area under the curve up to the budget, divided by the budget.

    Full trapezoid segments below the budget are summed, the straddling
    segment (or held tail) contributes a final trapezoid ending at the
    budget, and nothing is counted before the curve's first point even
    though normalization uses the whole budget.

    Raises:
        ValueError: unless the budget is finite and > the curve's first x.
    """
    pts = curve.points
    if not math.isfinite(budget):
        raise ValueError(f"budget must be finite, got {budget}")
    if not budget > pts[0].x:
        raise ValueError(f"budget {budget} must exceed the curve start {pts[0].x}")

    knots = [p for p in pts if p.x <= budget]
    if knots[-1].x < budget:
        knots.append(CurvePoint(budget, interpolate_at_budget(curve, budget)))
    return sum(aurc_segment(a, b) for a, b in zip(knots, knots[1:])) / budget


def accounting_x(round_logs: Sequence, mode: str) -> list[float]:
    """Cumulative budget positions per round under one accounting mode.

    ``instance`` mode counts every charged request (false positives
    included); ``image`` mode sums the labelable ground-truth counts of
    each round's selected images. Round logs are duck-typed: instance
    mode reads ``log.events`` entries with a ``charged`` flag, image mode
    reads ``log.selected_images`` pairs of (image_id, labelable_count).
    """
    if mode not in ("instance", "image"):
        raise ValueError(f"mode must be 'instance' or 'image', got {mode!r}")
    xs: list[float] = []
    total = 0.0
    for log in round_logs:
        if mode == "instance":
            total += sum(1 for ev in log.events if ev.charged)
        else:
            total += sum(count for _, count in log.selected_images)
        xs.append(total)
    return xs
