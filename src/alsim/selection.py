"""Acquisition strategies: one ranking core for every strategy kind.

``rank_pool`` is the only ordering. It yields (record, score) pairs
best-first; a k-instance batch is its first k items.

=================  ==================================  =====================================  ==============
kind               score (higher ranks earlier)        eligible records                       ties
=================  ==================================  =====================================  ==============
``random``         uniform draw from the round seed    whole pool                             lowest id
``confidence``     minus the class confidence          whole pool (confidence required)       lowest id
``ens_depth_var``  population variance of depths       whole pool (pred_depth required)       lowest id
``close_depth``    minus the predicted depth           whole pool (pred_depth required)       lowest id
``far_depth``      the predicted depth                 box height >= min_px_height and        lowest id
                                                       pred_depth < max_depth; others left
                                                       out, not ranked last
``coreset`` etc.   min fused distance to the labeled   whole pool, picked lazily one by one   lowest id
                   set plus earlier picks
=================  ==================================  =====================================  ==============

The diversity kinds (``coreset``, ``coreset_box3d``, ``ideal``) run
greedy k-center (farthest-point) selection in a fused feature metric:
repeatedly pick the pool instance with the largest minimum distance to
the reference set, then fold the pick into the reference set. The pick
loop starts from the unfolded rows of a ``features.Coverage`` (the pool's
rows and their min distances to the folded, labeled rows), so a k-pick
batch costs O(k * |pool|) distance evaluations and embeds nothing. The
other kinds score their eligible records once and sort once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import islice
from typing import Callable, Iterator, Mapping, Sequence

import numpy as np

from .features import Coverage, fold_min_distances
from .records import InstanceRecord, ViewSpec

__all__ = [
    "STRATEGY_KINDS",
    "CORESET_KINDS",
    "DepthFilters",
    "StrategyConfig",
    "coreset_select",
    "iter_coreset_picks",
    "ensemble_depth_variance",
    "image_level_select",
    "rank_pool",
    "validate_strategy_setup",
]

STRATEGY_KINDS = (
    "random",
    "confidence",
    "ens_depth_var",
    "close_depth",
    "far_depth",
    "coreset",
    "coreset_box3d",
    "ideal",
)

# All three run the same greedy selector; they differ only in which
# feature views the config fuses (classification features, pre-3D-head
# features, or detector views plus the visual view).
CORESET_KINDS = ("coreset", "coreset_box3d", "ideal")

@dataclass(frozen=True)
class DepthFilters:
    """Eligibility filter for the far-depth baseline."""

    min_px_height: float = 25.0
    max_depth: float = 50.0

    def __post_init__(self):
        # Every comparison with NaN is false, so a NaN bound would pass
        # no instance at all.
        for name in ("min_px_height", "max_depth"):
            if math.isnan(getattr(self, name)):
                raise ValueError(f"{name} must be a number, got nan")


@dataclass(frozen=True)
class StrategyConfig:
    kind: str
    views: tuple[ViewSpec, ...] = ()
    seed: int = 0
    far_depth_filters: DepthFilters = field(default_factory=DepthFilters)

    def __post_init__(self):
        if self.kind not in STRATEGY_KINDS:
            raise ValueError(f"unknown strategy kind {self.kind!r}; valid: {', '.join(STRATEGY_KINDS)}")
        if self.kind in CORESET_KINDS and not self.views:
            raise ValueError(f"strategy {self.kind!r} needs a nonempty view list")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


def _instance_ids(records: Sequence[InstanceRecord]) -> np.ndarray:
    return np.array([r.instance_id for r in records], dtype=np.int64)


def _farthest_first(
    coverage: Coverage, pool: Sequence[InstanceRecord], ids: np.ndarray
) -> Iterator[tuple[InstanceRecord, float]]:
    """The greedy pick loop on a copy of ``coverage``'s unfolded rows, which
    are ``pool``'s rows in order (``ids`` their instance ids): a pick's
    entry is set to -inf, so it never wins again, and its row is folded
    into the copied ``mins``."""
    if not coverage.folded.any():
        raise ValueError("labeled set must be nonempty")
    rows = np.flatnonzero(~coverage.folded)
    if len(rows) != len(pool):
        raise ValueError(f"pool has {len(pool)} records, coverage has {len(rows)} unfolded rows")
    E, mins = coverage.E[rows], coverage.mins[rows]

    for _ in range(len(pool)):
        tie = np.flatnonzero(mins == mins.max())
        pick = int(tie[np.argmin(ids[tie])])
        yield pool[pick], float(mins[pick])
        mins[pick] = -np.inf
        fold_min_distances(coverage.metric, E, E[pick : pick + 1], mins)


def iter_coreset_picks(
    pool: Sequence[InstanceRecord],
    labeled: Sequence[InstanceRecord],
    dist,
) -> Iterator[tuple[InstanceRecord, float]]:
    """Yield pool instances in greedy farthest-first order with their scores.

    The from-scratch reference: ``rank_pool``'s pick loop on a fresh
    ``Coverage`` of pool + labeled. Each score is the instance's minimum
    distance to the labeled set plus earlier picks; ties go to the lowest
    instance_id. A full traversal costs O(|pool|^2) distance evaluations
    and a k-pick prefix O(k * |pool|).
    """
    coverage = Coverage(dist, dist.embed([*pool, *labeled]))
    coverage.fold(range(len(pool), len(pool) + len(labeled)))
    return _farthest_first(coverage, pool, _instance_ids(pool))


def coreset_select(
    pool: Sequence[InstanceRecord],
    labeled: Sequence[InstanceRecord],
    dist,
    k: int,
) -> list[int]:
    """Greedy k-center batch: the first k farthest-first picks, in order.

    Raises:
        ValueError: on an empty labeled set or k > |pool|.
    """
    if k > len(pool):
        raise ValueError(f"k={k} exceeds pool size {len(pool)}")
    return [r.instance_id for r, _ in islice(iter_coreset_picks(pool, labeled, dist), k)]


def ensemble_depth_variance(r: InstanceRecord) -> float:
    """Population variance of the main and associated auxiliary depths.

    Instances with fewer than two depth readings score 0.
    """
    depths: list[float] = []
    if r.pred_depth is not None:
        depths.append(float(r.pred_depth))
    if r.aux_depths:
        depths.extend(float(d) for d in r.aux_depths)
    if len(depths) < 2:
        return 0.0
    return float(np.var(depths))


def image_level_select(
    pool: Sequence[InstanceRecord],
    scores: np.ndarray,
    labelable_counts: Mapping[str, int],
    budget_instances: int,
) -> tuple[list[str], int]:
    """Image-level wrapper with instance-budget accounting.

    Each image scores as its highest-scoring contained instance. Images
    are taken in descending score until the charged instances (the sum of
    each selected image's labelable ground-truth count) first reach or
    exceed the budget, so the budget may be overshot but never undershot
    while images remain.

    Returns:
        Selected image ids in order, and the total charged instances.
    """
    if len(scores) != len(pool):
        raise ValueError("scores and pool lengths differ")
    per_image: dict[str, float] = {}
    for r, s in zip(pool, scores):
        if r.image_id not in per_image or s > per_image[r.image_id]:
            per_image[r.image_id] = float(s)

    order = sorted(per_image.items(), key=lambda kv: (-kv[1], kv[0]))
    selected: list[str] = []
    charged = 0
    for image_id, _ in order:
        if charged >= budget_instances:
            break
        selected.append(image_id)
        charged += int(labelable_counts[image_id])
    return selected, charged


def validate_strategy_setup(cfg: StrategyConfig, pool: Sequence[InstanceRecord]) -> None:
    """Reject pools missing the fields a strategy depends on.

    Diversity strategies only need features, so datasets without
    confidence or depth stay usable for them.
    """
    if cfg.kind == "confidence":
        missing = [r.instance_id for r in pool if r.confidence is None]
        if missing:
            raise ValueError(f"confidence strategy: instances missing confidence: {missing}")
    if cfg.kind in ("close_depth", "far_depth", "ens_depth_var"):
        missing = [r.instance_id for r in pool if r.pred_depth is None]
        if missing:
            raise ValueError(f"instances missing pred_depth: {missing}")
    if cfg.kind in CORESET_KINDS and pool:
        names = set(pool[0].features)
        absent = [v.name for v in cfg.views if v.name not in names]
        if absent:
            raise ValueError(f"strategy {cfg.kind!r}: pool lacks feature views {absent}")


def _far_depth_eligible(r: InstanceRecord, f: DepthFilters) -> bool:
    return r.box2d.h >= f.min_px_height and r.pred_depth < f.max_depth


def _column(records: Sequence[InstanceRecord], value: Callable[[InstanceRecord], float]) -> np.ndarray:
    return np.array([value(r) for r in records], dtype=np.float64)


# Non-greedy kinds: (eligibility or None for the whole pool, scores of the
# eligible records given the round seed). Higher scores rank earlier.
_RANKERS = {
    "random": (None, lambda rs, seed: np.random.default_rng(seed).random(len(rs))),
    "confidence": (None, lambda rs, seed: -_column(rs, lambda r: r.confidence)),
    "ens_depth_var": (None, lambda rs, seed: _column(rs, ensemble_depth_variance)),
    "close_depth": (None, lambda rs, seed: -_column(rs, lambda r: r.pred_depth)),
    "far_depth": (_far_depth_eligible, lambda rs, seed: _column(rs, lambda r: r.pred_depth)),
}


def rank_pool(
    pool: Sequence[InstanceRecord],
    cfg: StrategyConfig,
    coverage: Coverage | None = None,
    seed: int | None = None,
) -> Iterator[tuple[InstanceRecord, float]]:
    """Yield (record, score) pairs best-first under the given strategy.

    Greedy-diversity kinds rank lazily from ``coverage`` (left unchanged),
    whose folded rows are the labeled set and whose unfolded rows are
    ``pool``'s, in order, so callers can stop as soon as a round budget is
    filled; the remaining kinds score their eligible records once and sort
    by descending score, ties to the lowest instance_id. ``seed``
    overrides the config seed for per-round randomness.
    """
    validate_strategy_setup(cfg, pool)
    yield from _ranked(pool, _instance_ids(pool), cfg, coverage, seed)


def _ranked(
    pool: Sequence[InstanceRecord],
    ids: np.ndarray,
    cfg: StrategyConfig,
    coverage: Coverage | None,
    seed: int | None,
) -> Iterator[tuple[InstanceRecord, float]]:
    """``rank_pool`` of a pool already checked against the strategy, with
    ``ids`` its instance ids in order, such as a slice of
    ``Dataset.instance_ids``."""
    if cfg.kind in CORESET_KINDS:
        if coverage is None:
            raise ValueError(f"strategy {cfg.kind!r} needs a coverage of the labeled set")
        yield from _farthest_first(coverage, pool, ids)
        return

    eligible, score = _RANKERS[cfg.kind]
    if eligible is not None:
        keep = [i for i, r in enumerate(pool) if eligible(r, cfg.far_depth_filters)]
        pool, ids = [pool[i] for i in keep], ids[keep]
    scores = score(pool, cfg.seed if seed is None else seed)
    for i in np.lexsort((ids, -scores)).tolist():
        yield pool[i], float(scores[i])
