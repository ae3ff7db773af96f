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
the reference set, then fold the pick into the reference set. An
incremental per-candidate min-distance cache makes a k-pick batch cost
O(k * |pool|) distance evaluations instead of recomputing every
candidate-reference pair each step. The other kinds score their eligible
records once and sort once.

A metric is any object with ``embed(records)`` (one row per record) and
``between(A, B)`` (the distance matrix between rows of two embeddings),
such as ``FusedCosineMetric``. Greedy selection embeds the pool and the
labeled set once, so each pick costs one matrix-vector product.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from itertools import islice
from typing import Callable, Iterator, Mapping, Sequence

import numpy as np

from .features import fold_min_distances
from .geometry import associate_ensemble
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
    "with_ensemble_depths",
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


def iter_coreset_picks(
    pool: Sequence[InstanceRecord],
    labeled: Sequence[InstanceRecord],
    dist,
) -> Iterator[tuple[InstanceRecord, float]]:
    """Yield pool instances in greedy farthest-first order with their scores.

    The yielded score is the instance's minimum distance to the reference
    set at pick time (labeled set plus earlier picks). Ties resolve to the
    lowest instance_id. The min-distance cache is updated only against the
    newest pick, so a full traversal costs O(|pool|^2) distance
    evaluations and a k-pick prefix O(k * |pool|).
    """
    if not len(labeled):
        raise ValueError("labeled set must be nonempty")
    if not len(pool):
        return

    ids = np.array([r.instance_id for r in pool], dtype=np.int64)
    E = dist.embed(pool)
    mins = fold_min_distances(dist, E, dist.embed(labeled), np.full(len(pool), np.inf))
    active = np.ones(len(pool), dtype=bool)

    for _ in range(len(pool)):
        masked = np.where(active, mins, -np.inf)
        best = masked.max()
        tie = np.flatnonzero(active & (masked == best))
        pick = int(tie[np.argmin(ids[tie])])
        yield pool[pick], float(mins[pick])
        active[pick] = False
        if not active.any():
            return
        mins = np.minimum(mins, dist.between(E, E[pick : pick + 1])[:, 0])


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
    labeled: Sequence[InstanceRecord] | None = None,
    metric=None,
    seed: int | None = None,
) -> Iterator[tuple[InstanceRecord, float]]:
    """Yield (record, score) pairs best-first under the given strategy.

    Greedy-diversity kinds rank lazily so callers can stop as soon as a
    round budget is filled; the remaining kinds score their eligible
    records once and sort by descending score, ties to the lowest
    instance_id. ``seed`` overrides the config seed for per-round
    randomness.
    """
    validate_strategy_setup(cfg, pool)
    if cfg.kind in CORESET_KINDS:
        if labeled is None or metric is None:
            raise ValueError(f"strategy {cfg.kind!r} needs a labeled set and a metric")
        yield from iter_coreset_picks(pool, labeled, metric)
        return

    eligible, score = _RANKERS[cfg.kind]
    records = pool if eligible is None else [r for r in pool if eligible(r, cfg.far_depth_filters)]
    scores = score(records, cfg.seed if seed is None else seed)
    ids = np.array([r.instance_id for r in records], dtype=np.int64)
    for i in np.lexsort((ids, -scores)).tolist():
        yield records[i], float(scores[i])


def with_ensemble_depths(
    main: Sequence[InstanceRecord],
    aux_models: Sequence[Sequence[InstanceRecord]],
    iou_threshold: float = 0.5,
) -> list[InstanceRecord]:
    """Attach associated auxiliary depth predictions to main predictions.

    Associates each auxiliary model's predictions image by image via
    ``associate_ensemble`` and returns main records whose ``aux_depths``
    carry the matched depths. Records with no match are returned as is.
    """
    by_image_main: dict[str, list[InstanceRecord]] = defaultdict(list)
    for r in main:
        by_image_main[r.image_id].append(r)

    depth_lists: dict[int, list[float]] = {r.instance_id: [] for r in main}
    for aux in aux_models:
        by_image_aux: dict[str, list[InstanceRecord]] = defaultdict(list)
        for a in aux:
            by_image_aux[a.image_id].append(a)
        for image_id, mains in by_image_main.items():
            candidates = by_image_aux.get(image_id, [])
            if not candidates:
                continue
            assoc = associate_ensemble(mains, candidates, iou_threshold)
            aux_by_id = {a.instance_id: a for a in candidates}
            for main_id, aux_id in assoc.items():
                d = aux_by_id[aux_id].pred_depth
                if d is not None:
                    depth_lists[main_id].append(float(d))

    return [
        r.with_aux_depths(depth_lists[r.instance_id]) if depth_lists[r.instance_id] else r
        for r in main
    ]
