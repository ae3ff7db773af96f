"""Acquisition strategies: one ranking core for every strategy kind.

``rank_pool`` yields a pool's (record, score) pairs best-first; a
k-instance batch is its first k items.

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
batch costs O(k * |pool|) distance evaluations and embeds nothing.

The other kinds score every record once (``_order``) and walk the
scores best-first (``_best_first``): each cut partially selects the next
best rows and sorts only those, so a round that reads m of a pool's
entries sorts about m of them, not the whole pool. All but ``random``
score a record by its own fields alone, and (-score, id) is a strict
total order, so a campaign walks its whole dataset once and each round
reads that order restricted to the round's pool; ``random`` draws the
pool's scores anew each round and walks only as deep as the round reads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import islice
from typing import Iterator, Mapping, Sequence

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


def _farthest_first(coverage: Coverage, ids: np.ndarray) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The greedy pick loop on a copy of ``coverage``'s unfolded rows, which
    are a pool's rows in order (``ids`` their instance ids), as one-pick
    chunks of (position in the pool, score): a pick's entry is set to -inf,
    so it never wins again, and its row is folded into the copied ``mins``
    only when the next pick is asked for."""
    if not coverage.folded.any():
        raise ValueError("labeled set must be nonempty")
    rows = np.flatnonzero(~coverage.folded)
    if len(rows) != len(ids):
        raise ValueError(f"pool has {len(ids)} records, coverage has {len(rows)} unfolded rows")
    E, mins = coverage.E[rows], coverage.mins[rows]

    for _ in range(len(ids)):
        tie = np.flatnonzero(mins == mins.max())
        pick = int(tie[np.argmin(ids[tie])])
        yield np.array([pick]), mins[pick : pick + 1].copy()
        mins[pick] = -np.inf
        fold_min_distances(coverage.metric, E, E[pick : pick + 1], mins)


def _with_records(
    pool: Sequence[InstanceRecord], chunks: Iterator[tuple[np.ndarray, np.ndarray]]
) -> Iterator[tuple[InstanceRecord, float]]:
    """The (record, score) pairs of ranked chunks of positions in ``pool``."""
    for positions, scores in chunks:
        yield from zip(map(pool.__getitem__, positions.tolist()), scores.tolist())


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
    return _with_records(pool, _farthest_first(coverage, _instance_ids(pool)))


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

    Instances with fewer than two depth readings score 0. The scalar
    reference of ``_depth_variances``, which ranking uses.
    """
    depths: list[float] = []
    if r.pred_depth is not None:
        depths.append(float(r.pred_depth))
    if r.aux_depths:
        depths.extend(float(d) for d in r.aux_depths)
    if len(depths) < 2:
        return 0.0
    return float(np.var(depths))


def _depth_variances(records: Sequence[InstanceRecord]) -> np.ndarray:
    """``ensemble_depth_variance`` of every record, bit for bit, with one
    ``np.var`` per count of depth readings: the readings of the records
    with k of them are the rows of one C-ordered (m, k) matrix, and numpy
    reduces each row of it in the order it reduces a k-element list."""
    readings = [((r.pred_depth,) if r.pred_depth is not None else ()) + (r.aux_depths or ()) for r in records]
    counts = np.fromiter(map(len, readings), dtype=np.intp, count=len(readings))
    variances = np.zeros(len(readings))
    for k in np.unique(counts[counts >= 2]).tolist():
        rows = np.flatnonzero(counts == k)
        variances[rows] = np.array([readings[i] for i in rows.tolist()], dtype=np.float64).var(axis=1)
    return variances


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
    """Reject pools missing the fields a strategy ranks by, naming how many
    records miss one and at most the first five of their ids.

    Diversity strategies only need features, so they rank pools without
    confidence or depth; campaigns and rounds need every depth regardless.
    """
    if cfg.kind not in ("random", *CORESET_KINDS):
        column = "confidence" if cfg.kind == "confidence" else "pred_depth"
        missing = [r.instance_id for r in pool if getattr(r, column) is None]
        if missing:
            n = f"{len(missing)} of {len(pool)}"
            raise ValueError(f"{cfg.kind} strategy: {column} missing on {n} instances, first {missing[:5]}")
    if cfg.kind in CORESET_KINDS and pool:
        names = set(pool[0].features)
        absent = [v.name for v in cfg.views if v.name not in names]
        if absent:
            raise ValueError(f"strategy {cfg.kind!r}: pool lacks feature views {absent}")


# The first cut of a best-first walk, and the factor each later cut grows by.
_FIRST_CUT = 1024
_GROWTH = 4


def _best_first(scores: np.ndarray, ids: np.ndarray, ranked: np.ndarray | None = None) -> Iterator[np.ndarray]:
    """The positions ``ranked`` (all positions of ``scores`` when None) in
    (-score, id) order, ``ids`` being every position's id: successive
    chunks, each ordered by ``np.lexsort``.

    A cut partially selects (``np.partition``) the next ``k`` best of the
    remaining positions and takes every position tied with the last of
    them, so nothing after the cut ranks before anything in it. ``k``
    starts at ``_FIRST_CUT`` and grows ``_GROWTH``-fold per cut, so a
    caller that stops after m positions has sorted O(m + _FIRST_CUT) of
    them and made O(log m) passes over the rest.
    """
    key = -scores
    rest = np.arange(len(key)) if ranked is None else ranked
    k = _FIRST_CUT
    while len(rest) > k:
        part = key[rest]
        top = part <= np.partition(part, k - 1)[k - 1]
        chunk = rest[top]
        yield chunk[np.lexsort((ids[chunk], key[chunk]))]
        rest = rest[~top]
        k *= _GROWTH
    yield rest[np.lexsort((ids[rest], key[rest]))]


def _order(
    records: Sequence, ids: np.ndarray, cfg: StrategyConfig, seed: int | None
) -> tuple[Iterator[np.ndarray], np.ndarray]:
    """A non-greedy kind's ranking of ``records`` (``ids`` their instance ids):
    the best-first walk (``_best_first``) over the positions of the records
    it ranks, ties to the lowest id and far_depth's filtered records left
    out, and every record's score. ``random`` reads only how many records
    there are."""
    if cfg.kind == "random":
        scores = np.random.default_rng(cfg.seed if seed is None else seed).random(len(records))
    elif cfg.kind == "ens_depth_var":
        scores = _depth_variances(records)
    else:
        column = "confidence" if cfg.kind == "confidence" else "pred_depth"
        scores = np.array([getattr(r, column) for r in records], dtype=np.float64)
        if cfg.kind != "far_depth":
            scores = -scores
    ranked = None
    if cfg.kind == "far_depth":
        f = cfg.far_depth_filters
        heights = np.array([r.box2d.h for r in records], dtype=np.float64)
        ranked = np.flatnonzero((heights >= f.min_px_height) & (scores < f.max_depth))
    return _best_first(scores, ids, ranked), scores


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
    filled; the remaining kinds score every record once and walk the ones
    they rank by descending score, ties to the lowest instance_id, sorting
    only as deep as the caller reads. ``seed`` overrides the config seed
    for per-round randomness.
    """
    validate_strategy_setup(cfg, pool)
    yield from _with_records(pool, _ranked(pool, _instance_ids(pool), cfg, coverage, seed))


def _ranked(
    pool: Sequence, ids: np.ndarray, cfg: StrategyConfig, coverage: Coverage | None, seed: int | None
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """``rank_pool``'s order of a pool already checked against the strategy,
    with ``ids`` its instance ids in order: chunks of (positions in the
    pool, their scores), best-first. The greedy kinds give one pick per
    chunk and the others ``_best_first``'s cuts; the campaign maps the
    positions to dataset rows, ``rank_pool`` to records."""
    if cfg.kind in CORESET_KINDS:
        if coverage is None:
            raise ValueError(f"strategy {cfg.kind!r} needs a coverage of the labeled set")
        yield from _farthest_first(coverage, ids)
    else:
        walk, scores = _order(pool, ids, cfg, seed)
        for chunk in walk:
            yield chunk, scores[chunk]
