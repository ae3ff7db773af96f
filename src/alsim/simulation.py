"""Labeling-campaign driver.

A campaign seeds a random fraction of images as fully labeled, then runs
selection rounds against a ground-truth oracle. Every issued request is
charged against the round's cumulative budget whether or not it matches
an object; near-duplicate requests are skipped without charge. Matched
objects move to the labeled set and their requesting instances join the
strategy's reference set for later rounds.

The module also carries the training-side schedules of the simulated
detector ensemble (time-decayed label bagging and loss-weight
perturbation) and the classification-mask construction used when
training on sparsely labeled images.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Sequence

import numpy as np

from .features import FusedCosineMetric, compress_views, fold_min_distances
from .geometry import match_request, suppress_duplicate
from .metrics import Curve, CurvePoint
from .records import Box2D, CameraModel, Dataset, GroundTruthObject, InstanceRecord, ViewSpec
from .selection import CORESET_KINDS, StrategyConfig, rank_pool, validate_strategy_setup

__all__ = [
    "LOSS_SUBTASKS",
    "RequestEvent",
    "RoundLog",
    "RoundState",
    "CampaignConfig",
    "MaskGrid",
    "bagging_fraction",
    "sample_loss_weights",
    "sample_bagged_labels",
    "build_class_mask",
    "masked_pointwise_loss",
    "run_round",
    "run_campaign",
    "covering_radius",
    "covering_radius_hook",
    "SyntheticSpec",
    "generate_synthetic",
]

# Subtasks of a monocular 3D detector whose loss terms get perturbed
# per auxiliary ensemble member.
LOSS_SUBTASKS = (
    "classification",
    "box2d",
    "center_offset",
    "dimensions",
    "depth",
    "orientation",
    "confidence",
)


@dataclass(frozen=True)
class RequestEvent:
    """One oracle interaction. ``outcome`` is matched, null (false
    positive), or suppressed (near-duplicate, never charged)."""

    round_index: int
    instance_id: int
    image_id: str
    outcome: str
    gt_id: int | None = None
    charged: bool = False

    def to_json(self) -> dict:
        obj = {
            "round": self.round_index,
            "instance_id": self.instance_id,
            "image_id": self.image_id,
            "outcome": self.outcome,
            "charged": self.charged,
        }
        if self.gt_id is not None:
            obj["gt_id"] = self.gt_id
        return obj


@dataclass(frozen=True)
class RoundLog:
    round_index: int
    budget_target: int
    events: tuple[RequestEvent, ...]
    charged: int
    matched: int
    suppressed: int
    train_fraction: float
    loss_weights: dict[str, float]
    bagged_label_count: int
    selected_images: tuple[tuple[str, int], ...] = ()


@dataclass(frozen=True)
class RoundState:
    """Campaign state between rounds; the driver owns it exclusively."""

    round_index: int
    labeled_gt: frozenset[int]
    requested_total: int
    labeled_images: frozenset[str]
    rng_seed: int
    history: tuple[RoundLog, ...] = ()

    def matched_instance_ids(self) -> set[int]:
        return {
            ev.instance_id
            for log in self.history
            for ev in log.events
            if ev.outcome == "matched"
        }


@dataclass(frozen=True)
class CampaignConfig:
    strategy: StrategyConfig
    round_budgets: tuple[int, ...]
    h_scale: float = 2.0
    initial_fraction: float = 0.1
    alpha: float = 3.0
    delta: float = 0.2
    min_px_height: float = 25.0
    pca_var_keep: float | None = None

    def __post_init__(self):
        budgets = tuple(int(b) for b in self.round_budgets)
        object.__setattr__(self, "round_budgets", budgets)
        if any(b <= 0 for b in budgets):
            raise ValueError(f"round budgets must be positive, got {budgets}")
        if any(b2 <= b1 for b1, b2 in zip(budgets, budgets[1:])):
            raise ValueError(f"round budgets must be strictly increasing, got {budgets}")
        if not 0.0 <= self.delta < 1.0:
            raise ValueError(f"delta must be in [0, 1), got {self.delta}")
        if not self.alpha > 0:
            raise ValueError(f"alpha must be > 0, got {self.alpha}")
        if not 0.0 <= self.initial_fraction <= 1.0:
            raise ValueError(f"initial_fraction must be in [0, 1], got {self.initial_fraction}")
        if self.initial_fraction == 0.0 and self.strategy.kind in CORESET_KINDS:
            raise ValueError(f"initial_fraction must be > 0 for greedy strategy {self.strategy.kind!r}")
        if not self.h_scale > 0:
            raise ValueError(f"h_scale must be > 0, got {self.h_scale}")
        if self.pca_var_keep is not None and not 0.0 < self.pca_var_keep <= 1.0:
            raise ValueError(f"pca_var_keep must be in (0, 1], got {self.pca_var_keep}")


@dataclass(frozen=True)
class MaskGrid:
    """Binary per-cell mask for the classification loss."""

    width: int
    height: int
    values: np.ndarray


def bagging_fraction(t: float, alpha: float) -> float:
    """Labeled-data sampling fraction 0.5 + 0.4 * exp(-alpha * t).

    Starts at 0.9 when no labels exist and decays toward 0.5 as labeling
    progress t grows, so early label-sparse rounds train on more of the
    data.

    Raises:
        ValueError: for t outside [0, 1] or nonpositive alpha.
    """
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"t must be in [0, 1], got {t}")
    if not alpha > 0:
        raise ValueError(f"alpha must be > 0, got {alpha}")
    return 0.5 + 0.4 * math.exp(-alpha * t)


def sample_loss_weights(subtasks: Sequence[str], delta: float, seed: int) -> dict[str, float]:
    """Per-subtask multipliers drawn independently from [1-delta, 1+delta]."""
    if not 0.0 <= delta < 1.0:
        raise ValueError(f"delta must be in [0, 1), got {delta}")
    rng = np.random.default_rng(seed)
    return {name: float(rng.uniform(1.0 - delta, 1.0 + delta)) for name in subtasks}


def sample_bagged_labels(labeled_gt: Iterable[int], t: float, alpha: float, seed: int) -> set[int]:
    """Uniform label subset of size round(s(t) * n), floored at 1 for
    nonempty inputs so tiny fixtures never train on nothing."""
    ids = sorted(labeled_gt)
    if not ids:
        return set()
    size = int(round(bagging_fraction(t, alpha) * len(ids)))
    size = max(1, min(size, len(ids)))
    rng = np.random.default_rng(seed)
    chosen = rng.choice(len(ids), size=size, replace=False)
    return {ids[int(i)] for i in chosen}


def build_class_mask(
    width: int,
    height: int,
    gt_centers: Sequence[tuple[int, int]],
    unlabeled_pred_boxes: Sequence[Box2D],
) -> MaskGrid:
    """Binary mask over the class heatmap grid.

    A cell is 1 only when it is a labeled ground-truth center AND lies
    outside every 2D box of a previously predicted, still-unlabeled
    object; the exclusion wins even on labeled centers. Centers are
    (x, y) cell coordinates.
    """
    values = np.zeros((height, width), dtype=np.uint8)
    for x, y in gt_centers:
        if not (0 <= x < width and 0 <= y < height):
            raise ValueError(f"gt center ({x}, {y}) outside {width}x{height} grid")
        values[y, x] = 1
    for box in unlabeled_pred_boxes:
        x0 = max(0, math.ceil(box.x_min))
        x1 = min(width - 1, math.floor(box.x_max))
        y0 = max(0, math.ceil(box.y_min))
        y1 = min(height - 1, math.floor(box.y_max))
        if x0 <= x1 and y0 <= y1:
            values[y0 : y1 + 1, x0 : x1 + 1] = 0
    return MaskGrid(width=width, height=height, values=values)


def masked_pointwise_loss(pred, gt, mask: MaskGrid, loss_fn) -> float:
    """Sum of a pointwise loss over classes and cells, gated by the mask.

    ``pred`` and ``gt`` are per-class grids of shape (C, H, W) or a
    single (H, W) grid; ``loss_fn`` maps two equal-shape arrays to an
    elementwise loss array.

    Raises:
        ValueError: on any shape mismatch.
    """
    pred = np.asarray(pred, dtype=np.float64)
    gt = np.asarray(gt, dtype=np.float64)
    if pred.shape != gt.shape:
        raise ValueError(f"pred/gt shape mismatch: {pred.shape} vs {gt.shape}")
    if pred.shape[-2:] != mask.values.shape:
        raise ValueError(f"grid shape {pred.shape[-2:]} does not match mask {mask.values.shape}")
    cellwise = np.asarray(loss_fn(pred, gt), dtype=np.float64)
    if cellwise.shape != pred.shape:
        raise ValueError(f"loss_fn changed the shape: {cellwise.shape} vs {pred.shape}")
    return float((cellwise * mask.values).sum())


def _round_seed(base: int, round_index: int, salt: int) -> int:
    return int(np.random.SeedSequence([base, round_index, salt]).generate_state(1)[0])


def _labeled_records(state: RoundState, data: Dataset) -> list[InstanceRecord]:
    matched = state.matched_instance_ids()
    return [
        r
        for r in data.instances
        if r.image_id in state.labeled_images or r.instance_id in matched
    ]


def _compress(
    records: Sequence[InstanceRecord], views: Sequence[ViewSpec], var_keep: float
) -> tuple[list[InstanceRecord], tuple[ViewSpec, ...]]:
    """PCA-compress ``views`` over ``records``; return the compressed copies
    and the views carrying their compressed dims, which ``embed`` needs."""
    compressed = compress_views(records, views, var_keep)
    # Each view keeps as many components as its variance cutoff needs.
    return compressed, tuple(replace(v, dim=compressed[0].features[v.name].shape[0]) for v in views)


def _prior_requests_by_image(state: RoundState, data: Dataset) -> dict[str, list]:
    by_id = {r.instance_id: r for r in data.instances}
    priors: dict[str, list] = {}
    for log in state.history:
        for ev in log.events:
            if not ev.charged:
                continue
            r = by_id[ev.instance_id]
            priors.setdefault(ev.image_id, []).append((r.center, r.class_id))
    return priors


def run_round(
    state: RoundState,
    data: Dataset,
    cfg: CampaignConfig,
    pool: Sequence[InstanceRecord],
) -> tuple[RoundState, RoundLog]:
    """Run one selection round up to its cumulative budget target.

    The strategy ranks the pool; requests are issued in rank order. A
    request within 95% of the labeling radius of an earlier same-class
    request in the same image is suppressed without charge. Every other
    request is charged, matched or not; matched ground truth moves to the
    labeled set. The round stops once the cumulative requested total
    reaches this round's budget target or the ranking is exhausted.

    Raises:
        ValueError: if the budget target lies below the current total, or
            a requested instance lacks the predicted depth the oracle
            window needs.
    """
    if state.round_index >= len(cfg.round_budgets):
        raise ValueError(f"no budget configured for round {state.round_index}")
    target = cfg.round_budgets[state.round_index]
    if target < state.requested_total:
        raise ValueError(
            f"budget target {target} below already requested {state.requested_total}"
        )

    labeled_records = _labeled_records(state, data)
    metric = None
    ranked_pool: Sequence[InstanceRecord] = pool
    ranked_labeled: Sequence[InstanceRecord] = labeled_records
    if cfg.strategy.kind in CORESET_KINDS:
        views = cfg.strategy.views
        if cfg.pca_var_keep is not None:
            combined, views = _compress(list(labeled_records) + list(pool), views, cfg.pca_var_keep)
            ranked_labeled = combined[: len(labeled_records)]
            ranked_pool = combined[len(labeled_records) :]
        metric = FusedCosineMetric(views)

    priors = _prior_requests_by_image(state, data)
    gts_by_image: dict[str, list[GroundTruthObject]] = {}
    for g in data.ground_truth:
        gts_by_image.setdefault(g.image_id, []).append(g)

    labeled_gt = set(state.labeled_gt)
    events: list[RequestEvent] = []
    charged = matched = suppressed = 0
    round_seed = _round_seed(state.rng_seed, state.round_index, 1)

    ranking = rank_pool(
        ranked_pool, cfg.strategy, labeled=ranked_labeled, metric=metric, seed=round_seed
    )
    for record, _score in ranking:
        if state.requested_total + charged >= target:
            break
        if record.pred_depth is None:
            raise ValueError(f"instance {record.instance_id}: pred_depth required to issue a request")
        image_priors = priors.setdefault(record.image_id, [])
        if suppress_duplicate(
            record.center, record.pred_depth, record.class_id, image_priors, data.camera, cfg.h_scale
        ):
            suppressed += 1
            events.append(
                RequestEvent(state.round_index, record.instance_id, record.image_id, "suppressed")
            )
            continue

        candidates = [
            g for g in gts_by_image.get(record.image_id, []) if g.gt_id not in labeled_gt
        ]
        result = match_request(
            record.center,
            record.pred_depth,
            record.class_id,
            candidates,
            data.camera,
            cfg.h_scale,
            cfg.min_px_height,
        )
        image_priors.append((record.center, record.class_id))
        charged += 1
        if result.matched:
            matched += 1
            labeled_gt.add(result.gt_id)
            events.append(
                RequestEvent(
                    state.round_index, record.instance_id, record.image_id,
                    "matched", gt_id=result.gt_id, charged=True,
                )
            )
        else:
            events.append(
                RequestEvent(state.round_index, record.instance_id, record.image_id, "null", charged=True)
            )

    total_gt = len(data.ground_truth)
    t = len(labeled_gt) / total_gt if total_gt else 0.0
    train_fraction = bagging_fraction(t, cfg.alpha)
    loss_weights = sample_loss_weights(
        LOSS_SUBTASKS, cfg.delta, _round_seed(state.rng_seed, state.round_index, 2)
    )
    bagged = sample_bagged_labels(
        labeled_gt, t, cfg.alpha, _round_seed(state.rng_seed, state.round_index, 3)
    )

    log = RoundLog(
        round_index=state.round_index,
        budget_target=target,
        events=tuple(events),
        charged=charged,
        matched=matched,
        suppressed=suppressed,
        train_fraction=train_fraction,
        loss_weights=loss_weights,
        bagged_label_count=len(bagged),
    )
    new_state = RoundState(
        round_index=state.round_index + 1,
        labeled_gt=frozenset(labeled_gt),
        requested_total=state.requested_total + charged,
        labeled_images=state.labeled_images,
        rng_seed=state.rng_seed,
        history=state.history + (log,),
    )
    return new_state, log


PerformanceHook = Callable[[Sequence[InstanceRecord], Sequence[InstanceRecord]], float]


def run_campaign(
    cfg: CampaignConfig,
    data: Dataset,
    performance_hook: PerformanceHook,
) -> tuple[Curve, RoundState]:
    """Run a full campaign and measure performance after every round.

    Labeling starts by marking ``initial_fraction`` of the images (chosen
    uniformly at random from the campaign seed) as fully labeled; the
    seeded labels are not charged to the budget, so the curve starts at
    x = 0. The hook receives (labeled instances, remaining pool) and
    returns the y value; at desk scale this is a surrogate such as the
    fused-metric covering radius rather than a detector score. The hook
    always sees the dataset's own records, in dataset order.

    With ``pca_var_keep`` set for a greedy kind, PCA is fit once per
    campaign over every instance of ``data`` (labeled + pool is always the
    whole export), and every round ranks on that compressed copy; calling
    ``run_round`` directly instead refits on each call.
    """
    validate_strategy_setup(cfg.strategy, list(data.instances))
    missing_depth = [r.instance_id for r in data.instances if r.pred_depth is None]
    if missing_depth:
        raise ValueError(f"campaign needs pred_depth on every instance; missing: {missing_depth[:5]}")

    image_ids = list(data.images)
    n_seed = int(round(cfg.initial_fraction * len(image_ids)))
    if cfg.initial_fraction > 0 and image_ids:
        n_seed = max(1, n_seed)
    rng = np.random.default_rng(cfg.strategy.seed)
    seeded_idx = rng.choice(len(image_ids), size=n_seed, replace=False) if n_seed else []
    seeded = frozenset(image_ids[int(i)] for i in seeded_idx)

    labeled_gt = frozenset(g.gt_id for g in data.ground_truth if g.image_id in seeded)
    state = RoundState(
        round_index=0,
        labeled_gt=labeled_gt,
        requested_total=0,
        labeled_images=seeded,
        rng_seed=cfg.strategy.seed,
        history=(),
    )

    def split(records):
        labeled_ids = {r.instance_id for r in _labeled_records(state, data)}
        return (
            [r for r in records if r.instance_id in labeled_ids],
            [r for r in records if r.instance_id not in labeled_ids],
        )

    labeled, pool = split(data.instances)
    points = [CurvePoint(0.0, float(performance_hook(labeled, pool)))]

    # The rounds rank on ``ranked``: ``data`` itself, or its records with
    # the strategy's views PCA-compressed once, in the same order.
    ranked, round_cfg = data, cfg
    if pool and cfg.round_budgets and cfg.pca_var_keep is not None and cfg.strategy.kind in CORESET_KINDS:
        compressed, views = _compress(data.instances, cfg.strategy.views, cfg.pca_var_keep)
        ranked = replace(data, instances=tuple(compressed))
        round_cfg = replace(cfg, strategy=replace(cfg.strategy, views=views), pca_var_keep=None)

    for _ in cfg.round_budgets:
        if not pool:
            break
        round_pool = pool if ranked is data else split(ranked.instances)[1]
        state, log = run_round(state, ranked, round_cfg, round_pool)
        if log.charged == 0:
            break
        labeled, pool = split(data.instances)
        points.append(CurvePoint(float(state.requested_total), float(performance_hook(labeled, pool))))

    return Curve(tuple(points)), state


def covering_radius(
    labeled: Sequence[InstanceRecord],
    pool: Sequence[InstanceRecord],
    metric,
) -> float:
    """Largest distance from any instance to its nearest labeled instance.

    The k-center objective over the full instance set; smaller is better.
    ``metric`` has ``embed`` and ``between``, like ``FusedCosineMetric``.
    """
    if not len(labeled):
        return math.inf
    E = metric.embed(list(labeled) + list(pool))
    return float(fold_min_distances(metric, E, E[: len(labeled)], np.full(len(E), np.inf)).max())


class _CoveringRadiusHook:
    """State of ``covering_radius_hook``: the embedded instance set and
    each instance's minimum distance to the rows labeled so far."""

    def __init__(self, metric):
        self.metric = metric
        # Records are eq=False, so rows are found by object identity; the
        # list keeps them alive so no id() is reused while it is a key.
        self.instances: list[InstanceRecord] = []
        self.row_of: dict[int, int] = {}
        self.E = np.zeros((0, 0))
        self.mins = np.zeros(0)
        self.folded = np.zeros(0, dtype=bool)

    def _labeled_rows(self, labeled, pool) -> np.ndarray | None:
        """Mask of ``labeled``'s rows when labeled + pool is the embedded
        instance set and contains every row folded so far, else None."""
        n = len(self.instances)
        if len(labeled) + len(pool) != n:
            return None
        is_labeled = np.zeros(n, dtype=bool)
        seen = np.zeros(n, dtype=bool)
        try:
            is_labeled[[self.row_of[id(r)] for r in labeled]] = True
            seen[[self.row_of[id(r)] for r in pool]] = True
        except KeyError:
            return None
        seen |= is_labeled
        if not seen.all() or (self.folded & ~is_labeled).any():
            return None
        return is_labeled

    def __call__(self, labeled, pool) -> float:
        if not len(labeled):
            return math.inf
        is_labeled = self._labeled_rows(labeled, pool)
        if is_labeled is None:
            self.instances = list(labeled) + list(pool)
            self.row_of = {id(r): i for i, r in enumerate(self.instances)}
            self.E = self.metric.embed(self.instances)
            self.mins = np.full(len(self.instances), np.inf)
            self.folded = np.zeros(len(self.instances), dtype=bool)
            is_labeled = np.zeros(len(self.instances), dtype=bool)
            is_labeled[: len(labeled)] = True
        new = np.flatnonzero(is_labeled & ~self.folded)
        fold_min_distances(self.metric, self.E, self.E[new], self.mins)
        self.folded = is_labeled
        return float(self.mins.max())


def covering_radius_hook(metric) -> PerformanceHook:
    """Performance hook measuring the covering radius under ``metric``.

    Equal to ``covering_radius`` on every call (up to rounding in the last
    bits), but incremental: the first call embeds the instance set
    (labeled + pool) once, and while later calls pass the same records
    with a labeled set that only grew, only the newly labeled rows are
    folded into each instance's minimum distance, in blocks of
    ``FOLD_BLOCK`` rows, so no call holds more than N x FOLD_BLOCK
    distances. Any other call (a labeled record dropped, a record not seen
    before, a different instance set) starts over. Records are matched by
    identity, so a second dataset with the same instance ids is a
    different set.
    """
    return _CoveringRadiusHook(metric)


@dataclass(frozen=True)
class SyntheticSpec:
    """Shape of a synthetic desk-scale dataset.

    One image per cluster; every instance gets a co-located ground-truth
    object tall enough to label, so all requests are matchable. Auxiliary
    depth predictions are drawn around the true depth with a standard
    deviation proportional to it, reproducing the far-object uncertainty
    bias, and confidence decays with depth for the same reason.
    """

    clusters: int
    per_cluster: int
    views: tuple[ViewSpec, ...] = (
        ViewSpec("det_a", 16, 1.0 / 6.0),
        ViewSpec("det_b", 12, 1.0 / 6.0),
        ViewSpec("det_c", 12, 1.0 / 6.0),
        ViewSpec("visual", 24, 0.5),
    )
    depth_range: tuple[float, float] = (5.0, 45.0)
    depth_noise: float = 0.06
    n_aux: int = 2
    cluster_spread: float = 0.05
    image_size: tuple[int, int] = (1242, 375)
    n_classes: int = 8
    focal: float = 707.05

    def __post_init__(self):
        if self.clusters <= 0 or self.per_cluster <= 0:
            raise ValueError("clusters and per_cluster must be positive")


def generate_synthetic(spec: SyntheticSpec, seed: int = 0) -> Dataset:
    """Generate a cluster-structured dataset for desk-scale experiments."""
    rng = np.random.default_rng(seed)
    camera = CameraModel(spec.focal, spec.focal)
    width, height = spec.image_size
    margin = 40.0
    dmin, dmax = spec.depth_range

    instances: list[InstanceRecord] = []
    gts: list[GroundTruthObject] = []
    next_id = 0
    for c in range(spec.clusters):
        image_id = f"img{c:04d}"
        cluster_centers = {v.name: rng.normal(size=v.dim) for v in spec.views}
        for _ in range(spec.per_cluster):
            depth = float(rng.uniform(dmin, dmax))
            cx = float(rng.uniform(margin, width - margin))
            cy = float(rng.uniform(margin, height - margin))
            obj_height = float(rng.uniform(1.6, 2.0))
            px_h = spec.focal * obj_height / depth
            px_w = px_h * float(rng.uniform(0.6, 1.2))
            class_id = int(rng.integers(spec.n_classes))
            feats = {
                v.name: cluster_centers[v.name] + spec.cluster_spread * rng.normal(size=v.dim)
                for v in spec.views
            }
            span = dmax - dmin
            conf = 1.0 - 0.9 * (depth - dmin) / span if span > 0 else 0.5
            conf = float(np.clip(conf + rng.normal(0.0, 0.05), 0.01, 0.99))
            aux = tuple(
                float(depth + rng.normal(0.0, spec.depth_noise * depth))
                for _ in range(spec.n_aux)
            )
            instances.append(
                InstanceRecord(
                    image_id=image_id,
                    instance_id=next_id,
                    class_id=class_id,
                    box2d=Box2D(cx, cy, px_w, px_h),
                    features=feats,
                    pred_depth=depth,
                    confidence=conf,
                    aux_depths=aux,
                )
            )
            gts.append(
                GroundTruthObject(
                    gt_id=next_id,
                    image_id=image_id,
                    class_id=class_id,
                    center2d=(cx, cy),
                    depth=depth,
                    pixel_height=px_h,
                )
            )
            next_id += 1

    images = {f"img{c:04d}": spec.per_cluster for c in range(spec.clusters)}
    return Dataset(
        camera=camera,
        views=spec.views,
        instances=tuple(instances),
        ground_truth=tuple(gts),
        images=images,
    )
