"""Labeling-campaign driver.

A campaign seeds a random fraction of images as fully labeled, then runs
selection rounds against a ground-truth oracle. Every issued request is
charged against the round's cumulative budget whether or not it matches
an object; near-duplicate requests are skipped without charge. Matched
objects move to the labeled set and their requesting instances join the
reference set of every ``features.Coverage`` the campaign owns: one per
distinct metric, shared by a greedy strategy and the covering-radius hook
when their views agree.

The oracle's per-image state is one ``OracleIndex`` per campaign: the
charged requests by image and class, which duplicate suppression reads,
and each image's ground truth with an open mask that a match clears.
A request is matched against only the open objects inside its labeling
window, so a round costs time in its requests, not in the dataset's size.

The module also carries the training-side schedules of the simulated
detector ensemble (time-decayed label bagging and loss-weight
perturbation); each round log records their values and the bag size, and
no bag is drawn.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .features import Coverage, FusedCosineMetric, compress_views
from .geometry import Radius2D, labeling_radius, match_request, suppress_duplicate
from .metrics import Curve, CurvePoint
from .records import Box2D, CameraModel, Dataset, GroundTruthObject, InstanceRecord, ViewSpec, _whole
from .selection import CORESET_KINDS, StrategyConfig, rank_pool, validate_strategy_setup

__all__ = [
    "LOSS_SUBTASKS",
    "RequestEvent",
    "RoundLog",
    "RoundState",
    "OracleIndex",
    "CampaignConfig",
    "bagging_fraction",
    "sample_loss_weights",
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
    """Campaign state between rounds, owned by the campaign loop. A round
    reads only the ledger: labels, and the ids of instances whose request
    matched or was charged. ``history`` is kept for the outputs."""

    round_index: int
    labeled_gt: frozenset[int]
    requested_total: int
    labeled_images: frozenset[str]
    rng_seed: int
    history: tuple[RoundLog, ...] = ()
    matched_ids: frozenset[int] = frozenset()
    charged_ids: frozenset[int] = frozenset()


def _whole_numbers(name: str, values) -> tuple[int, ...]:
    """``values`` as ints; ``400.0`` passes, while a non-list, or a string,
    boolean, fraction or non-finite item, raises a ValueError naming ``name``."""
    try:
        return tuple(_whole(v) for v in values)
    except (TypeError, ValueError):
        raise ValueError(f"{name} must be a list of whole numbers, got {values!r}") from None


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
        budgets = _whole_numbers("round_budgets", self.round_budgets)
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
        if math.isnan(self.min_px_height):
            raise ValueError("min_px_height must be a number, got nan")
        if self.pca_var_keep is not None and not 0.0 < self.pca_var_keep <= 1.0:
            raise ValueError(f"pca_var_keep must be in (0, 1], got {self.pca_var_keep}")


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


def _round_seed(base: int, round_index: int, salt: int) -> int:
    return int(np.random.SeedSequence([base, round_index, salt]).generate_state(1)[0])


def _labeled_mask(state: RoundState, instances: Sequence[InstanceRecord]) -> np.ndarray:
    """The ledger's labeled mask over ``instances``: a record is labeled
    when its image was seeded or its request matched."""
    return np.fromiter(
        (r.image_id in state.labeled_images or r.instance_id in state.matched_ids for r in instances),
        dtype=bool,
        count=len(instances),
    )


def _split(labeled: np.ndarray, rows: np.ndarray) -> tuple[list[InstanceRecord], list[InstanceRecord]]:
    """(labeled, pool) records of ``rows``, an object array of a dataset's
    instances, under the mask ``labeled``; each in dataset order."""
    return rows[labeled].tolist(), rows[~labeled].tolist()


def _rows(data: Dataset) -> np.ndarray:
    return np.fromiter(data.instances, dtype=object, count=len(data.instances))


def _coverage(coverages: dict, data: Dataset, metric, pca_var_keep: float | None = None) -> Coverage:
    """The coverage of ``data.instances`` under ``metric`` from ``coverages``,
    built and stored there on first request with nothing folded.

    A ``FusedCosineMetric`` is keyed by ``(views, pca_var_keep)``, so equal
    keys share one coverage, and its ``E`` is embedded from the dataset's
    per-view matrices, PCA-compressed first when ``pca_var_keep`` is set.
    Any other metric is keyed by itself and embeds the records.
    """
    fused = isinstance(metric, FusedCosineMetric)
    key = (metric.views, pca_var_keep) if fused else metric
    coverage = coverages.get(key)
    if coverage is None:
        if not fused:
            E = metric.embed(data.instances)
        elif pca_var_keep is None:
            E = metric.embed_views([data.matrix(v.name) for v in metric.views])
        else:
            E = metric.embed_views(compress_views(data.instances, metric.views, pca_var_keep))
        coverage = coverages[key] = Coverage(metric, data.instances, E)
    return coverage


class _ImageTruth:
    """One image's ground-truth objects in dataset order, their centre
    columns, and an ``open`` mask of the objects not labeled yet."""

    __slots__ = ("objects", "cx", "cy", "open")

    def __init__(self, objects: list[GroundTruthObject], labeled_gt: frozenset[int]):
        self.objects = objects
        self.cx = np.array([g.center2d[0] for g in objects], dtype=np.float64)
        self.cy = np.array([g.center2d[1] for g in objects], dtype=np.float64)
        self.open = np.array([g.gt_id not in labeled_gt for g in objects], dtype=bool)

    def window(self, center: tuple[float, float], rad: Radius2D) -> list[int]:
        """Rows of the open objects whose centre lies within ``rad`` of
        ``center`` on both axes, boundary inclusive, in dataset order."""
        inside = self.open & (np.abs(self.cx - center[0]) <= rad.r_x) & (np.abs(self.cy - center[1]) <= rad.r_y)
        return inside.nonzero()[0].tolist()


class OracleIndex:
    """The oracle's per-image state at the start of round ``round_index``.

    ``priors`` maps ``(image_id, class_id)`` to the ``(center, class_id)``
    pairs of the requests charged so far; ``truth`` maps an image to its
    ground truth with the labeled objects closed. Built from a state's
    ledger (``charged_ids``, ``labeled_gt``); ``run_round`` updates it in
    place with each request and then advances ``round_index``, so a
    campaign carries one index through all its rounds.
    """

    def __init__(self, data: Dataset, state: RoundState):
        self.round_index: int | None = state.round_index
        self.priors: dict[tuple[str, int], list[tuple[tuple[float, float], int]]] = {}
        for r in data.instances:
            if r.instance_id in state.charged_ids:
                self.priors.setdefault((r.image_id, r.class_id), []).append((r.center, r.class_id))
        by_image: dict[str, list[GroundTruthObject]] = {}
        for g in data.ground_truth:
            by_image.setdefault(g.image_id, []).append(g)
        self.truth = {image: _ImageTruth(objects, state.labeled_gt) for image, objects in by_image.items()}


def run_round(
    state: RoundState,
    data: Dataset,
    cfg: CampaignConfig,
    pool: Sequence[InstanceRecord],
    coverage: Coverage | None = None,
    oracle: OracleIndex | None = None,
) -> tuple[RoundState, RoundLog]:
    """Run one selection round up to its cumulative budget target.

    The strategy ranks ``pool`` (records of ``data``) as given; greedy
    kinds rank from ``coverage``, which is left unchanged, or from one
    built from ``state``'s labels when it is not given. Requests are
    issued in rank order. A request within 95% of the labeling radius of
    an earlier same-class request in the same image is suppressed without
    charge. Every other request is charged, matched or not, against the
    open ground truth inside its labeling window; matched ground truth
    moves to the labeled set. The round stops once the cumulative
    requested total reaches this round's budget target or the ranking is
    exhausted. Earlier rounds are read from ``oracle``, which the round
    updates in place and advances to the next round, or from an index
    built from ``state``'s ledger when it is not given. The loop records
    only the events (and the charged count the budget needs); the round
    log's counts and the returned state's labels and ledger are read off
    those events.

    Raises:
        ValueError: if the budget target lies below the current total, if
            ``oracle`` is at another round than ``state``, or if a
            requested instance lacks the depth the oracle window needs.
    """
    if state.round_index >= len(cfg.round_budgets):
        raise ValueError(f"no budget configured for round {state.round_index}")
    target = cfg.round_budgets[state.round_index]
    if target < state.requested_total:
        raise ValueError(
            f"budget target {target} below already requested {state.requested_total}"
        )
    if oracle is None:
        oracle = OracleIndex(data, state)
    elif oracle.round_index != state.round_index:
        raise ValueError(f"oracle index is at round {oracle.round_index}, state at round {state.round_index}")
    if cfg.strategy.kind in CORESET_KINDS and coverage is None:
        coverage = _coverage({}, data, FusedCosineMetric(cfg.strategy.views), cfg.pca_var_keep)
        coverage.fold(_split(_labeled_mask(state, data.instances), _rows(data))[0])
    # Marked in progress until the loop ends, so an index left half
    # updated by an error is refused by the next round.
    oracle.round_index = None

    events: list[RequestEvent] = []
    charged = 0
    round_seed = _round_seed(state.rng_seed, state.round_index, 1)

    # Started only below the target, and left right after the charge that
    # reaches it: a greedy ranking folds a pick only when asked for the next.
    ranking = ()
    if state.requested_total < target:
        ranking = rank_pool(pool, cfg.strategy, coverage=coverage, seed=round_seed)
    for record, _score in ranking:
        if record.pred_depth is None:
            raise ValueError(f"instance {record.instance_id}: pred_depth required to issue a request")
        priors = oracle.priors.setdefault((record.image_id, record.class_id), [])
        if suppress_duplicate(
            record.center, record.pred_depth, record.class_id, priors, data.camera, cfg.h_scale
        ):
            events.append(
                RequestEvent(state.round_index, record.instance_id, record.image_id, "suppressed")
            )
            continue

        truth = oracle.truth.get(record.image_id)
        candidates: list[GroundTruthObject] = []
        if truth is not None:
            rows = truth.window(record.center, labeling_radius(data.camera, record.pred_depth, cfg.h_scale))
            candidates = [truth.objects[i] for i in rows]
        result = match_request(
            record.center,
            record.pred_depth,
            record.class_id,
            candidates,
            data.camera,
            cfg.h_scale,
            cfg.min_px_height,
        )
        priors.append((record.center, record.class_id))
        charged += 1
        if result.matched:
            truth.open[rows[[g.gt_id for g in candidates].index(result.gt_id)]] = False
        outcome = "matched" if result.matched else "null"
        events.append(
            RequestEvent(state.round_index, record.instance_id, record.image_id, outcome, result.gt_id, True)
        )
        if state.requested_total + charged >= target:
            break
    oracle.round_index = state.round_index + 1

    matched = [ev for ev in events if ev.outcome == "matched"]
    labeled_gt = state.labeled_gt | {ev.gt_id for ev in matched}
    n = len(labeled_gt)
    train_fraction = bagging_fraction(n / len(data.ground_truth) if data.ground_truth else 0.0, cfg.alpha)
    log = RoundLog(
        round_index=state.round_index,
        budget_target=target,
        events=tuple(events),
        charged=charged,
        matched=len(matched),
        suppressed=len(events) - charged,
        train_fraction=train_fraction,
        loss_weights=sample_loss_weights(
            LOSS_SUBTASKS, cfg.delta, _round_seed(state.rng_seed, state.round_index, 2)
        ),
        # The bag a detector would train on: its size, never drawn.
        bagged_label_count=max(1, min(int(round(train_fraction * n)), n)) if n else 0,
    )
    new_state = RoundState(
        round_index=state.round_index + 1,
        labeled_gt=labeled_gt,
        requested_total=state.requested_total + charged,
        labeled_images=state.labeled_images,
        rng_seed=state.rng_seed,
        history=state.history + (log,),
        matched_ids=state.matched_ids | {ev.instance_id for ev in matched},
        charged_ids=state.charged_ids | {ev.instance_id for ev in events if ev.charged},
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

    The campaign keeps one labeled mask over the dataset's instances and
    owns every coverage it needs, one per distinct key (see
    ``_coverage``), each embedded once from ``data.matrix``: a greedy
    strategy's, keyed by ``(strategy.views, pca_var_keep)`` and
    PCA-compressed once when that is set, and a ``covering_radius_hook``'s,
    keyed by ``(metric.views, None)``. With equal keys the two are one
    coverage. Each round's newly labeled instances are folded once into
    every coverage; the greedy strategy ranks from its coverage, and the
    hook's value is the maximum of its coverage's distances, without a
    call to the hook. Every campaign builds one ``OracleIndex`` after
    seeding, which each round updates with its requests.
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
    )

    rows = _rows(data)
    mask = _labeled_mask(state, data.instances)
    labeled, pool = _split(mask, rows)

    coverages: dict = {}
    coverage = None
    if pool and cfg.round_budgets and cfg.strategy.kind in CORESET_KINDS:
        coverage = _coverage(coverages, data, FusedCosineMetric(cfg.strategy.views), cfg.pca_var_keep)
    if isinstance(performance_hook, _CoveringRadiusHook):
        hook_coverage = _coverage(coverages, data, performance_hook.metric)

        def measure(labeled, pool) -> float:
            return float(hook_coverage.mins.max()) if labeled else math.inf
    else:
        measure = performance_hook
    for c in coverages.values():
        c.fold(labeled)

    points = [CurvePoint(0.0, float(measure(labeled, pool)))]
    oracle = OracleIndex(data, state)
    ids = np.fromiter((r.instance_id for r in data.instances), dtype=np.int64, count=len(data.instances))

    for _ in cfg.round_budgets:
        if not pool:
            break
        state, log = run_round(state, data, cfg, pool, coverage, oracle)
        if log.charged == 0:
            break
        # Rows of this round's matches, in dataset order as ``labeled`` lists them.
        new = np.isin(ids, [ev.instance_id for ev in log.events if ev.outcome == "matched"]).nonzero()[0]
        mask[new] = True
        labeled, pool = _split(mask, rows)
        for c in coverages.values():
            c.fold(rows[new].tolist())
        points.append(CurvePoint(float(state.requested_total), float(measure(labeled, pool))))

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
    return float(Coverage(metric, [*labeled, *pool]).fold(labeled).max())


@dataclass(frozen=True)
class _CoveringRadiusHook:
    """``covering_radius_hook``'s hook: ``run_campaign`` recognises this
    type and reads the value off the campaign's coverage instead."""

    metric: object

    def __call__(self, labeled, pool) -> float:
        return covering_radius(labeled, pool, self.metric)


def covering_radius_hook(metric) -> PerformanceHook:
    """Performance hook measuring the covering radius under ``metric``.

    Passed to ``run_campaign``, it is never called: the campaign keeps a
    coverage for ``metric`` (shared with a greedy strategy whose views
    are ``metric.views`` and that compresses nothing), embedded once and
    folded with each round's new labels, and takes its maximum. Called
    directly, it is a one-shot ``covering_radius``. Either way a fold is
    tiled, so it holds at most ``features.FOLD_CELLS`` distances at once,
    whatever the number of instances.
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
