"""Labeling-campaign driver.

A campaign seeds a random fraction of images as fully labeled, then runs
selection rounds against a ground-truth oracle. Every issued request is
charged against the round's cumulative budget whether or not it matches
an object; near-duplicate requests are skipped without charge. Matched
objects move to the labeled set and their requesting instances' dataset
rows are folded into every ``features.Coverage`` the campaign owns: one per
distinct set of views, shared by a greedy strategy and the campaign's own
covering-radius curve when their views agree.

The oracle's per-image state is one ``OracleIndex`` per campaign: the
charged requests by image and class, which duplicate suppression reads,
each image's ground truth with an open mask that a match clears, and the
instances it has suppressed. Each request computes its labeling radius
once, for the duplicate check, the truth window and the match. Priors
only grow, so a suppressed instance stays suppressed, and its later
requests are suppressed from that memo without a scan of the priors;
the memo holds under one ``h_scale``, and ``run_round`` refuses an index
used under another. A request is matched against only the open objects
inside its labeling window, so a round's oracle cost is in its requests,
not in the dataset's size.

The module also carries the training-side schedules of the simulated
detector ensemble (time-decayed label bagging and loss-weight
perturbation); each round log records their values and the bag size, and
no bag is drawn.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .features import Coverage, FusedCosineMetric, compress_views
# ``match_request``, ``suppress_duplicate`` and ``rank_pool`` are the public
# views of the cores that ``run_round`` calls. They stay bound here because
# the benchmark's tracer patches them by these names.
from .geometry import Radius2D, _match, _suppresses, labeling_radius, match_request, suppress_duplicate
from .metrics import Curve, CurvePoint
from .records import Box2D, CameraModel, Dataset, GroundTruthObject, InstanceRecord, ViewSpec, _whole
from .selection import CORESET_KINDS, StrategyConfig, _instance_ids, _ranked, rank_pool, validate_strategy_setup

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


def _coverage(
    coverages: dict, data: Dataset, views: Sequence[ViewSpec], pca_var_keep: float | None = None
) -> Coverage:
    """The coverage of ``data``'s rows under ``FusedCosineMetric(views)``
    from ``coverages``, built and stored there on first request with
    nothing folded.

    It is keyed by ``(tuple(views), pca_var_keep)``, so equal keys share
    one coverage, and its ``E`` is embedded from the dataset's per-view
    matrices, PCA-compressed first when ``pca_var_keep`` is set.
    """
    key = (tuple(views), pca_var_keep)
    coverage = coverages.get(key)
    if coverage is None:
        metric = FusedCosineMetric(views)
        matrices = [data.matrix(v.name) for v in metric.views]
        if pca_var_keep is not None:
            matrices = compress_views(matrices, pca_var_keep)
        coverage = coverages[key] = Coverage(metric, metric.embed_views(matrices))
    return coverage


class _ImageTruth:
    """One image's ground-truth objects in dataset order, their centre
    columns, and an ``open`` mask of the objects not labeled yet."""

    __slots__ = ("objects", "cx", "cy", "open")

    def __init__(self, objects: list[GroundTruthObject], cx: np.ndarray, cy: np.ndarray, open: np.ndarray):
        self.objects = objects
        self.cx = cx
        self.cy = cy
        self.open = open

    def window(self, center: tuple[float, float], rad: Radius2D) -> list[int]:
        """Rows of the open objects whose centre lies within ``rad`` of
        ``center`` on both axes, boundary inclusive, in dataset order."""
        inside = self.open & (np.abs(self.cx - center[0]) <= rad.r_x) & (np.abs(self.cy - center[1]) <= rad.r_y)
        return inside.nonzero()[0].tolist()


class OracleIndex:
    """The oracle's per-image state at the start of round ``round_index``.

    ``priors`` maps ``(image_id, class_id)`` to the ``(center, class_id)``
    pairs of the requests charged so far; ``truth`` maps an image to its
    ground truth with the labeled objects closed; ``suppressed`` holds the
    ids of the instances whose request this index has suppressed. Built
    from a state's ledger (``charged_ids``, ``labeled_gt``) with nothing
    suppressed; ``run_round`` updates it in place with each request and
    then advances ``round_index``, so a campaign carries one index through
    all its rounds.

    Priors are only ever added and the camera is fixed, so a suppressed
    instance stays suppressed: a later request for it is suppressed from
    ``suppressed`` without a scan of its priors. That holds under one
    labeling-window scale only, so the first round records its
    ``h_scale`` here and ``run_round`` refuses the index under another.
    """

    def __init__(self, data: Dataset, state: RoundState):
        self.round_index: int | None = state.round_index
        self.h_scale: float | None = None
        self.suppressed: set[int] = set()
        self.priors: dict[tuple[str, int], list[tuple[tuple[float, float], int]]] = {}
        # No charges, as at every campaign's start: no instance to look up.
        if state.charged_ids:
            for r in data.instances:
                if r.instance_id in state.charged_ids:
                    self.priors.setdefault((r.image_id, r.class_id), []).append((r.center, r.class_id))
        # The ground truth grouped by image, each group in dataset order;
        # each image's columns are a slice of one dataset-wide column.
        by_image: dict[str, list[GroundTruthObject]] = {}
        for g in data.ground_truth:
            by_image.setdefault(g.image_id, []).append(g)
        objects = [g for group in by_image.values() for g in group]
        bounds = [0, *itertools.accumulate(map(len, by_image.values()))]
        cx = np.array([g.center2d[0] for g in objects], dtype=np.float64)
        cy = np.array([g.center2d[1] for g in objects], dtype=np.float64)
        open_ = np.array([g.gt_id not in state.labeled_gt for g in objects], dtype=bool)
        self.truth = {
            image: _ImageTruth(objects[lo:hi], cx[lo:hi], cy[lo:hi], open_[lo:hi])
            for image, lo, hi in zip(by_image, bounds, bounds[1:])
        }


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
    issued in rank order, and each request's labeling radius is computed
    once. A request within 95% of that radius of an earlier same-class
    request in the same image is suppressed without charge, and so is,
    without a scan, a request for an instance the index suppressed before.
    Every other request is charged, matched or not, against the open
    ground truth inside its labeling window; matched ground truth moves
    to the labeled set. The round stops once the cumulative requested
    total reaches this round's budget target or the ranking is exhausted.
    Earlier rounds are read from ``oracle``, which the round updates in
    place and advances to the next round, or from an index built from
    ``state``'s ledger when it is not given. The loop records only the
    events (and the charged count the budget needs); the round log's
    counts and the returned state's labels and ledger are read off those
    events.

    Raises:
        ValueError: if the budget target lies below the current total, if
            ``oracle`` is at another round than ``state`` or was used
            under another ``h_scale`` than ``cfg``'s, or if a requested
            instance lacks the depth the oracle window needs.
    """
    validate_strategy_setup(cfg.strategy, pool)
    return _run_round(state, data, cfg, pool, _instance_ids(pool), coverage, oracle)


def _run_round(
    state: RoundState,
    data: Dataset,
    cfg: CampaignConfig,
    pool: Sequence[InstanceRecord],
    ids: np.ndarray,
    coverage: Coverage | None,
    oracle: OracleIndex | None,
) -> tuple[RoundState, RoundLog]:
    """``run_round`` of a pool already checked against the strategy, with
    ``ids`` its instance ids in order; the campaign slices them from
    ``Dataset.instance_ids``."""
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
    elif oracle.h_scale not in (None, cfg.h_scale):
        raise ValueError(f"oracle index was used under h_scale {oracle.h_scale}, this round has {cfg.h_scale}")
    if cfg.strategy.kind in CORESET_KINDS and coverage is None:
        coverage = _coverage({}, data, cfg.strategy.views, cfg.pca_var_keep)
        coverage.fold(np.flatnonzero(_labeled_mask(state, data.instances)))
    # Marked in progress until the loop ends, so an index left half
    # updated by an error is refused by the next round.
    oracle.round_index = None
    oracle.h_scale = cfg.h_scale

    events: list[RequestEvent] = []
    charged = 0
    round_seed = _round_seed(state.rng_seed, state.round_index, 1)

    # Started only below the target, and left right after the charge that
    # reaches it: a greedy ranking folds a pick only when asked for the next.
    ranking = ()
    if state.requested_total < target:
        ranking = _ranked(pool, ids, cfg.strategy, coverage, round_seed)
    for record, _score in ranking:
        if record.pred_depth is None:
            raise ValueError(f"instance {record.instance_id}: pred_depth required to issue a request")
        if record.instance_id in oracle.suppressed:
            events.append(RequestEvent(state.round_index, record.instance_id, record.image_id, "suppressed"))
            continue
        # One window per request: the duplicate check, the truth window
        # and the match all read it.
        rad = labeling_radius(data.camera, record.pred_depth, cfg.h_scale)
        priors = oracle.priors.setdefault((record.image_id, record.class_id), [])
        if _suppresses(record.center, record.class_id, priors, rad):
            oracle.suppressed.add(record.instance_id)
            events.append(RequestEvent(state.round_index, record.instance_id, record.image_id, "suppressed"))
            continue

        truth = oracle.truth.get(record.image_id)
        candidates: list[GroundTruthObject] = []
        if truth is not None:
            rows = truth.window(record.center, rad)
            candidates = [truth.objects[i] for i in rows]
        result = _match(record.center, candidates, rad, cfg.min_px_height)
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
    performance_hook: PerformanceHook | None = None,
) -> tuple[Curve, RoundState]:
    """Run a full campaign and measure performance after every round.

    Labeling starts by marking ``initial_fraction`` of the images (chosen
    uniformly at random from the campaign seed) as fully labeled; the
    seeded labels are not charged to the budget, so the curve starts at
    x = 0. Without a hook, the y value is the covering radius of the
    pool under ``FusedCosineMetric(data.views)``, the k-center objective
    of the greedy strategy. A hook receives (labeled instances, remaining
    pool), the dataset's own records in dataset order, and returns the y
    value instead, such as a detector score.

    The campaign keeps one labeled mask over the dataset's instances and
    owns every coverage it needs, one per distinct key (see
    ``_coverage``), each embedded once from ``data.matrix``: a greedy
    strategy's, keyed by ``(strategy.views, pca_var_keep)`` and
    PCA-compressed once when that is set, and the covering radius's,
    keyed by ``(data.views, None)``. With equal keys the two are one
    coverage. The labeled rows, and each round's newly labeled rows, are
    folded once into every coverage; the greedy strategy ranks from its
    coverage, and the radius is read off its own. Every campaign builds
    one ``OracleIndex`` after seeding, which each round updates with its
    requests.

    Raises:
        ValueError: without a hook, when no seeded image holds an
            instance, before any round runs.
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
        coverage = _coverage(coverages, data, cfg.strategy.views, cfg.pca_var_keep)
    if performance_hook is not None:
        measure = performance_hook
    elif not labeled:
        raise ValueError("the covering-radius curve needs a labeled set, and no seeded image holds an instance")
    else:
        radius_coverage = _coverage(coverages, data, data.views)

        def measure(labeled, pool) -> float:
            return radius_coverage.radius()
    for c in coverages.values():
        c.fold(np.flatnonzero(mask))

    points = [CurvePoint(0.0, float(measure(labeled, pool)))]
    oracle = OracleIndex(data, state)
    ids = data.instance_ids

    for _ in cfg.round_budgets:
        if not pool:
            break
        state, log = _run_round(state, data, cfg, pool, ids[~mask], coverage, oracle)
        if log.charged == 0:
            break
        # Rows of this round's matches, in dataset order.
        new = np.isin(ids, [ev.instance_id for ev in log.events if ev.outcome == "matched"]).nonzero()[0]
        mask[new] = True
        labeled, pool = _split(mask, rows)
        for c in coverages.values():
            c.fold(new)
        points.append(CurvePoint(float(state.requested_total), float(measure(labeled, pool))))

    return Curve(tuple(points)), state


def covering_radius(
    labeled: Sequence[InstanceRecord],
    pool: Sequence[InstanceRecord],
    metric,
) -> float:
    """Largest distance from a pool instance to its nearest labeled
    instance, at least 0, and 0 for an empty pool; inf for an empty
    labeled set.

    The k-center objective (``Coverage.radius``); smaller is better.
    ``metric`` has ``embed`` and ``between``, like ``FusedCosineMetric``.
    """
    if not len(labeled):
        return math.inf
    coverage = Coverage(metric, metric.embed([*labeled, *pool]))
    coverage.fold(range(len(labeled)))
    return coverage.radius()


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
