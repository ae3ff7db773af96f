"""Labeling-campaign driver.

A campaign seeds a random fraction of images as fully labeled, then runs
selection rounds against a ground-truth oracle. Every issued request is
charged against the round's cumulative budget whether or not it matches
an object; near-duplicate requests are skipped without charge. Matched
objects move to the labeled set and their requesting instances' dataset
rows are folded into every ``features.Coverage`` the campaign owns: one per
distinct set of views, shared by a greedy strategy and the campaign's own
covering-radius curve when their views agree.

A round's oracle loop walks a ranking of dataset rows and reads each
request's instance id, image, class and centre from the dataset's field
columns (``Dataset.column``) by row. The campaign walks its dataset's
order once for the kinds that score an instance by its own fields, and
ranks each round's pool anew for ``random`` and the greedy kinds; every
ranking is lazy, so a round sorts or picks only as deep as it reads. The
oracle's state is one ``OracleIndex`` per campaign, which holds every
row's labeling radius, computed once for the whole dataset, and each
image's open ground truth sorted by centre x. A request is matched
against only the open objects inside its window, found by bisection on
x and a test in y over that run, and the rows it labels are folded in
dataset order, so a round's oracle cost is in its requests, not in the
dataset's size. The (labeled, pool) record lists are built only for a
caller's performance hook.

The module also carries the training-side schedules of the simulated
detector ensemble (time-decayed label bagging and loss-weight
perturbation); each round log records their values and the bag size, and
no bag is drawn.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .features import Coverage, FusedCosineMetric, compress_views
# ``match_request``, ``suppress_duplicate`` and ``rank_pool`` are the public
# views of the cores that ``run_round`` calls. They stay bound here because
# the benchmark's tracer patches them by these names.
from .geometry import _match, _suppresses, match_request, suppress_duplicate
from .metrics import Curve, CurvePoint
from .records import Box2D, CameraModel, Dataset, GroundTruthObject, InstanceRecord, ViewSpec, _whole
from .selection import CORESET_KINDS, StrategyConfig, _order, _ranked, rank_pool, validate_strategy_setup

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


class RequestEvent(NamedTuple):
    """One oracle interaction. ``outcome`` is matched, null (false
    positive), or suppressed (near-duplicate, never charged). A named
    tuple: immutable, and built several times faster than a frozen
    dataclass, once per request."""

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
    """One image's open ground-truth objects sorted by centre x (equal x
    in dataset order), and their x values as a list of floats."""

    __slots__ = ("objects", "xs")

    def __init__(self, objects: Iterable[GroundTruthObject]):
        self.objects = sorted(objects, key=lambda g: g.center2d[0])
        self.xs = [g.center2d[0] for g in self.objects]

    def window(self, center: tuple[float, float], r_x: float, r_y: float) -> list[GroundTruthObject]:
        """The open objects whose centre lies within ``r_x`` and ``r_y`` of
        ``center``, boundary inclusive, in x order.

        ``gx - cx`` rounds monotonically in ``gx``, so the objects with
        ``abs(gx - cx) <= r_x`` are one run of the sorted list. Bisecting
        on the rounded bounds ``cx -/+ r_x`` lands near each end of the
        run; each end is then stepped to where that same test changes, so
        the run is exact. Only the run is tested in y.
        """
        cx, cy = center
        xs = self.xs
        n = len(xs)
        lo = bisect_left(xs, cx - r_x)
        while lo and xs[lo - 1] - cx >= -r_x:
            lo -= 1
        while lo < n and xs[lo] - cx < -r_x:
            lo += 1
        hi = bisect_right(xs, cx + r_x, lo)
        while hi > lo and xs[hi - 1] - cx > r_x:
            hi -= 1
        while hi < n and xs[hi] - cx <= r_x:
            hi += 1
        return [g for g in self.objects[lo:hi] if -r_y <= g.center2d[1] - cy <= r_y]

    def close(self, gt: GroundTruthObject) -> None:
        """Remove ``gt``, an open object of this image, found by identity."""
        i = bisect_left(self.xs, gt.center2d[0])
        while self.objects[i] is not gt:
            i += 1
        del self.objects[i], self.xs[i]


class OracleIndex:
    """The oracle's per-image state at the start of round ``round_index``.

    ``priors`` maps ``(image_id, class_id)`` to the ``(center, class_id)``
    pairs of the requests charged so far; ``truth`` maps an image to its
    open ground truth, sorted by centre x (``_ImageTruth``), which a
    match shrinks; ``suppressed`` holds the ids of the instances whose
    request this index has suppressed. Built from ``data`` and a state's
    ledger (``charged_ids``, ``labeled_gt``) with nothing suppressed;
    ``run_round`` updates it in place with each request and then advances
    ``round_index``, so a campaign carries one index through all its
    rounds. The index keeps ``data``, and ``run_round`` refuses it for
    any other dataset.

    Priors are only ever added and the camera is fixed, so a suppressed
    instance stays suppressed: a later request for it is suppressed from
    ``suppressed`` without a scan of its priors. That holds under one
    labeling-window scale only, so the first round records its
    ``h_scale`` here, with ``radii``, every dataset row's labeling radius
    on each axis under it (``_radii``), and ``run_round`` refuses the
    index under another scale.
    """

    def __init__(self, data: Dataset, state: RoundState):
        self.data = data
        self.round_index: int | None = state.round_index
        self.h_scale: float | None = None
        self.radii: tuple[list[float], list[float]] | None = None
        self.suppressed: set[int] = set()
        self.priors: dict[tuple[str, int], list[tuple[tuple[float, float], int]]] = {}
        # No charges, as at every campaign's start: no instance to look up.
        if state.charged_ids:
            for r in data.instances:
                if r.instance_id in state.charged_ids:
                    self.priors.setdefault((r.image_id, r.class_id), []).append((r.center, r.class_id))
        # Open objects only; one whose x is NaN lies in no window, and left
        # out it cannot unsort the rest.
        by_image: dict[str, list[GroundTruthObject]] = {}
        for g in data.ground_truth:
            if g.gt_id not in state.labeled_gt and not math.isnan(g.center2d[0]):
                by_image.setdefault(g.image_id, []).append(g)
        self.truth = {image: _ImageTruth(group) for image, group in by_image.items()}


def _require_depth(records: Sequence[InstanceRecord], who: str) -> None:
    """Refuse records without a depth, or with one that is not > 0, which
    ``labeling_radius`` refuses, before any request."""
    faulty = [r for r in records if r.pred_depth is None or not r.pred_depth > 0]
    if faulty:
        missing = [r.instance_id for r in faulty if r.pred_depth is None]
        if missing:
            n = f"{len(missing)} of {len(records)}"
            raise ValueError(f"{who} needs pred_depth on every instance; missing on {n}, first {missing[:5]}")
        r = faulty[0]
        raise ValueError(f"{who} needs pred_depth > 0; instance {r.instance_id} has {r.pred_depth}")


def _radii(data: Dataset, h_scale: float) -> tuple[list[float], list[float]]:
    """Every dataset row's labeling radius on each axis, bit for bit what
    ``labeling_radius`` gives (``(h_scale * f) / pred_depth``), NaN where a
    row has no depth; rows a round requests have a positive depth."""
    depth = np.array(data.column("pred_depth"), dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        return ((h_scale * data.camera.f_x) / depth).tolist(), ((h_scale * data.camera.f_y) / depth).tolist()


def _pool_rows(data: Dataset, pool: Sequence[InstanceRecord]) -> np.ndarray:
    """The dataset rows of ``pool``'s records, found by instance id."""
    row_of = {iid: row for row, iid in enumerate(data.column("instance_id"))}
    try:
        return np.array([row_of[r.instance_id] for r in pool], dtype=np.intp)
    except KeyError as exc:
        raise ValueError(f"pool instance {exc.args[0]} is not in the dataset") from None


def _rows_ranked(rows: np.ndarray, chunks: Iterable[tuple[np.ndarray, np.ndarray]]) -> Iterator[int]:
    """The dataset rows of ``selection._ranked``'s chunks of positions in a
    pool whose dataset rows are ``rows``."""
    for positions, _ in chunks:
        yield from rows[positions].tolist()


def run_round(
    state: RoundState,
    data: Dataset,
    cfg: CampaignConfig,
    pool: Sequence[InstanceRecord],
    coverage: Coverage | None = None,
    oracle: OracleIndex | None = None,
) -> tuple[RoundState, RoundLog]:
    """Run one selection round up to its cumulative budget target.

    The strategy ranks ``pool`` (records of ``data``, whose rows the round
    finds by instance id) as given, with the round's own seed, as deep as
    the round reads; greedy kinds rank from ``coverage``, which is left
    unchanged, or from one built from ``state``'s labels when it is not
    given. Requests are issued in rank order, and each request's labeling
    radius is read off the index's radius column, computed once for every
    dataset row. A request within 95% of that radius of an earlier
    same-class request in the same image is suppressed without charge, and
    so is, without a scan, a request for an instance the index suppressed
    before. Every other request is charged, matched or not,
    against the open ground truth inside its labeling window; matched
    ground truth moves to the labeled set. The round stops once the
    cumulative requested total reaches this round's budget target or the
    ranking is exhausted. Earlier rounds are read from ``oracle``, which
    the round updates in place and advances to the next round, or from an
    index built from ``state``'s ledger when it is not given. The loop
    records only the events (and the charged count the budget needs); the
    round log's counts and the returned state's labels and ledger are read
    off those events.

    Raises:
        ValueError: before any request, if a pool record is not in
            ``data``, lacks its depth, has one that is not > 0, or lacks a
            field the strategy ranks by, if the budget target lies
            below the current total, or if ``oracle`` is at another round
            than ``state`` or was used under another ``h_scale``.
    """
    _require_depth(pool, "the round's pool")
    validate_strategy_setup(cfg.strategy, pool)
    rows = _pool_rows(data, pool)
    if cfg.strategy.kind in CORESET_KINDS and coverage is None:
        coverage = _coverage({}, data, cfg.strategy.views, cfg.pca_var_keep)
        coverage.fold(np.flatnonzero(_labeled_mask(state, data.instances)))
    seed = _round_seed(state.rng_seed, state.round_index, 1)
    ranking = _rows_ranked(rows, _ranked(pool, data.instance_ids[rows], cfg.strategy, coverage, seed))
    return _run_round(state, data, cfg, ranking, oracle)[:2]


def _run_round(
    state: RoundState,
    data: Dataset,
    cfg: CampaignConfig,
    ranking: Iterable[int],
    oracle: OracleIndex | None,
) -> tuple[RoundState, RoundLog, list[int]]:
    """``run_round``'s oracle loop over ``ranking``, a checked pool's dataset
    rows best-first, also giving the rows whose request matched, in request
    order. It is pulled only below the target and left right after the
    charge that reaches it: a greedy ranking folds a pick only when asked,
    and a lazy one sorts no deeper than the round reads."""
    if state.round_index >= len(cfg.round_budgets):
        raise ValueError(f"no budget configured for round {state.round_index}")
    target = cfg.round_budgets[state.round_index]
    if target < state.requested_total:
        raise ValueError(f"budget target {target} below already requested {state.requested_total}")
    if oracle is None:
        oracle = OracleIndex(data, state)
    elif oracle.data is not data:
        raise ValueError("oracle index was built from another dataset")
    elif oracle.round_index != state.round_index:
        raise ValueError(f"oracle index is at round {oracle.round_index}, state at round {state.round_index}")
    elif oracle.h_scale not in (None, cfg.h_scale):
        raise ValueError(f"oracle index was used under h_scale {oracle.h_scale}, this round has {cfg.h_scale}")
    # Marked in progress until the loop ends, so an index left half
    # updated by an error is refused by the next round.
    oracle.round_index = None
    if oracle.radii is None:
        oracle.radii = _radii(data, cfg.h_scale)
    oracle.h_scale = cfg.h_scale

    ids, images, classes, xs, ys = map(data.column, ("instance_id", "image_id", "class_id", "cx", "cy"))
    rxs, rys = oracle.radii
    suppressed, priors_of, truth_of = oracle.suppressed, oracle.priors, oracle.truth
    round_index = state.round_index
    events: list[RequestEvent] = []
    matched_rows: list[int] = []
    charged = 0
    for row in ranking if state.requested_total < target else ():
        iid, image = ids[row], images[row]
        if iid in suppressed:
            events.append(RequestEvent(round_index, iid, image, "suppressed"))
            continue
        # One window per request: the duplicate check, the truth window
        # and the match all read it.
        center, cls, r_x, r_y = (xs[row], ys[row]), classes[row], rxs[row], rys[row]
        priors = priors_of.setdefault((image, cls), [])
        if _suppresses(center, cls, priors, r_x, r_y):
            suppressed.add(iid)
            events.append(RequestEvent(round_index, iid, image, "suppressed"))
            continue

        truth = truth_of.get(image)
        candidates = truth.window(center, r_x, r_y) if truth is not None else []
        result = _match(center, candidates, r_x, r_y, cfg.min_px_height)
        priors.append((center, cls))
        charged += 1
        if result.matched:
            truth.close(next(g for g in candidates if g.gt_id == result.gt_id))
            matched_rows.append(row)
        outcome = "matched" if result.matched else "null"
        events.append(RequestEvent(round_index, iid, image, outcome, result.gt_id, True))
        if state.requested_total + charged >= target:
            break
    oracle.round_index = round_index + 1

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
    return new_state, log, matched_rows


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
    value instead, such as a detector score; those record lists are built
    only for a hook.

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
    requests; a round's matched rows are folded in dataset order.

    Raises:
        ValueError: before any round runs, when an instance lacks a
            positive depth or a field the strategy ranks by, when an
            instance id lies outside int64, or, without a hook, when no
            seeded image holds an instance.
    """
    _require_depth(data.instances, "campaign")
    validate_strategy_setup(cfg.strategy, data.instances)
    ids = data.instance_ids

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

    mask = _labeled_mask(state, data.instances)
    coverages: dict = {}
    coverage = None
    if not mask.all() and cfg.round_budgets and cfg.strategy.kind in CORESET_KINDS:
        coverage = _coverage(coverages, data, cfg.strategy.views, cfg.pca_var_keep)
    if performance_hook is not None:
        rows = _rows(data)

        def measure() -> float:
            return performance_hook(*_split(mask, rows))
    elif not mask.any():
        raise ValueError("the covering-radius curve needs a labeled set, and no seeded image holds an instance")
    else:
        measure = _coverage(coverages, data, data.views).radius
    for c in coverages.values():
        c.fold(np.flatnonzero(mask))

    points = [CurvePoint(0.0, float(measure()))]
    oracle = OracleIndex(data, state)
    # Kinds that score an instance by its own fields walk the dataset once:
    # (-score, id) is a strict total order, so its restriction is the pool's.
    order = None
    if cfg.strategy.kind not in ("random", *CORESET_KINDS):
        order = list(_order(data.instances, ids, cfg.strategy, None)[0])

    for _ in cfg.round_budgets:
        if mask.all():
            break
        if order is not None:
            ranking = (row for chunk in order for row in chunk[~mask[chunk]].tolist())
        else:
            pool_rows = np.flatnonzero(~mask)
            seed = _round_seed(state.rng_seed, state.round_index, 1)
            ranking = _rows_ranked(pool_rows, _ranked(pool_rows, ids[pool_rows], cfg.strategy, coverage, seed))
        state, log, matched = _run_round(state, data, cfg, ranking, oracle)
        if log.charged == 0:
            break
        new = np.sort(np.array(matched, dtype=np.intp))
        mask[new] = True
        for c in coverages.values():
            c.fold(new)
        points.append(CurvePoint(float(state.requested_total), float(measure())))

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
