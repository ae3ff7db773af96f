import itertools
import logging
import math
from dataclasses import replace
from decimal import Decimal, getcontext

from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alsim import features, geometry, simulation
from alsim.dataio import load_dataset, write_dataset
from alsim.features import FusedCosineMetric, fused_distance, pca_fit, pca_transform
from alsim.geometry import match_request, suppress_duplicate
from alsim.records import ViewSpec
from alsim.selection import CORESET_KINDS, STRATEGY_KINDS, DepthFilters, StrategyConfig, ensemble_depth_variance
from alsim.simulation import (
    CampaignConfig,
    OracleIndex,
    RoundState,
    SyntheticSpec,
    _labeled_mask,
    _rows,
    _split,
    bagging_fraction,
    covering_radius,
    generate_synthetic,
    run_campaign,
    run_round,
    sample_loss_weights,
)

from conftest import build_dataset, euclid1d, make_gt, make_record, scalar_records


def pool_of(state, data):
    """The pool of unlabeled records that a campaign in ``state`` ranks."""
    return _split(_labeled_mask(state, data.instances), _rows(data))[1]


def decimal_exp(x: str, terms: int = 80) -> Decimal:
    """Series-summation exponential, independent of math.exp."""
    getcontext().prec = 50
    xd = Decimal(x)
    total = Decimal(1)
    term = Decimal(1)
    for n in range(1, terms):
        term *= xd / n
        total += term
    return total


class TestBaggingFraction:
    def test_starts_at_exactly_09(self):
        assert bagging_fraction(0.0, 3.0) == 0.9
        assert bagging_fraction(0.0, 17.0) == 0.9

    def test_alpha3_endpoint_against_series_oracle(self):
        expected = Decimal("0.5") + Decimal("0.4") * decimal_exp("-3")
        assert float(expected) == pytest.approx(0.5199148273471456, abs=1e-15)
        assert bagging_fraction(1.0, 3.0) == pytest.approx(float(expected), abs=1e-12)

    def test_strictly_monotone_decreasing(self):
        for alpha in (0.5, 3.0, 30.0):
            values = [bagging_fraction(t, alpha) for t in np.linspace(0.0, 1.0, 1000)]
            assert all(b < a for a, b in zip(values, values[1:]))

    def test_range_bounds(self):
        for alpha in (0.1, 1.0, 3.0, 30.0):
            for t in np.linspace(0.0, 1.0, 50):
                assert 0.5 < bagging_fraction(float(t), alpha) <= 0.9

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            bagging_fraction(-0.1, 3.0)
        with pytest.raises(ValueError):
            bagging_fraction(1.1, 3.0)
        with pytest.raises(ValueError):
            bagging_fraction(0.5, 0.0)


class TestSampleLossWeights:
    TASKS = ("depth", "orientation", "dimensions")

    def test_zero_delta_gives_unit_weights(self):
        weights = sample_loss_weights(self.TASKS, 0.0, seed=3)
        assert all(w == 1.0 for w in weights.values())

    def test_delta_02_stays_in_band(self):
        names = [f"t{i}" for i in range(5000)]
        weights = sample_loss_weights(names, 0.2, seed=11)
        values = np.array(list(weights.values()))
        assert values.min() >= 0.8
        assert values.max() <= 1.2

    def test_reproducible(self):
        assert sample_loss_weights(self.TASKS, 0.2, seed=7) == sample_loss_weights(self.TASKS, 0.2, seed=7)

    def test_empirical_mean(self):
        # uniform on [0.8, 1.2]: sd = 0.4/sqrt(12); mean of 1e5 draws
        # within 4 sigma of 1.0
        names = [f"t{i}" for i in range(100_000)]
        values = np.array(list(sample_loss_weights(names, 0.2, seed=5).values()))
        sigma_mean = (0.4 / math.sqrt(12)) / math.sqrt(len(values))
        assert abs(values.mean() - 1.0) < 4 * sigma_mean

    def test_delta_validated(self):
        with pytest.raises(ValueError):
            sample_loss_weights(self.TASKS, 1.0, seed=0)


class TestBagCount:
    """``RoundLog.bagged_label_count`` is the size of the bag a detector
    would train on: round(train_fraction * n) of the n labeled objects
    after the round, at least 1 and at most n, and 0 with no labels."""

    # Per round of the crowded campaigns in ``tests/test_golden.py``:
    # (charged, matched, suppressed) and the bag count, recorded from the
    # bag sampler before the count was computed directly.
    CROWDED = {
        ("coreset", 0): (
            "8/7/0 8/2/3 8/6/9 8/5/11 8/5/15 8/6/20 8/3/23 8/4/30 8/1/33 8/1/48 8/3/56 8/2/66",
            (17, 18, 21, 24, 26, 29, 30, 32, 32, 33, 34, 35),
        ),
        ("coreset", 1): (
            "8/4/1 8/7/5 8/4/6 8/3/11 8/6/18 8/2/18 8/4/27 8/5/30 8/2/33 8/2/41 8/2/49 8/4/57",
            (16, 19, 21, 23, 25, 26, 28, 30, 31, 32, 33, 35),
        ),
        ("random", 0): (
            "8/5/0 8/5/2 8/6/0 8/8/0 8/4/2 8/4/3 8/3/1 8/4/6 8/5/8 8/3/3 8/2/10 8/1/10",
            (16, 19, 22, 25, 27, 29, 30, 32, 34, 36, 37, 37),
        ),
        ("random", 1): (
            "8/3/0 8/5/0 8/7/4 8/5/2 8/5/1 8/3/1 8/6/0 8/6/7 8/2/5 8/1/3 8/2/4 8/3/12",
            (15, 18, 21, 24, 26, 27, 30, 33, 33, 34, 35, 36),
        ),
    }

    @pytest.mark.parametrize("kind,seed", sorted(CROWDED), ids=lambda v: str(v))
    def test_crowded_campaign_counts_pinned(self, kind, seed):
        data = generate_synthetic(SyntheticSpec(4, 60), seed=seed)
        data = replace(data, ground_truth=data.ground_truth[::3])
        cfg = CampaignConfig(
            strategy=StrategyConfig(kind=kind, views=data.views if kind == "coreset" else (), seed=seed),
            round_budgets=tuple(range(8, 97, 8)),
        )
        _, state = run_campaign(cfg, data, lambda labeled, pool: 0.0)
        tallies, bags = self.CROWDED[kind, seed]
        assert " ".join(f"{log.charged}/{log.matched}/{log.suppressed}" for log in state.history) == tallies
        assert tuple(log.bagged_label_count for log in state.history) == bags

    def _one_image(self, gt_centers):
        instances = [make_record(0, center=(50.0, 50.0), pred_depth=10.0, size=(30, 40))]
        gts = [make_gt(100 + i, center=c, pixel_height=60.0) for i, c in enumerate(gt_centers)]
        return build_dataset(instances, gts)

    def test_no_labels_gives_zero(self):
        data = self._one_image([(500.0, 50.0)])
        _, log = run_round(fresh_state(), data, round_config((1,)), list(data.instances))
        assert [ev.outcome for ev in log.events] == ["null"]
        assert log.bagged_label_count == 0

    def test_single_label_gives_one(self):
        data = self._one_image([(50.0, 50.0), (500.0, 50.0)])
        _, log = run_round(fresh_state(), data, round_config((1,)), list(data.instances))
        assert [ev.outcome for ev in log.events] == ["matched"]
        assert log.bagged_label_count == 1

    def test_size_near_t0(self):
        # 10 labeled of 1000 objects: t = 0.01, fraction 0.888, bag 9 of 10
        data = self._one_image([(500.0, 50.0 + i) for i in range(1000)])
        state = replace(fresh_state(), labeled_gt=frozenset(range(100, 110)))
        _, log = run_round(state, data, round_config((1,)), list(data.instances))
        assert log.bagged_label_count == 9

    def test_floor_at_one(self):
        # exp(-alpha * t) underflows: fraction is exactly 0.5, and
        # round(0.5 * 1) = 0 is floored to one label
        data = self._one_image([(50.0, 50.0)])
        _, log = run_round(fresh_state(), data, round_config((1,), alpha=1000.0), list(data.instances))
        assert log.train_fraction == 0.5
        assert log.bagged_label_count == 1


def fresh_state(seed=0):
    return RoundState(
        round_index=0,
        labeled_gt=frozenset(),
        requested_total=0,
        labeled_images=frozenset(),
        rng_seed=seed,
        history=(),
    )


def round_config(budgets, kind="close_depth", views=(), **kwargs):
    return CampaignConfig(
        strategy=StrategyConfig(kind=kind, views=views, seed=0),
        round_budgets=budgets,
        initial_fraction=0.0,
        **kwargs,
    )


class TestRunRound:
    def _matching_fixture(self):
        # camera f=100, H=2: radius at depth 10 is 20 px; centers 60 px
        # apart never suppress each other
        instances = [
            make_record(i, center=(60.0 * (i + 1), 50.0), pred_depth=10.0 + i, class_id=0, size=(30, 40))
            for i in range(3)
        ]
        gts = [make_gt(100 + i, center=(60.0 * (i + 1), 50.0), pixel_height=60.0) for i in range(3)]
        return build_dataset(instances, gts)

    def test_all_requests_match(self):
        data = self._matching_fixture()
        state, log = run_round(fresh_state(), data, round_config((3,)), list(data.instances))
        assert log.charged == 3
        assert log.matched == 3
        assert state.requested_total == 3
        assert state.labeled_gt == {100, 101, 102}
        assert [ev.outcome for ev in log.events] == ["matched"] * 3

    def test_false_positive_charges_without_labeling(self):
        instances = [make_record(0, center=(50.0, 50.0), pred_depth=10.0, size=(30, 40))]
        gts = [make_gt(7, image_id="img0", center=(500.0, 50.0), pixel_height=60.0)]
        data = build_dataset(instances, gts)
        state, log = run_round(fresh_state(), data, round_config((1,)), instances)
        assert log.charged == 1
        assert log.matched == 0
        assert state.labeled_gt == frozenset()
        assert log.events[0].outcome == "null"
        assert log.events[0].charged

    def test_duplicate_suppressed_without_charge(self):
        # same class, centers 1 px apart, well inside 95% of the radius
        instances = [
            make_record(0, center=(50.0, 50.0), pred_depth=10.0, class_id=2, size=(30, 40)),
            make_record(1, center=(51.0, 50.0), pred_depth=11.0, class_id=2, size=(30, 40)),
        ]
        gts = [make_gt(100, center=(50.0, 50.0), pixel_height=60.0)]
        data = build_dataset(instances, gts)
        state, log = run_round(fresh_state(), data, round_config((2,)), instances)
        assert [ev.outcome for ev in log.events] == ["matched", "suppressed"]
        assert log.charged == 1
        assert log.suppressed == 1
        assert state.requested_total == 1

    def test_labeled_gt_not_rematched(self):
        # two instances pointing at the same object with different classes:
        # the second request is charged but finds nothing left
        instances = [
            make_record(0, center=(50.0, 50.0), pred_depth=10.0, class_id=0, size=(30, 40)),
            make_record(1, center=(52.0, 50.0), pred_depth=11.0, class_id=1, size=(30, 40)),
        ]
        gts = [make_gt(100, center=(50.0, 50.0), pixel_height=60.0)]
        data = build_dataset(instances, gts)
        state, log = run_round(fresh_state(), data, round_config((2,)), instances)
        assert [ev.outcome for ev in log.events] == ["matched", "null"]
        assert state.requested_total == 2
        assert state.labeled_gt == {100}

    def test_budget_below_current_rejected(self):
        data = self._matching_fixture()
        state = RoundState(0, frozenset(), 5, frozenset(), 0, ())
        with pytest.raises(ValueError, match="below already requested"):
            run_round(state, data, round_config((3,)), list(data.instances))

    def test_stops_at_budget_target(self):
        data = self._matching_fixture()
        state, log = run_round(fresh_state(), data, round_config((2,)), list(data.instances))
        assert log.charged == 2
        assert state.requested_total == 2

    def test_schedule_fields_recorded(self):
        data = self._matching_fixture()
        _, log = run_round(fresh_state(), data, round_config((3,), delta=0.2), list(data.instances))
        assert 0.5 < log.train_fraction <= 0.9
        assert set(log.loss_weights) == set(
            ("classification", "box2d", "center_offset", "dimensions", "depth", "orientation", "confidence")
        )
        assert all(0.8 <= w <= 1.2 for w in log.loss_weights.values())
        assert 1 <= log.bagged_label_count <= 3

    def test_open_ground_truth_never_offers_a_labeled_object(self):
        # Two requests in one image, both within the window of the same
        # closest object: the second must only see what is still open.
        instances = [
            make_record(0, center=(50.0, 50.0), pred_depth=10.0, class_id=0, size=(30, 40)),
            make_record(1, center=(53.0, 50.0), pred_depth=10.0, class_id=1, size=(30, 40)),
        ]
        gts = [
            make_gt(100, center=(50.0, 50.0), pixel_height=60.0),
            make_gt(101, center=(57.0, 50.0), pixel_height=60.0),
        ]
        data = build_dataset(instances, gts)
        offered = []

        def recording(center, candidates, *args):
            offered.append([g.gt_id for g in candidates])
            return geometry._match(center, candidates, *args)

        with patch.object(simulation, "_match", recording):
            state, log = run_round(fresh_state(), data, round_config((2,)), instances)
        assert offered == [[100, 101], [101]]
        assert [(ev.outcome, ev.gt_id) for ev in log.events] == [("matched", 100), ("matched", 101)]
        assert state.labeled_gt == {100, 101}

    @pytest.mark.parametrize("kind,seed", [("random", 2), ("coreset", 0)])
    def test_next_round_reads_only_the_ledger(self, kind, seed):
        # Crowded images with two thirds of the ground truth dropped: the
        # first two rounds match and miss, the third suppresses, and it
        # must see what came before through the state's id sets alone.
        data = generate_synthetic(SyntheticSpec(4, 60), seed=seed)
        data = replace(data, ground_truth=data.ground_truth[::3])
        views = data.views if kind in CORESET_KINDS else ()
        cfg = CampaignConfig(strategy=StrategyConfig(kind=kind, views=views, seed=seed), round_budgets=(8, 16, 24))
        seeded = frozenset(["img0000"])
        state = RoundState(0, frozenset(g.gt_id for g in data.ground_truth if g.image_id in seeded), 0, seeded, seed)
        for _ in range(2):
            state, _ = run_round(state, data, cfg, pool_of(state, data))
        assert {"matched", "null"} <= {ev.outcome for log in state.history for ev in log.events}

        def next_events(s):
            return run_round(s, data, cfg, pool_of(s, data))[1].events

        events = next_events(state)
        assert any(ev.outcome == "suppressed" for ev in events)
        assert next_events(replace(state, history=())) == events


def small_spec(clusters=4, per_cluster=6, **kw):
    return SyntheticSpec(clusters=clusters, per_cluster=per_cluster, **kw)


class TestRunCampaign:
    def hook(self, labeled, pool):
        return float(len(labeled))

    @pytest.mark.parametrize("kind", CORESET_KINDS)
    def test_greedy_kinds_refuse_zero_initial_fraction(self, kind):
        with pytest.raises(ValueError, match="initial_fraction must be > 0"):
            round_config((3,), kind=kind, views=(ViewSpec("v", 1, 1.0),))

    @pytest.mark.parametrize(
        "budgets", [(1.5, 3.9), (4, 8.6), (True, 2), ("4", 8), (4, math.inf), (4, math.nan)]
    )
    def test_non_integral_budgets_refused(self, budgets):
        with pytest.raises(ValueError, match="round_budgets"):
            CampaignConfig(strategy=StrategyConfig(kind="random"), round_budgets=budgets)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: CampaignConfig(strategy=StrategyConfig(kind="random"), round_budgets=(4,), min_px_height=math.nan),
            lambda: DepthFilters(min_px_height=math.nan),
            lambda: DepthFilters(max_depth=math.nan),
        ],
        ids=["campaign_min_px_height", "filters_min_px_height", "filters_max_depth"],
    )
    def test_nan_thresholds_refused(self, build):
        # Every comparison with NaN is false: a NaN threshold would make
        # no request or pass no instance, without a word.
        with pytest.raises(ValueError, match="must be a number, got nan"):
            build()

    def test_integral_float_and_numpy_budgets_accepted(self):
        budgets = (400.0, np.int64(800), np.float64(1200.0), 10**400)
        cfg = CampaignConfig(strategy=StrategyConfig(kind="random"), round_budgets=budgets)
        assert cfg.round_budgets == (400, 800, 1200, 10**400)
        assert all(type(b) is int for b in cfg.round_budgets)

    def test_zero_rounds_gives_initial_point_only(self):
        data = generate_synthetic(small_spec(), seed=0)
        cfg = CampaignConfig(strategy=StrategyConfig(kind="random", seed=0), round_budgets=())
        curve, state = run_campaign(cfg, data, self.hook)
        assert len(curve.points) == 1
        assert curve.points[0].x == 0.0
        assert state.requested_total == 0

    def test_deterministic_given_seed(self):
        data = generate_synthetic(small_spec(), seed=3)
        cfg = CampaignConfig(strategy=StrategyConfig(kind="random", seed=12), round_budgets=(4, 9))
        c1, s1 = run_campaign(cfg, data, self.hook)
        c2, s2 = run_campaign(cfg, data, self.hook)
        assert c1.points == c2.points
        assert s1.labeled_gt == s2.labeled_gt

    def test_monotone_accounting_invariants(self):
        data = generate_synthetic(small_spec(), seed=1)
        cfg = CampaignConfig(strategy=StrategyConfig(kind="random", seed=0), round_budgets=(3, 7, 12))
        curve, state = run_campaign(cfg, data, self.hook)
        gt_ids = {g.gt_id for g in data.ground_truth}
        assert state.labeled_gt <= gt_ids
        totals = [log.charged for log in state.history]
        assert state.requested_total == sum(totals)
        matched_ids = [
            ev.gt_id for log in state.history for ev in log.events if ev.outcome == "matched"
        ]
        assert len(matched_ids) == len(set(matched_ids))
        xs = [p.x for p in curve.points]
        assert xs == sorted(xs)

    def test_all_matching_requests_accounting_identity(self):
        data = generate_synthetic(small_spec(), seed=2)
        cfg = CampaignConfig(
            strategy=StrategyConfig(kind="random", seed=4), round_budgets=(5, 10), initial_fraction=0.25
        )
        curve, state = run_campaign(cfg, data, self.hook)
        seeded = {g.gt_id for g in data.ground_truth if g.image_id in state.labeled_images}
        outcomes = [ev.outcome for log in state.history for ev in log.events]
        if all(o != "null" for o in outcomes):
            assert state.requested_total >= len(state.labeled_gt) - len(seeded)
            if all(o == "matched" for o in outcomes):
                assert state.requested_total == len(state.labeled_gt) - len(seeded)

    @pytest.mark.parametrize("empty_seeded", [False, True], ids=["nothing_seeded", "empty_image_seeded"])
    def test_covering_radius_hook_refuses_an_empty_labeled_set(self, empty_seeded):
        if empty_seeded:
            # Seed 0 seeds the second of the two images, which holds no instance.
            instances = [make_record(i, center=(50.0 + 60 * i, 50.0), features={"v": [float(i)]}) for i in range(4)]
            gts = [make_gt(100 + i, center=(50.0 + 60 * i, 50.0)) for i in range(4)] + [make_gt(200, "empty")]
            data, fraction = build_dataset(instances, gts, views=(ViewSpec("v", 1, 1.0),)), 0.5
        else:
            data, fraction = generate_synthetic(small_spec(), seed=0), 0.0
        cfg = CampaignConfig(StrategyConfig("random"), (2, 3, 4), initial_fraction=fraction)
        rounds = []
        with patch.object(simulation, "_run_round", lambda *args: rounds.append(args)):
            with pytest.raises(ValueError, match="covering-radius curve needs a labeled set"):
                run_campaign(cfg, data)
        assert rounds == []

    def test_coreset_campaign_with_pca(self):
        data = generate_synthetic(small_spec(), seed=5)
        cfg = CampaignConfig(
            strategy=StrategyConfig(kind="coreset", views=data.views, seed=0),
            round_budgets=(4, 8),
            pca_var_keep=0.99,
        )
        metric = FusedCosineMetric(data.views)
        curve, state = run_campaign(cfg, data, lambda lab, pool: covering_radius(lab, pool, metric))
        assert len(curve.points) == 3
        assert state.requested_total == 8


@st.composite
def radius_fixtures(draw):
    """1-3 views (weights 0 included), and labeled (at least one) and pool
    records whose vectors come from a palette of 1-3, so duplicate rows
    come up, with some views zero."""
    views = tuple(
        ViewSpec(f"v{i}", draw(st.integers(1, 3)), draw(st.sampled_from([0.0, 0.25, 0.5, 1.0])))
        for i in range(draw(st.integers(1, 3)))
    )

    def vector(dim):
        if draw(st.booleans()):
            return np.zeros(dim)
        return np.array(draw(st.lists(st.integers(-8, 8), min_size=dim, max_size=dim)), dtype=np.float64) / 4

    palette = [{v.name: vector(v.dim) for v in views} for _ in range(draw(st.integers(1, 3)))]
    records = [make_record(i, features=draw(st.sampled_from(palette))) for i in range(draw(st.integers(1, 9)))]
    k = draw(st.integers(1, len(records)))
    return views, records[:k], records[k:]


class TestCoveringRadius:
    def test_hand_value(self):
        labeled = scalar_records([0.0], ids=[0])
        pool = scalar_records([3.0, 7.0], ids=[1, 2])
        assert covering_radius(labeled, pool, euclid1d) == pytest.approx(7.0)

    def test_empty_labeled_is_infinite(self):
        assert covering_radius([], scalar_records([1.0]), euclid1d) == math.inf

    def test_fully_labeled_with_a_zero_view_is_zero(self):
        views = (ViewSpec("a", 2, 0.5), ViewSpec("b", 2, 0.5))
        x = make_record(0, features={"a": [0.0, 0.0], "b": [1.0, 0.0]})
        y = make_record(1, features={"a": [1.0, 0.0], "b": [0.0, 1.0]})
        assert covering_radius([x, y], [], FusedCosineMetric(views)) == 0.0

    @settings(deadline=None)
    @given(fixture=radius_fixtures())
    def test_matches_brute_force_over_pool(self, fixture):
        views, labeled, pool = fixture
        brute = max((min(fused_distance(p, z, views) for z in labeled) for p in pool), default=0.0)
        radius = covering_radius(labeled, pool, FusedCosineMetric(views))
        assert radius >= 0.0 and abs(radius - max(brute, 0.0)) <= 1e-12


class TestCoveringRadiusHook:
    """The campaign's own covering-radius curve, measured when no hook is
    given."""

    @settings(deadline=None, max_examples=20)
    @given(
        kind=st.sampled_from(["random", "coreset"]),
        pca_var_keep=st.sampled_from([None, 0.99]),
        clusters=st.integers(2, 6),
        per_cluster=st.integers(1, 8),
        seed=st.integers(0, 2**16),
    )
    def test_campaign_curve_matches_from_scratch(self, kind, pca_var_keep, clusters, per_cluster, seed):
        # Without a hook the value is read off the campaign's coverage,
        # shared with a coreset strategy when PCA is off. Each point must
        # still be the covering radius of the labels the ledger holds
        # after that round.
        data = generate_synthetic(small_spec(clusters, per_cluster), seed=seed)
        cfg = CampaignConfig(
            strategy=StrategyConfig(kind=kind, views=data.views, seed=seed),
            round_budgets=(2, 5, 9),
            initial_fraction=0.3,
            pca_var_keep=pca_var_keep,
        )
        metric = FusedCosineMetric(data.views)
        curve, state = run_campaign(cfg, data)
        for k, point in enumerate(curve.points):
            matched = {ev.instance_id for log in state.history[:k] for ev in log.events if ev.outcome == "matched"}
            labeled = [r for r in data.instances if r.image_id in state.labeled_images or r.instance_id in matched]
            pool = [r for r in data.instances if r not in labeled]
            assert abs(point.y - covering_radius(labeled, pool, metric)) <= 1e-12


class TestPcaOncePerCampaign:
    def pca_config(self, data):
        return CampaignConfig(
            strategy=StrategyConfig(kind="coreset", views=data.views, seed=0),
            round_budgets=(4, 8, 12),
            pca_var_keep=0.99,
        )

    def test_campaign_compresses_once(self, monkeypatch):
        calls = []
        real = simulation.compress_views

        def counting(matrices, var_keep):
            calls.append(len(matrices[0]))
            return real(matrices, var_keep)

        monkeypatch.setattr(simulation, "compress_views", counting)
        data = generate_synthetic(small_spec(), seed=5)
        _, state = run_campaign(self.pca_config(data), data, lambda lab, pool: float(len(lab)))
        assert len(state.history) == 3
        assert calls == [len(data.instances)]

    def test_compressed_matrices_equal_the_record_stacked_ones(self, tmp_path):
        # The campaign compresses the dataset's matrices, not a restack of
        # its records' rows; both must give the same bits, loaded or not.
        data = generate_synthetic(small_spec(clusters=6), seed=5)
        write_dataset(data, tmp_path / "manifest.jsonl")
        for d in (data, load_dataset(tmp_path / "manifest.jsonl")):
            stacked = [np.stack([r.features[v.name] for r in d.instances]) for v in d.views]
            expected = [pca_transform(pca_fit(X, 0.99), X) for X in stacked]
            compressed = features.compress_views([d.matrix(v.name) for v in d.views], 0.99)
            assert all(np.array_equal(a, b) for a, b in zip(compressed, expected, strict=True))
            metric = FusedCosineMetric(d.views)
            coverage = simulation._coverage({}, d, d.views, 0.99)
            assert np.array_equal(coverage.E, metric.embed_views(expected))

    def test_non_greedy_campaign_ignores_pca_var_keep(self, monkeypatch):
        monkeypatch.setattr(simulation, "compress_views", None)
        data = generate_synthetic(small_spec(clusters=6), seed=8)
        cfg = CampaignConfig(strategy=StrategyConfig(kind="random", seed=3), round_budgets=(4, 8, 12))
        _, with_pca = run_campaign(replace(cfg, pca_var_keep=0.9), data, lambda lab, pool: float(len(lab)))
        _, without = run_campaign(cfg, data, lambda lab, pool: float(len(lab)))
        assert len(without.history) == 3
        assert [log.events for log in with_pca.history] == [log.events for log in without.history]


class TestOneCoveragePerCampaign:
    """A greedy campaign embeds its instances once and folds labels
    forward; each round must still pick what a standalone round, which
    builds its coverage from the state's labels, would pick."""

    def coreset_config(self, data, views=None, **kwargs):
        return CampaignConfig(
            strategy=StrategyConfig(kind="coreset", views=views or data.views, seed=0),
            round_budgets=(4, 8, 12),
            **kwargs,
        )

    @pytest.mark.parametrize("pca_var_keep", [None, 0.95], ids=["raw", "pca"])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_same_requests_as_a_replay_of_standalone_rounds(self, pca_var_keep, seed):
        # Crowded images with two thirds of the ground truth dropped, so
        # matched, null and suppressed requests all come up.
        data = generate_synthetic(SyntheticSpec(4, 60), seed=seed)
        data = replace(data, ground_truth=data.ground_truth[::3])
        cfg = CampaignConfig(
            strategy=StrategyConfig(kind="coreset", views=data.views, seed=seed),
            round_budgets=tuple(range(8, 97, 8)),
            pca_var_keep=pca_var_keep,
        )
        _, state = run_campaign(cfg, data, lambda lab, pool: 0.0)
        assert {"matched", "null", "suppressed"} <= {ev.outcome for log in state.history for ev in log.events}

        ref = RoundState(
            round_index=0,
            labeled_gt=frozenset(g.gt_id for g in data.ground_truth if g.image_id in state.labeled_images),
            requested_total=0,
            labeled_images=state.labeled_images,
            rng_seed=cfg.strategy.seed,
        )
        for _ in cfg.round_budgets:
            ref, log = run_round(ref, data, cfg, pool_of(ref, data), coverage=None)
            if log.charged == 0:
                break
        assert [log.events for log in ref.history] == [log.events for log in state.history]

    @pytest.mark.parametrize(
        "kind,pca_var_keep,radius,embeddings",
        [
            ("coreset", None, False, 1),
            ("coreset", None, True, 1),
            ("coreset", 0.99, True, 2),
            ("random", None, True, 1),
        ],
        ids=["coreset", "coreset-hook", "coreset-pca-hook", "random-hook"],
    )
    def test_one_embedding_per_distinct_key(self, monkeypatch, kind, pca_var_keep, radius, embeddings):
        calls = []
        real = FusedCosineMetric.embed_views

        def counting(metric, matrices):
            calls.append(len(matrices[0]))
            return real(metric, matrices)

        monkeypatch.setattr(FusedCosineMetric, "embed_views", counting)
        data = generate_synthetic(small_spec(), seed=5)
        cfg = CampaignConfig(
            strategy=StrategyConfig(kind=kind, views=data.views, seed=0),
            round_budgets=(4, 8, 12),
            pca_var_keep=pca_var_keep,
        )
        measure = None if radius else lambda lab, pool: float(len(lab))
        _, state = run_campaign(cfg, data, measure)
        assert len(state.history) == 3
        assert calls == [len(data.instances)] * embeddings

    def test_round_pulls_no_pick_past_its_target(self, monkeypatch):
        # Each charge that reaches a round's target ends the round, so the
        # greedy ranking is never asked for (and never folds) one more pick:
        # 9 one-row folds per round of 10 requests, not 10.
        one_row = []
        real = FusedCosineMetric.between

        def counting(metric, A, B):
            one_row.append(len(B) == 1)
            return real(metric, A, B)

        monkeypatch.setattr(FusedCosineMetric, "between", counting)
        data = generate_synthetic(SyntheticSpec(8, 25), seed=1)
        cfg = CampaignConfig(
            strategy=StrategyConfig(kind="coreset", views=data.views, seed=1), round_budgets=(10, 20, 30)
        )
        _, state = run_campaign(cfg, data, lambda lab, pool: 0.0)
        assert sum(one_row) == 27
        # The requests the campaign made before this rule, pinned.
        assert [[ev.instance_id for ev in log.events] for log in state.history] == [
            [60, 1, 173, 124, 40, 127, 196, 20, 13, 164],
            [18, 8, 152, 16, 4, 149, 61, 17, 132, 159],
            [11, 19, 171, 156, 2, 52, 23, 12, 142, 15],
        ]
        assert {ev.outcome for log in state.history for ev in log.events} == {"matched"}

    def test_unnormalized_weights_warn_once_per_campaign(self, caplog):
        data = generate_synthetic(small_spec(), seed=5)
        views = tuple(replace(v, lam=1.0) for v in data.views)
        with caplog.at_level(logging.WARNING, logger="alsim.features"):
            _, state = run_campaign(self.coreset_config(data, views), data, lambda lab, pool: float(len(lab)))
        assert len(state.history) == 3
        warnings = [r.getMessage() for r in caplog.records if "view weights sum to" in r.getMessage()]
        assert warnings == ["view weights sum to 4, not 1; using them as configured"]

    def test_standalone_round_runs_with_pca(self):
        data = generate_synthetic(small_spec(), seed=5)
        labeled_images = frozenset(["img0000"])
        state = RoundState(0, frozenset(g.gt_id for g in data.ground_truth if g.image_id in labeled_images),
                           0, labeled_images, 0)
        cfg = self.coreset_config(data, pca_var_keep=0.99)
        state, log = run_round(state, data, cfg, pool_of(state, data))
        assert log.charged == 4


@st.composite
def oracle_rounds(draw):
    """A small synthetic dataset, crowded and with some ground truth
    dropped so that suppressed and null requests come up, seeded images,
    a non-greedy kind and cumulative round budgets."""
    spec = SyntheticSpec(
        clusters=draw(st.integers(1, 4)),
        per_cluster=draw(st.integers(1, 8)),
        image_size=draw(st.sampled_from([(200, 100), (1242, 375)])),
        n_classes=draw(st.sampled_from([1, 8])),
    )
    data = generate_synthetic(spec, seed=draw(st.integers(0, 2**16)))
    kept = draw(st.lists(st.booleans(), min_size=len(data.ground_truth), max_size=len(data.ground_truth)))
    data = replace(data, ground_truth=tuple(g for g, keep in zip(data.ground_truth, kept) if keep))
    seeded = frozenset(draw(st.sets(st.sampled_from(sorted(data.images)))))
    budgets = tuple(itertools.accumulate(draw(st.lists(st.integers(1, 12), min_size=1, max_size=4))))
    kind = draw(st.sampled_from([k for k in STRATEGY_KINDS if k not in CORESET_KINDS]))
    return data, seeded, round_config(budgets, kind=kind)


class TestRunRoundProperties:
    @settings(deadline=None)
    @given(fixture=oracle_rounds())
    def test_accounting_invariants(self, fixture):
        data, seeded, cfg = fixture
        labeled_gt = frozenset(g.gt_id for g in data.ground_truth if g.image_id in seeded)
        state = RoundState(0, labeled_gt, 0, seeded, cfg.strategy.seed)
        charged_ids, matched_ids = [], set()
        for target in cfg.round_budgets:
            new, log = run_round(state, data, cfg, pool_of(state, data))
            # A matched instance is labeled, so it leaves the pool for good.
            assert not {ev.instance_id for ev in log.events} & matched_ids
            matched_ids |= {ev.instance_id for ev in log.events if ev.outcome == "matched"}
            outcomes = [ev.outcome for ev in log.events]
            assert log.charged == log.matched + outcomes.count("null")
            assert (log.matched, log.suppressed) == (outcomes.count("matched"), outcomes.count("suppressed"))
            assert all(ev.charged == (ev.outcome != "suppressed") for ev in log.events)
            assert new.requested_total == state.requested_total + log.charged <= target
            matched_gt = {ev.gt_id for ev in log.events if ev.outcome == "matched"}
            assert len(matched_gt) == log.matched and not matched_gt & state.labeled_gt
            assert new.labeled_gt == state.labeled_gt | matched_gt
            # The ledger holds what a replay of the history gives.
            replayed = [ev for past in new.history for ev in past.events]
            assert new.matched_ids == {ev.instance_id for ev in replayed if ev.outcome == "matched"}
            assert new.charged_ids == {ev.instance_id for ev in replayed if ev.charged}
            charged_ids += [ev.instance_id for ev in log.events if ev.charged]
            state = new
        assert len(charged_ids) == len(set(charged_ids))


# With camera f = 100 px and H = 2 these depths give windows of 20, 10 and
# 25 px, all exact in binary; on a 5 px grid, objects exactly a window
# away and objects equidistant from a request both come up often.
GRID_DEPTHS = (10.0, 20.0, 8.0)


@st.composite
def grid_campaigns(draw):
    """Crowded images on a 5 px grid, one object near each instance with
    some dropped, ids shuffled against dataset order, three classes, and
    objects below ``min_px_height``; a random campaign over them."""
    grid = lambda lo, hi: 5.0 * draw(st.integers(lo, hi))
    instances, objects = [], []
    for image in range(draw(st.integers(1, 3))):
        for _ in range(draw(st.integers(1, 16))):
            center = (grid(0, 8), grid(0, 4))
            instances.append(make_record(
                len(instances), image_id=f"img{image}", class_id=draw(st.integers(0, 2)), center=center,
                pred_depth=draw(st.sampled_from(GRID_DEPTHS)), size=(10, 10),
            ))
            if draw(st.booleans()):
                objects.append((f"img{image}", (center[0] + grid(-5, 5), center[1] + grid(-5, 5)),
                                draw(st.sampled_from([10.0, 60.0]))))
    gt_ids = draw(st.permutations(range(len(objects))))
    gts = [make_gt(i, image_id=image, center=c, pixel_height=h) for i, (image, c, h) in zip(gt_ids, objects)]
    budgets = tuple(itertools.accumulate(draw(st.lists(st.integers(1, 6), min_size=1, max_size=6))))
    cfg = CampaignConfig(
        strategy=StrategyConfig(kind="random", seed=draw(st.integers(0, 2**16))),
        round_budgets=budgets,
        initial_fraction=draw(st.sampled_from([0.0, 0.5])),
    )
    return build_dataset(instances, gts), cfg


def full_scan_outcomes(data, cfg, history, labeled_gt):
    """Each request of ``history`` resolved against every earlier charged
    request of its image and every open object of its image, unindexed."""
    by_id = {r.instance_id: r for r in data.instances}
    open_gts = [g for g in data.ground_truth if g.gt_id not in labeled_gt]
    priors = []
    outcomes = []
    for ev in (ev for log in history for ev in log.events):
        r = by_id[ev.instance_id]
        image_priors = [(c, k) for image, c, k in priors if image == r.image_id]
        if suppress_duplicate(r.center, r.pred_depth, r.class_id, image_priors, data.camera, cfg.h_scale):
            outcomes.append(("suppressed", None))
            continue
        candidates = [g for g in open_gts if g.image_id == r.image_id]
        result = match_request(
            r.center, r.pred_depth, r.class_id, candidates, data.camera, cfg.h_scale, cfg.min_px_height
        )
        priors.append((r.image_id, r.center, r.class_id))
        open_gts = [g for g in open_gts if g.gt_id != result.gt_id]
        outcomes.append(("matched" if result.matched else "null", result.gt_id))
    return outcomes


@st.composite
def crowded_campaigns(draw):
    """Crowded synthetic images with some ground truth dropped, a random
    labeling-window scale and several rounds: a campaign in which an
    instance suppressed in one round is requested again in later ones.
    The kinds are ``random`` and ``coreset``, whose order changes between
    rounds; under a fixed order a remembered suppression would fall in the
    same place as a rescan."""
    spec = SyntheticSpec(
        clusters=draw(st.integers(2, 4)),
        per_cluster=draw(st.integers(10, 40)),
        image_size=(300, 120),
        n_classes=draw(st.sampled_from([1, 2])),
    )
    data = generate_synthetic(spec, seed=draw(st.integers(0, 2**16)))
    kept = draw(st.lists(st.booleans(), min_size=len(data.ground_truth), max_size=len(data.ground_truth)))
    data = replace(data, ground_truth=tuple(g for g, keep in zip(data.ground_truth, kept) if keep))
    kind = draw(st.sampled_from(["random", "coreset"]))
    cfg = CampaignConfig(
        strategy=StrategyConfig(kind, views=data.views if kind == "coreset" else (), seed=draw(st.integers(0, 99))),
        round_budgets=tuple(itertools.accumulate(draw(st.lists(st.integers(1, 6), min_size=2, max_size=10)))),
        h_scale=draw(st.floats(0.3, 2.0)),
        initial_fraction=draw(st.sampled_from([0.3, 0.6])),
    )
    return data, cfg


class TestOracleIndex:
    @settings(deadline=None)
    @given(fixture=grid_campaigns())
    def test_carried_index_matches_fresh_indexes_and_a_full_scan(self, fixture):
        data, cfg = fixture
        _, state = run_campaign(cfg, data, lambda lab, pool: 0.0)
        seeded_gt = frozenset(g.gt_id for g in data.ground_truth if g.image_id in state.labeled_images)
        ref = RoundState(0, seeded_gt, 0, state.labeled_images, cfg.strategy.seed)
        for log in state.history:
            ref, ref_log = run_round(ref, data, cfg, pool_of(ref, data))
            assert ref_log.events == log.events
        events = [ev for log in state.history for ev in log.events]
        assert [(ev.outcome, ev.gt_id) for ev in events] == full_scan_outcomes(data, cfg, state.history, seeded_gt)

    @settings(deadline=None, max_examples=60)
    @given(fixture=crowded_campaigns())
    def test_remembered_suppressions_match_rebuilt_indexes(self, fixture):
        # The campaign carries one index and its suppression memo; the
        # replay rebuilds an index from the ledger every round, with an
        # empty memo, and must give the same events.
        data, cfg = fixture
        _, state = run_campaign(cfg, data, lambda lab, pool: 0.0)
        seeded_gt = frozenset(g.gt_id for g in data.ground_truth if g.image_id in state.labeled_images)
        ref = RoundState(0, seeded_gt, 0, state.labeled_images, cfg.strategy.seed)
        for log in state.history:
            ref, ref_log = run_round(ref, data, cfg, pool_of(ref, data), oracle=None)
            assert ref_log.events == log.events

    def test_one_radius_per_request_not_remembered(self, monkeypatch):
        # A crowded greedy campaign: 410 requests, 314 suppressed, 245 of
        # them for an instance already suppressed in an earlier round.
        # Only the other 165 compute a labeling radius or scan priors.
        data = generate_synthetic(SyntheticSpec(4, 60), seed=0)
        data = replace(data, ground_truth=data.ground_truth[::3])
        calls = {"radius": 0, "scan": 0}

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr(simulation, "labeling_radius", counted("radius", simulation.labeling_radius))
        monkeypatch.setattr(simulation, "_suppresses", counted("scan", simulation._suppresses))
        cfg = CampaignConfig(StrategyConfig("coreset", views=data.views, seed=0), tuple(range(8, 97, 8)))
        _, state = run_campaign(cfg, data, lambda lab, pool: 0.0)
        events = [ev for log in state.history for ev in log.events]
        # Every suppression of an instance after its first is remembered.
        suppressed = [ev.instance_id for ev in events if ev.outcome == "suppressed"]
        remembered = len(suppressed) - len(set(suppressed))
        assert (len(events), len(suppressed), remembered) == (410, 314, 245)
        assert calls == {"radius": len(events) - remembered, "scan": len(events) - remembered}

    def test_index_under_another_h_scale_refused(self):
        data = build_dataset(
            [make_record(i, center=(60.0 * (i + 1), 50.0), pred_depth=10.0, size=(10, 10)) for i in range(2)],
            [make_gt(100 + i, center=(60.0 * (i + 1), 50.0), pixel_height=60.0) for i in range(2)],
        )
        state = fresh_state()
        oracle = OracleIndex(data, state)
        assert oracle.h_scale is None
        state, _ = run_round(state, data, round_config((1, 2)), list(data.instances), oracle=oracle)
        assert oracle.h_scale == 2.0
        with pytest.raises(ValueError, match="oracle index was used under h_scale 2.0, this round has 3.0"):
            run_round(state, data, round_config((1, 2), h_scale=3.0), pool_of(state, data), oracle=oracle)
        # Refused before the index is touched: it still runs under its own scale.
        assert oracle.round_index == 1
        _, log = run_round(state, data, round_config((1, 2)), pool_of(state, data), oracle=oracle)
        assert [ev.outcome for ev in log.events] == ["matched"]

    @pytest.mark.parametrize("axis", [0, 1])
    @pytest.mark.parametrize("side", [1.0, -1.0])
    def test_window_boundary_is_inclusive(self, axis, side):
        # Depth 10 gives a window of exactly 20 px on both axes: an object
        # 20 px away is offered and matched, one a single ulp further out
        # is never offered.
        def offered_on(edge):
            gt_center = [50.0, 50.0]
            gt_center[axis] = edge
            data = build_dataset(
                [make_record(0, center=(50.0, 50.0), pred_depth=10.0, size=(10, 10))],
                [make_gt(7, center=tuple(gt_center), pixel_height=60.0)],
            )
            offered = []

            def recording(center, candidates, *args):
                offered.append([g.gt_id for g in candidates])
                return geometry._match(center, candidates, *args)

            with patch.object(simulation, "_match", recording):
                _, log = run_round(fresh_state(), data, round_config((1,)), data.instances)
            return offered, [(ev.outcome, ev.gt_id) for ev in log.events]

        edge = 50.0 + side * 20.0
        assert offered_on(edge) == ([[7]], [("matched", 7)])
        assert offered_on(float(np.nextafter(edge, side * math.inf))) == ([[]], [("null", None)])

    def test_empty_ledger_skips_the_pass_over_instances(self):
        class NoPass(tuple):
            def __iter__(self):
                raise AssertionError("passed over the instances")

        data = build_dataset(
            [make_record(i, center=(60.0 * (i + 1), 50.0), pred_depth=10.0) for i in range(2)],
            [make_gt(100 + i, center=(60.0 * (i + 1), 50.0)) for i in range(2)],
        )
        assert OracleIndex(replace(data, instances=NoPass(data.instances)), fresh_state()).priors == {}
        charged = replace(fresh_state(), charged_ids=frozenset({1}))
        assert OracleIndex(data, charged).priors == {("img0", 0): [((120.0, 50.0), 0)]}

    def test_index_of_another_round_refused(self):
        data = build_dataset(
            [make_record(i, center=(60.0 * (i + 1), 50.0), pred_depth=10.0, size=(10, 10)) for i in range(2)],
            [make_gt(100 + i, center=(60.0 * (i + 1), 50.0), pixel_height=60.0) for i in range(2)],
        )
        cfg = round_config((1, 2))
        state = fresh_state()
        oracle = OracleIndex(data, state)
        new_state, _ = run_round(state, data, cfg, list(data.instances), oracle=oracle)
        assert oracle.round_index == 1
        with pytest.raises(ValueError, match="oracle index is at round 1, state at round 0"):
            run_round(state, data, cfg, list(data.instances), oracle=oracle)
        _, log = run_round(new_state, data, cfg, pool_of(new_state, data), oracle=oracle)
        assert [ev.outcome for ev in log.events] == ["matched"]


class TestGenerateSynthetic:
    def test_minimal_spec(self):
        data = generate_synthetic(SyntheticSpec(clusters=1, per_cluster=1), seed=0)
        assert len(data.instances) == 1
        assert len(data.ground_truth) == 1
        assert data.images == {"img0000": 1}

    def test_deterministic(self):
        a = generate_synthetic(small_spec(), seed=7)
        b = generate_synthetic(small_spec(), seed=7)
        assert [r.instance_id for r in a.instances] == [r.instance_id for r in b.instances]
        for ra, rb in zip(a.instances, b.instances):
            assert ra.pred_depth == rb.pred_depth
            for name in ra.features:
                assert np.array_equal(ra.features[name], rb.features[name])

    def test_every_instance_matchable(self):
        data = generate_synthetic(small_spec(clusters=6, per_cluster=8), seed=9)
        for r in data.instances:
            gts = [g for g in data.ground_truth if g.image_id == r.image_id]
            result = match_request(r.center, r.pred_depth, r.class_id, gts, data.camera, 2.0, 25.0)
            assert result.matched

    def test_pixel_heights_clear_min_filter(self):
        data = generate_synthetic(small_spec(), seed=3)
        assert all(g.pixel_height >= 25.0 for g in data.ground_truth)

    def test_depth_variance_grows_with_depth(self):
        data = generate_synthetic(small_spec(clusters=10, per_cluster=20), seed=4)
        depths = np.array([r.pred_depth for r in data.instances])
        variances = np.array([ensemble_depth_variance(r) for r in data.instances])
        median = np.median(depths)
        far = variances[depths > median].mean()
        near = variances[depths <= median].mean()
        assert far > near

    def test_invalid_spec(self):
        with pytest.raises(ValueError):
            SyntheticSpec(clusters=0, per_cluster=5)
