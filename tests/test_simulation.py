import math
from decimal import Decimal, getcontext

from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from alsim import features, simulation
from alsim.features import FusedCosineMetric
from alsim.geometry import match_request
from alsim.records import Box2D, CameraModel, ViewSpec
from alsim.selection import CORESET_KINDS, StrategyConfig, ensemble_depth_variance
from alsim.simulation import (
    CampaignConfig,
    RoundState,
    SyntheticSpec,
    bagging_fraction,
    build_class_mask,
    covering_radius,
    covering_radius_hook,
    generate_synthetic,
    masked_pointwise_loss,
    run_campaign,
    run_round,
    sample_bagged_labels,
    sample_loss_weights,
)

from conftest import build_dataset, euclid1d, make_gt, make_record, scalar_records


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


class TestSampleBaggedLabels:
    def test_size_at_t0(self):
        subset = sample_bagged_labels(range(10), 0.0, 3.0, seed=0)
        assert len(subset) == 9
        assert subset <= set(range(10))

    def test_floor_at_one(self):
        assert len(sample_bagged_labels([42], 1.0, 30.0, seed=0)) == 1

    def test_empty_input(self):
        assert sample_bagged_labels([], 0.5, 3.0, seed=0) == set()

    def test_reproducible(self):
        a = sample_bagged_labels(range(100), 0.4, 3.0, seed=9)
        b = sample_bagged_labels(range(100), 0.4, 3.0, seed=9)
        assert a == b


class TestBuildClassMask:
    def test_no_gt_no_boxes_all_zero(self):
        mask = build_class_mask(4, 3, [], [])
        assert mask.values.shape == (3, 4)
        assert not mask.values.any()

    def test_single_center(self):
        mask = build_class_mask(5, 5, [(2, 3)], [])
        assert mask.values.sum() == 1
        assert mask.values[3, 2] == 1

    def test_center_inside_unlabeled_box_masked_out(self):
        mask = build_class_mask(10, 10, [(5, 5)], [Box2D(5.0, 5.0, 4.0, 4.0)])
        assert mask.values.sum() == 0

    def test_center_outside_box_survives(self):
        mask = build_class_mask(10, 10, [(9, 9)], [Box2D(2.0, 2.0, 3.0, 3.0)])
        assert mask.values[9, 9] == 1

    def test_values_binary(self):
        mask = build_class_mask(6, 6, [(1, 1), (4, 4)], [Box2D(4.0, 4.0, 2.0, 2.0)])
        assert set(np.unique(mask.values)) <= {0, 1}

    def test_center_out_of_grid_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            build_class_mask(4, 4, [(4, 0)], [])


class TestMaskedPointwiseLoss:
    @staticmethod
    def sq(p, g):
        return (p - g) ** 2

    def test_all_zero_mask(self):
        mask = build_class_mask(2, 2, [], [])
        pred = np.full((3, 2, 2), 0.7)
        gt = np.zeros((3, 2, 2))
        assert masked_pointwise_loss(pred, gt, mask, self.sq) == 0.0

    def test_perfect_prediction(self):
        mask = build_class_mask(2, 2, [(0, 0), (1, 1)], [])
        pred = np.full((2, 2, 2), 0.4)
        assert masked_pointwise_loss(pred, pred.copy(), mask, self.sq) == 0.0

    def test_single_cell_hand_value(self):
        mask = build_class_mask(2, 2, [(1, 0)], [])
        pred = np.zeros((1, 2, 2))
        gt = np.zeros((1, 2, 2))
        pred[0, 0, 1] = 0.6
        gt[0, 0, 1] = 1.0
        assert masked_pointwise_loss(pred, gt, mask, self.sq) == pytest.approx(0.16)

    def test_shape_mismatch(self):
        mask = build_class_mask(2, 2, [], [])
        with pytest.raises(ValueError):
            masked_pointwise_loss(np.zeros((2, 2)), np.zeros((3, 3)), mask, self.sq)
        with pytest.raises(ValueError):
            masked_pointwise_loss(np.zeros((3, 3)), np.zeros((3, 3)), mask, self.sq)


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


def small_spec(clusters=4, per_cluster=6, **kw):
    return SyntheticSpec(clusters=clusters, per_cluster=per_cluster, **kw)


class TestRunCampaign:
    def hook(self, labeled, pool):
        return float(len(labeled))

    @pytest.mark.parametrize("kind", CORESET_KINDS)
    def test_greedy_kinds_refuse_zero_initial_fraction(self, kind):
        with pytest.raises(ValueError, match="initial_fraction must be > 0"):
            round_config((3,), kind=kind, views=(ViewSpec("v", 1, 1.0),))

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


class TestCoveringRadius:
    def test_hand_value(self):
        labeled = scalar_records([0.0], ids=[0])
        pool = scalar_records([3.0, 7.0], ids=[1, 2])
        assert covering_radius(labeled, pool, euclid1d) == pytest.approx(7.0)

    def test_empty_labeled_is_infinite(self):
        assert covering_radius([], scalar_records([1.0]), euclid1d) == math.inf


@st.composite
def labeling_orders(draw):
    """1-4 views (weights 0 included), 1-10 records with small exact
    vectors (some rows zero), the order in which they get labeled and a
    nondecreasing list of labeled-set sizes."""
    views = tuple(
        ViewSpec(f"v{i}", draw(st.integers(1, 3)), draw(st.sampled_from([0.0, 0.25, 0.5, 1.0])))
        for i in range(draw(st.integers(1, 4)))
    )
    n = draw(st.integers(1, 10))

    def vector(dim):
        if draw(st.booleans()):
            return np.zeros(dim)
        return np.array(draw(st.lists(st.integers(-8, 8), min_size=dim, max_size=dim)), dtype=np.float64) / 4

    def records():
        return [make_record(i, features={v.name: vector(v.dim) for v in views}) for i in range(n)]

    sizes = sorted(draw(st.lists(st.integers(1, n), min_size=1, max_size=5)))
    return views, records, draw(st.permutations(range(n))), sizes


def split_by_order(records, order, k):
    """The first k records of ``order`` as labeled, the rest as the pool."""
    labeled = set(order[:k])
    return [records[i] for i in order[:k]], [r for i, r in enumerate(records) if i not in labeled]


class TestCoveringRadiusHook:
    @settings(deadline=None)
    @given(fixture=labeling_orders(), block=st.sampled_from([1, 2, features.FOLD_BLOCK]))
    def test_growing_labeled_sets_match_from_scratch(self, fixture, block):
        views, make_records, order, sizes = fixture
        records = make_records()
        metric = FusedCosineMetric(views)
        hook = covering_radius_hook(metric)
        with patch.object(features, "FOLD_BLOCK", block):
            for k in sizes:
                labeled, pool = split_by_order(records, order, k)
                assert abs(hook(labeled, pool) - covering_radius(labeled, pool, metric)) <= 1e-12

    @settings(deadline=None)
    @given(fixture=labeling_orders(), data=st.data())
    def test_shrunk_labeled_set_matches_from_scratch(self, fixture, data):
        views, make_records, order, sizes = fixture
        records = make_records()
        metric = FusedCosineMetric(views)
        hook = covering_radius_hook(metric)
        assume(len(records) > 1)
        hook(*split_by_order(records, order, sizes[-1]))
        dropped = data.draw(st.sampled_from(order[: sizes[-1]]))
        others = [i for i in order if i != dropped]
        kept = data.draw(st.lists(st.sampled_from(others), min_size=1, unique=True))
        labeled = [records[i] for i in kept]
        pool = [r for i, r in enumerate(records) if i not in kept]
        assert abs(hook(labeled, pool) - covering_radius(labeled, pool, metric)) <= 1e-12

    @settings(deadline=None)
    @given(fixture=labeling_orders())
    def test_second_dataset_with_same_ids_matches_from_scratch(self, fixture):
        views, make_records, order, sizes = fixture
        first, second = make_records(), make_records()
        metric = FusedCosineMetric(views)
        hook = covering_radius_hook(metric)
        hook(*split_by_order(first, order, sizes[0]))
        # Same instance ids and a labeled set that only grew by id, but
        # other vectors: nothing folded for the first dataset may count.
        labeled, pool = split_by_order(second, order, sizes[-1])
        assert abs(hook(labeled, pool) - covering_radius(labeled, pool, metric)) <= 1e-12

    def test_empty_labeled_is_infinite(self):
        assert covering_radius_hook(euclid1d)([], scalar_records([1.0])) == math.inf

    def test_campaign_embeds_once(self):
        data = generate_synthetic(small_spec(), seed=6)
        calls = []

        class CountingMetric(FusedCosineMetric):
            def embed(self, recs):
                calls.append(len(recs))
                return super().embed(recs)

        cfg = CampaignConfig(strategy=StrategyConfig(kind="random", seed=0), round_budgets=(3, 6, 9))
        curve, _ = run_campaign(cfg, data, covering_radius_hook(CountingMetric(data.views)))
        assert len(curve.points) == 4
        assert calls == [len(data.instances)]


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

        def counting(records, views, var_keep):
            calls.append(len(records))
            return real(records, views, var_keep)

        monkeypatch.setattr(simulation, "compress_views", counting)
        data = generate_synthetic(small_spec(), seed=5)
        _, state = run_campaign(self.pca_config(data), data, lambda lab, pool: float(len(lab)))
        assert len(state.history) == 3
        assert calls == [len(data.instances)]

    def test_same_requests_as_a_refit_every_round(self):
        data = generate_synthetic(small_spec(clusters=6), seed=8)
        cfg = self.pca_config(data)
        _, state = run_campaign(cfg, data, lambda lab, pool: float(len(lab)))

        # Replay the campaign with run_round, which refits PCA on each call.
        ref = RoundState(
            round_index=0,
            labeled_gt=frozenset(g.gt_id for g in data.ground_truth if g.image_id in state.labeled_images),
            requested_total=0,
            labeled_images=state.labeled_images,
            rng_seed=cfg.strategy.seed,
        )
        for _ in cfg.round_budgets:
            matched = ref.matched_instance_ids()
            pool = [
                r for r in data.instances
                if r.image_id not in ref.labeled_images and r.instance_id not in matched
            ]
            ref, _ = run_round(ref, data, cfg, pool)
        assert [log.events for log in ref.history] == [log.events for log in state.history]


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
            result = match_request(
                r.center, r.pred_depth, r.class_id, data.gts_of_image(r.image_id),
                data.camera, 2.0, 25.0,
            )
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
