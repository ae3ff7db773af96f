from itertools import islice

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from alsim.features import Coverage, FusedCosineMetric, fused_distance
from alsim.records import ViewSpec
from alsim import selection
from alsim.selection import (
    CORESET_KINDS,
    STRATEGY_KINDS,
    DepthFilters,
    StrategyConfig,
    coreset_select,
    ensemble_depth_variance,
    image_level_select,
    iter_coreset_picks,
    rank_pool,
    validate_strategy_setup,
)

from conftest import euclid1d, make_record, scalar_records


def greedy_oracle(pool, labeled, dist, k):
    """From-scratch greedy reference: recompute every candidate's min
    distance to labeled + picks each step, argmax with lowest-id ties."""
    picked = []
    remaining = list(pool)
    for _ in range(k):
        best, best_score = None, None
        for cand in remaining:
            score = min(dist(cand, z) for z in list(labeled) + picked)
            if best is None or score > best_score or (
                score == best_score and cand.instance_id < best.instance_id
            ):
                best, best_score = cand, score
        picked.append(best)
        remaining.remove(best)
    return [r.instance_id for r in picked]


def coverage_of(pool, labeled, metric):
    """A coverage of pool + labeled with the labeled rows folded in."""
    coverage = Coverage(metric, metric.embed([*pool, *labeled]))
    coverage.fold(range(len(pool), len(pool) + len(labeled)))
    return coverage


def ranked_ids(pool, kind, seed=None, **cfg):
    return [r.instance_id for r, _ in rank_pool(pool, StrategyConfig(kind=kind, **cfg), seed=seed)]


def first_pick_score(x, labeled, dist):
    """Greedy score of a one-record pool: its min distance to the labeled set."""
    return next(iter_coreset_picks([x], labeled, dist))[1]


class TestCoresetScore:
    def test_self_in_labeled(self):
        recs = scalar_records([1.0, 5.0])
        assert first_pick_score(recs[0], recs, euclid1d) == 0.0

    def test_single_labeled_point(self):
        x, z = scalar_records([0.0, 0.7])
        assert first_pick_score(x, [z], euclid1d) == pytest.approx(0.7)

    def test_min_of_three(self):
        x = scalar_records([0.0])[0]
        labeled = scalar_records([0.9, -0.4, 0.6], ids=[10, 11, 12])
        assert first_pick_score(x, labeled, euclid1d) == pytest.approx(0.4)

    def test_empty_labeled_rejected(self):
        x = scalar_records([0.0])[0]
        with pytest.raises(ValueError, match="nonempty"):
            first_pick_score(x, [], euclid1d)


class TestCoresetSelect:
    def test_farthest_first_on_line(self):
        # values 0 (labeled), 1, 2, 10: the far point goes first, then 2
        labeled = scalar_records([0.0], ids=[0])
        pool = scalar_records([1.0, 2.0, 10.0], ids=[1, 2, 3])
        assert coreset_select(pool, labeled, euclid1d, 2) == [3, 2]

    def test_full_pool_is_permutation(self):
        labeled = scalar_records([0.0], ids=[0])
        pool = scalar_records([3.0, 1.0, 7.0, 2.0], ids=[4, 5, 6, 7])
        picks = coreset_select(pool, labeled, euclid1d, 4)
        assert sorted(picks) == [4, 5, 6, 7]

    def test_tie_breaks_to_lowest_id(self):
        labeled = scalar_records([0.0], ids=[0])
        pool = scalar_records([1.0, -1.0], ids=[7, 3])
        assert coreset_select(pool, labeled, euclid1d, 2) == [3, 7]

    def test_k_too_large_rejected(self):
        labeled = scalar_records([0.0], ids=[0])
        pool = scalar_records([1.0], ids=[1])
        with pytest.raises(ValueError, match="exceeds pool size"):
            coreset_select(pool, labeled, euclid1d, 2)

    def test_empty_labeled_rejected(self):
        pool = scalar_records([1.0], ids=[1])
        with pytest.raises(ValueError, match="nonempty"):
            coreset_select(pool, [], euclid1d, 1)

    def test_matches_oracle_with_scalar_metric(self, rng):
        for _ in range(30):
            n = int(rng.integers(3, 25))
            values = rng.normal(size=n) * 5
            # duplicated values force exact distance ties
            if n > 4:
                values[1] = values[0]
                values[3] = values[2]
            ids = [int(i) for i in rng.permutation(1000)[:n]]
            pool = scalar_records(values, ids=ids)
            labeled = scalar_records(rng.normal(size=2), ids=[2000, 2001])
            k = int(rng.integers(1, n + 1))
            assert coreset_select(pool, labeled, euclid1d, k) == greedy_oracle(pool, labeled, euclid1d, k)

    def test_pick_scores_match_from_scratch_recompute(self, rng):
        views = (ViewSpec("a", 4, 0.5), ViewSpec("b", 3, 0.5))
        pool = [
            make_record(i, features={v.name: rng.normal(size=v.dim) for v in views})
            for i in range(15)
        ]
        labeled = [
            make_record(100 + i, features={v.name: rng.normal(size=v.dim) for v in views})
            for i in range(3)
        ]
        metric = FusedCosineMetric(views)
        picks = []
        for record, score in iter_coreset_picks(pool, labeled, metric):
            refs = labeled + picks
            expected = min(fused_distance(record, z, views) for z in refs)
            assert score == pytest.approx(expected, abs=1e-12)
            picks.append(record)
        assert len(picks) == len(pool)

    def test_permutation_equivariance(self, rng):
        values = rng.normal(size=12) * 3
        ids_a = list(range(12))
        ids_b = [int(i) for i in rng.permutation(5000)[:12]]
        labeled = scalar_records([9.9], ids=[9000])
        picks_a = coreset_select(scalar_records(values, ids_a), labeled, euclid1d, 6)
        picks_b = coreset_select(scalar_records(values, ids_b), labeled, euclid1d, 6)
        mapping = dict(zip(ids_a, ids_b))
        assert [mapping[i] for i in picks_a] == picks_b

    def test_scale_invariance_of_one_view(self, rng):
        views = (ViewSpec("a", 5, 0.5), ViewSpec("b", 5, 0.5))
        feats = [{v.name: rng.normal(size=5) for v in views} for _ in range(20)]
        pool_1 = [make_record(i, features=f) for i, f in enumerate(feats[2:], start=2)]
        labeled_1 = [make_record(i, features=f) for i, f in enumerate(feats[:2])]
        scaled = [
            {"a": 37.5 * f["a"], "b": f["b"]} for f in feats
        ]
        pool_2 = [make_record(i, features=f) for i, f in enumerate(scaled[2:], start=2)]
        labeled_2 = [make_record(i, features=f) for i, f in enumerate(scaled[:2])]
        metric = FusedCosineMetric(views)
        assert coreset_select(pool_1, labeled_1, metric, 8) == coreset_select(pool_2, labeled_2, metric, 8)


class TestSelectRandom:
    def test_deterministic(self):
        pool = scalar_records(range(10))
        assert ranked_ids(pool, "random", seed=99) == ranked_ids(pool, "random", seed=99)

    def test_whole_pool(self):
        pool = scalar_records(range(5))
        assert sorted(ranked_ids(pool, "random", seed=1)) == list(range(5))

    def test_uniform_frequencies(self):
        # binomial bound: each of 4 ids within 4 sigma of p=0.25 over 1e4 draws
        pool = scalar_records(range(4))
        n = 10_000
        counts = {i: 0 for i in range(4)}
        for seed in range(n):
            counts[ranked_ids(pool, "random", seed=seed)[0]] += 1
        sigma = (0.25 * 0.75 / n) ** 0.5
        for i in range(4):
            assert abs(counts[i] / n - 0.25) < 4 * sigma


class TestSelectConfidence:
    def test_ascending_confidence(self):
        pool = [
            make_record(0, confidence=0.9),
            make_record(1, confidence=0.1),
            make_record(2, confidence=0.5),
        ]
        assert ranked_ids(pool, "confidence") == [1, 2, 0]

    def test_ties_break_by_id(self):
        pool = [make_record(5, confidence=0.5), make_record(2, confidence=0.5)]
        assert ranked_ids(pool, "confidence") == [2, 5]

    def test_missing_confidence_rejected(self):
        pool = [make_record(0, confidence=None)]
        with pytest.raises(ValueError, match="confidence"):
            ranked_ids(pool, "confidence")


class TestSelectEnsDepthVar:
    def test_zero_variance_ranks_last(self):
        pool = [
            make_record(0, pred_depth=10.0, aux_depths=(10.0, 10.0)),
            make_record(1, pred_depth=10.0, aux_depths=(14.0,)),
        ]
        assert ranked_ids(pool, "ens_depth_var") == [1, 0]

    def test_population_variance_ordering(self):
        # (10, 20): mean 15, population variance 25; (10, 12): variance 1
        pool = [
            make_record(0, pred_depth=10.0, aux_depths=(12.0,)),
            make_record(1, pred_depth=10.0, aux_depths=(20.0,)),
        ]
        assert ensemble_depth_variance(pool[1]) == pytest.approx(25.0)
        assert ensemble_depth_variance(pool[0]) == pytest.approx(1.0)
        assert ranked_ids(pool, "ens_depth_var") == [1, 0]

    def test_unassociated_scores_zero(self):
        assert ensemble_depth_variance(make_record(0, pred_depth=30.0, aux_depths=None)) == 0.0


class TestSelectDepthExtreme:
    POOL = [
        make_record(0, pred_depth=5.0, size=(30.0, 40.0)),
        make_record(1, pred_depth=60.0, size=(30.0, 40.0)),
        make_record(2, pred_depth=30.0, size=(30.0, 40.0)),
    ]

    def test_far_filters_beyond_50m(self):
        assert ranked_ids(self.POOL, "far_depth") == [2, 0]

    def test_close_picks_nearest(self):
        assert ranked_ids(self.POOL, "close_depth") == [0, 2, 1]

    def test_boundary_50m_excluded(self):
        pool = self.POOL + [make_record(3, pred_depth=50.0, size=(30.0, 40.0))]
        picks = ranked_ids(pool, "far_depth")
        assert 3 not in picks and 1 not in picks

    def test_short_instances_filtered_in_far_mode(self):
        pool = [make_record(0, pred_depth=40.0, size=(30.0, 10.0))]
        assert ranked_ids(pool, "far_depth") == []
        loose = DepthFilters(min_px_height=10.0)
        assert ranked_ids(pool, "far_depth", far_depth_filters=loose) == [0]

    def test_bad_mode(self):
        # the depth heuristics are the close_depth and far_depth kinds only
        with pytest.raises(ValueError, match="unknown strategy"):
            StrategyConfig(kind="sideways_depth")


class TestImageLevelSelect:
    def test_budget_walkthrough(self):
        pool = [
            make_record(0, image_id="a"),
            make_record(1, image_id="b"),
        ]
        scores = np.array([2.0, 1.0])
        images, charged = image_level_select(pool, scores, {"a": 3, "b": 5}, 4)
        assert images == ["a", "b"]
        assert charged == 8

    def test_exact_budget_stops_after_first(self):
        pool = [make_record(0, image_id="a"), make_record(1, image_id="b")]
        images, charged = image_level_select(pool, np.array([2.0, 1.0]), {"a": 3, "b": 5}, 3)
        assert images == ["a"]
        assert charged == 3

    def test_empty_pool(self):
        assert image_level_select([], np.array([]), {}, 4) == ([], 0)

    def test_image_score_is_max_instance(self):
        pool = [
            make_record(0, image_id="a"),
            make_record(1, image_id="a"),
            make_record(2, image_id="b"),
        ]
        scores = np.array([0.1, 5.0, 1.0])
        images, _ = image_level_select(pool, scores, {"a": 1, "b": 1}, 2)
        assert images == ["a", "b"]


class TestStrategyConfig:
    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown strategy"):
            StrategyConfig(kind="banana")

    def test_coreset_needs_views(self):
        with pytest.raises(ValueError, match="view"):
            StrategyConfig(kind="coreset")

    def test_setup_validation_rejects_missing_fields(self):
        pool = [make_record(0, confidence=None)]
        with pytest.raises(ValueError):
            validate_strategy_setup(StrategyConfig(kind="confidence"), pool)
        pool = [make_record(0, pred_depth=None)]
        with pytest.raises(ValueError):
            validate_strategy_setup(StrategyConfig(kind="close_depth"), pool)

    def test_diversity_strategies_tolerate_missing_confidence(self):
        views = (ViewSpec("v", 1, 1.0),)
        pool = [make_record(0, features={"v": [1.0]}, confidence=None, pred_depth=None)]
        validate_strategy_setup(StrategyConfig(kind="coreset", views=views), pool)

    def test_negative_seed_refused(self):
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            StrategyConfig(kind="random", seed=-1)


class TestRankPool:
    def test_outputs_are_distinct_pool_members(self, rng):
        views = (ViewSpec("v", 1, 1.0),)
        for kind in ("random", "confidence", "ens_depth_var", "close_depth", "far_depth", "coreset"):
            pool = [
                make_record(
                    i,
                    features={"v": [float(rng.normal())]},
                    pred_depth=float(rng.uniform(5, 45)),
                    confidence=float(rng.uniform(0.1, 0.9)),
                    aux_depths=(float(rng.uniform(5, 45)),),
                    size=(30.0, 40.0),
                )
                for i in range(12)
            ]
            labeled = [make_record(100, features={"v": [0.0]})]
            cfg = StrategyConfig(kind=kind, views=views if kind == "coreset" else ())
            coverage = coverage_of(pool, labeled, FusedCosineMetric(views)) if kind == "coreset" else None
            ranked = [r.instance_id for r, _ in rank_pool(pool, cfg, coverage=coverage)]
            assert len(set(ranked)) == len(ranked)
            assert set(ranked) <= {r.instance_id for r in pool}

    def test_greedy_ranking_reads_the_coverage_and_leaves_it_unchanged(self):
        pool, labeled = scalar_records([1.0, 4.0, 9.0]), scalar_records([0.0], ids=[10])
        coverage = coverage_of(pool, labeled, euclid1d)
        mins = coverage.mins.copy()
        cfg = StrategyConfig(kind="coreset", views=(ViewSpec("v", 1, 1.0),))
        ranked = [(r.instance_id, score) for r, score in rank_pool(pool, cfg, coverage=coverage)]
        assert ranked == [(2, 9.0), (1, 4.0), (0, 1.0)]
        assert np.array_equal(coverage.mins, mins) and coverage.folded.tolist() == [False, False, False, True]
        with pytest.raises(ValueError, match="needs a coverage"):
            next(rank_pool(pool, cfg))
        with pytest.raises(ValueError, match="labeled set must be nonempty"):
            next(rank_pool(pool, cfg, coverage=Coverage(euclid1d, euclid1d.embed(pool))))

    def test_pool_must_be_the_unfolded_rows(self):
        pool, labeled = scalar_records([1.0, 4.0, 9.0]), scalar_records([0.0], ids=[10])
        coverage = coverage_of(pool, labeled, euclid1d)
        cfg = StrategyConfig(kind="coreset", views=(ViewSpec("v", 1, 1.0),))
        for wrong in (pool[:2], [*pool, *labeled]):
            with pytest.raises(ValueError, match=f"pool has {len(wrong)} records, coverage has 3 unfolded rows"):
                next(rank_pool(wrong, cfg, coverage=coverage))


@st.composite
def depth_pools(draw):
    """Small pools with repeated depths, confidences and heights, so that
    score ties and the far-depth boundaries come up often."""
    ids = draw(st.lists(st.integers(0, 60), max_size=12, unique=True))
    return [
        make_record(
            iid,
            pred_depth=draw(st.sampled_from([5.0, 20.0, 49.5, 50.0, 60.0])),
            confidence=draw(st.sampled_from([0.0, 0.25, 0.5, 1.0])),
            aux_depths=draw(st.none() | st.lists(st.sampled_from([5.0, 20.0, 60.0]), max_size=2).map(tuple)),
            size=(30.0, draw(st.sampled_from([10.0, 25.0, 40.0]))),
        )
        for iid in ids
    ]


class TestRankPoolProperties:
    @settings(deadline=None)
    @given(pool=depth_pools(), seed=st.integers(0, 2**32 - 1))
    def test_sorted_distinct_lowest_id_ties(self, pool, seed):
        for kind in (k for k in STRATEGY_KINDS if k not in CORESET_KINDS):
            cfg = StrategyConfig(kind=kind)
            ranked = [(r.instance_id, score) for r, score in rank_pool(pool, cfg, seed=seed)]
            ids = [iid for iid, _ in ranked]
            f = cfg.far_depth_filters
            eligible = {
                r.instance_id for r in pool
                if kind != "far_depth" or (r.box2d.h >= f.min_px_height and r.pred_depth < f.max_depth)
            }
            assert len(set(ids)) == len(ids), kind
            assert set(ids) == eligible, kind
            for (id_a, score_a), (id_b, score_b) in zip(ranked, ranked[1:]):
                assert score_a > score_b or (score_a == score_b and id_a < id_b), kind

    @settings(deadline=None)
    @given(
        values=st.lists(st.integers(-4, 4), min_size=1, max_size=10),
        labeled_values=st.lists(st.integers(-4, 4), min_size=1, max_size=3),
        data=st.data(),
    )
    def test_coreset_prefix_matches_oracle(self, values, labeled_values, data):
        ids = data.draw(st.lists(st.integers(0, 99), min_size=len(values), max_size=len(values), unique=True))
        pool = scalar_records(values, ids=ids)
        labeled = scalar_records(labeled_values, ids=[1000 + i for i in range(len(labeled_values))])
        k = data.draw(st.integers(1, len(pool)))
        cfg = StrategyConfig(kind="coreset", views=(ViewSpec("v", 1, 1.0),))
        ranking = rank_pool(pool, cfg, coverage=coverage_of(pool, labeled, euclid1d))
        assert [r.instance_id for r, _ in islice(ranking, k)] == greedy_oracle(pool, labeled, euclid1d, k)

    @settings(deadline=None)
    @given(
        values=st.lists(st.integers(-4, 4), min_size=2, max_size=12),
        data=st.data(),
    )
    def test_dataset_row_coverage_prefix_matches_oracle(self, values, data):
        """A campaign's case: one coverage over every row, the labeled mask
        drawn, so pool rows sit between labeled ones."""
        records = scalar_records(values, ids=data.draw(st.permutations(range(len(values)))))
        mask = np.array(data.draw(st.lists(st.booleans(), min_size=len(values), max_size=len(values))))
        assume(mask.any() and not mask.all())
        pool = [r for r, m in zip(records, mask) if not m]
        labeled = [r for r, m in zip(records, mask) if m]
        coverage = Coverage(euclid1d, euclid1d.embed(records))
        coverage.fold(np.flatnonzero(mask))
        k = data.draw(st.integers(1, len(pool)))
        cfg = StrategyConfig(kind="coreset", views=(ViewSpec("v", 1, 1.0),))
        ranking = rank_pool(pool, cfg, coverage=coverage)
        assert [r.instance_id for r, _ in islice(ranking, k)] == greedy_oracle(pool, labeled, euclid1d, k)


@st.composite
def fused_fixtures(draw):
    """1-3 views (weights 0 included) and pool and labeled records with
    Gaussian vectors from a drawn seed."""
    views = tuple(
        ViewSpec(f"v{i}", draw(st.integers(1, 3)), draw(st.sampled_from([0.0, 0.25, 0.5, 1.0])))
        for i in range(draw(st.integers(1, 3)))
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_pool, n_labeled = draw(st.integers(1, 10)), draw(st.integers(1, 3))
    ids = draw(st.permutations(range(n_pool + n_labeled)))
    records = [make_record(i, features={v.name: rng.normal(size=v.dim) for v in views}) for i in ids]
    return views, records[:n_pool], records[n_pool:]


class TestFusedGreedyOrder:
    @settings(deadline=None)
    @given(fixture=fused_fixtures())
    def test_full_order_matches_scalar_oracle(self, fixture):
        views, pool, labeled = fixture

        def dist(a, b):
            return fused_distance(a, b, views)

        expected = greedy_oracle(pool, labeled, dist, len(pool))
        # Tie-free: at every step, no two candidates' min distances to the
        # reference set lie within 1e-9 of each other.
        by_id = {r.instance_id: r for r in pool}
        for step in range(len(pool)):
            refs = list(labeled) + [by_id[i] for i in expected[:step]]
            mins = sorted(min(dist(by_id[i], z) for z in refs) for i in expected[step:])
            assume(all(b - a > 1e-9 for a, b in zip(mins, mins[1:])))
        cfg = StrategyConfig(kind="coreset", views=views)
        ranking = rank_pool(pool, cfg, coverage=coverage_of(pool, labeled, FusedCosineMetric(views)))
        assert [r.instance_id for r, _ in ranking] == expected


class TestEmbeddedGreedy:
    @settings(deadline=None)
    @given(n_pool=st.integers(1, 12), n_labeled=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
    def test_full_traversal_embeds_once(self, n_pool, n_labeled, seed):
        rng = np.random.default_rng(seed)
        views = (ViewSpec("a", 3, 0.5), ViewSpec("b", 2, 0.5))
        records = [
            make_record(i, features={v.name: rng.normal(size=v.dim) for v in views})
            for i in range(n_pool + n_labeled)
        ]
        calls = []

        class CountingMetric(FusedCosineMetric):
            def embed(self, recs):
                calls.append(len(recs))
                return super().embed(recs)

        picks = list(iter_coreset_picks(records[:n_pool], records[n_pool:], CountingMetric(views)))
        assert sorted(r.instance_id for r, _ in picks) == list(range(n_pool))
        assert calls == [n_pool + n_labeled]


# Sizes on both sides of the walk's first two cuts.
FIRST, SECOND = selection._FIRST_CUT, selection._FIRST_CUT * (1 + selection._GROWTH)
WALK_SIZES = st.sampled_from([FIRST - 1, FIRST, FIRST + 1, SECOND - 1, SECOND, SECOND + 1]) | st.integers(0, 40)


class TestBestFirstWalk:
    @settings(deadline=None, max_examples=60)
    @given(
        n=WALK_SIZES,
        palette=st.sampled_from([2, 7, 1000, None]),
        seed=st.integers(0, 2**32 - 1),
        subset=st.booleans(),
    )
    def test_every_prefix_is_the_full_sort(self, n, palette, seed, subset):
        # Few distinct scores give ties across every cut; the ids are a
        # permutation, so id order is not row order.
        rng = np.random.default_rng(seed)
        scores = rng.random(n) if palette is None else rng.integers(0, palette, n) / 4.0
        ids = rng.permutation(10 * n + 1)[:n].astype(np.int64)
        ranked = np.flatnonzero(rng.random(n) < 0.7) if subset else None
        rows = np.arange(n) if ranked is None else ranked
        chunks = list(selection._best_first(scores, ids, ranked))
        walk = np.concatenate(chunks) if chunks else np.zeros(0, dtype=np.intp)
        assert np.array_equal(walk, rows[np.lexsort((ids[rows], -scores[rows]))])
        if palette is None and len(rows) > FIRST:
            # Distinct scores: the first cut sorts no more than it must.
            assert len(chunks[0]) == FIRST

    def test_a_shallow_read_sorts_one_cut(self, monkeypatch):
        sorted_sizes = []
        real = np.lexsort
        monkeypatch.setattr(selection.np, "lexsort", lambda keys: sorted_sizes.append(len(keys[0])) or real(keys))
        pool = [make_record(i) for i in range(20 * FIRST)]
        assert len(list(islice(rank_pool(pool, StrategyConfig("random"), seed=3), FIRST // 2))) == FIRST // 2
        assert sorted_sizes == [FIRST]


DEPTH = st.floats(1e-3, 1e4) | st.integers(1, 90) | st.sampled_from([30.0, 30.000000000000004, 1e150])


class TestDepthVariances:
    @settings(deadline=None)
    @given(
        depths=st.lists(
            st.tuples(st.none() | DEPTH, st.none() | st.lists(DEPTH | st.floats(-1e4, 1e4), max_size=9).map(tuple)),
            max_size=30,
        )
    )
    def test_bit_equal_to_the_scalar_reference(self, depths):
        records = [make_record(i, pred_depth=d, aux_depths=aux) for i, (d, aux) in enumerate(depths)]
        expected = np.array([ensemble_depth_variance(r) for r in records], dtype=np.float64)
        got = selection._depth_variances(records)
        assert got.dtype == np.float64
        assert got.view(np.int64).tolist() == expected.view(np.int64).tolist()
