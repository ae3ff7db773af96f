import math
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alsim import features
from alsim.features import (
    Coverage,
    FusedCosineMetric,
    compress_views,
    cosine_distance,
    fold_min_distances,
    fused_distance,
    pca_fit,
    pca_transform,
)
from alsim.records import ViewSpec
from alsim.selection import StrategyConfig, rank_pool
from alsim.simulation import (
    CampaignConfig,
    SyntheticSpec,
    covering_radius,
    covering_radius_hook,
    generate_synthetic,
    run_campaign,
)

from conftest import euclid1d, make_record, scalar_records


class TestCosineDistance:
    def test_identical_vectors(self):
        u = np.array([0.3, -1.2, 4.0])
        assert cosine_distance(u, u) == pytest.approx(0.0, abs=1e-12)

    def test_orthogonal_vectors(self):
        assert cosine_distance([1.0, 0.0], [0.0, 2.0]) == 1.0

    def test_antipodal_vectors(self):
        u = np.array([0.5, -2.0, 1.0])
        assert cosine_distance(u, -u) == pytest.approx(2.0, abs=1e-12)

    def test_zero_vector_convention(self):
        assert cosine_distance([0.0, 0.0], [1.0, 2.0]) == 1.0
        assert cosine_distance([1.0, 2.0], [0.0, 0.0]) == 1.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            cosine_distance([1.0, 2.0], [1.0, 2.0, 3.0])

    def test_scale_invariance(self, rng):
        for _ in range(500):
            u = rng.normal(size=6)
            v = rng.normal(size=6)
            a, b = rng.uniform(0.01, 50.0, 2)
            assert cosine_distance(a * u, b * v) == pytest.approx(
                cosine_distance(u, v), abs=1e-9
            )

    def test_range(self, rng):
        for _ in range(500):
            d = cosine_distance(rng.normal(size=4), rng.normal(size=4))
            assert 0.0 <= d <= 2.0

    def test_matrix_agrees_with_scalar(self, rng):
        A = rng.normal(size=(7, 5))
        B = rng.normal(size=(4, 5))
        B[2] = 0.0  # zero row follows the distance-1 convention
        metric = FusedCosineMetric((ViewSpec("x", 5, 1.0),))
        D = metric.pairwise(
            [make_record(i, features={"x": a}) for i, a in enumerate(A)],
            [make_record(10 + j, features={"x": b}) for j, b in enumerate(B)],
        )
        for i in range(7):
            for j in range(4):
                assert D[i, j] == pytest.approx(cosine_distance(A[i], B[j]), abs=1e-12)


def _record_pair(rng, views, scale=1.0):
    a = make_record(0, features={v.name: rng.normal(size=v.dim) for v in views})
    b = make_record(1, features={v.name: scale * rng.normal(size=v.dim) for v in views})
    return a, b


class TestFusedDistance:
    VIEWS = (ViewSpec("a", 3, 0.25), ViewSpec("b", 4, 0.75))

    def test_identical_feature_maps(self):
        r = make_record(0, features={"a": [1.0, 2.0, 3.0], "b": [1.0, 0.0, 0.0, 2.0]})
        assert fused_distance(r, r, self.VIEWS) == pytest.approx(0.0, abs=1e-12)

    def test_reference_weight_configuration(self):
        # three detector views plus a visual view at weights (1/6, 1/6, 1/6, 1/2);
        # orthogonal vectors give per-view distance 1, so the fusion sums the weights
        views = (
            ViewSpec("f1", 2, 1 / 6),
            ViewSpec("f2", 2, 1 / 6),
            ViewSpec("f3", 2, 1 / 6),
            ViewSpec("vis", 2, 1 / 2),
        )
        a = make_record(0, features={v.name: [1.0, 0.0] for v in views})
        b = make_record(1, features={v.name: [0.0, 1.0] for v in views})
        assert fused_distance(a, b, views) == pytest.approx(1.0, abs=1e-12)

    def test_weighted_sum_hand_value(self):
        # d_cos = 0.2 and 0.4 at weights 0.25/0.75 -> 0.35
        a = make_record(0, features={"a": [1.0, 0.0, 0.0], "b": [1.0, 0.0, 0.0, 0.0]})
        b = make_record(
            1,
            features={"a": [0.8, 0.6, 0.0], "b": [0.6, 0.8, 0.0, 0.0]},
        )
        per_view = [cosine_distance([1, 0, 0], [0.8, 0.6, 0]), cosine_distance([1, 0, 0, 0], [0.6, 0.8, 0, 0])]
        assert per_view[0] == pytest.approx(0.2, abs=1e-12)
        assert per_view[1] == pytest.approx(0.4, abs=1e-12)
        got = fused_distance(a, b, self.VIEWS)
        assert got == pytest.approx(0.35, abs=1e-9)
        assert got == pytest.approx(math.fsum(w * d for w, d in zip((0.25, 0.75), per_view)), abs=1e-12)

    def test_missing_view_rejected(self):
        a = make_record(0, features={"a": [1.0, 0.0, 0.0]})
        b = make_record(1, features={"a": [1.0, 0.0, 0.0], "b": [1.0, 0.0, 0.0, 0.0]})
        with pytest.raises(ValueError, match="missing feature view"):
            fused_distance(a, b, self.VIEWS)

    def test_symmetry_nonnegativity(self, rng):
        for _ in range(300):
            a, b = _record_pair(rng, self.VIEWS)
            d_ab = fused_distance(a, b, self.VIEWS)
            d_ba = fused_distance(b, a, self.VIEWS)
            assert d_ab == pytest.approx(d_ba, abs=1e-12)
            assert d_ab >= 0.0

    def test_monotone_in_per_view_distance(self, rng):
        # forcing one view to its antipodal worst case never lowers the fusion
        for _ in range(200):
            a, b = _record_pair(rng, self.VIEWS)
            base = fused_distance(a, b, self.VIEWS)
            for v in self.VIEWS:
                feats = dict(b.features)
                feats[v.name] = -np.asarray(a.features[v.name])
                worse = make_record(2, features=feats)
                assert fused_distance(a, worse, self.VIEWS) >= base - 1e-9

    def test_metric_pairwise_matches_scalar(self, rng):
        views = (ViewSpec("a", 3, 0.4), ViewSpec("b", 5, 0.6))
        xs = [make_record(i, features={v.name: rng.normal(size=v.dim) for v in views}) for i in range(6)]
        zs = [make_record(10 + i, features={v.name: rng.normal(size=v.dim) for v in views}) for i in range(3)]
        metric = FusedCosineMetric(views)
        D = metric.pairwise(xs, zs)
        for i, x in enumerate(xs):
            for j, z in enumerate(zs):
                assert D[i, j] == pytest.approx(fused_distance(x, z, views), abs=1e-12)

    def test_weight_sum_warning(self, caplog):
        import logging

        with caplog.at_level(logging.WARNING):
            FusedCosineMetric((ViewSpec("a", 2, 0.2), ViewSpec("b", 2, 0.2)))
        assert any("sum to" in m for m in caplog.messages)


@st.composite
def views_and_records(draw):
    """1-4 views with weights in [0, 1] (0 included), and two record lists
    (possibly empty) whose vectors are small exact floats, some rows zero."""
    views = tuple(
        ViewSpec(f"v{i}", draw(st.integers(1, 4)), draw(st.one_of(st.just(0.0), st.floats(0.0, 1.0))))
        for i in range(draw(st.integers(1, 4)))
    )

    def vector(dim):
        if draw(st.booleans()):
            return np.zeros(dim)
        return np.array(draw(st.lists(st.integers(-8, 8), min_size=dim, max_size=dim)), dtype=np.float64) / 4

    def records(first_id):
        n = draw(st.integers(0, 4))
        return [make_record(first_id + i, features={v.name: vector(v.dim) for v in views}) for i in range(n)]

    return views, records(0), records(100)


class TestEmbedding:
    @settings(deadline=None)
    @given(fixture=views_and_records())
    def test_between_embeddings_equals_scalar_reference(self, fixture):
        views, xs, zs = fixture
        metric = FusedCosineMetric(views)
        D = metric.between(metric.embed(xs), metric.embed(zs))
        assert D.shape == (len(xs), len(zs))
        for i, x in enumerate(xs):
            for j, z in enumerate(zs):
                assert abs(D[i, j] - fused_distance(x, z, views)) <= 1e-12

    @settings(deadline=None)
    @given(fixture=views_and_records())
    def test_empty_inputs_keep_their_shapes(self, fixture):
        views, xs, _ = fixture
        metric = FusedCosineMetric(views)
        empty, E = metric.embed([]), metric.embed(xs)
        assert empty.shape == (0, sum(v.dim for v in views))
        assert metric.between(empty, E).shape == (0, len(xs))
        assert metric.between(E, empty).shape == (len(xs), 0)

    @given(lam=st.floats(max_value=0.0, exclude_max=True, allow_nan=False))
    def test_negative_weight_refused(self, lam):
        with pytest.raises(ValueError, match="negative"):
            FusedCosineMetric((ViewSpec("a", 2, 0.5), ViewSpec("b", 2, lam)))

    @pytest.mark.parametrize("lam", [float("nan"), float("inf")])
    def test_non_finite_weight_refused(self, lam):
        with pytest.raises(ValueError, match=r"finite and >= 0; negative or non-finite for \['b'\]"):
            FusedCosineMetric((ViewSpec("a", 2, 0.5), ViewSpec("b", 2, lam)))


class TestPca:
    def test_line_in_3d_needs_one_component(self, rng):
        direction = np.array([1.0, 2.0, -0.5])
        t = rng.normal(size=40)
        X = np.array([3.0, -1.0, 0.5]) + np.outer(t, direction)
        model = pca_fit(X, 0.99)
        assert model.k == 1
        assert model.explained_variance_ratio[0] >= 0.99

    def test_isotropic_2d_needs_two_components(self, rng):
        X = rng.normal(size=(400, 2))
        model = pca_fit(X, 0.99)
        # eigen-decomposition oracle on the sample covariance
        Xc = X - X.mean(axis=0)
        eigvals = np.sort(np.linalg.eigvalsh(Xc.T @ Xc))[::-1]
        ratios = eigvals / eigvals.sum()
        k_oracle = int(np.searchsorted(np.cumsum(ratios), 0.99 - 1e-12) + 1)
        assert model.k == k_oracle == 2
        assert model.explained_variance_ratio == pytest.approx(ratios, abs=1e-9)

    def test_zero_variance_rejected(self):
        X = np.tile([0.1, 0.2, 0.3], (12, 1))
        with pytest.raises(ValueError, match="zero variance"):
            pca_fit(X, 0.99)

    def test_too_few_rows_rejected(self):
        with pytest.raises(ValueError, match="at least 2 rows"):
            pca_fit(np.zeros((1, 3)), 0.99)

    @pytest.mark.parametrize("var_keep", [0.0, -0.5, 1.5])
    def test_var_keep_validated(self, var_keep):
        with pytest.raises(ValueError, match="var_keep"):
            pca_fit(np.eye(3), var_keep)

    def test_components_orthonormal(self, rng):
        X = rng.normal(size=(30, 8))
        model = pca_fit(X, 1.0)
        gram = model.components @ model.components.T
        assert np.allclose(gram, np.eye(model.k), atol=1e-6)

    def test_sign_convention(self, rng):
        X = rng.normal(size=(30, 6))
        model = pca_fit(X, 1.0)
        for row in model.components:
            assert row[np.argmax(np.abs(row))] > 0

    def test_transform_of_mean_is_zero(self, rng):
        X = rng.normal(size=(20, 4))
        model = pca_fit(X, 0.95)
        z = pca_transform(model, model.mean[None, :])
        assert np.all(z == 0.0)

    def test_rank1_projection_recovers_signed_positions(self, rng):
        direction = np.array([0.6, -0.8, 0.0])
        t = np.array([-2.0, -0.5, 0.0, 1.0, 3.5])
        X = np.array([1.0, 1.0, 1.0]) + np.outer(t, direction)
        model = pca_fit(X, 0.99)
        z = pca_transform(model, X)[:, 0]
        # component is collinear with the generating direction up to the
        # sign convention; positions come back exactly up to that sign
        assert abs(float(model.components[0] @ direction)) == pytest.approx(1.0, abs=1e-9)
        sign = math.copysign(1.0, float(model.components[0] @ direction))
        assert z == pytest.approx(sign * (t - t.mean()), abs=1e-9)

    def test_transform_dimension_mismatch(self, rng):
        model = pca_fit(rng.normal(size=(10, 4)), 0.99)
        with pytest.raises(ValueError, match="dimension mismatch"):
            pca_transform(model, rng.normal(size=(3, 5)))

    def test_full_rank_reconstruction(self, rng):
        X = rng.normal(size=(50, 10))
        model = pca_fit(X, 1.0)
        assert model.k == 10
        Z = pca_transform(model, X)
        recon = Z @ model.components + model.mean
        rel = np.linalg.norm(recon - X) / np.linalg.norm(X)
        assert rel <= 1e-8

    def test_pairwise_distances_preserved_at_full_rank(self, rng):
        T = rng.normal(size=(25, 2))
        B = rng.normal(size=(2, 5))
        X = T @ B + rng.normal(size=5)
        model = pca_fit(X, 1.0)
        assert model.k == 2
        Z = pca_transform(model, X)
        for i in range(0, 25, 3):
            for j in range(1, 25, 4):
                orig = np.linalg.norm(X[i] - X[j])
                proj = np.linalg.norm(Z[i] - Z[j])
                assert proj == pytest.approx(orig, abs=1e-9)


class TestCompressViews:
    def test_distances_live_in_compressed_space(self, rng):
        views = (ViewSpec("a", 6, 1.0),)
        records = [make_record(i, features={"a": rng.normal(size=6)}) for i in range(20)]
        compressed = compress_views(records, views, 1.0)
        assert len(compressed) == len(views)
        assert compressed[0].shape[0] == len(records) and compressed[0].shape[1] <= 6
        # full-variance compression is an isometry, so cosine geometry may
        # change but identity distances stay zero
        metric = FusedCosineMetric(views)
        E = metric.embed_views(compressed)
        assert metric.between(E[3:4], E[3:4])[0, 0] == pytest.approx(0.0, abs=1e-12)

    def test_matches_per_record_projection(self, rng):
        views = (ViewSpec("a", 6, 0.5), ViewSpec("b", 4, 0.5))
        records = [make_record(i, features={v.name: rng.normal(size=v.dim) for v in views}) for i in range(30)]
        compressed = compress_views(records, views, 0.9)
        for v, Z in zip(views, compressed):
            model = pca_fit(np.stack([r.features[v.name] for r in records]), 0.9)
            assert Z.shape == (len(records), model.k)
            for r, z in zip(records, Z):
                expected = pca_transform(model, r.features[v.name][None, :])[0]
                assert np.allclose(z, expected, rtol=0.0, atol=1e-12)


class TestEmbedViews:
    @settings(deadline=None)
    @given(fixture=views_and_records())
    def test_embed_is_embed_views_of_the_feature_matrices(self, fixture):
        views, xs, _ = fixture
        metric = FusedCosineMetric(views)
        matrices = [np.array([r.features[v.name] for r in xs]).reshape(len(xs), v.dim) for v in views]
        assert np.array_equal(metric.embed(xs), metric.embed_views(matrices))
        # The same arithmetic as scaled unit blocks built apart and stacked.
        blocks = []
        for v, X in zip(views, matrices):
            norms = np.linalg.norm(X, axis=1, keepdims=True)
            blocks.append(np.sqrt(v.lam) * (X / np.where(norms == 0.0, 1.0, norms)))
        assert np.array_equal(metric.embed_views(matrices), np.hstack(blocks))


class _CountingEuclid:
    """``euclid1d`` recording the row count of every reference block."""

    def __init__(self):
        self.blocks = []

    def embed(self, records):
        return euclid1d.embed(records)

    def between(self, A, B):
        self.blocks.append(len(B))
        return euclid1d.between(A, B)


def brute_force_mins(records, labeled):
    return np.array([min(euclid1d(r, z) for z in labeled) for r in records])


class TestCoverage:
    def test_mins_are_infinite_before_any_fold(self):
        coverage = Coverage(euclid1d, scalar_records([0.0, 2.0]))
        assert coverage.mins.tolist() == [math.inf, math.inf]
        assert coverage.folded == set()

    def test_fold_skips_folded_records(self):
        records = scalar_records([0.0, 3.0, 7.0, 10.0])
        metric = _CountingEuclid()
        coverage = Coverage(metric, records)
        coverage.fold(records[:2])
        assert metric.blocks == [2]
        # Only the one record not folded yet reaches the metric.
        mins = coverage.fold([records[1], records[2], records[0]])
        assert metric.blocks == [2, 1]
        assert coverage.folded == set(records[:3])
        assert mins.tolist() == brute_force_mins(records, records[:3]).tolist()
        coverage.fold(records[:3])
        assert metric.blocks == [2, 1]

    def test_given_embedding_is_used(self):
        records = scalar_records([0.0, 1.0])
        coverage = Coverage(euclid1d, records, E=np.array([[0.0], [5.0]]))
        assert coverage.fold(records[:1]).tolist() == [0.0, 5.0]

    def test_record_in_labeled_and_pool_matches_covering_radius(self):
        records = scalar_records([0.0, 2.0, 5.0, 9.0])
        labeled = records[:2]
        pool = [records[2], records[1], records[3]]
        coverage = Coverage(euclid1d, [*labeled, *pool])
        mins = coverage.fold(labeled)
        assert mins.tolist() == brute_force_mins([*labeled, *pool], labeled).tolist()
        assert mins.max() == covering_radius(labeled, pool, euclid1d) == 7.0


@st.composite
def fold_inputs(draw):
    """A metric (``euclid1d`` or a fused cosine), instance rows ``E``,
    reference rows ``R`` and starting ``mins``. The shapes include an
    empty ``R``, a one-row ``R`` and more reference rows than instance
    rows; each ``mins`` entry is inf, a drawn value or below every
    distance."""
    if draw(st.booleans()):
        metric, views = euclid1d, (ViewSpec("v", 1, 1.0),)
    else:
        views = tuple(
            ViewSpec(f"v{i}", draw(st.integers(1, 3)), draw(st.sampled_from([0.0, 0.5, 1.0])))
            for i in range(draw(st.integers(1, 3)))
        )
        metric = FusedCosineMetric(views)

    def vector(dim):
        return np.array(draw(st.lists(st.integers(-8, 8), min_size=dim, max_size=dim)), dtype=np.float64) / 4

    def rows(n):
        return metric.embed([make_record(i, features={v.name: vector(v.dim) for v in views}) for i in range(n)])

    shapes = st.tuples(st.integers(0, 12), st.integers(0, 12))
    n, m = draw(st.one_of(st.sampled_from([(9, 0), (9, 1), (3, 11), (10, 3)]), shapes))
    starts = st.one_of(st.just(math.inf), st.just(-1.0), st.integers(-2, 12).map(lambda k: k / 4))
    mins = np.array(draw(st.lists(starts, min_size=n, max_size=n)), dtype=np.float64)
    return metric, rows(n), rows(m), mins


class TestFoldMinDistances:
    @pytest.mark.parametrize("cells", [1, 2, 3, 7, features.FOLD_CELLS])
    @settings(deadline=None)
    @given(fixture=fold_inputs())
    def test_tiled_fold_equals_brute_force(self, cells, fixture):
        metric, E, R, start = fixture
        brute = metric.between(E, R).min(axis=1) if len(R) else np.full(len(E), math.inf)
        mins = start.copy()
        with patch.object(features, "FOLD_CELLS", cells):
            assert fold_min_distances(metric, E, R, mins) is mins
        expected = np.minimum(start, brute)
        if metric is euclid1d:
            assert np.array_equal(mins, expected)
            below = start < brute
        else:
            assert np.allclose(mins, expected, rtol=0.0, atol=1e-12)
            below = start < brute - 1e-12
        assert np.array_equal(mins[below], start[below])


class TestFoldMemoryBound:
    """No ``between`` call sees more than ``FOLD_CELLS`` distances, and the
    greedy pick loop makes one call per pick."""

    @pytest.fixture
    def cells_seen(self, monkeypatch):
        seen = []
        between = FusedCosineMetric.between

        def counting(metric, A, B):
            seen.append(len(A) * len(B))
            return between(metric, A, B)

        monkeypatch.setattr(FusedCosineMetric, "between", counting)
        return seen

    @pytest.fixture
    def data(self):
        return generate_synthetic(SyntheticSpec(clusters=4, per_cluster=6), seed=1)

    @pytest.mark.parametrize("cells", [1, 3, 7, 64, features.FOLD_CELLS])
    def test_coverage_fold(self, cells_seen, data, cells):
        metric = FusedCosineMetric(data.views)
        coverage = Coverage(metric, data.instances)
        with patch.object(features, "FOLD_CELLS", cells):
            mins = coverage.fold(data.instances[:10]).copy()
        assert cells_seen and max(cells_seen) <= cells
        assert np.allclose(mins, metric.between(coverage.E, coverage.E[:10]).min(axis=1), rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("kind", ["random", "coreset"])
    @pytest.mark.parametrize("cells", [1, 7, 64])
    def test_hook_campaign(self, cells_seen, data, kind, cells):
        cfg = CampaignConfig(strategy=StrategyConfig(kind=kind, views=data.views, seed=0), round_budgets=(3, 6, 9))
        with patch.object(features, "FOLD_CELLS", cells):
            curve, _ = run_campaign(cfg, data, covering_radius_hook(FusedCosineMetric(data.views)))
        assert len(curve.points) == 4
        assert cells_seen and max(cells_seen) <= cells

    @pytest.mark.parametrize("cells", [1, 7, 64])
    def test_greedy_rank_pool(self, cells_seen, data, cells):
        labeled, pool = data.instances[:4], data.instances[4:]
        coverage = Coverage(FusedCosineMetric(data.views), [*pool, *labeled])
        cfg = StrategyConfig(kind="coreset", views=data.views, seed=0)
        with patch.object(features, "FOLD_CELLS", cells):
            coverage.fold(labeled)
            assert len(list(rank_pool(pool, cfg, coverage=coverage))) == len(pool)
        assert cells_seen and max(cells_seen) <= cells

    def test_pick_loop_makes_one_call_per_pick(self, cells_seen, data):
        labeled, pool = data.instances[:4], data.instances[4:]
        coverage = Coverage(FusedCosineMetric(data.views), [*pool, *labeled])
        coverage.fold(labeled)
        cells_seen.clear()
        # Each pick's row is folded into every pool row as the next pick
        # is asked for; the full traversal asks once past the last pick.
        picks = list(rank_pool(pool, StrategyConfig(kind="coreset", views=data.views, seed=0), coverage=coverage))
        assert cells_seen == [len(pool)] * len(picks)
