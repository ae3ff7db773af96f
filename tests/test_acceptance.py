"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; any assertion failure marks that criterion failed.
"""

import json
import time
from types import SimpleNamespace

import numpy as np
import pytest

from alsim.cli import main
from alsim.dataio import write_dataset
from alsim.features import FusedCosineMetric, cosine_distance, fused_distance, pca_fit, pca_transform
from alsim.geometry import labeling_radius
from alsim.metrics import Curve, accounting_x, interpolate_at_budget, naurc
from alsim.records import CameraModel, ViewSpec
from alsim.selection import StrategyConfig, coreset_select, image_level_select
from alsim.simulation import (
    CampaignConfig,
    RoundState,
    SyntheticSpec,
    bagging_fraction,
    generate_synthetic,
    run_campaign,
    run_round,
    sample_loss_weights,
)

from conftest import build_dataset, make_gt, make_record


def _ok(n, text):
    print(f"PASS criterion {n}: {text}")


def _random_fused_fixture(rng):
    n_views = int(rng.integers(2, 5))
    views = tuple(
        ViewSpec(f"v{i}", int(rng.integers(3, 9)), float(rng.uniform(0.05, 1.0)))
        for i in range(n_views)
    )
    n_pool = int(rng.integers(20, 201))
    n_labeled = int(rng.integers(1, 6))
    k = int(rng.integers(1, min(16, n_pool + 1)))

    def record(i):
        return make_record(i, features={v.name: rng.normal(size=v.dim) for v in views})

    pool = [record(int(i)) for i in rng.permutation(10_000)[:n_pool]]
    # duplicate some feature rows to force exact distance ties
    for i in range(n_pool):
        if rng.random() < 0.15 and i > 0:
            pool[i] = make_record(pool[i].instance_id, features=dict(pool[i - 1].features))
    labeled = [record(20_000 + j) for j in range(n_labeled)]
    return views, pool, labeled, k


def _oracle_greedy(pool, labeled, metric, k):
    """Brute-force greedy: recompute every min distance from scratch per step."""
    ids = np.array([r.instance_id for r in pool])
    base = metric.pairwise(pool, labeled)
    pick_columns = []
    active = np.ones(len(pool), dtype=bool)
    chosen = []
    for _ in range(k):
        stacked = np.hstack([base] + pick_columns)
        mins = stacked.min(axis=1)
        masked = np.where(active, mins, -np.inf)
        best = masked.max()
        candidates = np.flatnonzero(active & (masked == best))
        pick = int(candidates[np.argmin(ids[candidates])])
        chosen.append(int(ids[pick]))
        active[pick] = False
        pick_columns.append(metric.pairwise(pool, [pool[pick]]))
    return chosen


def test_criterion_1_greedy_selection_matches_oracle():
    rng = np.random.default_rng(20250808)
    started = time.perf_counter()
    for _ in range(100):
        views, pool, labeled, k = _random_fused_fixture(rng)
        metric = FusedCosineMetric(views)
        got = coreset_select(pool, labeled, metric, k)
        expected = _oracle_greedy(pool, labeled, metric, k)
        assert got == expected
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0, f"oracle-equivalence sweep took {elapsed:.2f}s"
    _ok(1, f"greedy selection equals brute-force oracle on 100 fixtures ({elapsed:.2f}s)")


def test_criterion_2_naurc_exactness():
    constant = Curve.from_pairs([(0.0, 7.25), (20.0, 7.25)])
    assert abs(naurc(constant, 12.0) - 7.25) <= 1e-12

    ramp = Curve.from_pairs([(0.0, 0.0), (10.0, 10.0)])
    assert abs(naurc(ramp, 5.0) - 2.5) <= 1e-12

    held = Curve.from_pairs([(0.0, 0.0), (4.0, 4.0), (8.0, 4.0)])
    assert abs(naurc(held, 10.0) - 3.2) <= 1e-12

    # interpolation rule: overshooting curves come back to the budget line
    assert interpolate_at_budget(ramp, 5.0) == pytest.approx(5.0, abs=1e-12)
    # hold rule: undershooting curves keep the last observed value
    assert interpolate_at_budget(held, 10.0) == 4.0
    # knots evaluate exactly
    assert interpolate_at_budget(held, 4.0) == 4.0
    _ok(2, "hand-computed NAURC values reproduce within 1e-12 with interpolate/hold rules")


def test_criterion_3_labeling_radius_reproduction():
    cam = CameraModel(707.05, 707.05)
    r = labeling_radius(cam, 30.0, 2.0)
    assert r.r_x == pytest.approx(47.1, abs=0.05)
    assert abs(r.r_x - 47.0) <= 1.0
    _ok(3, f"labeling radius at 30 m is {r.r_x:.2f} px (within 1 px of 47)")


def test_criterion_4_schedule_formulas():
    for alpha in (0.5, 3.0, 30.0):
        assert bagging_fraction(0.0, alpha) == 0.9
        grid = [bagging_fraction(t, alpha) for t in np.linspace(0.0, 1.0, 1000)]
        assert all(b < a for a, b in zip(grid, grid[1:]))

    names = [f"w{i}" for i in range(100_000)]
    draws = np.array(list(sample_loss_weights(names, 0.2, seed=42).values()))
    assert draws.min() >= 0.8
    assert draws.max() <= 1.2
    _ok(4, "bagging starts at 0.9, strictly decreases; 1e5 loss weights stay in [0.8, 1.2]")


def test_criterion_5_cosine_fusion_properties():
    rng = np.random.default_rng(7)
    for _ in range(10_000):
        dim = int(rng.integers(2, 17))
        u = rng.normal(size=dim)
        v = rng.normal(size=dim)
        a, b = rng.uniform(0.01, 100.0, 2)
        d = cosine_distance(u, v)
        assert abs(cosine_distance(a * u, b * v) - d) <= 1e-9
        assert abs(cosine_distance(v, u) - d) <= 1e-9
        assert cosine_distance(u, u) <= 1e-9
        assert 0.0 <= d <= 2.0

    views = (
        ViewSpec("f1", 4, 1 / 6),
        ViewSpec("f2", 4, 1 / 6),
        ViewSpec("f3", 4, 1 / 6),
        ViewSpec("vis", 4, 1 / 2),
    )
    assert sum(v.lam for v in views) == pytest.approx(1.0, abs=1e-12)
    x = make_record(0, features={v.name: [1.0, 0.0, 0.0, 0.0] for v in views})
    y = make_record(1, features={v.name: [0.0, 1.0, 0.0, 0.0] for v in views})
    assert fused_distance(x, y, views) == pytest.approx(1.0, abs=1e-12)

    # monotonicity: degrading any single view never lowers the fusion
    for _ in range(300):
        feats_a = {v.name: rng.normal(size=v.dim) for v in views}
        feats_b = {v.name: rng.normal(size=v.dim) for v in views}
        ra = make_record(0, features=feats_a)
        rb = make_record(1, features=feats_b)
        base = fused_distance(ra, rb, views)
        for v in views:
            worse = dict(feats_b)
            worse[v.name] = -np.asarray(feats_a[v.name])
            rw = make_record(2, features=worse)
            assert fused_distance(ra, rw, views) >= base - 1e-9
    _ok(5, "scale invariance, symmetry, zero self-distance, monotonicity; reference weights fuse to 1")


def test_criterion_6_budget_accounting():
    start = RoundState(0, frozenset(), 0, frozenset(), 0, ())

    # false positive: the only gt is far outside the window; the request
    # is charged anyway
    fp_instances = [make_record(0, center=(50.0, 50.0), pred_depth=10.0, size=(30, 40))]
    fp_data = build_dataset(fp_instances, [make_gt(9, center=(900.0, 50.0), pixel_height=60.0)])
    cfg = CampaignConfig(
        strategy=StrategyConfig(kind="close_depth", seed=0),
        round_budgets=(1,),
        initial_fraction=0.0,
    )
    state, log = run_round(start, fp_data, cfg, fp_instances)
    assert log.events[0].outcome == "null"
    assert log.events[0].charged
    assert state.requested_total == 1
    assert not state.labeled_gt

    # duplicate: same class within 95% of the radius, skipped without charge
    dup_instances = [
        make_record(0, center=(50.0, 50.0), pred_depth=10.0, class_id=1, size=(30, 40)),
        make_record(1, center=(51.0, 50.0), pred_depth=10.5, class_id=1, size=(30, 40)),
    ]
    dup_data = build_dataset(dup_instances, [make_gt(9, center=(50.0, 50.0), pixel_height=60.0)])
    cfg2 = CampaignConfig(
        strategy=StrategyConfig(kind="close_depth", seed=0),
        round_budgets=(2,),
        initial_fraction=0.0,
    )
    state2, log2 = run_round(start, dup_data, cfg2, dup_instances)
    assert [ev.outcome for ev in log2.events] == ["matched", "suppressed"]
    assert state2.requested_total == 1
    assert accounting_x([log, log2], "instance") == [1, 2]

    # image accounting sums labelable ground-truth counts
    pool = [make_record(0, image_id="a"), make_record(1, image_id="b")]
    images, charged = image_level_select(pool, np.array([2.0, 1.0]), {"a": 3, "b": 5}, 4)
    assert images == ["a", "b"]
    assert charged == 8
    image_logs = [SimpleNamespace(events=(), selected_images=[("a", 3), ("b", 5)])]
    assert accounting_x(image_logs, "image") == [8]
    _ok(6, "false positives charge, suppressions do not, image mode sums labelable counts")


def test_criterion_7_depth_bias_and_covering_radius():
    started = time.perf_counter()
    spec = SyntheticSpec(clusters=20, per_cluster=25)
    budgets = (40, 80)
    ens_deeper_than_coreset = []
    coreset_tighter_than_random = []
    for seed in (0, 1, 2):
        data = generate_synthetic(spec, seed=seed)
        by_id = {r.instance_id: r for r in data.instances}
        results = {}
        for kind in ("coreset", "random", "ens_depth_var"):
            views = data.views if kind == "coreset" else ()
            cfg = CampaignConfig(
                strategy=StrategyConfig(kind=kind, views=views, seed=seed),
                round_budgets=budgets,
                initial_fraction=0.1,
            )
            curve, state = run_campaign(cfg, data)
            assert state.requested_total == budgets[-1], f"{kind} did not reach the budget"
            depths = [
                by_id[ev.instance_id].pred_depth
                for log in state.history
                for ev in log.events
                if ev.charged
            ]
            results[kind] = (float(np.mean(depths)), curve.points[-1].y)
        ens_deeper_than_coreset.append(results["ens_depth_var"][0] > results["coreset"][0])
        coreset_tighter_than_random.append(results["coreset"][1] < results["random"][1])
    elapsed = time.perf_counter() - started
    assert all(ens_deeper_than_coreset), "depth bias must hold in every seed"
    assert sum(coreset_tighter_than_random) >= 2, "covering radius must win in >= 2 of 3 seeds"
    assert elapsed < 30.0, f"synthetic campaigns took {elapsed:.2f}s"
    _ok(
        7,
        "uncertainty selects deeper instances in 3/3 seeds; greedy diversity covers tighter "
        f"in {sum(coreset_tighter_than_random)}/3 ({elapsed:.1f}s)",
    )


def test_criterion_8_simulate_determinism(tmp_path):
    data = generate_synthetic(SyntheticSpec(clusters=5, per_cluster=8), seed=13)
    manifest = tmp_path / "data" / "manifest.jsonl"
    write_dataset(data, manifest)
    config = {
        "dataset": str(manifest),
        "strategy": {"kind": "coreset"},
        "campaign": {"round_budgets": [6, 12], "initial_fraction": 0.2},
        "seeds": [0, 1],
    }
    config_path = tmp_path / "run.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["simulate", "--config", str(config_path), "--out", str(out1)]) == 0
    assert main(["simulate", "--config", str(config_path), "--out", str(out2)]) == 0
    compared = 0
    for rel in ("seed_0/curve.csv", "seed_1/curve.csv", "curve_mean.csv"):
        assert (out1 / rel).read_bytes() == (out2 / rel).read_bytes()
        compared += 1
    assert compared == 3
    _ok(8, "identical config and seed reproduce byte-identical curve CSVs")


def test_criterion_9_pca():
    rng = np.random.default_rng(99)
    direction = np.array([2.0, -1.0, 0.5])
    t = rng.normal(size=60)
    X = np.array([0.3, 0.3, 0.3]) + np.outer(t, direction)
    model = pca_fit(X, 0.99)
    assert model.k == 1

    Y = rng.normal(size=(50, 10))
    full = pca_fit(Y, 1.0)
    assert full.k == 10
    Z = pca_transform(full, Y)
    recon = Z @ full.components + full.mean
    rel = np.linalg.norm(recon - Y) / np.linalg.norm(Y)
    assert rel <= 1e-8
    _ok(9, f"rank-1 data keeps one component; full-rank reconstruction error {rel:.2e}")
