"""Same picks, same curves: small campaigns pinned to their request events
and covering-radius curves.

Each run is ``run_campaign`` on ``generate_synthetic(SyntheticSpec(12, 20),
seed=s)`` with round budgets (10, 25, 45, 70), the strategy seeded with s,
and no hook, so the curve is the campaign's own covering radius over all
of the dataset's views. The digest
hashes every request event as ``round,instance_id,outcome,charged``, one
line each, in campaign order; curve y values must match to 1e-9. A change
that alters any pick, tie rule, outcome or radius fails here.

The crowded runs keep every third ground-truth object of
``generate_synthetic(SyntheticSpec(4, 60), seed=s)`` and go 12 rounds of
8 requests. Most requests there find no object or repeat an earlier one,
so null requests come up in almost every round and suppressions climb to
66 in one round: they pin how requests charged in earlier rounds
suppress later ones. A third crowded run ranks by far_depth under filters
that leave records out.

The last pins are ``rank_pool`` itself: every id and ``repr(score)`` it
yields, for each of the eight kinds, on one fixed pool full of ties.
"""

import hashlib
from dataclasses import replace

import pytest

from alsim.features import Coverage, FusedCosineMetric
from alsim.records import ViewSpec
from alsim.selection import DepthFilters, StrategyConfig, rank_pool
from alsim.simulation import CampaignConfig, SyntheticSpec, generate_synthetic, run_campaign

from conftest import make_record

# name: (strategy kind, pca_var_keep)
RUNS = {
    "coreset": ("coreset", None),
    "coreset_pca": ("coreset", 0.95),
    "random": ("random", None),
    "ens_depth_var": ("ens_depth_var", None),
    "confidence": ("confidence", None),
    "close_depth": ("close_depth", None),
    "far_depth": ("far_depth", None),
}

# (name, seed): (events sha256, curve y values)
PINNED = {
    ("coreset", 0): (
        "714375c8382154622826831eb5837d701cb276dcd1cec361e780cb19156e52cb",
        (1.1796983488812058, 0.6144458751019273, 0.003327516741947867, 0.0032028800244181532, 0.0032028800244181532),
    ),
    ("coreset", 1): (
        "3ce26c01345188575a97686d81f841d686ae7d6fb1bcb8dbe584a6ea8f99ae0b",
        (1.1806551299900285, 0.6402428533879694, 0.0038360627521663027, 0.003698941656810728, 0.003539357630486628),
    ),
    ("coreset_pca", 0): (
        "b84f4d3aaf3305159a6b0c22fe92cc309b4efc4289db4b8dbf1bdb62ed885faf",
        (1.1796983488812058, 0.6143510933856536, 0.0037355062993200683, 0.0032028800244181532, 0.0032028800244181532),
    ),
    ("coreset_pca", 1): (
        "b0e1add409ecd8a597039ec897e1ae28760f1f0bcdc895cb11b69cb35466c49c",
        (1.1806551299900285, 0.6580542279519559, 0.004058378372998717, 0.003996229154068387, 0.0037423708165990055),
    ),
    ("random", 0): (
        "4cb2912559e361d0cd9b8500fede15443dd76e78a26180a592c67554635865f7",
        (1.1796983488812058, 0.8598802811441609, 0.004096350562075357, 0.003158807229800553, 0.003047143560469534),
    ),
    ("random", 1): (
        "9810fa52aae18011739f4f75c66910e5c16d47e6c66197fe23611045bf458647",
        (1.1806551299900285, 0.8609737400885957, 0.6402428533879694, 0.003976276684688473, 0.003976276684688473),
    ),
    ("ens_depth_var", 0): (
        "5c3a2ac7da9e81e497ed26d90624863d99330a154f5705ba21bc0a263b135a2f",
        (1.1796983488812058, 0.8479803907408643, 0.004294015471940527, 0.004038933150595003, 0.003338137392980056),
    ),
    ("ens_depth_var", 1): (
        "762fcbe3af349a62c04b7320bb5bbae329f9ae6e274c65e9266ad828409ca205",
        (1.1806551299900285, 0.9042215809264772, 0.004377257505618237, 0.004377257505618237, 0.004377257505618237),
    ),
    ("confidence", 0): (
        "fddf967473100f7dcbe39ffa37ef67bbd560122cf717f8f4653e3fc9cc791862",
        (1.1796983488812058, 0.8479803907408643, 0.005321429082834062, 0.0033279267429280335, 0.0032547227276784607),
    ),
    ("confidence", 1): (
        "18681f24d5c1d3e97d8fff699959835ca08017028bc49b05c0f1d769e4fb27c9",
        (1.1806551299900285, 0.9156575796705895, 0.909932369125743, 0.004662786967117638, 0.004377257505618237),
    ),
    ("close_depth", 0): (
        "feaacf03494b5663ca0ff16349d8645c196faa43b2cbeac7781023c1763417e2",
        (1.1796983488812058, 0.9136931799952019, 0.7019614643983236, 0.003497035345774724, 0.003033506564166011),
    ),
    ("close_depth", 1): (
        "baa6abd58b6f985fec41c1a249d6d594bc9bdbb960059896ee1f92e6f66df80f",
        (1.1806551299900285, 0.8400410601548691, 0.7996323412357921, 0.003766868897492004, 0.0037173124733869134),
    ),
    ("far_depth", 0): (
        "d484a3c52714ce3621557da0e20cb8bcd242be28cee09ea88161843876b9079e",
        (1.1796983488812058, 0.8582062106681891, 0.005321429082834062, 0.0033279267429280335, 0.0032547227276784607),
    ),
    ("far_depth", 1): (
        "284609a204b7404c36f55e36057b87286a19b90272e85036de2f70643898fe24",
        (1.1806551299900285, 0.9156575796705895, 0.9156575796705895, 0.004662786967117638, 0.004662786967117638),
    ),
}


def events_digest(state) -> str:
    h = hashlib.sha256()
    for log in state.history:
        for ev in log.events:
            h.update(f"{ev.round_index},{ev.instance_id},{ev.outcome},{int(ev.charged)}\n".encode())
    return h.hexdigest()


@pytest.mark.parametrize("name,seed", sorted(PINNED), ids=lambda v: str(v))
def test_same_picks_same_curves(name, seed):
    kind, pca_var_keep = RUNS[name]
    data = generate_synthetic(SyntheticSpec(12, 20), seed=seed)
    cfg = CampaignConfig(
        strategy=StrategyConfig(kind=kind, views=data.views if kind == "coreset" else (), seed=seed),
        round_budgets=(10, 25, 45, 70),
        pca_var_keep=pca_var_keep,
    )
    curve, state = run_campaign(cfg, data)
    digest, ys = PINNED[name, seed]
    assert events_digest(state) == digest
    assert [p.y for p in curve.points] == pytest.approx(ys, rel=1e-9, abs=1e-9)


# (kind, seed): (events sha256, curve y values)
CROWDED = {
    ("coreset", 0): (
        "b319ae0aa0c414a8bdbd5c631830b2c6efccf9527242f385ff7821db490f500e",
        (
            1.0547212788568199, 0.003960216783575499, 0.003759803065919387, 0.0036983307775260155,
            0.003550454684171478, 0.0034152894302342807, 0.0033008420319051712, 0.0033008420319051712,
            0.0031630936899315065, 0.0031630936899315065, 0.0031630936899315065, 0.0031630936899315065,
            0.0031630936899315065,
        ),
    ),
    ("coreset", 1): (
        "5b279e01b85de5aa778cfe7e167ee98c896442cc42d5e835c34edc7331263565",
        (
            1.319726678335876, 0.005919520060716277, 0.005258740640357473, 0.0050167724783054535,
            0.004198364930795839, 0.004198364930795839, 0.004198364930795839, 0.004198364930795839,
            0.004198364930795839, 0.004198364930795839, 0.004198364930795839, 0.004198364930795839,
            0.004198364930795839,
        ),
    ),
    ("random", 0): (
        "5d2fc4a930f6564f34476cd4cb7a7b3098ed0969a082437e4970b02ef1fbb51e",
        (
            1.0547212788568199, 0.004633452627187062, 0.004566946208003353, 0.003515024136870215,
            0.0032271819401572532, 0.0032271819401572532, 0.0032271819401572532, 0.0029903400519606382,
            0.0029903400519606382, 0.0029903400519606382, 0.0029903400519606382, 0.0029903400519606382,
            0.0029903400519606382,
        ),
    ),
    ("random", 1): (
        "8d5bdb9ab8e27c373c1926a06e1bdb9be49340292844fe252b8063757b131f59",
        (
            1.319726678335876, 0.9569868195131299, 0.005297332512737674, 0.004805781196557279,
            0.004805781196557279, 0.004709979886186488, 0.004446758976566323, 0.004446758976566323,
            0.004446758976566323, 0.004446758976566323, 0.004446758976566323, 0.004446758976566323,
            0.0039410910750057315,
        ),
    ),
}


@pytest.mark.parametrize("kind,seed", sorted(CROWDED), ids=lambda v: str(v))
def test_crowded_campaign_same_picks_same_curves(kind, seed):
    data = generate_synthetic(SyntheticSpec(4, 60), seed=seed)
    data = replace(data, ground_truth=data.ground_truth[::3])
    cfg = CampaignConfig(
        strategy=StrategyConfig(kind=kind, views=data.views if kind == "coreset" else (), seed=seed),
        round_budgets=tuple(range(8, 97, 8)),
    )
    curve, state = run_campaign(cfg, data)
    assert sum(log.suppressed for log in state.history) > 0
    digest, ys = CROWDED[kind, seed]
    assert events_digest(state) == digest
    assert [p.y for p in curve.points] == pytest.approx(ys, rel=1e-9, abs=1e-9)


# The crowded data of CROWDED under far_depth filters that leave out
# every instance below 45 px or at 30 m and beyond.
# seed: (events sha256, curve y values)
FAR_FILTERED = {
    0: (
        "c595c58a3c7d9f9d232c66f0791483d7fc2f2463887c965d63d3bebb127a2e80",
        (
            1.0547212788568199, 1.0547212788568199, 0.0037817010552448904, 0.0037817010552448904,
            0.0037817010552448904, 0.0037817010552448904, 0.0033691253470767846, 0.0033343142704870266,
            0.0033343142704870266, 0.00313838338338579, 0.00313838338338579,
        ),
    ),
    1: (
        "cae2bb0022e69d94988c64d4288975f9c744b1c100adfc90b1ea92f82f8b3626",
        (
            1.319726678335876, 0.004928628374501254, 0.0047448508093124175, 0.0047448508093124175,
            0.0047448508093124175, 0.004472194111219907, 0.004472194111219907, 0.0044108812801476605,
            0.004014146909516625, 0.004014146909516625, 0.004014146909516625, 0.004014146909516625,
        ),
    ),
}


@pytest.mark.parametrize("seed", sorted(FAR_FILTERED))
def test_crowded_far_depth_leaves_filtered_records_out(seed):
    data = generate_synthetic(SyntheticSpec(4, 60), seed=seed)
    data = replace(data, ground_truth=data.ground_truth[::3])
    filters = DepthFilters(min_px_height=45.0, max_depth=30.0)
    cfg = CampaignConfig(
        strategy=StrategyConfig(kind="far_depth", seed=seed, far_depth_filters=filters),
        round_budgets=tuple(range(8, 97, 8)),
    )
    curve, state = run_campaign(cfg, data)
    left_out = {r.instance_id for r in data.instances if r.box2d.h < 45.0 or r.pred_depth >= 30.0}
    requested = {ev.instance_id for log in state.history for ev in log.events}
    assert left_out and not requested & left_out
    assert sum(log.suppressed for log in state.history) > 0
    digest, ys = FAR_FILTERED[seed]
    assert events_digest(state) == digest
    assert [p.y for p in curve.points] == pytest.approx(ys, rel=1e-9, abs=1e-9)


def tied_pool():
    """24 records, ids shuffled against pool order, with every score tied
    several ways: two confidences (one of them 0), three depths (one past
    far_depth's 50 m), box heights below, at and above its 25 px, depth
    variances of 0, and features repeated so greedy distances tie too."""
    return [
        make_record(
            (7 * i + 3) % 24,
            size=(10.0, (10.0, 25.0, 40.0)[i % 3]),
            features={"a": [float(i % 4), 1.0], "b": [1.0, float(i % 3)]},
            pred_depth=(10.0, 30.0, 60.0, 30.0)[i % 4],
            confidence=(0.0, 0.5)[i % 2],
            aux_depths=(None, (30.0,), (10.0, 60.0))[i % 3],
        )
        for i in range(24)
    ]


VIEWS = (ViewSpec("a", 2, 0.5), ViewSpec("b", 2, 0.5))

# kind: sha256 of every (id, repr(score)) ``rank_pool`` yields on
# ``tied_pool()``, one line each, best first.
RANKED = {
    "random": "1a7e7225a59aa95eeed8116f775d70a684e2683bab9ff04bc63abfa05aa940de",
    "confidence": "4f9ef2d55d07dd3dbe41cac72ef30645a221d0d8b2c9b43cd5f09d1fb4e59f4e",
    "ens_depth_var": "29a6bf5957636be7faf13af725829b09453c3768b4f7e49f2b6794529700c6fd",
    "close_depth": "4a2f085c43dc0366e71ac0b82bd68bc54bc3875164e71f60309483ea8e72b2e3",
    "far_depth": "5ebc0a09229bc3300219ec875a4df21d73ff397a31f488577c812af33979d1a9",
    "coreset": "19f06ba53e99ef981b304ca7b496393d8285e6c24cc664dbe9235d496354c167",
    "coreset_box3d": "93c9acf00fb829d7712164df1c044a4dfa16f1f1e6dc76cc6fd235abb16d19eb",
    "ideal": "54fcf21ae4f78a921b381ac6bc7eb59be602906d644e4f5bf8a4366cdb243f2e",
}


@pytest.mark.parametrize("kind", sorted(RANKED))
def test_rank_pool_ids_and_scores_on_tied_pool(kind):
    pool = tied_pool()
    views = {"coreset": VIEWS, "coreset_box3d": VIEWS[:1], "ideal": VIEWS[1:]}.get(kind, ())
    coverage = None
    if views:
        labeled = [make_record(100, features={"a": [1.0, 0.0], "b": [0.0, 1.0]})]
        metric = FusedCosineMetric(views)
        coverage = Coverage(metric, metric.embed([*pool, *labeled]))
        coverage.fold([len(pool)])
    h = hashlib.sha256()
    for record, score in rank_pool(pool, StrategyConfig(kind=kind, views=views, seed=7), coverage, seed=11):
        h.update(f"{record.instance_id},{score!r}\n".encode())
    assert h.hexdigest() == RANKED[kind]
