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
suppress later ones.
"""

import hashlib
from dataclasses import replace

import pytest

from alsim.selection import StrategyConfig
from alsim.simulation import CampaignConfig, SyntheticSpec, generate_synthetic, run_campaign

# name: (strategy kind, pca_var_keep)
RUNS = {
    "coreset": ("coreset", None),
    "coreset_pca": ("coreset", 0.95),
    "random": ("random", None),
    "ens_depth_var": ("ens_depth_var", None),
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
