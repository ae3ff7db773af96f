"""Self-tests of the benchmark: a tiny smoke run of each workload kind,
and the output gate rejecting tampered outputs.

Run from the root of a checkout: ``python3 -m pytest bench/selftest.py``.
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import gate  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS, prepare_inputs  # noqa: E402

TINY = {
    "coreset_greedy": dict(clusters=4, per_cluster=10, budgets=(5, 10, 20)),
    "random_hook": dict(clusters=4, per_cluster=10, budgets=(5, 10, 20)),
    "oracle_dense": dict(clusters=2, per_cluster=40, budgets=(4, 8, 12, 16, 20)),
    "ingest_roundtrip": dict(clusters=3, per_cluster=5),
}
BENCHMARK = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def tiny(name: str):
    return replace(WORKLOADS[name], name=f"tiny_{name}", **TINY[name])


@pytest.mark.parametrize("name", sorted(TINY))
def test_smoke_run_reports_every_metric(name, tmp_path):
    w = tiny(name)
    plain = run.measure(w, seed=3, seconds=0.0, trace=False, work=tmp_path)
    assert plain["failed"] == 0, plain["problems"]
    assert plain["attempted"] == run.MIN_REPS
    assert set(plain["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}
    assert all(m["median"] > 0 for m in plain["metrics"].values())

    traced = run.measure(w, seed=3, seconds=0.0, trace=True, work=tmp_path)
    assert traced["failed"] == 0, traced["problems"]
    assert set(traced["metrics"]) == {m["name"] for m in BENCHMARK["per_layer"]}
    line = json.loads(run.result_line([traced], prefix=False))
    assert line["correct"] and line["attempted"] == 2 and line["failed"] == 0


def test_stale_pins_fail_the_run_without_measuring(tmp_path, monkeypatch):
    w = tiny("random_hook")
    pins = tmp_path / "references.json"
    pins.write_text(json.dumps({w.name: {"fingerprint": "stale", "seeds": {}}}))
    monkeypatch.setattr(run, "REFERENCES", pins)
    result = run.measure(w, seed=0, seconds=0.0, trace=False, work=tmp_path)
    assert result["attempted"] == result["failed"] == 1
    assert result["metrics"] == {}
    assert "re-run pin.py" in result["problems"][0]


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in BENCHMARK["workloads"]] == [w.why for w in WORKLOADS.values()]


@pytest.fixture(scope="module")
def campaign_run(tmp_path_factory):
    work = tmp_path_factory.mktemp("work")
    w = tiny("oracle_dense")
    rep = run.run_rep(w, 5, prepare_inputs(w, 5, work), work, traced=False)
    assert rep.ok, rep.problems
    return w, rep.run


def test_gate_accepts_its_own_pin_and_rounding_noise(campaign_run):
    w, out = campaign_run
    ref = gate.pin(out)
    assert gate.check_campaign(out, w.budgets, ref) == []
    nudged = dict(out, curve=[[x, y * (1 + 1e-13)] for x, y in out["curve"]])
    nudged["naurc"] = out["naurc"] * (1 + 1e-13)
    assert gate.check_campaign(nudged, w.budgets, ref) == []


def test_gate_rejects_tampered_event_sequence(campaign_run):
    w, out = campaign_run
    ref = gate.pin(out)
    swapped = list(out["events"])
    swapped[0], swapped[1] = swapped[1], swapped[0]
    assert gate.check_campaign(dict(out, events=swapped), w.budgets, ref)

    flipped = [dict(ev) for ev in out["events"]]
    i = next(i for i, ev in enumerate(flipped) if ev["outcome"] == "matched")
    flipped[i]["outcome"] = "suppressed"
    problems = gate.check_campaign(dict(out, events=flipped), w.budgets, ref)
    assert any("charged flag" in p for p in problems)
    assert any("reference" in p for p in problems)


def test_gate_rejects_curve_beyond_tolerance(campaign_run):
    w, out = campaign_run
    ref = gate.pin(out)
    curve = [list(p) for p in out["curve"]]
    curve[-1][1] *= 1 + 1e-6
    problems = gate.check_campaign(dict(out, curve=curve), w.budgets, ref)
    assert any("curve differs" in p for p in problems)
    problems = gate.check_campaign(dict(out, naurc=out["naurc"] * (1 + 1e-6)), w.budgets, ref)
    assert any("naurc" in p for p in problems)


def test_gate_rejects_changed_blob_bytes(tmp_path):
    w = tiny("ingest_roundtrip")
    inputs = prepare_inputs(w, 0, tmp_path)
    expected = json.loads((inputs / "expected.json").read_text())
    out = tmp_path / "out"
    (out / "dataset").mkdir(parents=True)
    raw = (inputs / "raw.jsonl").read_text().splitlines()
    header = json.loads(raw[0])
    header["blobs"] = {v["name"]: f"{v['name']}.alf" for v in header["views"]}
    (out / "dataset" / "manifest.jsonl").write_text(json.dumps(header) + "\n")
    for v in header["views"]:
        (out / "dataset" / f"{v['name']}.alf").write_bytes(b"ALF1 not the exported bytes")
    loaded = {"instances": expected["instances"], "ground_truth": expected["ground_truth"],
              "views_sha256": expected["loaded_sha256"]}
    problems = gate.check_ingest(out, loaded, expected)
    assert len(problems) == len(header["views"])
    assert all("blob bytes differ" in p for p in problems)
