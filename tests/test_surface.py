"""Names that other code reaches by attribute rather than by import.

A stale ``__all__`` entry or a renamed function that the benchmark's
tracer patches would otherwise only fail far from its cause: in a
star-import, or in a traced benchmark process.
"""

import importlib
import json
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import alsim

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(m.name for m in pkgutil.iter_modules(alsim.__path__, "alsim."))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


@pytest.mark.parametrize("full", [False, True])
def test_bench_tracer_installs(full):
    # A fresh interpreter, so the patched functions never leak into this one.
    code = (
        "import sys; sys.path[:0] = sys.argv[1:3]\n"
        "from spans import Tracer\n"
        f"Tracer('t').install(full={full})\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, str(ROOT / "bench"), str(ROOT / "src")],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr


# Runs a tiny ``alsim ingest`` plus ``load_dataset`` of its output, then a
# tiny ``alsim simulate``, under the fully installed tracer. Prints each
# phase's spans as (name, parent name) and how many instance records were
# built inside and outside a ``load_dataset`` span.
PHASES = """
import json, sys
sys.path[:0] = sys.argv[1:3]
from spans import Tracer
tracer = Tracer("t")
tracer.install(full=True)
from alsim import cli, dataio, records

built = {"inside": 0, "outside": 0}
init = records.InstanceRecord.__init__

def counting(self, *args, **kwargs):
    open_spans = {tracer.spans[i][0] for i in tracer._stack[1:]}
    built["inside" if "dataio.load_dataset" in open_spans else "outside"] += 1
    init(self, *args, **kwargs)

records.InstanceRecord.__init__ = counting
work = sys.argv[3]
phases = {}

def phase(name, *calls):
    start = len(tracer.spans)
    for call in calls:
        call()
    phases[name] = [[s[0], tracer.spans[s[3]][0] if s[3] >= 0 else None] for s in tracer.spans[start:]]

phase(
    "ingest",
    lambda: cli.main(["ingest", "--input", work + "/raw.jsonl", "--output", work + "/data"]),
    lambda: dataio.load_dataset(work + "/data/manifest.jsonl"),
)
phase("simulate", lambda: cli.main(["simulate", "--config", work + "/run.json", "--out", work + "/runs"]))
print(json.dumps({"phases": phases, "built": built}))
"""


def test_bench_phase_accounting(tmp_path):
    # The benchmark times the phases by these spans: record building
    # belongs to the load, and neither ingest nor a campaign builds records.
    from alsim.simulation import SyntheticSpec, generate_synthetic

    data = generate_synthetic(SyntheticSpec(clusters=3, per_cluster=4), seed=0)
    lines = [{"kind": "header", "views": [{"name": v.name, "dim": v.dim, "lambda": v.lam} for v in data.views],
              "camera": {"fx": data.camera.f_x, "fy": data.camera.f_y}}]
    for i, r in enumerate(data.instances):
        lines.append({"kind": "instance", "image_id": r.image_id, "instance_id": r.instance_id,
                      "class_id": r.class_id, "box2d": {"cx": r.box2d.cx, "cy": r.box2d.cy, "w": r.box2d.w,
                                                        "h": r.box2d.h},
                      "pred_depth": r.pred_depth, "confidence": r.confidence,
                      "features": {v.name: data.matrix(v.name)[i].tolist() for v in data.views}})
    lines += [{"kind": "gt", "gt_id": g.gt_id, "image_id": g.image_id, "class_id": g.class_id,
               "center2d": list(g.center2d), "depth": g.depth, "pixel_height": g.pixel_height}
              for g in data.ground_truth]
    (tmp_path / "raw.jsonl").write_text("".join(json.dumps(obj) + "\n" for obj in lines), encoding="utf-8")
    config = {"dataset": str(tmp_path / "data" / "manifest.jsonl"), "strategy": {"kind": "random"},
              "campaign": {"round_budgets": [3, 6], "initial_fraction": 0.25}, "seeds": [0]}
    (tmp_path / "run.json").write_text(json.dumps(config), encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-c", PHASES, str(ROOT / "bench"), str(ROOT / "src"), str(tmp_path)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    ingest, simulate = (result["phases"][name] for name in ("ingest", "simulate"))
    names = [name for name, _ in ingest]
    assert names.count("cli.cmd_ingest") == names.count("dataio.load_dataset") == 1
    assert ["records.validate_dataset", "cli.cmd_ingest"] in ingest
    assert ["dataio.write_dataset", "cli.cmd_ingest"] in ingest
    names = [name for name, _ in simulate]
    assert names.count("dataio.load_dataset") == names.count("simulation.run_campaign") == 1
    assert result["built"] == {"inside": 2 * len(data.instances), "outside": 0}
