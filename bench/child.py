"""One run of one workload, in a fresh process, as a user would start it.

Usage: ``python3 child.py '<json spec>'``. The spec names the workload
kind, the source tree to import alsim from, the input and output
directories, the run id and whether to trace every layer. The run's
outputs land in the output directory; its spans, phase timestamps and
peak RSS go to ``child.json`` there when the run ends.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time
from pathlib import Path

from spans import Tracer


def _simulate(inputs: Path, out: Path) -> dict:
    import alsim.cli as cli

    config = json.loads((inputs / "config.json").read_text())
    (seed,) = config["seeds"]
    rc = cli.main(["simulate", "--config", str(inputs / "config.json"), "--out", str(out)])
    if rc == 0:
        rc = cli.main([
            "naurc", "--curves", str(out / f"seed_{seed}" / "curve.csv"),
            "--budget", str(config["campaign"]["round_budgets"][-1]), "--out", str(out / "naurc.csv"),
        ])
    return {"exit_code": rc}


def _library(inputs: Path, out: Path) -> dict:
    from alsim import dataio, metrics, simulation
    from alsim.selection import StrategyConfig

    config = json.loads((inputs / "config.json").read_text())
    (seed,) = config["seeds"]
    dataset = dataio.load_dataset(inputs / config["dataset"])
    campaign = simulation.CampaignConfig(
        strategy=StrategyConfig(config["strategy"]["kind"], seed=seed),
        round_budgets=tuple(config["campaign"]["round_budgets"]),
    )
    # A user's own evaluator; this one is cheap so the oracle loop shows.
    curve, state = simulation.run_campaign(campaign, dataset, lambda labeled, pool: float(len(labeled)))
    score = metrics.naurc(curve, campaign.round_budgets[-1])

    with open(out / "rounds.jsonl", "w", encoding="utf-8") as fh:
        for log in state.history:
            for ev in log.events:
                fh.write(json.dumps(ev.to_json(), sort_keys=True) + "\n")
    summary = {
        "curve": [[p.x, p.y] for p in curve.points],
        "naurc": score,
        "requested_total": state.requested_total,
        "round_counts": [[log.charged, log.matched, log.suppressed] for log in state.history],
    }
    (out / "result.json").write_text(json.dumps(summary))
    return {"exit_code": 0}


def _ingest(inputs: Path, out: Path) -> dict:
    import alsim.cli as cli
    from alsim import dataio

    rc = cli.main(["ingest", "--input", str(inputs / "raw.jsonl"), "--output", str(out / "dataset")])
    if rc != 0:
        return {"exit_code": rc}
    dataset = dataio.load_dataset(out / "dataset" / "manifest.jsonl")

    import numpy as np

    views = {
        v.name: hashlib.sha256(
            np.array([r.features[v.name] for r in dataset.instances], dtype="<f8").tobytes()
        ).hexdigest()
        for v in dataset.views
    }
    return {
        "exit_code": 0,
        "loaded": {
            "instances": len(dataset.instances),
            "ground_truth": len(dataset.ground_truth),
            "views_sha256": views,
        },
    }


RUNNERS = {"simulate": _simulate, "library": _library, "ingest": _ingest}


def peak_rss_kb() -> int:
    """This process's peak resident set size since it started.

    ``getrusage`` is not used: on Linux its ``ru_maxrss`` also counts the
    address space the process had before ``exec``, which is the parent's.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> int:
    spec = json.loads(sys.argv[1])
    sys.path.insert(0, spec["src"])
    tracer = Tracer(spec["run_id"])
    import alsim  # noqa: F401

    t_imported = time.monotonic()
    tracer.install(full=spec["trace"])
    out = Path(spec["out"])
    result = RUNNERS[spec["kind"]](Path(spec["inputs"]), out)
    result.update(
        run_id=tracer.run_id,
        t_imported=t_imported,
        peak_rss_kb=peak_rss_kb(),
        spans=tracer.spans,
    )
    (out / "child.json").write_text(json.dumps(result))
    return result["exit_code"]


if __name__ == "__main__":
    sys.exit(main())
