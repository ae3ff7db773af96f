"""alsim benchmark: campaign and ingest workloads, end to end and per layer.

Usage, from the root of a source checkout::

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py                      # every workload, untraced then traced

A run writes the workload's inputs for its seed (outside any timing),
then starts one measured process after another, each after the previous
one exits (a closed loop with one client), until ``--seconds`` are used.
Every process is checked against the output gate (``gate.py``); a
process that exits non-zero or fails the gate counts as failed and its
timings are dropped. Each metric is the median over the passing
processes. With ``--trace 1`` every other process records spans at each
layer boundary and the run reports the per-layer breakdown instead.

Results go to ``.bench_work/results/`` in the checkout. The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import gate
from spans import END, NAME, RATIO_BASES, START, layer_metrics
from workloads import WORKLOADS, prepare_inputs

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
REFERENCES = BENCH / "references.json"

# One BLAS thread: the host is a small shared machine, and a fixed,
# single thread keeps run-to-run spread low. Recorded with every result.
BLAS_THREADS = 1
# Fewest untraced processes a run measures, whatever --seconds says.
MIN_REPS = 3
# A run, input generation included, starts no process that would end
# after this many seconds, and kills one still running then.
RUN_CAP_S = 160.0

# name, unit, and the name the per-workload tables use for it.
END_TO_END = (
    ("total_s", "s", {}),
    ("setup_s", "s", {}),
    ("work_s", "s", {"simulate": "campaign_s", "library": "campaign_s", "ingest": "ingest_s"}),
    ("work_per_s", "1/s", {"simulate": "requests_per_s", "library": "requests_per_s", "ingest": "instances_per_s"}),
    ("peak_rss_mb", "MB", {}),
)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONPATH", None)
    return env


@dataclass
class Rep:
    """One measured process."""

    traced: bool
    problems: list[str]
    e2e: dict[str, float] = field(default_factory=dict)
    spans: list | None = None
    run: dict | None = None
    run_id: str = ""

    @property
    def ok(self) -> bool:
        return not self.problems


def _first_span(spans, name):
    rec = next(s for s in spans if s[NAME] == name)
    return rec[START], rec[END]


def _check(w, seed, out: Path, child: dict, ref, expected) -> tuple[list[str], dict | None]:
    if w.kind == "ingest":
        return gate.check_ingest(out, child["loaded"], expected), None
    run = gate.read_campaign(w.kind, out, seed)
    problems = gate.check_campaign(run, w.budgets, ref)
    return problems, run


def run_rep(w, seed: int, inputs: Path, work: Path, traced: bool, ref=None, expected=None,
            timeout: float = RUN_CAP_S) -> Rep:
    """Start one measured process, wait for it, check its outputs."""
    out = work / "runs" / w.name
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    spec = {
        "kind": w.kind,
        "src": str(SRC),
        "inputs": str(inputs),
        "out": str(out),
        "trace": traced,
        "run_id": f"{w.name}-s{seed}-{time.time_ns()}",
    }
    t0 = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "child.py"), json.dumps(spec)],
            cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return Rep(traced, [f"killed after {timeout:.0f} s"])
    t1 = time.monotonic()
    if proc.returncode != 0:
        return Rep(traced, [f"exit code {proc.returncode}: {proc.stderr.strip()[-2000:]}"])

    try:
        child = json.loads((out / "child.json").read_text())
        problems, run = _check(w, seed, out, child, ref, expected)
        spans = child["spans"]
        load_start, load_end = _first_span(spans, "dataio.load_dataset")
        if w.kind == "ingest":
            setup_s = (child["t_imported"] - t0) + (load_end - load_start)
            work_start, work_end = _first_span(spans, "cli.cmd_ingest")
            done = w.instances
        else:
            setup_s = load_end - t0
            work_start, work_end = _first_span(spans, "simulation.run_campaign")
            done = len(run["events"])
    except (OSError, ValueError, KeyError, IndexError, StopIteration) as exc:
        return Rep(traced, [f"unreadable output: {exc!r}"])
    finally:
        shutil.rmtree(out, ignore_errors=True)
    work_s = work_end - work_start
    e2e = {
        "total_s": t1 - t0,
        "setup_s": setup_s,
        "work_s": work_s,
        "work_per_s": done / work_s,
        "peak_rss_mb": child["peak_rss_kb"] / 1024.0,
    }
    return Rep(traced, problems, e2e, spans if traced else None, run, child["run_id"])


def load_reference(w, seed: int):
    """The pinned outputs for (w, seed): a dict, None when none is pinned,
    or a string saying why the pin cannot be used."""
    pins = json.loads(REFERENCES.read_text()) if REFERENCES.is_file() else {}
    entry = pins.get(w.name)
    if entry is None:
        return None
    if entry["fingerprint"] != w.fingerprint():
        return f"references were pinned for other {w.name} parameters; re-run pin.py"
    return entry["seeds"].get(str(seed))


def summarize(values: list[float]) -> dict:
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values), "samples": values}


def _repeat(w, seed, inputs, work, trace, ref, expected, seconds, deadline) -> list[Rep]:
    """Run processes one after another until ``seconds`` would be exceeded;
    a traced run alternates traced and untraced processes."""
    reps: list[Rep] = []
    start = time.monotonic()
    min_reps = 2 if trace else MIN_REPS
    while True:
        traced = trace and len(reps) % 2 == 0
        rep = run_rep(w, seed, inputs, work, traced, ref, expected, deadline - time.monotonic())
        rep.run = None
        reps.append(rep)
        now = time.monotonic()
        rep_s = (now - start) / len(reps)
        if len(reps) >= min_reps and now + rep_s - start > seconds or now + rep_s > deadline:
            return reps


def measure(w, seed: int, seconds: float, trace: bool, work: Path = WORK) -> dict:
    """Run ``w`` for about ``seconds`` and summarize it (see module doc)."""
    deadline = time.monotonic() + RUN_CAP_S
    inputs = prepare_inputs(w, seed, work)
    ref = load_reference(w, seed)
    expected = None
    if w.kind == "ingest":
        expected = json.loads((inputs / "expected.json").read_text())

    if isinstance(ref, str):  # stale pins: no process could pass the gate
        reps = [Rep(trace, [ref])]
    else:
        reps = _repeat(w, seed, inputs, work, trace, ref, expected, seconds, deadline)

    passed = [r for r in reps if r.ok]
    result = {
        "workload": w.name,
        "why": w.why,
        "trace": trace,
        "provenance": provenance(seed),
        "reference": (
            "raw export" if w.kind == "ingest"
            else "pinned" if isinstance(ref, dict) else "none" if ref is None else ref
        ),
        "attempted": len(reps),
        "failed": len(reps) - len(passed),
        "failed_ratio": (len(reps) - len(passed)) / len(reps),
        "problems": sorted({p for r in reps for p in r.problems}),
        "metrics": {},
    }
    untraced = [r for r in passed if not r.traced]
    if not trace:
        for name, unit, _ in END_TO_END:
            if untraced:
                result["metrics"][name] = {"unit": unit, **summarize([r.e2e[name] for r in untraced])}
        return result

    traced_reps = [r for r in passed if r.traced]
    if traced_reps and untraced:
        per_rep = [layer_metrics(r.spans, r.e2e["total_s"]) for r in traced_reps]
        for name, (_, unit) in per_rep[0].items():
            result["metrics"][name] = {
                "unit": unit,
                "base": RATIO_BASES.get(name),
                **summarize([m[name][0] for m in per_rep]),
            }
        overhead = (
            statistics.median(r.e2e["total_s"] for r in traced_reps)
            - statistics.median(r.e2e["total_s"] for r in untraced)
        )
        result["metrics"]["trace_overhead_s"] = {"unit": "s", "base": None, **summarize([overhead])}
        result["spans"] = {
            "run_id": traced_reps[0].run_id,
            "fields": ["name", "start", "end", "parent", "count"],
            "records": traced_reps[0].spans,
        }
    return result


# ----------------------------------------------------------- provenance


def _git_sha() -> str | None:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def provenance(seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    source = hashlib.sha256()
    for path in sorted((SRC / "alsim").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": _git_sha(),
        "source_sha256": source.hexdigest(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "pythonhashseed": 0,
        "seed": seed,
    }


# --------------------------------------------------------------- output


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def report(w, result: dict) -> None:
    """Print a run's metrics by name, with unit, median, quartiles and n."""
    print(f"== {w.name} seed={result['provenance']['seed']} trace={int(result['trace'])}: "
          f"{result['attempted']} runs, {result['failed']} failed, "
          f"failed_ratio {_fmt(result['failed_ratio'])}, reference {result['reference']}")
    for problem in result["problems"]:
        print(f"   FAILED: {problem[:500]}")
    aliases = {name: alias.get(w.kind) for name, _, alias in END_TO_END}
    for name, m in result["metrics"].items():
        label = f"{name} ({aliases[name]})" if aliases.get(name) else name
        line = (f"   {label:<40} {_fmt(m['median']):>12} {m['unit']:<9}"
                f" q1 {_fmt(m['q1'])}  q3 {_fmt(m['q3'])}  n={m['n']}")
        if m.get("base"):
            line += f"  base: {m['base']}"
        print(line)


def write_result(work: Path, result: dict) -> Path:
    results = work / "results"
    results.mkdir(parents=True, exist_ok=True)
    suffix = ".trace.json" if result["trace"] else ".json"
    path = results / f"{result['workload']}-s{result['provenance']['seed']}{suffix}"
    path.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    return path


def result_line(results: list[dict], prefix: bool) -> str:
    metrics = {}
    for r in results:
        for name, m in r["metrics"].items():
            key = f"{r['workload']}.{name}" if prefix else name
            metrics[key] = {"value": m["median"], "unit": m["unit"]}
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    return json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default="all", help="workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="1: per-layer breakdown; default: 0 for one workload, both for 'all'")
    args = parser.parse_args(argv)

    if not (SRC / "alsim" / "__init__.py").is_file():
        print(f"error: no alsim source tree at {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        chosen = list(WORKLOADS.values())
        traces = [False, True] if args.trace is None else [bool(args.trace)]
    elif args.workload in WORKLOADS:
        chosen = [WORKLOADS[args.workload]]
        traces = [bool(args.trace)]
    else:
        print(f"error: unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2

    results = []
    for w in chosen:
        for trace in traces:
            result = measure(w, args.seed, args.seconds, trace)
            report(w, result)
            print(f"   -> {write_result(WORK, result)}")
            results.append(result)
    print(result_line(results, prefix=len(results) > 1))
    return 0 if all(r["metrics"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
