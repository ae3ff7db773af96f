"""Output check applied to every benchmark run.

A campaign run passes when

* its request-event sequence (round, instance id, outcome, charged flag)
  matches the pinned reference for the workload and seed exactly;
* its curve y values and its NAURC at the last budget are within
  ``TOLERANCE`` of the reference (a tolerance, not bytes, because an
  equivalent distance formula may move scores by rounding);
* per round, charged = matched + null, suppressed requests are never
  charged, the cumulative charge stays within the round's budget and is
  the curve's x;
* the reported NAURC equals the trapezoid area of its own curve.

An ingest run passes when the blobs it writes and the features it loads
back equal, bit for bit, the float32 features of the raw export.

Each check returns a list of problems; an empty list is a pass.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

# Absolute and relative tolerance on curve y values and NAURC.
TOLERANCE = 1e-9


def events_digest(events: list[dict]) -> str:
    h = hashlib.sha256()
    for ev in events:
        h.update(f"{ev['round']},{ev['instance_id']},{ev['outcome']},{int(ev['charged'])}\n".encode())
    return h.hexdigest()


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=TOLERANCE, abs_tol=TOLERANCE)


def trapezoid_naurc(curve: list[list[float]], budget: float) -> float:
    """NAURC recomputed from the curve: trapezoids up to the budget,
    interpolating a straddling segment and holding the last value."""
    area = 0.0
    for (x0, y0), (x1, y1) in zip(curve, curve[1:]):
        if x0 >= budget:
            break
        if x1 > budget:
            y1 = y0 + (y1 - y0) * (budget - x0) / (x1 - x0)
            x1 = budget
        area += (y0 + y1) / 2.0 * (x1 - x0)
    x_last, y_last = curve[-1]
    if x_last < budget:
        area += y_last * (budget - x_last)
    return area / budget


def read_campaign(kind: str, out: Path, seed: int) -> dict:
    """Collect a campaign run's events, curve and NAURC from its files."""
    if kind == "library":
        run = json.loads((out / "result.json").read_text())
        rounds_path = out / "rounds.jsonl"
    else:
        seed_dir = out / f"seed_{seed}"
        rounds_path = seed_dir / "rounds.jsonl"
        run = {"requested_total": json.loads((seed_dir / "state.json").read_text())["requested_total"]}
        run["curve"] = [
            [float(v) for v in line.split(",")]
            for line in (seed_dir / "curve.csv").read_text().splitlines()
            if line and not line.startswith("#") and not line.startswith("x,")
        ]
        rows = (out / "naurc.csv").read_text().splitlines()
        run["naurc"] = float(rows[2].split(",")[2])
    run["events"] = [json.loads(line) for line in rounds_path.read_text().splitlines()]
    return run


def pin(run: dict) -> dict:
    """The reference a later run of the same workload and seed must match."""
    return {
        "events_sha256": events_digest(run["events"]),
        "events": len(run["events"]),
        "curve": run["curve"],
        "naurc": run["naurc"],
    }


def check_campaign(run: dict, budgets: tuple[int, ...], ref: dict | None) -> list[str]:
    problems: list[str] = []
    events, curve = run["events"], run["curve"]
    per_round: dict[int, dict[str, int]] = {}
    for ev in events:
        counts = per_round.setdefault(ev["round"], {"charged": 0, "matched": 0, "null": 0, "suppressed": 0})
        counts[ev["outcome"]] = counts.get(ev["outcome"], 0) + 1
        counts["charged"] += bool(ev["charged"])
        if ev["charged"] != (ev["outcome"] != "suppressed"):
            problems.append(f"event {ev}: charged flag disagrees with outcome")
    rounds = sorted(per_round)
    if rounds != list(range(len(rounds))):
        problems.append(f"rounds {rounds} are not consecutive from 0")
    # A round that charges nothing ends the campaign without a curve point.
    scored = [r for r in rounds if per_round[r]["charged"] or r != rounds[-1]]
    cumulative = 0
    for r in rounds:
        c = per_round[r]
        if c["charged"] != c["matched"] + c["null"]:
            problems.append(f"round {r}: charged {c['charged']} != matched {c['matched']} + null {c['null']}")
        cumulative += c["charged"]
        if r >= len(budgets) or cumulative > budgets[r]:
            problems.append(f"round {r}: cumulative charge {cumulative} exceeds its budget")
        if r in scored and (r + 1 >= len(curve) or curve[r + 1][0] != cumulative):
            problems.append(f"round {r}: curve x does not equal cumulative charge {cumulative}")
    logged = [[per_round[r][k] for k in ("charged", "matched", "suppressed")] for r in rounds]
    if run.get("round_counts", logged) != logged:
        problems.append("round logs' charged/matched/suppressed counts disagree with their events")
    if cumulative != run["requested_total"]:
        problems.append(f"requested_total {run['requested_total']} != charged events {cumulative}")
    if len(curve) != len(scored) + 1:
        problems.append(f"curve has {len(curve)} points for {len(scored)} scored rounds")
    if not _close(run["naurc"], trapezoid_naurc(curve, budgets[-1])):
        problems.append(f"naurc {run['naurc']!r} is not the area of its curve")

    if ref is not None:
        if events_digest(events) != ref["events_sha256"]:
            problems.append(f"request-event sequence differs from the reference ({len(events)} vs {ref['events']} events)")
        if len(curve) != len(ref["curve"]) or not all(
            x == rx and _close(y, ry) for (x, y), (rx, ry) in zip(curve, ref["curve"])
        ):
            problems.append("curve differs from the reference beyond tolerance")
        if not _close(run["naurc"], ref["naurc"]):
            problems.append(f"naurc {run['naurc']!r} differs from the reference {ref['naurc']!r}")
    return problems


def check_ingest(out: Path, loaded: dict, expected: dict) -> list[str]:
    problems: list[str] = []
    manifest = out / "dataset" / "manifest.jsonl"
    with open(manifest, encoding="utf-8") as fh:
        header = json.loads(fh.readline())
    for view, digest in expected["blob_sha256"].items():
        blob = manifest.parent / header["blobs"][view]
        if hashlib.sha256(blob.read_bytes()).hexdigest() != digest:
            problems.append(f"view {view!r}: ingested blob bytes differ from the raw export")
    if loaded["views_sha256"] != expected["loaded_sha256"]:
        problems.append("features loaded back differ from the raw export")
    for key in ("instances", "ground_truth"):
        if loaded[key] != expected[key]:
            problems.append(f"{key}: loaded {loaded[key]}, exported {expected[key]}")
    return problems
