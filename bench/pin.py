"""Pin the reference outputs the output gate compares campaign runs with.

Usage, from the root of a checkout whose outputs are known to be right::

    python3 bench/pin.py --seeds 0-63

For each campaign workload and seed it runs the workload once, checks the
run's invariants, and stores its request-event digest, curve and NAURC in
``bench/references.json``. Re-run it only when a workload's parameters
change; a run whose workload no longer matches its pin fails the gate.
"""

from __future__ import annotations

import argparse
import json
import sys

import gate
from run import REFERENCES, SRC, WORK, run_rep
from workloads import WORKLOADS, prepare_inputs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seeds", default="0-63", help="inclusive range FIRST-LAST")
    args = parser.parse_args(argv)
    first, last = (int(s) for s in args.seeds.split("-"))
    sys.path.insert(0, str(SRC))
    pins = json.loads(REFERENCES.read_text()) if REFERENCES.is_file() else {}
    for w in WORKLOADS.values():
        if w.kind == "ingest":
            continue  # checked against its own export, not a pin
        entry = pins.get(w.name)
        if entry is None or entry["fingerprint"] != w.fingerprint():
            entry = pins[w.name] = {"fingerprint": w.fingerprint(), "seeds": {}}
        for seed in range(first, last + 1):
            rep = run_rep(w, seed, prepare_inputs(w, seed, WORK), WORK, traced=False)
            if not rep.ok:
                print(f"{w.name} seed {seed}: {rep.problems}", file=sys.stderr)
                return 1
            entry["seeds"][str(seed)] = gate.pin(rep.run)
            print(f"{w.name} seed {seed}: {len(rep.run['events'])} events, naurc {rep.run['naurc']!r}", flush=True)
            write_pins(pins)
    return 0


def write_pins(pins: dict) -> None:
    """One line per (workload, seed), so a re-pin diffs line by line."""
    blocks = []
    for name in sorted(pins):
        seeds = pins[name]["seeds"]
        lines = [f"  {json.dumps(s)}: {json.dumps(seeds[s], sort_keys=True)}" for s in sorted(seeds, key=int)]
        blocks.append(
            f"{json.dumps(name)}: {{\"fingerprint\": {json.dumps(pins[name]['fingerprint'])}, \"seeds\": {{\n"
            + ",\n".join(lines) + "\n }}"
        )
    REFERENCES.write_text("{\n" + ",\n".join(blocks) + "\n}\n")


if __name__ == "__main__":
    sys.exit(main())
