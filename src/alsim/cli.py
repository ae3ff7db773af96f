"""Command-line entry points: ingest, simulate, naurc.

Exit codes: 0 success, 1 data error, 2 usage error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import sys
from pathlib import Path

from .dataio import DatasetError, load_dataset, read_raw_export, write_dataset
from .features import FusedCosineMetric
from .metrics import Curve, naurc
from .records import Dataset, validate_dataset
from .selection import CORESET_KINDS, STRATEGY_KINDS, DepthFilters, StrategyConfig
from .simulation import CampaignConfig, covering_radius_hook, run_campaign

__all__ = ["main"]

logger = logging.getLogger(__name__)


def _config_hash(obj) -> str:
    canonical = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:12]


# ---------------------------------------------------------------- ingest


def cmd_ingest(args) -> int:
    try:
        dataset = read_raw_export(args.input)
    except DatasetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if not dataset.instances:
        print("error: empty dataset (no instance records)", file=sys.stderr)
        return 1
    violations = validate_dataset(dataset)
    if violations:
        for v in violations:
            print(f"violation: {v}", file=sys.stderr)
        return 1

    out_dir = Path(args.output)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = out_dir / "manifest.jsonl"
    write_dataset(dataset, manifest)
    print(manifest)
    return 0


# -------------------------------------------------------------- simulate


def _resolve_strategy(cfg: dict, dataset: Dataset, seed: int) -> StrategyConfig:
    kind = cfg.get("kind")
    if kind not in STRATEGY_KINDS:
        raise _UsageError(
            f"unknown strategy {kind!r}; valid strategies: {', '.join(STRATEGY_KINDS)}"
        )
    view_names = cfg.get("views")
    if view_names is None and kind in CORESET_KINDS:
        view_names = [v.name for v in dataset.views]
    views = tuple(dataset.view(name) for name in (view_names or []))
    filters = cfg.get("far_depth_filters", {})
    return StrategyConfig(
        kind=kind,
        views=views,
        seed=seed,
        far_depth_filters=DepthFilters(
            min_px_height=float(filters.get("min_px_height", 25.0)),
            max_depth=float(filters.get("max_depth", 50.0)),
        ),
    )


class _UsageError(Exception):
    pass


def _curve_lines(curve: Curve, provenance: str) -> str:
    lines = [f"# {provenance}", "x,y"]
    for p in curve.points:
        lines.append(f"{p.x!r},{p.y!r}")
    return "\n".join(lines) + "\n"


def cmd_simulate(args) -> int:
    config_path = Path(args.config)
    try:
        cfg_obj = json.loads(config_path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 2

    try:
        seeds = [args.seed] if args.seed is not None else [int(s) for s in cfg_obj.get("seeds", [0])]
        if not seeds:
            raise _UsageError("config must list at least one seed")
        dataset_path = Path(cfg_obj["dataset"])
        if not dataset_path.is_absolute():
            dataset_path = config_path.parent / dataset_path
        campaign = cfg_obj.get("campaign", {})
        budgets = tuple(int(b) for b in campaign["round_budgets"])
        initial_fraction = float(campaign.get("initial_fraction", 0.1))
        if initial_fraction == 0.0:
            raise _UsageError("initial_fraction must be > 0: the covering-radius curve needs a labeled set")
    except (_UsageError, KeyError, TypeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    try:
        dataset = load_dataset(dataset_path)
    except DatasetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    out_dir = Path(args.out) if args.out else Path(cfg_obj.get("output", "runs"))
    out_dir.mkdir(parents=True, exist_ok=True)
    chash = _config_hash(cfg_obj)
    eval_metric = FusedCosineMetric(dataset.views)

    curves = []
    for seed in seeds:
        try:
            strategy = _resolve_strategy(cfg_obj.get("strategy", {}), dataset, seed)
            ccfg = CampaignConfig(
                strategy=strategy,
                round_budgets=budgets,
                h_scale=float(campaign.get("H", 2.0)),
                initial_fraction=initial_fraction,
                alpha=float(campaign.get("alpha", 3.0)),
                delta=float(campaign.get("delta", 0.2)),
                min_px_height=float(campaign.get("min_px_height", 25.0)),
                pca_var_keep=campaign.get("pca_var_keep"),
            )
        except (_UsageError, ValueError, KeyError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        try:
            curve, state = run_campaign(ccfg, dataset, covering_radius_hook(eval_metric))
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        curves.append(curve)

        seed_dir = out_dir / f"seed_{seed}"
        seed_dir.mkdir(parents=True, exist_ok=True)
        (seed_dir / "curve.csv").write_text(
            _curve_lines(curve, f"config={chash} seed={seed}"), encoding="utf-8"
        )
        with open(seed_dir / "rounds.jsonl", "w", encoding="utf-8") as fh:
            for log in state.history:
                for ev in log.events:
                    fh.write(json.dumps(ev.to_json(), sort_keys=True) + "\n")
        final = {
            "config_hash": chash,
            "seed": seed,
            "rounds": state.round_index,
            "requested_total": state.requested_total,
            "labeled_gt_count": len(state.labeled_gt),
            "labeled_images": sorted(state.labeled_images),
        }
        (seed_dir / "state.json").write_text(
            json.dumps(final, sort_keys=True, indent=2) + "\n", encoding="utf-8"
        )

    n_rounds = min(len(c.points) for c in curves)
    if any(len(c.points) != n_rounds for c in curves):
        logger.warning(
            "curve_mean.csv keeps the first %d points, the shortest seed's curve; points per seed: %s",
            n_rounds,
            ", ".join(f"seed {s}: {len(c.points)}" for s, c in zip(seeds, curves)),
        )
    mean_pairs = []
    for i in range(n_rounds):
        xs = [c.points[i].x for c in curves]
        ys = [c.points[i].y for c in curves]
        mean_pairs.append((sum(xs) / len(xs), sum(ys) / len(ys)))
    mean_curve = Curve.from_pairs(mean_pairs)
    seeds_str = ",".join(str(s) for s in seeds)
    (out_dir / "curve_mean.csv").write_text(
        _curve_lines(mean_curve, f"config={chash} seeds={seeds_str}"), encoding="utf-8"
    )
    print(out_dir)
    return 0


# ----------------------------------------------------------------- naurc


def read_curve_csv(path) -> Curve:
    pairs = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if not line or line.startswith("#") or line.lower().startswith("x,"):
            continue
        x_str, y_str = line.split(",")
        pairs.append((float(x_str), float(y_str)))
    if not pairs:
        raise ValueError(f"{path}: empty curve")
    return Curve.from_pairs(pairs)


def _method_names(paths) -> list[str]:
    stems = [Path(p).stem for p in paths]
    if len(set(stems)) == len(stems):
        return stems
    qualified = [f"{Path(p).parent.name}/{Path(p).stem}" for p in paths]
    if len(set(qualified)) == len(qualified):
        return qualified
    return [str(Path(p)) for p in paths]


def cmd_naurc(args) -> int:
    scored: list[tuple[str, float]] = []
    failed: list[str] = []
    for path, method in zip(args.curves, _method_names(args.curves)):
        try:
            value = naurc(read_curve_csv(path), args.budget)
            scored.append((method, value))
        except (OSError, ValueError) as exc:
            print(f"error: {method}: {exc}", file=sys.stderr)
            failed.append(method)

    scored.sort(key=lambda mv: (-mv[1], mv[0]))
    lines = [f"# budget={args.budget!r} mode={args.mode}", "method,budget,naurc"]
    for method, value in scored:
        lines.append(f"{method},{args.budget!r},{value!r}")
    for method in failed:
        lines.append(f"{method},{args.budget!r},error")
    text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


# ------------------------------------------------------------------ main


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="alsim", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_ingest = sub.add_parser("ingest", help="convert raw JSONL export to manifest + blobs")
    p_ingest.add_argument("--input", required=True, help="raw JSONL file with inline features")
    p_ingest.add_argument("--output", required=True, help="output directory")
    p_ingest.set_defaults(func=cmd_ingest)

    p_sim = sub.add_parser("simulate", help="run labeling campaigns and write curves")
    p_sim.add_argument("--config", required=True, help="JSON run configuration")
    p_sim.add_argument("--out", default=None, help="output directory (overrides config)")
    p_sim.add_argument("--seed", type=int, default=None, help="single-seed override")
    p_sim.set_defaults(func=cmd_simulate)

    p_naurc = sub.add_parser("naurc", help="score curves at a budget")
    p_naurc.add_argument("--curves", nargs="+", required=True, help="curve CSV files (x,y)")
    p_naurc.add_argument("--budget", type=float, required=True)
    p_naurc.add_argument("--mode", choices=("instance", "image"), default="instance",
                         help="accounting mode the curves' x axis uses")
    p_naurc.add_argument("--out", default=None, help="write the table here instead of stdout")
    p_naurc.set_defaults(func=cmd_naurc)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
