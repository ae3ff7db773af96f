"""Command-line entry points: ingest, simulate, naurc.

Exit codes: 0 success, 1 unusable data, failed campaign or unwritable
output, 2 usage error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import math
import os
import sys
from dataclasses import replace
from pathlib import Path

from .dataio import DatasetError, load_dataset, read_raw_export, write_dataset
from .metrics import Curve, naurc
from .records import Dataset, ViewSpec, validate_dataset
from .selection import CORESET_KINDS, STRATEGY_KINDS, DepthFilters, StrategyConfig
from .simulation import CampaignConfig, _whole_numbers, run_campaign

__all__ = ["main"]

logger = logging.getLogger(__name__)


def _config_hash(obj) -> str:
    canonical = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:12]


class _UsageError(Exception):
    """A bad command line or run configuration: exit 2."""


class _RunError(Exception):
    """A failed campaign, an empty export or an unwritable output: exit 1."""


def _write_atomically(directory: Path, texts: dict[str, str]) -> None:
    """Make ``directory`` and write each text to its named file there.
    Every text goes to a temporary file beside its file before any is
    moved into place, so a failed write leaves no file with partial
    contents; the failure is raised as ``cannot write <directory>``."""
    temps: dict[Path, Path] = {}
    try:
        directory.mkdir(parents=True, exist_ok=True)
        for name, text in texts.items():
            temps[directory / name] = temp = directory / f"{name}.tmp"
            temp.write_text(text, encoding="utf-8")
        for path, temp in temps.items():
            os.replace(temp, path)
    except OSError as exc:
        raise _RunError(f"cannot write {directory}: {exc}") from None
    finally:
        for temp in temps.values():
            temp.unlink(missing_ok=True)


# ---------------------------------------------------------------- ingest


def cmd_ingest(args) -> int:
    dataset = read_raw_export(args.input)
    if not dataset.instances:
        raise _RunError("empty dataset (no instance records)")
    violations = validate_dataset(dataset)
    if violations:
        for v in violations:
            print(f"violation: {v}", file=sys.stderr)
        return 1

    out_dir = Path(args.output)
    manifest = out_dir / "manifest.jsonl"
    try:
        write_dataset(dataset, manifest)
    except OSError as exc:
        raise _RunError(f"cannot write {out_dir}: {exc}") from None
    print(manifest)
    return 0


# -------------------------------------------------------------- simulate


# The documented keys of each object of a run configuration.
_KNOWN_KEYS = {
    "config": ("dataset", "strategy", "campaign", "seeds", "output"),
    "strategy": ("kind", "views", "far_depth_filters"),
    "far_depth_filters": ("min_px_height", "max_depth"),
    "campaign": ("round_budgets", "H", "initial_fraction", "alpha", "delta", "min_px_height", "pca_var_keep"),
}


def _only_known_keys(obj: dict, name: str) -> None:
    """Refuse a key of the config object ``name`` that it does not document."""
    unknown = [k for k in obj if k not in _KNOWN_KEYS[name]]
    if unknown:
        raise _UsageError(f"{name}: unknown key {unknown[0]!r}; known keys: {', '.join(_KNOWN_KEYS[name])}")


def _object(obj: dict, key: str) -> dict:
    """``obj[key]``, default ``{}``; anything but a JSON object, or one
    with an undocumented key, is refused."""
    value = obj.get(key, {})
    if not isinstance(value, dict):
        raise _UsageError(f"{key} must be a JSON object, got {value!r}")
    _only_known_keys(value, key)
    return value


def _required(obj: dict, name: str, key: str):
    """``obj[key]``; a key absent from the config object ``name`` is refused."""
    if key not in obj:
        raise _UsageError(f"{name}: missing key {key!r}")
    return obj[key]


def _numbers(obj: dict, keys) -> dict[str, float]:
    """The numbers ``obj`` sets among ``keys``, as floats. A null or absent
    key is left out, so its field keeps its dataclass default; a string,
    list, object, boolean, NaN or infinity is refused with a message
    naming the key."""
    numbers = {}
    for key in keys:
        value = obj.get(key)
        if value is None:
            continue
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise _UsageError(f"{key} must be a number, got {value!r}")
        try:
            number = float(value)
        except OverflowError:  # a JSON integer beyond the float range
            number = math.inf
        if not math.isfinite(number):
            raise _UsageError(f"{key} must be a finite number, got {number!r}")
        numbers[key] = number
    return numbers


def _string(key: str, value) -> str:
    """``value``, refused with a message naming ``key`` unless it is a JSON string."""
    if not isinstance(value, str):
        raise _UsageError(f"{key} must be a string, got {value!r}")
    return value


def _strategy_keys(cfg: dict) -> tuple[str, list | None, DepthFilters]:
    """The ``strategy`` object's kind, view names (None when absent) and
    depth filters, checked without the dataset."""
    kind = _required(cfg, "strategy", "kind")
    if kind not in STRATEGY_KINDS:
        raise _UsageError(
            f"unknown strategy {kind!r}; valid strategies: {', '.join(STRATEGY_KINDS)}"
        )
    view_names = cfg.get("views")
    if not isinstance(view_names, (list, type(None))):
        raise _UsageError(f"views must be a list of view names, got {view_names!r}")
    filters = _numbers(_object(cfg, "far_depth_filters"), _KNOWN_KEYS["far_depth_filters"])
    return kind, view_names, DepthFilters(**filters)


def _resolve_views(view_names: list | None, kind: str, dataset: Dataset) -> tuple[ViewSpec, ...]:
    """The named views of ``dataset``; greedy kinds default to all of them."""
    if view_names is None and kind in CORESET_KINDS:
        view_names = [v.name for v in dataset.views]
    try:
        return tuple(dataset.view(name) for name in (view_names or []))
    except KeyError as exc:
        known = ", ".join(v.name for v in dataset.views)
        raise _UsageError(f"views: {exc.args[0]}; the dataset has {known}") from None


def _curve_lines(curve: Curve, provenance: str) -> str:
    # A covering radius falls as labels are added: ``naurc`` ranks these
    # curves lowest first.
    lines = [f"# {provenance} better=lower", "x,y"]
    for p in curve.points:
        lines.append(f"{p.x!r},{p.y!r}")
    return "\n".join(lines) + "\n"


def cmd_simulate(args) -> int:
    config_path = Path(args.config)
    try:
        cfg_obj = json.loads(config_path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise _UsageError(f"cannot read config: {exc}") from None

    try:
        if not isinstance(cfg_obj, dict):
            raise _UsageError("config must be a JSON object")
        _only_known_keys(cfg_obj, "config")
        # The config's seeds are checked even when --seed replaces them.
        seeds = _whole_numbers("seeds", cfg_obj.get("seeds", [0]))
        if not seeds:
            raise _UsageError("config must list at least one seed")
        repeated = sorted({s for s in seeds if seeds.count(s) > 1})
        if repeated:
            raise _UsageError(f"seeds must not repeat, got {', '.join(map(str, repeated))} more than once")
        if min(seeds) < 0:
            raise _UsageError(f"seeds must be >= 0, got {', '.join(map(str, seeds))}")
        if args.seed is not None:
            if args.seed < 0:
                raise _UsageError(f"--seed must be >= 0, got {args.seed}")
            seeds = (args.seed,)
        dataset_path = Path(_string("dataset", _required(cfg_obj, "config", "dataset")))
        if not dataset_path.is_absolute():
            dataset_path = config_path.parent / dataset_path
        output = _string("output", cfg_obj.get("output", "runs"))
        campaign = _object(cfg_obj, "campaign")
        round_budgets = _whole_numbers("round_budgets", _required(campaign, "campaign", "round_budgets"))
        numbers = _numbers(campaign, _KNOWN_KEYS["campaign"][1:])  # every key after round_budgets
        settings = {"h_scale" if key == "H" else key: value for key, value in numbers.items()}
        kind, view_names, filters = _strategy_keys(_object(cfg_obj, "strategy"))
        if settings.get("initial_fraction") == 0.0:
            raise _UsageError("initial_fraction must be > 0: the covering-radius curve needs a labeled set")
    except ValueError as exc:
        raise _UsageError(exc) from None

    dataset = load_dataset(dataset_path)

    # The strategy's views come from the dataset; every seed runs this
    # config with its own strategy seed.
    try:
        views = _resolve_views(view_names, kind, dataset)
        strategy = StrategyConfig(kind=kind, views=views, far_depth_filters=filters)
        ccfg = CampaignConfig(strategy=strategy, round_budgets=round_budgets, **settings)
    except ValueError as exc:
        raise _UsageError(exc) from None

    out_dir = Path(args.out) if args.out else Path(output)
    _write_atomically(out_dir, {})  # refuses an unwritable --out before any campaign runs
    chash = _config_hash(cfg_obj)

    curves = []
    for seed in seeds:
        seeded = replace(ccfg, strategy=replace(ccfg.strategy, seed=seed))
        try:
            curve, state = run_campaign(seeded, dataset)
        except ValueError as exc:
            raise _RunError(exc) from None
        curves.append(curve)

        final = {
            "config_hash": chash,
            "seed": seed,
            "rounds": state.round_index,
            "requested_total": state.requested_total,
            "labeled_gt_count": len(state.labeled_gt),
            "labeled_images": sorted(state.labeled_images),
        }
        _write_atomically(out_dir / f"seed_{seed}", {
            "curve.csv": _curve_lines(curve, f"config={chash} seed={seed}"),
            "rounds.jsonl": "".join(
                json.dumps(ev.to_json(), sort_keys=True) + "\n" for log in state.history for ev in log.events
            ),
            "state.json": json.dumps(final, sort_keys=True, indent=2) + "\n",
        })

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
    _write_atomically(out_dir, {"curve_mean.csv": _curve_lines(mean_curve, f"config={chash} seeds={seeds_str}")})
    print(out_dir)
    return 0


# ----------------------------------------------------------------- naurc


def _read_curve(path) -> tuple[Curve, bool]:
    """A curve CSV's curve, and whether lower is better: a ``#`` line
    carrying the token ``better=lower``, as ``simulate`` writes. Any other
    curve, such as detector AP, is higher-is-better."""
    pairs = []
    lower = False
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = line.strip()
        if line.startswith("#"):
            lower = lower or "better=lower" in line.split()
            continue
        if not line or line.lower().startswith("x,"):
            continue
        try:
            x_str, y_str = line.split(",")
            pairs.append((float(x_str), float(y_str)))
        except ValueError:
            raise ValueError(f"{path}:{lineno}: malformed curve row {line!r}, expected two numbers x,y") from None
    if not pairs:
        raise ValueError(f"{path}: empty curve")
    return Curve.from_pairs(pairs), lower


def read_curve_csv(path) -> Curve:
    return _read_curve(path)[0]


def _method_names(paths) -> list[str]:
    stems = [Path(p).stem for p in paths]
    if len(set(stems)) == len(stems):
        return stems
    qualified = [f"{Path(p).parent.name}/{Path(p).stem}" for p in paths]
    if len(set(qualified)) == len(qualified):
        return qualified
    return [str(Path(p)) for p in paths]


def cmd_naurc(args) -> int:
    if not math.isfinite(args.budget):
        raise _UsageError(f"--budget must be a finite number, got {args.budget!r}")
    scored: list[tuple[str, float]] = []
    failed: list[str] = []
    lower_is_better: dict[str, bool] = {}
    for path, method in zip(args.curves, _method_names(args.curves)):
        try:
            curve, lower_is_better[method] = _read_curve(path)
            scored.append((method, naurc(curve, args.budget)))
        except (OSError, ValueError) as exc:
            print(f"error: {method}: {exc}", file=sys.stderr)
            failed.append(method)

    lower = [method for method, low in lower_is_better.items() if low]
    higher = [method for method, low in lower_is_better.items() if not low]
    if lower and higher:
        raise _UsageError(
            f"cannot rank lower-is-better curves ({', '.join(lower)}) "
            f"with higher-is-better ones ({', '.join(higher)})"
        )
    # Best first in the curves' shared direction, ties by name.
    scored.sort(key=lambda mv: (mv[1] if lower else -mv[1], mv[0]))
    lines = [f"# budget={args.budget!r}", "method,budget,naurc"]
    for method, value in scored:
        lines.append(f"{method},{args.budget!r},{value!r}")
    for method in failed:
        lines.append(f"{method},{args.budget!r},error")
    text = "\n".join(lines) + "\n"
    if args.out:
        out = Path(args.out)
        _write_atomically(out.parent, {out.name: text})
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
    p_naurc.add_argument("--out", default=None, help="write the table here instead of stdout")
    p_naurc.set_defaults(func=cmd_naurc)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (_UsageError, DatasetError, _RunError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, _UsageError) else 1


if __name__ == "__main__":
    sys.exit(main())
