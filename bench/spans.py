"""Spans recorded around calls into alsim's modules, and the per-layer
breakdown computed from them.

The tracer replaces a function at the name its caller binds (for
example ``alsim.simulation.match_request``, which is what ``run_round``
calls) with a wrapper that records a span: name, start, end, parent span
and a work count. Spans stay in memory and the child process writes them
out when its run ends. Every run records the few spans that give the
end-to-end phase times; a traced run records every layer below.
"""

from __future__ import annotations

import functools
import statistics
import time

# Span fields, in the order they are stored and written.
NAME, START, END, PARENT, COUNT = range(5)


class Tracer:
    """In-memory span recorder for one run; spans share ``run_id``."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self._stack = [-1]

    def _open(self, name: str) -> list:
        rec = [name, time.monotonic(), 0.0, self._stack[-1], 0]
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        return rec

    def _close(self, rec: list) -> None:
        self._stack.pop()
        rec[END] = time.monotonic()

    def wrap(self, fn, name: str, count=None):
        """Return ``fn`` recording one span per call; ``count(args, result)``
        gives the span's work count."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if count is not None:
                rec[COUNT] = count(args, result)
            return result

        return traced

    def wrap_generator(self, fn, name: str):
        """Like ``wrap`` for a generator function: one span per ``next()``,
        counting 1 for each item yielded."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            gen = fn(*args, **kwargs)
            while True:
                rec = self._open(name)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    self._close(rec)
                rec[COUNT] = 1
                yield item

        return traced

    def patch(self, owner, attr: str, name: str, count=None) -> None:
        setattr(owner, attr, self.wrap(getattr(owner, attr), name, count))

    def install(self, full: bool) -> None:
        """Wrap the phase boundaries; with ``full``, every traced layer."""
        import alsim.cli as cli
        import alsim.dataio as dataio
        import alsim.features as features
        import alsim.metrics as metrics
        import alsim.simulation as simulation

        for owner in (cli, dataio):
            self.patch(owner, "load_dataset", "dataio.load_dataset")
        for owner in (cli, simulation):
            self.patch(owner, "run_campaign", "simulation.run_campaign")
        self.patch(cli, "cmd_ingest", "cli.cmd_ingest")
        if not full:
            return
        self.patch(cli, "cmd_simulate", "cli.cmd_simulate")
        self.patch(cli, "write_dataset", "dataio.write_dataset")
        for owner in (cli, metrics):
            self.patch(owner, "naurc", "metrics.naurc")
        for owner in (cli, dataio):
            self.patch(owner, "validate_dataset", "records.validate_dataset")
        self.patch(dataio, "read_blob", "dataio.read_blob", lambda a, r: r.size * 4 + 12)
        self.patch(
            features.FusedCosineMetric, "pairwise", "features.pairwise",
            lambda a, r: len(a[1]) * len(a[2]),
        )
        self.patch(simulation, "compress_views", "features.compress_views")
        simulation.rank_pool = self.wrap_generator(simulation.rank_pool, "selection.rank_pool")
        self.patch(simulation, "covering_radius", "simulation.covering_radius")
        self.patch(simulation, "match_request", "geometry.match_request", lambda a, r: int(r.matched))
        self.patch(simulation, "suppress_duplicate", "geometry.suppress_duplicate", lambda a, r: int(r))
        self.patch(simulation, "run_round", "simulation.run_round")


# ------------------------------------------------------------ breakdown

# Traced functions, with the time the per-layer table names for each:
# "s" is the span's whole duration, "self_s" excludes its child spans.
TIMED = (
    ("dataio.load_dataset", "s"),
    ("dataio.read_blob", "s"),
    ("records.validate_dataset", "s"),
    ("dataio.write_dataset", "s"),
    ("cli.cmd_ingest", "self_s"),
    ("cli.cmd_simulate", "self_s"),
    ("features.pairwise", "s"),
    ("features.compress_views", "s"),
    ("selection.rank_pool", "self_s"),
    ("simulation.covering_radius", "self_s"),
    ("simulation.run_round", "self_s"),
    ("simulation.run_campaign", "self_s"),
    ("geometry.match_request", "s"),
    ("geometry.suppress_duplicate", "s"),
    ("metrics.naurc", "s"),
)
MODULES = ("cli", "dataio", "records", "features", "selection", "simulation", "geometry", "metrics")

# Ratios and the metric each is taken over.
RATIO_BASES = {
    "selection.useful_ratio": "selection.rank_pool.yields",
    "geometry.match_ratio": "geometry.match_request.calls",
    "geometry.suppress_ratio": "geometry.suppress_duplicate.calls",
    "features.pairwise.us_per_kcell": "features.pairwise.cells",
    **{f"{name}.share": "traced.total_s" for name, _ in TIMED},
    **{f"layer.{module}.share": "traced.total_s" for module in MODULES + ("other",)},
}


class _Stat:
    __slots__ = ("calls", "total", "own", "count", "durations")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.own = 0.0
        self.count = 0
        self.durations: list[float] = []


def span_stats(spans) -> dict[str, _Stat]:
    """Per span name: calls, total and self time, summed work count."""
    child_time = [0.0] * len(spans)
    for rec in spans:
        if rec[PARENT] >= 0:
            child_time[rec[PARENT]] += rec[END] - rec[START]
    stats: dict[str, _Stat] = {}
    for i, rec in enumerate(spans):
        st = stats.setdefault(rec[NAME], _Stat())
        duration = rec[END] - rec[START]
        st.calls += 1
        st.total += duration
        st.own += duration - child_time[i]
        st.count += rec[COUNT]
        st.durations.append(duration)
    return stats


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _percentile_us(durations: list[float], q: int) -> float:
    if not durations:
        return 0.0
    if len(durations) == 1:
        return durations[0] * 1e6
    return statistics.quantiles(durations, n=100, method="inclusive")[q - 1] * 1e6


def layer_metrics(spans, total_s: float) -> dict[str, tuple[float, str]]:
    """Every per-layer metric of one traced run, as name -> (value, unit)."""
    stats = span_stats(spans)
    get = lambda name: stats.get(name, _Stat())  # noqa: E731
    m: dict[str, tuple[float, str]] = {"traced.total_s": (total_s, "s")}
    for name, kind in TIMED:
        st = get(name)
        m[f"{name}.{kind}"] = (st.total if kind == "s" else st.own, "s")
        m[f"{name}.share"] = (_ratio(st.own, total_s), "1")
    attributed = 0.0
    for module in MODULES:
        own = sum(st.own for name, st in stats.items() if name.split(".")[0] == module)
        attributed += own
        m[f"layer.{module}.share"] = (_ratio(own, total_s), "1")
    m["layer.other.share"] = (_ratio(total_s - attributed, total_s), "1")

    blob, pw, rank = get("dataio.read_blob"), get("features.pairwise"), get("selection.rank_pool")
    match, supp = get("geometry.match_request"), get("geometry.suppress_duplicate")
    m["dataio.read_blob.bytes"] = (blob.count, "B")
    m["features.pairwise.calls"] = (pw.calls, "count")
    m["features.pairwise.cells"] = (pw.count, "count")
    m["features.pairwise.us_per_kcell"] = (_ratio(pw.total * 1e6, pw.count / 1e3), "us/kcell")
    m["features.compress_views.calls"] = (get("features.compress_views").calls, "count")
    m["selection.rank_pool.yields"] = (rank.count, "count")
    # Every request that survives suppression is charged and matched once.
    m["selection.useful_ratio"] = (_ratio(match.calls, rank.count), "1")
    m["simulation.covering_radius.calls"] = (get("simulation.covering_radius").calls, "count")
    m["simulation.rounds"] = (get("simulation.run_round").calls, "count")
    for prefix, st in (("geometry.match_request", match), ("geometry.suppress_duplicate", supp)):
        m[f"{prefix}.calls"] = (st.calls, "count")
        m[f"{prefix}.p50_us"] = (_percentile_us(st.durations, 50), "us")
        m[f"{prefix}.p99_us"] = (_percentile_us(st.durations, 99), "us")
    m["geometry.match_ratio"] = (_ratio(match.count, match.calls), "1")
    m["geometry.suppress_ratio"] = (_ratio(supp.count, supp.calls), "1")
    m["metrics.naurc.calls"] = (get("metrics.naurc").calls, "count")
    return m
