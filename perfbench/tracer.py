"""Traced in-process run of one govpulse command, and the per-layer metrics.

Run as a child process:

    python3 perfbench/tracer.py --src SRC --out TRACE.json [--delay NAME=SECONDS] -- ARGV...

It imports ``govpulse`` from SRC, replaces the module attributes the layers
call through (``centrality.final_ballots``, ``cli.load_vote_log``,
``econ.run_factor_matrix``, ...) by timing wrappers, runs
``cli.exec_command(ARGV)`` and writes the spans and counts it kept in memory
to TRACE.json. ``--delay`` adds a fixed sleep inside one wrapped function; the
benchmark's own tests use it to check that the comparison flags a slowdown.

``layer_metrics`` turns such a trace into the per-layer metrics of
BENCHMARK.json. A wrapped function that no longer exists is recorded as
absent and its metrics read 0.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import sys
import time

# layer -> functions wrapped in that layer's module. "Run.digest_input" is a
# method of cli.Run. Report builders are found by name (see _report_builders).
WRAPPED = {
    "cli": ("Run.digest_input", "_write_csv", "_atomic_write"),
    "govdata": ("load_vote_log", "load_factors", "final_ballots", "write_vote_log", "write_factors"),
    "centrality": ("all_poll_metrics", "daily_metrics", "poll_gini", "lorenz_points"),
    "profiles": ("voter_profiles", "poll_descriptives", "voter_descriptives", "rank_voters"),
    "factorlab": ("build_panel", "panel_rows"),
    "econ": ("run_factor_matrix", "run_iv_suite", "instrument_screen"),
    "report": ("pooled_voter_totals",),
    "synthgov": ("gen_history", "_force_outcome", "gen_panel"),
}
ROOT = "cli.exec_command"
REPORT_BUILDER_SUFFIXES = ("_table", "_csv", "_summary", "_chart")


def _report_builders(module) -> list[str]:
    """Public table, CSV-row and SVG builders of the report module."""
    return sorted(
        name for name, value in vars(module).items()
        if callable(value) and not name.startswith("_") and name != "markdown_table"
        and getattr(value, "__module__", None) == module.__name__
        and name.endswith(REPORT_BUILDER_SUFFIXES)
    )


def _size(obj, attr: str | None = None) -> int:
    """len() of a result (or of one of its attributes); 0 when it has none."""
    try:
        return len(getattr(obj, attr) if attr else obj)
    except (AttributeError, TypeError):
        return 0


def _count_result(name: str, args: tuple, result, counts: dict[str, int]) -> None:
    """Exact work counts taken at the layer boundary."""
    def add(key: str, value: int) -> None:
        counts[key] = counts.get(key, 0) + value

    if name in ("govdata.load_vote_log", "synthgov.gen_history"):
        add("events_generated" if name.startswith("synthgov") else "events_loaded", _size(result, "events"))
        add("polls_seen", _size(result, "registry"))
    elif name == "govdata.load_factors":
        add("factor_rows_loaded", _size(result))
    elif name == "centrality.poll_gini":
        n = _size(args[0]) if args else 0
        add("gini_pairs", n * n)
    elif name == "factorlab.build_panel":
        add("series_built", _size(result, "factors"))
    elif name in ("econ.run_factor_matrix", "econ.run_iv_suite"):
        cells = getattr(result, "cells", None) or []
        add("cells", len(cells))
        add("cells_ok", sum(1 for cell in cells if getattr(cell, "status", None) == "ok"))
    elif name == "cli._atomic_write":
        add("files_written", 1)
        try:
            add("bytes_written", os.path.getsize(args[0]))
        except (IndexError, OSError, TypeError):
            pass


class Tracer:
    """Keeps spans (name, start, end, parent, run) and counts in memory."""

    def __init__(self, run_id: str, delays: dict[str, float] | None = None) -> None:
        self.run_id = run_id
        self.delays = delays or {}
        self.spans: list[dict] = []
        self.counts: dict[str, int] = {}
        self.absent: list[str] = []
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append({"name": name, "start": time.perf_counter(), "end": None,
                           "parent": parent, "run": self.run_id})
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self._stack.pop()
        self.spans[index]["end"] = time.perf_counter()

    def wrap(self, name: str, func):
        delay = self.delays.get(name, 0.0)

        def traced(*args, **kwargs):
            index = self.begin(name)
            try:
                if delay:
                    time.sleep(delay)
                result = func(*args, **kwargs)
            finally:
                self.end(index)
            _count_result(name, args, result, self.counts)
            return result

        return traced

    def install(self) -> None:
        """Replace every binding of each wrapped function in govpulse.*."""
        modules = {}
        for layer in WRAPPED:
            try:
                modules[layer] = importlib.import_module(f"govpulse.{layer}")
            except ImportError:
                self.absent.append(layer)
        targets = [(layer, attr) for layer, attrs in WRAPPED.items() if layer in modules for attr in attrs]
        if "report" in modules:
            targets += [("report", attr) for attr in _report_builders(modules["report"])]
        for layer, attr in targets:
            owner = modules[layer]
            *outer, leaf = attr.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            original = getattr(owner, leaf, None) if owner is not None else None
            name = f"{layer}.{attr}"
            if original is None:
                self.absent.append(name)
                continue
            wrapper = self.wrap(name, original)
            if outer:
                setattr(owner, leaf, wrapper)
                continue
            for module in list(sys.modules.values()):
                if getattr(module, "__name__", "").startswith("govpulse"):
                    for key, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, key, wrapper)

    def dump(self) -> dict:
        return {"run": self.run_id, "spans": self.spans, "counts": self.counts, "absent": self.absent}


# Per-layer metrics: (name, unit, better, kind, span names or count key).
# kind "cum" sums spans of the given names, not counting a span nested in
# another of the set; "self" sums their self time; "calls" counts spans.
LAYER_METRICS = (
    ("govdata.load_vote_log_s", "s", "lower", "cum", ("govdata.load_vote_log",)),
    ("govdata.events_loaded", "count", "higher", "count", "events_loaded"),
    ("govdata.final_ballots_calls", "count", "lower", "calls", ("govdata.final_ballots",)),
    ("govdata.final_ballots_per_poll", "calls/poll", "lower", "ratio", ("final_ballots_calls", "polls_seen")),
    ("govdata.final_ballots_s", "s", "lower", "cum", ("govdata.final_ballots",)),
    ("govdata.load_factors_s", "s", "lower", "cum", ("govdata.load_factors",)),
    ("govdata.factor_rows_loaded", "count", "higher", "count", "factor_rows_loaded"),
    ("govdata.write_vote_log_s", "s", "lower", "cum", ("govdata.write_vote_log",)),
    ("centrality.daily_metrics_calls", "count", "lower", "calls", ("centrality.daily_metrics",)),
    ("centrality.daily_metrics_self_s", "s", "lower", "self", ("centrality.daily_metrics",)),
    ("centrality.all_poll_metrics_self_s", "s", "lower", "self", ("centrality.all_poll_metrics",)),
    ("centrality.poll_gini_s", "s", "lower", "cum", ("centrality.poll_gini",)),
    ("centrality.gini_pairs", "count", "lower", "count", "gini_pairs"),
    ("centrality.gini_bytes_computed", "B", "lower", "bytes", "gini_pairs"),
    ("profiles.voter_profiles_calls", "count", "lower", "calls", ("profiles.voter_profiles",)),
    ("profiles.voter_profiles_s", "s", "lower", "cum", ("profiles.voter_profiles",)),
    ("profiles.poll_descriptives_s", "s", "lower", "cum", ("profiles.poll_descriptives",)),
    ("factorlab.build_panel_s", "s", "lower", "cum", ("factorlab.build_panel",)),
    ("factorlab.series_built", "count", "higher", "count", "series_built"),
    ("econ.ols_grid_s", "s", "lower", "cum", ("econ.run_factor_matrix",)),
    ("econ.iv_grid_s", "s", "lower", "cum", ("econ.run_iv_suite",)),
    ("econ.instrument_screen_s", "s", "lower", "cum", ("econ.instrument_screen",)),
    ("econ.cells", "count", "higher", "count", "cells"),
    ("econ.cells_ok", "count", "higher", "count", "cells_ok"),
    ("econ.cells_ok_ratio", "ratio", "higher", "ratio", ("cells_ok", "cells")),
    ("report.render_s", "s", "lower", "cum", "report builders"),
    ("report.pooled_voter_totals_s", "s", "lower", "cum", ("report.pooled_voter_totals",)),
    ("cli.emit_s", "s", "lower", "cum", ("cli._write_csv", "cli._atomic_write")),
    ("cli.files_written", "count", "higher", "count", "files_written"),
    ("cli.bytes_written", "B", "higher", "count", "bytes_written"),
    ("cli.digest_input_s", "s", "lower", "cum", ("cli.Run.digest_input",)),
    ("synthgov.gen_history_s", "s", "lower", "cum", ("synthgov.gen_history",)),
    ("synthgov.force_outcome_s", "s", "lower", "cum", ("synthgov._force_outcome",)),
    ("synthgov.events_generated", "count", "higher", "count", "events_generated"),
    ("cli.unattributed_s", "s", "lower", "self", (ROOT,)),
    ("trace.wall_s", "s", "lower", "traced wall", None),
    ("trace.overhead_s", "s", "lower", "overhead", None),
)


def _report_span_names(spans: list[dict]) -> tuple[str, ...]:
    return tuple(sorted({
        s["name"] for s in spans
        if s["name"].startswith("report.") and s["name"] != "report.pooled_voter_totals"
    }))


def layer_metrics(trace: dict, traced_wall: float, untraced_wall: float) -> dict[str, dict]:
    """Per-layer metrics of one traced command, as {name: {value, unit}}."""
    spans = trace["spans"]
    duration = [s["end"] - s["start"] for s in spans]
    child_time = [0.0] * len(spans)
    for s, d in zip(spans, duration):
        if s["parent"] is not None:
            child_time[s["parent"]] += d

    def in_set_ancestor(index: int, names) -> bool:
        parent = spans[index]["parent"]
        while parent is not None:
            if spans[parent]["name"] in names:
                return True
            parent = spans[parent]["parent"]
        return False

    calls: dict[str, int] = {}
    for s in spans:
        calls[s["name"]] = calls.get(s["name"], 0) + 1
    counts = dict(trace["counts"])
    counts["final_ballots_calls"] = calls.get("govdata.final_ballots", 0)

    out = {}
    for name, unit, _better, kind, source in LAYER_METRICS:
        if source == "report builders":
            source = _report_span_names(spans)
        if kind == "cum":
            names = set(source)
            value = sum(d for i, (s, d) in enumerate(zip(spans, duration))
                        if s["name"] in names and not in_set_ancestor(i, names))
        elif kind == "self":
            value = sum(d - child_time[i] for i, (s, d) in enumerate(zip(spans, duration))
                        if s["name"] in source)
        elif kind == "calls":
            value = sum(calls.get(n, 0) for n in source)
        elif kind == "count":
            value = counts.get(source, 0)
        elif kind == "bytes":
            value = 8 * counts.get(source, 0)
        elif kind == "ratio":
            top, base = (counts.get(key, 0) for key in source)
            value = top / base if base else 0.0
        elif kind == "traced wall":
            value = traced_wall
        else:
            value = traced_wall - untraced_wall
        out[name] = {"value": value, "unit": unit}
    return out


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True, help="directory that holds the govpulse package")
    parser.add_argument("--out", required=True, help="trace JSON to write")
    parser.add_argument("--run-id", default="traced")
    parser.add_argument("--delay", action="append", default=[], metavar="NAME=SECONDS")
    parser.add_argument("command", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    command = args.command[1:] if args.command[:1] == ["--"] else args.command
    delays = {}
    for item in args.delay:
        name, _, seconds = item.partition("=")
        delays[name] = float(seconds)

    sys.path.insert(0, os.path.abspath(args.src))
    tracer = Tracer(args.run_id, delays)
    index = tracer.begin("import")
    from govpulse import cli
    tracer.end(index)
    tracer.install()
    index = tracer.begin(ROOT)
    try:
        code = cli.exec_command(command)
    finally:
        tracer.end(index)
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(tracer.dump(), handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
