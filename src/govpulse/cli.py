"""Command-line surface: runs the pipeline end-to-end and writes artifacts.

Subcommands: ingest, metrics, describe, regress, iv, synth, report. Every run
writes its outputs atomically (temp file + rename) together with a
``run_manifest.json`` recording the resolved configuration, sha256 digests of
the inputs and the tool version. Exit codes: 0 success, 1 failed run (bad
input file, bad option value, violated identity or any other error), 2 usage
error.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import sys
import traceback
from pathlib import Path

import numpy as np

import govpulse
from govpulse import centrality, econ, factorlab, profiles, report, synthgov
from govpulse.govdata import (
    FACTORS_HEADER,
    REGRESSION_CATEGORIES,
    SchemaError,
    atomic_open,
    exact_sum,
    factor_rows,
    load_factors,
    load_vote_log,
    validate_dataset,
    write_factors,
    write_vote_log,
)


class PipelineError(Exception):
    """A run that cannot go on, such as a bad option value or a violated
    identity: exit code 1."""


def _atomic_write(path: Path, data: str) -> None:
    with atomic_open(path) as handle:
        handle.write(data)


def _write_csv(path: Path, rows: list[list[str]]) -> None:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerows(rows)
    _atomic_write(path, buffer.getvalue())


def _sha256(path: str | Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


class Run:
    """Collects outputs and writes the manifest at the end of a command."""

    def __init__(self, command: str, args: argparse.Namespace) -> None:
        self.command = command
        self.out_dir = Path(args.out_dir)
        self.config = {
            key: (str(value) if isinstance(value, Path) else value)
            for key, value in sorted(vars(args).items())
            if key != "func"
        }
        self.inputs: dict[str, str] = {}
        self.outputs: list[str] = []
        self.formats = [f.strip() for f in getattr(args, "formats", "csv,markdown").split(",") if f.strip()]
        for fmt in self.formats:
            if fmt not in ("csv", "markdown", "svg"):
                raise PipelineError(f"unknown output format: {fmt}")
        if not self.formats:
            raise PipelineError("at least one output format is required")

    def digest_input(self, label: str, path: str | Path | None) -> None:
        if path is not None and Path(path).exists():
            self.inputs[f"{label}:{path}"] = _sha256(path)

    def emit_csv(self, name: str, rows: list[list[str]]) -> None:
        if "csv" in self.formats:
            path = self.out_dir / name
            _write_csv(path, rows)
            self.outputs.append(name)

    def emit_text(self, name: str, text: str) -> None:
        path = self.out_dir / name
        _atomic_write(path, text)
        self.outputs.append(name)

    def emit_markdown(self, name: str, text: str) -> None:
        if "markdown" in self.formats:
            self.emit_text(name, text)

    def emit_svg(self, name: str, text: str) -> None:
        if "svg" in self.formats:
            self.emit_text(name, text)

    def finish(self, status: str, error: str = "") -> None:
        manifest = {
            "tool": "govpulse",
            "version": govpulse.__version__,
            "command": self.command,
            "status": status,
            "error": error,
            "config": self.config,
            "inputs": self.inputs,
            "outputs": sorted(self.outputs),
        }
        _atomic_write(self.out_dir / "run_manifest.json", json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _load_log(args: argparse.Namespace, run: Run):
    run.digest_input("votes", args.votes)
    run.digest_input("polls", args.polls)
    identities = getattr(args, "identities", None)
    run.digest_input("identities", identities)
    return load_vote_log(args.votes, args.polls, identities)


def _structural_checks(poll_metrics_rows, profile_rows) -> None:
    """Documented identities, asserted by ``describe`` and ``report``: the
    commands that hold both the poll metrics and the voter profiles."""
    for pm in poll_metrics_rows:
        if pm.largest_share_win > pm.largest_share + 1e-12:
            raise PipelineError(
                f"identity violated: largest_share_win > largest_share in poll {pm.poll_id}"
            )
    total_by_polls = exact_sum(pm.total_votes for pm in poll_metrics_rows)
    total_by_voters = exact_sum(p.total_votes for p in profile_rows)
    if total_by_voters != total_by_polls:
        raise PipelineError(
            "identity violated: voter totals do not add up to poll totals "
            f"({total_by_voters} != {total_by_polls})"
        )


def cmd_ingest(args: argparse.Namespace, run: Run) -> None:
    log = _load_log(args, run)
    scan = validate_dataset(log)
    scan.anomalies = log.report.anomalies + scan.anomalies  # rows skipped while loading come first
    run.emit_csv("validation.csv", report.validation_csv(scan))
    summary = (
        f"events: {scan.events}\npolls: {scan.polls}\nvoters: {scan.voters}\n"
        f"anomalies: {len(scan.anomalies)}\n"
    )
    run.emit_text("ingest_summary.txt", summary)
    print(summary, end="")


def _measure(args: argparse.Namespace, log) -> tuple[centrality.BallotPass, list[centrality.DailyMetrics]]:
    """The run's one ballot pass and the rows of the days with polls derived
    from it. Only ``metrics`` and ``report`` take --calendar and fill the
    calendar: filler days carry no measures."""
    passed = centrality.ballot_pass(log, ballot_rule=args.ballot, order_rule=args.order)
    return passed, centrality.daily_from_pass(passed, daily_gini_mode=args.daily_gini)


def _emit_descriptives(
    run: Run, passed: centrality.BallotPass, log
) -> tuple[list[profiles.VoterProfile], dict[str, profiles.SummaryStats]]:
    """Voter profiles, checked against the poll totals, and the descriptive
    tables shared by ``describe`` and ``report``; returns the profiles and
    the voter summary statistics."""
    profile_rows = profiles.profiles_from_pass(passed, log.identities)
    _structural_checks(passed.polls, profile_rows)
    stats = profiles.describe_polls(passed.polls)
    run.emit_csv("poll_descriptives.csv", report.descriptives_csv(stats, profiles.POLL_DESCRIPTIVE_COLUMNS))
    run.emit_markdown("poll_descriptives.md", report.poll_descriptives_table(stats))
    run.emit_csv("profiles.csv", report.profiles_csv(profile_rows))
    voter_stats = profiles.voter_descriptives(profile_rows)
    run.emit_markdown("voter_descriptives.md", report.voter_descriptives_table(voter_stats))
    return profile_rows, voter_stats


def cmd_metrics(args: argparse.Namespace, run: Run) -> None:
    passed, daily = _measure(args, _load_log(args, run))
    if args.calendar == "full-calendar":
        daily = centrality.fill_calendar(daily, passed.poll_counts)
    run.emit_csv("metrics.csv", report.metrics_csv(daily))
    per_poll = passed.polls
    rows = [["poll_id", "date", "total_votes", "voters", "gini", "largest_share",
             "ifwin", "largest_share_win", "order", "speed_seconds"]]
    for pm in per_poll:
        rows.append([
            str(pm.poll_id), pm.day.isoformat(), str(pm.total_votes), str(pm.voters),
            repr(pm.gini), repr(pm.largest_share), str(pm.ifwin),
            repr(pm.largest_share_win), repr(pm.order), repr(pm.speed_seconds),
        ])
    run.emit_csv("poll_metrics.csv", rows)
    print(f"wrote metrics for {len(daily)} days, {len(per_poll)} polls")


def cmd_describe(args: argparse.Namespace, run: Run) -> None:
    log = _load_log(args, run)
    passed = centrality.ballot_pass(log, ballot_rule=args.ballot)
    profile_rows, voter_stats = _emit_descriptives(run, passed, log)
    run.emit_csv("voter_descriptives.csv", report.descriptives_csv(voter_stats, profiles.VOTER_DESCRIPTIVE_COLUMNS))
    for criterion in profiles.RANK_CRITERIA:
        top = profiles.rank_voters(profile_rows, criterion, args.top)
        run.emit_csv(f"top_voters_{criterion}.csv", report.profiles_csv(top))
        run.emit_markdown(f"top_voters_{criterion}.md", report.top_voters_table(top, criterion))
    print(f"described {len(profile_rows)} voters")


def _build_panel(args: argparse.Namespace, run: Run, measures: dict[str, dict]):
    run.digest_input("factors", args.factors)
    raw = load_factors(args.factors)
    panel = factorlab.build_panel(raw, measures, vol_mode=args.vol)
    run.emit_csv("panel.csv", [FACTORS_HEADER, *factor_rows(panel.factors, panel.instrument)])
    return panel


def _parse_tokens(args: argparse.Namespace, panel) -> list[str]:
    if args.tokens:
        return [t.strip() for t in args.tokens.split(",") if t.strip()]
    return panel.tokens()


def _parse_measures(args: argparse.Namespace, default: tuple[str, ...]) -> tuple[str, ...]:
    if not getattr(args, "measures", None):
        return default
    requested = tuple(m.strip() for m in args.measures.split(",") if m.strip())
    unknown = [m for m in requested if m not in centrality.MEASURES]
    if unknown:
        raise PipelineError(f"unknown measures: {', '.join(unknown)}")
    return requested


def _parse_stars(args: argparse.Namespace) -> tuple[float, float, float]:
    raw = getattr(args, "alpha_stars", None)
    if not raw:
        return econ.STAR_THRESHOLDS
    parts = [float(x) for x in raw.split(",")]
    if len(parts) != 3 or not parts[0] > parts[1] > parts[2] > 0:
        raise PipelineError("--alpha-stars needs three descending thresholds, e.g. 0.10,0.05,0.01")
    return tuple(parts)  # type: ignore[return-value]


def _emit_panel_notes(run: Run, args: argparse.Namespace, stars: tuple[float, float, float]) -> None:
    scaling = "raw variables" if args.raw else "z-scored over each aligned sample"
    run.emit_text(
        "panel_notes.txt",
        "volatility: rolling sample std of "
        f"{'log' if args.vol == 'log' else 'simple'} daily returns, no annualization\n"
        f"regression variables: {scaling}\n"
        f"significance stars: * p<={stars[0]}, ** p<={stars[1]}, *** p<={stars[2]}\n"
        "standard errors: classical (homoskedastic); 2SLS second stage uses "
        "residuals against the actual regressor\n",
    )


def _emit_ols(
    args: argparse.Namespace,
    run: Run,
    panel: factorlab.BuiltPanel,
    tokens: list[str],
    stars: tuple[float, float, float],
) -> econ.RegressionGrid:
    grid = econ.run_factor_matrix(
        panel,
        tokens=tokens,
        measures=_parse_measures(args, centrality.MEASURES),
        standardize=not args.raw,
        star_thresholds=stars,
    )
    run.emit_csv("ols_grid.csv", report.grid_csv(grid))
    for token in tokens:
        for category in REGRESSION_CATEGORIES:
            run.emit_markdown(f"ols_{token}_{category}.md", report.regression_table(grid, token, category))
        run.emit_markdown(f"effects_{token}.md", report.effects_summary(grid, token, alpha=stars[0]))
    return grid


def _emit_iv(
    args: argparse.Namespace,
    run: Run,
    panel: factorlab.BuiltPanel,
    tokens: list[str],
    stars: tuple[float, float, float],
) -> econ.RegressionGrid:
    grid = econ.run_iv_suite(
        panel,
        measures=_parse_measures(args, econ.IV_DEFAULT_MEASURES),
        tokens=tokens,
        standardize=not args.raw,
        star_thresholds=stars,
    )
    run.emit_csv("iv_grid.csv", report.grid_csv(grid))
    screen = econ.instrument_screen(panel.instrument, panel.measures, stars)
    run.emit_csv("instrument_screen.csv", report.instrument_csv(screen))
    run.emit_markdown("instrument_screen.md", report.instrument_table(screen))
    for token in tokens:
        for category in REGRESSION_CATEGORIES:
            run.emit_markdown(f"iv_{token}_{category}.md", report.iv_table(grid, token, category))
    return grid


def cmd_regress(args: argparse.Namespace, run: Run) -> None:
    _, daily = _measure(args, _load_log(args, run))
    panel = _build_panel(args, run, factorlab.measures_from_daily(daily))
    stars = _parse_stars(args)
    grid = _emit_ols(args, run, panel, _parse_tokens(args, panel), stars)
    _emit_panel_notes(run, args, stars)
    print(f"ols grid: {len(grid.cells)} cells, {len(grid.ok_cells())} fitted")


def cmd_iv(args: argparse.Namespace, run: Run) -> None:
    _, daily = _measure(args, _load_log(args, run))
    panel = _build_panel(args, run, factorlab.measures_from_daily(daily))
    if not panel.instrument:
        raise PipelineError("factors file has no instrument rows (category=instrument)")
    stars = _parse_stars(args)
    grid = _emit_iv(args, run, panel, _parse_tokens(args, panel), stars)
    _emit_panel_notes(run, args, stars)
    print(f"iv grid: {len(grid.cells)} cells, {len(grid.ok_cells())} fitted")


def cmd_synth(args: argparse.Namespace, run: Run) -> None:
    if args.config:
        run.digest_input("config", args.config)
        config = synthgov.SynthConfig.from_json(args.config)
    else:
        config = synthgov.SynthConfig()
    if args.seed is not None:
        config.seed = args.seed
    log = synthgov.gen_history(config)
    out = Path(args.out_dir)
    write_vote_log(log, out / "votes.csv", out / "polls.csv")
    run.outputs.extend(["votes.csv", "polls.csv"])
    daily = centrality.daily_from_pass(centrality.ballot_pass(log))
    plan = _default_panel_plan(args.tokens.split(",") if args.tokens else ["MKR", "DAI"])
    bundle = synthgov.gen_panel(daily, plan, seed=config.seed + 1)
    write_factors(bundle.panel, out / "factors.csv")
    run.outputs.append("factors.csv")
    run.emit_text("synth_config.json", json.dumps(config.to_dict(), indent=2, sort_keys=True) + "\n")
    print(f"synthesized {len(log.registry)} polls, {len(log.events)} events over {config.days} days")


def _default_panel_plan(tokens: list[str]) -> synthgov.PanelPlan:
    """A plausible planted panel: every catalogue factor gets mild loadings."""
    factor_plans = []
    for token in tokens:
        token = token.strip()
        for i, spec in enumerate(factorlab.catalogue_for(token)):
            if spec.name in factorlab.DERIVED_FINANCIAL:
                continue  # r and volatilities are derived from Price downstream
            loadings = {
                "Voters": 0.3 if i % 3 == 0 else 0.0,
                "Speed": 0.2 if i % 4 == 0 else 0.0,
                "LargestShare": -0.25 if i % 5 == 0 else 0.0,
            }
            base = 100.0 if spec.name == "Price" else 10.0
            factor_plans.append(
                synthgov.FactorPlan(
                    token=token,
                    category=spec.category,
                    factor=spec.name,
                    intercept=base,
                    loadings={k: v for k, v in loadings.items() if v},
                    noise_std=1.0,
                )
            )
    return synthgov.PanelPlan(factors=factor_plans)


def cmd_report(args: argparse.Namespace, run: Run) -> None:
    log = _load_log(args, run)
    passed, daily = _measure(args, log)
    per_poll = passed.polls
    daily_full = centrality.fill_calendar(daily, passed.poll_counts)
    profile_rows, _ = _emit_descriptives(run, passed, log)
    run.emit_csv("metrics.csv", report.metrics_csv(daily_full if args.calendar == "full-calendar" else daily))
    run.emit_markdown(
        "gini_summary.md",
        report.gini_summary_table([pm.gini for pm in per_poll], [m.gini for m in daily_full]),
    )
    measures = factorlab.measures_from_daily(daily)
    run.emit_markdown("measures_summary.md", report.measures_summary_table(measures))

    run.emit_csv("fig_daily_counts.csv", report.daily_counts_csv(daily_full))
    run.emit_csv("fig_poll_votes.csv", report.poll_scatter_csv(per_poll))
    run.emit_csv("fig_gini_series.csv", report.gini_series_csv(per_poll, daily_full))
    totals = [p.total_votes for p in profile_rows]
    top = max(totals, default=0)
    if not math.isfinite(float(top)):  # a total beyond float range; the curve is scale-free
        totals = [total / top for total in totals]
    curve = centrality.lorenz_points(np.array([float(total) for total in totals]))
    run.emit_csv("fig_lorenz.csv", report.lorenz_csv(curve))
    run.emit_svg(
        "fig_daily_counts.svg",
        report.svg_line_chart(
            {
                "polls": [(i, float(m.poll_count)) for i, m in enumerate(daily_full)],
                "voters": [(i, float(m.voters)) for i, m in enumerate(daily_full)],
            },
            "daily polls and voters",
        ),
    )
    run.emit_svg(
        "fig_lorenz.svg",
        report.svg_line_chart({"lorenz": list(curve), "equality": [(0.0, 0.0), (1.0, 1.0)]}, "lorenz curve"),
    )

    if args.factors:
        panel = _build_panel(args, run, measures)
        tokens = _parse_tokens(args, panel)
        stars = _parse_stars(args)
        _emit_ols(args, run, panel, tokens, stars)
        _emit_panel_notes(run, args, stars)
        if panel.instrument:
            _emit_iv(args, run, panel, tokens, stars)
    print(f"report written to {run.out_dir}")


def _add_io_flags(parser: argparse.ArgumentParser, factors: str = "none") -> None:
    parser.add_argument("--votes", required=True, help="votes.csv path")
    parser.add_argument("--polls", required=True, help="polls.csv path")
    parser.add_argument("--identities", default=None, help="identities.csv path")
    if factors == "required":
        parser.add_argument("--factors", required=True, help="factors.csv path")
    elif factors == "optional":
        parser.add_argument("--factors", default=None, help="factors.csv path")


def _add_metric_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--ballot", choices=("last", "first"), default="last")
    parser.add_argument("--order", choices=("last", "first"), default="last")
    parser.add_argument("--daily-gini", dest="daily_gini", choices=centrality.DAILY_GINI_MODES, default="mle")


def _add_regression_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--tokens", default=None, help="comma-separated token list")
    parser.add_argument("--measures", default=None, help="comma-separated measure subset")
    parser.add_argument("--raw", action="store_true", help="disable z-scoring of regression variables")
    parser.add_argument("--vol", choices=("simple", "log"), default="simple")
    parser.add_argument("--alpha-stars", dest="alpha_stars", default=None,
                        help="three descending star thresholds, e.g. 0.10,0.05,0.01")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="govpulse",
        description="governance centralization metrics and factor regressions",
    )
    parser.add_argument("--version", action="version", version=f"govpulse {govpulse.__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="load and validate a voting history")
    _add_io_flags(p)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--formats", default="csv,markdown")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("metrics", help="compute daily centralization measures")
    _add_io_flags(p)
    p.add_argument("--calendar", choices=centrality.CALENDAR_MODES, default="drop-missing")
    _add_metric_flags(p)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--formats", default="csv,markdown")
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser("describe", help="poll and voter descriptive statistics")
    _add_io_flags(p)
    p.add_argument("--ballot", choices=("last", "first"), default="last")
    p.add_argument("--top", type=int, default=10)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--formats", default="csv,markdown")
    p.set_defaults(func=cmd_describe)

    p = sub.add_parser("regress", help="univariate OLS factor grid")
    _add_io_flags(p, factors="required")
    _add_metric_flags(p)
    _add_regression_flags(p)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--formats", default="csv,markdown")
    p.set_defaults(func=cmd_regress)

    p = sub.add_parser("iv", help="2SLS IV suite with endogeneity diagnostics")
    _add_io_flags(p, factors="required")
    _add_metric_flags(p)
    _add_regression_flags(p)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--formats", default="csv,markdown")
    p.set_defaults(func=cmd_iv)

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    p.add_argument("--config", default=None, help="SynthConfig JSON path")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--tokens", default="MKR,DAI")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("report", help="full pipeline: tables and figure data")
    _add_io_flags(p, factors="optional")
    p.add_argument("--calendar", choices=centrality.CALENDAR_MODES, default="drop-missing")
    _add_metric_flags(p)
    _add_regression_flags(p)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--formats", default="csv,markdown")
    p.set_defaults(func=cmd_report)
    return parser


def exec_command(argv: list[str]) -> int:
    """Parse argv and run one subcommand; returns the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    run = None
    try:
        run = Run(args.command, args)
        args.func(args, run)
        run.finish("ok")
        return 0
    except (PipelineError, SchemaError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        error = str(exc)
    except Exception as exc:
        traceback.print_exc(file=sys.stderr)
        error = f"{type(exc).__name__}: {exc}"
    if run is not None:
        run.finish("failed", error=error)
    return 1


def main() -> None:
    sys.exit(exec_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
