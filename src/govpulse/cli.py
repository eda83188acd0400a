"""Command-line surface: runs the pipeline end-to-end and writes artifacts.

Subcommands: ingest, metrics, describe, regress, iv, synth, report. Every run
writes its outputs atomically (temp file + rename; CSV rows are streamed into
the temp file, never rendered whole in memory) together with a
``run_manifest.json`` recording the configuration as given, sha256 digests of
the inputs, the count of each kind of anomaly found in them, the count of
each status among the cells of each regression grid fitted (``grids``) and
the tool version. The out-dir is created first, and option values are
checked before any input is read. Exit codes: 0 success, 1 failed run (an
out-dir that cannot be created, bad input file, bad option value, violated
identity or any other error), 2 usage error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import traceback
from collections.abc import Callable, Iterable
from pathlib import Path
from typing import IO

import numpy as np

import govpulse
from govpulse import centrality, econ, factorlab, profiles, report, synthgov
from govpulse.govdata import (
    DERIVED_FINANCIAL,
    REGRESSION_CATEGORIES,
    FactorPanel,
    SchemaError,
    Series,
    ValidationReport,
    Weights,
    atomic_open,
    catalogue_for,
    factor_rows,
    is_known_factor,
    is_token_name,
    load_factors,
    load_vote_log,
    validate_dataset,
    write_factors,
    write_rows,
    write_vote_log,
)


FORMATS = ("csv", "markdown", "svg")
# The --formats value that gates a text artifact, by file suffix; a file with
# any other suffix is always written.
TEXT_FORMATS = {".md": "markdown", ".svg": "svg"}


class PipelineError(Exception):
    """A run that cannot go on, such as a bad option value or a violated
    identity: exit code 1."""


def _atomic_write(path: Path, write: Callable[[IO[str]], object]) -> None:
    """Create ``path`` by calling ``write`` on a handle of a temp file beside
    it; see ``atomic_open``."""
    with atomic_open(path) as handle:
        write(handle)


def _write_csv(path: Path, rows: Iterable[Iterable]) -> None:
    """Stream ``rows`` into ``path`` as CSV lines ending in "\\n"; see ``write_rows``."""
    _atomic_write(path, lambda handle: write_rows(handle.write, rows, "\n"))


def _sha256(path: str | Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


class Run:
    """Creates the out-dir, collects outputs and writes the manifest at the
    end of a command."""

    def __init__(self, args: argparse.Namespace) -> None:
        self.command = args.command
        self.out_dir = Path(args.out_dir)
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.config = {
            key: (str(value) if isinstance(value, Path) else value)
            for key, value in sorted(vars(args).items())
            if key != "func"
        }
        self.inputs: dict[str, str] = {}
        self.outputs: list[str] = []
        self.formats: list[str] = []
        self.found = ValidationReport()  # every anomaly found in the run's inputs
        self.grids: dict[str, dict[str, int]] = {}  # grid kind -> cells of each status

    def digest_input(self, label: str, path: str | Path | None) -> None:
        if path is not None and Path(path).exists():
            self.inputs[f"{label}:{path}"] = _sha256(path)

    def emit_csv(self, name: str, rows: Iterable[Iterable]) -> None:
        """Stream the rows of a CSV artifact into its file if --formats asks for csv."""
        if "csv" in self.formats:
            _write_csv(self.out_dir / name, rows)
            self.outputs.append(name)

    def emit_csv_lines(self, name: str, lines: Iterable[str]) -> None:
        """Like ``emit_csv``, for rows already rendered as CSV lines ending in "\\n"."""
        if "csv" in self.formats:
            _atomic_write(self.out_dir / name, lambda handle: handle.writelines(lines))
            self.outputs.append(name)

    def emit_text(self, name: str, text: str) -> None:
        """Write a text artifact if --formats asks for its kind (see ``TEXT_FORMATS``)."""
        kind = TEXT_FORMATS.get(Path(name).suffix)
        if kind is None or kind in self.formats:
            _atomic_write(self.out_dir / name, lambda handle: handle.write(text))
            self.outputs.append(name)

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
            "anomalies": self.found.counts_by_kind(),
            "grids": self.grids,
        }
        text = json.dumps(manifest, indent=2, sort_keys=True) + "\n"
        _atomic_write(self.out_dir / "run_manifest.json", lambda handle: handle.write(text))


def _load_log(args: argparse.Namespace, run: Run):
    run.digest_input("votes", args.votes)
    run.digest_input("polls", args.polls)
    identities = getattr(args, "identities", None)
    run.digest_input("identities", identities)
    log = load_vote_log(args.votes, args.polls, identities)
    run.found.anomalies += log.report.anomalies
    return log


def _structural_checks(poll_metrics_rows, profile_rows, weights: Weights) -> None:
    """Documented identities, asserted by ``describe`` and ``report``: the
    commands that hold both the poll metrics and the voter profiles. The
    totals are compared as exact ints in the log's weight unit."""
    for pm in poll_metrics_rows:
        if pm.largest_share_win > pm.largest_share + 1e-12:
            raise PipelineError(
                f"identity violated: largest_share_win > largest_share in poll {pm.poll_id}"
            )
    total_by_polls = sum(weights.units_of(pm.total_votes) for pm in poll_metrics_rows)
    total_by_voters = sum(weights.units_of(p.total_votes) for p in profile_rows)
    if total_by_voters != total_by_polls:
        raise PipelineError(
            "identity violated: voter totals do not add up to poll totals "
            f"({total_by_voters} != {total_by_polls} in units of 1E{weights.exponent})"
        )


def cmd_ingest(args: argparse.Namespace, run: Run) -> None:
    log = _load_log(args, run)
    run.found.anomalies += validate_dataset(log).anomalies  # after the rows skipped while loading
    run.emit_csv("validation.csv", report.validation_csv(run.found))
    summary = (
        f"events: {len(log.timestamp)}\npolls: {len(log.registry)}\nvoters: {len(log.addresses)}\n"
        f"anomalies: {len(run.found.anomalies)}\n"
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
    _structural_checks(passed.polls, profile_rows, log.weights)
    stats = profiles.describe_polls(passed.polls)
    run.emit_csv("poll_descriptives.csv", report.descriptives_csv(stats))
    run.emit_text("poll_descriptives.md", report.poll_descriptives_table(stats))
    run.emit_csv("profiles.csv", report.profiles_csv(profile_rows))
    voter_stats = profiles.voter_descriptives(profile_rows)
    run.emit_text("voter_descriptives.md", report.voter_descriptives_table(voter_stats))
    return profile_rows, voter_stats


def cmd_metrics(args: argparse.Namespace, run: Run) -> None:
    passed, daily = _measure(args, _load_log(args, run))
    if args.calendar == "full-calendar":
        daily = centrality.fill_calendar(daily, passed.poll_counts)
    run.emit_csv("metrics.csv", report.metrics_csv(daily))
    run.emit_csv("poll_metrics.csv", report.poll_metrics_csv(passed.polls))
    print(f"wrote metrics for {len(daily)} days, {len(passed.polls)} polls")


def cmd_describe(args: argparse.Namespace, run: Run) -> None:
    log = _load_log(args, run)
    passed = centrality.ballot_pass(log, ballot_rule=args.ballot)
    profile_rows, voter_stats = _emit_descriptives(run, passed, log)
    run.emit_csv("voter_descriptives.csv", report.descriptives_csv(voter_stats))
    for criterion in profiles.RANK_CRITERIA:
        top = profiles.rank_voters(profile_rows, criterion, args.top)
        run.emit_csv(f"top_voters_{criterion}.csv", report.profiles_csv(top))
        run.emit_text(f"top_voters_{criterion}.md", report.top_voters_table(top, criterion))
    print(f"described {len(profile_rows)} voters")


def _load_factors(args: argparse.Namespace, run: Run) -> tuple[FactorPanel, list[str]]:
    """The factors file and the grid's tokens: the --tokens names, each of
    which the file must hold, or else every token it holds. A token is held
    by a series of a catalogue factor; a flagged series names no token."""
    run.digest_input("factors", args.factors)
    raw = load_factors(args.factors)
    held = sorted({key[0] for key in raw.series if is_known_factor(*key)})
    missing = [token for token in args.tokens or () if token not in held]
    if missing:
        raise PipelineError(f"--tokens names tokens the factors file does not hold: {', '.join(missing)}")
    return raw, args.tokens or held


def _emit_panel(
    args: argparse.Namespace, run: Run, raw: FactorPanel, measures: dict[str, Series]
) -> factorlab.BuiltPanel:
    """The regression panel, written as panel.csv, and notes on how its grids are fitted."""
    panel = factorlab.build_panel(raw, measures, vol_mode=args.vol)
    run.found.anomalies += panel.anomalies
    run.emit_csv_lines("panel.csv", factor_rows(panel.factors, panel.instrument, "\n"))
    stars = args.alpha_stars
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
    return panel


def _emit_ols(
    args: argparse.Namespace, run: Run, panel: factorlab.BuiltPanel, tokens: list[str]
) -> econ.RegressionGrid:
    stars = args.alpha_stars
    grid = econ.run_factor_matrix(
        panel,
        tokens=tokens,
        measures=centrality.MEASURES if args.measures is None else args.measures,
        standardize=not args.raw,
    )
    run.grids[grid.kind] = grid.status_counts()
    run.emit_csv("ols_grid.csv", report.grid_csv(grid, stars))
    for token in tokens:
        for category in REGRESSION_CATEGORIES:
            run.emit_text(f"ols_{token}_{category}.md", report.regression_table(grid, token, category, stars))
        run.emit_text(f"effects_{token}.md", report.effects_summary(grid, token, alpha=stars[0]))
    return grid


def _emit_iv(
    args: argparse.Namespace, run: Run, panel: factorlab.BuiltPanel, tokens: list[str]
) -> econ.RegressionGrid:
    stars = args.alpha_stars
    grid = econ.run_iv_suite(
        panel,
        measures=econ.IV_DEFAULT_MEASURES if args.measures is None else args.measures,
        tokens=tokens,
        standardize=not args.raw,
    )
    run.grids[grid.kind] = grid.status_counts()
    run.emit_csv("iv_grid.csv", report.grid_csv(grid, stars))
    screen = econ.instrument_screen(panel.instrument, panel.measures)
    run.emit_csv("instrument_screen.csv", report.instrument_csv(screen, stars))
    run.emit_text("instrument_screen.md", report.instrument_table(screen, stars))
    for token in tokens:
        for category in REGRESSION_CATEGORIES:
            run.emit_text(f"iv_{token}_{category}.md", report.iv_table(grid, token, category, stars))
    return grid


def cmd_regress(args: argparse.Namespace, run: Run) -> None:
    raw, tokens = _load_factors(args, run)
    _, daily = _measure(args, _load_log(args, run))
    panel = _emit_panel(args, run, raw, factorlab.measures_from_daily(daily))
    grid = _emit_ols(args, run, panel, tokens)
    print(f"ols grid: {len(grid.cells)} cells, {len(grid.ok_cells())} fitted")


def cmd_iv(args: argparse.Namespace, run: Run) -> None:
    raw, tokens = _load_factors(args, run)
    if not raw.instrument:
        raise PipelineError("factors file has no instrument rows (category=instrument)")
    _, daily = _measure(args, _load_log(args, run))
    panel = _emit_panel(args, run, raw, factorlab.measures_from_daily(daily))
    grid = _emit_iv(args, run, panel, tokens)
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
    run.found.anomalies += log.report.anomalies
    daily = centrality.daily_from_pass(centrality.ballot_pass(log))
    panel, _ = synthgov.gen_panel(daily, _default_panel_plan(args.tokens), seed=config.seed + 1)
    out = Path(args.out_dir)
    write_vote_log(log, out / "votes.csv", out / "polls.csv")
    run.outputs.extend(["votes.csv", "polls.csv"])
    write_factors(panel, out / "factors.csv")
    run.outputs.append("factors.csv")
    run.emit_text("synth_config.json", json.dumps(config.to_dict(), indent=2, sort_keys=True) + "\n")
    print(f"synthesized {len(log.registry)} polls, {len(log.timestamp)} events over {config.days} days")


def _default_panel_plan(tokens: list[str]) -> list[synthgov.FactorPlan]:
    """A plausible planted panel: every catalogue factor gets mild loadings."""
    factor_plans = []
    for token in tokens:
        for i, spec in enumerate(catalogue_for(token)):
            if spec.name in DERIVED_FINANCIAL:
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
    return factor_plans


def cmd_report(args: argparse.Namespace, run: Run) -> None:
    factors = _load_factors(args, run) if args.factors else None
    log = _load_log(args, run)
    passed, daily = _measure(args, log)
    per_poll = passed.polls
    daily_full = centrality.fill_calendar(daily, passed.poll_counts)
    profile_rows, _ = _emit_descriptives(run, passed, log)
    run.emit_csv("metrics.csv", report.metrics_csv(daily_full if args.calendar == "full-calendar" else daily))
    run.emit_text(
        "gini_summary.md",
        report.gini_summary_table([pm.gini for pm in per_poll], [m.gini for m in daily_full]),
    )
    measures = factorlab.measures_from_daily(daily)
    run.emit_text("measures_summary.md", report.measures_summary_table(measures))

    run.emit_csv("fig_daily_counts.csv", report.daily_counts_csv(daily_full))
    run.emit_csv("fig_poll_votes.csv", report.poll_scatter_csv(per_poll))
    run.emit_csv("fig_gini_series.csv", report.gini_series_csv(per_poll, daily_full))
    totals = [p.total_votes for p in profile_rows]
    top = max(totals, default=0)
    if not math.isfinite(float(top)):  # a total beyond float range; the curve is scale-free
        totals = [total / top for total in totals]
    curve = centrality.lorenz_points(np.array([float(total) for total in totals]))
    run.emit_csv("fig_lorenz.csv", report.lorenz_csv(curve))
    run.emit_text(
        "fig_daily_counts.svg",
        report.svg_line_chart(
            {
                "polls": [(i, float(m.poll_count)) for i, m in enumerate(daily_full)],
                "voters": [(i, float(m.voters)) for i, m in enumerate(daily_full)],
            },
            "daily polls and voters",
        ),
    )
    run.emit_text(
        "fig_lorenz.svg",
        report.svg_line_chart({"lorenz": list(curve), "equality": [(0.0, 0.0), (1.0, 1.0)]}, "lorenz curve"),
    )

    if factors:
        raw, tokens = factors
        panel = _emit_panel(args, run, raw, measures)
        _emit_ols(args, run, panel, tokens)
        if panel.instrument:
            _emit_iv(args, run, panel, tokens)
    print(f"report written to {run.out_dir}")


def _names(raw: str) -> list[str]:
    """The names of a comma list: stripped, blanks and repeats dropped."""
    return list(dict.fromkeys(name.strip() for name in raw.split(",") if name.strip()))


def _resolve_options(args: argparse.Namespace) -> None:
    """Check the option values of a run and replace each, in place, by its
    typed value; runs before any input is read. --formats and --tokens become
    lists of names, --measures a tuple of names (None: the grid's default)
    and --alpha-stars three descending thresholds in (0, 1). ``report``
    takes the grid options only with --factors."""
    given = vars(args)
    if args.command == "report" and args.factors is None:
        grid_only = [flag for flag, set_ in (("--tokens", args.tokens is not None),
                                             ("--measures", args.measures is not None),
                                             ("--alpha-stars", args.alpha_stars is not None),
                                             ("--raw", args.raw)) if set_]
        if grid_only:
            raise PipelineError(f"report takes {', '.join(grid_only)} only with --factors")
    if "formats" in given:
        args.formats = _names(args.formats)
        for fmt in args.formats:
            if fmt not in FORMATS:
                raise PipelineError(f"unknown output format: {fmt}")
        if not args.formats:
            raise PipelineError("at least one output format is required")
    if given.get("tokens") is not None:
        raw, args.tokens = args.tokens, _names(args.tokens)
        if not args.tokens:
            raise PipelineError(f"--tokens names no token: {raw!r}")
        bad = ", ".join(repr(token) for token in args.tokens if not is_token_name(token))
        if bad:
            raise PipelineError(f"--tokens names that hold '/', '\\' or a control character: {bad}")
    if given.get("measures") is not None:
        raw, args.measures = args.measures, tuple(_names(args.measures))
        if not args.measures:
            raise PipelineError(f"--measures names no measure: {raw!r}")
        unknown = [m for m in args.measures if m not in centrality.MEASURES]
        if unknown:
            raise PipelineError(f"unknown measures: {', '.join(unknown)}")
    if "alpha_stars" in given:
        if args.alpha_stars is not None and not _names(args.alpha_stars):
            raise PipelineError(f"--alpha-stars names no threshold: {args.alpha_stars!r}")
        try:
            stars = tuple(map(float, args.alpha_stars.split(","))) if args.alpha_stars else report.STAR_THRESHOLDS
        except ValueError:  # a threshold that is not a number
            stars = ()
        if len(stars) != 3 or not 1 > stars[0] > stars[1] > stars[2] > 0:
            raise PipelineError("--alpha-stars needs three descending thresholds below 1, e.g. 0.10,0.05,0.01")
        args.alpha_stars = stars
    if given.get("top", 1) < 1:
        raise PipelineError("n must be at least 1")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="govpulse",
        description="governance centralization metrics and factor regressions",
    )
    parser.add_argument("--version", action="version", version=f"govpulse {govpulse.__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {}
    for name, func, help_text in (
        ("ingest", cmd_ingest, "load and validate a voting history"),
        ("metrics", cmd_metrics, "compute daily centralization measures"),
        ("describe", cmd_describe, "poll and voter descriptive statistics"),
        ("regress", cmd_regress, "univariate OLS factor grid"),
        ("iv", cmd_iv, "2SLS IV suite with endogeneity diagnostics"),
        ("synth", cmd_synth, "generate a synthetic dataset"),
        ("report", cmd_report, "full pipeline: tables and figure data"),
    ):
        commands[name] = sub.add_parser(name, help=help_text)
        commands[name].set_defaults(func=func)

    def add(flag: str, names, **kwargs) -> None:
        for name in names:
            commands[name].add_argument(flag, **kwargs)

    readers = ("ingest", "metrics", "describe", "regress", "iv", "report")
    measured = ("metrics", "regress", "iv", "report")
    grids = ("regress", "iv", "report")
    add("--votes", readers, required=True, help="votes.csv path")
    add("--polls", readers, required=True, help="polls.csv path")
    add("--identities", ("ingest", "describe", "report"), default=None, help="identities.csv path")
    add("--factors", ("regress", "iv"), required=True, help="factors.csv path")
    add("--factors", ("report",), default=None, help="factors.csv path")
    add("--calendar", ("metrics", "report"), choices=centrality.CALENDAR_MODES, default="drop-missing")
    add("--ballot", ("describe", *measured), choices=("last", "first"), default="last")
    add("--order", measured, choices=("last", "first"), default="last")
    add("--daily-gini", measured, dest="daily_gini", choices=centrality.DAILY_GINI_MODES, default="mle")
    add("--top", ("describe",), type=int, default=10)
    add("--config", ("synth",), default=None, help="SynthConfig JSON path")
    add("--seed", ("synth",), type=int, default=None)
    add("--tokens", ("synth",), default="MKR,DAI", help="comma-separated token list")
    add("--tokens", grids, default=None, help="comma-separated token list")
    add("--measures", grids, default=None, help="comma-separated measure subset")
    add("--raw", grids, action="store_true", help="disable z-scoring of regression variables")
    add("--vol", grids, choices=("simple", "log"), default="simple")
    add("--alpha-stars", grids, dest="alpha_stars", default=None,
        help="three descending star thresholds, e.g. 0.10,0.05,0.01")
    add("--out-dir", commands, required=True)
    add("--formats", readers, default="csv,markdown", help="comma list of csv, markdown and svg")
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
        run = Run(args)
        _resolve_options(args)
        run.formats = getattr(args, "formats", [])
        args.func(args, run)
        run.finish("ok")
        return 0
    except (PipelineError, SchemaError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        error = str(exc)
    except Exception as exc:
        traceback.print_exc(file=sys.stderr)
        error = f"{type(exc).__name__}: {exc}"
    if run is not None:
        try:
            run.finish("failed", error=error)
        except OSError as exc:
            print(f"error: manifest not written: {exc}", file=sys.stderr)
    return 1


def main() -> None:
    sys.exit(exec_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
