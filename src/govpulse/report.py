"""Render computed results into markdown/CSV tables and figure data.

Rendering is a pure function of the computed inputs: identical grids and
metrics produce byte-identical output. Coefficients are shown to two
decimals with t-statistics in parentheses and significance stars at the
10/5/1 percent levels; full precision is always available in the CSV grids.
The stars are drawn here, from each fit's p-value, under the thresholds the
caller passes.

Every CSV cell is ``str`` of a record field: the shortest round-trip float,
the ISO date, the exact Decimal; a flag is written 1/0.
"""

from __future__ import annotations

from collections.abc import Iterator
from operator import attrgetter

from govpulse.centrality import DailyMetrics, PollMetrics
from govpulse.econ import GridCell, InstrumentScreen, IvFit, OlsFit, RegressionGrid
from govpulse.govdata import REGRESSION_CATEGORIES, Series, catalogue_for
from govpulse.profiles import SummaryStats, VoterProfile

STAT_ROWS = ("Mean", "Median", "Maximum", "Minimum", "Std")  # lower-cased, SummaryStats fields
STAR_THRESHOLDS = (0.10, 0.05, 0.01)

POLL_COLUMN_TITLES = {
    "total_votes": "Total votes",
    "total_voters": "Total voters",
    "breakdown_votes": "Breakdown votes",
    "breakdown_ratio": "Breakdown ratio",
    "breakdown_voters": "Breakdown voters",
    "largest_votes": "Votes of the largest voter",
    "largest_share": "Vote share of the largest voter",
}

VOTER_COLUMN_TITLES = {
    "involved_polls": "Involved polls",
    "total_votes": "Total votes",
    "first_poll": "First poll",
    "highest_single_vote": "The highest votes",
}

ARROW_UP = "↑"
ARROW_DOWN = "↓"


def significance_stars(p: float, thresholds: tuple[float, float, float] = STAR_THRESHOLDS) -> str:
    """Stars at the 10/5/1 percent levels (inclusive thresholds); none for a
    NaN p-value."""
    loose, mid, tight = thresholds
    if p <= tight:
        return "***"
    if p <= mid:
        return "**"
    if p <= loose:
        return "*"
    return ""


def fmt_value(value: float) -> str:
    if value != value:
        return "nan"
    if value in (float("inf"), float("-inf")):
        return "inf" if value > 0 else "-inf"
    return f"{value:.2f}"


def fmt_cell(beta: float, t: float, stars: str) -> str:
    """Coefficient with stars and parenthesized t, e.g. ``2.13* (1.86)``."""
    return f"{fmt_value(beta)}{stars} ({fmt_value(t)})"


def markdown_table(header: list[str], rows: list[list[str]]) -> str:
    lines = ["| " + " | ".join(header) + " |"]
    lines.append("| " + " | ".join("---" for _ in header) + " |")
    for row in rows:
        lines.append("| " + " | ".join(row) + " |")
    return "\n".join(lines) + "\n"


def _cell(value) -> str:
    return ("1" if value else "0") if isinstance(value, bool) else str(value)


def _rows(header: list[str], records, fields: tuple[str, ...] | None = None) -> list[list[str]]:
    """``header``, then one row per record: the cell of each of its
    ``fields`` (the header's names when not given)."""
    fields = fields or tuple(header)
    return [header] + [[_cell(getattr(r, f)) for f in fields] for r in records]


def _percent(value: float) -> str:
    return f"{100.0 * value:.2f}%"


def _stats_table(columns: dict[str, SummaryStats], fmt=lambda title, stat, value: fmt_value(value)) -> str:
    """The five ``STAT_ROWS`` of each column, titled by its key; each cell is
    ``fmt(title, stat_row, value)``."""
    rows = [
        [stat] + [fmt(title, stat, getattr(stats, stat.lower())) for title, stats in columns.items()]
        for stat in STAT_ROWS
    ]
    return markdown_table([""] + list(columns), rows)


def poll_descriptives_table(stats: dict[str, SummaryStats]) -> str:
    """Descriptive statistics of polls (seven columns, five stat rows)."""
    percent = {POLL_COLUMN_TITLES["breakdown_ratio"], POLL_COLUMN_TITLES["largest_share"]}
    table = _stats_table(
        {POLL_COLUMN_TITLES[c]: column for c, column in stats.items()},
        lambda title, stat, value: _percent(value) if title in percent else fmt_value(value),
    )
    note = "Breakdown columns exclude abstain options (definition: configured).\n"
    return table + "\n" + note


def descriptives_csv(stats: dict[str, SummaryStats]) -> list[list[str]]:
    """The five ``STAT_ROWS`` of each column, in the order of ``stats``."""
    return [["stat", *stats]] + [
        [stat, *(str(getattr(column, stat.lower())) for column in stats.values())] for stat in STAT_ROWS
    ]


def voter_descriptives_table(stats: dict[str, SummaryStats]) -> str:
    return _stats_table({VOTER_COLUMN_TITLES[c]: column for c, column in stats.items()})


def top_voters_table(profiles: list[VoterProfile], criterion: str) -> str:
    header = ["Address", "Identity", "Involved Polls", "Total votes", "First poll", "The highest votes", "Since"]
    rows = [
        [
            p.address,
            p.identity,
            str(p.involved_polls),
            fmt_value(float(p.total_votes)),
            str(p.first_poll),
            fmt_value(float(p.highest_single_vote)),
            p.first_date.isoformat(),
        ]
        for p in profiles
    ]
    return f"Top voters by {criterion}\n\n" + markdown_table(header, rows)


def profiles_csv(profiles: list[VoterProfile]) -> list[list[str]]:
    header = ["address", "identity", "involved_polls", "total_votes", "first_poll", "highest_single_vote", "first_date"]
    return _rows(header, profiles)


def gini_summary_table(poll_ginis: list[float], daily_ginis: list[float]) -> str:
    """Poll-level vs daily Gini descriptives (daily over the full calendar)."""
    return _stats_table(
        {"Poll-level": SummaryStats.describe(poll_ginis), "Daily": SummaryStats.describe(daily_ginis)},
        lambda title, stat, value: fmt_value(value) if stat == "Std" else _percent(value),
    )


def measures_summary_table(measures: dict[str, Series]) -> str:
    """Descriptives of the daily measure series (see ``measures_from_daily``),
    Gini aside."""
    return _stats_table(
        {name: SummaryStats.describe(series.data.tolist()) for name, series in measures.items() if name != "Gini"}
    )


def metrics_csv(metrics: list[DailyMetrics]) -> list[list[str]]:
    fields = ("poll_count", "voters", "total_votes", "largest_share", "largest_share_win", "order", "speed", "gini")
    return _rows(["date", *fields, "missing_flag"], metrics, ("day", *fields, "missing"))


def poll_metrics_csv(poll_metrics: list[PollMetrics]) -> list[list[str]]:
    fields = ("total_votes", "voters", "gini", "largest_share", "ifwin", "largest_share_win", "order", "speed_seconds")
    return _rows(["poll_id", "date", *fields], poll_metrics, ("poll_id", "day", *fields))


def _layout(grid: RegressionGrid, token: str, category: str) -> tuple[tuple[str, ...], list[str], dict]:
    """The grid's measures, the token's factors of the category and their
    cells by (factor, measure), from the grid's index of its cells."""
    factors = [s.name for s in catalogue_for(token) if s.category == category]
    return grid.measures, factors, grid.tables.get((token, category), {})


def _ok_fit(cell: GridCell | None) -> OlsFit | IvFit | None:
    return cell.fit if cell is not None and cell.status == "ok" else None


def _slope(cell: GridCell) -> OlsFit:
    """The fit of the factor on the measure: an IV cell's second stage."""
    return cell.fit.second_stage if isinstance(cell.fit, IvFit) else cell.fit


def _coefficient(fit: OlsFit, stars: tuple[float, float, float]) -> str:
    return fmt_cell(fit.beta1, fit.t1, significance_stars(fit.p1, stars))


def _grid_cell_text(cell: GridCell | None, stars: tuple[float, float, float]) -> str:
    return _coefficient(_slope(cell), stars) if _ok_fit(cell) else ""


def regression_table(grid: RegressionGrid, token: str, category: str, stars: tuple[float, float, float]) -> str:
    """One factor-by-measure coefficient table for a token and category."""
    measures, factors, index = _layout(grid, token, category)
    rows = [[factor, *(_grid_cell_text(index.get((factor, m)), stars) for m in measures)] for factor in factors]
    scaling = "z-scored variables" if grid.standardized else "raw variables"
    title = f"{category.capitalize()} factors ({token}), univariate coefficients with t-statistics; {scaling}.\n\n"
    return title + markdown_table(["", *measures], rows)


def _rounded(path: str):
    get = attrgetter(path)
    return lambda fit, stars: fmt_value(get(fit))


def _full(path: str):
    get = attrgetter(path)
    return lambda fit, stars: str(get(fit))


def _marks(path: str):
    get = attrgetter(path)
    return lambda fit, stars: significance_stars(get(fit), stars)


# IV panel rows: label (None: the panel's measure) and the text of an ok
# fit under the star thresholds
_IV_ROWS = (
    ("Off-chain (first stage)", lambda fit, stars: f"{fmt_value(fit.first_stage.beta1)}"
     f"{significance_stars(fit.first_stage.p1, stars)} ({fmt_value(fit.partial_f)})"),
    (None, lambda fit, stars: _coefficient(fit.second_stage, stars)),
    ("Durbin's test", _rounded("durbin_stat")),
    ("p-value", _rounded("durbin_p")),
    ("Wu-Hausman test", _rounded("wu_hausman_stat")),
    ("p-value", _rounded("wu_hausman_p")),
    ("Adj. R-sq", _rounded("second_stage.adj_r2")),
    ("N", _full("second_stage.n")),
)


def iv_table(grid: RegressionGrid, token: str, category: str, stars: tuple[float, float, float]) -> str:
    """IV panels (one per instrumented measure) for a token and category."""
    measures, factors, index = _layout(grid, token, category)
    blocks = []
    for measure in measures:
        fits = [_ok_fit(index.get((factor, measure))) for factor in factors]
        rows = [
            [label or measure, *(text(fit, stars) if isinstance(fit, IvFit) else "" for fit in fits)]
            for label, text in _IV_ROWS
        ]
        blocks.append(
            f"Panel: estimate {measure} using the off-chain instrument\n\n" + markdown_table(["", *factors], rows)
        )
    scaling = "z-scored variables" if grid.standardized else "raw variables"
    title = f"2SLS IV regressions, {category} factors ({token}); {scaling}.\n\n"
    return title + "\n".join(blocks)


# grid kind -> (CSV column, its text for an ok fit under the star thresholds)
_GRID_COLUMNS = {
    "ols": (
        *((name, _full(name)) for name in ("beta0", "beta1", "se1", "t1", "p1")),
        ("stars", _marks("p1")),
        *((name, _full(name)) for name in ("r2", "adj_r2", "n")),
    ),
    "iv": (
        ("fs_beta1", _full("first_stage.beta1")),
        ("fs_t1", _full("first_stage.t1")),
        ("fs_stars", _marks("first_stage.p1")),
        ("partial_f", _full("partial_f")),
        *((name, _full(f"second_stage.{name}")) for name in ("beta1", "se1", "t1", "p1")),
        ("stars", _marks("second_stage.p1")),
        *((name, _full(name)) for name in ("durbin_stat", "durbin_p", "wu_hausman_stat", "wu_hausman_p")),
        *((name, _full(f"second_stage.{name}")) for name in ("adj_r2", "n")),
    ),
}


def grid_csv(grid: RegressionGrid, stars: tuple[float, float, float]) -> Iterator[list[str]]:
    """Full-precision grid dump, the header and then one row per cell,
    yielded one at a time; a cell without an ok fit leaves the fit columns
    empty."""
    keys, columns = ["token", "category", "factor", "measure", "status"], _GRID_COLUMNS[grid.kind]
    yield keys + [name for name, _ in columns]
    for c in grid.cells:
        yield [getattr(c, key) for key in keys] + [value(c.fit, stars) if _ok_fit(c) else "" for _, value in columns]


def significant_cells(grid: RegressionGrid, alpha: float = 0.10) -> list[GridCell]:
    """Cells significant at the loose threshold, in grid order."""
    return [cell for cell in grid.ok_cells() if _slope(cell).p1 <= alpha]


def effects_summary(grid: RegressionGrid, token: str, alpha: float = 0.10) -> str:
    """Per measure x category: significant factors with direction arrows."""
    cells = [c for c in significant_cells(grid, alpha) if c.token == token]
    header = ["Measurements"] + [f"{c.capitalize()} factors" for c in REGRESSION_CATEGORIES]
    rows = [
        [measure] + [
            ", ".join(
                f"{c.factor} {ARROW_UP if _slope(c).beta1 > 0 else ARROW_DOWN}"
                for c in cells if (c.measure, c.category) == (measure, category)
            )
            for category in REGRESSION_CATEGORIES
        ]
        for measure in grid.measures
    ]
    title = f"Effects summary ({token}); factors significant at {alpha * 100:g}%.\n\n"
    return title + markdown_table(header, rows)


def instrument_table(screen: InstrumentScreen, stars: tuple[float, float, float]) -> str:
    """Instrument relevance per measure plus instrument descriptives."""
    relevance = [
        "" if f_stat != f_stat else f"{fmt_value(f_stat)}{significance_stars(p, stars)} ({fmt_value(p)})"
        for _, f_stat, p, _n in screen.rows
    ]
    described = [fmt_value(getattr(screen.stats, stat.lower())) for stat in STAT_ROWS]
    return (
        markdown_table(["Correlations", *(row[0] for row in screen.rows)], [["Off-chain voters", *relevance]])
        + "\n"
        + markdown_table(["Descriptive Statistics", *STAT_ROWS], [["Off-chain voters", *described]])
    )


def instrument_csv(screen: InstrumentScreen, stars: tuple[float, float, float]) -> list[list[str]]:
    rows = [["measure", "f_stat", "p_value", "stars", "n"]]
    rows += [[name, str(f_stat), str(p), significance_stars(p, stars), str(n)] for name, f_stat, p, n in screen.rows]
    return rows + [[]] + _rows([stat.lower() for stat in STAT_ROWS], [screen.stats])


def daily_counts_csv(metrics: list[DailyMetrics]) -> list[list[str]]:
    return _rows(["date", "polls", "voters"], metrics, ("day", "poll_count", "voters"))


def poll_scatter_csv(poll_metrics: list[PollMetrics]) -> list[list[str]]:
    return _rows(["poll_id", "total_votes", "largest_votes"], poll_metrics)


def gini_series_csv(poll_metrics: list[PollMetrics], metrics: list[DailyMetrics]) -> list[list[str]]:
    return (
        [["kind", "key", "gini"]]
        + [["poll", str(pm.poll_id), str(pm.gini)] for pm in poll_metrics]
        + [["daily", str(m.day), str(m.gini)] for m in metrics]
    )


def lorenz_csv(curve: tuple[tuple[float, float], ...]) -> list[list[str]]:
    return [["population_share", "vote_share"]] + [[str(p), str(l)] for p, l in curve]


def validation_csv(report) -> list[list[str]]:
    """Anomaly rows; the severity column always reads ``warning``."""
    return [["kind", "severity", "detail"]] + [[a.kind, "warning", a.detail] for a in report.anomalies]


def svg_line_chart(series: dict[str, list[tuple[float, float]]], title: str) -> str:
    """Minimal 640x320 multi-series SVG line chart (no axes labels beyond extremes)."""
    width, height, pad = 640, 320, 40
    points = [pt for pts in series.values() for pt in pts]
    if not points:
        return f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}"><text x="10" y="20">{title}: no data</text></svg>'
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    xspan = (x1 - x0) or 1.0
    yspan = (y1 - y0) or 1.0

    def sx(x: float) -> float:
        return pad + (x - x0) / xspan * (width - 2 * pad)

    def sy(y: float) -> float:
        return height - pad - (y - y0) / yspan * (height - 2 * pad)

    colors = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b")
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<text x="{pad}" y="20" font-size="14">{title}</text>',
        f'<line x1="{pad}" y1="{height - pad}" x2="{width - pad}" y2="{height - pad}" stroke="#333"/>',
        f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{height - pad}" stroke="#333"/>',
        f'<text x="{pad}" y="{height - pad + 16}" font-size="10">{x0:g}</text>',
        f'<text x="{width - pad - 20}" y="{height - pad + 16}" font-size="10">{x1:g}</text>',
        f'<text x="2" y="{height - pad}" font-size="10">{y0:g}</text>',
        f'<text x="2" y="{pad}" font-size="10">{y1:g}</text>',
    ]
    for i, (name, pts) in enumerate(series.items()):
        if not pts:
            continue
        path = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in sorted(pts))
        color = colors[i % len(colors)]
        parts.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{path}"/>')
        parts.append(f'<text x="{width - pad + 2}" y="{pad + 14 * i}" font-size="10" fill="{color}">{name}</text>')
    parts.append("</svg>")
    return "\n".join(parts)

