"""Render computed results into markdown/CSV tables and figure data.

Rendering is a pure function of the computed inputs: identical grids and
metrics produce byte-identical output. Coefficients are shown to two
decimals with t-statistics in parentheses and significance stars at the
10/5/1 percent levels; full precision is always available in the CSV grids.
The stars are drawn here, from each fit's p-value, under the thresholds the
caller passes.
"""

from __future__ import annotations

from datetime import date

from govpulse.centrality import DailyMetrics, PollMetrics
from govpulse.econ import GridCell, InstrumentScreen, IvFit, OlsFit, RegressionGrid
from govpulse.factorlab import catalogue_for
from govpulse.profiles import (
    POLL_DESCRIPTIVE_COLUMNS,
    VOTER_DESCRIPTIVE_COLUMNS,
    SummaryStats,
    VoterProfile,
)

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


def fmt_value(value: float, decimals: int = 2) -> str:
    if value != value:
        return "nan"
    if value in (float("inf"), float("-inf")):
        return "inf" if value > 0 else "-inf"
    return f"{value:.{decimals}f}"


def fmt_cell(beta: float, t: float, stars: str) -> str:
    """Coefficient with stars and parenthesized t, e.g. ``2.13* (1.86)``."""
    return f"{fmt_value(beta)}{stars} ({fmt_value(t)})"


def markdown_table(header: list[str], rows: list[list[str]]) -> str:
    lines = ["| " + " | ".join(header) + " |"]
    lines.append("| " + " | ".join("---" for _ in header) + " |")
    for row in rows:
        lines.append("| " + " | ".join(row) + " |")
    return "\n".join(lines) + "\n"


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
        {POLL_COLUMN_TITLES[c]: stats[c] for c in POLL_DESCRIPTIVE_COLUMNS},
        lambda title, stat, value: _percent(value) if title in percent else fmt_value(value),
    )
    note = "Breakdown columns exclude abstain options (definition: configured).\n"
    return table + "\n" + note


def descriptives_csv(stats: dict[str, SummaryStats], columns: tuple[str, ...]) -> list[list[str]]:
    out = [["stat"] + list(columns)]
    for stat_row in STAT_ROWS:
        out.append([stat_row] + [repr(getattr(stats[c], stat_row.lower())) for c in columns])
    return out


def voter_descriptives_table(stats: dict[str, SummaryStats]) -> str:
    return _stats_table({VOTER_COLUMN_TITLES[c]: stats[c] for c in VOTER_DESCRIPTIVE_COLUMNS})


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
    out = [["address", "identity", "involved_polls", "total_votes", "first_poll", "highest_single_vote", "first_date"]]
    for p in profiles:
        out.append(
            [
                p.address,
                p.identity,
                str(p.involved_polls),
                str(p.total_votes),
                str(p.first_poll),
                str(p.highest_single_vote),
                p.first_date.isoformat(),
            ]
        )
    return out


def gini_summary_table(poll_ginis: list[float], daily_ginis: list[float]) -> str:
    """Poll-level vs daily Gini descriptives (daily over the full calendar)."""
    return _stats_table(
        {"Poll-level": SummaryStats.describe(poll_ginis), "Daily": SummaryStats.describe(daily_ginis)},
        lambda title, stat, value: fmt_value(value) if stat == "Std" else _percent(value),
    )


def measures_summary_table(measures: dict[str, dict[date, float]]) -> str:
    """Descriptives of the daily measure series (see ``measures_from_daily``),
    Gini aside."""
    return _stats_table(
        {name: SummaryStats.describe(list(series.values())) for name, series in measures.items() if name != "Gini"}
    )


def metrics_csv(metrics: list[DailyMetrics]) -> list[list[str]]:
    out = [
        [
            "date",
            "poll_count",
            "voters",
            "total_votes",
            "largest_share",
            "largest_share_win",
            "order",
            "speed",
            "gini",
            "missing_flag",
        ]
    ]
    for m in metrics:
        out.append(
            [
                m.day.isoformat(),
                str(m.poll_count),
                str(m.voters),
                str(m.total_votes),
                repr(m.largest_share),
                repr(m.largest_share_win),
                repr(m.order),
                repr(m.speed),
                repr(m.gini),
                "1" if m.missing else "0",
            ]
        )
    return out


def _measure_columns(grid: RegressionGrid) -> list[str]:
    seen: list[str] = []
    for cell in grid.cells:
        if cell.measure not in seen:
            seen.append(cell.measure)
    return seen


def _grid_cell_text(cell: GridCell, stars: tuple[float, float, float]) -> str:
    if cell.status != "ok" or cell.fit is None:
        return ""
    fit = cell.fit.second_stage if isinstance(cell.fit, IvFit) else cell.fit
    return fmt_cell(fit.beta1, fit.t1, significance_stars(fit.p1, stars))


def regression_table(grid: RegressionGrid, token: str, category: str, stars: tuple[float, float, float]) -> str:
    """One factor-by-measure coefficient table for a token and category."""
    measures = _measure_columns(grid)
    factors = [s.name for s in catalogue_for(token) if s.category == category]
    index = {(c.factor, c.measure): c for c in grid.cells if c.token == token and c.category == category}
    rows = []
    for factor in factors:
        row = [factor]
        for measure in measures:
            cell = index.get((factor, measure))
            row.append(_grid_cell_text(cell, stars) if cell else "")
        rows.append(row)
    scaling = "z-scored variables" if grid.standardized else "raw variables"
    title = f"{category.capitalize()} factors ({token}), univariate coefficients with t-statistics; {scaling}.\n\n"
    return title + markdown_table([""] + measures, rows)


def iv_table(grid: RegressionGrid, token: str, category: str, stars: tuple[float, float, float]) -> str:
    """IV panels (one per instrumented measure) for a token and category."""
    measures = _measure_columns(grid)
    factors = [s.name for s in catalogue_for(token) if s.category == category]
    index = {
        (c.factor, c.measure): c
        for c in grid.cells
        if c.token == token and c.category == category
    }
    blocks = []
    for measure in measures:
        header = [""] + factors
        first_row = ["Off-chain (first stage)"]
        beta_row = [measure]
        durbin_row = ["Durbin's test"]
        durbin_p_row = ["p-value"]
        wh_row = ["Wu-Hausman test"]
        wh_p_row = ["p-value"]
        adj_row = ["Adj. R-sq"]
        n_row = ["N"]
        for factor in factors:
            cell = index.get((factor, measure))
            fit = cell.fit if cell and cell.status == "ok" else None
            if not isinstance(fit, IvFit):
                for row in (first_row, beta_row, durbin_row, durbin_p_row, wh_row, wh_p_row, adj_row, n_row):
                    row.append("")
                continue
            first, second = fit.first_stage, fit.second_stage
            first_row.append(
                f"{fmt_value(first.beta1)}{significance_stars(first.p1, stars)} ({fmt_value(fit.partial_f)})"
            )
            beta_row.append(fmt_cell(second.beta1, second.t1, significance_stars(second.p1, stars)))
            durbin_row.append(fmt_value(fit.durbin_stat))
            durbin_p_row.append(fmt_value(fit.durbin_p))
            wh_row.append(fmt_value(fit.wu_hausman_stat))
            wh_p_row.append(fmt_value(fit.wu_hausman_p))
            adj_row.append(fmt_value(fit.adj_r2))
            n_row.append(str(fit.n))
        blocks.append(
            f"Panel: estimate {measure} using the off-chain instrument\n\n"
            + markdown_table(
                header,
                [first_row, beta_row, durbin_row, durbin_p_row, wh_row, wh_p_row, adj_row, n_row],
            )
        )
    scaling = "z-scored variables" if grid.standardized else "raw variables"
    title = f"2SLS IV regressions, {category} factors ({token}); {scaling}.\n\n"
    return title + "\n".join(blocks)


def grid_csv(grid: RegressionGrid, stars: tuple[float, float, float]) -> list[list[str]]:
    """Full-precision grid dump, one row per cell."""
    if grid.kind == "ols":
        out = [
            [
                "token", "category", "factor", "measure", "status",
                "beta0", "beta1", "se1", "t1", "p1", "stars", "r2", "adj_r2", "n",
            ]
        ]
        for c in grid.cells:
            fit = c.fit if isinstance(c.fit, OlsFit) else None
            out.append(
                [c.token, c.category, c.factor, c.measure, c.status]
                + (
                    [
                        repr(fit.beta0), repr(fit.beta1), repr(fit.se1), repr(fit.t1),
                        repr(fit.p1), significance_stars(fit.p1, stars), repr(fit.r2), repr(fit.adj_r2), str(fit.n),
                    ]
                    if fit
                    else [""] * 9
                )
            )
        return out
    out = [
        [
            "token", "category", "factor", "measure", "status",
            "fs_beta1", "fs_t1", "fs_stars", "partial_f",
            "beta1", "se1", "t1", "p1", "stars",
            "durbin_stat", "durbin_p", "wu_hausman_stat", "wu_hausman_p",
            "adj_r2", "n",
        ]
    ]
    for c in grid.cells:
        fit = c.fit if isinstance(c.fit, IvFit) else None
        out.append(
            [c.token, c.category, c.factor, c.measure, c.status]
            + (
                [
                    repr(fit.first_stage.beta1), repr(fit.first_stage.t1),
                    significance_stars(fit.first_stage.p1, stars), repr(fit.partial_f),
                    repr(fit.second_stage.beta1), repr(fit.second_stage.se1), repr(fit.second_stage.t1),
                    repr(fit.second_stage.p1), significance_stars(fit.second_stage.p1, stars),
                    repr(fit.durbin_stat), repr(fit.durbin_p),
                    repr(fit.wu_hausman_stat), repr(fit.wu_hausman_p),
                    repr(fit.adj_r2), str(fit.n),
                ]
                if fit
                else [""] * 15
            )
        )
    return out


def significant_cells(grid: RegressionGrid, alpha: float = 0.10) -> list[GridCell]:
    """Cells significant at the loose threshold, in grid order."""
    out = []
    for cell in grid.ok_cells():
        fit = cell.fit.second_stage if isinstance(cell.fit, IvFit) else cell.fit
        if fit.p1 <= alpha:
            out.append(cell)
    return out


def effects_summary(grid: RegressionGrid, token: str, alpha: float = 0.10) -> str:
    """Per measure x category: significant factors with direction arrows."""
    measures = _measure_columns(grid)
    categories = []
    for spec in catalogue_for(token):
        if spec.category not in categories:
            categories.append(spec.category)
    cells = [c for c in significant_cells(grid, alpha) if c.token == token]
    header = ["Measurements"] + [f"{c.capitalize()} factors" for c in categories]
    rows = []
    for measure in measures:
        row = [measure]
        for category in categories:
            entries = []
            for cell in cells:
                if cell.measure != measure or cell.category != category:
                    continue
                fit = cell.fit.second_stage if isinstance(cell.fit, IvFit) else cell.fit
                arrow = ARROW_UP if fit.beta1 > 0 else ARROW_DOWN
                entries.append(f"{cell.factor} {arrow}")
            row.append(", ".join(entries))
        rows.append(row)
    title = f"Effects summary ({token}); factors significant at {int(round(alpha * 100))}%.\n\n"
    return title + markdown_table(header, rows)


def instrument_table(screen: InstrumentScreen, stars: tuple[float, float, float]) -> str:
    """Instrument relevance per measure plus instrument descriptives."""
    header = ["Correlations"] + [row[0] for row in screen.rows]
    value_row = ["Off-chain voters"]
    for _, f_stat, p, _n in screen.rows:
        if f_stat != f_stat:
            value_row.append("")
        else:
            value_row.append(f"{fmt_value(f_stat)}{significance_stars(p, stars)} ({fmt_value(p)})")
    part1 = markdown_table(header, [value_row])
    header2 = ["Descriptive Statistics", "Mean", "Median", "Maximum", "Minimum", "Std"]
    row2 = [
        "Off-chain voters",
        fmt_value(screen.mean),
        fmt_value(screen.median),
        fmt_value(screen.maximum),
        fmt_value(screen.minimum),
        fmt_value(screen.std),
    ]
    return part1 + "\n" + markdown_table(header2, [row2])


def instrument_csv(screen: InstrumentScreen, stars: tuple[float, float, float]) -> list[list[str]]:
    out = [["measure", "f_stat", "p_value", "stars", "n"]]
    for name, f_stat, p, n in screen.rows:
        out.append([name, repr(f_stat), repr(p), significance_stars(p, stars), str(n)])
    out.append([])
    out.append(["mean", "median", "maximum", "minimum", "std"])
    out.append([repr(screen.mean), repr(screen.median), repr(screen.maximum), repr(screen.minimum), repr(screen.std)])
    return out


def daily_counts_csv(metrics: list[DailyMetrics]) -> list[list[str]]:
    out = [["date", "polls", "voters"]]
    for m in metrics:
        out.append([m.day.isoformat(), str(m.poll_count), str(m.voters)])
    return out


def poll_scatter_csv(poll_metrics: list[PollMetrics]) -> list[list[str]]:
    out = [["poll_id", "total_votes", "largest_votes"]]
    for pm in poll_metrics:
        out.append([str(pm.poll_id), str(pm.total_votes), str(pm.largest_votes)])
    return out


def gini_series_csv(poll_metrics: list[PollMetrics], metrics: list[DailyMetrics]) -> list[list[str]]:
    out = [["kind", "key", "gini"]]
    for pm in poll_metrics:
        out.append(["poll", str(pm.poll_id), repr(pm.gini)])
    for m in metrics:
        out.append(["daily", m.day.isoformat(), repr(m.gini)])
    return out


def lorenz_csv(curve: tuple[tuple[float, float], ...]) -> list[list[str]]:
    out = [["population_share", "vote_share"]]
    for p, l in curve:
        out.append([repr(p), repr(l)])
    return out


def validation_csv(report) -> list[list[str]]:
    """Anomaly rows; the severity column always reads ``warning``."""
    out = [["kind", "severity", "detail"]]
    for anomaly in report.anomalies:
        out.append([anomaly.kind, "warning", anomaly.detail])
    return out


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

