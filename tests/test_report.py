"""Rendering: cell formatting, layouts, effects-summary consistency."""

from __future__ import annotations

from datetime import date, timedelta

import numpy as np

from govpulse.centrality import DailyMetrics, lorenz_points
from govpulse.econ import (
    GridCell,
    OlsFit,
    RegressionGrid,
    ols,
    run_factor_matrix,
    t_pvalue,
)
from govpulse.report import (
    daily_counts_csv,
    effects_summary,
    fmt_cell,
    grid_csv,
    instrument_table,
    lorenz_csv,
    markdown_table,
    metrics_csv,
    regression_table,
    significant_cells,
    svg_line_chart,
)


def _fit(beta1: float, t1: float, p1: float, stars: str, n: int = 127) -> OlsFit:
    return OlsFit(
        beta0=0.0, beta1=beta1, se1=abs(beta1 / t1) if t1 else 1.0,
        t1=t1, p1=p1, stars=stars, r2=0.1, adj_r2=0.09, n=n,
    )


def _grid(cells) -> RegressionGrid:
    return RegressionGrid("ols", cells, standardized=True)


def test_fmt_cell_paper_style():
    assert fmt_cell(2.13, 1.86, "*") == "2.13* (1.86)"
    assert fmt_cell(-768.44, -1.70, "*") == "-768.44* (-1.70)"
    assert fmt_cell(0.0, 0.08, "") == "0.00 (0.08)"


def test_marginally_significant_cell_renders_one_star():
    p = t_pvalue(1.86, 125)
    assert 0.05 < p <= 0.10
    fit = _fit(2.13, 1.86, p, "*")
    cell = GridCell("MKR", "network", "TotalWithBlc", "TotalVotes", "ok", fit)
    table = regression_table(_grid([cell]), "MKR", "network")
    assert "2.13* (1.86)" in table


def test_insignificant_cell_excluded_from_effects():
    fit = _fit(0.5, 1.2, 0.23, "")
    cell = GridCell("MKR", "network", "Active", "Voters", "ok", fit)
    grid = _grid([cell])
    assert significant_cells(grid) == []
    summary = effects_summary(grid, "MKR")
    assert "Active" not in summary.split("factors")[-1]


def test_effects_summary_bijection_with_significant_cells():
    rng = np.random.default_rng(42)
    n_days = 120
    days = [date(2021, 1, 1) + timedelta(days=i) for i in range(n_days)]
    from govpulse.factorlab import BuiltPanel

    voters = rng.normal(size=n_days)
    factors = {}
    for name, loading in (("TxnCnt", 1.0), ("VolUsd", 0.0), ("LargeCnt", -1.0)):
        noise = rng.normal(0, 0.5, n_days)
        factors[("MKR", "transaction", name)] = dict(zip(days, loading * voters + noise))
    panel = BuiltPanel(
        factors=factors,
        measures={"Voters": dict(zip(days, voters))},
        instrument={},
        anomalies=[],
    )
    grid = run_factor_matrix(panel, tokens=["MKR"], measures=("Voters",))
    cells = significant_cells(grid, alpha=0.10)
    summary = effects_summary(grid, "MKR", alpha=0.10)
    arrow_entries = summary.count("↑") + summary.count("↓")
    assert arrow_entries == len(cells) >= 2
    for cell in cells:
        arrow = "↑" if cell.fit.beta1 > 0 else "↓"
        assert f"{cell.factor} {arrow}" in summary


def test_empty_grid_renders_headers():
    table = regression_table(_grid([]), "MKR", "transaction")
    assert "AvgSizeMkr" in table  # factor rows always present
    assert table.count("|") > 10
    rows = grid_csv(_grid([]))
    assert rows[0][0] == "token"


def test_rendering_is_deterministic():
    fit = _fit(1.0, 2.5, 0.013, "**")
    cells = [GridCell("MKR", "network", "New", "Voters", "ok", fit)]
    a = regression_table(_grid(cells), "MKR", "network")
    b = regression_table(_grid(cells), "MKR", "network")
    assert a == b


def test_markdown_table_shape():
    text = markdown_table(["a", "b"], [["1", "2"], ["3", "4"]])
    lines = text.strip().splitlines()
    assert len(lines) == 4
    assert lines[1] == "| --- | --- |"


def test_metrics_csv_header_contract():
    row = DailyMetrics(
        day=date(2021, 5, 1), poll_count=2, voters=10, total_votes=100,
        largest_share=0.5, largest_share_win=0.5, order=0.3, speed=100.0, gini=0.8,
    )
    rows = metrics_csv([row])
    assert rows[0] == [
        "date", "poll_count", "voters", "total_votes", "largest_share",
        "largest_share_win", "order", "speed", "gini", "missing_flag",
    ]
    assert rows[1][0] == "2021-05-01"
    assert rows[1][-1] == "0"


def test_instrument_table_renders_inf_flag():
    from govpulse.econ import InstrumentScreen

    screen = InstrumentScreen(
        rows=(("Voters", float("inf"), 0.0, "***", 127), ("Speed", 3.87, 0.05, "**", 127)),
        mean=55.80, median=36.0, maximum=393.0, minimum=0.0, std=72.17,
    )
    text = instrument_table(screen)
    assert "inf*** (0.00)" in text
    assert "3.87** (0.05)" in text
    assert "55.80" in text


def test_daily_counts_and_lorenz_csv():
    row = DailyMetrics(
        day=date(2021, 5, 1), poll_count=3, voters=42, total_votes=10,
        largest_share=0.5, largest_share_win=0.5, order=0.3, speed=10.0, gini=0.1,
    )
    assert daily_counts_csv([row])[1] == ["2021-05-01", "3", "42"]
    curve = lorenz_points(np.array([1.0, 3.0]))
    rows = lorenz_csv(curve)
    assert rows[1] == ["0.0", "0.0"]
    assert rows[2] == ["0.5", "0.25"]


def test_svg_chart_contains_polyline():
    svg = svg_line_chart({"a": [(0.0, 0.0), (1.0, 2.0)]}, "demo")
    assert svg.startswith("<svg")
    assert "polyline" in svg
    assert "demo" in svg


def test_grid_csv_full_precision_round_trip():
    rng = np.random.default_rng(1)
    y, x = rng.normal(size=50), rng.normal(size=50)
    fit = ols(y, x)
    cell = GridCell("MKR", "network", "New", "Voters", "ok", fit)
    rows = grid_csv(_grid([cell]))
    header, data = rows[0], rows[1]
    beta1 = float(data[header.index("beta1")])
    assert beta1 == fit.beta1  # repr() round-trips exactly
