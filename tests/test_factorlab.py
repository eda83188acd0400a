"""Derived factor series, catalogue shape and panel alignment."""

from __future__ import annotations

import math
from datetime import date, timedelta

import numpy as np
import pytest

from conftest import grid_cell
from govpulse.centrality import MEASURES, MEASURE_FIELDS, DailyMetrics
from govpulse.econ import run_factor_matrix, run_iv_suite
from govpulse.factorlab import align, build_panel, daily_return, measures_from_daily, rolling_vol
from govpulse.govdata import REGRESSION_CATEGORIES, FactorPanel, Series, catalogue_for, is_known_factor


D0 = date(2021, 3, 1)


def _days(n: int) -> list[date]:
    return [D0 + timedelta(days=i) for i in range(n)]


def _metric_row(day: date, voters: int = 10, **overrides) -> DailyMetrics:
    from decimal import Decimal

    values = dict(
        day=day,
        poll_count=1,
        voters=voters,
        total_votes=Decimal(voters * 100),
        largest_share=0.5,
        largest_share_win=0.4,
        order=0.6,
        speed=1000.0,
        gini=0.7,
    )
    values.update(overrides)
    return DailyMetrics(**values)


def test_daily_return_basic():
    days = _days(2)
    series = daily_return({days[0]: 100.0, days[1]: 110.0})
    assert days[0] not in series
    assert series[days[1]] == pytest.approx(0.10)


def test_daily_return_constant_prices_all_zero():
    days = _days(5)
    series = daily_return({d: 42.0 for d in days})
    assert all(v == 0.0 for v in series.values())
    assert len(series) == 4


def test_daily_return_halving_doubling():
    days = _days(3)
    series = daily_return({days[0]: 100.0, days[1]: 50.0, days[2]: 100.0})
    assert series[days[1]] == pytest.approx(-0.5)
    assert series[days[2]] == pytest.approx(1.0)


def test_daily_return_nonpositive_price_missing():
    days = _days(3)
    series = daily_return({days[0]: 100.0, days[1]: 0.0, days[2]: 100.0})
    assert days[1] not in series
    assert days[2] not in series  # previous price non-positive too


def test_log_return_of_a_ratio_beyond_float_range():
    days = _days(4)
    prices = dict(zip(days, [1e200, 1e-200, 1e-200 * 3.0, 1e200]))
    returns = daily_return(prices, "log")
    assert returns[days[1]] == math.log(1e-200) - math.log(1e200)  # 1e-400 underflows to 0
    assert returns[days[2]] == math.log(prices[days[2]] / prices[days[1]])  # ratio in range: unchanged
    assert returns[days[3]] == math.log(1e200) - math.log(1e-200 * 3.0)  # ratio overflows
    assert all(math.isfinite(r) for r in returns.values())


def test_rolling_vol_constant_returns_zero():
    days = _days(6)
    vol = rolling_vol({d: 0.01 for d in days}, 3)
    assert all(v == pytest.approx(0.0) for v in vol.values())
    assert len(vol) == 4


def test_rolling_vol_two_point_oracle():
    days = _days(2)
    vol = rolling_vol({days[0]: 0.01, days[1]: 0.03}, 2)
    expected = math.sqrt(((0.01 - 0.02) ** 2 + (0.03 - 0.02) ** 2) / 1)
    assert vol[days[1]] == pytest.approx(expected, abs=1e-15)
    assert expected == pytest.approx(0.014142135623730951)


def test_rolling_vol_short_series_all_missing():
    days = _days(3)
    assert rolling_vol({d: 0.01 for d in days}, 5) == {}


@pytest.mark.parametrize("k", [2, 3, 7, 30])
@pytest.mark.parametrize("n", [0, 1, 2, 7, 30, 61])
def test_rolling_vol_equals_per_window_std(n, k):
    rng = np.random.default_rng(n * 100 + k)
    days = _days(n)
    for magnitude in (1e-8, 1e-3, 1.0, 1e3, 1e8):
        returns = {d: float(v) for d, v in zip(days, rng.normal(0.0, magnitude, n))}
        values = np.array(list(returns.values()))
        expected = {
            days[i]: float(np.std(values[i - k + 1 : i + 1], ddof=1)) for i in range(k - 1, n)
        }
        vol = rolling_vol(returns, k)
        assert vol == expected  # bit for bit, in date order
        assert list(vol) == sorted(vol)


def test_rolling_vol_shift_equivariance():
    days = _days(10)
    rng = np.random.default_rng(8)
    values = rng.normal(0, 0.02, 10)
    base = {d: float(v) for d, v in zip(days, values)}
    vol_a = rolling_vol(base, 4)
    shifted_days = _days(13)[3:]
    shifted = {d: float(v) for d, v in zip(shifted_days, values)}
    vol_b = rolling_vol(shifted, 4)
    for (da, va), (db, vb) in zip(sorted(vol_a.items()), sorted(vol_b.items())):
        assert va == vb
        assert db - da == timedelta(days=3)


def test_catalogue_has_37_factors_per_token():
    for token in ("MKR", "DAI", "ETH"):
        specs = catalogue_for(token)
        assert len(specs) == 37
        by_category = {}
        for spec in specs:
            by_category.setdefault(spec.category, []).append(spec.name)
        assert len(by_category["financial"]) == 11
        assert len(by_category["transaction"]) == 9
        assert len(by_category["exchange"]) == 10
        assert len(by_category["network"]) == 4
        assert len(by_category["sentiment"]) == 3
        assert tuple(by_category) == REGRESSION_CATEGORIES  # the effects summary's column order


def test_catalogue_native_unit_names():
    names = {s.name for s in catalogue_for("MKR")}
    assert "AvgSizeMkr" in names
    assert "NetMkr" in names
    assert "AvgSizeDai" not in names
    assert is_known_factor("DAI", "transaction", "AvgSizeDai")
    assert not is_known_factor("DAI", "transaction", "AvgSizeMkr")
    assert is_known_factor("ALL", "instrument", "offchain_voters")


def _built(raw: FactorPanel, metrics: list[DailyMetrics]):
    return build_panel(raw, measures_from_daily(metrics))


def _raw(series: dict, instrument: dict | None = None) -> FactorPanel:
    """A loaded panel of date-keyed dicts."""
    return FactorPanel({key: Series.of(cells) for key, cells in series.items()}, Series.of(instrument or {}))


def test_build_panel_derives_returns_and_vols():
    days = _days(70)
    rng = np.random.default_rng(0)
    prices, price = {}, 100.0
    for d in days:
        prices[d] = price
        price *= 1 + float(rng.normal(0, 0.01))
    raw = _raw({("MKR", "financial", "Price"): prices})
    metrics = [_metric_row(d) for d in days]
    panel = _built(raw, metrics)
    assert len(panel.factors[("MKR", "financial", "r")]) == 69
    for k in (2, 3, 4, 5, 6, 7, 14, 30, 60):
        assert len(panel.factors[("MKR", "financial", f"v{k}")]) == 69 - (k - 1)


def test_build_panel_determinism_bit_identical():
    days = _days(40)
    rng = np.random.default_rng(5)
    raw = _raw({("MKR", "financial", "Price"): {d: float(100 + rng.normal()) for d in days}})
    metrics = [_metric_row(d) for d in days]
    a = _built(raw, metrics)
    b = _built(raw, metrics)
    for key in a.factors:
        assert a.factors[key] == b.factors[key]


def test_alignment_is_intersection_and_symmetric():
    days = _days(10)
    y = {d: float(i) for i, d in enumerate(days[:7])}
    x = {d: float(i) ** 2 for i, d in enumerate(days[3:])}
    sample = align(y, x)
    assert sample[0] == tuple(days[3:7])
    reverse = align(x, y)
    assert reverse[0] == sample[0]


def _varying_voters(d: date) -> DailyMetrics:
    return _metric_row(d, voters=(d.toordinal() % 7) + 1)


def test_aligned_sample_from_panel_intersects_metric_dates():
    days = _days(10)
    raw = _raw({("MKR", "network", "Active"): {d: float(d.toordinal() % 3) for d in days}})
    panel = _built(raw, [_varying_voters(d) for d in days[:6]])  # metrics cover fewer days
    grid = run_factor_matrix(panel, tokens=["MKR"], measures=("Voters",))
    assert grid_cell(grid, "MKR", "Active", "Voters").fit.n == 6


def test_aligned_iv_alignment_n():
    days = _days(200)
    raw = _raw({("MKR", "network", "Active"): {d: float(d.toordinal() % 17) for d in days}},
               {d: float(d.toordinal() % 5) for d in days[:127]})
    panel = _built(raw, [_varying_voters(d) for d in days])
    grid = run_iv_suite(panel, tokens=["MKR"], measures=("Voters",))
    cell = grid_cell(grid, "MKR", "Active", "Voters")
    assert cell.status == "ok"
    assert cell.fit.second_stage.n == 127


def test_missing_factor_gives_none():
    days = _days(5)
    raw = _raw({("MKR", "network", "Active"): {d: float(d.day) for d in days}})
    panel = _built(raw, [_varying_voters(d) for d in days])
    assert ("MKR", "transaction", "TxnCnt") not in panel.factors
    grid = run_factor_matrix(panel, tokens=["MKR", "DAI"], measures=("Voters",))
    assert grid_cell(grid, "MKR", "Active", "Voters").status == "ok"
    assert grid_cell(grid, "MKR", "TxnCnt", "Voters").status == "no data"
    assert all(c.status == "no data" for c in grid.cells if c.token == "DAI")


def test_measures_from_daily_excludes_missing_rows():
    days = _days(3)
    rows = [
        _metric_row(days[0]),
        DailyMetrics(
            day=days[1], poll_count=0, voters=0, total_votes=0,
            largest_share=0.0, largest_share_win=0.0, order=0.0, speed=0.0,
            gini=0.0, missing=True,
        ),
        _metric_row(days[2]),
    ]
    measures = measures_from_daily(rows)
    assert set(measures["Voters"]) == {days[0], days[2]}
    assert tuple(measures) == MEASURES
    assert all(field in DailyMetrics.__dataclass_fields__ for field in MEASURE_FIELDS.values())
