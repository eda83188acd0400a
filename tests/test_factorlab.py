"""Derived factor series, catalogue shape and panel alignment."""

from __future__ import annotations

import math
from datetime import date, timedelta

import numpy as np
import pytest

from govpulse.centrality import MEASURES, MEASURE_FIELDS, DailyMetrics
from govpulse.factorlab import (
    align,
    build_panel,
    catalogue_for,
    daily_return,
    is_known_factor,
    measures_from_daily,
    rolling_vol,
)
from govpulse.govdata import FactorPanel


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


def test_catalogue_native_unit_names():
    names = {s.name for s in catalogue_for("MKR")}
    assert "AvgSizeMkr" in names
    assert "NetMkr" in names
    assert "AvgSizeDai" not in names
    assert is_known_factor("DAI", "transaction", "AvgSizeDai")
    assert not is_known_factor("DAI", "transaction", "AvgSizeMkr")
    assert is_known_factor("ALL", "instrument", "offchain_voters")


def test_build_panel_derives_returns_and_vols():
    raw = FactorPanel()
    days = _days(70)
    rng = np.random.default_rng(0)
    price = 100.0
    for d in days:
        raw.put(d, "MKR", "financial", "Price", price)
        price *= 1 + float(rng.normal(0, 0.01))
    metrics = [_metric_row(d) for d in days]
    panel = build_panel(raw, metrics)
    assert panel.factor_series("MKR", "r") is not None
    assert len(panel.factor_series("MKR", "r")) == 69
    for k in (2, 3, 4, 5, 6, 7, 14, 30, 60):
        series = panel.factor_series("MKR", f"v{k}")
        assert series is not None
        assert len(series) == 69 - (k - 1)


def test_build_panel_determinism_bit_identical():
    raw = FactorPanel()
    days = _days(40)
    rng = np.random.default_rng(5)
    for d in days:
        raw.put(d, "MKR", "financial", "Price", float(100 + rng.normal()))
    metrics = [_metric_row(d) for d in days]
    a = build_panel(raw, metrics)
    b = build_panel(raw, metrics)
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


def test_aligned_sample_from_panel_intersects_metric_dates():
    raw = FactorPanel()
    days = _days(10)
    for d in days:
        raw.put(d, "MKR", "network", "Active", float(d.day))
    metrics = [_metric_row(d) for d in days[:6]]  # metrics cover fewer days
    panel = build_panel(raw, metrics)
    sample = panel.aligned("MKR", "Active", "Voters")
    assert sample is not None
    assert len(sample[0]) == 6


def test_aligned_iv_alignment_n():
    raw = FactorPanel()
    days = _days(200)
    for d in days:
        raw.put(d, "MKR", "network", "Active", float(d.toordinal() % 17))
    for d in days[:127]:
        raw.put(d, "ALL", "instrument", "offchain_voters", float(d.toordinal() % 5))
    metrics = [_metric_row(d, voters=(d.toordinal() % 7) + 1) for d in days]
    panel = build_panel(raw, metrics)
    triple = panel.aligned_iv("MKR", "Active", "Voters")
    assert triple is not None
    assert len(triple[0]) == 127


def test_missing_factor_gives_none():
    raw = FactorPanel()
    days = _days(5)
    for d in days:
        raw.put(d, "MKR", "network", "Active", 1.0)
    panel = build_panel(raw, [_metric_row(d) for d in days])
    assert panel.aligned("DAI", "Active", "Voters") is None
    assert panel.factor_series("MKR", "TxnCnt") is None


def test_factor_name_under_two_categories_resolves_to_first():
    raw = FactorPanel()
    days = _days(3)
    for d in days:
        raw.put(d, "MKR", "network", "TxnCnt", 1.0)  # unknown here, kept and flagged
        raw.put(d, "MKR", "transaction", "TxnCnt", 2.0)
    panel = build_panel(raw, [_metric_row(d) for d in days])
    assert panel.factor_series("MKR", "TxnCnt") == dict.fromkeys(days, 1.0)


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
