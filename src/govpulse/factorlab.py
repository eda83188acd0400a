"""Regression-ready panel construction.

Returns and volatilities (``govdata.DERIVED_FINANCIAL``) are derived from
the ingested Price series; all other factors pass through. Volatility is
the rolling sample standard deviation of simple daily returns by default
(``vol="log"`` switches to log returns); no annualization is applied.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass
from datetime import date

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from govpulse.centrality import MEASURE_FIELDS, DailyMetrics
from govpulse.govdata import VOL_WINDOWS, Anomaly, FactorPanel, Series


def daily_return(prices: Mapping[date, float], vol_mode: str = "simple") -> Series:
    """Daily returns, first date missing: simple r_t = P_t / P_{t-1} - 1, or
    log r_t = ln(P_t / P_{t-1}) with ``vol_mode="log"``, P_{t-1} being the
    price of the date before t in the series.

    Dates with a non-positive price (or a non-positive previous price) are
    left missing.
    """
    prices = Series.of(prices)
    before, after = prices.data[:-1], prices.data[1:]
    both = ~((before <= 0.0) | (after <= 0.0))
    before, after = before[both], after[both]
    with np.errstate(over="ignore", invalid="ignore"):
        ratio = after / before
    if vol_mode != "log":
        returns = ratio - 1.0
    else:  # math.log of each; where the ratio under- or overflows, the difference of logs
        returns = np.array([
            math.log(r) if 0.0 < r < math.inf else math.log(p1) - math.log(p0)
            for r, p0, p1 in zip(ratio.tolist(), before.tolist(), after.tolist())
        ], dtype=float)
    return Series(prices.days[1:][both], returns)


def rolling_vol(returns: Mapping[date, float], k: int) -> Series:
    """Sample standard deviation of the k most recent returns ending at t.

    Missing until k returns have accumulated; shorter series give an empty
    result. A window holding an infinite return is nan, and one whose squares
    overflow is inf, without a warning.
    """
    if k < 2:
        raise ValueError("volatility window must be at least 2")
    returns = Series.of(returns)
    if len(returns) < k:
        return Series()
    # Each row is one contiguous window, so every std reduces its k values as
    # np.std of that window alone would.
    windows = np.ascontiguousarray(sliding_window_view(returns.data, k))
    with np.errstate(invalid="ignore", over="ignore"):
        return Series(returns.days[k - 1:], windows.std(axis=1, ddof=1))


@dataclass(frozen=True)
class BuiltPanel:
    """What the regression grids read: factor series keyed by (token,
    category, factor), measure series keyed by name, the instrument and the
    anomalies found on the way. A grid cell reads only its own key, so a row
    kept under a category that does not list its factor feeds no cell."""

    factors: dict[tuple[str, str, str], Series]
    measures: dict[str, Series]
    instrument: Series
    anomalies: list[Anomaly]


def align(*series: Mapping[date, float]) -> tuple:
    """Complete-case sample of date-keyed series: the dates every series
    covers, ascending, then one array of values per series on those dates."""
    columns = [Series.of(s) for s in series]
    days = columns[0].days
    for column in columns[1:]:
        days = column.held(days)
    return (tuple(map(date.fromordinal, days.tolist())), *(column.on(days) for column in columns))


def measures_from_daily(metrics: list[DailyMetrics]) -> dict[str, Series]:
    """Measure series keyed by name; rows flagged missing are excluded."""
    rows = [m for m in metrics if not m.missing]
    return {
        name: Series.of({m.day: float(getattr(m, field)) for m in rows})
        for name, field in MEASURE_FIELDS.items()
    }


def build_panel(raw: FactorPanel, measures: dict[str, Series], vol_mode: str = "simple") -> BuiltPanel:
    """Derive financial series from Price, join the measure series (see
    ``measures_from_daily``) and the instrument.

    Derivations are deterministic: running twice on the same inputs yields
    bit-identical series.
    """
    if vol_mode not in ("simple", "log"):
        raise ValueError(f"unknown volatility mode: {vol_mode!r}")
    factors = dict(raw.series)  # the derived keys land here, not in raw.series
    anomalies: list[Anomaly] = list(raw.anomalies)
    for token in sorted({tok for (tok, _, _) in factors}):
        prices = factors.get((token, "financial", "Price"))
        if not prices:
            continue
        for day in prices.days[prices.data <= 0.0].tolist():
            anomalies.append(Anomaly("non-positive price", f"{token} {date.fromordinal(day).isoformat()}: "
                                     "return left missing"))
        returns = daily_return(prices, vol_mode)
        factors[(token, "financial", "r")] = returns
        for k in VOL_WINDOWS:
            factors[(token, "financial", f"v{k}")] = rolling_vol(returns, k)

    return BuiltPanel(
        factors=factors,
        measures=measures,
        instrument=raw.instrument,
        anomalies=anomalies,
    )
