"""Factor catalogue and regression-ready panel construction.

The catalogue covers five categories per token: eleven financial factors
(price, daily return, and 2/3/4/5/6/7/14/30/60-day rolling volatilities of
the return), nine transaction factors, ten exchange factors, four network
factors and three sentiment counts. Native-unit factor names carry the token
symbol suffix (AvgSizeMkr, LargeVolDai, ...); the off-chain voter instrument
is a tokenless series under category ``instrument``.

Returns and volatilities are derived from the ingested Price series; all
other factors pass through. Volatility is the rolling sample standard
deviation of simple daily returns by default (``vol="log"`` switches to log
returns); no annualization is applied.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import date
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from govpulse.centrality import MEASURE_FIELDS, DailyMetrics
from govpulse.govdata import INSTRUMENT_CATEGORY, INSTRUMENT_FACTOR, Anomaly, FactorPanel

VOL_WINDOWS = (2, 3, 4, 5, 6, 7, 14, 30, 60)
DERIVED_FINANCIAL = ("r",) + tuple(f"v{k}" for k in VOL_WINDOWS)


@dataclass(frozen=True)
class FactorSpec:
    name: str
    category: str


def native_suffix(token: str) -> str:
    return token[:1].upper() + token[1:].lower()


def catalogue_for(token: str) -> list[FactorSpec]:
    """The registered factor names for one token, in category order."""
    sym = native_suffix(token)
    financial = [FactorSpec("Price", "financial")]
    financial += [FactorSpec(name, "financial") for name in DERIVED_FINANCIAL]
    transaction = [
        FactorSpec("AvgBlcUsd", "transaction"),
        FactorSpec(f"AvgSize{sym}", "transaction"),
        FactorSpec("AvgSizeUsd", "transaction"),
        FactorSpec(f"LargeVol{sym}", "transaction"),
        FactorSpec("LargeVolUsd", "transaction"),
        FactorSpec("LargeCnt", "transaction"),
        FactorSpec(f"Vol{sym}", "transaction"),
        FactorSpec("VolUsd", "transaction"),
        FactorSpec("TxnCnt", "transaction"),
    ]
    exchange = [
        FactorSpec("InCnt", "exchange"),
        FactorSpec(f"InVol{sym}", "exchange"),
        FactorSpec("InVolUsd", "exchange"),
        FactorSpec("OutCnt", "exchange"),
        FactorSpec(f"OutVol{sym}", "exchange"),
        FactorSpec("OutVolUsd", "exchange"),
        FactorSpec(f"Net{sym}", "exchange"),
        FactorSpec("NetUsd", "exchange"),
        FactorSpec(f"Total{sym}", "exchange"),
        FactorSpec("TotalUsd", "exchange"),
    ]
    network = [
        FactorSpec("TotalWithBlc", "network"),
        FactorSpec("New", "network"),
        FactorSpec("Active", "network"),
        FactorSpec("ActiveRatio", "network"),
    ]
    sentiment = [
        FactorSpec("Positive", "sentiment"),
        FactorSpec("Neutral", "sentiment"),
        FactorSpec("Negative", "sentiment"),
    ]
    return financial + transaction + exchange + network + sentiment


@lru_cache(maxsize=256)
def _catalogue_keys(token: str) -> frozenset[tuple[str, str]]:
    return frozenset((spec.category, spec.name) for spec in catalogue_for(token))


def is_known_factor(token: str, category: str, factor: str) -> bool:
    if category == INSTRUMENT_CATEGORY:
        return factor == INSTRUMENT_FACTOR
    return (category, factor) in _catalogue_keys(token)


def daily_return(prices: dict[date, float], vol_mode: str = "simple") -> dict[date, float]:
    """Daily returns, first date missing: simple r_t = P_t / P_{t-1} - 1, or
    log r_t = ln(P_t / P_{t-1}) with ``vol_mode="log"``.

    Dates with a non-positive price (or a non-positive previous price) are
    left missing.
    """
    days = sorted(prices)
    out: dict[date, float] = {}
    for prev, cur in zip(days, days[1:]):
        p0, p1 = prices[prev], prices[cur]
        if p0 <= 0.0 or p1 <= 0.0:
            continue
        ratio = p1 / p0
        if vol_mode != "log":
            out[cur] = ratio - 1.0
        elif 0.0 < ratio < math.inf:
            out[cur] = math.log(ratio)
        else:  # the ratio under- or overflows; the difference of logs does not
            out[cur] = math.log(p1) - math.log(p0)
    return out


def rolling_vol(returns: dict[date, float], k: int) -> dict[date, float]:
    """Sample standard deviation of the k most recent returns ending at t.

    Missing until k returns have accumulated; shorter series give an empty
    result. A window holding an infinite return is nan, and one whose squares
    overflow is inf, without a warning.
    """
    if k < 2:
        raise ValueError("volatility window must be at least 2")
    days = sorted(returns)
    if len(days) < k:
        return {}
    values = np.array([returns[d] for d in days], dtype=float)
    # Each row is one contiguous window, so every std reduces its k values as
    # np.std of that window alone would.
    windows = np.ascontiguousarray(sliding_window_view(values, k))
    with np.errstate(invalid="ignore", over="ignore"):
        return dict(zip(days[k - 1 :], windows.std(axis=1, ddof=1).tolist()))


@dataclass(frozen=True)
class BuiltPanel:
    """What the regression grids read: factor series keyed by (token,
    category, factor), measure series keyed by name, the instrument and the
    anomalies found on the way. A grid cell reads only its own key, so a row
    kept under a category that does not list its factor feeds no cell."""

    factors: dict[tuple[str, str, str], dict[date, float]]
    measures: dict[str, dict[date, float]]
    instrument: dict[date, float]
    anomalies: list[Anomaly]


def values_on(series: dict[date, float], days: tuple[date, ...]) -> np.ndarray:
    """The series' values on ``days``, each of which it covers."""
    return np.array([series[d] for d in days], dtype=float)


def align(*series: dict[date, float]) -> tuple:
    """Complete-case sample of date-keyed series: the dates every series
    covers, ascending, then one array of values per series on those dates."""
    days = tuple(sorted(set(series[0]).intersection(*series[1:])))
    return (days, *(values_on(s, days) for s in series))


def measures_from_daily(metrics: list[DailyMetrics]) -> dict[str, dict[date, float]]:
    """Measure series keyed by name; rows flagged missing are excluded."""
    rows = [m for m in metrics if not m.missing]
    return {
        name: {m.day: float(getattr(m, field)) for m in rows}
        for name, field in MEASURE_FIELDS.items()
    }


def build_panel(
    raw: FactorPanel, measures: dict[str, dict[date, float]], vol_mode: str = "simple"
) -> BuiltPanel:
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
        bad = sorted(d for d, p in prices.items() if p <= 0.0)
        for day in bad:
            anomalies.append(Anomaly("non-positive price", f"{token} {day.isoformat()}: return left missing"))
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
