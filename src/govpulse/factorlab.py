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

from govpulse.centrality import MEASURE_FIELDS, DailyMetrics
from govpulse.govdata import Anomaly, FactorPanel

VOL_WINDOWS = (2, 3, 4, 5, 6, 7, 14, 30, 60)
DERIVED_FINANCIAL = ("r",) + tuple(f"v{k}" for k in VOL_WINDOWS)
INSTRUMENT_FACTOR = "offchain_voters"
INSTRUMENT_TOKEN = "ALL"


@dataclass(frozen=True)
class FactorSpec:
    name: str
    category: str
    derivation: str  # "ingested" | "derived"


def native_suffix(token: str) -> str:
    return token[:1].upper() + token[1:].lower()


def catalogue_for(token: str) -> list[FactorSpec]:
    """The registered factor names for one token, in category order."""
    sym = native_suffix(token)
    financial = [FactorSpec("Price", "financial", "ingested")]
    financial += [FactorSpec(name, "financial", "derived") for name in DERIVED_FINANCIAL]
    transaction = [
        FactorSpec("AvgBlcUsd", "transaction", "ingested"),
        FactorSpec(f"AvgSize{sym}", "transaction", "ingested"),
        FactorSpec("AvgSizeUsd", "transaction", "ingested"),
        FactorSpec(f"LargeVol{sym}", "transaction", "ingested"),
        FactorSpec("LargeVolUsd", "transaction", "ingested"),
        FactorSpec("LargeCnt", "transaction", "ingested"),
        FactorSpec(f"Vol{sym}", "transaction", "ingested"),
        FactorSpec("VolUsd", "transaction", "ingested"),
        FactorSpec("TxnCnt", "transaction", "ingested"),
    ]
    exchange = [
        FactorSpec("InCnt", "exchange", "ingested"),
        FactorSpec(f"InVol{sym}", "exchange", "ingested"),
        FactorSpec("InVolUsd", "exchange", "ingested"),
        FactorSpec("OutCnt", "exchange", "ingested"),
        FactorSpec(f"OutVol{sym}", "exchange", "ingested"),
        FactorSpec("OutVolUsd", "exchange", "ingested"),
        FactorSpec(f"Net{sym}", "exchange", "ingested"),
        FactorSpec("NetUsd", "exchange", "ingested"),
        FactorSpec(f"Total{sym}", "exchange", "ingested"),
        FactorSpec("TotalUsd", "exchange", "ingested"),
    ]
    network = [
        FactorSpec("TotalWithBlc", "network", "ingested"),
        FactorSpec("New", "network", "ingested"),
        FactorSpec("Active", "network", "ingested"),
        FactorSpec("ActiveRatio", "network", "ingested"),
    ]
    sentiment = [
        FactorSpec("Positive", "sentiment", "ingested"),
        FactorSpec("Neutral", "sentiment", "ingested"),
        FactorSpec("Negative", "sentiment", "ingested"),
    ]
    return financial + transaction + exchange + network + sentiment


@lru_cache(maxsize=256)
def _catalogue_keys(token: str) -> frozenset[tuple[str, str]]:
    return frozenset((spec.category, spec.name) for spec in catalogue_for(token))


def is_known_factor(token: str, category: str, factor: str) -> bool:
    if category == "instrument":
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
        out[cur] = math.log(p1 / p0) if vol_mode == "log" else p1 / p0 - 1.0
    return out


def rolling_vol(returns: dict[date, float], k: int) -> dict[date, float]:
    """Sample standard deviation of the k most recent returns ending at t.

    Missing until k returns have accumulated; shorter series give an empty
    result.
    """
    if k < 2:
        raise ValueError("volatility window must be at least 2")
    days = sorted(returns)
    values = np.array([returns[d] for d in days], dtype=float)
    out: dict[date, float] = {}
    for i in range(k - 1, len(days)):
        window = values[i - k + 1 : i + 1]
        out[days[i]] = float(np.std(window, ddof=1))
    return out


class BuiltPanel:
    """Joined factor/measure panel exposing aligned regression samples."""

    def __init__(
        self,
        factors: dict[tuple[str, str, str], dict[date, float]],
        measures: dict[str, dict[date, float]],
        instrument: dict[date, float],
        anomalies: list[Anomaly],
    ) -> None:
        self.factors = factors
        self.measures = measures
        self.instrument = instrument
        self.anomalies = anomalies
        # An unknown factor is kept under whatever category it came with, so
        # one (token, name) can sit under two categories: the first one wins.
        self._series: dict[tuple[str, str], dict[date, float]] = {}
        for (token, _category, name), series in factors.items():
            self._series.setdefault((token, name), series)

    def tokens(self) -> list[str]:
        return sorted({token for (token, _, _) in self.factors})

    def factor_series(self, token: str, factor: str) -> dict[date, float] | None:
        return self._series.get((token, factor))

    def aligned(
        self, token: str, factor: str, measure: str
    ) -> tuple[tuple[date, ...], np.ndarray, np.ndarray] | None:
        """Complete-case (dates, factor, measure) sample; None when a series is absent."""
        series = self.factor_series(token, factor)
        if series is None or measure not in self.measures:
            return None
        return align(series, self.measures[measure])

    def aligned_iv(
        self, token: str, factor: str, measure: str
    ) -> tuple[tuple[date, ...], np.ndarray, np.ndarray, np.ndarray] | None:
        """Complete-case (dates, factor, measure, instrument) sample; None when a
        series is absent."""
        series = self.factor_series(token, factor)
        if series is None or measure not in self.measures:
            return None
        return align(series, self.measures[measure], self.instrument)


def align(*series: dict[date, float]) -> tuple:
    """Complete-case sample of date-keyed series: the dates every series
    covers, ascending, then one array of values per series on those dates."""
    days = tuple(sorted(set(series[0]).intersection(*series[1:])))
    return (days, *(np.array([s[d] for d in days], dtype=float) for s in series))


def measures_from_daily(metrics: list[DailyMetrics]) -> dict[str, dict[date, float]]:
    """Measure series keyed by name; rows flagged missing are excluded."""
    rows = [m for m in metrics if not m.missing]
    return {
        name: {m.day: float(getattr(m, field)) for m in rows}
        for name, field in MEASURE_FIELDS.items()
    }


def build_panel(
    raw: FactorPanel, metrics: list[DailyMetrics], vol_mode: str = "simple"
) -> BuiltPanel:
    """Derive financial series from Price, join daily measures and instrument.

    Derivations are deterministic: running twice on the same inputs yields
    bit-identical series.
    """
    if vol_mode not in ("simple", "log"):
        raise ValueError(f"unknown volatility mode: {vol_mode!r}")
    factors: dict[tuple[str, str, str], dict[date, float]] = {}
    anomalies: list[Anomaly] = list(raw.anomalies)
    for (day, token, category, factor), value in raw.cells.items():
        if category == "instrument":
            continue
        factors.setdefault((token, category, factor), {})[day] = value

    for token in sorted({tok for (tok, _, _) in factors}):
        prices = factors.get((token, "financial", "Price"))
        if not prices:
            continue
        bad = [d for d, p in sorted(prices.items()) if p <= 0.0]
        for day in bad:
            anomalies.append(
                Anomaly(
                    "non-positive price",
                    "warning",
                    f"{token} {day.isoformat()}: return left missing",
                )
            )
        returns = daily_return(prices, vol_mode)
        factors[(token, "financial", "r")] = returns
        for k in VOL_WINDOWS:
            factors[(token, "financial", f"v{k}")] = rolling_vol(returns, k)

    for key in list(factors):
        factors[key] = dict(sorted(factors[key].items()))

    return BuiltPanel(
        factors=factors,
        measures=measures_from_daily(metrics),
        instrument=raw.instrument_series(),
        anomalies=anomalies,
    )


def panel_rows(panel: BuiltPanel) -> list[tuple[str, str, str, str, float]]:
    """Long-format rows (date, token, category, factor, value) incl. derived."""
    rows = []
    for (token, category, factor), series in sorted(panel.factors.items()):
        for day, value in series.items():
            rows.append((day.isoformat(), token, category, factor, value))
    for day, value in sorted(panel.instrument.items()):
        rows.append((day.isoformat(), INSTRUMENT_TOKEN, "instrument", INSTRUMENT_FACTOR, value))
    rows.sort()
    return rows
