"""Univariate OLS, instrumented 2SLS and endogeneity diagnostics.

Every regression is the univariate form ``y_t = b0 + b1 x_t + e_t`` with an
intercept and classical (homoskedastic) standard errors. Two-sided t and F
p-values come from the regularized incomplete beta function and chi-squared
p-values from the regularized lower incomplete gamma, both evaluated to well
below 1e-12 relative error.

The 2SLS estimator regresses the measure on the instrument (first stage,
with the partial F-statistic, which equals the squared first-stage t for a
single instrument), then the factor on the fitted measure. Second-stage
standard errors and the adjusted R-squared use residuals against the actual
regressor (y - b0 - b1*x), the standard 2SLS correction; the adjusted
R-squared can therefore be negative.

Exogeneity is tested on the residual-augmented regression y ~ (x, vhat)
where vhat are first-stage residuals: the Durbin statistic is the score form
n * (RSS_r - RSS_u) / RSS_r against chi-squared(1), and the Wu-Hausman
statistic is the F form (n - 3) * (RSS_r - RSS_u) / RSS_u against F(1, n-3).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import date

import numpy as np
from scipy import special

from govpulse.centrality import MEASURES
from govpulse.factorlab import BuiltPanel, align, catalogue_for

IV_DEFAULT_MEASURES = ("Voters", "TotalVotes", "Speed")
STAR_THRESHOLDS = (0.10, 0.05, 0.01)


def t_pvalue(t: float, dof: int) -> float:
    """Two-sided p-value of a t statistic: the F(1, dof) p-value of t squared."""
    return f_pvalue(t * t, 1, dof)


def f_pvalue(f: float, d1: int, d2: int) -> float:
    """Upper-tail p-value of an F statistic."""
    if d1 < 1 or d2 < 1:
        raise ValueError("degrees of freedom must be positive")
    if math.isinf(f):
        return 0.0
    if f != f:
        return float("nan")
    if f <= 0.0:
        return 1.0
    return float(special.betainc(d2 / 2.0, d1 / 2.0, d2 / (d2 + d1 * f)))


def chi2_pvalue(stat: float, dof: int) -> float:
    """Upper-tail chi-squared p-value via the regularized incomplete gamma."""
    if dof < 1:
        raise ValueError("degrees of freedom must be positive")
    if stat <= 0.0:
        return 1.0
    return float(special.gammaincc(dof / 2.0, stat / 2.0))


def significance_stars(p: float, thresholds: tuple[float, float, float] = STAR_THRESHOLDS) -> str:
    """Stars at the 10/5/1 percent levels (inclusive thresholds)."""
    loose, mid, tight = thresholds
    if p <= tight:
        return "***"
    if p <= mid:
        return "**"
    if p <= loose:
        return "*"
    return ""


@dataclass(frozen=True)
class OlsFit:
    beta0: float
    beta1: float
    se1: float
    t1: float
    p1: float
    stars: str
    r2: float
    adj_r2: float
    n: int


@dataclass(frozen=True)
class IvFit:
    first_stage: OlsFit
    partial_f: float
    second_stage: OlsFit
    durbin_stat: float
    durbin_p: float
    wu_hausman_stat: float
    wu_hausman_p: float
    adj_r2: float
    n: int


def _as_array(values) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise ValueError("series must be one-dimensional")
    if not np.isfinite(arr).all():
        raise ValueError("non-finite value")
    return arr


def zscore(values: np.ndarray) -> np.ndarray:
    arr = _as_array(values)
    sd = float(arr.std(ddof=1)) if arr.size > 1 else 0.0
    if sd == 0.0:
        return arr - arr.mean()
    return (arr - arr.mean()) / sd


def _line(y: np.ndarray, x: np.ndarray) -> tuple[float, float, float]:
    """Least-squares intercept, slope and residual sum of squares of y on x."""
    design = np.column_stack([np.ones(y.size), x])
    coef, _, _, _ = np.linalg.lstsq(design, y, rcond=None)
    resid = y - design @ coef
    return float(coef[0]), float(coef[1]), float(resid @ resid)


def _summary(
    y: np.ndarray,
    beta0: float,
    beta1: float,
    rss: float,
    sxx: float,
    star_thresholds: tuple[float, float, float],
    flat_r2: float,
) -> OlsFit:
    """Slope inference and fit quality; ``flat_r2`` is the R-squared of a constant y."""
    n = int(y.size)
    se1 = math.sqrt(rss / (n - 2) / sxx)
    t1 = beta1 / se1 if se1 > 0.0 else math.copysign(math.inf, beta1) if beta1 else 0.0
    p1 = t_pvalue(t1, n - 2)
    tss = float(((y - y.mean()) ** 2).sum())
    r2 = 1.0 - rss / tss if tss > 0.0 else flat_r2
    adj_r2 = 1.0 - (1.0 - r2) * (n - 1) / (n - 2)
    return OlsFit(
        beta0=beta0,
        beta1=beta1,
        se1=se1,
        t1=t1,
        p1=p1,
        stars=significance_stars(p1, star_thresholds),
        r2=r2,
        adj_r2=adj_r2,
        n=n,
    )


def ols(y, x, star_thresholds: tuple[float, float, float] = STAR_THRESHOLDS) -> OlsFit:
    """Univariate least squares with intercept and classical standard errors."""
    y = _as_array(y)
    x = _as_array(x)
    if y.size != x.size:
        raise ValueError("y and x must have equal length")
    if y.size < 3:
        raise ValueError("need at least 3 observations")
    if float(x.max() - x.min()) == 0.0:
        raise ValueError("degenerate regressor")
    beta0, beta1, rss = _line(y, x)
    sxx = float(((x - x.mean()) ** 2).sum())
    return _summary(y, beta0, beta1, rss, sxx, star_thresholds, flat_r2=1.0 if rss == 0.0 else 0.0)


def two_sls(
    y,
    x,
    z,
    star_thresholds: tuple[float, float, float] = STAR_THRESHOLDS,
    diagnostics: bool = True,
) -> IvFit:
    """Two-stage least squares of y on x instrumented by z.

    A weak instrument does not raise; the partial F is reported and the
    caller decides. A constant instrument does raise. With
    ``diagnostics=False`` the Durbin/Wu-Hausman step is skipped (NaN); the
    self-instrument case z = x is estimable but its augmentation is
    degenerate.
    """
    y = _as_array(y)
    x = _as_array(x)
    z = _as_array(z)
    if not (y.size == x.size == z.size):
        raise ValueError("y, x and z must have equal length")
    n = int(y.size)
    if n < 4:
        raise ValueError("need at least 4 observations")
    if float(z.max() - z.min()) == 0.0:
        raise ValueError("degenerate instrument")
    first = ols(x, z, star_thresholds)
    partial_f = first.t1 * first.t1
    fitted = first.beta0 + first.beta1 * z
    if float(fitted.max() - fitted.min()) == 0.0:
        raise ValueError("degenerate regressor: first stage is flat")
    beta0, beta1, _ = _line(y, fitted)

    # 2SLS correction: variance from residuals against the actual regressor.
    resid = y - beta0 - beta1 * x
    rss = float(resid @ resid)
    sxx_hat = float(((fitted - fitted.mean()) ** 2).sum())
    second = _summary(y, beta0, beta1, rss, sxx_hat, star_thresholds, flat_r2=0.0)
    if diagnostics:
        durbin_stat, durbin_p, wh_stat, wh_p = endogeneity_tests(y, x, z)
    else:
        durbin_stat = durbin_p = wh_stat = wh_p = float("nan")
    return IvFit(
        first_stage=first,
        partial_f=partial_f,
        second_stage=second,
        durbin_stat=durbin_stat,
        durbin_p=durbin_p,
        wu_hausman_stat=wh_stat,
        wu_hausman_p=wh_p,
        adj_r2=second.adj_r2,
        n=n,
    )


def endogeneity_tests(y, x, z) -> tuple[float, float, float, float]:
    """Durbin (score) and Wu-Hausman (F) tests of regressor exogeneity."""
    y = _as_array(y)
    x = _as_array(x)
    z = _as_array(z)
    n = int(y.size)
    if n < 4:
        raise ValueError("need at least 4 observations for the augmented regression")
    if float(z.max() - z.min()) == 0.0:
        raise ValueError("degenerate instrument")
    design_z = np.column_stack([np.ones(n), z])
    coef_z, _, _, _ = np.linalg.lstsq(design_z, x, rcond=None)
    vhat = x - design_z @ coef_z
    scale = float((x * x).sum())
    if float(vhat @ vhat) <= 1e-14 * max(scale, 1.0):
        raise ValueError("collinear augmentation: x is perfectly explained by z")
    restricted = np.column_stack([np.ones(n), x])
    augmented = np.column_stack([np.ones(n), x, vhat])
    if np.linalg.matrix_rank(augmented) < 3:
        raise ValueError("collinear augmentation")
    coef_r, _, _, _ = np.linalg.lstsq(restricted, y, rcond=None)
    coef_u, _, _, _ = np.linalg.lstsq(augmented, y, rcond=None)
    resid_r = y - restricted @ coef_r
    resid_u = y - augmented @ coef_u
    rss_r = float(resid_r @ resid_r)
    rss_u = float(resid_u @ resid_u)
    if rss_r <= 0.0 or rss_u <= 0.0:
        raise ValueError("degenerate augmentation: perfect fit")
    durbin_stat = n * (rss_r - rss_u) / rss_r
    wh_stat = (n - 3) * (rss_r - rss_u) / rss_u
    return (
        durbin_stat,
        chi2_pvalue(durbin_stat, 1),
        wh_stat,
        f_pvalue(wh_stat, 1, n - 3),
    )


@dataclass(frozen=True)
class GridCell:
    token: str
    category: str
    factor: str
    measure: str
    status: str  # "ok" | "no data" | "error: ..."
    fit: OlsFit | IvFit | None


@dataclass
class RegressionGrid:
    kind: str  # "ols" | "iv"
    cells: list[GridCell]
    standardized: bool

    def ok_cells(self) -> list[GridCell]:
        return [c for c in self.cells if c.status == "ok"]


# grid kind -> (fit taking the aligned columns, fewest aligned dates a cell needs)
_GRID_KINDS = {
    "ols": (ols, 3),
    "iv": (two_sls, 5),
}


def _run_grid(
    panel: BuiltPanel,
    kind: str,
    tokens: list[str],
    measures: tuple[str, ...],
    standardize: bool,
    star_thresholds: tuple[float, float, float],
) -> RegressionGrid:
    """One cell per token -> catalogue factor -> measure, in that order.

    Each cell aligns the factor series under its own (token, category,
    factor) key with the measure (and, for IV, the instrument). Cells with
    fewer aligned dates than the kind needs, an absent series included, are
    marked "no data"; per-cell failures, a non-finite value among them, are
    recorded without aborting the grid.
    """
    fit_of, min_n = _GRID_KINDS[kind]
    extra = (panel.instrument,) if kind == "iv" else ()
    cells = []
    for token in tokens:
        for spec in catalogue_for(token):
            series = panel.factors.get((token, spec.category, spec.name), {})
            for measure in measures:
                key = (token, spec.category, spec.name, measure)
                days, *columns = align(series, panel.measures.get(measure, {}), *extra)
                if len(days) < min_n:
                    cells.append(GridCell(*key, "no data", None))
                    continue
                try:
                    if standardize:
                        columns = [zscore(column) for column in columns]
                    fit = fit_of(*columns, star_thresholds)
                except ValueError as exc:
                    cells.append(GridCell(*key, f"error: {exc}", None))
                    continue
                cells.append(GridCell(*key, "ok", fit))
    return RegressionGrid(kind, cells, standardize)


def run_factor_matrix(
    panel: BuiltPanel,
    tokens: list[str],
    measures: tuple[str, ...] = MEASURES,
    standardize: bool = True,
    star_thresholds: tuple[float, float, float] = STAR_THRESHOLDS,
) -> RegressionGrid:
    """OLS grid over token -> category -> factor -> measure."""
    return _run_grid(panel, "ols", tokens, measures, standardize, star_thresholds)


def run_iv_suite(
    panel: BuiltPanel,
    tokens: list[str],
    measures: tuple[str, ...] = IV_DEFAULT_MEASURES,
    standardize: bool = True,
    star_thresholds: tuple[float, float, float] = STAR_THRESHOLDS,
) -> RegressionGrid:
    """2SLS grid for the instrumented measures (one panel per measure)."""
    if not panel.instrument:
        raise ValueError("no instrument series in the panel")
    return _run_grid(panel, "iv", tokens, measures, standardize, star_thresholds)


@dataclass(frozen=True)
class InstrumentScreen:
    """Per-measure instrument relevance plus instrument descriptives."""

    rows: tuple[tuple[str, float, float, str, int], ...]  # measure, F, p, stars, n
    mean: float
    median: float
    maximum: float
    minimum: float
    std: float


def instrument_screen(
    instrument: dict[date, float],
    measures: dict[str, dict[date, float]],
    star_thresholds: tuple[float, float, float] = STAR_THRESHOLDS,
) -> InstrumentScreen:
    """Univariate F of each measure on the instrument, with descriptives.

    A perfect fit (instrument identical to the measure) reports an infinite
    F with p = 0.
    """
    rows = []
    for name in MEASURES:
        days, m, z = align(measures.get(name, {}), instrument)
        if len(days) < 3:
            rows.append((name, float("nan"), float("nan"), "", len(days)))
            continue
        try:
            fit = ols(m, z, star_thresholds)
        except ValueError:
            rows.append((name, float("nan"), float("nan"), "", len(days)))
            continue
        if fit.r2 >= 1.0 - 1e-12:  # instrument reproduces the measure exactly
            rows.append((name, float("inf"), 0.0, "***", fit.n))
            continue
        rows.append((name, fit.t1 * fit.t1, fit.p1, fit.stars, fit.n))
    values = np.array(sorted(instrument.values()), dtype=float)
    if values.size == 0:
        raise ValueError("empty instrument series")
    return InstrumentScreen(
        rows=tuple(rows),
        mean=float(values.mean()),
        median=float(np.median(values)),
        maximum=float(values.max()),
        minimum=float(values.min()),
        std=float(values.std(ddof=1)) if values.size > 1 else 0.0,
    )
