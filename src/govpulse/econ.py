"""Univariate OLS, instrumented 2SLS and endogeneity diagnostics.

Every regression is the univariate form ``y_t = b0 + b1 x_t + e_t`` with an
intercept and classical (homoskedastic) standard errors. Two-sided t and
F(1, d) p-values come from the regularized incomplete beta function and
chi-squared(1) p-values from erfc; over 60,000 random draws with d from 1 to
2000 they are within 1.6e-13 (t, F) and 9.4e-14 (chi-squared) relative of
mpmath wherever the tail is a normal float.

The 2SLS estimator regresses the measure on the instrument (first stage,
with the partial F-statistic, which equals the squared first-stage t for a
single instrument), then the factor on the fitted measure. Second-stage
standard errors and the adjusted R-squared use residuals against the actual
regressor (y - b0 - b1*x), the standard 2SLS correction; the adjusted
R-squared can therefore be negative.

Fits carry numbers only: ``OlsFit`` and ``IvFit`` hold p-values, and the
report draws the significance marks from them when it writes tables and CSVs.

Exogeneity is tested on the residual-augmented regression y ~ (x, vhat)
where vhat are first-stage residuals: the Durbin statistic is the score form
n * (RSS_r - RSS_u) / RSS_r against chi-squared(1), and the Wu-Hausman
statistic is the F form (n - 3) * (RSS_r - RSS_u) / RSS_u against F(1, n-3).
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass
from datetime import date
from functools import cached_property, lru_cache

import numpy as np

from govpulse.centrality import MEASURES
from govpulse.factorlab import BuiltPanel, align, catalogue_for
from govpulse.govdata import Series
from govpulse.profiles import SummaryStats

IV_DEFAULT_MEASURES = ("Voters", "TotalVotes", "Speed")


def t_pvalue(t: float, dof: int) -> float:
    """Two-sided p-value of a t statistic: the F(1, dof) p-value of t squared."""
    return f_pvalue(t * t, 1, dof)


def f_pvalue(f: float, d1: int, d2: int) -> float:
    """Upper-tail p-value of an F(1, d2) statistic: I_x(a, 1/2) at a = d2/2
    and x = d2 / (d2 + f), from its continued fraction below
    x = (a + 1) / (a + 5/2) and as 1 - I_y(1/2, a) at y = 1 - x above it
    (Numerical Recipes 6.4)."""
    if d1 != 1:
        raise ValueError("only F(1, d) tails are computed")
    if d2 < 1:
        raise ValueError("degrees of freedom must be positive")
    if math.isinf(f):
        return 0.0
    if f != f:
        return float("nan")
    if f <= 0.0:
        return 1.0
    a = d2 / 2.0
    x = d2 / (d2 + f)
    y = 1.0 - x
    # x^a y^(1/2) / B(a, 1/2), where B(a, 1/2) = sqrt(pi) / R(a)
    front = x**a * math.sqrt(y) * _gamma_ratio(d2) / math.sqrt(math.pi)
    if x < (a + 1.0) / (a + 2.5):
        return front * _beta_fraction(a, 0.5, x) / a
    return 1.0 - front * _beta_fraction(0.5, a, y) / 0.5


@lru_cache(maxsize=None)
def _gamma_ratio(d: int) -> float:
    """R(a) = Gamma(a + 1/2) / Gamma(a) at a = d/2: the running product
    R(a + 1) = R(a) (a + 1/2) / a from R(1/2) = 1/sqrt(pi) or R(1) =
    sqrt(pi)/2, and above a = 500 its asymptotic series, which is then
    within 5e-17. A difference of log-gammas would cancel at large a."""
    a = d / 2.0
    if a > 500.0:
        u = 1.0 / a
        return math.sqrt(a) * (1.0 + u * (-1 / 8 + u * (1 / 128 + u * (5 / 1024 - u * 21 / 32768))))
    ratio, k = (1.0 / math.sqrt(math.pi), 0.5) if d % 2 else (math.sqrt(math.pi) / 2.0, 1.0)
    while k < a:
        ratio *= (k + 0.5) / k
        k += 1.0
    return ratio


_FLOOR = 1e-300  # keeps the Lentz denominators off zero


def _beta_fraction(a: float, b: float, x: float) -> float:
    """The continued fraction of I_x(a, b) by the modified Lentz method. For
    x < (a + 1) / (a + b + 2), with one of a, b equal to 1/2 and the other
    to half a degree of freedom from 1 to 1e8, it took under 70 terms."""
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > _FLOOR else _FLOOR)
    fraction = d
    for m in range(1, 1000):
        even = m * (b - m) * x / ((a + 2 * m - 1.0) * (a + 2 * m))
        odd = -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1.0))
        for term in (even, odd):
            d = 1.0 + term * d
            d = 1.0 / (d if abs(d) > _FLOOR else _FLOOR)
            c = 1.0 + term / c
            c = c if abs(c) > _FLOOR else _FLOOR
            fraction *= d * c
        if abs(d * c - 1.0) < 1e-16:
            return fraction
    raise ArithmeticError("incomplete beta continued fraction did not converge")


def chi2_pvalue(stat: float, dof: int) -> float:
    """Upper-tail chi-squared(1) p-value, erfc(sqrt(stat / 2))."""
    if dof != 1:
        raise ValueError("only chi-squared(1) tails are computed")
    if stat <= 0.0:
        return 1.0
    return math.erfc(math.sqrt(stat / 2.0))


@dataclass(frozen=True)
class OlsFit:
    beta0: float
    beta1: float
    se1: float
    t1: float
    p1: float
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


def _as_array(values) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise ValueError("series must be one-dimensional")
    if not np.isfinite(arr).all():
        raise ValueError("non-finite value")
    return arr


def zscore(values: np.ndarray) -> np.ndarray:
    """Values less their mean over their sample standard deviation. Finite
    values whose squares overflow are z-scored divided by their largest
    magnitude first: the z-score does not depend on the scale."""
    arr = _as_array(values)
    with np.errstate(over="ignore", invalid="ignore"):
        sd = float(arr.std(ddof=1)) if arr.size > 1 else 0.0
    if not math.isfinite(sd):
        return zscore(arr / np.abs(arr).max())
    if sd == 0.0:
        return arr - arr.mean()
    return (arr - arr.mean()) / sd


@dataclass(frozen=True)
class _Column:
    """A finite series on one sample, with what every fit reading it shares:
    the design (1, values) of a line on it, and its centred sum of squares
    (sxx as a regressor, tss as the dependent variable)."""

    values: np.ndarray
    design: np.ndarray
    css: float


def _column(arr: np.ndarray) -> _Column:
    """Raises ValueError("overflow") for finite values whose centred sum of
    squares is not finite: no fit on them would be."""
    with np.errstate(over="ignore", invalid="ignore"):
        css = float(((arr - arr.mean()) ** 2).sum())
    if not math.isfinite(css):
        raise ValueError("overflow")
    return _Column(arr, np.column_stack([np.ones(arr.size), arr]), css)


def _regressor(x: _Column) -> _Column:
    """x, checked to carry a slope: at least 3 values, not all equal."""
    if x.values.size < 3:
        raise ValueError("need at least 3 observations")
    if float(x.values.max() - x.values.min()) == 0.0:
        raise ValueError("degenerate regressor")
    return x


def _line(y: np.ndarray, design: np.ndarray) -> tuple[float, float, float]:
    """Least-squares intercept, slope and residual sum of squares of y on a
    design (1, x)."""
    coef = _solve(design, y)
    resid = y - design @ coef
    return float(coef[0]), float(coef[1]), float(resid @ resid)


def _solve(design: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Least-squares coefficients of y on a design without an all-zero
    column. lstsq's rank cutoff is relative to the largest singular value,
    so a column far from 1 hides the intercept; when lstsq finds the design
    rank-deficient, it is solved again with each column divided by its
    largest magnitude."""
    coef, _, rank, _ = np.linalg.lstsq(design, y, rcond=None)
    if rank < design.shape[1]:
        scale = np.abs(design).max(axis=0)
        coef = np.linalg.lstsq(design / scale, y, rcond=None)[0] / scale
    return coef


def _summary(
    y: _Column,
    beta0: float,
    beta1: float,
    rss: float,
    sxx: float,
    flat_r2: float,
) -> OlsFit:
    """Slope inference and fit quality; ``flat_r2`` is the R-squared of a constant y."""
    n = int(y.values.size)
    se1 = math.sqrt(rss / (n - 2) / sxx)
    t1 = beta1 / se1 if se1 > 0.0 else math.copysign(math.inf, beta1) if beta1 else 0.0
    p1 = t_pvalue(t1, n - 2)
    tss = y.css
    r2 = 1.0 - rss / tss if tss > 0.0 else flat_r2
    adj_r2 = 1.0 - (1.0 - r2) * (n - 1) / (n - 2)
    return OlsFit(
        beta0=beta0,
        beta1=beta1,
        se1=se1,
        t1=t1,
        p1=p1,
        r2=r2,
        adj_r2=adj_r2,
        n=n,
    )


def _ols_on(y: _Column, x: _Column) -> OlsFit:
    """OLS of y on a regressor of the same length."""
    beta0, beta1, rss = _line(y.values, x.design)
    return _summary(y, beta0, beta1, rss, x.css, flat_r2=1.0 if rss == 0.0 else 0.0)


def ols(y, x) -> OlsFit:
    """Univariate least squares with intercept and classical standard errors."""
    y = _as_array(y)
    x = _as_array(x)
    if y.size != x.size:
        raise ValueError("y and x must have equal length")
    return _ols_on(_column(y), _regressor(_column(x)))


@dataclass(frozen=True)
class _FirstStage:
    """The part of 2SLS that depends on the regressor x and the instrument z
    alone, computed once and shared by every y fitted on the same sample."""

    x: _Column
    fit: OlsFit  # x on z
    fitted: _Column
    # Restricted (1, x) and residual-augmented (1, x, vhat) designs of the
    # exogeneity tests, or why the augmentation is degenerate.
    designs: tuple[np.ndarray, np.ndarray] | str


def _first_stage(x: _Column, z: _Column) -> _FirstStage:
    n = int(x.values.size)
    if n < 4:
        raise ValueError("need at least 4 observations")
    if float(z.values.max() - z.values.min()) == 0.0:
        raise ValueError("degenerate instrument")
    fit = _ols_on(x, z)
    fitted = fit.beta0 + fit.beta1 * z.values
    # vhat: the first-stage residuals, x less the first-stage line on (1, z).
    vhat = x.values - z.design @ np.array([fit.beta0, fit.beta1])
    if float(vhat @ vhat) <= 1e-14 * x.css:  # a first-stage R-squared of 1 to 14 digits
        designs: tuple[np.ndarray, np.ndarray] | str = "collinear augmentation: x is perfectly explained by z"
    else:
        augmented = np.column_stack([np.ones(n), x.values, vhat])
        if np.linalg.matrix_rank(augmented / np.abs(augmented).max(axis=0)) < 3:  # scale-free verdict
            designs = "collinear augmentation"
        else:
            designs = (x.design, augmented)
    return _FirstStage(x, fit, _column(fitted), designs)


def _second_stage(y: _Column, stage: _FirstStage, diagnostics: bool = True) -> IvFit:
    """2SLS of y, of the stage's length, on the stage's x."""
    first, fitted = stage.fit, stage.fitted
    if float(fitted.values.max() - fitted.values.min()) == 0.0:
        raise ValueError("degenerate regressor: first stage is flat")
    beta0, beta1, _ = _line(y.values, fitted.design)

    # 2SLS correction: variance from residuals against the actual regressor.
    resid = y.values - beta0 - beta1 * stage.x.values
    rss = float(resid @ resid)
    second = _summary(y, beta0, beta1, rss, fitted.css, flat_r2=0.0)
    if diagnostics:
        durbin_stat, durbin_p, wh_stat, wh_p = _exogeneity(y.values, stage)
    else:
        durbin_stat = durbin_p = wh_stat = wh_p = float("nan")
    return IvFit(
        first_stage=first,
        partial_f=first.t1 * first.t1,
        second_stage=second,
        durbin_stat=durbin_stat,
        durbin_p=durbin_p,
        wu_hausman_stat=wh_stat,
        wu_hausman_p=wh_p,
    )


def _exogeneity(y: np.ndarray, stage: _FirstStage) -> tuple[float, float, float, float]:
    """Durbin and Wu-Hausman statistics and p-values of y on the stage's designs."""
    if isinstance(stage.designs, str):
        raise ValueError(stage.designs)
    restricted, augmented = stage.designs
    n = int(y.size)
    resid_r = y - restricted @ _solve(restricted, y)
    resid_u = y - augmented @ _solve(augmented, y)
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


def two_sls(y, x, z, diagnostics: bool = True) -> IvFit:
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
    return _second_stage(_column(y), _first_stage(_column(x), _column(z)), diagnostics)


def endogeneity_tests(y, x, z) -> tuple[float, float, float, float]:
    """Durbin (score) and Wu-Hausman (F) tests of regressor exogeneity."""
    y = _as_array(y)
    x = _as_array(x)
    z = _as_array(z)
    if y.size < 4:
        raise ValueError("need at least 4 observations for the augmented regression")
    return _exogeneity(y, _first_stage(_column(x), _column(z)))


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
    measures: tuple[str, ...]  # the measures fitted, in cell order

    def ok_cells(self) -> list[GridCell]:
        return [c for c in self.cells if c.status == "ok"]

    def status_counts(self) -> dict[str, int]:
        """The number of cells of each status."""
        return dict(Counter(c.status for c in self.cells))

    @cached_property
    def tables(self) -> dict[tuple[str, str], dict[tuple[str, str], GridCell]]:
        """The cells by (token, category), then by (factor, measure)."""
        tables: dict[tuple[str, str], dict[tuple[str, str], GridCell]] = {}
        for c in self.cells:
            tables.setdefault((c.token, c.category), {})[c.factor, c.measure] = c
        return tables


def _ready(value):
    """A value the grid built once, or the message of the ValueError that
    building it raised, raised again for each cell that reads it."""
    if isinstance(value, str):
        raise ValueError(value)
    return value


def _scaled_rows(rows: np.ndarray, standardize: bool) -> list[np.ndarray | str]:
    """Each row of a C-contiguous 2-D array as ``zscore`` (``_as_array``
    when not ``standardize``) returns it, or the message of the ValueError it
    raises. A row reduction of a C-contiguous array sums each row as the 1-D
    reduction of that row alone does, so every row has the bits of its 1-D
    z-score; a row whose standard deviation overflows is z-scored alone."""
    finite = np.isfinite(rows).all(axis=1).tolist()
    if not standardize:
        return [row if ok else "non-finite value" for row, ok in zip(rows, finite)]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        sd = rows.std(axis=1, ddof=1)
        scaled = (rows - rows.mean(axis=1)[:, None]) / np.where(sd == 0.0, 1.0, sd)[:, None]
    return [
        "non-finite value" if not ok else z if math.isfinite(deviation) else zscore(row)
        for row, z, ok, deviation in zip(rows, scaled, finite, sd.tolist())
    ]


# grid kind -> (regressor side built from the prepared measure column, and
# for IV the instrument column; fit of one cell from the prepared factor
# column and that side; fewest aligned dates a cell needs)
_GRID_KINDS = {
    "ols": (_regressor, _ols_on, 3),
    "iv": (_first_stage, _second_stage, 5),
}


def _run_grid(
    panel: BuiltPanel,
    kind: str,
    tokens: list[str],
    measures: tuple[str, ...],
    standardize: bool,
) -> RegressionGrid:
    """One cell per token -> catalogue factor -> measure, in that order.

    Each cell fits the factor series under its own (token, category,
    factor) key on its complete-case sample with the measure (and, for IV,
    the instrument). Cells with fewer aligned dates than the kind needs, an
    absent series included, are marked "no data"; per-cell failures, a
    non-finite value among them, are recorded without aborting the grid.

    Every fit equals the direct ``ols``/``two_sls`` on ``align(...)``, but
    no work is repeated: measures with one date set share each factor's
    sample, the factor columns of one sample are z-scored together as one
    2-D array, and the measure side (its column, the instrument column and
    the IV first stage) is built once per measure and sample. Samples are
    the sorted day ordinals of the series, taken by ``searchsorted``.
    """
    side_of, fit_of, min_n = _GRID_KINDS[kind]
    scale = zscore if standardize else _as_array
    extra = (panel.instrument,) if kind == "iv" else ()
    date_sets: dict[bytes, tuple[np.ndarray, list[str]]] = {}  # ascending day ordinals -> measures
    for measure in measures:
        days = panel.measures.get(measure, Series()).days
        for series in extra:
            days = series.held(days)
        date_sets.setdefault(days.tobytes(), (days, []))[1].append(measure)


    def side(measure: str, days: np.ndarray, built: dict[str, object]):
        if measure not in built:
            try:
                columns = [_column(scale(s.on(days))) for s in (panel.measures[measure], *extra)]
                built[measure] = side_of(*columns)
            except ValueError as exc:
                built[measure] = str(exc)
        return _ready(built[measure])

    specs = [(token, spec) for token in tokens for spec in catalogue_for(token)]
    outcomes: list[dict[str, tuple[str, OlsFit | IvFit | None]]] = [{} for _ in specs]
    # sample -> its day ordinals and the (spec slot, factor series, measures) fitted on it
    samples: dict[bytes, tuple[np.ndarray, list[tuple[int, Series, list[str]]]]] = {}
    for slot, (token, spec) in enumerate(specs):
        series = panel.factors.get((token, spec.category, spec.name), Series())
        for dates, names in date_sets.values():
            days = series.held(dates)
            if len(days) < min_n:
                outcomes[slot].update(dict.fromkeys(names, ("no data", None)))
            else:
                samples.setdefault(days.tobytes(), (days, []))[1].append((slot, series, names))

    for days, fitted in samples.values():
        built: dict[str, object] = {}  # measure -> its side on this sample
        rows = np.stack([series.on(days) for _, series, _ in fitted])
        for (slot, _, names), values in zip(fitted, _scaled_rows(rows, standardize)):
            try:
                y = _column(_ready(values))
            except ValueError as exc:
                y = str(exc)
            for name in names:
                try:
                    fit = fit_of(_ready(y), side(name, days, built))
                except ValueError as exc:
                    outcomes[slot][name] = (f"error: {exc}", None)
                else:
                    outcomes[slot][name] = ("ok", fit)
    cells = [GridCell(token, spec.category, spec.name, m, *outcomes[slot][m])
             for slot, (token, spec) in enumerate(specs) for m in measures]
    return RegressionGrid(kind, cells, standardize, tuple(measures))


def run_factor_matrix(
    panel: BuiltPanel,
    tokens: list[str],
    measures: tuple[str, ...] = MEASURES,
    standardize: bool = True,
) -> RegressionGrid:
    """OLS grid over token -> category -> factor -> measure."""
    return _run_grid(panel, "ols", tokens, measures, standardize)


def run_iv_suite(
    panel: BuiltPanel,
    tokens: list[str],
    measures: tuple[str, ...] = IV_DEFAULT_MEASURES,
    standardize: bool = True,
) -> RegressionGrid:
    """2SLS grid for the instrumented measures (one panel per measure)."""
    if not panel.instrument:
        raise ValueError("no instrument series in the panel")
    return _run_grid(panel, "iv", tokens, measures, standardize)


@dataclass(frozen=True)
class InstrumentScreen:
    """Per-measure instrument relevance plus instrument descriptives."""

    rows: tuple[tuple[str, float, float, int], ...]  # measure, F, p, n
    stats: SummaryStats  # of the instrument's values


def instrument_screen(instrument: Mapping[date, float], measures: Mapping[str, Mapping[date, float]]) -> InstrumentScreen:
    """Univariate F of each measure on the instrument, with descriptives.

    A perfect fit (instrument identical to the measure) reports an infinite
    F with p = 0. An empty instrument raises ValueError.
    """
    rows = []
    instrument = Series.of(instrument)
    for name in MEASURES:
        days, m, z = align(measures.get(name, Series()), instrument)
        if len(days) < 3:
            rows.append((name, float("nan"), float("nan"), len(days)))
            continue
        try:
            fit = ols(m, z)
        except ValueError:
            rows.append((name, float("nan"), float("nan"), len(days)))
            continue
        if fit.r2 >= 1.0 - 1e-12:  # instrument reproduces the measure exactly
            rows.append((name, float("inf"), 0.0, fit.n))
            continue
        rows.append((name, fit.t1 * fit.t1, fit.p1, fit.n))
    return InstrumentScreen(tuple(rows), SummaryStats.describe(instrument.data.tolist()))
