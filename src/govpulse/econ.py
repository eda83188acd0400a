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

Fits are computed in batches: the k dependent rows fitted on one design
(one sample and one measure of a grid) are solved by one call of the stacked
least-squares gufunc that ``np.linalg.lstsq`` loops over, CHUNK_ROWS rows
at a time, and their residuals, slope statistics and endogeneity statistics
are array arithmetic. Each row gets the bits ``np.linalg.lstsq`` and the
scalar formulas give it alone. Every F tail a grid needs (its cells and the
IV first stages) goes through one ``f_pvalues`` pass. ``ols`` and
``two_sls`` are batches of one row, and the endogeneity tests are fields of
each ``IvFit``.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Callable, Mapping
from dataclasses import dataclass
from datetime import date
from functools import cached_property, lru_cache

import numpy as np
from numpy.linalg import LinAlgError, _umath_linalg

from govpulse.centrality import MEASURES
from govpulse.factorlab import BuiltPanel, align
from govpulse.govdata import Series, catalogue_for
from govpulse.profiles import SummaryStats

IV_DEFAULT_MEASURES = ("Voters", "TotalVotes", "Speed")
CHUNK_ROWS = 32  # dependent rows per stacked solve: bounds a batch's temporaries


@np.errstate(all="ignore")  # as with Python floats: an overflow is inf, not an error
def f_pvalues(f: np.ndarray, dof: int | np.ndarray) -> np.ndarray:
    """Upper-tail p-values of F(1, d) statistics, d from ``dof`` (an int or
    one per statistic): I_x(a, 1/2) at a = d/2 and x = d / (d + f), from its
    continued fraction below x = (a + 1) / (a + 5/2) and as 1 - I_y(1/2, a)
    at y = 1 - x above it (Numerical Recipes 6.4). An infinite statistic has
    p 0, a NaN p NaN and one at or below 0 p 1."""
    f = np.asarray(f, dtype=float)
    dof = np.broadcast_to(np.asarray(dof, dtype=np.int64), f.shape)
    if (dof < 1).any():
        raise ValueError("degrees of freedom must be positive")
    p = np.where(np.isinf(f), 0.0, np.where(np.isnan(f), np.nan, 1.0))
    live = np.isfinite(f) & (f > 0.0)
    if not live.any():
        return p
    d, f = dof[live], f[live]
    a = d / 2.0
    x = d / (d + f)
    y = 1.0 - x
    # x^a y^(1/2) / B(a, 1/2), where B(a, 1/2) = sqrt(pi) / R(a); x^a by
    # Python's pow, which np.power does not match bit for bit
    powers = np.array([u**v for u, v in zip(x.tolist(), a.tolist())])
    ratios = np.array([_gamma_ratio(k) for k in d.tolist()])
    front = powers * np.sqrt(y) * ratios / math.sqrt(math.pi)
    lower = x < (a + 1.0) / (a + 2.5)
    first = np.where(lower, a, 0.5)
    tail = front * _beta_fractions(first, np.where(lower, 0.5, a), np.where(lower, x, y)) / first
    p[live] = np.where(lower, tail, 1.0 - tail)
    return p


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


def _off_zero(v: np.ndarray) -> np.ndarray:
    return np.where(np.abs(v) > _FLOOR, v, _FLOOR)


def _beta_fractions(a: np.ndarray, b: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The continued fraction of I_x(a, b) of each entry, by the modified
    Lentz method. For x < (a + 1) / (a + b + 2), with one of a, b equal to
    1/2 and the other to half a degree of freedom from 1 to 1e8, it took
    under 70 terms. Each entry leaves the recurrence at the term where it
    converges: its later terms are within 1e-16 of 1 but would still move
    its last bits."""
    out = np.empty_like(x)
    at = np.arange(x.size)  # where each live entry goes in ``out``
    ab = a + b
    c = np.ones_like(x)
    d = 1.0 / _off_zero(1.0 - ab * x / (a + 1.0))
    fraction = d
    for m in range(1, 1000):
        a2m = a + 2 * m
        even = m * (b - m) * x / ((a2m - 1.0) * a2m)
        odd = -(a + m) * (ab + m) * x / (a2m * (a2m + 1.0))
        for term in (even, odd):
            d = 1.0 / _off_zero(1.0 + term * d)
            c = _off_zero(1.0 + term / c)
            fraction = fraction * (d * c)
        done = np.abs(d * c - 1.0) < 1e-16
        if done.any():
            out[at[done]] = fraction[done]
            live = ~done
            if not live.any():
                return out
            at, a, b, ab, x, c, d, fraction = (v[live] for v in (at, a, b, ab, x, c, d, fraction))
    raise ArithmeticError("incomplete beta continued fraction did not converge")


def chi2_pvalues(stats: np.ndarray) -> np.ndarray:
    """Upper-tail chi-squared(1) p-values, erfc(sqrt(stat / 2)), and 1 at a
    statistic at or below 0. numpy has no erfc, so ``math.erfc`` maps the array."""
    with np.errstate(invalid="ignore"):
        roots = np.sqrt(stats / 2.0).tolist()
    return np.array([1.0 if s <= 0.0 else math.erfc(r) for s, r in zip(stats.tolist(), roots)])


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
    """Values less their mean over their sample standard deviation: one row
    of ``_scaled_rows``."""
    scaled, _ = _scaled_rows(np.ascontiguousarray(_as_array(values))[None], True)
    return scaled[0]


def _css(rows: np.ndarray) -> np.ndarray:
    """The centred sum of squares of each row of a C-contiguous 2-D array.
    It is taken CHUNK_ROWS rows at a time: a temporary the size of a whole
    wide sample raised report-panel's peak RSS, since glibc raises its mmap
    threshold to the size of a freed block. A row reduction of a
    C-contiguous array sums each row as the 1-D reduction of that row alone
    does, so a row of a batch has the bits it has alone."""
    css = np.empty(len(rows))
    with np.errstate(over="ignore", invalid="ignore"):
        for at in range(0, len(rows), CHUNK_ROWS):
            block = rows[at:at + CHUNK_ROWS]
            css[at:at + CHUNK_ROWS] = ((block - block.mean(axis=1)[:, None]) ** 2).sum(axis=1)
    return css


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
    css = _css(arr[None]).tolist()[0]
    if not math.isfinite(css):
        raise ValueError("overflow")
    return _Column(arr, np.column_stack([np.ones(arr.size), arr]), css)


def _flat(x: _Column) -> bool:
    """Whether x carries no slope: all values equal, or values so close to 0
    that their centred squares underflow (no standard error would be finite)."""
    return float(x.values.max() - x.values.min()) == 0.0 or x.css == 0.0


def _regressor(x: _Column) -> _Column:
    """x, checked to carry a slope: at least 3 values, not flat."""
    if x.values.size < 3:
        raise ValueError("need at least 3 observations")
    if _flat(x):
        raise ValueError("degenerate regressor")
    return x


def _svd_failed(err, flag):
    raise LinAlgError("SVD did not converge in Linear Least Squares")


def _lstsq(design: np.ndarray, ys: np.ndarray) -> tuple[np.ndarray, int]:
    """``np.linalg.lstsq(design, y, rcond=None)`` of each row y of ys (k, n)
    on one design (n, p), as one call of the gufunc it wraps, with its rcond
    and error state: the coefficients (k, p) and the design's rank. The
    gufunc broadcasts the design over the batch, as ``np.broadcast_to``
    would: every row reads the same (n, p) matrix."""
    with np.errstate(call=_svd_failed, invalid="call", over="ignore", divide="ignore", under="ignore"):
        coef, _, rank, _ = _umath_linalg.lstsq(
            design, ys[:, :, None], np.finfo(float).eps * max(design.shape), signature="ddd->ddid"
        )
    return coef[:, :, 0], int(rank[0])


def _solve(design: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Least-squares coefficients (k, p) of each row of ys on a design
    without an all-zero column. lstsq's rank cutoff is relative to the
    largest singular value, so a column far from 1 hides the intercept; when
    lstsq finds the design rank-deficient, the batch is solved again with
    each column divided by its largest magnitude."""
    coef, rank = _lstsq(design, ys)
    if rank < design.shape[1]:
        scale = np.abs(design).max(axis=0)
        coef = _lstsq(design / scale, ys)[0] / scale
    return coef


def _dots(resid: np.ndarray) -> np.ndarray:
    """The sum of squares of each row, as a stacked matmul: the 1-D dot of each row."""
    return (resid[:, None, :] @ resid[:, :, None])[:, 0, 0]


def _rss(design: np.ndarray, ys: np.ndarray, coef: np.ndarray) -> np.ndarray:
    """Residual sum of squares of each row of ys on the design at its coefficients."""
    return _dots(ys - (design @ coef[:, :, None])[:, :, 0])


class _Tails:
    """F(1, d) statistics entered by many fits, whose p-values come from one
    ``f_pvalues`` call."""

    def __init__(self) -> None:
        self.stats: list[np.ndarray] = []
        self.dofs: list[int] = []  # one for each array of statistics
        self.size = 0

    def add(self, stats: np.ndarray, dof: int) -> slice:
        """Enters the statistics; their p-values will be ``pvalues()[slice]``."""
        self.stats.append(stats)
        self.dofs.append(dof)
        self.size += stats.size
        return slice(self.size - stats.size, self.size)

    def pvalues(self) -> np.ndarray:
        if not self.stats:
            return np.empty(0)
        return f_pvalues(np.concatenate(self.stats), np.repeat(self.dofs, [s.size for s in self.stats]))


@dataclass(frozen=True)
class _Slopes:
    """Every ``OlsFit`` field but p1 of k lines fitted on one sample of n values, as arrays."""

    beta0: np.ndarray
    beta1: np.ndarray
    se1: np.ndarray
    t1: np.ndarray
    r2: np.ndarray
    adj_r2: np.ndarray
    n: int

    def fits(self, tails: _Tails) -> Callable[[np.ndarray], list[OlsFit]]:
        """Enters t1 squared into the tails at n - 2 degrees of freedom; the
        function returned builds the fits from the tails' p-values."""
        n = self.n
        where = tails.add(self.t1 * self.t1, n - 2)
        fields = [v.tolist() for v in (self.beta0, self.beta1, self.se1, self.t1)]
        quality = [self.r2.tolist(), self.adj_r2.tolist()]
        return lambda p: [OlsFit(*row, n=n) for row in zip(*fields, p[where].tolist(), *quality)]


def _slopes(tss: np.ndarray, coef: np.ndarray, rss: np.ndarray, sxx: float, flat_r2, n: int) -> _Slopes:
    """Slope inference and fit quality; ``flat_r2`` is the R-squared of a constant y."""
    beta0, beta1 = coef[:, 0], coef[:, 1]
    se1 = np.sqrt(rss / (n - 2) / sxx)
    t1 = np.where(se1 > 0.0, beta1 / se1, np.where(beta1 != 0.0, np.copysign(np.inf, beta1), 0.0))
    r2 = np.where(tss > 0.0, 1.0 - rss / tss, flat_r2)
    adj_r2 = 1.0 - (1.0 - r2) * (n - 1) / (n - 2)
    return _Slopes(beta0, beta1, se1, t1, r2, adj_r2, n)


@np.errstate(all="ignore")  # as with Python floats: an overflow is inf, not an error
def _ols_slopes(ys: np.ndarray, tss: np.ndarray, x: _Column) -> _Slopes:
    """OLS of each row of ys (centred sums of squares tss) on a regressor of their length."""
    coef = _solve(x.design, ys)
    rss = _rss(x.design, ys, coef)
    return _slopes(tss, coef, rss, x.css, np.where(rss == 0.0, 1.0, 0.0), x.values.size)


def _ols_cells(ys: np.ndarray, tss: np.ndarray, x: _Column, tails: _Tails) -> Callable[[np.ndarray], list[OlsFit]]:
    return _ols_slopes(ys, tss, x).fits(tails)


def _one(cells, ys: np.ndarray, tss: np.ndarray, side):
    """The fit of a batch of one row, with its p-values."""
    tails = _Tails()
    (fit,) = cells(ys, tss, side, tails)(tails.pvalues())
    return _ready(fit)


def _ols_inputs(y, x) -> tuple[np.ndarray, np.ndarray, _Column]:
    """y as a batch of one row with its centred sum of squares, and x as its regressor."""
    y = _as_array(y)
    x = _as_array(x)
    if y.size != x.size:
        raise ValueError("y and x must have equal length")
    y = _column(y)
    return y.values[None], np.array([y.css]), _regressor(_column(x))


def ols(y, x) -> OlsFit:
    """Univariate least squares with intercept and classical standard errors."""
    return _one(_ols_cells, *_ols_inputs(y, x))


@dataclass(frozen=True)
class _FirstStage:
    """The part of 2SLS that depends on the regressor x and the instrument z
    alone, computed once and shared by every y fitted on the same sample."""

    x: _Column
    fit: _Slopes  # x on z
    fitted: _Column
    # Restricted (1, x) and residual-augmented (1, x, vhat) designs of the
    # exogeneity tests, or why the augmentation is degenerate.
    designs: tuple[np.ndarray, np.ndarray] | str


@np.errstate(all="ignore")
def _first_stage(x: _Column, z: _Column) -> _FirstStage:
    n = int(x.values.size)
    if n < 4:
        raise ValueError("need at least 4 observations")
    if _flat(z):
        raise ValueError("degenerate instrument")
    fit = _ols_slopes(x.values[None], np.array([x.css]), z)
    line = np.array([fit.beta0[0], fit.beta1[0]])
    fitted = line[0] + line[1] * z.values
    # vhat: the first-stage residuals, x less the first-stage line on (1, z).
    vhat = x.values - z.design @ line
    if float(vhat @ vhat) <= 1e-14 * x.css:  # a first-stage R-squared of 1 to 14 digits
        designs: tuple[np.ndarray, np.ndarray] | str = "collinear augmentation: x is perfectly explained by z"
    else:
        augmented = np.column_stack([np.ones(n), x.values, vhat])
        if np.linalg.matrix_rank(augmented / np.abs(augmented).max(axis=0)) < 3:  # scale-free verdict
            designs = "collinear augmentation"
        else:
            designs = (x.design, augmented)
    return _FirstStage(x, fit, _column(fitted), designs)


@np.errstate(all="ignore")
def _durbin_wu_hausman(ys: np.ndarray, stage: _FirstStage) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Durbin and Wu-Hausman statistics of each row of ys on the stage's
    designs, and whether the augmented regression fits it perfectly."""
    if isinstance(stage.designs, str):
        raise ValueError(stage.designs)
    restricted, augmented = stage.designs
    n = ys.shape[1]
    rss_r = _rss(restricted, ys, _solve(restricted, ys))
    rss_u = _rss(augmented, ys, _solve(augmented, ys))
    durbin = n * (rss_r - rss_u) / rss_r
    wu_hausman = (n - 3) * (rss_r - rss_u) / rss_u
    return durbin, wu_hausman, (rss_r <= 0.0) | (rss_u <= 0.0)


_PERFECT_FIT = "degenerate augmentation: perfect fit"


@np.errstate(all="ignore")
def _iv_cells(ys: np.ndarray, tss: np.ndarray, stage: _FirstStage, tails: _Tails) -> Callable[[np.ndarray], list[IvFit | str]]:
    """2SLS of each row of ys, of the stage's length, on the stage's x: the
    fit, or why the row's endogeneity tests are degenerate."""
    fitted = stage.fitted
    if _flat(fitted):
        raise ValueError("degenerate regressor: first stage is flat")
    durbin, wu_hausman, perfect = _durbin_wu_hausman(ys, stage)
    coef = _solve(fitted.design, ys)
    # 2SLS correction: variance from residuals against the actual regressor.
    resid = ys - coef[:, :1] - coef[:, 1:] * stage.x.values
    n = ys.shape[1]
    second = _slopes(tss, coef, _dots(resid), fitted.css, 0.0, n).fits(tails)
    first = stage.fit.fits(tails)
    wu_hausman_at = tails.add(wu_hausman, n - 3)
    columns = (durbin.tolist(), chi2_pvalues(durbin).tolist(), wu_hausman.tolist())

    def fits(p: np.ndarray) -> list[IvFit | str]:
        (first_fit,) = first(p)
        partial_f = first_fit.t1 * first_fit.t1
        return [
            _PERFECT_FIT if bad else IvFit(first_fit, partial_f, fit, *tests)
            for fit, bad, *tests in zip(second(p), perfect.tolist(), *columns, p[wu_hausman_at].tolist())
        ]

    return fits


def two_sls(y, x, z) -> IvFit:
    """Two-stage least squares of y on x instrumented by z, with the Durbin
    and Wu-Hausman tests of x's exogeneity.

    A weak instrument does not raise; the partial F is reported and the
    caller decides. A constant instrument does raise, and so does the
    self-instrument case z = x: it is estimable, but its endogeneity
    augmentation is degenerate.
    """
    y = _as_array(y)
    x = _as_array(x)
    z = _as_array(z)
    if not (y.size == x.size == z.size):
        raise ValueError("y, x and z must have equal length")
    y = _column(y)
    return _one(_iv_cells, y.values[None], np.array([y.css]), _first_stage(_column(x), _column(z)))


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


def _scaled_rows(rows: np.ndarray, standardize: bool) -> tuple[np.ndarray, list[str | None]]:
    """The rows of a C-contiguous 2-D array, z-scored when ``standardize``:
    each row less its mean over its sample standard deviation (0 for a row
    of one value), or less its mean alone where that deviation is 0. A row
    of finite values whose squares overflow is divided by its largest
    magnitude and z-scored again: the z-score does not depend on the scale.
    Also returned, for each row, "non-finite value" where it holds one, or
    None. A row reduction of a C-contiguous array sums each row as the 1-D
    reduction of that row alone does, so every row has the bits it has alone."""
    faults = [None if ok else "non-finite value" for ok in np.isfinite(rows).all(axis=1).tolist()]
    if not standardize:
        return rows, faults
    scaled = np.empty_like(rows)
    for at in range(0, len(rows), CHUNK_ROWS):  # temporaries of CHUNK_ROWS rows (see _css)
        block = rows[at:at + CHUNK_ROWS]
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            sd = block.std(axis=1, ddof=1) if rows.shape[1] > 1 else np.zeros(len(block))
            scaled[at:at + CHUNK_ROWS] = (block - block.mean(axis=1)[:, None]) / np.where(sd == 0.0, 1.0, sd)[:, None]
        for row, deviation in enumerate(sd.tolist(), start=at):
            if faults[row] is None and not math.isfinite(deviation):
                scaled[row] = _scaled_rows(rows[row:row + 1] / np.abs(rows[row]).max(), True)[0][0]
    return scaled, faults


# grid kind -> (regressor side built from the prepared measure column, and
# for IV the instrument column; the fits of a batch of prepared factor rows
# on that side, from the p-values of the F tails they enter; fewest aligned
# dates a cell needs)
_GRID_KINDS = {
    "ols": (_regressor, _ols_cells, 3),
    "iv": (_first_stage, _iv_cells, 5),
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
    2-D array, the measure side (its column, the instrument column and the
    IV first stage) is built once per measure and sample, and the factor
    rows fitted on one side are solved together, CHUNK_ROWS at a time. Every
    p-value of the grid comes from one ``f_pvalues`` pass. Samples are the
    sorted day ordinals of the series, taken by ``searchsorted``.
    """
    side_of, cells_of, min_n = _GRID_KINDS[kind]
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

    tails = _Tails()
    pending = []  # (measure, the spec slot of each row of a batch, their fits from the p-values)
    for days, fitted in samples.values():
        built: dict[str, object] = {}  # measure -> its side on this sample
        values, faults = _scaled_rows(np.stack([series.on(days) for _, series, _ in fitted]), standardize)
        tss = _css(values)
        rows_of: dict[str, list[int]] = {}  # measure -> the rows fitted on it
        for row, ((slot, _, names), fault, css) in enumerate(zip(fitted, faults, tss.tolist())):
            fault = fault or (None if math.isfinite(css) else "overflow")
            for name in names:
                if fault:
                    outcomes[slot][name] = (f"error: {fault}", None)
                else:
                    rows_of.setdefault(name, []).append(row)
        for name, rows in rows_of.items():
            for start in range(0, len(rows), CHUNK_ROWS):
                chunk = rows[start:start + CHUNK_ROWS]
                slots = [fitted[row][0] for row in chunk]
                try:
                    pending.append((name, slots, cells_of(values[chunk], tss[chunk], side(name, days, built), tails)))
                except ValueError as exc:
                    for slot in slots:
                        outcomes[slot][name] = (f"error: {exc}", None)
    pvalues = tails.pvalues()
    for name, slots, fits in pending:
        for slot, fit in zip(slots, fits(pvalues)):
            outcomes[slot][name] = (f"error: {fit}", None) if isinstance(fit, str) else ("ok", fit)
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
    instrument = Series.of(instrument)
    tails = _Tails()
    screened = []  # (measure, aligned dates, its fit from the p-values, or None)
    for name in MEASURES:
        days, m, z = align(measures.get(name, Series()), instrument)
        fits = None
        if len(days) >= 3:
            try:
                fits = _ols_cells(*_ols_inputs(m, z), tails)
            except ValueError:
                pass
        screened.append((name, len(days), fits))
    pvalues = tails.pvalues()
    rows = []
    for name, n, fits in screened:
        if fits is None:
            rows.append((name, float("nan"), float("nan"), n))
            continue
        (fit,) = fits(pvalues)
        if fit.r2 >= 1.0 - 1e-12:  # instrument reproduces the measure exactly
            rows.append((name, float("inf"), 0.0, fit.n))
            continue
        rows.append((name, fit.t1 * fit.t1, fit.p1, fit.n))
    return InstrumentScreen(tuple(rows), SummaryStats.describe(instrument.data.tolist()))
