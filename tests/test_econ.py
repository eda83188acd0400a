"""Regression engine: closed-form checks, p-value oracle, Monte Carlo."""

from __future__ import annotations

import math
import tracemalloc
from datetime import date, timedelta
from unittest import mock

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import grid_cell
from oracles import durbin_wu_hausman_oracle, lstsq_oracle, ols_oracle, two_sls_oracle, zscore_oracle
from govpulse import econ
from govpulse.econ import (
    IV_DEFAULT_MEASURES,
    chi2_pvalues,
    f_pvalues,
    instrument_screen,
    ols,
    run_factor_matrix,
    run_iv_suite,
    two_sls,
    zscore,
)
from govpulse.factorlab import BuiltPanel, align
from govpulse.govdata import Series, catalogue_for
from govpulse.report import significance_stars

D0 = date(2021, 3, 1)


def _panel(factors: dict, measures: dict, instrument: dict | None = None) -> BuiltPanel:
    return BuiltPanel(
        factors={key: Series.of(series) for key, series in factors.items()},
        measures={name: Series.of(series) for name, series in measures.items()},
        instrument=Series.of(instrument or {}),
        anomalies=[],
    )


def _series(values) -> dict[date, float]:
    return {D0 + timedelta(days=i): float(v) for i, v in enumerate(values)}


# ---------------------------------------------------------------- OLS core


def test_ols_exact_fit():
    x = np.arange(10.0)
    fit = ols(2 * x + 1, x)
    assert fit.beta1 == pytest.approx(2.0, abs=1e-12)
    assert fit.beta0 == pytest.approx(1.0, abs=1e-12)
    assert fit.r2 == pytest.approx(1.0, abs=1e-12)


def test_ols_matches_covariance_oracle():
    rng = np.random.default_rng(31)
    for _ in range(500):
        n = int(rng.integers(3, 80))
        x = rng.normal(0, rng.uniform(0.1, 10), n)
        if x.max() == x.min():
            continue
        y = rng.normal(0, 5, n) + rng.uniform(-2, 2) * x
        fit = ols(y, x)
        beta0, beta1 = ols_oracle(y, x)
        assert abs(fit.beta1 - beta1) <= 1e-10
        assert abs(fit.beta0 - beta0) <= 1e-10


def test_ols_residual_orthogonality():
    rng = np.random.default_rng(17)
    for _ in range(100):
        n = int(rng.integers(5, 200))
        x = rng.normal(0, 3, n)
        y = 1.5 * x + rng.normal(0, 2, n)
        fit = ols(y, x)
        resid = y - fit.beta0 - fit.beta1 * x
        assert abs(resid.sum()) <= 1e-8 * n
        assert abs((resid * x).sum()) <= 1e-8 * n * x.std()


def test_ols_affine_equivariance():
    rng = np.random.default_rng(23)
    x = rng.normal(0, 2, 60)
    y = 0.7 * x + rng.normal(0, 1, 60)
    base = ols(y, x)
    scaled = ols(3.5 * y - 2.0, x)
    assert abs(scaled.beta1 - 3.5 * base.beta1) <= 1e-10
    # standardizing x rescales beta1 by std(x) and leaves t unchanged
    xs = (x - x.mean()) / x.std(ddof=1)
    standardized = ols(y, xs)
    assert abs(standardized.beta1 - base.beta1 * x.std(ddof=1)) <= 1e-9
    assert abs(standardized.t1 - base.t1) <= 1e-9


def test_ols_of_a_regressor_far_from_one():
    # lstsq's rank cutoff is relative to the largest singular value: at 1e20
    # the intercept column falls below it unless the design is rescaled
    rng = np.random.default_rng(9)
    k = np.arange(12.0)
    y = 2.0 + 0.3 * k + rng.normal(0, 1, 12)
    big, unit = ols(y, 1e20 + k * 1e18), ols(y, 1.0 + k / 100)
    for name in ("beta0", "t1", "p1", "r2"):
        assert getattr(big, name) == pytest.approx(getattr(unit, name), rel=1e-9), name
    assert big.beta1 * 1e20 == pytest.approx(unit.beta1, rel=1e-9)


def test_ols_errors():
    with pytest.raises(ValueError, match="degenerate regressor"):
        ols([1.0, 2.0, 3.0], [5.0, 5.0, 5.0])
    with pytest.raises(ValueError, match="degenerate regressor"):  # centred squares underflow to 0
        ols([1.0, 2.0, 3.0, 5.0], [0.0, 5e-324, 0.0, 5e-324])
    with pytest.raises(ValueError):
        ols([1.0, 2.0], [1.0, 2.0])


def test_ols_t_test_size_five_percent():
    rng = np.random.default_rng(2718)
    n, trials = 127, 1000
    rejections = sum(
        ols(rng.normal(size=n), rng.normal(size=n)).p1 < 0.05 for _ in range(trials)
    )
    assert 0.03 <= rejections / trials <= 0.07


def test_stars_thresholds():
    assert significance_stars(0.005) == "***"
    assert significance_stars(0.01) == "***"
    assert significance_stars(0.03) == "**"
    assert significance_stars(0.05) == "**"
    assert significance_stars(0.07) == "*"
    assert significance_stars(0.10) == "*"
    assert significance_stars(0.101) == ""


# ------------------------------------------------------------- p-values


def test_t_pvalue_matches_mpmath_oracle():
    mp.mp.dps = 50
    points = [
        (0.1, 3), (0.5, 3), (1.0, 5), (1.645, 10), (1.96, 10),
        (2.0, 30), (2.576, 30), (3.0, 60), (0.25, 60), (4.0, 125),
        (1.0, 125), (1.96, 125), (5.0, 125), (8.0, 200), (0.05, 200),
        (2.33, 500), (1.28, 1000), (3.29, 1000), (6.0, 2000), (0.67, 47),
    ]
    ours = f_pvalues(np.array([t * t for t, _ in points]), np.array([dof for _, dof in points])).tolist()
    for p, (t, dof) in zip(ours, points):
        x = mp.mpf(dof) / (dof + mp.mpf(t) ** 2)
        oracle = float(mp.betainc(mp.mpf(dof) / 2, mp.mpf("0.5"), 0, x, regularized=True))
        assert abs(p - oracle) <= 1e-10


SMALLEST_NORMAL = 2.2250738585072014e-308


def _meets_oracle(ours: float, oracle) -> None:
    """Within 1e-12 relative of the oracle where it is a normal float, and
    below the smallest normal where it is not; never NaN, never above 1."""
    assert 0.0 <= ours <= 1.0
    if oracle >= SMALLEST_NORMAL:
        assert abs(ours - oracle) <= 1e-12 * oracle, (ours, oracle)
    else:
        assert ours < SMALLEST_NORMAL, (ours, oracle)


@settings(max_examples=200, deadline=None)
@example(dof=235, log_f=math.log10(93717.91814752131), negative=False)  # p 1.0e-307
@example(dof=235, log_f=math.log10(99799.46395543872), negative=False)  # p 6.3e-311
@example(dof=1952, log_f=math.log10(2090.6731770024307), negative=True)  # p 6.3e-311
@example(dof=1, log_f=-12.0, negative=False)
@example(dof=2000, log_f=7.0, negative=False)
@given(dof=st.integers(1, 2000), log_f=st.floats(-12.0, 7.0), negative=st.booleans())
def test_f_and_t_pvalues_match_mpmath(dof, log_f, negative):
    """The F(1, dof) tail, and the two-sided t tail of its square root, at
    the x = dof / (dof + F) the function computes: the rounding of x is the
    input's, not the tail's."""
    f = 10.0**log_f
    t = -math.sqrt(f) if negative else math.sqrt(f)
    for stat in (f, t * t):
        ours = f_pvalues(np.array([stat]), dof)[0]
        x = dof / (dof + stat)
        with mp.workdps(40):
            _meets_oracle(ours, mp.betainc(mp.mpf(dof) / 2, mp.mpf(1) / 2, 0, mp.mpf(x), regularized=True))


F_STATS = st.one_of(
    st.floats(-12.0, 7.0).map(lambda e: 10.0**e),
    st.sampled_from([math.inf, -math.inf, math.nan, 0.0, -0.0, -2.5, -1e300]),
)


@settings(max_examples=100, deadline=None)
@example(entries=[(10, 1e-3), (10, 100.0), (2000, 5.0), (1, 1e7), (235, 93717.91814752131),
                  (7, math.inf), (7, math.nan), (7, 0.0), (7, -2.5)])
@given(entries=st.lists(st.tuples(st.integers(1, 2000), F_STATS), min_size=1, max_size=40))
def test_f_pvalues_of_a_mixed_array(entries):
    """One array of F(1, d) statistics on both sides of the x < (a + 1) /
    (a + 5/2) split, with inf, NaN and F <= 0 among them: every entry meets
    mpmath, and has the bits it has alone, so no entry's fraction moves after
    it converged while others still run."""
    dof = np.array([d for d, _ in entries])
    stats = np.array([f for _, f in entries])
    pvalues = f_pvalues(stats, dof)
    for at, (d, f) in enumerate(entries):
        ours = pvalues[at]
        assert ours.tobytes() == f_pvalues(stats[at:at + 1], d)[0].tobytes(), (d, f)
        if f != f:
            assert ours != ours
        elif f <= 0.0 or math.isinf(f):
            assert ours == (0.0 if math.isinf(f) else 1.0)
        else:
            with mp.workdps(40):
                _meets_oracle(ours, mp.betainc(mp.mpf(d) / 2, mp.mpf(1) / 2, 0, mp.mpf(d / (d + f)), regularized=True))


@settings(max_examples=200, deadline=None)
@example(stat=1500.0)
@example(stat=1e-12)
@given(stat=st.floats(0.0, 1500.0))
def test_chi2_pvalue_matches_mpmath(stat):
    with mp.workdps(40):
        _meets_oracle(chi2_pvalues(np.array([stat]))[0], mp.gammainc(mp.mpf(1) / 2, mp.mpf(stat) / 2, mp.inf, regularized=True))


def test_pvalues_refuse_untabulated_degrees_of_freedom():
    with pytest.raises(ValueError, match="positive"):
        f_pvalues(np.array([2.0]), 0)
    with pytest.raises(ValueError, match="positive"):
        f_pvalues(np.array([2.0, 2.0]), np.array([10, 0]))


def test_f_pvalue_matches_squared_t():
    """The F(1, d) tail of t squared is the two-sided Student-t tail of t:
    twice the integral of the t density above t."""
    points = [(0.5, 10), (1.3, 40), (2.9, 125)]
    ours = f_pvalues(np.array([t * t for t, _ in points]), np.array([dof for _, dof in points])).tolist()
    for p, (t, dof) in zip(ours, points):
        with mp.workdps(30):
            nu = mp.mpf(dof)
            scale = mp.gamma((nu + 1) / 2) / (mp.sqrt(nu * mp.pi) * mp.gamma(nu / 2))
            tail = 2 * mp.quad(lambda s: scale * (1 + s * s / nu) ** (-(nu + 1) / 2), [t, mp.inf])
        assert p == pytest.approx(float(tail), abs=1e-12)


def test_chi2_pvalue_known_points():
    p05, p01, p0 = chi2_pvalues(np.array([3.841458820694124, 6.634896601021213, 0.0])).tolist()
    assert p05 == pytest.approx(0.05, abs=1e-9)
    assert p01 == pytest.approx(0.01, abs=1e-9)
    assert p0 == 1.0


def test_pvalue_edge_cases():
    assert f_pvalues(np.array([math.inf, 0.0]), 10).tolist() == [0.0, 1.0]


# ----------------------------------------------------------------- 2SLS


def test_two_sls_self_instrument_equals_ols():
    rng = np.random.default_rng(4)
    x = rng.normal(0, 2, 80)
    y = 3 * x + rng.normal(0, 1, 80)
    with pytest.raises(ValueError, match="collinear augmentation"):
        two_sls(y, x, x)  # vhat is identically zero
    # the closed form at z = x is OLS, and two_sls meets it wherever z != x
    direct = ols(y, x)
    assert two_sls_oracle(y, x, x) == pytest.approx((direct.beta1, direct.se1), abs=1e-9)
    for _ in range(200):
        n = int(rng.integers(5, 150))
        z = rng.normal(0, rng.uniform(0.1, 10), n)
        x = rng.uniform(0.2, 2) * z + rng.normal(0, rng.uniform(0.1, 3), n)
        y = rng.uniform(-3, 3) * x + rng.normal(0, 1, n)
        fit = two_sls(y, x, z).second_stage
        beta1, se1 = two_sls_oracle(y, x, z)
        assert abs(fit.beta1 - beta1) <= 1e-9
        assert abs(fit.se1 - se1) <= 1e-9


def test_two_sls_near_self_instrument_matches_ols_beta():
    rng = np.random.default_rng(44)
    x = rng.normal(0, 2, 120)
    z = x + rng.normal(0, 1e-6, 120)  # nearly x, keeps vhat non-degenerate
    y = 3 * x + rng.normal(0, 1, 120)
    fit = two_sls(y, x, z)
    assert fit.second_stage.beta1 == pytest.approx(ols(y, x).beta1, abs=1e-4)


def test_two_sls_partial_f_identity():
    rng = np.random.default_rng(5)
    z = rng.normal(size=127)
    x = z + rng.normal(size=127)
    y = 3 * x + rng.normal(size=127)
    fit = two_sls(y, x, z)
    assert abs(fit.partial_f - fit.first_stage.t1 ** 2) <= 1e-9


def test_two_sls_constant_instrument_raises():
    rng = np.random.default_rng(6)
    x = rng.normal(size=20)
    y = rng.normal(size=20)
    with pytest.raises(ValueError, match="degenerate instrument"):
        two_sls(y, x, np.ones(20))
    with pytest.raises(ValueError, match="degenerate instrument"):
        two_sls(y, x, np.arange(20) % 2 * 5e-324)


def test_two_sls_exogenous_dgp_recovers_beta():
    rng = np.random.default_rng(777)
    trials, n = 200, 127
    covered = durbin_ok = 0
    for _ in range(trials):
        z = rng.normal(size=n)
        e = rng.normal(size=n)
        u = rng.normal(size=n)
        x = z + e
        y = 3 * x + u
        fit = two_sls(y, x, z)
        if abs(fit.second_stage.beta1 - 3.0) <= 2 * fit.second_stage.se1:
            covered += 1
        if fit.durbin_p > 0.05:
            durbin_ok += 1
    assert covered / trials >= 0.90
    assert durbin_ok / trials >= 0.90


def test_two_sls_beats_ols_under_endogeneity():
    rng = np.random.default_rng(888)
    trials, n = 200, 127
    ols_biased_up = iv_closer = 0
    for _ in range(trials):
        z = rng.normal(size=n)
        u = rng.normal(size=n)
        x = z + u  # shared shock: x endogenous
        y = 3 * x + u
        naive = ols(y, x)
        fit = two_sls(y, x, z)
        if naive.beta1 > 3.0:
            ols_biased_up += 1
        if abs(fit.second_stage.beta1 - 3.0) < abs(naive.beta1 - 3.0):
            iv_closer += 1
    assert ols_biased_up / trials >= 0.95
    assert iv_closer / trials >= 0.90


def test_two_sls_negative_adjusted_r2_possible():
    rng = np.random.default_rng(909)
    n = 127
    z = rng.normal(size=n)
    u = rng.normal(size=n)
    x = 0.4 * z + u + 0.3 * rng.normal(size=n)
    y = u + rng.normal(size=n)  # y loads on the confound, not on z's part of x
    fit = two_sls(y, x, z)
    assert fit.second_stage.adj_r2 < fit.second_stage.r2 + 1e-12


# ------------------------------------------------------ endogeneity tests


def test_endogeneity_size_in_window():
    rng = np.random.default_rng(1001)
    trials, n = 1000, 127
    durbin_rej = wh_rej = 0
    for _ in range(trials):
        z = rng.normal(size=n)
        x = z + rng.normal(size=n)
        y = 3 * x + rng.normal(size=n)
        fit = two_sls(y, x, z)
        durbin_rej += fit.durbin_p < 0.05
        wh_rej += fit.wu_hausman_p < 0.05
    assert 0.02 <= durbin_rej / trials <= 0.08
    assert 0.02 <= wh_rej / trials <= 0.08


def test_endogeneity_power_at_confound_08():
    rng = np.random.default_rng(1002)
    trials, n = 400, 127
    durbin_rej = wh_rej = 0
    for _ in range(trials):
        z = rng.normal(size=n)
        u = rng.normal(size=n)
        x = z + 0.8 * u + rng.normal(size=n)
        y = 3 * x + u
        fit = two_sls(y, x, z)
        durbin_rej += fit.durbin_p < 0.05
        wh_rej += fit.wu_hausman_p < 0.05
    assert durbin_rej / trials >= 0.80
    assert wh_rej / trials >= 0.80


def test_endogeneity_perfect_first_stage_errors():
    z = np.arange(20.0)
    x = 2 * z + 1  # vhat identically zero
    y = x + np.random.default_rng(0).normal(size=20)
    with pytest.raises(ValueError, match="collinear"):
        two_sls(y, x, z)


def test_durbin_wu_hausman_meet_the_exact_oracle():
    """On exogenous and confounded draws, both statistics are within 1e-9
    relative of the exact rational ones. A statistic near 0 is n times a
    small difference of two residual sums of squares, whose rounding leaves
    an absolute error of a few n * 2**-52, so 64 n * 2**-52 is allowed too:
    at 1e-9 relative alone, the two statistics of draw 136 (n = 74, Durbin
    7.1e-6) miss, 3.1e-9 relative and 2.2e-14 absolute off."""
    rng = np.random.default_rng(3103)
    for trial in range(200):
        n = int(rng.integers(20, 81))
        z = rng.normal(size=n)
        u = rng.normal(size=n)
        x = z + (0.8 if trial % 2 else 0.0) * u + rng.normal(size=n)
        y = 2 * x + u
        fit = two_sls(y, x, z)
        for got, want in zip((fit.durbin_stat, fit.wu_hausman_stat), durbin_wu_hausman_oracle(y, x, z)):
            assert abs(got - want) <= 1e-9 * abs(want) + 64 * n * 2.0**-52, (trial, n, got, want)


def test_durbin_wu_hausman_internal_relationship():
    # score and F forms of the same augmented regression must satisfy
    # WH = (n-3)*d / (n*(1-d/n)) with d the Durbin statistic
    rng = np.random.default_rng(2002)
    n = 127
    z = rng.normal(size=n)
    u = rng.normal(size=n)
    x = z + 0.5 * u
    y = 2 * x + u + rng.normal(size=n)
    fit = two_sls(y, x, z)
    d_stat = fit.durbin_stat
    implied = (n - 3) * (d_stat / n) / (1 - d_stat / n)
    assert fit.wu_hausman_stat == pytest.approx(implied, rel=1e-9)


# ----------------------------------------------------------------- grids


def _planted_panel(n_days=150, loading=0.5, noise=0.1, seed=0):
    rng = np.random.default_rng(seed)
    voters = rng.integers(5, 50, n_days).astype(float)
    txn = loading * (voters - voters.mean()) / voters.std(ddof=1) + rng.normal(0, noise, n_days)
    factors = {("MKR", "transaction", "TxnCnt"): _series(txn)}
    measures = {
        "Voters": _series(voters),
        "TotalVotes": _series(voters * 100 + rng.normal(0, 1, n_days)),
        "LargestShare": _series(rng.uniform(0.3, 0.9, n_days)),
        "LargestShareWin": _series(rng.uniform(0.0, 0.9, n_days)),
        "Gini": _series(rng.uniform(0.5, 0.99, n_days)),
        "Order": _series(rng.uniform(0.1, 1.0, n_days)),
        "Speed": _series(rng.exponential(2e5, n_days)),
    }
    return _panel(factors, measures)


def test_factor_matrix_recovers_planted_cell():
    hits = 0
    for seed in range(20):
        grid = run_factor_matrix(_planted_panel(seed=seed), tokens=["MKR"])
        cell = grid_cell(grid, "MKR", "TxnCnt", "Voters")
        assert cell is not None and cell.status == "ok"
        if cell.fit.p1 <= 0.01 and cell.fit.beta1 > 0:
            hits += 1
    assert hits >= 19


def test_factor_matrix_absent_factor_no_data():
    grid = run_factor_matrix(_planted_panel(), tokens=["DAI"])
    assert all(c.status == "no data" for c in grid.cells)


def test_factor_matrix_full_coverage_and_counts():
    grid = run_factor_matrix(_planted_panel(), tokens=["MKR"])
    assert len(grid.cells) == 37 * 7
    financial = [c for c in grid.cells if c.category == "financial"]
    assert len(financial) == 77  # 11 financial factors x 7 measures


def test_factor_matrix_iteration_order():
    grid = run_factor_matrix(_planted_panel(), tokens=["MKR"])
    expected = [
        ("MKR", spec.category, spec.name, measure)
        for spec in catalogue_for("MKR")
        for measure in (
            "Voters", "TotalVotes", "LargestShare", "LargestShareWin", "Gini", "Order", "Speed",
        )
    ]
    assert [(c.token, c.category, c.factor, c.measure) for c in grid.cells] == expected


def _iv_panel(n_days=127, seed=0, endogenous=False):
    rng = np.random.default_rng(seed)
    z = rng.normal(size=n_days)
    u = rng.normal(size=n_days)
    if endogenous:
        voters = z + 0.8 * u + rng.normal(size=n_days)
        txn = 0.5 * voters + u + rng.normal(0, 0.3, n_days)
    else:
        voters = z + rng.normal(size=n_days)
        txn = 0.5 * voters + rng.normal(0, 0.3, n_days)
    factors = {("MKR", "transaction", "TxnCnt"): _series(txn)}
    measures = {
        "Voters": _series(voters),
        "TotalVotes": _series(voters * 2 + rng.normal(size=n_days)),
        "Speed": _series(z + rng.normal(size=n_days)),
    }
    return _panel(factors, measures, instrument=_series(z))


def test_iv_suite_default_three_panels_and_n():
    grid = run_iv_suite(_iv_panel(), tokens=["MKR"])
    assert set(c.measure for c in grid.cells) == set(IV_DEFAULT_MEASURES)
    for cell in grid.ok_cells():
        assert cell.fit.second_stage.n == 127
        assert cell.fit.first_stage.n == 127


def _direct_cell(sample, fit, standardize: bool, min_n: int):
    """Status and fit of one grid cell, fitted by a direct call."""
    if sample is None or len(sample[0]) < min_n:
        return "no data", None
    try:
        columns = [zscore(c) for c in sample[1:]] if standardize else list(sample[1:])
        return "ok", fit(*columns)
    except ValueError as exc:
        return f"error: {exc}", None


def _cell_sample(panel, cell, iv: bool):
    """The cell's complete-case sample, aligned under its full
    (token, category, factor) key; None when a series is absent."""
    series = panel.factors.get((cell.token, cell.category, cell.factor))
    if series is None or cell.measure not in panel.measures:
        return None
    return align(series, panel.measures[cell.measure], *([panel.instrument] if iv else []))


def _direct_statuses(grid, panel, fit, standardize, min_n) -> set[str]:
    """Assert each cell's status and fit equal a direct fit on its aligned
    sample; return the kinds of status seen."""
    statuses = set()
    for cell in grid.cells:
        sample = _cell_sample(panel, cell, iv=fit is two_sls)
        status, expected = _direct_cell(sample, fit, standardize, min_n)
        assert cell.status == status, (cell.factor, cell.measure)
        assert cell.fit == expected, (cell.factor, cell.measure)
        statuses.add(status.split(":")[0])
    return statuses


def _check_grid_against_direct_fits(grid, panel, fit, standardize, min_n):
    assert _direct_statuses(grid, panel, fit, standardize, min_n) == {"ok", "no data", "error"}


@pytest.mark.parametrize("standardize", [True, False])
def test_factor_matrix_cells_equal_direct_ols(standardize):
    planted = _planted_panel()
    stray = _series(np.arange(150.0) % 7)  # TxnCnt under a category that does not list it
    factors = {
        ("MKR", "network", "TxnCnt"): stray,
        **planted.factors,
        ("MKR", "network", "Active"): _series([1.0, 2.0]),
    }
    flat_order = dict.fromkeys(planted.measures["Order"], 0.5)  # degenerate regressor
    panel = _panel(factors, {**planted.measures, "Order": flat_order})
    grid = run_factor_matrix(panel, tokens=["MKR", "DAI"], standardize=standardize)
    _check_grid_against_direct_fits(grid, panel, ols, standardize, min_n=3)


@pytest.mark.parametrize("standardize", [True, False])
def test_iv_suite_cells_equal_direct_two_sls(standardize):
    planted = _iv_panel()
    factors = {**planted.factors, ("MKR", "network", "Active"): _series([1.0, 2.0, 3.0, 4.0])}
    # a measure equal to the instrument makes the endogeneity augmentation collinear
    measures = {**planted.measures, "Speed": dict(planted.instrument)}
    panel = _panel(factors, measures, instrument=planted.instrument)
    grid = run_iv_suite(panel, tokens=["MKR", "DAI"], standardize=standardize)
    _check_grid_against_direct_fits(grid, panel, two_sls, standardize, min_n=5)


GAPPY_DAYS = 16


@st.composite
def _gappy_panels(draw):
    """A small panel whose series each cover their own dates: factor series
    with gaps, measures with different date sets (two sharing one), a flat
    measure, a measure with one non-finite value and an instrument with its
    own dates. Values are multiples of 1/4, so ties, flat samples and exact
    fits occur."""

    def dates():
        return [D0 + timedelta(days=i) for i in range(GAPPY_DAYS) if draw(st.sampled_from([1, 1, 1, 0]))]

    def series(days):
        return {day: draw(st.integers(-12, 12)) / 4 for day in days}

    factors = {("MKR", spec.category, spec.name): series(dates()) for spec in catalogue_for("MKR")[::9]}
    shared = dates()
    order = series(dates())
    if order:
        order[min(order)] = float("inf")
    measures = {
        "Voters": series(shared),
        "TotalVotes": series(shared),
        "Gini": dict.fromkeys(dates(), 0.5),
        "Order": order,
        "Speed": series(dates()),
    }
    instrument = series(dates()) or {D0: 1.0}
    return _panel(factors, measures, instrument)


@settings(max_examples=30, deadline=None)
@given(panel=_gappy_panels())
def test_grid_cells_equal_direct_fits_on_gappy_panels(panel):
    measures = tuple(panel.measures)
    for standardize in (True, False):
        grid = run_factor_matrix(panel, ["MKR", "DAI"], measures, standardize)
        _direct_statuses(grid, panel, ols, standardize, min_n=3)
        grid = run_iv_suite(panel, ["MKR", "DAI"], measures, standardize)
        _direct_statuses(grid, panel, two_sls, standardize, min_n=5)


# row values: ties and flat rows, values whose squares overflow, and non-finite ones
SCALED_VALUES = st.one_of(
    st.integers(-8, 8).map(lambda k: k / 4),
    st.floats(-1e6, 1e6, allow_nan=False),
    st.sampled_from([1e300, -1e300, 1.7976931348623157e308, 5e-324, math.inf, math.nan]),
)


@settings(max_examples=60, deadline=None)
@given(shape=st.tuples(st.integers(1, 6), st.integers(3, 30)), chunk=st.sampled_from([1, 4, econ.CHUNK_ROWS]),
       data=st.data())
def test_scaled_rows_have_the_bits_of_each_row_alone(shape, chunk, data):
    """Scaled rows and their centred sums of squares, taken in blocks of
    ``chunk`` rows, have the bits of each row's 1-D z-score and sum."""
    rows = np.array(data.draw(st.lists(SCALED_VALUES, min_size=shape[0] * shape[1], max_size=shape[0] * shape[1])),
                    dtype=float).reshape(shape)
    for standardize, scale in ((True, zscore_oracle), (False, econ._as_array)):
        with mock.patch.object(econ, "CHUNK_ROWS", chunk):
            scaled, faults = econ._scaled_rows(rows, standardize)
            css = econ._css(scaled)
        for got, fault, row, got_css in zip(scaled, faults, rows, css):
            try:
                want = scale(row.copy())
            except ValueError as exc:
                assert fault == str(exc)
            else:
                assert fault is None and got.tobytes() == want.tobytes()
                with np.errstate(over="ignore", invalid="ignore"):
                    assert got_css.tobytes() == ((want - want.mean()) ** 2).sum().tobytes()


@settings(max_examples=60, deadline=None)
@example(p=2, k=1, n=12, far=True, seed=0)
@example(p=3, k=econ.CHUNK_ROWS + 5, n=365, far=True, seed=1)
@given(p=st.sampled_from([2, 3]), k=st.integers(1, econ.CHUNK_ROWS + 8), n=st.integers(4, 120),
       far=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_stacked_solve_equals_lstsq_row_by_row(p, k, n, far, seed):
    """numpy's stacked least-squares gufunc, called once on a batch, gives
    every row the bits of np.linalg.lstsq on that row alone, the residual
    sums of squares too; so does the rescale branch (at x = 1e17 + 1e3 k
    lstsq finds rank 1)."""
    rng = np.random.default_rng(seed)
    x = 1e17 + 1e3 * np.arange(n) if far else rng.normal(0, rng.uniform(0.1, 100), n)
    design = np.column_stack([np.ones(n), x, rng.normal(size=n)][:p])
    ys = rng.normal(0, rng.uniform(0.1, 100), (k, n))
    assert np.linalg.lstsq(design, ys[0], rcond=None)[2] == (1 if far else p)
    coef = econ._solve(design, ys)
    rss = econ._rss(design, ys, coef)
    for row, y in enumerate(ys):
        want = lstsq_oracle(design, y)
        resid = y - design @ want
        assert coef[row].tobytes() == want.tobytes()
        assert rss[row].tobytes() == np.float64(resid @ resid).tobytes()


def test_grid_peak_is_bounded_by_its_rows():
    """A wide sample, 216 factor rows over 365 days (report-panel's largest
    IV batch), is z-scored and solved CHUNK_ROWS rows at a time. The traced
    peak of each grid stays within 2.9 times the rows' bytes: 2.5 was
    measured, 3.2 when the sample was z-scored as one array, and 4.2 (OLS)
    to 4.4 (IV) when it was also solved as one batch."""
    rng = np.random.default_rng(216)
    tokens = ["MKR", "DAI", "UNI", "COMP", "AAVE", "SUSHI"]
    factors = {(token, spec.category, spec.name): _series(rng.normal(size=365))
               for token in tokens for spec in catalogue_for(token)[:36]}
    z = rng.normal(size=365)
    panel = _panel(factors, {"Voters": _series(z + rng.normal(size=365))}, instrument=_series(z))
    rows_bytes = len(factors) * 365 * 8
    for run in (run_factor_matrix, run_iv_suite):
        run(panel, tokens, ("Voters",))  # caches filled outside the trace
        tracemalloc.start()
        try:
            grid = run(panel, tokens, ("Voters",))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(grid.ok_cells()) == 216
        assert peak <= 2.9 * rows_bytes, f"{run.__name__} peaked at {peak / rows_bytes:.2f} times its rows' bytes"


def test_iv_suite_requires_instrument():
    with pytest.raises(ValueError, match="instrument"):
        run_iv_suite(_planted_panel(), tokens=["MKR"])


def test_iv_suite_exogenous_durbin_mostly_accepts():
    accepts = total = 0
    for seed in range(30):
        grid = run_iv_suite(_iv_panel(seed=seed), tokens=["MKR"])
        cell = grid_cell(grid, "MKR", "TxnCnt", "Voters")
        if cell and cell.status == "ok":
            total += 1
            accepts += cell.fit.durbin_p > 0.05
    assert total == 30
    assert accepts / total >= 0.80


def test_iv_suite_endogenous_durbin_mostly_rejects():
    rejects = total = 0
    for seed in range(30):
        grid = run_iv_suite(_iv_panel(seed=seed, endogenous=True), tokens=["MKR"])
        cell = grid_cell(grid, "MKR", "TxnCnt", "Voters")
        if cell and cell.status == "ok":
            total += 1
            rejects += cell.fit.durbin_p < 0.05
    assert total == 30
    assert rejects / total >= 0.80


def test_instrument_screen_perfect_and_independent():
    rng = np.random.default_rng(10)
    voters = _series(rng.normal(size=127))
    measures = {
        "Voters": voters,
        "TotalVotes": _series(rng.normal(size=127)),
        "LargestShare": _series(rng.normal(size=127)),
        "LargestShareWin": _series(rng.normal(size=127)),
        "Gini": _series(rng.normal(size=127)),
        "Order": _series(rng.normal(size=127)),
        "Speed": _series(rng.normal(size=127)),
    }
    screen = instrument_screen(dict(voters), measures)
    by_measure = {row[0]: row for row in screen.rows}
    assert by_measure["Voters"][1] == float("inf")
    assert by_measure["Voters"][2] == 0.0
    independents = [by_measure[m] for m in ("TotalVotes", "Gini", "Order", "Speed")]
    assert sum(1 for row in independents if significance_stars(row[2]) == "") >= 3
    assert screen.stats.mean == pytest.approx(np.mean(list(voters.values())))


def test_instrument_screen_descriptives():
    series = _series([1.0, 2.0, 3.0, 4.0, 396.0])
    screen = instrument_screen(series, {})
    assert screen.stats.median == 3.0
    assert screen.stats.maximum == 396.0
    assert screen.stats.minimum == 1.0


def test_raw_vs_standardized_grid_t_stats_agree():
    panel = _planted_panel(seed=3)
    std_grid = run_factor_matrix(panel, tokens=["MKR"], measures=("Voters",), standardize=True)
    raw_grid = run_factor_matrix(panel, tokens=["MKR"], measures=("Voters",), standardize=False)
    std_cell = grid_cell(std_grid, "MKR", "TxnCnt", "Voters")
    raw_cell = grid_cell(raw_grid, "MKR", "TxnCnt", "Voters")
    assert abs(std_cell.fit.t1 - raw_cell.fit.t1) <= 1e-9
    assert std_cell.fit.beta1 != raw_cell.fit.beta1  # scaling differs


def test_custom_star_thresholds():
    fit = ols(*_noisy_pair(seed=2, n=60))
    assert len(significance_stars(fit.p1, (0.5, 0.25, 0.1))) >= len(significance_stars(fit.p1))


def _noisy_pair(seed: int, n: int):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=n)
    return 0.2 * x + rng.normal(size=n), x
