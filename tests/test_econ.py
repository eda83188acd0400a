"""Regression engine: closed-form checks, p-value oracle, Monte Carlo."""

from __future__ import annotations

from datetime import date, timedelta

import mpmath as mp
import numpy as np
import pytest

from govpulse.econ import (
    IV_DEFAULT_MEASURES,
    chi2_pvalue,
    endogeneity_tests,
    f_pvalue,
    instrument_screen,
    ols,
    run_factor_matrix,
    run_iv_suite,
    significance_stars,
    t_pvalue,
    two_sls,
    zscore,
)
from govpulse.factorlab import BuiltPanel, catalogue_for
from govpulse.synthgov import ols_oracle

D0 = date(2021, 3, 1)


def _panel(factors: dict, measures: dict, instrument: dict | None = None) -> BuiltPanel:
    return BuiltPanel(
        factors=factors,
        measures=measures,
        instrument=instrument or {},
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


def test_ols_errors():
    with pytest.raises(ValueError, match="degenerate regressor"):
        ols([1.0, 2.0, 3.0], [5.0, 5.0, 5.0])
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
    for t, dof in points:
        ours = t_pvalue(t, dof)
        x = mp.mpf(dof) / (dof + mp.mpf(t) ** 2)
        oracle = float(mp.betainc(mp.mpf(dof) / 2, mp.mpf("0.5"), 0, x, regularized=True))
        assert abs(ours - oracle) <= 1e-10


def test_f_pvalue_matches_squared_t():
    for t, dof in [(0.5, 10), (1.3, 40), (2.9, 125)]:
        assert f_pvalue(t * t, 1, dof) == pytest.approx(t_pvalue(t, dof), abs=1e-12)


def test_chi2_pvalue_known_points():
    assert chi2_pvalue(3.841458820694124, 1) == pytest.approx(0.05, abs=1e-9)
    assert chi2_pvalue(6.634896601021213, 1) == pytest.approx(0.01, abs=1e-9)
    assert chi2_pvalue(0.0, 1) == 1.0


def test_pvalue_edge_cases():
    assert t_pvalue(float("inf"), 10) == 0.0
    assert f_pvalue(0.0, 1, 10) == 1.0


# ----------------------------------------------------------------- 2SLS


def test_two_sls_self_instrument_equals_ols():
    rng = np.random.default_rng(4)
    x = rng.normal(0, 2, 80)
    y = 3 * x + rng.normal(0, 1, 80)
    with pytest.raises(ValueError):
        two_sls(y, x, x)  # vhat is identically zero: collinear augmentation
    fit = two_sls(y, x, x, diagnostics=False)
    direct = ols(y, x)
    assert abs(fit.second_stage.beta1 - direct.beta1) <= 1e-9
    assert abs(fit.second_stage.se1 - direct.se1) <= 1e-9
    assert fit.durbin_stat != fit.durbin_stat  # NaN: augmentation degenerate


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
    assert fit.adj_r2 < fit.second_stage.r2 + 1e-12


# ------------------------------------------------------ endogeneity tests


def test_endogeneity_size_in_window():
    rng = np.random.default_rng(1001)
    trials, n = 1000, 127
    durbin_rej = wh_rej = 0
    for _ in range(trials):
        z = rng.normal(size=n)
        x = z + rng.normal(size=n)
        y = 3 * x + rng.normal(size=n)
        d_stat, d_p, w_stat, w_p = endogeneity_tests(y, x, z)
        durbin_rej += d_p < 0.05
        wh_rej += w_p < 0.05
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
        d_stat, d_p, w_stat, w_p = endogeneity_tests(y, x, z)
        durbin_rej += d_p < 0.05
        wh_rej += w_p < 0.05
    assert durbin_rej / trials >= 0.80
    assert wh_rej / trials >= 0.80


def test_endogeneity_perfect_first_stage_errors():
    z = np.arange(20.0)
    x = 2 * z + 1  # vhat identically zero
    y = x + np.random.default_rng(0).normal(size=20)
    with pytest.raises(ValueError, match="collinear"):
        endogeneity_tests(y, x, z)


def test_durbin_wu_hausman_internal_relationship():
    # score and F forms of the same augmented regression must satisfy
    # WH = (n-3)*d / (n*(1-d/n)) with d the Durbin statistic
    rng = np.random.default_rng(2002)
    n = 127
    z = rng.normal(size=n)
    u = rng.normal(size=n)
    x = z + 0.5 * u
    y = 2 * x + u + rng.normal(size=n)
    d_stat, _, w_stat, _ = endogeneity_tests(y, x, z)
    implied = (n - 3) * (d_stat / n) / (1 - d_stat / n)
    assert w_stat == pytest.approx(implied, rel=1e-9)


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
        cell = grid.cell("MKR", "TxnCnt", "Voters")
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
        assert cell.fit.n == 127
        assert cell.fit.first_stage.n == 127


def _direct_cell(sample, fit, standardize: bool, min_n: int):
    """Status and fit of one grid cell, fitted by a direct call."""
    if sample is None or len(sample[0]) < min_n:
        return "no data", None
    columns = [zscore(c) for c in sample[1:]] if standardize else list(sample[1:])
    try:
        return "ok", fit(*columns)
    except ValueError as exc:
        return f"error: {exc}", None


def _check_grid_against_direct_fits(grid, sample_of, fit, standardize, min_n):
    statuses = set()
    for cell in grid.cells:
        sample = sample_of(cell.token, cell.factor, cell.measure)
        status, expected = _direct_cell(sample, fit, standardize, min_n)
        assert cell.status == status, (cell.factor, cell.measure)
        assert cell.fit == expected, (cell.factor, cell.measure)
        assert cell.dates == (sample[0] if status == "ok" else ())
        statuses.add(status.split(":")[0])
    assert statuses == {"ok", "no data", "error"}


@pytest.mark.parametrize("standardize", [True, False])
def test_factor_matrix_cells_equal_direct_ols(standardize):
    planted = _planted_panel()
    factors = {**planted.factors, ("MKR", "network", "Active"): _series([1.0, 2.0])}
    flat_order = dict.fromkeys(planted.measures["Order"], 0.5)  # degenerate regressor
    panel = _panel(factors, {**planted.measures, "Order": flat_order})
    grid = run_factor_matrix(panel, tokens=["MKR", "DAI"], standardize=standardize)
    _check_grid_against_direct_fits(grid, panel.aligned, ols, standardize, min_n=3)


@pytest.mark.parametrize("standardize", [True, False])
def test_iv_suite_cells_equal_direct_two_sls(standardize):
    planted = _iv_panel()
    factors = {**planted.factors, ("MKR", "network", "Active"): _series([1.0, 2.0, 3.0, 4.0])}
    # a measure equal to the instrument makes the endogeneity augmentation collinear
    measures = {**planted.measures, "Speed": dict(planted.instrument)}
    panel = _panel(factors, measures, instrument=planted.instrument)
    grid = run_iv_suite(panel, tokens=["MKR", "DAI"], standardize=standardize)
    _check_grid_against_direct_fits(grid, panel.aligned_iv, two_sls, standardize, min_n=5)


def test_iv_suite_requires_instrument():
    with pytest.raises(ValueError, match="instrument"):
        run_iv_suite(_planted_panel(), tokens=["MKR"])


def test_iv_suite_exogenous_durbin_mostly_accepts():
    accepts = total = 0
    for seed in range(30):
        grid = run_iv_suite(_iv_panel(seed=seed), tokens=["MKR"])
        cell = grid.cell("MKR", "TxnCnt", "Voters")
        if cell and cell.status == "ok":
            total += 1
            accepts += cell.fit.durbin_p > 0.05
    assert total == 30
    assert accepts / total >= 0.80


def test_iv_suite_endogenous_durbin_mostly_rejects():
    rejects = total = 0
    for seed in range(30):
        grid = run_iv_suite(_iv_panel(seed=seed, endogenous=True), tokens=["MKR"])
        cell = grid.cell("MKR", "TxnCnt", "Voters")
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
    assert sum(1 for row in independents if row[3] == "") >= 3
    assert screen.mean == pytest.approx(np.mean(list(voters.values())))


def test_instrument_screen_descriptives():
    series = _series([1.0, 2.0, 3.0, 4.0, 396.0])
    screen = instrument_screen(series, {})
    assert screen.median == 3.0
    assert screen.maximum == 396.0
    assert screen.minimum == 1.0


def test_raw_vs_standardized_grid_t_stats_agree():
    panel = _planted_panel(seed=3)
    std_grid = run_factor_matrix(panel, tokens=["MKR"], measures=("Voters",), standardize=True)
    raw_grid = run_factor_matrix(panel, tokens=["MKR"], measures=("Voters",), standardize=False)
    std_cell = std_grid.cell("MKR", "TxnCnt", "Voters")
    raw_cell = raw_grid.cell("MKR", "TxnCnt", "Voters")
    assert abs(std_cell.fit.t1 - raw_cell.fit.t1) <= 1e-9
    assert std_cell.fit.beta1 != raw_cell.fit.beta1  # scaling differs


def test_custom_star_thresholds():
    fit = ols(*_noisy_pair(seed=2, n=60), star_thresholds=(0.5, 0.25, 0.1))
    default = ols(*_noisy_pair(seed=2, n=60))
    assert fit.p1 == default.p1
    assert len(fit.stars) >= len(default.stars)


def _noisy_pair(seed: int, n: int):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=n)
    return 0.2 * x + rng.normal(size=n), x
