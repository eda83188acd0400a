"""Acceptance suite: one test per criterion, printed pass/fail lines.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings. Every tolerance and runtime budget is pinned here.
"""

from __future__ import annotations

import json
import os
import time
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest

from conftest import grid_cell
from oracles import gini_oracle, ols_oracle, two_sls_oracle
from govpulse import centrality, econ, factorlab, profiles, synthgov
from govpulse.centrality import gini_from_alpha, gini_mean_difference, pareto_alpha_mle
from govpulse.cli import exec_command
from govpulse.govdata import DERIVED_FINANCIAL, catalogue_for, load_vote_log


def _check(criterion: int, description: str, passed: bool, elapsed: float | None = None) -> None:
    status = "PASS" if passed else "FAIL"
    timing = f" [{elapsed:.2f}s]" if elapsed is not None else ""
    print(f"ACCEPTANCE {criterion} {status}: {description}{timing}")
    assert passed, f"criterion {criterion} failed: {description}"


def test_criterion_1_gini_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    max_diff = 0.0
    scale_ok = True
    for _ in range(1000):
        n = int(rng.integers(2, 65))
        weights = rng.random(n) * float(rng.choice([0.01, 1.0, 1e4]))
        g = gini_mean_difference(weights)
        max_diff = max(max_diff, abs(g - gini_oracle(weights)))
        if abs(gini_mean_difference(weights * 37.5) - g) > 1e-12:
            scale_ok = False
    equal_zero = gini_mean_difference(np.full(17, 4.2)) == 0.0
    elapsed = time.perf_counter() - start
    _check(
        1,
        f"gini pairwise vs rank oracle, 1000 vectors (max diff {max_diff:.2e}), "
        f"equal->0, scale-invariant, runtime<1s",
        max_diff <= 1e-10 and equal_zero and scale_ok and elapsed < 1.0,
        elapsed,
    )


def test_criterion_2_hand_case_exact():
    value = gini_mean_difference(np.array([1.0, 1.0, 1.0, 97.0]))
    _check(2, f"weights [1,1,1,97] -> gini {value} == 0.72 exactly", value == 0.72)


def test_criterion_3_daily_gini_mle_calibration():
    start = time.perf_counter()
    ok = True
    worst = 0.0
    for alpha in (1.2, 1.5, 2.0):
        target = 1.0 / (2.0 * alpha - 1.0)
        for seed in range(20):
            rng = np.random.default_rng(1000 + seed)
            draws = (1.0 / rng.random(10_000)) ** (1.0 / alpha)  # Pareto(alpha), xm=1
            estimate = gini_from_alpha(pareto_alpha_mle(draws))
            worst = max(worst, abs(estimate - target))
            ok = ok and abs(estimate - target) <= 0.05
    elapsed = time.perf_counter() - start
    _check(
        3,
        f"daily-gini MLE within +-0.05 of 1/(2a-1) for a in {{1.2,1.5,2.0}}, "
        f"20 seeds each (worst {worst:.4f}), runtime<5s",
        ok and elapsed < 5.0,
        elapsed,
    )


def test_criterion_4_metric_shape_bracket():
    start = time.perf_counter()
    ginis, shares = [], []
    for seed in range(50):
        config = synthgov.SynthConfig(
            days=58,
            polls_per_day=("constant", 11),
            voter_pool=200,
            holdings_alpha=1.2,
            participation_rate=0.125,
            seed=seed,
        )
        log = synthgov.gen_history(config)
        assert len(log.registry) == 638
        rows = centrality.ballot_pass(log).polls
        ginis.append(np.mean([m.gini for m in rows]))
        shares.append(np.mean([m.largest_share for m in rows]))
    mean_gini = float(np.mean(ginis))
    mean_share = float(np.mean(shares))
    elapsed = time.perf_counter() - start
    _check(
        4,
        f"638-poll synthetic runs: mean poll gini {mean_gini:.4f} in [0.75,0.95], "
        f"mean largest share {mean_share:.4f} in [0.35,0.70], 50 seeds, runtime<30s",
        0.75 <= mean_gini <= 0.95 and 0.35 <= mean_share <= 0.70 and elapsed < 30.0,
        elapsed,
    )


def test_criterion_5_ols_correctness():
    start = time.perf_counter()
    rng = np.random.default_rng(55)
    worst = 0.0
    for _ in range(500):
        n = int(rng.integers(3, 100))
        x = rng.normal(0, rng.uniform(0.5, 5), n)
        if x.max() == x.min():
            continue
        y = rng.uniform(-3, 3) * x + rng.normal(0, 2, n)
        fit = econ.ols(y, x)
        beta0, beta1 = ols_oracle(y, x)
        worst = max(worst, abs(fit.beta0 - beta0), abs(fit.beta1 - beta1))
    oracle_ok = worst <= 1e-10

    x = np.arange(12.0)
    exact = econ.ols(2 * x + 1, x)
    exact_ok = abs(exact.r2 - 1.0) <= 1e-12

    n, trials = 127, 1000
    rejections = sum(
        econ.ols(rng.normal(size=n), rng.normal(size=n)).p1 < 0.05 for _ in range(trials)
    )
    size = rejections / trials
    elapsed = time.perf_counter() - start
    _check(
        5,
        f"ols vs normal-equation oracle (max diff {worst:.2e}), exact fit r2=1, "
        f"t-test size {size:.3f} in [0.03,0.07] at n=127 over 1000 trials",
        oracle_ok and exact_ok and 0.03 <= size <= 0.07,
        elapsed,
    )


def test_criterion_6_iv_correctness():
    start = time.perf_counter()
    rng = np.random.default_rng(66)

    x = rng.normal(0, 2, 127)
    y = 3 * x + rng.normal(size=127)
    try:
        econ.two_sls(y, x, x)
    except ValueError as exc:
        self_ok = "collinear augmentation" in str(exc)
    else:
        self_ok = False
    worst = 0.0
    draws = np.random.default_rng(6500)
    for _ in range(200):
        zo = draws.normal(size=127)
        xo = zo + draws.normal(size=127)
        yo = 3 * xo + draws.normal(size=127)
        second = econ.two_sls(yo, xo, zo).second_stage
        beta1, se1 = two_sls_oracle(yo, xo, zo)
        worst = max(worst, abs(second.beta1 - beta1), abs(second.se1 - se1))
    oracle_ok = worst <= 1e-9

    z = rng.normal(size=127)
    xw = z + rng.normal(size=127)
    fit = econ.two_sls(3 * xw + rng.normal(size=127), xw, z)
    partial_ok = abs(fit.partial_f - fit.first_stage.t1 ** 2) <= 1e-9

    n, seeds = 127, 200
    durbin_rej = wh_rej = iv_closer = 0
    for seed in range(seeds):
        local = np.random.default_rng(6600 + seed)
        zi = local.normal(size=n)
        ui = local.normal(size=n)
        xi = zi + 0.8 * ui + local.normal(size=n)
        yi = 3 * xi + ui
        ivfit = econ.two_sls(yi, xi, zi)
        naive = econ.ols(yi, xi)
        durbin_rej += ivfit.durbin_p < 0.05
        wh_rej += ivfit.wu_hausman_p < 0.05
        iv_closer += abs(ivfit.second_stage.beta1 - 3.0) < abs(naive.beta1 - 3.0)
    power_ok = durbin_rej / seeds >= 0.80 and wh_rej / seeds >= 0.80
    bias_ok = iv_closer / seeds >= 0.90

    size_rej = 0
    size_trials = 1000
    for seed in range(size_trials):
        local = np.random.default_rng(6700 + seed)
        zi = local.normal(size=n)
        xi = zi + local.normal(size=n)
        yi = 3 * xi + local.normal(size=n)
        size_rej += econ.two_sls(yi, xi, zi).durbin_p < 0.05
    size = size_rej / size_trials
    size_ok = 0.02 <= size <= 0.08
    elapsed = time.perf_counter() - start
    _check(
        6,
        f"2SLS self-instrument refused as collinear, closed-form 2SLS oracle (max diff {worst:.2e}), "
        f"partial_f=t^2, Durbin/WH power "
        f"{durbin_rej / seeds:.2f}/{wh_rej / seeds:.2f}>=0.80, |2SLS bias|<|OLS bias| "
        f"{iv_closer / seeds:.2f}>=0.90, size {size:.3f} in [0.02,0.08], runtime<60s",
        self_ok and oracle_ok and partial_ok and power_ok and bias_ok and size_ok and elapsed < 60.0,
        elapsed,
    )


def test_criterion_7_planted_effect_pipeline():
    start = time.perf_counter()
    hits = 0
    seeds = 100
    for seed in range(seeds):
        config = synthgov.SynthConfig(
            days=110,
            polls_per_day=("constant", 1),
            voter_pool=50,
            participation_rate=0.4,
            seed=9000 + seed,
        )
        log = synthgov.gen_history(config)
        daily = centrality.daily_from_pass(centrality.ballot_pass(log))
        factors = [synthgov.FactorPlan("MKR", "transaction", "TxnCnt", loadings={"Voters": 1.0}, noise_std=0.2)]
        raw, _ = synthgov.gen_panel(daily, factors, seed=seed)
        panel = factorlab.build_panel(raw, factorlab.measures_from_daily(daily))
        grid = econ.run_factor_matrix(panel, tokens=["MKR"], measures=("Voters",))
        cell = grid_cell(grid, "MKR", "TxnCnt", "Voters")
        if cell.status == "ok" and cell.fit.n >= 100 and cell.fit.p1 <= 0.01 and cell.fit.beta1 > 0:
            hits += 1
    elapsed = time.perf_counter() - start
    _check(
        7,
        f"end-to-end planted loading recovered at 1% in {hits}/{seeds} seeds (>=99)",
        hits >= 99,
        elapsed,
    )


def test_criterion_8_determinism(tmp_path):
    start = time.perf_counter()
    config = {
        "days": 20,
        "polls_per_day": ["constant", 3],
        "voter_pool": 80,
        "participation_rate": 0.25,
        "seed": 42,
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    digests = []
    for run_name in ("r1", "r2", "r3"):
        data = tmp_path / run_name / "data"
        out = tmp_path / run_name / "out"
        assert exec_command(["synth", "--out-dir", str(data), "--config", str(config_path)]) == 0
        assert (
            exec_command(
                [
                    "report",
                    "--votes", str(data / "votes.csv"),
                    "--polls", str(data / "polls.csv"),
                    "--factors", str(data / "factors.csv"),
                    "--out-dir", str(out),
                    "--formats", "csv,markdown,svg",
                ]
            )
            == 0
        )
        contents = {}
        for name in (
            "metrics.csv", "ols_grid.csv", "iv_grid.csv", "poll_descriptives.csv",
            "ols_MKR_financial.md", "effects_MKR.md", "fig_lorenz.csv",
        ):
            contents[name] = (out / name).read_bytes()
        digests.append(contents)
    identical = digests[0] == digests[1] == digests[2]
    elapsed = time.perf_counter() - start
    _check(
        8,
        "three same-seed pipeline runs are byte-identical",
        identical,
        elapsed,
    )


def test_criterion_9_conditional_replication_contract(tmp_path):
    start = time.perf_counter()
    data = tmp_path / "data"
    out = tmp_path / "out"
    assert exec_command(["synth", "--out-dir", str(data), "--seed", "17"]) == 0
    code = exec_command(
        [
            "report",
            "--votes", str(data / "votes.csv"),
            "--polls", str(data / "polls.csv"),
            "--factors", str(data / "factors.csv"),
            "--out-dir", str(out),
        ]
    )
    shaped = all(
        (out / name).exists()
        for name in (
            "poll_descriptives.md",   # Table-2 shape
            "voter_descriptives.md",  # Table-3 shape
            "gini_summary.md",        # Table-8 shape
            "measures_summary.md",    # Table-9 shape
        )
    )

    log = load_vote_log(data / "votes.csv", data / "polls.csv")
    passed = centrality.ballot_pass(log)
    rows = passed.polls
    share_ok = all(m.largest_share_win <= m.largest_share + 1e-12 for m in rows)
    by_polls = sum((m.total_votes for m in rows), Decimal(0))
    by_voters = sum((p.total_votes for p in profiles.profiles_from_pass(passed, log.identities)), Decimal(0))
    conservation_ok = by_polls == by_voters

    real_export = os.environ.get("GOVPULSE_REAL_EXPORT")
    real_note = "no real export supplied; structural identities only"
    real_ok = True
    if real_export:
        real = load_vote_log(Path(real_export) / "votes.csv", Path(real_export) / "polls.csv")
        real_ok = len(real.registry) == 638 and len(real.addresses) == 1250
        real_note = f"real export: {len(real.registry)} polls, {len(real.addresses)} voters"
    elapsed = time.perf_counter() - start
    _check(
        9,
        f"schema-level replication: table shapes emitted, share-win<=share, "
        f"decimal conservation exact; {real_note}",
        code == 0 and shaped and share_ok and conservation_ok and real_ok,
        elapsed,
    )


def test_criterion_10_performance_envelope():
    config = synthgov.SynthConfig(
        days=800,
        polls_per_day=("poisson", 0.8),
        voter_pool=200,
        participation_rate=0.125,
        seed=314,
    )
    tokens = ["MKR", "DAI", "ETH"]
    plan_factors = [
        synthgov.FactorPlan(
            token, spec.category, spec.name,
            intercept=100.0 if spec.name == "Price" else 10.0,
            loadings={"Voters": 0.3} if spec.name != "Price" else {"Speed": 0.2},
            noise_std=1.0,
        )
        for token in tokens
        for spec in catalogue_for(token)
        if spec.name not in DERIVED_FINANCIAL
    ]
    start = time.perf_counter()
    log = synthgov.gen_history(config)
    daily = centrality.daily_from_pass(centrality.ballot_pass(log))
    raw, _ = synthgov.gen_panel(daily, plan_factors, seed=314)
    panel = factorlab.build_panel(raw, factorlab.measures_from_daily(daily))
    grid = econ.run_factor_matrix(panel, tokens=tokens)
    elapsed = time.perf_counter() - start
    polls = len(log.registry)
    cells = len(grid.cells)
    _check(
        10,
        f"full pipeline at scale ({polls} polls, {len(daily)} poll days, "
        f"{cells} grid cells) in {elapsed:.2f}s < 2s",
        cells == 37 * 3 * 7 and 550 <= polls <= 750 and elapsed < 2.0,
        elapsed,
    )
