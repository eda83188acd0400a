"""Generator determinism, forcing rules, marginals and oracles."""

from __future__ import annotations

from datetime import date, timedelta
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import grid_cell
from oracles import columns_of, gini_oracle, ols_oracle, poll_events
from govpulse.centrality import DailyMetrics, ballot_pass
from govpulse.econ import ols, run_factor_matrix, two_sls
from govpulse.factorlab import build_panel, measures_from_daily
from govpulse.govdata import ValidationReport
from govpulse.report import significance_stars
from govpulse.synthgov import (
    DistSpec,
    FactorPlan,
    SynthConfig,
    _force_outcome,
    gen_history,
    gen_panel,
    lomax_pool,
    turnout_probabilities,
)


def _config(**overrides) -> SynthConfig:
    base = dict(days=8, polls_per_day=("constant", 3), voter_pool=40,
                participation_rate=0.3, seed=7)
    base.update(overrides)
    return SynthConfig(**base)


def _metrics(n: int, seed: int = 0) -> list[DailyMetrics]:
    rng = np.random.default_rng(seed)
    rows = []
    for i in range(n):
        voters = int(rng.integers(5, 60))
        rows.append(
            DailyMetrics(
                day=date(2021, 1, 1) + timedelta(days=i),
                poll_count=1,
                voters=voters,
                total_votes=Decimal(voters * 120),
                largest_share=float(rng.uniform(0.3, 0.9)),
                largest_share_win=float(rng.uniform(0.0, 0.9)),
                order=float(rng.uniform(0.1, 1.0)),
                speed=float(rng.exponential(2e5)),
                gini=float(rng.uniform(0.4, 0.99)),
            )
        )
    return rows


def test_gen_history_deterministic():
    log_a = gen_history(_config())
    log_b = gen_history(_config())
    assert log_a.events == log_b.events
    assert log_a.registry == log_b.registry


def test_gen_history_different_seeds_differ():
    assert gen_history(_config(seed=1)).events != gen_history(_config(seed=2)).events


def test_full_participation_small_pool():
    config = _config(voter_pool=5, participation_rate=1.0, revision_rate=0.0)
    log = gen_history(config)
    for poll_id in log.poll_ids():
        assert len({e.voter for e in poll_events(log, poll_id)}) == 5


def test_turnout_probabilities_mean_and_bounds():
    rng = np.random.default_rng(0)
    holdings = rng.pareto(1.2, 500) + 1e-9
    for rate in (0.05, 0.125, 0.5):
        probs = turnout_probabilities(holdings, rate, 0.4)
        assert probs.min() >= 0.0 and probs.max() <= 1.0
        assert abs(probs.mean() - rate) < 1e-9
    assert turnout_probabilities(holdings, 1.0, 0.4).min() == 1.0


def test_largest_wins_prob_one_always_wins():
    log = gen_history(_config(largest_wins_prob=1.0))
    metrics = ballot_pass(log).polls
    assert metrics and all(m.ifwin == 1 for m in metrics)


def test_largest_wins_prob_zero_mostly_loses_with_light_tail():
    config = _config(
        voter_pool=60, participation_rate=0.5, holdings_alpha=8.0,
        largest_wins_prob=0.0, days=10,
    )
    log = gen_history(config)
    metrics = ballot_pass(log).polls
    assert np.mean([m.ifwin for m in metrics]) < 0.2


def test_infeasible_loss_is_flagged():
    config = _config(voter_pool=1, participation_rate=1.0, largest_wins_prob=0.0)
    log = gen_history(config)
    kinds = log.report.counts_by_kind()
    assert kinds.get("forced win (infeasible loss)", 0) == len(log.registry)


def test_largest_share_monotone_in_tail_index():
    shares = []
    for alpha in (3.0, 2.0, 1.5, 1.2):
        values = []
        for seed in range(50):
            config = _config(
                days=5, polls_per_day=("constant", 4), voter_pool=100,
                participation_rate=0.2, holdings_alpha=alpha, seed=seed,
            )
            metrics = ballot_pass(gen_history(config)).polls
            values.extend(m.largest_share for m in metrics)
        shares.append(np.mean(values))
    assert shares == sorted(shares)  # heavier tail -> larger dominant share


def test_config_round_trip_json(tmp_path):
    config = _config(vote_delay=("uniform", 100, 5000))
    path = tmp_path / "config.json"
    import json

    path.write_text(json.dumps(config.to_dict()))
    again = SynthConfig.from_json(path)
    assert again.to_dict() == config.to_dict()
    log_a, log_b = gen_history(config), gen_history(again)
    assert log_a.events == log_b.events


def test_config_validation():
    with pytest.raises(ValueError):
        SynthConfig(participation_rate=1.5)
    with pytest.raises(ValueError):
        SynthConfig(holdings_alpha=0.9)
    with pytest.raises(ValueError):
        DistSpec("weibull", (1.0,)).sample(np.random.default_rng(0))


def test_gen_panel_reproducible():
    metrics = _metrics(60)
    factors = [FactorPlan("MKR", "transaction", "TxnCnt", loadings={"Voters": 0.5})]
    a, _ = gen_panel(metrics, factors, seed=3)
    b, _ = gen_panel(metrics, factors, seed=3)
    assert a.series == b.series
    assert a.instrument == b.instrument


def test_gen_panel_zero_loading_rarely_significant():
    quiet = 0
    for seed in range(30):
        metrics = _metrics(127, seed=seed)
        factors = [FactorPlan("MKR", "transaction", "TxnCnt", loadings={}, noise_std=1.0)]
        raw, _ = gen_panel(metrics, factors, seed=seed)
        panel = build_panel(raw, measures_from_daily(metrics))
        grid = run_factor_matrix(panel, tokens=["MKR"], measures=("Voters",))
        cell = grid_cell(grid, "MKR", "TxnCnt", "Voters")
        assert cell is not None and cell.status == "ok"
        if significance_stars(cell.fit.p1) == "":
            quiet += 1
    assert quiet / 30 >= 0.80


def test_gen_panel_unit_loading_zero_noise_r2_one():
    metrics = _metrics(80)
    factors = [FactorPlan("MKR", "transaction", "TxnCnt", loadings={"Voters": 1.0}, noise_std=0.0)]
    raw, _ = gen_panel(metrics, factors, seed=1)
    panel = build_panel(raw, measures_from_daily(metrics))
    grid = run_factor_matrix(panel, tokens=["MKR"], measures=("Voters",))
    cell = grid_cell(grid, "MKR", "TxnCnt", "Voters")
    assert cell.fit.r2 == pytest.approx(1.0, abs=1e-12)


def test_gen_panel_endogenous_mode_durbin_power():
    rejects = 0
    trials = 50
    for seed in range(trials):
        metrics = _metrics(127, seed=seed)
        factors = [FactorPlan("MKR", "transaction", "TxnCnt", loadings={"Voters": 1.0}, noise_std=0.5)]
        raw, proxy = gen_panel(metrics, factors, seed=seed, confound=0.8)
        instrument = raw.instrument
        days = sorted(instrument)
        factor_series = raw.series[("MKR", "transaction", "TxnCnt")]
        y = np.array([factor_series[d] for d in days])
        x = np.array([proxy[d] for d in days])
        z = np.array([instrument[d] for d in days])
        rejects += two_sls(y, x, z).durbin_p < 0.05
    assert rejects / trials >= 0.80


def test_planted_truth_recovery_snr_five():
    # |loading| / noise 5:1 at n >= 100 detects the sign at 1% significance
    hits = 0
    for seed in range(25):
        metrics = _metrics(110, seed=seed + 100)
        factors = [FactorPlan("MKR", "network", "Active", loadings={"Voters": 1.0}, noise_std=0.2)]
        raw, _ = gen_panel(metrics, factors, seed=seed)
        panel = build_panel(raw, measures_from_daily(metrics))
        grid = run_factor_matrix(panel, tokens=["MKR"], measures=("Voters",))
        cell = grid_cell(grid, "MKR", "Active", "Voters")
        if cell.fit.p1 <= 0.01 and cell.fit.beta1 > 0:
            hits += 1
    assert hits == 25


def test_gini_oracle_cases():
    assert gini_oracle([10, 10, 10]) == 0.0
    assert gini_oracle([1, 1, 1, 97]) == 0.72
    assert gini_oracle([0.0, 1.0]) == 0.5
    assert gini_oracle([5.0]) == 0.0


def test_ols_oracle_cases():
    x = np.arange(5.0)
    assert ols_oracle(x, x) == (0.0, 1.0)
    beta0, beta1 = ols_oracle(np.full(5, -3.0), x)
    assert (beta0, beta1) == (-3.0, 0.0)
    with pytest.raises(ValueError):
        ols_oracle(x, np.ones(5))


def test_ols_oracle_matches_econ_ols():
    rng = np.random.default_rng(12)
    y = rng.normal(size=20)
    x = rng.normal(size=20)
    fit = ols(y, x)
    beta0, beta1 = ols_oracle(y, x)
    assert abs(fit.beta0 - beta0) <= 1e-10
    assert abs(fit.beta1 - beta1) <= 1e-10


def test_gen_history_weights_positive_and_decimal():
    log = gen_history(_config())
    assert all(e.weight > 0 for e in log.events)
    assert all(isinstance(e.weight, Decimal) for e in log.events)


@pytest.mark.parametrize("voter_pool, seed", [(8, 8), (10, 7)])
def test_gen_history_columns_equal_those_of_its_events(voter_pool, seed):
    # a small pool with a light tail, half the votes revised and most
    # outcomes forced to lose: revisions, single-voter polls, polls without
    # votes and feasible forced losses
    log = gen_history(_config(voter_pool=voter_pool, holdings_alpha=3.0, revision_rate=0.5, largest_wins_prob=0.3,
                              seed=seed))
    voters = {}
    for event in log.events:
        voters.setdefault(event.poll_id, []).append(event.voter)
    assert any(len(set(v)) < len(v) for v in voters.values())
    assert any(len(set(v)) == 1 for v in voters.values())
    assert set(log.registry) - set(voters)
    assert any(pm.ifwin == 0 for pm in ballot_pass(log).polls)
    want = columns_of(log.events)
    for name in ("poll_id", "voter", "option_id", "weight", "timestamp"):
        assert getattr(log, name).dtype == np.int64, name
    for name in ("poll_id", "voter", "option_id", "timestamp"):
        assert getattr(log, name).tolist() == getattr(want, name).tolist(), name
    assert log.addresses == want.addresses
    assert [str(log.weights.decimals[w]) for w in log.weight.tolist()] == [
        str(want.weights.decimals[w]) for w in want.weight.tolist()
    ]
    for name in ("units", "floats", "ranks"):
        assert getattr(log.weights, name)[log.weight].tolist() == getattr(want.weights, name)[want.weight].tolist(), name
    table = log.poll_id.base  # the columns are the rows of one table
    assert table.shape == (5, len(log.events))
    assert all(getattr(log, name).base is table for name in ("voter", "option_id", "weight", "timestamp"))


def test_gen_history_revisions_precede_finals():
    config = _config(revision_rate=1.0)
    log = gen_history(config)
    for poll_id in log.poll_ids():
        by_voter: dict[str, list[int]] = {}
        for event in poll_events(log, poll_id):
            by_voter.setdefault(event.voter, []).append(event.timestamp)
        for stamps in by_voter.values():
            assert stamps == sorted(stamps)


def _force_outcome_oracle(
    choices: dict[int, int],
    holdings: np.ndarray,
    largest: int,
    target: int,
    force_win: bool,
    option_ids: list[int],
    report: ValidationReport,
    poll_id: int,
) -> None:
    """Reference forcing step: choices keyed by voter, and every option
    total summed again in a Python loop before each reassignment."""

    def totals() -> dict[int, float]:
        out = {oid: 0.0 for oid in option_ids}
        for voter, option in choices.items():
            out[option] += holdings[voter]
        return out

    def current_winner() -> int:
        tot = totals()
        best = max(tot.values())
        return min(oid for oid, value in tot.items() if value == best)

    others = sorted(
        (v for v in choices if v != largest), key=lambda v: holdings[v]
    )
    if force_win:
        for voter in others:
            if current_winner() == target:
                return
            if choices[voter] != target:
                choices[voter] = target
        return
    if len(choices) == 1:
        report.add("forced win (infeasible loss)", f"poll {poll_id}: single voter")
        return
    rival = min(oid for oid in option_ids if oid != target)
    for voter in reversed(others):
        if current_winner() != target:
            return
        if choices[voter] != rival:
            choices[voter] = rival
    if current_winner() == target:
        report.add(
            "forced win (infeasible loss)",
            f"poll {poll_id}: largest voter outweighs all others",
        )


@st.composite
def _polls(draw):
    """(holdings, option ids, option count) of one poll's participants."""
    n = draw(st.integers(1, 40))
    if draw(st.booleans()):
        # Few distinct holdings, so options tie exactly or nearly.
        holdings = np.array(draw(st.lists(st.sampled_from([0.1, 0.2, 0.3, 1.0]), min_size=n, max_size=n)))
    else:
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        holdings = lomax_pool(rng, n, draw(st.sampled_from([1.05, 1.2, 2.0])), 300.0)
    n_options = draw(st.integers(2, 5))
    return holdings, draw(st.lists(st.integers(1, n_options), min_size=n, max_size=n)), n_options


@settings(max_examples=300, deadline=None)
@given(poll=_polls(), force_win=st.booleans())
@example(poll=(np.array([1.0, 1.0]), [2, 1], 2), force_win=True)  # options 1 and 2 tie
def test_force_outcome_matches_recount_oracle(poll, force_win):
    holdings, drawn, n_options = poll
    largest = int(np.argmax(holdings))
    expected = dict(enumerate(drawn))
    expected_report = ValidationReport()
    _force_outcome_oracle(expected, holdings, largest, drawn[largest], force_win,
                          list(range(1, n_options + 1)), expected_report, 9)
    choices, report = np.array(drawn), ValidationReport()
    _force_outcome(choices, holdings, largest, force_win, report, 9)
    assert choices.tolist() == list(expected.values())
    assert report.anomalies == expected_report.anomalies
