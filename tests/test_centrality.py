"""Poll and daily measure computations, oracles and invariants."""

from __future__ import annotations

import time
from decimal import Decimal

import numpy as np
import pytest

from conftest import DAY0, addr, make_log, make_poll
from govpulse.centrality import (
    ballot_pass,
    daily_from_pass,
    daily_gini,
    fill_calendar,
    gini_from_alpha,
    gini_mean_difference,
    lorenz_points,
    pareto_alpha_mle,
    poll_gini,
)
from govpulse.govdata import MAX_TIMESTAMP, final_ballots
from govpulse.synthgov import gini_oracle


def _one_poll_log(*weights):
    events = [(1, addr(i + 1), 1, str(w), DAY0 + 10 * (i + 1)) for i, w in enumerate(weights)]
    return make_log(events, [make_poll(1, DAY0)])


def _ballots(*weights):
    return final_ballots(_one_poll_log(*weights), 1)


def _poll_metrics(log, order_rule="last"):
    """The metrics of the log's only measured poll."""
    (pm,) = ballot_pass(log, order_rule=order_rule).polls
    return pm


def test_participation_sum_and_count():
    pm = _poll_metrics(_one_poll_log(5, 3, 2))
    assert pm.total_votes == Decimal(10)
    assert pm.voters == 3


def test_zero_weight_poll_has_no_metrics_row():
    passed = ballot_pass(_one_poll_log(0, 0))
    assert len(passed.ballots[1]) == 2
    assert passed.polls == []


def test_poll_gini_equal_weights_is_zero():
    assert poll_gini(_ballots(10, 10, 10)) == 0.0


def test_poll_gini_hand_case_exact():
    # brute-force pairwise oracle: 576 / (2 * 16 * 25) = 0.72
    assert poll_gini(_ballots(1, 1, 1, 97)) == 0.72
    assert gini_oracle([1, 1, 1, 97]) == 0.72


def test_poll_gini_degenerate_cases():
    assert gini_mean_difference(np.array([])) == 0.0
    assert gini_mean_difference(np.array([5.0])) == 0.0
    assert gini_mean_difference(np.array([0.0, 0.0])) == 0.0


def test_gini_matches_rank_oracle_on_random_vectors():
    rng = np.random.default_rng(1234)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 65))
        weights = rng.random(n) * rng.choice([0.1, 1.0, 1000.0])
        worst = max(worst, abs(gini_mean_difference(weights) - gini_oracle(weights)))
    assert worst <= 1e-10


def test_gini_scales_to_large_polls():
    # The pairwise |w_i - w_j| matrix would need 200_000**2 * 8 B = 320 GB.
    weights = np.random.default_rng(99).random(200_000) * 1e3
    start = time.perf_counter()
    value = gini_mean_difference(weights)
    elapsed = time.perf_counter() - start
    assert elapsed < 0.5
    assert abs(value - gini_oracle(weights)) <= 1e-12


def test_gini_scale_invariance():
    rng = np.random.default_rng(7)
    for _ in range(50):
        weights = rng.random(20) * 5
        base = gini_mean_difference(weights)
        for c in (1e-6, 3.7, 1e8, 1e306, 3e307):  # the last two overflow n * sum, then sum
            assert abs(gini_mean_difference(c * weights) - base) <= 1e-12


def test_gini_transfer_principle():
    rng = np.random.default_rng(21)
    for _ in range(200):
        weights = np.sort(rng.random(12) + 0.05)
        before = gini_mean_difference(weights)
        # move eps from a smaller voter to a larger one
        i, j = 2, 9
        eps = min(0.02, weights[i] / 2)
        moved = weights.copy()
        moved[i] -= eps
        moved[j] += eps
        assert gini_mean_difference(moved) >= before - 1e-12


def test_gini_permutation_invariance():
    weights = [3.0, 1.0, 7.5, 0.25, 2.0]
    events_a = [(1, addr(i + 1), 1, str(w), DAY0 + 10 + i) for i, w in enumerate(weights)]
    events_b = list(reversed(events_a))
    log_a = make_log(events_a, [make_poll(1, DAY0)])
    log_b = make_log(events_b, [make_poll(1, DAY0)])
    assert poll_gini(final_ballots(log_a, 1)) == poll_gini(final_ballots(log_b, 1))


def test_gini_bounds():
    rng = np.random.default_rng(3)
    for _ in range(200):
        weights = rng.pareto(1.3, int(rng.integers(2, 40))) + 1e-9
        g = gini_mean_difference(weights)
        assert 0.0 <= g < 1.0


def test_daily_gini_all_equal_totals():
    assert daily_gini(_ballots(4, 4, 4, 4)) == 0.0


def test_daily_gini_single_voter():
    assert daily_gini(_ballots(17)) == 0.0


def test_daily_gini_pools_within_day():
    # one voter appears in two polls: 2 + 2 pooled to 4, equal to the other voter
    p1, p2 = make_poll(1, DAY0), make_poll(2, DAY0 + 60)
    log = make_log(
        [
            (1, addr(1), 1, "2", DAY0 + 10),
            (2, addr(1), 1, "2", DAY0 + 70),
            (1, addr(2), 1, "4", DAY0 + 20),
        ],
        [p1, p2],
    )
    ballots = final_ballots(log, 1) + final_ballots(log, 2)
    assert daily_gini(ballots) == 0.0


def test_daily_gini_drops_zero_totals():
    assert daily_gini(_ballots(0, 5)) == 0.0  # only one positive total -> 0


def test_daily_gini_pareto_calibration_1_5():
    rng = np.random.default_rng(99)
    draws = (1.0 / rng.random(10_000)) ** (1.0 / 1.5)  # Pareto(alpha=1.5), xm=1
    alpha_hat = pareto_alpha_mle(draws)
    assert abs(gini_from_alpha(alpha_hat) - 0.5) < 0.05


def test_gini_from_alpha_clipping():
    assert gini_from_alpha(0.4) == pytest.approx(1.0 - 1e-9)
    assert gini_from_alpha(float("inf")) == 0.0
    assert 0.0 < gini_from_alpha(2.0) == pytest.approx(1.0 / 3.0)


def test_daily_gini_monotone_in_concentration():
    previous = -1.0
    for ratio in (1.0, 2.0, 5.0, 20.0, 100.0, 1e4):
        ballots = _ballots(*([ratio] + [1.0] * 6))
        value = daily_gini(ballots)
        assert value >= previous - 1e-15
        previous = value


def test_largest_voter_stats_single_voter():
    pm = _poll_metrics(_one_poll_log(11))
    assert (pm.largest_share, pm.ifwin, pm.largest_share_win, pm.order) == (1.0, 1, 1.0, 1.0)


def test_largest_voter_stats_winner_case():
    log = make_log(
        [
            (1, addr(2), 2, "40", DAY0 + 10),
            (1, addr(1), 1, "60", DAY0 + 20),
        ],
        [make_poll(1, DAY0)],
    )
    pm = _poll_metrics(log)
    assert (pm.largest_share, pm.ifwin, pm.largest_share_win) == (0.6, 1, 0.6)
    assert pm.order == 1.0  # largest voter's record is 2nd of 2


def test_largest_voter_stats_loss_zeroes_share_win():
    log = make_log(
        [
            (1, addr(1), 1, "60", DAY0 + 10),
            (1, addr(2), 2, "50", DAY0 + 20),
            (1, addr(3), 2, "50", DAY0 + 30),  # option 2 wins 100 to 60
        ],
        [make_poll(1, DAY0)],
    )
    pm = _poll_metrics(log)
    assert (pm.largest_share, pm.ifwin, pm.largest_share_win) == (0.375, 0, 0.0)


def test_largest_voter_stats_order_first_rule():
    log = make_log(
        [
            (1, addr(1), 1, "60", DAY0 + 10),
            (1, addr(2), 2, "40", DAY0 + 20),
            (1, addr(1), 2, "60", DAY0 + 30),  # revision: counted index 3, first index 1
        ],
        [make_poll(1, DAY0)],
    )
    assert _poll_metrics(log, order_rule="last").order == 1.0
    assert _poll_metrics(log, order_rule="first").order == pytest.approx(1.0 / 3.0)


def test_largest_voter_tie_earliest_final_timestamp():
    log = make_log(
        [(1, addr(9), 1, "50", DAY0 + 40), (1, addr(2), 2, "50", DAY0 + 10)],
        [make_poll(1, DAY0)],
    )
    ballots = final_ballots(log, 1)
    assert ballots[0].voter == addr(2)


def test_poll_speed_mean_of_gaps():
    log = make_log(
        [(1, addr(1), 1, "5", DAY0 + 100), (1, addr(2), 1, "5", DAY0 + 300)],
        [make_poll(1, DAY0)],
    )
    assert _poll_metrics(log).speed_seconds == 200.0


def test_poll_speed_revision_counts_last_event():
    log = make_log(
        [(1, addr(1), 1, "5", DAY0 + 100), (1, addr(1), 2, "5", DAY0 + 500)],
        [make_poll(1, DAY0)],
    )
    assert _poll_metrics(log).speed_seconds == 500.0


def test_poll_speed_clamps_negative_gaps():
    log = make_log([(1, addr(1), 1, "5", DAY0 - 100)], [make_poll(1, DAY0)])
    assert _poll_metrics(log).speed_seconds == 0.0


def test_daily_metrics_single_poll_equals_poll_values():
    log = make_log(
        [(1, addr(1), 1, "60", DAY0 + 100), (1, addr(2), 2, "40", DAY0 + 300)],
        [make_poll(1, DAY0)],
    )
    (row,) = daily_from_pass(ballot_pass(log))
    assert row.voters == 2
    assert row.total_votes == Decimal(100)
    assert row.largest_share == 0.6
    assert row.largest_share_win == 0.6
    assert row.speed == 200.0
    assert row.poll_count == 1


def test_daily_metrics_two_identical_polls_sum_vs_average():
    events = []
    for poll_id in (1, 2):
        events += [
            (poll_id, addr(1), 1, "60", DAY0 + 100),
            (poll_id, addr(2), 2, "40", DAY0 + 300),
        ]
    log = make_log(events, [make_poll(1, DAY0), make_poll(2, DAY0)])
    (row,) = daily_from_pass(ballot_pass(log))
    assert row.voters == 4  # summed
    assert row.total_votes == Decimal(200)  # summed
    assert row.largest_share == 0.6  # averaged, unchanged
    assert row.speed == 200.0  # averaged, unchanged
    assert row.poll_count == 2


def test_daily_metrics_ascending_dates_and_full_calendar():
    log = make_log(
        [
            (1, addr(1), 1, "5", DAY0 + 10),
            (2, addr(1), 1, "5", DAY0 + 3 * 86400 + 10),
        ],
        [make_poll(1, DAY0), make_poll(2, DAY0 + 3 * 86400)],
    )
    passed = ballot_pass(log)
    dropped = daily_from_pass(passed)
    assert [r.day.toordinal() for r in dropped] == sorted(r.day.toordinal() for r in dropped)
    assert len(dropped) == 2
    full = fill_calendar(dropped, passed.poll_counts)
    assert len(full) == 4
    missing = [r for r in full if r.missing]
    assert len(missing) == 2
    assert all(r.poll_count == 0 and r.gini == 0.0 for r in missing)


def test_full_calendar_reaches_last_representable_day():
    deploys = (MAX_TIMESTAMP - 2 * 86400, MAX_TIMESTAMP - 100)
    log = make_log(
        [(i + 1, addr(1), 1, "5", deploy + 10) for i, deploy in enumerate(deploys)],
        [make_poll(i + 1, deploy) for i, deploy in enumerate(deploys)],
    )
    passed = ballot_pass(log)
    full = fill_calendar(daily_from_pass(passed), passed.poll_counts)
    assert [r.day.isoformat() for r in full] == ["9999-12-29", "9999-12-30", "9999-12-31"]


def test_daily_metrics_gini_modes_differ_on_heterogeneous_day():
    events = [
        (1, addr(1), 1, "100", DAY0 + 10),
        (1, addr(2), 1, "1", DAY0 + 20),
        (2, addr(3), 1, "50", DAY0 + 30),
        (2, addr(4), 1, "50", DAY0 + 40),
    ]
    log = make_log(events, [make_poll(1, DAY0), make_poll(2, DAY0)])
    by_mode = {
        mode: daily_from_pass(ballot_pass(log), daily_gini_mode=mode)[0].gini
        for mode in ("mle", "mean_of_polls", "pooled_sample")
    }
    assert by_mode["mean_of_polls"] == pytest.approx(
        (gini_mean_difference(np.array([100.0, 1.0])) + 0.0) / 2
    )
    assert by_mode["pooled_sample"] == pytest.approx(
        gini_mean_difference(np.array([100.0, 1.0, 50.0, 50.0]))
    )
    assert by_mode["mle"] != by_mode["pooled_sample"]


def test_lorenz_points_equal_weights_on_diagonal():
    assert lorenz_points(np.array([1.0, 1.0])) == ((0.0, 0.0), (0.5, 0.5), (1.0, 1.0))


def test_lorenz_points_hand_case():
    assert lorenz_points(np.array([1.0, 3.0])) == ((0.0, 0.0), (0.5, 0.25), (1.0, 1.0))


def test_lorenz_all_zero_raises():
    with pytest.raises(ValueError):
        lorenz_points(np.array([0.0, 0.0]))


def _trapezoid_gini(curve):
    """Gini from trapezoid integration of a Lorenz curve."""
    area = sum((p1 - p0) * (l0 + l1) / 2.0 for (p0, l0), (p1, l1) in zip(curve, curve[1:]))
    return 1.0 - 2.0 * area


def test_lorenz_curve_invariants_and_area_identity():
    rng = np.random.default_rng(5)
    for _ in range(200):
        weights = rng.random(int(rng.integers(1, 50))) + 1e-12
        curve = lorenz_points(weights)
        ls = [l for _, l in curve]
        assert curve[0] == (0.0, 0.0)
        assert curve[-1][0] == 1.0
        assert abs(curve[-1][1] - 1.0) < 1e-12
        assert all(b >= a - 1e-15 for a, b in zip(ls, ls[1:]))  # non-decreasing
        assert all(l <= p + 1e-12 for p, l in curve)  # below diagonal
        if weights.size >= 2:
            assert abs(_trapezoid_gini(curve) - gini_mean_difference(weights)) <= 1e-9
