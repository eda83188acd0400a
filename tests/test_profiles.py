"""Voter profiles, rankings and poll descriptives."""

from __future__ import annotations

import statistics
import tracemalloc
from decimal import Decimal

import numpy as np
import pytest

from conftest import DAY0, addr, make_log, make_poll
from govpulse.centrality import ballot_pass
from govpulse.govdata import VoteColumns, VoteLog
from govpulse.profiles import (
    describe_polls,
    profiles_from_pass,
    rank_voters,
    voter_descriptives,
)


def _profiles(log):
    return profiles_from_pass(ballot_pass(log), log.identities)


def _poll_stats(log):
    return describe_polls(ballot_pass(log).polls)


def _whale_log():
    """One address casting 32160 in each of polls 631, 640, 650."""
    polls = [make_poll(pid, DAY0 + i * 86400) for i, pid in enumerate((631, 640, 650))]
    events = []
    for i, pid in enumerate((631, 640, 650)):
        events.append((pid, addr(16), 1, "32160", DAY0 + i * 86400 + 100))
        events.append((pid, addr(2), 2, "10", DAY0 + i * 86400 + 200))
    return make_log(events, polls, identities={addr(16): "Big Fund"})


def test_voter_profile_repeat_whale():
    profiles = {p.address: p for p in _profiles(_whale_log())}
    whale = profiles[addr(16)]
    assert whale.involved_polls == 3
    assert whale.total_votes == Decimal(96480)
    assert whale.highest_single_vote == Decimal(32160)
    assert whale.first_poll == 631
    assert whale.identity == "Big Fund"


def test_voter_profile_single_ballot():
    log = make_log([(1, addr(1), 1, "7.5", DAY0 + 10)], [make_poll(1, DAY0)])
    (profile,) = _profiles(log)
    assert profile.total_votes == profile.highest_single_vote == Decimal("7.5")
    assert profile.involved_polls == 1
    assert profile.first_date.isoformat() == "2021-03-01"


def test_profiles_count_final_ballots_only():
    log = make_log(
        [(1, addr(1), 1, "5", DAY0 + 10), (1, addr(1), 2, "5", DAY0 + 20)],
        [make_poll(1, DAY0)],
    )
    (profile,) = _profiles(log)
    assert profile.involved_polls == 1
    assert profile.total_votes == Decimal(5)


def test_total_votes_conservation_decimal_exact():
    rng = np.random.default_rng(11)
    events = []
    polls = []
    for pid in range(1, 21):
        polls.append(make_poll(pid, DAY0 + pid * 3600))
        for v in rng.choice(40, size=rng.integers(1, 8), replace=False):
            weight = f"{rng.random() * 100:.18f}"
            events.append((pid, addr(int(v) + 1), 1, weight, DAY0 + pid * 3600 + int(v) + 1))
    log = make_log(events, polls)
    by_voters = sum((p.total_votes for p in _profiles(log)), Decimal(0))
    by_polls = sum((m.total_votes for m in ballot_pass(log).polls), Decimal(0))
    assert by_voters == by_polls


def test_rank_voters_descending_and_prefix():
    log = _whale_log()
    profiles = _profiles(log)
    top = rank_voters(profiles, "total_votes", 2)
    assert [p.address for p in top] == [addr(16), addr(2)]
    assert set(p.address for p in top) <= {p.address for p in profiles}
    assert rank_voters(profiles, "total_votes", 99) == sorted(
        rank_voters(profiles, "total_votes", 99), key=lambda p: -p.total_votes
    )


def test_rank_voters_tie_broken_by_address():
    events = [
        (1, addr(5), 1, "10", DAY0 + 10),
        (1, addr(3), 2, "10", DAY0 + 20),
    ]
    log = make_log(events, [make_poll(1, DAY0)])
    top = rank_voters(_profiles(log), "total_votes", 2)
    assert [p.address for p in top] == [addr(3), addr(5)]


def test_rank_voters_bad_args():
    profiles = _profiles(_whale_log())
    with pytest.raises(ValueError):
        rank_voters(profiles, "shoe_size", 3)
    with pytest.raises(ValueError):
        rank_voters(profiles, "total_votes", 0)


def test_poll_descriptives_single_poll_no_abstain():
    events = [
        (1, addr(1), 1, "5", DAY0 + 10),
        (1, addr(2), 1, "3", DAY0 + 20),
        (1, addr(3), 2, "2", DAY0 + 30),
    ]
    log = make_log(events, [make_poll(1, DAY0)])
    stats = _poll_stats(log)
    assert stats["total_votes"].mean == 10.0
    assert stats["total_votes"].minimum == stats["total_votes"].maximum == 10.0
    assert stats["total_voters"].mean == 3.0
    assert stats["breakdown_ratio"].mean == 1.0


def test_poll_descriptives_largest_share_mean():
    events = [
        (1, addr(1), 1, "60", DAY0 + 10),
        (1, addr(2), 2, "40", DAY0 + 20),
        (2, addr(1), 1, "80", DAY0 + 30),
        (2, addr(2), 2, "20", DAY0 + 40),
    ]
    log = make_log(events, [make_poll(1, DAY0), make_poll(2, DAY0)])
    stats = _poll_stats(log)
    assert stats["largest_share"].mean == pytest.approx(0.7)


def test_poll_descriptives_abstain_breakdown():
    poll = make_poll(1, DAY0, options=3, abstain=(3,))
    events = [
        (1, addr(1), 1, "60", DAY0 + 10),
        (1, addr(2), 3, "40", DAY0 + 20),  # abstain option
    ]
    log = make_log(events, [poll])
    stats = _poll_stats(log)
    assert stats["breakdown_votes"].mean == 60.0
    assert stats["breakdown_ratio"].mean == pytest.approx(0.6)
    assert stats["breakdown_voters"].mean == 1.0


def test_poll_descriptives_empty_raises():
    log = make_log([], [make_poll(1, DAY0)])
    with pytest.raises(ValueError):
        _poll_stats(log)


def test_descriptives_match_sort_oracle_on_random_logs():
    rng = np.random.default_rng(2024)
    for _ in range(500):
        n_polls = int(rng.integers(1, 6))
        polls = [make_poll(pid, DAY0 + pid * 1000) for pid in range(1, n_polls + 1)]
        events = []
        for pid in range(1, n_polls + 1):
            for v in range(int(rng.integers(1, 5))):
                weight = f"{float(rng.random() * 50 + 0.01):.6f}"
                events.append((pid, addr(v + 1), 1, weight, DAY0 + pid * 1000 + v + 1))
        log = make_log(events, polls)
        stats = _poll_stats(log)["total_votes"]
        totals = sorted(float(m.total_votes) for m in ballot_pass(log).polls)
        assert stats.minimum == pytest.approx(totals[0])
        assert stats.maximum == pytest.approx(totals[-1])
        assert stats.median == pytest.approx(statistics.median(totals))


def test_voter_descriptives_columns():
    stats = voter_descriptives(_profiles(_whale_log()))
    assert stats["involved_polls"].maximum == 3.0
    assert stats["highest_single_vote"].maximum == 32160.0
    assert stats["first_poll"].minimum == 631.0


def test_profiles_peak_near_the_ballots():
    """60,000 final ballots of 1500 voters over 40 polls: the ballot rows
    are sorted once and each column gathered once from them, so building
    the profiles peaked at 4.5 times the ballots' bytes (6.2 when each
    gathered column was permuted again), the profiles themselves included."""
    i = np.arange(60_000)
    table = np.stack([1 + i % 40, (i // 40) % 1500, 1 + i % 3, (i * 7) % 1000, DAY0 + i])
    decimals = [Decimal(f"{k}.{k % 7}") for k in range(1000)]
    log = VoteLog(VoteColumns.of_table(table, [addr(k) for k in range(1500)], decimals),
                  {pid: make_poll(pid, DAY0) for pid in range(1, 41)})
    passed = ballot_pass(log)
    ballots = sum(rows.nbytes for rows in passed.ballots.values())
    tracemalloc.start()
    try:
        profiles = profiles_from_pass(passed, {})
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(profiles) == 1500 and ballots == 8 * 60_000
    assert peak < 5 * ballots, f"profiles peaked at {peak} traced bytes for {ballots} bytes of ballots"
