"""The columnar ballot pass against per-poll ``VoteEvent`` oracles.

The oracles below aggregate the way every consumer did before the pass
existed: each one takes the final ballots (``final_ballots_oracle``, as
``VoteEvent``s) of every poll it needs and sums exact ``Decimal``s. The
order and win measures come from this file's own record positions and
per-option tally, not from ``measure_poll_oracle``. Decimal fields must
agree exactly, floats to 1e-12 relative.
"""

from __future__ import annotations

import csv
import math
from dataclasses import fields, replace
from datetime import timedelta
from decimal import Decimal, localcontext

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import DAY0, addr, make_log, make_poll, write_polls_csv, write_votes_csv
from govpulse.centrality import (
    DAILY_GINI_MODES,
    DailyMetrics,
    ballot_pass,
    daily_from_pass,
    daily_gini,
    fill_calendar,
    gini_mean_difference,
    utc_day,
)
from govpulse.cli import exec_command
from govpulse.profiles import VoterProfile, profiles_from_pass
from oracles import EXACT, final_ballots_oracle, measure_poll_oracle, poll_events, pooled_voter_totals_oracle

RULES = ("last", "first")
# "1", "1.0" and "1.00000000000000000001" are one float; the first two are
# also one decimal value, with different exponents
WEIGHTS = st.one_of(
    st.sampled_from(["0", "0.000000000000000001", "1", "1.0", "1.00000000000000000001", "97"]),
    st.integers(0, 10**9).map(lambda i: str(Decimal(i).scaleb(-6))),
)


@st.composite
def vote_logs(draw):
    """Up to five polls over a few days (some without votes), five voters
    (so revotes are common), zero weights and abstain options. Offsets
    come from a small pool, so revisions often share a second, and some
    rows are repeated byte for byte."""
    polls = [
        make_poll(
            poll_id,
            DAY0 + draw(st.integers(0, 4)) * 86400 + draw(st.integers(0, 86399)),
            abstain=tuple(draw(st.sets(st.integers(1, 3), max_size=1))),
        )
        for poll_id in range(1, draw(st.integers(1, 5)) + 1)
    ]
    events = [
        (poll_id, addr(voter), option, weight, polls[poll_id - 1].deploy_timestamp + offset)
        for poll_id, voter, option, weight, offset in draw(st.lists(
            st.tuples(
                st.integers(1, len(polls)),
                st.integers(1, 5),
                st.integers(1, 3),
                WEIGHTS,
                st.sampled_from(draw(st.lists(st.integers(-5, 200), min_size=1, max_size=4))),
            ),
            max_size=40,
        ))
    ]
    if events:
        events += [events[i] for i in draw(st.lists(st.integers(0, len(events) - 1), max_size=4))]
    return make_log(events, polls, identities={addr(1): "one", addr(4): "four"})


def oracle_positions(history, ballot_rule):
    """Each voter's counted and first 1-based record positions in a poll's
    history."""
    counted, first_seen = {}, {}
    for index, event in enumerate(history, start=1):
        first_seen.setdefault(event.voter, index)
        if ballot_rule == "last" or event.voter not in counted:
            counted[event.voter] = index
    return counted, first_seen


def oracle_winner(ballots):
    """The option with the largest summed weight; ties go to the smallest id."""
    totals = {}
    with localcontext(EXACT):
        for ballot in ballots:
            totals[ballot.option_id] = totals.get(ballot.option_id, Decimal(0)) + ballot.weight
    best = max(totals.values())
    return min(oid for oid, total in totals.items() if total == best)


def oracle_poll(log, poll_id, ballot_rule, order_rule):
    """One poll's metrics from its own final ballots, with order and win
    taken from ``oracle_positions`` and ``oracle_winner``."""
    history = poll_events(log, poll_id)
    ballots = final_ballots_oracle(log, poll_id, ballot_rule)
    pm = measure_poll_oracle(log.registry[poll_id], ballots, history, order_rule)
    if pm is None:
        return None
    counted, first_seen = oracle_positions(history, ballot_rule)
    largest = ballots[0]
    index = (counted if order_rule == "last" else first_seen)[largest.voter]
    ifwin = 1 if largest.option_id == oracle_winner(ballots) else 0
    return replace(pm, ifwin=ifwin, largest_share_win=pm.largest_share * ifwin, order=index / len(history))


def oracle_polls(log, ballot_rule, order_rule):
    out = []
    for poll_id in log.poll_ids():
        pm = oracle_poll(log, poll_id, ballot_rule, order_rule)
        if pm is not None:
            out.append(pm)
    return out


def oracle_daily(log, calendar_mode, daily_gini_mode, ballot_rule, order_rule):
    per_day, ballots_by_day, poll_counts = {}, {}, {}
    for poll_id in log.poll_ids():
        day = utc_day(log.registry[poll_id].deploy_timestamp)
        poll_counts[day] = poll_counts.get(day, 0) + 1
        pm = oracle_poll(log, poll_id, ballot_rule, order_rule)
        if pm is None:
            continue
        per_day.setdefault(day, []).append(pm)
        ballots_by_day.setdefault(day, []).extend(final_ballots_oracle(log, poll_id, ballot_rule))
    rows = []
    for day in sorted(per_day):
        polls = per_day[day]
        n = len(polls)
        if daily_gini_mode == "mle":
            gini = daily_gini(pooled_voter_totals_oracle(ballots_by_day[day]))
        elif daily_gini_mode == "mean_of_polls":
            gini = sum(p.gini for p in polls) / n
        else:
            totals = {}
            for ballot in ballots_by_day[day]:
                totals[ballot.voter] = totals.get(ballot.voter, Decimal(0)) + ballot.weight
            gini = gini_mean_difference([float(v) for v in totals.values() if v > 0])
        rows.append(DailyMetrics(
            day=day,
            poll_count=poll_counts[day],
            voters=sum(p.voters for p in polls),
            total_votes=sum((p.total_votes for p in polls), Decimal(0)),
            largest_share=sum(p.largest_share for p in polls) / n,
            largest_share_win=sum(p.largest_share_win for p in polls) / n,
            order=sum(p.order for p in polls) / n,
            speed=sum(p.speed_seconds for p in polls) / n,
            gini=gini,
        ))
    if calendar_mode == "full-calendar" and rows:
        have = {r.day: r for r in rows}
        filled, day = [], rows[0].day
        while day <= rows[-1].day:
            filled.append(have.get(day) or DailyMetrics(
                day=day, poll_count=poll_counts.get(day, 0), voters=0, total_votes=Decimal(0),
                largest_share=0.0, largest_share_win=0.0, order=0.0, speed=0.0, gini=0.0,
                missing=True,
            ))
            day += timedelta(days=1)
        rows = filled
    return rows


def oracle_profiles(log, ballot_rule):
    involved, totals, first_poll, highest, first_ts = {}, {}, {}, {}, {}
    for poll_id in log.poll_ids():
        for ballot in final_ballots_oracle(log, poll_id, ballot_rule):
            a = ballot.voter
            involved[a] = involved.get(a, 0) + 1
            totals[a] = totals.get(a, Decimal(0)) + ballot.weight
            first_poll[a] = min(first_poll.get(a, poll_id), poll_id)
            highest[a] = max(highest.get(a, ballot.weight), ballot.weight)
            first_ts[a] = min(first_ts.get(a, ballot.timestamp), ballot.timestamp)
    return [
        VoterProfile(
            address=a, identity=log.identities.get(a, ""), involved_polls=involved[a],
            total_votes=totals[a], first_poll=first_poll[a], highest_single_vote=highest[a],
            first_date=utc_day(first_ts[a]),
        )
        for a in sorted(involved)
    ]


def assert_same(got: list, want: list) -> None:
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert type(g) is type(w)
        for f in fields(w):
            a, b = getattr(g, f.name), getattr(w, f.name)
            if isinstance(b, float):
                assert math.isclose(a, b, rel_tol=1e-12, abs_tol=0.0), (f.name, a, b)
            elif isinstance(b, Decimal):
                assert isinstance(a, Decimal) and str(a) == str(b), (f.name, a, b)
            else:
                assert a == b, (f.name, a, b)


@settings(max_examples=200, deadline=None)
@given(log=vote_logs())
def test_single_pass_matches_per_poll_oracle(log):
    for ballot_rule in RULES:
        want_profiles = oracle_profiles(log, ballot_rule)
        assert_same(profiles_from_pass(ballot_pass(log, ballot_rule=ballot_rule), log.identities),
                    want_profiles)
        for order_rule in RULES:
            passed = ballot_pass(log, ballot_rule=ballot_rule, order_rule=order_rule)
            assert_same(passed.polls, oracle_polls(log, ballot_rule, order_rule))
            for gini_mode in DAILY_GINI_MODES:
                drop = daily_from_pass(passed, gini_mode)
                assert_same(drop, oracle_daily(log, "drop-missing", gini_mode, ballot_rule, order_rule))
                full = oracle_daily(log, "full-calendar", gini_mode, ballot_rule, order_rule)
                assert_same(fill_calendar(drop, passed.poll_counts), full)


def test_duplicated_row_of_the_largest_voter_orders_by_its_second_record(tmp_path):
    row = (1, addr(1), 1, "9", DAY0 + 100)
    votes, polls, out = tmp_path / "votes.csv", tmp_path / "polls.csv", tmp_path / "out"
    write_votes_csv(votes, [row, row, (1, addr(2), 2, "3", DAY0 + 200)])
    write_polls_csv(polls, [(1, DAY0, "poll 1", "1:yes|2:no", "")])
    argv = ["metrics", "--votes", str(votes), "--polls", str(polls), "--ballot", "last", "--order", "last"]
    assert exec_command([*argv, "--out-dir", str(out)]) == 0
    with open(out / "poll_metrics.csv", newline="") as handle:
        (poll,) = csv.DictReader(handle)
    assert float(poll["order"]) == 2 / 3
