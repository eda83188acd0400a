"""The single ballot pass against the per-poll ``final_ballots`` loop.

The oracles below aggregate the way every consumer did before the pass
existed: each one calls ``final_ballots`` (directly or through
``oracle_poll``) for every poll it needs. Decimal fields must agree
exactly, floats to 1e-12 relative.
"""

from __future__ import annotations

import math
from dataclasses import fields
from datetime import timedelta
from decimal import Decimal

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import DAY0, addr, make_log, make_poll
from govpulse.centrality import (
    DAILY_GINI_MODES,
    DailyMetrics,
    _measure_poll,
    ballot_pass,
    daily_from_pass,
    daily_gini,
    fill_calendar,
    gini_mean_difference,
    utc_day,
)
from govpulse.govdata import final_ballots
from govpulse.profiles import VoterProfile, profiles_from_pass

RULES = ("last", "first")
WEIGHTS = st.one_of(
    st.sampled_from(["0", "0.000000000000000001", "1", "97"]),
    st.integers(0, 10**9).map(lambda i: str(Decimal(i).scaleb(-6))),
)


@st.composite
def vote_logs(draw):
    """Up to five polls over a few days (some without votes), five voters
    (so revotes are common), zero weights and abstain options."""
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
                st.integers(-5, 200),
            ),
            max_size=40,
        ))
    ]
    return make_log(events, polls, identities={addr(1): "one", addr(4): "four"})


def oracle_poll(log, poll_id, ballot_rule, order_rule):
    """One poll's metrics from its own ``final_ballots`` call."""
    ballots = final_ballots(log, poll_id, rule=ballot_rule)
    return _measure_poll(log.registry[poll_id], ballots, len(log.poll_events(poll_id)), order_rule)


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
        ballots_by_day.setdefault(day, []).extend(final_ballots(log, poll_id, rule=ballot_rule))
    rows = []
    for day in sorted(per_day):
        polls = per_day[day]
        n = len(polls)
        if daily_gini_mode == "mle":
            gini = daily_gini(ballots_by_day[day])
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
        for ballot in final_ballots(log, poll_id, rule=ballot_rule):
            a = ballot.voter
            involved[a] = involved.get(a, 0) + 1
            totals[a] = totals.get(a, Decimal(0)) + ballot.weight
            first_poll[a] = min(first_poll.get(a, poll_id), poll_id)
            highest[a] = max(highest.get(a, ballot.weight), ballot.weight)
            first_ts[a] = min(first_ts.get(a, ballot.final_timestamp), ballot.final_timestamp)
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

