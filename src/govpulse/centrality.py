"""Poll-level and daily centralization measurements.

Seven measures are computed per poll and aggregated to calendar days (UTC):
participation (voters, total votes), voting-power concentration (Gini,
largest-voter share, share-win, voting order) and decision speed (mean
seconds from deployment to each voter's counted choice).

The poll Gini is the mean-absolute-difference form

    G = sum_i sum_j |v_i - v_j| / (2 n^2 vbar)

over final ballot weights. It is evaluated through the sorted-gap identity

    G = sum_{k=1}^{n-1} k (n - k) (v_(k+1) - v_(k)) / (n sum v),

which takes O(n log n) time and O(n) memory; every term is non-negative, so
equal weights give exactly 0. The daily Gini pools each voter's weights
across the day's polls and fits a Paretian tail index by maximum likelihood,

    alpha_hat = n / sum_i ln(x_i / x_min),      G = 1 / (2 alpha_hat - 1),

clipped to [0, 1). Alternative daily estimators (mean of poll Ginis, pooled
sample Gini) are available for comparison.

``ballot_pass`` is the one road from a vote log to the measures: it derives
every poll's final ballots (each voter's counted ``VoteEvent``) once per
ballot rule, together with the per-poll metrics and the per-day poll counts;
voting order is read from each poll's history. Daily rows, voter profiles,
poll descriptives and Lorenz totals are all derived from that one result,
and ``fill_calendar`` is the one way to add the days without polls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import date, datetime, timezone
from decimal import Decimal, localcontext

import numpy as np

from govpulse.govdata import EXACT, PollRecord, VoteEvent, VoteLog, exact_sum, final_ballots

GINI_UPPER = 1.0 - 1e-9

# measure name -> the DailyMetrics field holding its daily value
MEASURE_FIELDS = {
    "Voters": "voters",
    "TotalVotes": "total_votes",
    "LargestShare": "largest_share",
    "LargestShareWin": "largest_share_win",
    "Gini": "gini",
    "Order": "order",
    "Speed": "speed",
}
MEASURES = tuple(MEASURE_FIELDS)

DAILY_GINI_MODES = ("mle", "mean_of_polls", "pooled_sample")
CALENDAR_MODES = ("drop-missing", "full-calendar")


@dataclass(frozen=True)
class PollMetrics:
    """Per-poll values of the centralization measures."""

    poll_id: int
    day: date
    total_votes: Decimal
    voters: int
    gini: float
    largest_share: float
    ifwin: int
    largest_share_win: float
    order: float
    speed_seconds: float
    breakdown_votes: Decimal
    breakdown_ratio: float
    breakdown_voters: int
    largest_votes: Decimal


@dataclass(frozen=True)
class DailyMetrics:
    """Daily aggregation: sums for participation, means for the rest."""

    day: date
    poll_count: int
    voters: int
    total_votes: Decimal
    largest_share: float
    largest_share_win: float
    order: float
    speed: float
    gini: float
    missing: bool = False


def utc_day(timestamp: int) -> date:
    return datetime.fromtimestamp(timestamp, tz=timezone.utc).date()


def gini_mean_difference(weights: np.ndarray) -> float:
    """Mean-absolute-difference Gini over a weight vector.

    Uses the sorted-gap identity: each gap x_(k+1) - x_(k) between adjacent
    sorted weights lies between k * (n - k) pairs, so
    G = sum_k k (n - k) (x_(k+1) - x_(k)) / (n sum x). Every term is
    non-negative, which keeps equal weights at exactly 0. Returns 0 for
    fewer than two weights or an all-zero vector. Weights whose float sums
    overflow are first divided by the largest one.
    """
    ordered = np.sort(np.asarray(weights, dtype=float))
    n = ordered.size
    with np.errstate(over="ignore"):  # inf when the sum overflows
        total = float(ordered.sum())
    if n < 2 or total <= 0.0:
        return 0.0
    if not math.isfinite(n * total):
        ordered = ordered / ordered[-1]
        total = float(ordered.sum())
    k = np.arange(1, n, dtype=float)
    return float((k * (n - k) * np.diff(ordered)).sum() / (n * total))


def poll_gini(ballots: list[VoteEvent]) -> float:
    """Gini coefficient of one poll's final ballot weights."""
    return gini_mean_difference(np.array([float(b.weight) for b in ballots], dtype=float))


def pareto_alpha_mle(values: np.ndarray) -> float:
    """Paretian tail index alpha_hat = n / sum ln(x_i / x_min).

    Expects strictly positive values; returns inf when all values are equal.
    """
    values = np.asarray(values, dtype=float)
    if values.size < 2:
        return float("inf")
    log_ratio_sum = float(np.log(values / values.min()).sum())
    if log_ratio_sum <= 0.0:
        return float("inf")
    return values.size / log_ratio_sum


def gini_from_alpha(alpha: float) -> float:
    """G = 1/(2 alpha - 1), clipped to [0, 1)."""
    if alpha != alpha:  # NaN guard
        return 0.0
    if alpha <= 0.5:
        return GINI_UPPER
    if np.isinf(alpha):
        return 0.0
    return float(min(max(1.0 / (2.0 * alpha - 1.0), 0.0), GINI_UPPER))


def _pooled_voter_totals(ballots: list[VoteEvent]) -> np.ndarray:
    """Each voter's summed weight over the ballots, positive totals only."""
    totals: dict[str, Decimal] = {}
    with localcontext(EXACT):
        for ballot in ballots:
            totals[ballot.voter] = totals.get(ballot.voter, Decimal(0)) + ballot.weight
    return np.array([float(v) for v in totals.values() if v > 0], dtype=float)


def daily_gini(ballots_of_day: list[VoteEvent]) -> float:
    """Daily Gini from the Paretian tail-index MLE on pooled voter totals.

    Each voter's final weights across the day's polls are summed first;
    non-positive totals are dropped; fewer than two positive totals give 0.
    """
    positive = _pooled_voter_totals(ballots_of_day)
    if positive.size < 2:
        return 0.0
    return gini_from_alpha(pareto_alpha_mle(positive))


def _measure_poll(
    poll: PollRecord, ballots: list[VoteEvent], history: tuple[VoteEvent, ...], order_rule: str
) -> PollMetrics | None:
    """All per-poll measures from the poll's final ballots (its counted
    ``VoteEvent``s, largest first as ``final_ballots`` returns them) and its
    chronological history; None when the ballots carry no positive weight.
    One exact per-option tally gives the total, the winner (ties go to the
    smallest id) and the non-abstain breakdown. Order places the largest
    voter's counted (``order_rule="last"``) or first record in the history,
    the counted one found by identity, since identical rows compare equal;
    speed clamps negative gaps (clock skew) to zero."""
    tally: dict[int, Decimal] = {}
    with localcontext(EXACT):
        for ballot in ballots:
            tally[ballot.option_id] = tally.get(ballot.option_id, Decimal(0)) + ballot.weight
    total = exact_sum(tally.values())
    if total <= 0:
        return None
    largest = ballots[0]
    share = float(largest.weight / total)
    best = max(tally.values())
    ifwin = 1 if largest.option_id == min(o for o, w in tally.items() if w == best) else 0
    records = [(i, e) for i, e in enumerate(history, start=1) if e.voter == largest.voter]
    index = max(i for i, e in records if e is largest) if order_rule == "last" else records[0][0]
    breakdown = exact_sum(w for o, w in tally.items() if o not in poll.abstain_option_ids)
    gaps = sum(max(0, b.timestamp - poll.deploy_timestamp) for b in ballots)
    return PollMetrics(
        poll_id=poll.poll_id,
        day=utc_day(poll.deploy_timestamp),
        total_votes=total,
        voters=len(ballots),
        gini=poll_gini(ballots),
        largest_share=share,
        ifwin=ifwin,
        largest_share_win=share * ifwin,
        order=index / len(history),
        speed_seconds=float(gaps) / len(ballots),
        breakdown_votes=breakdown,
        breakdown_ratio=float(breakdown / total),
        breakdown_voters=sum(1 for b in ballots if b.option_id not in poll.abstain_option_ids),
        largest_votes=largest.weight,
    )


@dataclass(frozen=True)
class BallotPass:
    """Every poll's final ballots under one ballot rule, derived once.

    ``ballots`` maps each registered poll, in ascending poll id order, to its
    final ballots, the counted ``VoteEvent``s as ``final_ballots`` returns
    them (empty for a poll without events). ``polls`` holds the
    metrics of the polls with a positive total, ascending by poll id, and
    ``poll_counts`` the number of registered polls per deployment day.
    """

    ballots: dict[int, list[VoteEvent]]
    polls: list[PollMetrics]
    poll_counts: dict[date, int]


def ballot_pass(log: VoteLog, ballot_rule: str = "last", order_rule: str = "last") -> BallotPass:
    """One pass over the log: final ballots, poll metrics and daily poll counts."""
    if order_rule not in ("last", "first"):
        raise ValueError(f"unknown order rule: {order_rule!r}")
    ballots: dict[int, list[VoteEvent]] = {}
    polls: list[PollMetrics] = []
    poll_counts: dict[date, int] = {}
    for poll_id in log.poll_ids():
        poll = log.registry[poll_id]
        day = utc_day(poll.deploy_timestamp)
        poll_counts[day] = poll_counts.get(day, 0) + 1
        counted = final_ballots(log, poll_id, rule=ballot_rule)
        ballots[poll_id] = counted
        pm = _measure_poll(poll, counted, log.poll_events(poll_id), order_rule)
        if pm is not None:
            polls.append(pm)
    return BallotPass(ballots=ballots, polls=polls, poll_counts=poll_counts)


def daily_from_pass(passed: BallotPass, daily_gini_mode: str = "mle") -> list[DailyMetrics]:
    """Aggregate a pass's poll metrics to the calendar days (UTC) that have
    measured polls, ascending.

    Voters and total votes are summed over the day's polls; the share, order
    and speed measures are averaged; the Gini column follows
    ``daily_gini_mode``. ``fill_calendar`` adds the days between.
    """
    if daily_gini_mode not in DAILY_GINI_MODES:
        raise ValueError(f"unknown daily gini mode: {daily_gini_mode!r}")

    per_day: dict[date, list[PollMetrics]] = {}
    for pm in passed.polls:
        per_day.setdefault(pm.day, []).append(pm)

    rows: list[DailyMetrics] = []
    for day in sorted(per_day):
        polls = per_day[day]
        n = len(polls)
        if daily_gini_mode == "mean_of_polls":
            gini = sum(p.gini for p in polls) / n
        else:
            ballots_of_day = [b for p in polls for b in passed.ballots[p.poll_id]]
            if daily_gini_mode == "mle":
                gini = daily_gini(ballots_of_day)
            else:
                gini = gini_mean_difference(_pooled_voter_totals(ballots_of_day))
        rows.append(
            DailyMetrics(
                day=day,
                poll_count=passed.poll_counts[day],
                voters=sum(p.voters for p in polls),
                total_votes=exact_sum(p.total_votes for p in polls),
                largest_share=sum(p.largest_share for p in polls) / n,
                largest_share_win=sum(p.largest_share_win for p in polls) / n,
                order=sum(p.order for p in polls) / n,
                speed=sum(p.speed_seconds for p in polls) / n,
                gini=gini,
            )
        )
    return rows


def fill_calendar(rows: list[DailyMetrics], poll_counts: dict[date, int]) -> list[DailyMetrics]:
    """Full-calendar view of daily rows: every day between the first and the
    last row, days without a row emitted as zero rows with the missing flag
    set (their poll count still taken from ``poll_counts``)."""
    if not rows:
        return rows
    have = {r.day: r for r in rows}
    filled: list[DailyMetrics] = []
    for ordinal in range(rows[0].day.toordinal(), rows[-1].day.toordinal() + 1):
        day = date.fromordinal(ordinal)
        filled.append(have.get(day) or DailyMetrics(
            day=day,
            poll_count=poll_counts.get(day, 0),
            voters=0,
            total_votes=Decimal(0),
            largest_share=0.0,
            largest_share_win=0.0,
            order=0.0,
            speed=0.0,
            gini=0.0,
            missing=True,
        ))
    return filled


def lorenz_points(weights: np.ndarray) -> tuple[tuple[float, float], ...]:
    """Lorenz curve of a weight vector: (population share, vote share)
    points, ascending, from (0,0) to (1,1). Weights whose float sum
    overflows are first divided by the largest one."""
    weights = np.asarray(weights, dtype=float)
    with np.errstate(over="ignore"):  # inf when the sum overflows
        total = float(weights.sum())
    if weights.size == 0 or total <= 0.0:
        raise ValueError("lorenz curve requires at least one positive weight")
    ordered = np.sort(weights)
    if not math.isfinite(total):
        ordered = ordered / ordered[-1]
        total = float(ordered.sum())
    cumulative = np.cumsum(ordered) / total
    n = ordered.size
    points = [(0.0, 0.0)]
    points.extend(((k + 1) / n, float(cumulative[k])) for k in range(n))
    return tuple(points)
