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
every poll's final ballots (the log's row index of each voter's counted
record) once per ballot rule, together with the per-poll metrics and the
per-day poll counts; voting order is read from each poll's history. Daily
rows, voter profiles, poll descriptives and Lorenz totals are all derived
from that one result, and ``fill_calendar`` is the one way to add the days
without polls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import date, datetime, timezone
from decimal import Decimal

import numpy as np

from govpulse.govdata import VoteLog, final_ballots, run_starts

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
# ballot_pass measures polls in groups of at least this many final ballots
# (or the polls left)
MEASURE_BALLOTS = 1 << 14


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


def poll_gini(weights: np.ndarray) -> float:
    """Gini coefficient of one poll's final ballot weights (as floats)."""
    return gini_mean_difference(weights)


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


def daily_gini(totals: np.ndarray) -> float:
    """Daily Gini from the Paretian tail-index MLE on the day's positive
    pooled voter totals (each voter's final weights summed across the day's
    polls); fewer than two totals give 0.
    """
    if len(totals) < 2:
        return 0.0
    return gini_from_alpha(pareto_alpha_mle(totals))


def _tallies(log: VoteLog, tallied: np.ndarray, segment: np.ndarray, polls: int) -> tuple[list, list[int]]:
    """The per-option tallies of ``polls`` polls' ballots: ``tallied`` holds
    their row indices sorted by poll, then option, and ``segment`` the poll
    index of each (non-decreasing). One (option, units, exponent, ballots)
    entry per tally, and the index of each poll's first entry (one more for
    the end)."""
    option, weight = log.option_id[tallied], log.weight[tallied]
    runs = run_starts(segment, option)
    entries = zip(
        option[runs].tolist(),
        np.add.reduceat(log.weights.units[weight], runs).tolist() if len(runs) else [],
        np.minimum.reduceat(log.weights.exponents[weight], runs).tolist() if len(runs) else [],
        np.diff(np.append(runs, len(tallied))).tolist(),
    )
    return list(entries), np.searchsorted(segment[runs], np.arange(polls + 1)).tolist()


def _measure_polls(log: VoteLog, ballots: dict[int, np.ndarray], order_rule: str) -> list[PollMetrics]:
    """All per-poll measures from each poll's final ballots (row indices,
    largest first as ``final_ballots`` returns them): the metrics of the
    polls whose ballots carry a positive weight, by ascending poll id.

    One exact per-option tally (a run of the ballots grouped by poll and
    option, its weights summed as ints) gives the total, the winner (ties go
    to the smallest id) and the non-abstain breakdown. Order places the
    largest voter's counted (``order_rule="last"``) or first record in the
    poll's history; speed clamps negative gaps (clock skew) to zero."""
    weights, index = log.weights, log.poll_rows
    sizes = [len(rows) for rows in ballots.values()]
    bounds = np.cumsum([0, *sizes]).tolist()
    rows = np.concatenate([np.empty(0, np.int64), *ballots.values()])
    segment = np.repeat(np.arange(len(sizes), dtype=np.int32), sizes)
    tallies, first_tally = _tallies(log, rows[np.lexsort((log.option_id[rows], segment))], segment, len(sizes))
    deploys = np.array([log.registry[poll_id].deploy_timestamp for poll_id in ballots], dtype=np.int64)
    gaps = log.timestamp[rows] - deploys[segment]
    gaps = np.concatenate([[0], np.cumsum(np.maximum(gaps, 0, out=gaps))])

    out: list[PollMetrics] = []
    for i, (poll_id, counted) in enumerate(ballots.items()):
        tally = tallies[first_tally[i]:first_tally[i + 1]]
        total = sum(units for _, units, _, _ in tally)
        if total <= 0:
            continue
        poll = log.registry[poll_id]
        largest = int(counted[0])
        share = float(Decimal(weights.units[log.weight[largest]]) / Decimal(total))
        best = max(units for _, units, _, _ in tally)
        winner = min(option for option, units, _, _ in tally if units == best)
        ifwin = 1 if log.option_id[largest] == winner else 0
        start, stop = index.span[poll_id]
        history = index.rows[start:stop]
        if order_rule == "last":
            position = int(np.searchsorted(history, largest)) + 1
        else:
            position = int(np.argmax(log.voter[history] == log.voter[largest])) + 1
        kept = [entry for entry in tally if entry[0] not in poll.abstain_option_ids]
        breakdown = sum(units for _, units, _, _ in kept)
        out.append(PollMetrics(
            poll_id=poll_id,
            day=utc_day(poll.deploy_timestamp),
            total_votes=weights.total(total, min(exponent for _, _, exponent, _ in tally)),
            voters=len(counted),
            gini=poll_gini(weights.floats[log.weight[counted]]),
            largest_share=share,
            ifwin=ifwin,
            largest_share_win=share * ifwin,
            order=position / (stop - start),
            speed_seconds=float(gaps[bounds[i + 1]] - gaps[bounds[i]]) / len(counted),
            breakdown_votes=weights.total(breakdown, min((exponent for _, _, exponent, _ in kept), default=0)),
            breakdown_ratio=float(Decimal(breakdown) / Decimal(total)),
            breakdown_voters=sum(n for _, _, _, n in kept),
            largest_votes=weights.decimals[log.weight[largest]],
        ))
    return out


@dataclass(frozen=True)
class BallotPass:
    """Every poll's final ballots under one ballot rule, derived once.

    ``ballots`` maps each registered poll of ``log``, in ascending poll id
    order, to its final ballots, the row indices ``final_ballots`` returns
    (empty for a poll without events). ``polls`` holds the metrics of the
    polls with a positive total, ascending by poll id, and ``poll_counts``
    the number of registered polls per deployment day.
    """

    log: VoteLog
    ballots: dict[int, np.ndarray]
    polls: list[PollMetrics]
    poll_counts: dict[date, int]


def ballot_pass(log: VoteLog, ballot_rule: str = "last", order_rule: str = "last") -> BallotPass:
    """One pass over the log: final ballots, poll metrics and daily poll
    counts. Polls are measured in groups of about ``MEASURE_BALLOTS`` final
    ballots, which bounds the memory of the columns a group gathers."""
    if order_rule not in ("last", "first"):
        raise ValueError(f"unknown order rule: {order_rule!r}")
    ballots: dict[int, np.ndarray] = {}
    polls: list[PollMetrics] = []
    poll_counts: dict[date, int] = {}
    group: dict[int, np.ndarray] = {}
    grouped = 0  # the final ballots in group
    for poll_id in log.poll_ids():
        day = utc_day(log.registry[poll_id].deploy_timestamp)
        poll_counts[day] = poll_counts.get(day, 0) + 1
        group[poll_id] = ballots[poll_id] = final_ballots(log, poll_id, rule=ballot_rule)
        grouped += len(group[poll_id])
        if grouped >= MEASURE_BALLOTS:
            polls += _measure_polls(log, group, order_rule)
            group, grouped = {}, 0
    polls += _measure_polls(log, group, order_rule)
    return BallotPass(log=log, ballots=ballots, polls=polls, poll_counts=poll_counts)


def daily_from_pass(passed: BallotPass, daily_gini_mode: str = "mle") -> list[DailyMetrics]:
    """Aggregate a pass's poll metrics to the calendar days (UTC) that have
    measured polls, ascending.

    Voters and total votes are summed over the day's polls (the total
    exactly, over the day's ballots); the share, order and speed measures
    are averaged; the Gini column follows ``daily_gini_mode``. The pooled
    modes sum each voter's ballots of the day, in first-seen voter order.
    ``fill_calendar`` adds the days between.
    """
    if daily_gini_mode not in DAILY_GINI_MODES:
        raise ValueError(f"unknown daily gini mode: {daily_gini_mode!r}")

    per_day: dict[date, list[PollMetrics]] = {}
    for pm in passed.polls:
        per_day.setdefault(pm.day, []).append(pm)
    log, weights = passed.log, passed.log.weights
    rows_out: list[DailyMetrics] = []
    for day in sorted(per_day):
        polls = per_day[day]
        n = len(polls)
        # the day's ballots: those of its measured polls, in poll and ballot order
        rows = np.concatenate([passed.ballots[p.poll_id] for p in polls])
        weight = log.weight[rows]
        if daily_gini_mode == "mean_of_polls":
            gini = sum(p.gini for p in polls) / n
        else:
            # each voter's total of the day, the voters in first-seen order
            voter = log.voter[rows]
            grouped = np.argsort(voter, kind="stable")
            runs = run_starts(voter[grouped])
            pooled = np.add.reduceat(weights.units[weight[grouped]], runs)[np.argsort(grouped[runs])]
            totals = weights.to_floats(pooled[pooled > 0])
            gini = daily_gini(totals) if daily_gini_mode == "mle" else gini_mean_difference(totals)
        rows_out.append(
            DailyMetrics(
                day=day,
                poll_count=passed.poll_counts[day],
                voters=sum(p.voters for p in polls),
                total_votes=weights.total(weights.units[weight].sum(), weights.exponents[weight].min()),
                largest_share=sum(p.largest_share for p in polls) / n,
                largest_share_win=sum(p.largest_share_win for p in polls) / n,
                order=sum(p.order for p in polls) / n,
                speed=sum(p.speed_seconds for p in polls) / n,
                gini=gini,
            )
        )
    return rows_out


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
