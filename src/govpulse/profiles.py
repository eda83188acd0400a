"""Descriptive statistics over polls and voters.

Profiles aggregate each voter's counted ballots into participation counts,
vote totals and the single largest ballot; poll descriptives summarize the
per-poll totals, breakdown quantities and largest-voter columns. Breakdown
votes/voters are the final-ballot quantities on non-abstain options, a
configured proxy (the source quantity has no published definition).
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from datetime import date
from decimal import Decimal, localcontext

from govpulse.centrality import BallotPass, PollMetrics, utc_day
from govpulse.govdata import EXACT

RANK_CRITERIA = ("involved_polls", "total_votes", "highest_single_vote")


@dataclass(frozen=True)
class VoterProfile:
    address: str
    identity: str
    involved_polls: int
    total_votes: Decimal
    first_poll: int
    highest_single_vote: Decimal
    first_date: date


@dataclass(frozen=True)
class SummaryStats:
    """Mean/median/max/min and sample standard deviation of one column. The
    deviation of a column holding a non-finite value is nan; finite values
    whose sums overflow are described divided by the largest magnitude."""

    mean: float
    median: float
    maximum: float
    minimum: float
    std: float
    n: int

    @classmethod
    def describe(cls, values: list[float]) -> "SummaryStats":
        if not values:
            raise ValueError("cannot describe an empty column")
        try:
            mean = statistics.fmean(values)
            std = (
                float("nan") if not all(map(math.isfinite, values))
                else statistics.stdev(values) if len(values) > 1 else 0.0
            )
        except OverflowError:  # finite values whose float sums overflow: describe them scaled
            top = max(map(abs, values))
            scaled = cls.describe([v / top for v in values])
            mean, std = scaled.mean * top, scaled.std * top
        return cls(
            mean=mean,
            median=statistics.median(values),
            maximum=max(values),
            minimum=min(values),
            std=std,
            n=len(values),
        )


POLL_DESCRIPTIVE_COLUMNS = (
    "total_votes",
    "total_voters",
    "breakdown_votes",
    "breakdown_ratio",
    "breakdown_voters",
    "largest_votes",
    "largest_share",
)

VOTER_DESCRIPTIVE_COLUMNS = (
    "involved_polls",
    "total_votes",
    "first_poll",
    "highest_single_vote",
)


def describe_polls(metrics: list[PollMetrics]) -> dict[str, SummaryStats]:
    """Summary statistics across polls for the seven described columns.

    Breakdown columns follow the configured abstain-exclusion rule and are
    labelled "definition: configured" in rendered output.
    """
    if not metrics:
        raise ValueError("no polls with ballots to describe")
    columns: dict[str, list[float]] = {
        "total_votes": [float(m.total_votes) for m in metrics],
        "total_voters": [float(m.voters) for m in metrics],
        "breakdown_votes": [float(m.breakdown_votes) for m in metrics],
        "breakdown_ratio": [m.breakdown_ratio for m in metrics],
        "breakdown_voters": [float(m.breakdown_voters) for m in metrics],
        "largest_votes": [float(m.largest_votes) for m in metrics],
        "largest_share": [m.largest_share for m in metrics],
    }
    return {name: SummaryStats.describe(values) for name, values in columns.items()}


def profiles_from_pass(passed: BallotPass, identities: dict[str, str]) -> list[VoterProfile]:
    """One profile per unique address, totals over the pass's final ballots."""
    involved: dict[str, int] = {}
    totals: dict[str, Decimal] = {}
    first_poll: dict[str, int] = {}
    highest: dict[str, Decimal] = {}
    first_ts: dict[str, int] = {}
    with localcontext(EXACT):
        for poll_id, ballots in passed.ballots.items():  # ascending poll id
            for ballot in ballots:
                address = ballot.voter
                involved[address] = involved.get(address, 0) + 1
                totals[address] = totals.get(address, Decimal(0)) + ballot.weight
                first_poll.setdefault(address, poll_id)
                if address not in highest or ballot.weight > highest[address]:
                    highest[address] = ballot.weight
                if address not in first_ts or ballot.timestamp < first_ts[address]:
                    first_ts[address] = ballot.timestamp
    return [
        VoterProfile(
            address=address,
            identity=identities.get(address, ""),
            involved_polls=involved[address],
            total_votes=totals[address],
            first_poll=first_poll[address],
            highest_single_vote=highest[address],
            first_date=utc_day(first_ts[address]),
        )
        for address in sorted(involved)
    ]


def voter_descriptives(profiles: list[VoterProfile]) -> dict[str, SummaryStats]:
    """Summary statistics across voter profiles."""
    if not profiles:
        raise ValueError("no voter profiles to describe")
    columns = {
        "involved_polls": [float(p.involved_polls) for p in profiles],
        "total_votes": [float(p.total_votes) for p in profiles],
        "first_poll": [float(p.first_poll) for p in profiles],
        "highest_single_vote": [float(p.highest_single_vote) for p in profiles],
    }
    return {name: SummaryStats.describe(values) for name, values in columns.items()}


def rank_voters(
    profiles: list[VoterProfile], criterion: str, n: int
) -> list[VoterProfile]:
    """Top-n profiles by a criterion, ties broken by address ascending."""
    if criterion not in RANK_CRITERIA:
        raise ValueError(f"unknown ranking criterion: {criterion!r}")
    if n < 1:
        raise ValueError("n must be at least 1")
    ordered = sorted(profiles, key=lambda p: (-getattr(p, criterion), p.address))
    return ordered[:n]
