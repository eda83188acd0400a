"""Governance-centralization analytics for token-voted DAOs.

Ingests poll voting histories and factor panels from CSV exports, computes
per-poll and daily centralization measures (participation, voting-power
concentration, decision speed), and relates them to protocol factor series
through univariate OLS and instrumented 2SLS regressions with endogeneity
diagnostics.
"""

__version__ = "0.1.0"

from govpulse.govdata import (
    FinalBallot,
    PollRecord,
    ValidationReport,
    VoteEvent,
    VoteLog,
    final_ballots,
    load_factors,
    load_vote_log,
    validate_dataset,
    winning_option,
)
from govpulse.centrality import (
    DailyMetrics,
    PollMetrics,
    daily_gini,
    largest_voter_stats,
    lorenz_points,
    poll_gini,
    poll_participation,
    poll_speed,
)
from govpulse.econ import IvFit, OlsFit, endogeneity_tests, ols, two_sls

__all__ = [
    "DailyMetrics",
    "FinalBallot",
    "IvFit",
    "OlsFit",
    "PollMetrics",
    "PollRecord",
    "ValidationReport",
    "VoteEvent",
    "VoteLog",
    "daily_gini",
    "endogeneity_tests",
    "final_ballots",
    "largest_voter_stats",
    "load_factors",
    "load_vote_log",
    "lorenz_points",
    "ols",
    "poll_gini",
    "poll_participation",
    "poll_speed",
    "two_sls",
    "validate_dataset",
    "winning_option",
]
