"""Governance-centralization analytics for token-voted DAOs.

Ingests poll voting histories and factor panels from CSV exports, computes
per-poll and daily centralization measures (participation, voting-power
concentration, decision speed), and relates them to protocol factor series
through univariate OLS and instrumented 2SLS regressions with endogeneity
diagnostics.
"""

__version__ = "0.1.0"

from govpulse.govdata import (
    PollRecord,
    ValidationReport,
    VoteEvent,
    VoteLog,
    final_ballots,
    load_factors,
    load_vote_log,
    validate_dataset,
)
from govpulse.centrality import (
    DailyMetrics,
    PollMetrics,
    daily_gini,
    lorenz_points,
    poll_gini,
)
from govpulse.econ import IvFit, OlsFit, endogeneity_tests, ols, two_sls

__all__ = [
    "DailyMetrics",
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
    "load_factors",
    "load_vote_log",
    "lorenz_points",
    "ols",
    "poll_gini",
    "two_sls",
    "validate_dataset",
]
