"""Seeded synthetic governance histories, factor panels and test oracles.

The generator substitutes for the unavailable production export. Holdings
are drawn from a Pareto II (Lomax) distribution with configurable tail index
via a stratified inverse-CDF draw, so every generated pool carries the tail
of the distribution. Turnout can be tilted towards large holders
(``turnout_tilt``), which is what pushes per-poll concentration into the
empirically observed range; the mean participation probability across the
pool always equals ``participation_rate``.

Factor panels are planted linear models over the computed daily measures.
The endogenous mode shares a confound between the emitted factor and a proxy
measure and provides an instrument correlated with the measure but not the
confound, which is the data-generating process the 2SLS diagnostics are
tested against.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from datetime import date, datetime, timezone
from decimal import Decimal
from pathlib import Path

import numpy as np

from govpulse.centrality import MEASURE_FIELDS, DailyMetrics
from govpulse.econ import zscore
from govpulse.factorlab import INSTRUMENT_FACTOR, INSTRUMENT_TOKEN
from govpulse.govdata import (
    FactorPanel,
    PollRecord,
    ValidationReport,
    VoteEvent,
    VoteLog,
)


@dataclass(frozen=True)
class DistSpec:
    """A tiny distribution spec: constant, poisson, uniform or exponential."""

    kind: str
    params: tuple[float, ...]

    def sample(self, rng: np.random.Generator) -> float:
        if self.kind == "constant":
            return self.params[0]
        if self.kind == "poisson":
            return float(rng.poisson(self.params[0]))
        if self.kind == "uniform":
            lo, hi = self.params
            return float(rng.uniform(lo, hi))
        if self.kind == "exponential":
            return float(rng.exponential(self.params[0]))
        raise ValueError(f"unknown distribution kind: {self.kind!r}")

    @classmethod
    def parse(cls, raw) -> "DistSpec":
        if isinstance(raw, DistSpec):
            return raw
        if isinstance(raw, (int, float)):
            return cls("constant", (float(raw),))
        kind, *params = raw
        return cls(str(kind), tuple(float(p) for p in params))


@dataclass
class SynthConfig:
    """Parameters of the synthetic governance history."""

    days: int = 91
    polls_per_day: DistSpec = field(default_factory=lambda: DistSpec("poisson", (7.0,)))
    voter_pool: int = 200
    holdings_alpha: float = 1.2
    holdings_scale: float = 300.0
    participation_rate: float = 0.125
    turnout_tilt: float = 0.4
    revision_rate: float = 0.1
    largest_wins_prob: float = 0.8
    vote_delay: DistSpec = field(default_factory=lambda: DistSpec("exponential", (240000.0,)))
    options_per_poll: int = 3
    start_day: date = date(2021, 1, 1)
    seed: int = 0

    def __post_init__(self) -> None:
        self.polls_per_day = DistSpec.parse(self.polls_per_day)
        self.vote_delay = DistSpec.parse(self.vote_delay)
        for name in ("participation_rate", "revision_rate", "largest_wins_prob"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        if self.holdings_alpha <= 1.0:
            raise ValueError("holdings_alpha must be greater than 1")
        if self.voter_pool < 1:
            raise ValueError("voter_pool must be at least 1")

    @classmethod
    def from_json(cls, path: str | Path) -> "SynthConfig":
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
        return cls.from_dict(raw)

    @classmethod
    def from_dict(cls, raw: dict) -> "SynthConfig":
        kwargs = dict(raw)
        if "start_day" in kwargs:
            kwargs["start_day"] = date.fromisoformat(kwargs["start_day"])
        return cls(**kwargs)

    def to_dict(self) -> dict:
        return {
            "days": self.days,
            "polls_per_day": [self.polls_per_day.kind, *self.polls_per_day.params],
            "voter_pool": self.voter_pool,
            "holdings_alpha": self.holdings_alpha,
            "holdings_scale": self.holdings_scale,
            "participation_rate": self.participation_rate,
            "turnout_tilt": self.turnout_tilt,
            "revision_rate": self.revision_rate,
            "largest_wins_prob": self.largest_wins_prob,
            "vote_delay": [self.vote_delay.kind, *self.vote_delay.params],
            "options_per_poll": self.options_per_poll,
            "start_day": self.start_day.isoformat(),
            "seed": self.seed,
        }


def lomax_pool(rng: np.random.Generator, size: int, alpha: float, scale: float) -> np.ndarray:
    """Stratified inverse-CDF Pareto II draw: one uniform per quantile stratum."""
    u = (np.arange(size) + rng.random(size)) / size
    holdings = ((1.0 - u) ** (-1.0 / alpha) - 1.0) * scale
    rng.shuffle(holdings)
    return holdings


def turnout_probabilities(holdings: np.ndarray, rate: float, tilt: float) -> np.ndarray:
    """Per-voter participation probabilities with mean ``rate``.

    Probabilities are proportional to holdings**tilt, renormalized after
    clipping at 1 so that the pool mean stays at ``rate``.
    """
    if rate >= 1.0:
        return np.ones_like(holdings)
    if rate <= 0.0:
        return np.zeros_like(holdings)
    weights = np.maximum(holdings, 1e-300) ** tilt
    probs = rate * weights / weights.mean()
    for _ in range(32):
        probs = np.clip(probs, 0.0, 1.0)
        gap = rate - float(probs.mean())
        if abs(gap) < 1e-12:
            break
        free = probs < 1.0
        if not free.any():
            break
        probs[free] += gap / float(free.mean())
    return np.clip(probs, 0.0, 1.0)


def _address(index: int) -> str:
    return f"0x{index:040x}"


def _weight_decimal(value: float) -> Decimal:
    return Decimal(f"{value:.18f}")


def gen_history(config: SynthConfig) -> VoteLog:
    """Deterministic synthetic voting history for the given config.

    Each voter votes their full holding; revisions insert an earlier record
    with a different option. The largest participant's option is forced to
    win with probability ``largest_wins_prob`` (by nudging small voters onto
    or off the target option), otherwise forced to lose; an infeasible loss
    (the largest voter outweighs everyone else combined) is kept as a win and
    flagged in the log's validation report.
    """
    rng = np.random.default_rng(config.seed)
    holdings = lomax_pool(rng, config.voter_pool, config.holdings_alpha, config.holdings_scale)
    probs = turnout_probabilities(holdings, config.participation_rate, config.turnout_tilt)
    weights = [_weight_decimal(h) for h in holdings]
    addresses = [_address(i + 1) for i in range(config.voter_pool)]
    n_options = max(2, config.options_per_poll)
    option_ids = list(range(1, n_options + 1))

    start = int(
        datetime(
            config.start_day.year, config.start_day.month, config.start_day.day,
            tzinfo=timezone.utc,
        ).timestamp()
    )
    report = ValidationReport()
    events: list[VoteEvent] = []
    registry: dict[int, PollRecord] = {}
    poll_id = 0
    for day_index in range(config.days):
        polls_today = int(round(config.polls_per_day.sample(rng)))
        for _ in range(max(0, polls_today)):
            poll_id += 1
            deploy = start + day_index * 86400 + int(rng.integers(0, 43200))
            registry[poll_id] = PollRecord(
                poll_id=poll_id,
                deploy_timestamp=deploy,
                options=tuple((oid, f"option {oid}") for oid in option_ids),
                abstain_option_ids=frozenset(),
                title=f"synthetic poll {poll_id}",
            )
            participants = np.flatnonzero(rng.random(config.voter_pool) < probs)
            if participants.size == 0:
                continue
            # One vector draw; the same stream as one rng.choice per voter.
            drawn = rng.integers(0, n_options, size=participants.size)
            choices = {
                int(i): option_ids[d] for i, d in zip(participants, drawn.tolist())
            }
            largest = int(max(participants, key=lambda i: holdings[i]))
            target = choices[largest]
            force_win = bool(rng.random() < config.largest_wins_prob)
            _force_outcome(
                choices, holdings, largest, target, force_win, option_ids, report, poll_id
            )
            for i in sorted(choices):
                final_offset = max(1, int(config.vote_delay.sample(rng)))
                final_ts = deploy + final_offset
                if rng.random() < config.revision_rate:
                    other = [o for o in option_ids if o != choices[i]]
                    early_option = int(rng.choice(other))
                    early_ts = deploy + max(1, int(final_offset * rng.random()))
                    if early_ts >= final_ts:
                        early_ts = final_ts - 1
                    if early_ts > deploy:
                        events.append(
                            VoteEvent(poll_id, addresses[i], early_option, weights[i], early_ts)
                        )
                events.append(
                    VoteEvent(poll_id, addresses[i], choices[i], weights[i], final_ts)
                )
    return VoteLog(events, registry, {}, report)


def _force_outcome(
    choices: dict[int, int],
    holdings: np.ndarray,
    largest: int,
    target: int,
    force_win: bool,
    option_ids: list[int],
    report: ValidationReport,
    poll_id: int,
) -> None:
    """Reassign small voters' options until the target wins or loses."""

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
        # Move the smallest rival voters onto the target until it wins.
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
    # Move the heaviest rival-side voters onto one rival option until the
    # target loses.
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


@dataclass(frozen=True)
class FactorPlan:
    """One planted factor: intercept + loadings on measures + noise."""

    token: str
    category: str
    factor: str
    intercept: float = 0.0
    loadings: dict[str, float] = field(default_factory=dict)
    noise_std: float = 1.0

    def __post_init__(self) -> None:
        if self.noise_std < 0.0:
            raise ValueError("noise_std must be non-negative")


@dataclass(frozen=True)
class EndogenousBlock:
    """Shared-confound block: gamma on the confound, instrument on the measure."""

    measure: str = "Voters"
    gamma: float = 0.8
    instrument_strength: float = 1.0
    instrument_noise: float = 0.5


@dataclass
class PanelPlan:
    factors: list[FactorPlan]
    endogenous: EndogenousBlock | None = None
    instrument_measure: str = "Voters"
    instrument_strength: float = 1.0
    instrument_noise: float = 0.5


@dataclass
class SynthPanelBundle:
    """Generated panel plus the raw series behind it."""

    panel: FactorPanel
    instrument: dict[date, float]
    proxy_measure: dict[date, float] | None


def gen_panel(metrics: list[DailyMetrics], plan: PanelPlan, seed: int) -> SynthPanelBundle:
    """Plant factors over the daily measures and emit the instrument series.

    In the endogenous mode, the bundle also carries the confounded proxy
    measure the 2SLS tests regress against: the confound enters both the
    proxy and every planted factor, while the instrument tracks only the
    clean measure.
    """
    if not metrics:
        raise ValueError("metrics must be non-empty")
    rng = np.random.default_rng(seed)
    rows = [m for m in metrics if not m.missing]
    days = [m.day for m in rows]
    standardized = {
        name: zscore([float(getattr(m, field)) for m in rows])
        for name, field in MEASURE_FIELDS.items()
    }
    n = len(days)

    endo = plan.endogenous
    confound = rng.standard_normal(n) if endo is not None else None
    proxy = None
    if endo is not None:
        base = standardized[endo.measure]
        instrument_values = (
            endo.instrument_strength * base
            + endo.instrument_noise * rng.standard_normal(n)
        )
        proxy = base + endo.gamma * confound
    else:
        base = standardized[plan.instrument_measure]
        instrument_values = (
            plan.instrument_strength * base
            + plan.instrument_noise * rng.standard_normal(n)
        )

    panel = FactorPanel()
    for fp in plan.factors:
        driver = {name: standardized[name] for name in fp.loadings}
        values = np.full(n, fp.intercept, dtype=float)
        for name, loading in fp.loadings.items():
            values = values + loading * (proxy if (endo and name == endo.measure) else driver[name])
        if endo is not None:
            values = values + endo.gamma * confound
        values = values + fp.noise_std * rng.standard_normal(n)
        for day, value in zip(days, values):
            panel.put(day, fp.token, fp.category, fp.factor, float(value))

    instrument: dict[date, float] = {}
    for day, value in zip(days, instrument_values):
        panel.put(day, INSTRUMENT_TOKEN, "instrument", INSTRUMENT_FACTOR, float(value))
        instrument[day] = float(value)

    return SynthPanelBundle(
        panel=panel,
        instrument=instrument,
        proxy_measure=dict(zip(days, proxy)) if proxy is not None else None,
    )


def gini_oracle(weights) -> float:
    """Sorted-rank Gini, G = (2 * sum i*x_(i)) / (n * sum x) - (n+1)/n.

    Test oracle; returns 0 for fewer than two weights.
    """
    values = np.sort(np.asarray(weights, dtype=float))
    n = values.size
    total = float(values.sum())
    if n < 2 or total <= 0.0:
        return 0.0
    ranks = np.arange(1, n + 1)
    return float((2.0 * (ranks * values).sum()) / (n * total) - (n + 1) / n)


def ols_oracle(y, x) -> tuple[float, float]:
    """Covariance-formula least squares, beta1 = S_xy / S_xx. Test oracle."""
    y = np.asarray(y, dtype=float)
    x = np.asarray(x, dtype=float)
    sxx = float(((x - x.mean()) ** 2).sum())
    if sxx == 0.0:
        raise ValueError("zero variance regressor")
    beta1 = float(((x - x.mean()) * (y - y.mean())).sum()) / sxx
    beta0 = float(y.mean()) - beta1 * float(x.mean())
    return beta0, beta1
