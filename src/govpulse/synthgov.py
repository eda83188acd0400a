"""Seeded synthetic governance histories and factor panels.

The generator substitutes for the unavailable production export. Holdings
are drawn from a Pareto II (Lomax) distribution with configurable tail index
via a stratified inverse-CDF draw, so every generated pool carries the tail
of the distribution. Turnout can be tilted towards large holders
(``turnout_tilt``), which is what pushes per-poll concentration into the
empirically observed range; the mean participation probability across the
pool always equals ``participation_rate``.

Factor panels are planted linear models over the computed daily measures.
With a confound, ``gen_panel`` shares it between the emitted factor and a proxy
measure and provides an instrument correlated with the measure but not the
confound, which is the data-generating process the 2SLS diagnostics are
tested against.
"""

from __future__ import annotations

import json
import math
from array import array
from contextlib import suppress
from dataclasses import asdict, dataclass, field, fields
from datetime import date, datetime, timezone
from decimal import Decimal
from pathlib import Path

import numpy as np

from govpulse.centrality import DailyMetrics
from govpulse.econ import zscore
from govpulse.factorlab import measures_from_daily
from govpulse.govdata import (
    MAX_TIMESTAMP,
    FactorPanel,
    PollRecord,
    Series,
    ValidationReport,
    VoteColumns,
    VoteLog,
)

# The planted instrument is INSTRUMENT_STRENGTH times the z-scored
# INSTRUMENT_MEASURE plus Gaussian noise of standard deviation INSTRUMENT_NOISE.
INSTRUMENT_MEASURE = "Voters"
INSTRUMENT_STRENGTH = 1.0
INSTRUMENT_NOISE = 0.5
# The most polls one day may draw: every poll a day draws is held in memory.
MAX_POLLS_PER_DAY = 10_000
# The largest pool and the most options a poll may have. The generator holds
# about 240 bytes per voter before any vote (a holding, an address and a
# weight) and about 175 bytes per option of each poll, so a pool at the bound
# takes about 240 MB, and 637 polls (the default 91 days) at the bound 110 MB.
MAX_VOTER_POOL = 1_000_000
MAX_OPTIONS_PER_POLL = 1_000


# The number of parameters each distribution kind takes.
DIST_ARITY = {"constant": 1, "poisson": 1, "uniform": 2, "exponential": 1}


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


@dataclass(frozen=True)
class DistSpec:
    """A tiny distribution spec: constant, poisson, uniform or exponential.
    A spec the generator cannot draw from is refused when it is built."""

    kind: str
    params: tuple[float, ...]

    def __post_init__(self) -> None:
        if self.kind not in DIST_ARITY:
            raise ValueError(f"unknown distribution kind: {self.kind!r}")
        arity = DIST_ARITY[self.kind]
        if len(self.params) != arity:
            raise ValueError(f"{self.kind} takes {arity} parameter{'s' * (arity > 1)}, got {len(self.params)}")
        if self.kind in ("poisson", "exponential") and self.params[0] < 0:
            raise ValueError(f"{self.kind} parameter must not be negative, got {self.params[0]}")
        if self.kind == "uniform" and self.params[1] < self.params[0]:
            raise ValueError(f"uniform high bound must not be below its low bound, got {list(self.params)}")

    def sample(self, rng: np.random.Generator) -> float:
        if self.kind == "constant":
            return self.params[0]
        if self.kind == "poisson":
            return float(rng.poisson(self.params[0]))
        if self.kind == "uniform":
            lo, hi = self.params
            return float(rng.uniform(lo, hi))
        return float(rng.exponential(self.params[0]))

    @classmethod
    def parse(cls, raw) -> "DistSpec":
        """A spec from a number (a constant) or a [kind, parameter, ...] list."""
        if isinstance(raw, DistSpec):
            return raw
        if _is_number(raw):
            return cls("constant", (float(raw),))
        if not (isinstance(raw, (list, tuple)) and raw and isinstance(raw[0], str) and all(map(_is_number, raw[1:]))):
            raise ValueError(f"not a number or a [kind, parameter, ...] list: {raw!r}")
        kind, *params = raw
        return cls(kind, tuple(float(p) for p in params))


@dataclass
class SynthConfig:
    """Parameters of the synthetic governance history. A value of the wrong
    type is refused by name, never converted."""

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
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "int" and (not isinstance(value, int) or isinstance(value, bool)):
                raise ValueError(f"{f.name} must be an int, got {value!r}")
            if f.type == "float" and not _is_number(value):
                raise ValueError(f"{f.name} must be a number, got {value!r}")
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value}")
            if f.type == "DistSpec":
                try:
                    value = DistSpec.parse(value)
                except ValueError as exc:
                    raise ValueError(f"{f.name}: {exc}") from None
                if not all(map(math.isfinite, value.params)):
                    raise ValueError(f"{f.name} parameters must be finite, got {list(value.params)}")
                setattr(self, f.name, value)
        if isinstance(self.start_day, str):  # as JSON gives it
            with suppress(ValueError):
                self.start_day = date.fromisoformat(self.start_day)
        if type(self.start_day) is not date:
            raise ValueError(f"start_day must be an ISO date, got {self.start_day!r}")
        for name in ("participation_rate", "revision_rate", "largest_wins_prob"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        if self.holdings_alpha <= 1.0:
            raise ValueError("holdings_alpha must be greater than 1")
        if not self.holdings_scale > 0.0:
            raise ValueError(f"holdings_scale must be positive, got {self.holdings_scale}")
        if self.days < 1:
            raise ValueError(f"days must be at least 1, got {self.days}")
        last = date.max.toordinal() - self.start_day.toordinal() + 1
        if self.days > last:
            raise ValueError(f"days must be at most {last} to end by {date.max}, got {self.days}")
        if self.options_per_poll < 2:
            raise ValueError(f"options_per_poll must be at least 2, got {self.options_per_poll}")
        if self.options_per_poll > MAX_OPTIONS_PER_POLL:
            raise ValueError(f"options_per_poll must be at most {MAX_OPTIONS_PER_POLL}, got {self.options_per_poll}")
        if self.voter_pool < 1:
            raise ValueError("voter_pool must be at least 1")
        if self.voter_pool > MAX_VOTER_POOL:
            raise ValueError(f"voter_pool must be at most {MAX_VOTER_POOL}, got {self.voter_pool}")
        if self.seed < 0:
            raise ValueError(f"seed must not be negative, got {self.seed}")

    @classmethod
    def from_json(cls, path: str | Path) -> "SynthConfig":
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
        return cls.from_dict(raw)

    @classmethod
    def from_dict(cls, raw: dict) -> "SynthConfig":
        unknown = sorted(set(raw) - {f.name for f in fields(cls)})
        if unknown:
            raise ValueError(f"unknown synth config fields: {', '.join(unknown)}")
        return cls(**raw)

    def to_dict(self) -> dict:
        return {
            **asdict(self),
            "polls_per_day": [self.polls_per_day.kind, *self.polls_per_day.params],
            "vote_delay": [self.vote_delay.kind, *self.vote_delay.params],
            "start_day": self.start_day.isoformat(),
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
    win with probability ``largest_wins_prob`` (by moving other voters onto
    or off the target option), otherwise forced to lose; an infeasible loss
    (the largest voter outweighs everyone else combined) is kept as a win and
    flagged in the log's validation report. Raises ValueError when a poll
    would deploy, or a vote fall, outside ``1..MAX_TIMESTAMP`` (the loader
    skips such a row), or when a day draws more than ``MAX_POLLS_PER_DAY``
    polls.
    """
    rng = np.random.default_rng(config.seed)
    holdings = lomax_pool(rng, config.voter_pool, config.holdings_alpha, config.holdings_scale)
    probs = turnout_probabilities(holdings, config.participation_rate, config.turnout_tilt)
    weights = [_weight_decimal(h) for h in holdings]
    addresses = [_address(i + 1) for i in range(config.voter_pool)]
    option_ids = list(range(1, config.options_per_poll + 1))

    start = int(
        datetime(
            config.start_day.year, config.start_day.month, config.start_day.day,
            tzinfo=timezone.utc,
        ).timestamp()
    )
    report = ValidationReport()
    # poll id, voter, option, weight and timestamp of each vote, in draw
    # order; the voter's pool index indexes both its address and its weight
    votes = array("q")
    registry: dict[int, PollRecord] = {}
    poll_id = 0
    for day_index in range(config.days):
        polls_today = int(round(config.polls_per_day.sample(rng)))
        if polls_today > MAX_POLLS_PER_DAY:
            raise ValueError(f"polls_per_day drew {polls_today} polls for day {day_index}, over {MAX_POLLS_PER_DAY}")
        for _ in range(max(0, polls_today)):
            poll_id += 1
            deploy = start + day_index * 86400 + int(rng.integers(0, 43200))
            if not 1 <= deploy <= MAX_TIMESTAMP:
                raise ValueError(f"poll {poll_id} would deploy at {deploy}, outside 1..{MAX_TIMESTAMP}")
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
            choices = rng.integers(0, config.options_per_poll, size=participants.size) + 1
            held = holdings[participants]
            force_win = bool(rng.random() < config.largest_wins_prob)
            _force_outcome(choices, held, int(np.argmax(held)), force_win, report, poll_id)
            for i, option in zip(participants.tolist(), choices.tolist()):
                final_offset = max(1, int(config.vote_delay.sample(rng)))
                final_ts = deploy + final_offset
                if final_ts > MAX_TIMESTAMP:  # an earlier record lies between deploy and final_ts
                    raise ValueError(f"poll {poll_id} would get a vote at {final_ts}, after {MAX_TIMESTAMP}")
                if rng.random() < config.revision_rate:
                    other = [o for o in option_ids if o != option]
                    early_option = other[int(rng.integers(0, len(other)))]
                    early_ts = deploy + max(1, int(final_offset * rng.random()))
                    if early_ts >= final_ts:
                        early_ts = final_ts - 1
                    if early_ts > deploy:
                        votes.extend((poll_id, i, early_option, i, early_ts))
                votes.extend((poll_id, i, option, i, final_ts))
    table = np.frombuffer(votes, np.int64).reshape(-1, 5).T.copy()
    return VoteLog(VoteColumns.of_table(table, addresses, weights), registry, {}, report)


def _force_outcome(
    choices: np.ndarray,
    holdings: np.ndarray,
    largest: int,
    force_win: bool,
    report: ValidationReport,
    poll_id: int,
) -> None:
    """Reassign other voters' options in place until the largest voter's
    option wins (``force_win``) or loses.

    ``choices`` holds each participant's option id and ``holdings`` its
    weight, both in voter order; ``largest`` is the largest voter's position.
    Each option total sums its voters in voter order from 0.0, and a tie
    goes to the smallest option id.
    """
    target = choices[largest]
    order = np.argsort(holdings, kind="stable")
    order = order[order != largest]
    if force_win:
        # Move the smallest other voters onto the target until it wins.
        moves, option = order, target
    elif choices.size == 1:
        report.add("forced win (infeasible loss)", f"poll {poll_id}: single voter")
        return
    else:
        # Move the heaviest other voters (of equal holdings, the later voter
        # first) onto the rival, the smallest other option id, until the
        # target loses.
        moves, option = order[::-1], (2 if target == 1 else 1)
    for voter in moves:
        if (np.bincount(choices, weights=holdings)[1:].argmax() + 1 == target) == force_win:
            return
        choices[voter] = option
    if not force_win and np.bincount(choices, weights=holdings)[1:].argmax() + 1 == target:
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


def gen_panel(
    metrics: list[DailyMetrics], factors: list[FactorPlan], seed: int, confound: float | None = None
) -> tuple[FactorPanel, Series | None]:
    """Plant ``factors`` over the daily measures and emit the instrument
    series; returns the panel and the proxy measure (None without a confound).

    With ``confound``, a shared standard normal confound enters the proxy of
    ``INSTRUMENT_MEASURE`` and every planted factor with that loading, while
    the instrument tracks only the clean measure: the proxy is what the 2SLS
    tests regress against. Each series is filled as columns on the days of
    the measures; a later plan for the same key replaces an earlier one.
    """
    if not metrics:
        raise ValueError("metrics must be non-empty")
    rng = np.random.default_rng(seed)
    measures = measures_from_daily(metrics)
    days = measures[INSTRUMENT_MEASURE].days
    standardized = {name: zscore(series.data) for name, series in measures.items()}
    n = len(days)

    shared = rng.standard_normal(n) if confound is not None else None
    base = standardized[INSTRUMENT_MEASURE]
    instrument_values = INSTRUMENT_STRENGTH * base + INSTRUMENT_NOISE * rng.standard_normal(n)
    proxy = base + confound * shared if confound is not None else None

    series: dict[tuple[str, str, str], Series] = {}
    for fp in factors:
        values = np.full(n, fp.intercept, dtype=float)
        for name, loading in fp.loadings.items():
            regressor = proxy if proxy is not None and name == INSTRUMENT_MEASURE else standardized[name]
            values = values + loading * regressor
        if confound is not None:
            values = values + confound * shared
        values = values + fp.noise_std * rng.standard_normal(n)
        series[(fp.token, fp.category, fp.factor)] = Series(days, values)

    panel = FactorPanel(series, Series(days, instrument_values))
    return panel, (Series(days, proxy) if proxy is not None else None)
