"""Reference implementations the tests check the package against."""

from __future__ import annotations

import csv
import math
from collections.abc import Iterator
from datetime import date
from decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, Context, Decimal, InvalidOperation, localcontext

import numpy as np

from govpulse.centrality import PollMetrics, gini_mean_difference, utc_day
from govpulse.factorlab import is_known_factor
from govpulse.govdata import (
    FACTOR_CATEGORIES,
    FACTORS_HEADER,
    INSTRUMENT_CATEGORY,
    INSTRUMENT_FACTOR,
    INSTRUMENT_TOKEN,
    MAX_WEIGHT_PLACES,
    VOTES_HEADER,
    Anomaly,
    FactorPanel,
    PollRecord,
    ValidationReport,
    VoteEvent,
    VoteLog,
    _factor_date,
    _read_rows,
    atomic_open,
    load_identities,
    load_polls,
    parse_timestamp,
)


# The largest precision and exponent range decimal allows: a sum of vote
# weights in this context is never rounded.
EXACT = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN)


def exact_sum_oracle(values) -> Decimal:
    """Sum of decimal weights or totals started at ``Decimal(0)`` in
    ``EXACT``, so never rounded. Test oracle."""
    with localcontext(EXACT):
        return sum(values, Decimal(0))


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


def load_vote_events_oracle(votes_path, polls_path, identities_path=None) -> tuple[list[VoteEvent], list[Anomaly]]:
    """The per-row vote loader: every row parses and checks its own weight
    and address. Returns the events in ``VoteLog`` order, sorted by
    (timestamp, input index), and the anomaly list. Test oracle."""
    report = ValidationReport()
    registry = load_polls(polls_path, report)
    if identities_path:
        load_identities(identities_path, report)
    events: list[VoteEvent] = []
    rows = _read_rows(votes_path, VOTES_HEADER, "bad vote row", report.anomalies)
    for lineno, (poll_text, voter, option_text, weight_text, stamp) in rows:
        try:
            poll_id = int(poll_text)
            voter = voter.strip().lower()
            option_id = int(option_text)
            try:
                weight = Decimal(weight_text.strip())
            except InvalidOperation:
                raise ValueError(f"weight {weight_text!r} is not a decimal number") from None
            if not (weight.is_finite() and math.isfinite(float(weight))):
                raise ValueError(f"non-finite weight {weight_text!r}")
            if weight.as_tuple().exponent < -MAX_WEIGHT_PLACES:
                raise ValueError(f"weight {weight_text!r} has over {MAX_WEIGHT_PLACES} decimal places")
            timestamp = parse_timestamp(stamp)
        except (ValueError, ArithmeticError) as exc:
            report.add("bad vote row", f"line {lineno}: {exc}")
            continue
        if not voter:
            report.add("bad vote row", f"line {lineno}: empty voter address")
            continue
        if timestamp <= 0:
            report.add("bad vote row", f"line {lineno}: non-positive timestamp")
            continue
        if weight < 0:
            report.add("negative weight", f"line {lineno}: poll {poll_id}, voter {voter}")
            continue
        if poll_id not in registry:
            report.add("unknown poll", f"line {lineno}: poll {poll_id} not in registry")
            continue
        out_of_range = [(name, value) for name, value in (("poll_id", poll_id), ("option_id", option_id))
                        if not -(2**63) <= value < 2**63]
        if out_of_range:
            report.add("bad vote row", "line {}: {} {} does not fit in 64 bits".format(lineno, *out_of_range[0]))
            continue
        events.append(VoteEvent(poll_id=poll_id, voter=voter, option_id=option_id, weight=weight, timestamp=timestamp))
    decorated = sorted((e.timestamp, i) for i, e in enumerate(events))
    return [events[i] for _, i in decorated], report.anomalies


def pooled_voter_totals_oracle(ballots: list[VoteEvent]) -> np.ndarray:
    """Each voter's exact summed weight over the ballots, as floats in
    first-seen voter order, positive totals only. Test oracle."""
    totals: dict[str, Decimal] = {}
    with localcontext(EXACT):
        for ballot in ballots:
            totals[ballot.voter] = totals.get(ballot.voter, Decimal(0)) + ballot.weight
    return np.array([float(v) for v in totals.values() if v > 0], dtype=float)


def measure_poll_oracle(
    poll: PollRecord, ballots: list[VoteEvent], history: tuple[VoteEvent, ...], order_rule: str
) -> PollMetrics | None:
    """One poll's measures from its final ballots (``VoteEvent``s, largest
    first) and its chronological history, each sum an exact ``Decimal``
    sum; None when the ballots carry no positive weight. Test oracle."""
    tally: dict[int, Decimal] = {}
    with localcontext(EXACT):
        for ballot in ballots:
            tally[ballot.option_id] = tally.get(ballot.option_id, Decimal(0)) + ballot.weight
    total = exact_sum_oracle(tally.values())
    if total <= 0:
        return None
    largest = ballots[0]
    share = float(largest.weight / total)
    best = max(tally.values())
    ifwin = 1 if largest.option_id == min(o for o, w in tally.items() if w == best) else 0
    records = [(i, e) for i, e in enumerate(history, start=1) if e.voter == largest.voter]
    index = max(i for i, e in records if e is largest) if order_rule == "last" else records[0][0]
    breakdown = exact_sum_oracle(w for o, w in tally.items() if o not in poll.abstain_option_ids)
    gaps = sum(max(0, b.timestamp - poll.deploy_timestamp) for b in ballots)
    return PollMetrics(
        poll_id=poll.poll_id,
        day=utc_day(poll.deploy_timestamp),
        total_votes=total,
        voters=len(ballots),
        gini=gini_mean_difference(np.array([float(b.weight) for b in ballots], dtype=float)),
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


def final_ballots_oracle(log: VoteLog, poll_id: int, rule: str) -> list[VoteEvent]:
    """Each voter's counted record, sorted on one key per event: the weight
    negated exactly, then the timestamp, then the address. Test oracle."""
    counted: dict[str, VoteEvent] = {}
    for event in log.poll_events(poll_id):
        if rule == "last" or event.voter not in counted:
            counted[event.voter] = event
    return sorted(counted.values(), key=lambda e: (e.weight.copy_negate(), e.timestamp, e.voter))


def load_factors_oracle(path) -> FactorPanel:
    """The per-row factor loader: every row strips its own key, checks its
    category and catalogue entry and stores its value through
    ``FactorPanel.put``. Test oracle."""
    panel = FactorPanel()
    rows = _read_rows(path, FACTORS_HEADER, "bad factor row", panel.anomalies)
    for lineno, (date_text, token, category, factor, value_text) in rows:
        day = _factor_date(date_text.strip())
        if day is None:
            panel.anomalies.append(Anomaly("bad factor date", f"line {lineno}: {date_text!r}"))
            continue
        try:
            value = float(value_text)
        except ValueError:
            panel.anomalies.append(Anomaly("bad factor value", f"line {lineno}: {value_text!r}"))
            continue
        if not math.isfinite(value):
            panel.anomalies.append(Anomaly("bad factor value", f"line {lineno}: non-finite, skipped"))
            continue
        token, category, factor = token.strip(), category.strip(), factor.strip()
        if category not in FACTOR_CATEGORIES:
            panel.anomalies.append(Anomaly("unknown category", f"line {lineno}: {category!r}"))
        elif not is_known_factor(token, category, factor):
            if category == INSTRUMENT_CATEGORY:
                panel.anomalies.append(Anomaly("unknown factor", f"line {lineno}: {token}/{factor} skipped"))
                continue
            panel.anomalies.append(Anomaly("unknown factor", f"line {lineno}: {token}/{factor} kept, flagged"))
        panel.put(day, token, category, factor, value)
    return panel


def factor_rows_oracle(
    series: dict[tuple[str, str, str], dict[date, float]], instrument: dict[date, float]
) -> Iterator[list[str]]:
    """Rows of the factors.csv schema, every cell sorted at once by date,
    token, category and factor; the instrument under ``INSTRUMENT_TOKEN``.
    Test oracle."""
    keyed = {**series, (INSTRUMENT_TOKEN, INSTRUMENT_CATEGORY, INSTRUMENT_FACTOR): instrument}
    cells = sorted((day, *key, value) for key, values in keyed.items() for day, value in values.items())
    return ([day.isoformat(), token, category, factor, repr(value)] for day, token, category, factor, value in cells)


def validate_dataset_oracle(log: VoteLog) -> ValidationReport:
    """The event-by-event anomaly scan: each ``VoteEvent`` gets the four
    checks in turn, then each poll's abstain ids are checked. Test oracle."""
    report = ValidationReport()
    listed = {poll_id: {oid for oid, _ in poll.options} for poll_id, poll in log.registry.items()}
    seen_keys: set[tuple[int, str, int]] = set()
    for event in log.events:
        poll = log.registry[event.poll_id]
        if listed[event.poll_id] and event.option_id not in listed[event.poll_id]:
            report.add(
                "unknown option",
                f"poll {event.poll_id}, voter {event.voter}: option {event.option_id} not listed",
            )
        if event.timestamp < poll.deploy_timestamp:
            report.add(
                "pre-deploy vote",
                f"poll {event.poll_id}, voter {event.voter}: "
                f"{event.timestamp} < deploy {poll.deploy_timestamp}",
            )
        if event.weight == 0:
            report.add("zero weight", f"poll {event.poll_id}, voter {event.voter}")
        key = (event.poll_id, event.voter, event.timestamp)
        if key in seen_keys:
            report.add("duplicate key", f"poll {event.poll_id}, voter {event.voter}, t={event.timestamp}")
        seen_keys.add(key)
    for poll in sorted(log.registry.values(), key=lambda p: p.poll_id):
        unknown_abstain = poll.abstain_option_ids - listed[poll.poll_id]
        if poll.options and unknown_abstain:
            report.add("abstain id not an option", f"poll {poll.poll_id}: {sorted(unknown_abstain)}")
    return report


def write_votes_oracle(log: VoteLog, path) -> None:
    """The event-by-event ``votes.csv`` writer: one ``csv.writer`` row per
    ``VoteEvent``. Test oracle."""
    with atomic_open(path) as handle:
        writer = csv.writer(handle)
        writer.writerow(VOTES_HEADER)
        for event in log.events:
            writer.writerow([event.poll_id, event.voter, event.option_id, str(event.weight), event.timestamp])
