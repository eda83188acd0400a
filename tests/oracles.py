"""Reference implementations the tests check the package against."""

from __future__ import annotations

import csv
import math
import unicodedata
from collections.abc import Iterator, Mapping
from dataclasses import dataclass, field
from datetime import date
from decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, Context, Decimal, InvalidOperation, localcontext
from fractions import Fraction
from pathlib import Path

import numpy as np

from govpulse.centrality import PollMetrics, gini_mean_difference, utc_day
from govpulse.govdata import (
    FACTOR_CATEGORIES,
    FACTORS_HEADER,
    IDENTITIES_HEADER,
    INSTRUMENT_CATEGORY,
    INSTRUMENT_FACTOR,
    INSTRUMENT_TOKEN,
    MAX_WEIGHT_PLACES,
    POLLS_HEADER,
    VOTES_HEADER,
    Anomaly,
    PollRecord,
    SchemaError,
    ValidationReport,
    VoteColumns,
    VoteEvent,
    VoteLog,
    atomic_open,
    is_known_factor,
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


def lstsq_oracle(design, y) -> np.ndarray:
    """Least-squares coefficients of one y on a design by ``np.linalg.lstsq``,
    solved again with each column divided by its largest magnitude when
    lstsq finds the design rank-deficient: the one-row solve whose bits a
    batched solve must give every row. Test oracle."""
    coef, _, rank, _ = np.linalg.lstsq(design, y, rcond=None)
    if rank < design.shape[1]:
        scale = np.abs(design).max(axis=0)
        coef = np.linalg.lstsq(design / scale, y, rcond=None)[0] / scale
    return coef


def two_sls_oracle(y, x, z) -> tuple[float, float]:
    """Closed-form univariate 2SLS with intercept: beta1 = S_zy / S_zx, and
    se1 from the residuals against the actual regressor over the fitted
    regressor's centred sum of squares S_zx^2 / S_zz. Test oracle."""
    y, x, z = (np.asarray(v, dtype=float) for v in (y, x, z))
    dz = z - z.mean()
    s_zx = float((dz * (x - x.mean())).sum())
    if s_zx == 0.0:
        raise ValueError("instrument uncorrelated with the regressor")
    beta1 = float((dz * (y - y.mean())).sum()) / s_zx
    resid = y - (float(y.mean()) - beta1 * float(x.mean())) - beta1 * x
    sigma2 = float((resid * resid).sum()) / (y.size - 2)
    return beta1, math.sqrt(sigma2 * float((dz * dz).sum()) / (s_zx * s_zx))


def durbin_wu_hausman_oracle(y, x, z) -> tuple[float, float]:
    """The Durbin and Wu-Hausman statistics of x's exogeneity, computed
    exactly in ``Fraction``s from the float inputs: RSS_r of y on (1, x),
    RSS_u of y on (1, x, vhat) with vhat the residuals of x on (1, z),
    Durbin n (RSS_r - RSS_u) / RSS_r and Wu-Hausman (n - 3) (RSS_r -
    RSS_u) / RSS_u, each rounded once to a float. Test oracle."""
    y, x, z = ([Fraction(v) for v in np.asarray(col, dtype=float).tolist()] for col in (y, x, z))
    n = len(y)

    def centred(col):
        mean = sum(col) / n
        return [v - mean for v in col]

    def dot(u, v):
        return sum(a * b for a, b in zip(u, v))

    dy, dx, dz = centred(y), centred(x), centred(z)
    slope = dot(dz, dx) / dot(dz, dz)
    vhat = [a - slope * b for a, b in zip(dx, dz)]  # centred, as dx and dz are
    sxx, sxv, svv = dot(dx, dx), dot(dx, vhat), dot(vhat, vhat)
    sxy, svy, syy = dot(dx, dy), dot(vhat, dy), dot(dy, dy)
    rss_r = syy - sxy * sxy / sxx
    det = sxx * svv - sxv * sxv  # y on (x, vhat), centred: the 2x2 normal equations
    rss_u = syy - (svv * sxy * sxy - 2 * sxv * sxy * svy + sxx * svy * svy) / det
    return float(n * (rss_r - rss_u) / rss_r), float((n - 3) * (rss_r - rss_u) / rss_u)


def zscore_oracle(values) -> np.ndarray:
    """Values less their mean over their sample standard deviation (0 for
    one value), or less their mean where that deviation is 0; values whose
    squares overflow are divided by their largest magnitude first. The 1-D
    z-score whose bits each row of a batch must have. Test oracle."""
    arr = np.asarray(values, dtype=float)
    if not np.isfinite(arr).all():
        raise ValueError("non-finite value")
    with np.errstate(over="ignore", invalid="ignore"):
        sd = float(arr.std(ddof=1)) if arr.size > 1 else 0.0
    if not math.isfinite(sd):
        return zscore_oracle(arr / np.abs(arr).max())
    if sd == 0.0:
        return arr - arr.mean()
    return (arr - arr.mean()) / sd


def _read_rows(
    path: str | Path, expected_header: list[str], bad_kind: str, anomalies: list[Anomaly]
) -> Iterator[tuple[int, list[str]]]:
    """The non-blank data rows of a CSV file, each with the physical line it
    starts on and its fields in header order, padded or cut to the header's
    width (a short row's parse then fails downstream). A row the CSV reader
    cannot read (such as a field over its size limit) or that holds a byte
    that is not UTF-8 is appended to ``anomalies`` as ``bad_kind`` and
    skipped. A missing file or a header other than ``expected_header``
    raises. The reference row reader of the oracles below. Test oracle."""
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"input file not found: {path}")
    with path.open("r", encoding="utf-8", errors="surrogateescape", newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError(f"{path}: empty file, expected header {expected_header}")
        except csv.Error as exc:
            raise SchemaError(f"{path}: unreadable header: {exc}") from None
        header = [h.strip() for h in header]
        if header != expected_header:
            raise SchemaError(f"{path}: header {header} does not match {expected_header}")
        width = len(expected_header)
        while True:
            lineno = reader.line_num + 1
            try:
                raw = next(reader)
            except StopIteration:
                return
            except csv.Error as exc:
                anomalies.append(Anomaly(bad_kind, f"line {lineno}: {exc}"))
                continue
            text = "".join(raw)
            if not text.strip():  # a blank row
                continue
            if not text.isascii():
                try:
                    text.encode("utf-8")  # an undecodable byte was read as a lone surrogate
                except UnicodeEncodeError:
                    anomalies.append(Anomaly(bad_kind, f"line {lineno}: a byte that is not UTF-8"))
                    continue
            if len(raw) != width:
                raw = (raw + [""] * width)[:width]
            yield lineno, raw


def _poll_options(text: str) -> tuple[tuple[int, str], ...]:
    """The (id, label) pairs of a polls.csv options field."""
    chunks = text.strip().split("|") if text.strip() else []
    return tuple((int(oid), label) for oid, _, label in (chunk.partition(":") for chunk in chunks))


def load_polls_oracle(path, report: ValidationReport) -> dict[int, PollRecord]:
    """The per-row poll loader over ``_read_rows``, each anomaly appended to
    ``report`` as it is found. Test oracle."""
    registry: dict[int, PollRecord] = {}
    rows = _read_rows(path, POLLS_HEADER, "bad poll row", report.anomalies)
    for lineno, (poll_text, deploy_text, title, options_text, abstain_text) in rows:
        try:
            poll_id = int(poll_text)
            deploy = parse_timestamp(deploy_text)
            options = _poll_options(options_text)
            abstain = frozenset(int(x) for x in abstain_text.strip().split("|") if x.strip())
        except (ValueError, InvalidOperation) as exc:
            report.add("bad poll row", f"line {lineno}: {exc}")
            continue
        if poll_id <= 0 or deploy <= 0:
            report.add("bad poll row", f"line {lineno}: non-positive poll_id or deploy timestamp")
            continue
        option_ids = [oid for oid, _ in options]
        if len(option_ids) != len(set(option_ids)):
            report.add("duplicate option ids", f"poll {poll_id}")
        if poll_id in registry:
            report.add("duplicate poll id", f"poll {poll_id}: last row wins")
        registry[poll_id] = PollRecord(
            poll_id=poll_id, deploy_timestamp=deploy, options=options, abstain_option_ids=abstain, title=title
        )
    return registry


def load_identities_oracle(path, report: ValidationReport) -> dict[str, str]:
    """The per-row identity loader over ``_read_rows``. Test oracle."""
    identities: dict[str, str] = {}
    for lineno, (address, name) in _read_rows(path, IDENTITIES_HEADER, "bad identity row", report.anomalies):
        address = address.strip().lower()
        if not address:
            report.add("bad identity row", f"line {lineno}: empty address")
            continue
        if address in identities:
            report.add("duplicate identity", f"{address}: last row wins")
        identities[address] = name.strip()
    return identities


def columns_of(events) -> VoteColumns:
    """The ``VoteColumns`` of ``VoteEvent``s in input order, with one weight
    entry per event."""
    names = sorted({event.voter for event in events})
    index = {name: i for i, name in enumerate(names)}
    rows = [(e.poll_id, index[e.voter], e.option_id, i, e.timestamp) for i, e in enumerate(events)]
    table = np.array(rows, dtype=np.int64).reshape(-1, 5).T.copy()
    return VoteColumns.of_table(table, names, [event.weight for event in events])


def poll_events(log: VoteLog, poll_id: int) -> tuple[VoteEvent, ...]:
    """Chronological event history of one poll (empty when no votes)."""
    start, stop = log.poll_rows.span.get(poll_id, (0, 0))
    return tuple(log.events[row] for row in log.poll_rows.rows[start:stop].tolist())


def load_vote_events_oracle(votes_path, polls_path, identities_path=None) -> tuple[list[VoteEvent], list[Anomaly]]:
    """The per-row vote loader: every row parses and checks its own weight
    and address. Returns the events in ``VoteLog`` order, sorted by
    (timestamp, input index), and the anomaly list. Test oracle."""
    report = ValidationReport()
    registry = load_polls_oracle(polls_path, report)
    if identities_path:
        load_identities_oracle(identities_path, report)
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
    for event in poll_events(log, poll_id):
        if rule == "last" or event.voter not in counted:
            counted[event.voter] = event
    return sorted(counted.values(), key=lambda e: (e.weight.copy_negate(), e.timestamp, e.voter))


@dataclass
class DictPanel:
    """A factor panel held as dicts: one date-keyed dict per (token,
    category, factor), in the order of its first kept row, and the one
    instrument dict. Test oracle."""

    series: dict[tuple[str, str, str], dict[date, float]] = field(default_factory=dict)
    instrument: dict[date, float] = field(default_factory=dict)
    anomalies: list[Anomaly] = field(default_factory=list)

    def put(self, day: date, token: str, category: str, factor: str, value: float) -> None:
        """Store one value; a second value for the same cell is flagged and
        the last one wins. Every instrument row lands in ``instrument``."""
        cells = self.instrument if category == INSTRUMENT_CATEGORY else self.series.setdefault(
            (token, category, factor), {})
        if day in cells:
            self.anomalies.append(Anomaly(
                "duplicate factor cell", f"{day.isoformat()}/{token}/{category}/{factor}: last value wins"
            ))
        cells[day] = value

    def __len__(self) -> int:
        return len(self.instrument) + sum(len(series) for series in self.series.values())


def _factor_date(text: str) -> date | None:
    """The date of a YYYY-MM-DD string; None for any other text."""
    try:
        day = date.fromisoformat(text)
    except ValueError:
        return None
    return day if day.isoformat() == text else None


def is_token_name_oracle(token: str) -> bool:
    """A token that can name a file: not empty, with no path separator of
    either kind and no control character (Unicode category Cc)."""
    return token != "" and not any(ch in "/\\" or unicodedata.category(ch) == "Cc" for ch in token)


def load_factors_oracle(path) -> DictPanel:
    """The per-row factor loader: every row strips its own key, checks its
    token (outside the instrument), its category and catalogue entry and
    stores its value through ``DictPanel.put``. Test oracle."""
    panel = DictPanel()
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
        if category != INSTRUMENT_CATEGORY and not is_token_name_oracle(token):
            panel.anomalies.append(Anomaly("bad factor token", f"line {lineno}: {token!r} skipped"))
            continue
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
    series: Mapping[tuple[str, str, str], Mapping[date, float]], instrument: Mapping[date, float]
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
