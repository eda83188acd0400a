"""Canonical data model and CSV ingestion for DAO voting histories.

File formats
------------
votes.csv       poll_id,voter,option_id,weight,timestamp
polls.csv       poll_id,deploy_timestamp,title,options,abstain_options
                (options are ``id:label`` pairs joined by ``|``)
identities.csv  address,name
factors.csv     date,token,category,factor,value   (date = YYYY-MM-DD)

Timestamps are unix seconds or ISO-8601 UTC; a vote or poll row whose
timestamp is at or before the epoch (<= 0) is skipped as malformed. Vote
weights are parsed as fixed-point decimals and summed in ``EXACT``, so totals
are exact and bit-stable across platforms; they are converted to binary floats
only inside the statistics layer. Each distinct weight text is parsed and
checked once per load, and equal texts share one exact ``Decimal``. The off-chain instrument is one date-keyed
series, the rows of category ``instrument`` whatever their token.
"""

from __future__ import annotations

import csv
import math
import os
import tempfile
from collections import defaultdict
from collections.abc import Callable, Iterable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass, field
from datetime import date, datetime, timezone
from decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, Context, Decimal, InvalidOperation, localcontext
from operator import attrgetter
from pathlib import Path
from types import SimpleNamespace
from typing import IO


class SchemaError(ValueError):
    """A file header does not match the expected schema."""


VOTES_HEADER = ["poll_id", "voter", "option_id", "weight", "timestamp"]
POLLS_HEADER = ["poll_id", "deploy_timestamp", "title", "options", "abstain_options"]
IDENTITIES_HEADER = ["address", "name"]
FACTORS_HEADER = ["date", "token", "category", "factor", "value"]

REGRESSION_CATEGORIES = ("financial", "transaction", "exchange", "network", "sentiment")
INSTRUMENT_CATEGORY = "instrument"
INSTRUMENT_FACTOR = "offchain_voters"
INSTRUMENT_TOKEN = "ALL"  # the token column written for instrument rows
FACTOR_CATEGORIES = REGRESSION_CATEGORIES + (INSTRUMENT_CATEGORY,)

# Vote weights are summed in this context: with the largest precision and
# exponent range decimal allows, a sum of weights is never rounded.
EXACT = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN)
# A weight's last digit may not lie further right than this, which bounds the
# digits of every exact sum (a zero weight such as 0E-999999999 would
# otherwise carry a billion zeros into it).
MAX_WEIGHT_PLACES = 1000


def exact_sum(values: Iterable[Decimal]) -> Decimal:
    """Sum of decimal vote weights or totals, never rounded."""
    with localcontext(EXACT):
        return sum(values, Decimal(0))


@dataclass(frozen=True)
class VoteEvent:
    """One weighted ballot action recorded in a poll's history."""

    poll_id: int
    voter: str
    option_id: int
    weight: Decimal
    timestamp: int


@dataclass(frozen=True)
class PollRecord:
    """A governance poll: deployment time, options, optional labelling."""

    poll_id: int
    deploy_timestamp: int
    options: tuple[tuple[int, str], ...] = ()
    abstain_option_ids: frozenset[int] = frozenset()
    title: str = ""


@dataclass(frozen=True)
class Anomaly:
    kind: str
    detail: str


@dataclass
class ValidationReport:
    """The anomaly list produced by ingestion or a full scan (``validate_dataset``)."""

    anomalies: list[Anomaly] = field(default_factory=list)

    def add(self, kind: str, detail: str) -> None:
        self.anomalies.append(Anomaly(kind=kind, detail=detail))

    def counts_by_kind(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for a in self.anomalies:
            out[a.kind] = out.get(a.kind, 0) + 1
        return out


class VoteLog:
    """Immutable container for a parsed voting history.

    Events are stored sorted by (timestamp, input order); every event's
    poll_id resolves in the registry (ValueError otherwise).
    """

    def __init__(
        self,
        events: list[VoteEvent],
        registry: dict[int, PollRecord],
        identities: dict[str, str] | None = None,
        report: ValidationReport | None = None,
    ) -> None:
        unknown = sorted({e.poll_id for e in events} - registry.keys())
        if unknown:
            raise ValueError(f"events reference polls not in the registry: {unknown}")
        self.events: tuple[VoteEvent, ...] = tuple(sorted(events, key=attrgetter("timestamp")))
        self.registry: dict[int, PollRecord] = dict(registry)
        self.identities: dict[str, str] = dict(identities or {})
        self.report: ValidationReport = report or ValidationReport()
        by_poll: dict[int, list[VoteEvent]] = {}
        for ev in self.events:
            by_poll.setdefault(ev.poll_id, []).append(ev)
        self._by_poll: dict[int, tuple[VoteEvent, ...]] = {k: tuple(v) for k, v in by_poll.items()}

    def poll_events(self, poll_id: int) -> tuple[VoteEvent, ...]:
        """Chronological event history of one poll (empty when no votes)."""
        return self._by_poll.get(poll_id, ())

    def poll_ids(self) -> list[int]:
        return sorted(self.registry)

    def voters(self) -> set[str]:
        return {e.voter for e in self.events}


class FactorPanel:
    """Factor values: one date-keyed series per (token, category, factor),
    and the one date-keyed instrument series."""

    def __init__(self) -> None:
        self.series: dict[tuple[str, str, str], dict[date, float]] = {}
        self.instrument: dict[date, float] = {}
        self.anomalies: list[Anomaly] = []

    def series_for(self, token: str, category: str, factor: str) -> dict[date, float]:
        """The series a (token, category, factor) cell lands in, made empty
        if it is new: ``instrument`` for every instrument row."""
        if category == INSTRUMENT_CATEGORY:
            return self.instrument
        return self.series.setdefault((token, category, factor), {})

    def put(self, day: date, token: str, category: str, factor: str, value: float) -> None:
        """Store one value; a second value for the same cell is flagged and
        the last one wins. Every instrument row lands in ``instrument``."""
        series = self.series_for(token, category, factor)
        if day in series:
            self.anomalies.append(Anomaly(
                "duplicate factor cell", f"{day.isoformat()}/{token}/{category}/{factor}: last value wins"
            ))
        series[day] = value

    def __len__(self) -> int:
        return len(self.instrument) + sum(len(series) for series in self.series.values())


# Unix seconds of the first and the last second that have a UTC date.
MIN_TIMESTAMP = int(datetime(1, 1, 1, tzinfo=timezone.utc).timestamp())
MAX_TIMESTAMP = int(datetime(9999, 12, 31, 23, 59, 59, tzinfo=timezone.utc).timestamp())


def parse_timestamp(raw: str) -> int:
    """Parse unix seconds or ISO-8601 UTC into unix seconds.

    Raises ValueError for a non-finite number and for a time outside the
    representable UTC dates (years 1 to 9999).
    """
    text = raw.strip()
    try:
        seconds = int(text)
    except ValueError:
        try:
            value = float(text)
        except ValueError:
            dt = datetime.fromisoformat(text.replace("Z", "+00:00"))
            if dt.tzinfo is None:
                dt = dt.replace(tzinfo=timezone.utc)
            value = dt.timestamp()
        if not math.isfinite(value):
            raise ValueError(f"non-finite timestamp {text!r}")
        seconds = int(value)
    if not MIN_TIMESTAMP <= seconds <= MAX_TIMESTAMP:
        raise ValueError(f"timestamp {text!r} has no representable UTC date")
    return seconds


def _read_rows(
    path: str | Path, expected_header: list[str], bad_kind: str, anomalies: list[Anomaly]
) -> Iterator[tuple[int, list[str]]]:
    """The non-blank data rows of a CSV file, each with the physical line it
    starts on and its fields in header order, padded or cut to the header's
    width (a short row's parse then fails downstream). A row the CSV reader
    cannot read (such as a field over its size limit) or that holds a byte
    that is not UTF-8 is appended to ``anomalies`` as ``bad_kind`` and
    skipped. A missing file or a header other than ``expected_header``
    raises."""
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


def _parse_options(text: str) -> tuple[tuple[int, str], ...]:
    text = text.strip()
    if not text:
        return ()
    out = []
    for chunk in text.split("|"):
        opt_id, _, label = chunk.partition(":")
        out.append((int(opt_id), label))
    return tuple(out)


def load_polls(path: str | Path, report: ValidationReport) -> dict[int, PollRecord]:
    registry: dict[int, PollRecord] = {}
    rows = _read_rows(path, POLLS_HEADER, "bad poll row", report.anomalies)
    for lineno, (poll_text, deploy_text, title, options_text, abstain_text) in rows:
        try:
            poll_id = int(poll_text)
            deploy = parse_timestamp(deploy_text)
            options = _parse_options(options_text)
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
            poll_id=poll_id,
            deploy_timestamp=deploy,
            options=options,
            abstain_option_ids=abstain,
            title=title,
        )
    return registry


def load_identities(path: str | Path, report: ValidationReport) -> dict[str, str]:
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


def _parse_weight(text: str) -> Decimal | str:
    """The exact ``Decimal`` of a raw weight field, or the text of the error
    that rejects it: not a decimal, not finite (as a decimal or as a float),
    or a last digit more than ``MAX_WEIGHT_PLACES`` places right of the
    point."""
    try:
        try:
            weight = Decimal(text.strip())
        except InvalidOperation:
            raise ValueError(f"weight {text!r} is not a decimal number") from None
        if not (weight.is_finite() and math.isfinite(float(weight))):
            raise ValueError(f"non-finite weight {text!r}")
        if weight.as_tuple().exponent < -MAX_WEIGHT_PLACES:
            raise ValueError(f"weight {text!r} has over {MAX_WEIGHT_PLACES} decimal places")
    except (ValueError, ArithmeticError) as exc:
        return str(exc)
    return weight


def load_vote_log(
    votes_path: str | Path,
    polls_path: str | Path,
    identities_path: str | Path | None = None,
) -> VoteLog:
    """Load the votes/polls/identities exports into a VoteLog.

    Malformed rows are skipped and recorded as anomalies attached to the
    result; missing files and malformed headers raise. Each distinct weight
    text is parsed and checked once, and the events that carry it share its
    one ``Decimal``; each distinct voter field is normalized once. Every row
    still gets every check, so a repeated fault gives one anomaly per line.
    """
    report = ValidationReport()
    registry = load_polls(polls_path, report)
    identities = load_identities(identities_path, report) if identities_path else {}

    events: list[VoteEvent] = []
    weights: dict[str, Decimal | str] = {}  # raw weight text -> _parse_weight of it
    voters: dict[str, str] = {}  # raw voter field -> its address
    rows = _read_rows(votes_path, VOTES_HEADER, "bad vote row", report.anomalies)
    for lineno, (poll_text, voter_text, option_text, weight_text, stamp) in rows:
        try:
            poll_id = int(poll_text)
            voter = voters.get(voter_text)
            if voter is None:
                voter = voters[voter_text] = voter_text.strip().lower()
            option_id = int(option_text)
            weight = weights.get(weight_text)
            if weight is None:
                weight = weights[weight_text] = _parse_weight(weight_text)
            if isinstance(weight, str):
                raise ValueError(weight)
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
        events.append(VoteEvent(poll_id, voter, option_id, weight, timestamp))
    return VoteLog(events, registry, identities, report)


def _factor_date(text: str) -> date | None:
    """The date of a YYYY-MM-DD string; None for any other text (3.11's
    ``fromisoformat`` also reads 20210301)."""
    try:
        day = date.fromisoformat(text)
    except ValueError:
        return None
    return day if day.isoformat() == text else None


# Where the rows of one factor key go: its "token/category/factor" label,
# the (kind, text) of the anomaly each of them gets or None, and the series
# they land in, or None when they are skipped.
FactorTarget = tuple[str, tuple[str, str] | None, dict[date, float] | None]


def _factor_target(panel: FactorPanel, token: str, category: str, factor: str) -> FactorTarget:
    """The target of a stripped (token, category, factor) in ``panel``. A
    category outside ``FACTOR_CATEGORIES`` or a factor the catalogue does not
    list is flagged and kept, except an unknown instrument factor, which is
    skipped: there is one instrument series."""
    from govpulse.factorlab import is_known_factor

    flag, kept = None, True
    if category not in FACTOR_CATEGORIES:
        flag = ("unknown category", repr(category))
    elif not is_known_factor(token, category, factor):
        kept = category != INSTRUMENT_CATEGORY
        flag = ("unknown factor", f"{token}/{factor} {'kept, flagged' if kept else 'skipped'}")
    series = panel.series_for(token, category, factor) if kept else None
    return f"{token}/{category}/{factor}", flag, series


def load_factors(path: str | Path) -> FactorPanel:
    """Load the long-format factor export; duplicates last-win with anomaly.

    Each distinct date text is parsed once per file. Each distinct raw
    (token, category, factor) triple is stripped, checked against the
    categories and the catalogue, and resolved to the series it lands in
    once per file; every row still gets every check, in the same order."""
    panel = FactorPanel()
    days: dict[str, date | None] = {}
    targets: dict[tuple[str, str, str], FactorTarget] = {}  # raw key fields -> _factor_target of them
    rows = _read_rows(path, FACTORS_HEADER, "bad factor row", panel.anomalies)
    for lineno, (date_text, token, category, factor, value_text) in rows:
        if date_text not in days:
            days[date_text] = _factor_date(date_text.strip())
        day = days[date_text]
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
        target = targets.get((token, category, factor))
        if target is None:
            target = _factor_target(panel, token.strip(), category.strip(), factor.strip())
            targets[token, category, factor] = target
        label, flag, series = target
        if flag is not None:
            panel.anomalies.append(Anomaly(flag[0], f"line {lineno}: {flag[1]}"))
        if series is None:
            continue
        if day in series:
            panel.anomalies.append(Anomaly(
                "duplicate factor cell", f"{day.isoformat()}/{label}: last value wins"
            ))
        series[day] = value
    return panel


def final_ballots(log: VoteLog, poll_id: int, rule: str = "last") -> list[VoteEvent]:
    """One counted ballot per voter for a poll: the voter's own ``VoteEvent``.

    ``rule="last"`` counts a voter's final record (portal semantics);
    ``rule="first"`` counts the first. Output is sorted by weight descending
    (compared exactly, never rounded) with ties broken by timestamp
    ascending, then address: two stable sorts, the tie-breakers first.
    """
    if rule not in ("last", "first"):
        raise ValueError(f"unknown ballot rule: {rule!r}")
    if poll_id not in log.registry:
        raise KeyError(f"poll {poll_id} not in registry")
    counted: dict[str, VoteEvent] = {}
    for event in log.poll_events(poll_id):
        if rule == "last" or event.voter not in counted:
            counted[event.voter] = event
    ballots = sorted(counted.values(), key=attrgetter("timestamp", "voter"))
    ballots.sort(key=attrgetter("weight"), reverse=True)
    return ballots


def validate_dataset(log: VoteLog) -> ValidationReport:
    """Full anomaly scan of a loaded log (report-only, deterministic order)."""
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


@contextmanager
def atomic_open(path: str | Path) -> Iterator[IO[str]]:
    """A text handle on a temp file beside ``path``, renamed over ``path``
    when the block ends; when the block raises, the temp file is removed and
    ``path`` is left as it was."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    handle = tempfile.NamedTemporaryFile(
        "w", encoding="utf-8", newline="", dir=path.parent, prefix=f".{path.name}.", delete=False
    )
    try:
        with handle:
            yield handle
        os.replace(handle.name, path)
    except BaseException:
        Path(handle.name).unlink(missing_ok=True)
        raise


def write_vote_log(
    log: VoteLog,
    votes_path: str | Path,
    polls_path: str | Path,
    identities_path: str | Path | None = None,
) -> None:
    """Serialize a VoteLog back to the CSV schemas (round-trip safe)."""
    with atomic_open(votes_path) as handle:
        writer = csv.writer(handle)
        writer.writerow(VOTES_HEADER)
        for event in log.events:
            writer.writerow(
                [event.poll_id, event.voter, event.option_id, str(event.weight), event.timestamp]
            )
    with atomic_open(polls_path) as handle:
        writer = csv.writer(handle)
        writer.writerow(POLLS_HEADER)
        for poll in sorted(log.registry.values(), key=lambda p: p.poll_id):
            options = "|".join(f"{oid}:{label}" for oid, label in poll.options)
            abstain = "|".join(str(oid) for oid in sorted(poll.abstain_option_ids))
            writer.writerow([poll.poll_id, poll.deploy_timestamp, poll.title, options, abstain])
    if identities_path is not None:
        with atomic_open(identities_path) as handle:
            writer = csv.writer(handle)
            writer.writerow(IDENTITIES_HEADER)
            for address in sorted(log.identities):
                writer.writerow([address, log.identities[address]])


def write_rows(write: Callable[[str], object], rows: Iterable[Iterable], end: str) -> None:
    """Render each row as a CSV line ending in ``end`` and pass it to
    ``write``. csv quotes only a field that holds a character of its
    terminator, so the lines are rendered ending in "\\r\\n" (a field holding
    a lone "\\r" or "\\n" is quoted) and each line's "\\r\\n" is replaced by
    ``end``."""
    lines = SimpleNamespace(write=lambda line: write(line[:-2] + end))
    csv.writer(lines, lineterminator="\r\n").writerows(rows)


def factor_rows(
    series: dict[tuple[str, str, str], dict[date, float]], instrument: dict[date, float], lineterminator: str
) -> Iterator[str]:
    """The lines of the factors.csv schema, the header first, then the data
    sorted by date, token, category and factor; the instrument is written
    under ``INSTRUMENT_TOKEN``.

    Each line is the row ``[date, token, category, factor, repr(value)]`` as
    ``write_rows`` renders it, ending in ``lineterminator``. Each key's
    ``token,category,factor`` is rendered once, and each date's text once.
    No row is built and no cell is sorted: the only state held is one
    reference per cell, grouped by date."""
    keyed = {**series, (INSTRUMENT_TOKEN, INSTRUMENT_CATEGORY, INSTRUMENT_FACTOR): instrument}
    keys = sorted(keyed)
    rendered: list[str] = []
    write_rows(rendered.append, [FACTORS_HEADER, *keys], "")
    header, *prefixes = rendered
    yield header + lineterminator
    # date -> (prefix, series) of each key with a cell that day, in key order;
    # grouping keeps a sparse panel's cost at its cells, not days x keys
    by_day: defaultdict[date, list[tuple[str, dict[date, float]]]] = defaultdict(list)
    for prefix, key in zip(prefixes, keys):
        entry = (prefix, keyed[key])
        for day in entry[1]:
            by_day[day].append(entry)
    for day in sorted(by_day):
        text = day.isoformat()
        for prefix, values in by_day[day]:
            yield f"{text},{prefix},{values[day]!r}{lineterminator}"


def write_factors(panel: FactorPanel, path: str | Path) -> None:
    """Serialize a FactorPanel to the long-format factors schema, streamed
    row by row, each line ending in csv's default ``\\r\\n``."""
    with atomic_open(path) as handle:
        handle.writelines(factor_rows(panel.series, panel.instrument, "\r\n"))
