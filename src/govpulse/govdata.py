"""Canonical data model and CSV ingestion for DAO voting histories.

File formats
------------
votes.csv       poll_id,voter,option_id,weight,timestamp
polls.csv       poll_id,deploy_timestamp,title,options,abstain_options
                (options are ``id:label`` pairs joined by ``|``)
identities.csv  address,name
factors.csv     date,token,category,factor,value   (date = YYYY-MM-DD)

Timestamps are unix seconds or ISO-8601 UTC; a vote or poll row whose
timestamp is at or before the epoch (<= 0) is skipped as malformed. A vote
log is held as columns (``VoteColumns``): int64 poll, option and timestamp
columns, and indices into a table of distinct addresses and a table of
distinct weights (``Weights``). Each distinct weight text is parsed and
checked once per load, and equal texts share one exact ``Decimal``. Weights
are summed as Python ints in units of 10**e, where e is the smaller of 0 and
the smallest exponent among the log's weights, so every total is exact and
bit-stable across platforms; it is written as the ``Decimal`` an exact sum
started at ``Decimal(0)`` gives, and converted to a binary float only inside
the statistics layer. A vote row whose poll id or option id does not fit in
64 bits is skipped as malformed. A log is written back from its columns
(``write_vote_log``), and ``ingest``'s scan (``validate_dataset``) reads
them: neither builds a ``VoteEvent``.

``votes.csv`` is read in blocks of whole lines on a fast path when the whole
file is ASCII and holds no ``"``, no NUL, no carriage return outside a CRLF
line end and no line longer than ``csv.field_size_limit()``: each line is
then a row, and a row the fast path cannot judge (a wrong field count, a
blank line, an int field that is not plain digits, a timestamp that is not
plain digits, or any field that fails a check) goes through the same
per-row parse as every row of any other file, which the CSV reader reads.
Both paths give the same rows and anomalies. The off-chain instrument is
one date-keyed series, the rows of category ``instrument`` whatever their
token.
"""

from __future__ import annotations

import csv
import math
import os
import tempfile
from collections import defaultdict
from collections.abc import Callable, Iterable, Iterator, Sequence
from contextlib import contextmanager
from dataclasses import dataclass, field
from datetime import date, datetime, timezone
from decimal import Decimal, InvalidOperation
from functools import cached_property
from itertools import repeat
from operator import attrgetter
from pathlib import Path
from types import SimpleNamespace
from typing import IO, NamedTuple

import numpy as np


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

# A weight's last digit may not lie further right than this, which bounds the
# digits of every exact sum (a zero weight such as 0E-999999999 would
# otherwise carry a billion zeros into it).
MAX_WEIGHT_PLACES = 1000
# The ids and option ids of a vote row are held in int64 columns.
INT64_RANGE = range(-(2**63), 2**63)


@dataclass(frozen=True, slots=True)
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


def _digits(text: str) -> tuple[int, int]:
    """The signed coefficient and the exponent of a finite ``Decimal`` read
    from its ``str``: ``1.5E-7`` gives (15, -8) and ``-0.70`` gives (-70,
    -2). A weight the loader accepts has at most ``MAX_WEIGHT_PLACES``
    places and is below the float maximum, so its coefficient has about 1309
    digits, within the 4300 that ``int`` converts."""
    mantissa, _, exponent = text.partition("E")
    whole, _, fraction = mantissa.partition(".")
    return int(whole + fraction), int(exponent or 0) - len(fraction)


class Weights:
    """The distinct vote weights of a log, one entry per weight text (or per
    weight object, for a log built from events).

    ``exponent`` is the smaller of 0 and the smallest exponent among them.
    Each entry has its ``Decimal`` (for output), its exact int in units of
    10**exponent, its own exponent, its float and its rank: equal values,
    such as 1 and 1.0, share one rank, and a larger value has a larger rank.
    Every sum of weights is an int sum of units; ``total`` writes it as the
    ``Decimal`` an exact sum started at ``Decimal(0)`` would give.
    """

    def __init__(self, decimals: Sequence[Decimal]) -> None:
        self.decimals: tuple[Decimal, ...] = tuple(decimals)
        texts = list(map(str, self.decimals))
        digits = list(map(_digits, texts))
        self.exponents = np.array([exponent for _, exponent in digits], dtype=np.int64)
        self.exponent: int = min(0, int(self.exponents.min(initial=0)))
        self._scale = 10**-self.exponent
        units = [coefficient * 10 ** (exponent - self.exponent) for coefficient, exponent in digits]
        self.units = np.array(units, dtype=object)
        self.floats = np.array(list(map(float, texts)), dtype=float)  # float(d) is float(str(d))
        self.ranks = np.zeros(len(units), dtype=np.int64)
        ordered = sorted(range(len(units)), key=units.__getitem__)
        for before, index in zip(ordered, ordered[1:]):
            self.ranks[index] = self.ranks[before] + (units[index] != units[before])

    def total(self, units: int, exponent: int) -> Decimal:
        """The exact ``Decimal`` of a sum of ``units`` whose summands' smallest
        exponent is ``exponent``: its exponent is the smaller of 0 and that,
        as in ``Decimal(0) + ...``. Built from its digits, never rounded."""
        exponent = min(0, int(exponent))
        return Decimal(f"{units // 10 ** (exponent - self.exponent)}E{exponent}")

    def units_of(self, value: Decimal) -> int:
        """The exact int of a weight or total of this log in units of
        10**exponent, its coefficient read without a rounding context."""
        coefficient, exponent = _digits(str(value))
        return coefficient * 10 ** (exponent - self.exponent)

    def to_floats(self, units: Iterable[int]) -> np.ndarray:
        """Each sum of units as the float nearest its exact value (int true
        division rounds correctly); inf beyond the float range."""
        def nearest(value: int) -> float:
            try:
                return value / self._scale
            except OverflowError:
                return math.inf
        return np.array([nearest(value) for value in units], dtype=float)


class VoteColumns(NamedTuple):
    """Vote rows as columns, sorted by (timestamp, input order): int64
    ``poll_id``, ``option_id`` and ``timestamp``; ``voter`` indexes
    ``addresses`` (sorted, so the index is the address's rank) and
    ``weight`` indexes ``weights``."""

    poll_id: np.ndarray
    voter: np.ndarray
    option_id: np.ndarray
    weight: np.ndarray
    timestamp: np.ndarray
    addresses: tuple[str, ...]
    weights: Weights

    @classmethod
    def of_events(cls, events: Sequence[VoteEvent]) -> "VoteColumns":
        """The columns of events sorted by (timestamp, input order)."""
        n = len(events)
        voter, weight = attrgetter("voter"), attrgetter("weight")
        addresses = tuple(sorted(set(map(voter, events))))
        rank = {address: i for i, address in enumerate(addresses)}
        # one entry per weight object: equal texts share one Decimal when loaded
        objects = {id(w): w for w in map(weight, events)}
        slot = {key: i for i, key in enumerate(objects)}
        return cls(
            np.fromiter(map(attrgetter("poll_id"), events), np.int64, n),
            np.fromiter(map(rank.__getitem__, map(voter, events)), np.int64, n),
            np.fromiter(map(attrgetter("option_id"), events), np.int64, n),
            np.fromiter(map(slot.__getitem__, map(id, map(weight, events))), np.int64, n),
            np.fromiter(map(attrgetter("timestamp"), events), np.int64, n),
            addresses,
            Weights(list(objects.values())),
        )


class _EventView(Sequence):
    """``VoteLog.events``: the rows as ``VoteEvent``s, built on the first
    use of an element. Its length is the row count, which builds nothing."""

    def __init__(self, log: "VoteLog") -> None:
        self._log = log

    def __len__(self) -> int:
        return len(self._log.timestamp)

    def __getitem__(self, index):
        return self._log._event_tuple()[index]

    def __iter__(self) -> Iterator[VoteEvent]:
        return iter(self._log._event_tuple())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Sequence) or isinstance(other, str):
            return NotImplemented
        return tuple(self) == tuple(other)

    __hash__ = None  # type: ignore[assignment]


def run_starts(*columns: np.ndarray) -> np.ndarray:
    """Where each run of equal entries begins, the columns read together:
    an entry starts a run when it differs from the one before it in any
    column."""
    new = np.zeros(len(columns[0]), dtype=bool)
    new[:1] = True
    for column in columns:
        new[1:] |= column[1:] != column[:-1]
    return np.flatnonzero(new)


class _PollRows(NamedTuple):
    """The rows of each poll: ``rows`` holds the row indices grouped by
    poll, ascending (chronological) within one, and ``span`` maps a poll id
    to its slice of ``rows``."""

    rows: np.ndarray
    span: dict[int, tuple[int, int]]


class VoteLog:
    """Immutable container for a parsed voting history, held as columns.

    Rows are sorted by (timestamp, input order); every row's poll_id
    resolves in the registry (ValueError otherwise). A log is built from
    ``VoteEvent``s, which it keeps, or from the ``VoteColumns`` of the
    loader or the generator. ``events`` is the public ``VoteEvent`` view of
    the rows; a log built from columns builds it only when an element is
    read.
    """

    def __init__(
        self,
        events: Sequence[VoteEvent] | VoteColumns,
        registry: dict[int, PollRecord],
        identities: dict[str, str] | None = None,
        report: ValidationReport | None = None,
    ) -> None:
        if isinstance(events, VoteColumns):
            columns, self._events = events, None
        else:
            self._events = tuple(sorted(events, key=attrgetter("timestamp")))
            columns = VoteColumns.of_events(self._events)
        unknown = sorted(set(columns.poll_id.tolist()) - registry.keys())
        if unknown:
            raise ValueError(f"events reference polls not in the registry: {unknown}")
        self.poll_id, self.voter, self.option_id, self.weight, self.timestamp, self.addresses, self.weights = columns
        self.registry: dict[int, PollRecord] = dict(registry)
        self.identities: dict[str, str] = dict(identities or {})
        self.report: ValidationReport = report or ValidationReport()

    @property
    def events(self) -> Sequence[VoteEvent]:
        return _EventView(self)

    def _event_tuple(self) -> tuple[VoteEvent, ...]:
        if self._events is None:
            self._events = tuple(map(
                VoteEvent,
                self.poll_id.tolist(),
                map(self.addresses.__getitem__, self.voter.tolist()),
                self.option_id.tolist(),
                map(self.weights.decimals.__getitem__, self.weight.tolist()),
                self.timestamp.tolist(),
            ))
        return self._events

    @cached_property
    def poll_rows(self) -> _PollRows:
        rows = np.argsort(self.poll_id, kind="stable")
        starts = run_starts(self.poll_id[rows]).tolist()
        span = dict(zip(self.poll_id[rows[starts]].tolist(), zip(starts, [*starts[1:], len(rows)])))
        return _PollRows(rows, span)

    def poll_events(self, poll_id: int) -> tuple[VoteEvent, ...]:
        """Chronological event history of one poll (empty when no votes)."""
        index = self.poll_rows
        start, stop = index.span.get(poll_id, (0, 0))
        events = self._event_tuple()
        return tuple(events[row] for row in index.rows[start:stop].tolist())

    def poll_ids(self) -> list[int]:
        return sorted(self.registry)

    def voters(self) -> set[str]:
        return set(self.addresses)


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


class _VoteRows:
    """The vote rows read so far: the kept rows, as blocks of columns in file
    order, and the anomalies of the skipped ones. Each distinct voter field
    is normalized once and each distinct weight text parsed and checked
    once; every row still gets every check."""

    def __init__(self, registry: dict[int, PollRecord]) -> None:
        self.registry = registry
        self.anomalies: list[Anomaly] = []
        self.addresses: dict[str, int] = {}  # address -> its index, in first-seen order
        self.voter_fields: dict[str, int] = {}  # raw voter field -> address index, -1 when empty
        self.decimals: list[Decimal] = []
        self.weight_texts: dict[str, int | str] = {}  # raw weight text -> index into decimals, or its error
        # raw field -> its value on the fast path, -1 when the row must be parsed on its own
        self.poll_fields: dict[str, int] = {}
        self.option_fields: dict[str, int] = {}
        self.kept_weights: dict[str, int] = {}
        # kept rows in file order, as 5 x n int64 arrays of poll_id, voter,
        # option_id, weight and timestamp columns
        self.blocks: list[np.ndarray] = []
        # (line, poll_id, voter, option_id, weight, timestamp) of each row kept one by one
        self.rows: list[tuple[int, ...]] = []

    def voter_index(self, text: str) -> int:
        index = self.voter_fields.get(text)
        if index is None:
            address = text.strip().lower()
            index = self.addresses.setdefault(address, len(self.addresses)) if address else -1
            self.voter_fields[text] = index
        return index

    def weight_index(self, text: str) -> int | str:
        index = self.weight_texts.get(text)
        if index is None:
            weight = _parse_weight(text)
            if isinstance(weight, str):
                index = weight
            else:
                index = len(self.decimals)
                self.decimals.append(weight)
            self.weight_texts[text] = index
        return index

    def registered_poll(self, text: str) -> int:
        value = _plain_int(text)
        return value if value in self.registry else -1

    def kept_weight(self, text: str) -> int:
        index = self.weight_index(text)
        return -1 if isinstance(index, str) or self.decimals[index] < 0 else index

    def add(self, lineno: int, fields: list[str]) -> None:
        """The one per-row parse: keep the row of ``fields`` (poll, voter,
        option, weight and timestamp texts) or record why it is skipped."""
        poll_text, voter_text, option_text, weight_text, stamp = fields
        try:
            poll_id = int(poll_text)
            voter = self.voter_index(voter_text)
            option_id = int(option_text)
            weight = self.weight_index(weight_text)
            if isinstance(weight, str):
                raise ValueError(weight)
            timestamp = parse_timestamp(stamp)
        except (ValueError, ArithmeticError) as exc:
            self.anomalies.append(Anomaly("bad vote row", f"line {lineno}: {exc}"))
            return
        if voter < 0:
            self.anomalies.append(Anomaly("bad vote row", f"line {lineno}: empty voter address"))
        elif timestamp <= 0:
            self.anomalies.append(Anomaly("bad vote row", f"line {lineno}: non-positive timestamp"))
        elif self.decimals[weight] < 0:
            address = voter_text.strip().lower()
            self.anomalies.append(Anomaly("negative weight", f"line {lineno}: poll {poll_id}, voter {address}"))
        elif poll_id not in self.registry:
            self.anomalies.append(Anomaly("unknown poll", f"line {lineno}: poll {poll_id} not in registry"))
        elif poll_id not in INT64_RANGE or option_id not in INT64_RANGE:
            name, value = ("poll_id", poll_id) if poll_id not in INT64_RANGE else ("option_id", option_id)
            self.anomalies.append(Anomaly("bad vote row", f"line {lineno}: {name} {value} does not fit in 64 bits"))
        else:
            self.rows.append((lineno, poll_id, voter, option_id, weight, timestamp))

    def columns(self) -> VoteColumns:
        """The kept rows sorted by (timestamp, file order), their addresses
        sorted and their weights tabled; addresses and weights of skipped
        rows are dropped. The blocks are released as they are joined."""
        parts = [np.empty((5, 0), np.int64), *self.blocks]
        if self.rows:
            parts.append(np.array(self.rows, dtype=np.int64).T[1:])
        self.blocks, self.rows = [], []
        table = np.concatenate(parts, axis=1)
        del parts
        table = table[:, np.argsort(table[4], kind="stable")]
        poll_id, voter, option_id, weight, timestamp = table
        rank, addresses = address_ranks(list(self.addresses), voter)
        used_weights = np.flatnonzero(np.bincount(weight, minlength=len(self.decimals)))
        slot = np.zeros(len(self.decimals), dtype=np.int64)
        slot[used_weights] = np.arange(len(used_weights))
        return VoteColumns(
            poll_id, rank[voter], option_id, slot[weight], timestamp, addresses,
            Weights([self.decimals[i] for i in used_weights.tolist()]),
        )


def address_ranks(names: Sequence[str], voter: np.ndarray) -> tuple[np.ndarray, tuple[str, ...]]:
    """The names that ``voter`` indexes, sorted, and the rank among them of
    each index into ``names`` (0 for a name no row holds)."""
    used = np.flatnonzero(np.bincount(voter, minlength=len(names)))
    kept = sorted((names[i], i) for i in used.tolist())
    rank = np.zeros(len(names), dtype=np.int64)
    rank[[i for _, i in kept]] = np.arange(len(kept))
    return rank, tuple(name for name, _ in kept)


def _plain_int(text: str) -> int:
    """The value of a field of 1 to 18 digits, -1 for any other text."""
    return int(text) if len(text) <= 18 and text.isdigit() else -1


def _lookup(texts: list[str], known: dict[str, int], value: Callable[[str], int]) -> np.ndarray:
    """The int64 column of ``known[text]`` for each text, adding
    ``value(text)`` for each text not yet known, in first-seen order."""
    column = np.fromiter(map(known.get, texts, repeat(-2)), np.int64, len(texts))
    for i in np.flatnonzero(column == -2).tolist():
        if texts[i] not in known:
            known[texts[i]] = value(texts[i])
        column[i] = known[texts[i]]
    return column


def _plain_ints(texts: list[str]) -> np.ndarray:
    """The int64 column of ``_plain_int`` of each text, less the 18-digit
    bound when every text is digits and fits in int64."""
    if "".join(texts).isdigit():
        try:
            return np.fromiter(map(int, texts), np.int64, len(texts))
        except (ValueError, OverflowError):  # an empty text, or one beyond int64
            pass
    return np.fromiter(map(_plain_int, texts), np.int64, len(texts))


def _plain_text(data: bytes) -> bool:
    """Whether ``data`` is ASCII and holds no quote and no NUL."""
    return data.isascii() and b'"' not in data and b"\0" not in data


def _fast_block(data: bytes, lineno: int, rows: _VoteRows) -> int | None:
    """Read the lines of ``data`` (a block of whole lines, starting at line
    ``lineno``) into ``rows``; the next line number, or None when the block
    does not qualify for the fast path: it is not ``_plain_text``, or holds
    a carriage return outside a CRLF or a line longer than
    ``csv.field_size_limit()``.

    Each line is a row. A row of five fields whose poll, option and
    timestamp are plain digits, with a registered poll, a timestamp with a
    UTC date, an address and a non-negative weight is kept as a column
    entry; any other line goes through ``_VoteRows.add``, in line order."""
    if not _plain_text(data):
        return None
    if not data.endswith(b"\n"):
        data += b"\n"
    codes = np.frombuffer(data, np.uint8)
    ends = np.flatnonzero(codes == 10)
    crlf = np.count_nonzero(codes[ends[ends > 0] - 1] == 13)
    if np.count_nonzero(codes == 13) != crlf:
        return None
    if 0 < crlf < len(ends):  # mixed line ends
        data = data.replace(b"\r\n", b"\n")
        codes = np.frombuffer(data, np.uint8)
        ends, crlf = np.flatnonzero(codes == 10), 0
    if np.diff(ends, prepend=-1).max() - 1 > csv.field_size_limit():
        return None
    end = "\r\n" if crlf else "\n"
    whole = np.diff(np.searchsorted(np.flatnonzero(codes == 44), ends), prepend=0) == 4
    text = data.decode("ascii")
    lines = None if whole.all() else text.split(end)
    body = text if lines is None else "".join(line + end for line, ok in zip(lines, whole.tolist()) if ok)
    fields = body.replace(end, ",").split(",")[:-1]
    poll_id = _lookup(fields[0::5], rows.poll_fields, rows.registered_poll)
    voter = _lookup(fields[1::5], rows.voter_fields, rows.voter_index)
    option_id = _lookup(fields[2::5], rows.option_fields, _plain_int)
    weight = _lookup(fields[3::5], rows.kept_weights, rows.kept_weight)
    timestamp = _plain_ints(fields[4::5])
    kept = (poll_id >= 0) & (voter >= 0) & (option_id >= 0) & (weight >= 0)
    kept &= (timestamp > 0) & (timestamp <= MAX_TIMESTAMP)
    numbers = np.flatnonzero(whole)
    block = np.stack([numbers + lineno, poll_id, voter, option_id, weight, timestamp])[:, kept]
    # every other line, as the csv path reads it: a blank one is skipped, the
    # others are padded or cut to five fields
    slow = sorted([*numbers[~kept].tolist(), *np.flatnonzero(~whole).tolist()])
    field_of = np.cumsum(whole) - 1
    for line in slow:
        raw = fields[5 * field_of[line]:5 * field_of[line] + 5] if whole[line] else lines[line].split(",")
        if "".join(raw).strip():
            rows.add(lineno + line, (raw + [""] * 5)[:5])
    if rows.rows:  # into the block, in line order
        block = np.concatenate([block, np.array(rows.rows, dtype=np.int64).T], axis=1)
        block = block[:, np.argsort(block[0], kind="stable")]
        rows.rows.clear()
    rows.blocks.append(block[1:])
    return lineno + len(ends)


VOTE_BLOCK_BYTES = 1 << 18


def _fast_vote_rows(path: Path, registry: dict[int, PollRecord]) -> _VoteRows | None:
    """The rows of a votes file read in blocks of whole lines on the fast
    path (see ``_fast_block``), or None when the file does not qualify for
    it or its header is not the schema's; the CSV reader then reads it."""
    try:
        handle = path.open("rb")
    except OSError:
        return None
    rows = _VoteRows(registry)
    with handle:
        header = handle.readline()
        header = header[:-2] if header.endswith(b"\r\n") else header.removesuffix(b"\n")
        if not _plain_text(header) or b"\r" in header or [
                h.strip() for h in header.decode("ascii").split(",")] != VOTES_HEADER:
            return None
        lineno, tail = 2, b""
        while True:
            block = handle.read(VOTE_BLOCK_BYTES)
            data = tail + block
            cut = data.rfind(b"\n") + 1 if block else len(data)
            data, tail = data[:cut], data[cut:]
            if len(tail) > csv.field_size_limit() + 2:
                return None
            if data:
                lineno = _fast_block(data, lineno, rows)
                if lineno is None:
                    return None
            if not block:
                return rows


def _csv_vote_rows(path: str | Path, registry: dict[int, PollRecord]) -> _VoteRows:
    """The rows of a votes file as the CSV reader reads them."""
    rows = _VoteRows(registry)
    for lineno, fields in _read_rows(path, VOTES_HEADER, "bad vote row", rows.anomalies):
        rows.add(lineno, fields)
    return rows


def load_vote_log(
    votes_path: str | Path,
    polls_path: str | Path,
    identities_path: str | Path | None = None,
) -> VoteLog:
    """Load the votes/polls/identities exports into a VoteLog.

    Malformed rows are skipped and recorded as anomalies attached to the
    result; missing files and malformed headers raise. A quote-free ASCII
    votes file is read on the fast path (see ``_fast_block``), any other
    through the CSV reader; both give the same log and anomalies.
    """
    report = ValidationReport()
    registry = load_polls(polls_path, report)
    identities = load_identities(identities_path, report) if identities_path else {}
    rows = _fast_vote_rows(Path(votes_path), registry) or _csv_vote_rows(votes_path, registry)
    report.anomalies += rows.anomalies
    return VoteLog(rows.columns(), registry, identities, report)


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


def final_ballots(log: VoteLog, poll_id: int, rule: str = "last") -> np.ndarray:
    """One counted ballot per voter for a poll: the row indices of the
    voters' counted records.

    ``rule="last"`` counts a voter's final record (portal semantics);
    ``rule="first"`` counts the first. Output is sorted by weight descending
    (by exact rank, never rounded) with ties broken by timestamp ascending,
    then address.
    """
    if rule not in ("last", "first"):
        raise ValueError(f"unknown ballot rule: {rule!r}")
    if poll_id not in log.registry:
        raise KeyError(f"poll {poll_id} not in registry")
    index = log.poll_rows
    start, stop = index.span.get(poll_id, (0, 0))
    rows = index.rows[start:stop]  # chronological
    if not len(rows):
        return rows
    # each voter's records in a run, chronological within it (a stable sort)
    rows = rows[np.argsort(log.voter[rows], kind="stable")]
    runs = run_starts(log.voter[rows])
    rows = rows[runs if rule == "first" else np.append(runs[1:], len(rows)) - 1]
    return rows[np.lexsort((log.voter[rows], log.timestamp[rows], -log.weights.ranks[log.weight[rows]]))]


def validate_dataset(log: VoteLog) -> ValidationReport:
    """Full anomaly scan of a loaded log (report-only, deterministic order).

    Four checks run over the columns: an option its poll does not list (of
    a poll that lists options), a vote before its poll's deploy time, a zero
    weight, and a (poll, voter, timestamp) key that an earlier row holds.
    Their anomalies come in row order, and a row's in that check order; the
    abstain ids that are not options of their poll follow, poll by poll."""
    report = ValidationReport()
    listed = {poll_id: {oid for oid, _ in poll.options} for poll_id, poll in log.registry.items()}
    n = len(log.timestamp)
    # each distinct (poll, option) pair is judged once, and its verdict and
    # deploy time spread back to its rows
    order = np.lexsort((log.option_id, log.poll_id))
    starts = run_starts(log.poll_id[order], log.option_id[order])
    pairs = list(zip(log.poll_id[order[starts]].tolist(), log.option_id[order[starts]].tolist()))
    pair = np.empty(n, dtype=np.int64)
    pair[order] = np.repeat(np.arange(len(starts)), np.diff(starts, append=n))
    unlisted = np.array([bool(listed[p]) and o not in listed[p] for p, o in pairs], dtype=bool)[pair]
    deploy = np.array([log.registry[p].deploy_timestamp for p, _ in pairs], dtype=np.int64)[pair]
    zero = np.array([d == 0 for d in log.weights.decimals], dtype=bool)[log.weight]
    # a stable sort keeps each key's rows in row order, the first unflagged
    order = np.lexsort((log.timestamp, log.voter, log.poll_id))
    repeated = np.ones(n, dtype=bool)
    repeated[order[run_starts(log.poll_id[order], log.voter[order], log.timestamp[order])]] = False
    checks = np.stack([unlisted, log.timestamp < deploy, zero, repeated])
    rows = np.flatnonzero(checks.any(axis=0))
    flagged = zip(checks[:, rows].T.tolist(), log.poll_id[rows].tolist(), log.voter[rows].tolist(),
                  log.option_id[rows].tolist(), log.timestamp[rows].tolist(), deploy[rows].tolist())
    for (is_unlisted, is_early, is_zero, is_repeated), poll_id, voter, option_id, timestamp, deployed in flagged:
        voter = log.addresses[voter]
        if is_unlisted:
            report.add("unknown option", f"poll {poll_id}, voter {voter}: option {option_id} not listed")
        if is_early:
            report.add("pre-deploy vote", f"poll {poll_id}, voter {voter}: {timestamp} < deploy {deployed}")
        if is_zero:
            report.add("zero weight", f"poll {poll_id}, voter {voter}")
        if is_repeated:
            report.add("duplicate key", f"poll {poll_id}, voter {voter}, t={timestamp}")
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


# The rows of votes.csv rendered and written at a time: one block's text and
# int lists are all that writing holds beside the log.
VOTE_WRITE_ROWS = 2048


def write_vote_log(
    log: VoteLog,
    votes_path: str | Path,
    polls_path: str | Path,
    identities_path: str | Path | None = None,
) -> None:
    """Serialize a VoteLog back to the CSV schemas (round-trip safe), each
    line ending in csv's default ``\\r\\n``.

    ``votes.csv`` is written from the columns, ``VOTE_WRITE_ROWS`` rows at a
    time: each distinct address and weight text is rendered once, quoted as
    ``write_rows`` quotes a field, and the int columns are written as they
    are."""
    addresses, weights = _csv_fields(log.addresses), _csv_fields(map(str, log.weights.decimals))
    with atomic_open(votes_path) as handle:
        write_rows(handle.write, [VOTES_HEADER], "\r\n")
        for start in range(0, len(log.timestamp), VOTE_WRITE_ROWS):
            block = slice(start, start + VOTE_WRITE_ROWS)
            handle.write("".join(map(
                "{},{},{},{},{}\r\n".format,
                log.poll_id[block].tolist(),
                map(addresses.__getitem__, log.voter[block].tolist()),
                log.option_id[block].tolist(),
                map(weights.__getitem__, log.weight[block].tolist()),
                log.timestamp[block].tolist(),
            )))
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


def _csv_fields(texts: Iterable[str]) -> list[str]:
    """Each text as ``write_rows`` renders it as one field of a row of
    several (alone on a row, an empty field would be quoted)."""
    rendered: list[str] = []
    write_rows(rendered.append, ([text, ""] for text in texts), "")
    return [line[:-1] for line in rendered]


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
