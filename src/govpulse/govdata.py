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
weights (``Weights``). The five int columns are the rows of one (5, n)
table, which ``VoteColumns.of_table`` sorts and ranks in place: it is the
one way in, for the loader and the generator alike. The loader writes each
block's kept rows straight into that table, sized up front from the file's
line ends (every row ends on its own), and a table already in time order
is not permuted. Each distinct weight text is parsed and checked once per
load, and equal texts share one exact ``Decimal``. Weights are summed as
Python ints in units of 10**e, where e is the smaller of 0 and the smallest
exponent among the log's weights, so every total is exact and bit-stable
across platforms; it is written as the ``Decimal`` an exact sum started at
``Decimal(0)`` gives, and converted to a binary float only inside the
statistics layer. A vote row whose poll id or option id does not fit in 64
bits is skipped as malformed. A log is written back from its columns
(``write_vote_log``), and ``ingest``'s scan (``validate_dataset``) reads
them: neither builds a ``VoteEvent``. ``VoteLog.events``, the rows as a
tuple of ``VoteEvent``s, is built on its first read, and no command reads it.

One CSV reader (``_csv_blocks``) reads all four files: each non-blank row
with its line, padded or cut to the header's width. ``votes.csv`` and
``factors.csv`` are read by one pipeline (``_read_file``): a source splits
the file into blocks of rows, and each block's rows are checked as columns.
A factor row's verdict comes from its block's columns alone. A vote row the
column check cannot judge (an int field or timestamp that is not plain
digits, or any field that fails a check) goes through the vote reader's
per-row parse (``_VoteRows.add``), which reads the column check's caches; a
row it keeps takes its place among its block's rows. The fast source
(``_plain_blocks``) splits 64 KiB of whole lines at a time, into rows of
the same shape, when the whole file is ASCII and holds no ``"``, no NUL, no
carriage return outside a CRLF line end and no line longer than
``csv.field_size_limit()``. Any other file is split by the CSV reader, 4096
rows at a time.

A factor panel (``FactorPanel``) holds each (token, category, factor)
series, and the instrument, as a ``Series``: a sorted int64 day-ordinal
column and a float64 value column, about 16 bytes a cell, in the order of
the series' first kept rows. A repeated cell is flagged where its row
comes and the last value wins. The off-chain instrument is one date-keyed
series, the rows of category ``instrument`` whatever their token.

The factor catalogue (``CATALOGUE``) maps each regression category, in
table order, to its factor names, ``{sym}`` read as the token's native-unit
suffix (``AvgSize{sym}`` is AvgSizeMkr for MKR); ``DERIVED_FINANCIAL`` are
derived from Price. A token names artifact files, so a row outside the
instrument whose token is not a token name (``is_token_name``) is skipped.
"""

from __future__ import annotations

import csv
import math
import os
import re
import tempfile
from collections import Counter
from collections.abc import Callable, Iterable, Iterator, Mapping, Sequence
from contextlib import contextmanager
from dataclasses import dataclass, field
from datetime import date, datetime, timezone
from decimal import Decimal, InvalidOperation
from functools import cached_property
from itertools import repeat
from operator import itemgetter
from pathlib import Path
from types import SimpleNamespace
from typing import IO, NamedTuple, TypeVar

import numpy as np


class SchemaError(ValueError):
    """A file header does not match the expected schema."""


VOTES_HEADER = ["poll_id", "voter", "option_id", "weight", "timestamp"]
POLLS_HEADER = ["poll_id", "deploy_timestamp", "title", "options", "abstain_options"]
IDENTITIES_HEADER = ["address", "name"]
FACTORS_HEADER = ["date", "token", "category", "factor", "value"]

# A weight's last digit may not lie further right than this, which bounds the
# digits of every exact sum (a zero weight such as 0E-999999999 would
# otherwise carry a billion zeros into it).
MAX_WEIGHT_PLACES = 1000
# The ids and option ids of a vote row are held in int64 columns.
INT64_RANGE = range(-(2**63), 2**63)

VOL_WINDOWS = (2, 3, 4, 5, 6, 7, 14, 30, 60)
DERIVED_FINANCIAL = ("r",) + tuple(f"v{k}" for k in VOL_WINDOWS)
# The factor catalogue: each regression category, in table order, and its
# factor names, "{sym}" standing for the token's native-unit suffix.
CATALOGUE = {
    "financial": ("Price", *DERIVED_FINANCIAL),
    "transaction": ("AvgBlcUsd", "AvgSize{sym}", "AvgSizeUsd", "LargeVol{sym}", "LargeVolUsd", "LargeCnt",
                    "Vol{sym}", "VolUsd", "TxnCnt"),
    "exchange": ("InCnt", "InVol{sym}", "InVolUsd", "OutCnt", "OutVol{sym}", "OutVolUsd", "Net{sym}", "NetUsd",
                 "Total{sym}", "TotalUsd"),
    "network": ("TotalWithBlc", "New", "Active", "ActiveRatio"),
    "sentiment": ("Positive", "Neutral", "Negative"),
}
REGRESSION_CATEGORIES = tuple(CATALOGUE)
INSTRUMENT_CATEGORY = "instrument"
INSTRUMENT_FACTOR = "offchain_voters"
INSTRUMENT_TOKEN = "ALL"  # the token column written for instrument rows
FACTOR_CATEGORIES = REGRESSION_CATEGORIES + (INSTRUMENT_CATEGORY,)
_NOT_IN_TOKEN = re.compile(r"[/\\\x00-\x1f\x7f-\x9f]")


@dataclass(frozen=True)
class FactorSpec:
    name: str
    category: str


def catalogue_for(token: str) -> list[FactorSpec]:
    """The catalogue's factors for one token, in table order, ``{sym}``
    read as its native-unit suffix (MKR: Mkr)."""
    sym = token[:1].upper() + token[1:].lower()
    return [FactorSpec(name.format(sym=sym), category) for category, names in CATALOGUE.items() for name in names]


def is_known_factor(token: str, category: str, factor: str) -> bool:
    if category == INSTRUMENT_CATEGORY:
        return factor == INSTRUMENT_FACTOR
    sym = token[:1].upper() + token[1:].lower()
    return any(name.format(sym=sym) == factor for name in CATALOGUE.get(category, ()))


def is_token_name(token: str) -> bool:
    """Whether ``token`` is not empty and holds no ``/``, ``\\`` or control character."""
    return bool(token) and _NOT_IN_TOKEN.search(token) is None


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
        return dict(Counter(a.kind for a in self.anomalies))


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
    """The vote weights that a log's rows use: the loader keeps one entry
    per distinct weight text, the generator one per voter.

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
        self.ranks = np.unique(self.units, return_inverse=True)[1]

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
    def of_table(cls, table: np.ndarray, names: Sequence[str], decimals: Sequence[Decimal]) -> "VoteColumns":
        """The columns of ``table``, a writable (5, n) int64 array of vote
        rows in input order: poll id, voter (an index into ``names``),
        option id, weight (an index into ``decimals``) and timestamp. The
        table becomes the columns in place: each row is sorted by
        (timestamp, input order), which leaves a table whose timestamps do
        not decrease as it is, the voter row is overwritten with its name's
        rank among the names rows use, and the weight row with its slot
        among the weights rows use, kept in ``decimals`` order."""
        if np.any(table[4, 1:] < table[4, :-1]):
            order = np.argsort(table[4], kind="stable")
            for row in table:
                row[:] = row[order]
        poll_id, voter, option_id, weight, timestamp = table
        voters = np.flatnonzero(np.bincount(voter, minlength=len(names))).tolist()
        voters.sort(key=names.__getitem__)
        weights = np.flatnonzero(np.bincount(weight, minlength=len(decimals))).tolist()
        for column, used, size in ((voter, voters, len(names)), (weight, weights, len(decimals))):
            slot = np.zeros(size, dtype=np.int64)
            slot[used] = np.arange(len(used))
            column[:] = slot[column]
        return cls(
            poll_id, voter, option_id, weight, timestamp,
            tuple(map(names.__getitem__, voters)), Weights(list(map(decimals.__getitem__, weights))),
        )


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

    The loader and the generator build its ``VoteColumns`` with
    ``VoteColumns.of_table``: rows sorted by (timestamp, input order).
    Every row's poll_id resolves in the registry (ValueError otherwise):
    the check reads the polls of ``poll_rows``, which is built here, once.
    ``events`` is the rows as a tuple of ``VoteEvent``s, built on its first
    read; no command reads it.
    """

    def __init__(
        self,
        columns: VoteColumns,
        registry: dict[int, PollRecord],
        identities: dict[str, str] | None = None,
        report: ValidationReport | None = None,
    ) -> None:
        self.poll_id, self.voter, self.option_id, self.weight, self.timestamp, self.addresses, self.weights = columns
        unknown = sorted(self.poll_rows.span.keys() - registry.keys())
        if unknown:
            raise ValueError(f"events reference polls not in the registry: {unknown}")
        self.registry: dict[int, PollRecord] = dict(registry)
        self.identities: dict[str, str] = dict(identities or {})
        self.report: ValidationReport = report or ValidationReport()

    @cached_property
    def events(self) -> tuple[VoteEvent, ...]:
        return tuple(map(
            VoteEvent,
            self.poll_id.tolist(),
            map(self.addresses.__getitem__, self.voter.tolist()),
            self.option_id.tolist(),
            map(self.weights.decimals.__getitem__, self.weight.tolist()),
            self.timestamp.tolist(),
        ))

    @cached_property
    def poll_rows(self) -> _PollRows:
        rows = np.argsort(self.poll_id, kind="stable")
        starts = run_starts(self.poll_id[rows]).tolist()
        span = dict(zip(self.poll_id[rows[starts]].tolist(), zip(starts, [*starts[1:], len(rows)])))
        return _PollRows(rows, span)

    def poll_ids(self) -> list[int]:
        return sorted(self.registry)


class Series(Mapping):
    """A date-keyed float series held as two columns: ``days``, the
    ascending distinct day ordinals (``date.toordinal()``) as int64, and
    ``data``, the float64 value on each day. It reads as a mapping of
    ``date`` to float, in date order."""

    __slots__ = ("days", "data")

    def __init__(self, days: np.ndarray | None = None, data: np.ndarray | None = None) -> None:
        self.days = np.empty(0, np.int64) if days is None else days
        self.data = np.empty(0, float) if data is None else data

    @classmethod
    def of(cls, cells: Mapping[date, float]) -> "Series":
        """A mapping of dates to floats as a Series; a Series is returned as it is."""
        if isinstance(cells, Series):
            return cells
        days = np.fromiter(map(date.toordinal, cells), np.int64, len(cells))
        order = np.argsort(days, kind="stable")
        return cls(days[order], np.fromiter(cells.values(), float, len(cells))[order])

    def __len__(self) -> int:
        return len(self.days)

    def __iter__(self) -> Iterator[date]:
        return map(date.fromordinal, self.days.tolist())

    def __getitem__(self, day: date) -> float:
        if isinstance(day, date) and not isinstance(day, datetime):
            at = int(np.searchsorted(self.days, day.toordinal()))
            if at < len(self.days) and self.days[at] == day.toordinal():
                return float(self.data[at])
        raise KeyError(day)

    def __repr__(self) -> str:
        return f"Series({dict(self.items())!r})"

    def held(self, days: np.ndarray) -> np.ndarray:
        """The entries of ``days`` (ascending ordinals) that the series holds."""
        at = np.searchsorted(self.days, days)
        hit = at < len(self.days)
        hit[hit] = self.days[at[hit]] == days[hit]
        return days[hit]

    def on(self, days: np.ndarray) -> np.ndarray:
        """The values on ``days`` (ascending ordinals, each held)."""
        return self.data[np.searchsorted(self.days, days)]


class FactorPanel:
    """Factor values: one ``Series`` per (token, category, factor), in the
    order of their first kept rows, the one instrument ``Series`` and the
    anomalies found on the way."""

    def __init__(
        self,
        series: dict[tuple[str, str, str], Series] | None = None,
        instrument: Series | None = None,
        anomalies: list[Anomaly] | None = None,
    ) -> None:
        self.series: dict[tuple[str, str, str], Series] = series or {}
        self.instrument: Series = Series() if instrument is None else instrument
        self.anomalies: list[Anomaly] = anomalies or []

    def __len__(self) -> int:
        return len(self.instrument) + sum(map(len, self.series.values()))


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
    found: list[tuple[int, Anomaly]] = []
    rows = _csv_rows(path, POLLS_HEADER, "bad poll row", found)
    for lineno, (poll_text, deploy_text, title, options_text, abstain_text) in rows:
        try:
            poll_id = int(poll_text)
            deploy = parse_timestamp(deploy_text)
            options = _parse_options(options_text)
            abstain = frozenset(int(x) for x in abstain_text.strip().split("|") if x.strip())
        except (ValueError, InvalidOperation) as exc:
            found.append((lineno, Anomaly("bad poll row", f"line {lineno}: {exc}")))
            continue
        if poll_id <= 0 or deploy <= 0:
            found.append((lineno, Anomaly("bad poll row", f"line {lineno}: non-positive poll_id or deploy timestamp")))
            continue
        option_ids = [oid for oid, _ in options]
        if len(option_ids) != len(set(option_ids)):
            found.append((lineno, Anomaly("duplicate option ids", f"poll {poll_id}")))
        if poll_id in registry:
            found.append((lineno, Anomaly("duplicate poll id", f"poll {poll_id}: last row wins")))
        registry[poll_id] = PollRecord(
            poll_id=poll_id,
            deploy_timestamp=deploy,
            options=options,
            abstain_option_ids=abstain,
            title=title,
        )
    report.anomalies += _in_line_order(found)
    return registry


def load_identities(path: str | Path, report: ValidationReport) -> dict[str, str]:
    identities: dict[str, str] = {}
    found: list[tuple[int, Anomaly]] = []
    for lineno, (address, name) in _csv_rows(path, IDENTITIES_HEADER, "bad identity row", found):
        address = address.strip().lower()
        if not address:
            found.append((lineno, Anomaly("bad identity row", f"line {lineno}: empty address")))
            continue
        if address in identities:
            found.append((lineno, Anomaly("duplicate identity", f"{address}: last row wins")))
        identities[address] = name.strip()
    report.anomalies += _in_line_order(found)
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
    """The vote rows read so far: the kept rows, in file order, written into
    one (5, ``capacity``) int64 table, and the anomalies of the skipped ones,
    each with its line. Each field has one cache, which the column check
    fills and ``add`` reads: each distinct voter field is normalized once and
    each distinct weight text parsed and checked once. Every row still gets
    every check, and a row only ``add`` accepts takes its place among its
    block's."""

    def __init__(self, registry: dict[int, PollRecord], capacity: int) -> None:
        self.registry = registry
        self.anomalies: list[tuple[int, Anomaly]] = []
        self.addresses: dict[str, int] = {}  # address -> its index, in first-seen order
        self.decimals: list[Decimal] = []
        self.faults: list[Decimal | str] = []  # each refused weight: a negative Decimal or its error
        # raw field -> its value in the column check, -1 (or below) when the
        # row must be parsed on its own
        self.poll_fields: dict[str, int] = {}
        self.voter_fields: dict[str, int] = {}  # -1 when empty
        self.option_fields: dict[str, int] = {}
        self.kept_weights: dict[str, int] = {}  # index into decimals, or -1 - index into faults
        # the poll_id, voter, option_id, weight and timestamp of the kept
        # rows, in file order, are the first ``kept`` entries of each row
        self.table = np.empty((5, capacity), np.int64)
        self.kept = 0

    def voter_index(self, text: str) -> int:
        address = text.strip().lower()
        return self.addresses.setdefault(address, len(self.addresses)) if address else -1

    def registered_poll(self, text: str) -> int:
        value = _plain_int(text)
        return value if value in self.registry else -1

    def kept_weight(self, text: str) -> int:
        weight = _parse_weight(text)
        if isinstance(weight, str) or weight < 0:
            self.faults.append(weight)
            return -len(self.faults)
        self.decimals.append(weight)
        return len(self.decimals) - 1

    def add(self, lineno: int, fields: list[str]) -> tuple[int, int, int, int, int] | None:
        """The one per-row parse of a row of ``fields`` (poll, voter, option,
        weight and timestamp texts) that ``read`` has looked up: its (poll_id,
        voter, option_id, weight, timestamp), or None, with why it is skipped."""
        poll_text, voter_text, option_text, weight_text, stamp = fields
        weight = self.kept_weights[weight_text]
        fault = self.faults[-1 - weight] if weight < 0 else None
        try:
            poll_id = int(poll_text)
            option_id = int(option_text)
            if isinstance(fault, str):
                raise ValueError(fault)
            timestamp = parse_timestamp(stamp)
        except (ValueError, ArithmeticError) as exc:
            kind, detail = "bad vote row", str(exc)
        else:
            voter = self.voter_fields[voter_text]
            if voter < 0:
                kind, detail = "bad vote row", "empty voter address"
            elif timestamp <= 0:
                kind, detail = "bad vote row", "non-positive timestamp"
            elif fault is not None:
                kind, detail = "negative weight", f"poll {poll_id}, voter {voter_text.strip().lower()}"
            elif poll_id not in self.registry:
                kind, detail = "unknown poll", f"poll {poll_id} not in registry"
            elif poll_id not in INT64_RANGE or option_id not in INT64_RANGE:
                name, value = ("poll_id", poll_id) if poll_id not in INT64_RANGE else ("option_id", option_id)
                kind, detail = "bad vote row", f"{name} {value} does not fit in 64 bits"
            else:
                return poll_id, voter, option_id, weight, timestamp
        self.anomalies.append((lineno, Anomaly(kind, f"line {lineno}: {detail}")))
        return None

    def read(self, block: _Block) -> None:
        """Read a block of rows. A row whose poll, option and timestamp
        are plain digits, with a registered poll, a timestamp with a UTC
        date, an address and a non-negative weight is kept as a column
        entry; every other row goes through ``add``, in line order, and a
        row it keeps is written into the columns at its place."""
        fields = block.fields
        poll_id = _lookup(fields[0::5], self.poll_fields, self.registered_poll)
        voter = _lookup(fields[1::5], self.voter_fields, self.voter_index)
        option_id = _lookup(fields[2::5], self.option_fields, _plain_int)
        weight = _lookup(fields[3::5], self.kept_weights, self.kept_weight)
        timestamp = _plain_ints(fields[4::5])
        columns = (poll_id, voter, option_id, weight, timestamp)
        kept = (poll_id >= 0) & (voter >= 0) & (option_id >= 0) & (weight >= 0)
        kept &= (timestamp > 0) & (timestamp <= MAX_TIMESTAMP)
        self.anomalies += block.unreadable
        for at in np.flatnonzero(~kept).tolist():
            row = self.add(int(block.linenos[at]), fields[5 * at:5 * at + 5])
            if row is not None:
                for column, value in zip(columns, row):
                    column[at] = value
                kept[at] = True
        end = self.kept + np.count_nonzero(kept)
        for row, column in zip(self.table, columns):
            row[self.kept:end] = column[kept]
        self.kept = end

    def columns(self) -> VoteColumns:
        """The kept rows as ``VoteColumns``: the table is cut to them in
        place, released, and sorted and ranked in place."""
        table, self.table = self.table, None
        kept, capacity = self.kept, table.shape[1]
        if kept < capacity:  # move each row next to the one before it, then shrink the buffer
            flat = table.reshape(-1)
            for i in range(1, 5):
                flat[i * kept:(i + 1) * kept] = flat[i * capacity:i * capacity + kept]
            del flat
            # no view of the table is left; refcheck would also count the
            # references a tracer or debugger holds to this frame
            table.resize((5, kept), refcheck=False)
        return VoteColumns.of_table(table, list(self.addresses), self.decimals)


def _plain_int(text: str) -> int:
    """The value of a field of 1 to 18 decimal digits, -1 for any other text."""
    return int(text) if len(text) <= 18 and text.isdecimal() else -1


def _lookup(texts: list, known: dict, value: Callable[[object], int]) -> np.ndarray:
    """The int64 column of ``known[text]`` for each text (or other key),
    adding ``value(text)`` for each text not yet known, in first-seen
    order."""
    column = np.fromiter(map(known.get, texts, repeat(-2)), np.int64, len(texts))
    for i in np.flatnonzero(column == -2).tolist():
        if texts[i] not in known:
            known[texts[i]] = value(texts[i])
        column[i] = known[texts[i]]
    return column


def _plain_ints(texts: list[str]) -> np.ndarray:
    """The int64 column of ``_plain_int`` of each text, less the 18-digit
    bound when every text is decimal digits and fits in int64."""
    if "".join(texts).isdecimal():
        try:
            return np.fromiter(map(int, texts), np.int64, len(texts))
        except (ValueError, OverflowError):  # an empty text, or one beyond int64
            pass
    return np.fromiter(map(_plain_int, texts), np.int64, len(texts))


def _plain_text(data: bytes) -> bool:
    """Whether ``data`` is ASCII and holds no quote and no NUL."""
    return data.isascii() and b'"' not in data and b"\0" not in data


class _Block(NamedTuple):
    """The non-blank rows of either source, in one shape: their fields,
    ``width`` a row (padded or cut), each row's line, and the (line,
    anomaly) of each line the CSV reader could not read."""

    fields: list[str]
    linenos: np.ndarray  # per row
    width: int
    unreadable: Sequence[tuple[int, Anomaly]] = ()


def _plain_block(data: bytes, width: int, lineno: int) -> tuple[_Block, int] | None:
    """The rows of ``data``, a block of whole lines whose first is line
    ``lineno``, and the number of the line after it; None when the block
    does not qualify for the fast source: it is not ``_plain_text``, or
    holds a carriage return outside a CRLF line end or a line longer than
    ``csv.field_size_limit()``. Each line is then a row. The block is split
    at once when every line has ``width - 1`` commas and none can be blank;
    otherwise, as the CSV reader does, a blank line is skipped and each
    other line is padded or cut to ``width`` fields."""
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
    text = data.decode("ascii")
    commas = np.diff(np.searchsorted(np.flatnonzero(codes == 44), ends), prepend=0)
    # a blank line starts and ends with a comma, a space or a control byte
    first, last = codes[np.append(0, ends[:-1] + 1)], codes[ends - len(end)]
    blank = ((first <= 32) | (first == 44)) & ((last <= 32) | (last == 44))
    after = lineno + len(ends)
    if np.all(commas == width - 1) and not blank.any():
        return _Block(text.replace(end, ",").split(",")[:-1], np.arange(lineno, after), width), after
    rows = [(at, raw) for at, raw in enumerate(map(str.split, text.split(end)[:-1], repeat(",")), lineno)
            if "".join(raw).strip()]
    fields = [field for _, raw in rows for field in (raw + [""] * width)[:width]]
    return _Block(fields, np.array([at for at, _ in rows], np.int64), width), after


# The bytes of whole lines the fast source splits at a time, and the rows
# the CSV source reads at a time.
BLOCK_BYTES = 1 << 16
BLOCK_ROWS = 4096


def _row_bound(path: Path) -> int:
    """An upper bound on the rows after the header of a file: its line ends
    (LF, CRLF or a lone CR, where the CSV reader may end a row), less the
    header's, plus one for a last line without one. 0 when it cannot be
    read."""
    ends, last = 0, 10
    try:
        with path.open("rb") as handle:
            while chunk := handle.read(BLOCK_BYTES):
                codes = np.frombuffer(chunk, np.uint8)
                # an LF ends a line, and so does a CR that no LF follows
                ends += np.count_nonzero(codes == 10) + np.count_nonzero((codes[:-1] == 13) & (codes[1:] != 10))
                ends += last == 13 and chunk[0] != 10
                last = chunk[-1]
    except OSError:
        return 0
    return max(0, ends - (last == 10))


def _plain_blocks(path: Path, header: list[str]) -> Iterator[_Block | None]:
    """The fast source: each block of about ``BLOCK_BYTES`` of whole lines
    after the header of a file. None in place of a block ends the reading
    when the file does not qualify (see ``_plain_block``), or cannot be
    opened, or its header is not ``header``: ``_csv_blocks`` then reads
    it."""
    try:
        handle = path.open("rb")
    except OSError:
        yield None
        return
    with handle:
        first = handle.readline()
        first = first[:-2] if first.endswith(b"\r\n") else first.removesuffix(b"\n")
        if not _plain_text(first) or b"\r" in first or [
                h.strip() for h in first.decode("ascii").split(",")] != header:
            yield None
            return
        lineno, tail = 2, b""
        while True:
            chunk = handle.read(BLOCK_BYTES)
            data = tail + chunk
            cut = data.rfind(b"\n") + 1 if chunk else len(data)
            data, tail = data[:cut], data[cut:]
            if len(tail) > csv.field_size_limit() + 2:
                yield None
                return
            if data:
                block, lineno = _plain_block(data, len(header), lineno) or (None, 0)
                yield block
                if block is None:
                    return
            if not chunk:
                return


def _csv_blocks(path: str | Path, header: list[str], bad_kind: str) -> Iterator[_Block]:
    """The CSV source: the non-blank rows of a file, each at the line it
    starts on, padded or cut to the header's width, ``BLOCK_ROWS`` a block
    (the last may be empty). A row the CSV reader cannot read (such as a
    field over its size limit) or that holds a byte that is not UTF-8 is a
    ``bad_kind`` anomaly. A missing file or a header other than ``header``
    raises."""
    path, width = Path(path), len(header)
    if not path.exists():
        raise FileNotFoundError(f"input file not found: {path}")
    fields, linenos, unreadable = [], [], []
    with path.open("r", encoding="utf-8", errors="surrogateescape", newline="") as handle:
        reader = csv.reader(handle)
        try:
            first = next(reader)
        except StopIteration:
            raise SchemaError(f"{path}: empty file, expected header {header}")
        except csv.Error as exc:
            raise SchemaError(f"{path}: unreadable header: {exc}") from None
        first = [h.strip() for h in first]
        if first != header:
            raise SchemaError(f"{path}: header {first} does not match {header}")
        while True:
            lineno = reader.line_num + 1
            try:
                raw = next(reader)
            except StopIteration:
                break
            except csv.Error as exc:
                unreadable.append((lineno, Anomaly(bad_kind, f"line {lineno}: {exc}")))
                continue
            text = "".join(raw)
            if not text.strip():  # a blank row
                continue
            if not text.isascii():
                try:
                    text.encode("utf-8")  # an undecodable byte was read as a lone surrogate
                except UnicodeEncodeError:
                    unreadable.append((lineno, Anomaly(bad_kind, f"line {lineno}: a byte that is not UTF-8")))
                    continue
            if len(raw) != width:
                raw = (raw + [""] * width)[:width]
            fields += raw
            linenos.append(lineno)
            if len(linenos) == BLOCK_ROWS:
                yield _Block(fields, np.array(linenos, np.int64), width, unreadable)
                fields, linenos, unreadable = [], [], []
    yield _Block(fields, np.array(linenos, np.int64), width, unreadable)


def _csv_rows(path: str | Path, header: list[str], bad_kind: str, found: list[tuple[int, Anomaly]]) -> Iterator[tuple]:
    """Each row of a small file as (line, fields); ``found`` takes the
    (line, anomaly) of each unreadable line."""
    for block in _csv_blocks(path, header, bad_kind):
        found += block.unreadable
        yield from zip(block.linenos.tolist(), zip(*[iter(block.fields)] * block.width))


def _in_line_order(found: list[tuple[int, Anomaly]]) -> list[Anomaly]:
    """The anomalies of (line, anomaly) pairs sorted by line, stably."""
    return [anomaly for _, anomaly in sorted(found, key=itemgetter(0))]


_Rows = TypeVar("_Rows", "_VoteRows", "_FactorRows")


def _read_file(path: Path, header: list[str], bad_kind: str, new_rows: Callable[[], _Rows]) -> _Rows:
    """The rows of a votes or factors file, each block read into
    ``new_rows()`` by its ``read``: from the fast source when the file
    qualifies for it, else, started again with fresh rows, from the CSV
    source. Both give the same rows and anomalies. A missing file or a
    header other than ``header`` raises."""
    rows = new_rows()
    for block in _plain_blocks(path, header):
        if block is None:
            break
        rows.read(block)
    else:
        return rows
    rows = new_rows()
    for block in _csv_blocks(path, header, bad_kind):
        rows.read(block)
    return rows


def load_vote_log(
    votes_path: str | Path,
    polls_path: str | Path,
    identities_path: str | Path | None = None,
) -> VoteLog:
    """Load the votes/polls/identities exports into a VoteLog.

    Malformed rows are skipped and recorded as anomalies attached to the
    result; missing files and malformed headers raise. The votes file is
    read in blocks (see ``_read_file``).
    """
    report = ValidationReport()
    registry = load_polls(polls_path, report)
    identities = load_identities(identities_path, report) if identities_path else {}
    votes_path = Path(votes_path)
    capacity = _row_bound(votes_path)
    rows = _read_file(votes_path, VOTES_HEADER, "bad vote row", lambda: _VoteRows(registry, capacity))
    report.anomalies += _in_line_order(rows.anomalies)
    return VoteLog(rows.columns(), registry, identities, report)


def _day_ordinal(text: str) -> int:
    """The day ordinal of a YYYY-MM-DD string, spaces around it stripped;
    -1 for any other text (3.11's ``fromisoformat`` also reads 20210301)."""
    text = text.strip()
    try:
        day = date.fromisoformat(text)
    except ValueError:
        return -1
    return day.toordinal() if day.isoformat() == text else -1


def _number(text: str) -> float:
    """``float(text)``, nan for a text that is not a number."""
    try:
        return float(text)
    except ValueError:
        return math.nan


def _floats(texts: list[str]) -> np.ndarray:
    """The float64 column of ``float`` of each text, nan where it raises."""
    try:
        return np.fromiter(map(float, texts), float, len(texts))
    except ValueError:
        return np.fromiter(map(_number, texts), float, len(texts))


INSTRUMENT_KEY = (INSTRUMENT_TOKEN, INSTRUMENT_CATEGORY, INSTRUMENT_FACTOR)
# The dtypes of the kept rows' line, target, day ordinal and value columns.
_FACTOR_DTYPES = (np.int64, np.int32, np.int32, float)


class _FactorRows:
    """The factors.csv rows read so far: the kept rows as blocks of columns
    (line, target, day ordinal, value), and the anomalies of the others,
    each with its line. A block's columns are the only judge of its rows:
    each distinct date text is parsed once, the values are read by
    ``float``, and each distinct raw (token, category, factor) triple is
    stripped, checked against the categories and the catalogue and resolved
    to a target once. A row's anomaly is worded from those columns, its date
    checked first, then its value, then its key.

    A target is one raw triple: its "token/category/factor" label, the
    (kind, text) of the anomaly each of its rows gets or None, and the
    series its rows land in, or -1 when they are skipped. Every instrument
    row lands in the one instrument series."""

    def __init__(self) -> None:
        self.days: dict[str, int] = {}  # raw date text -> day ordinal, -1 when not a date
        self.codes: dict[tuple[str, str, str], int] = {}  # raw triple -> its target's code
        self.labels: list[str] = []
        self.flags: list[tuple[str, str] | None] = []
        self.series: list[int] = []
        self.keys: dict[tuple[str, str, str], int] = {}  # series key -> series
        self.anomalies: list[tuple[int, Anomaly]] = []
        self.columns: tuple[list[np.ndarray], ...] = ([], [], [], [])

    def target(self, raw: tuple[str, str, str]) -> int:
        """The code of a raw triple's new target, ``index << 2 | flagged << 1
        | skipped``. A bad token outside the instrument is skipped. A
        category outside ``FACTOR_CATEGORIES`` or a factor the catalogue does
        not list is flagged and kept, except an unknown instrument factor,
        which is skipped: there is one instrument series."""
        token, category, factor = map(str.strip, raw)
        flag, kept = None, True
        if category != INSTRUMENT_CATEGORY and not is_token_name(token):
            flag, kept = ("bad factor token", f"{token!r} skipped"), False
        elif category not in FACTOR_CATEGORIES:
            flag = ("unknown category", repr(category))
        elif not is_known_factor(token, category, factor):
            kept = category != INSTRUMENT_CATEGORY
            flag = ("unknown factor", f"{token}/{factor} {'kept, flagged' if kept else 'skipped'}")
        key = INSTRUMENT_KEY if category == INSTRUMENT_CATEGORY else (token, category, factor)
        self.labels.append(f"{token}/{category}/{factor}")
        self.flags.append(flag)
        self.series.append(self.keys.setdefault(key, len(self.keys)) if kept else -1)
        return (len(self.flags) - 1) << 2 | (flag is not None) << 1 | (not kept)

    def read(self, block: _Block) -> None:
        """Read a block of rows. A row with a date, a finite value and a key
        that is not skipped is kept as a column entry at its line; a row
        that fails a check, or whose key is flagged, gets one anomaly."""
        fields = block.fields
        day = _lookup(fields[0::5], self.days, _day_ordinal)
        code = _lookup(list(zip(fields[1::5], fields[2::5], fields[3::5])), self.codes, self.target)
        value = _floats(fields[4::5])
        valid = (day >= 0) & np.isfinite(value)
        kept = valid & (code & 1 == 0)
        for held, column, dtype in zip(self.columns, (block.linenos, code >> 2, day, value), _FACTOR_DTYPES):
            held.append(column[kept].astype(dtype, copy=False))
        self.anomalies += block.unreadable
        for i in np.flatnonzero(~valid | (code & 2 != 0)).tolist():
            lineno = int(block.linenos[i])
            if day[i] < 0:
                kind, detail = "bad factor date", repr(fields[5 * i])
            elif not math.isfinite(value[i]):
                kind, detail = "bad factor value", "non-finite, skipped"
                try:
                    float(fields[5 * i + 4])
                except ValueError:
                    detail = repr(fields[5 * i + 4])
            else:
                kind, detail = self.flags[code[i] >> 2]
            self.anomalies.append((lineno, Anomaly(kind, f"line {lineno}: {detail}")))

    def panel(self) -> FactorPanel:
        """The kept rows as series, each sorted by date; a repeated cell of a
        series is flagged where its row comes, and its last value wins. Each
        series comes in the order of its first kept row. The columns are
        joined and sorted one at a time, so that few copies are held."""
        line, target, day, value = map(_joined, self.columns, _FACTOR_DTYPES)
        series = np.array(self.series, np.int32)[target]
        order = np.lexsort((line, day, series))  # by series, date and line
        line = line[order]
        target = target[order]
        day = day[order]
        value = value[order]
        series = series[order]
        del order
        cells = run_starts(series, day)
        repeated = np.ones(len(line), dtype=bool)
        repeated[cells] = False
        found = self.anomalies + [
            (at, Anomaly("duplicate factor cell", f"{date.fromordinal(on).isoformat()}/{self.labels[of]}: "
                         "last value wins"))
            for at, of, on in zip(line[repeated].tolist(), target[repeated].tolist(), day[repeated].tolist())
        ]
        last = np.append(cells[1:], len(line))[:len(cells)] - 1  # each cell's last row
        days, data = day[last].astype(np.int64), value[last]
        groups = run_starts(series)  # each series' rows
        first = np.minimum.reduceat(line, groups) if len(groups) else groups  # its first kept line
        bounds = np.searchsorted(cells, groups).tolist()
        spans = [slice(start, stop) for start, stop in zip(bounds, [*bounds[1:], len(cells)])]
        keys, ids = list(self.keys), series[groups].tolist()
        columns = {keys[ids[i]]: Series(days[spans[i]], data[spans[i]]) for i in np.argsort(first).tolist()}
        instrument = columns.pop(INSTRUMENT_KEY, Series())
        return FactorPanel(columns, instrument, _in_line_order(found))


def _joined(parts: list[np.ndarray], dtype: type) -> np.ndarray:
    """The parts of a column joined, the parts released."""
    joined = np.concatenate([np.empty(0, dtype), *parts])
    parts.clear()
    return joined


def load_factors(path: str | Path) -> FactorPanel:
    """Load the long-format factor export; duplicates last-win with anomaly.

    The file is read in blocks (see ``_read_file``). A missing file or a
    header other than the schema's raises."""
    return _read_file(Path(path), FACTORS_HEADER, "bad factor row", _FactorRows).panel()


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
    ``path`` is left as it was. The directory of ``path`` must exist."""
    path = Path(path)
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
        write_rows(handle.write, [POLLS_HEADER], "\r\n")
        for poll in sorted(log.registry.values(), key=lambda p: p.poll_id):
            options = "|".join(f"{oid}:{label}" for oid, label in poll.options)
            abstain = "|".join(str(oid) for oid in sorted(poll.abstain_option_ids))
            write_rows(handle.write, [[poll.poll_id, poll.deploy_timestamp, poll.title, options, abstain]], "\r\n")
    if identities_path is not None:
        with atomic_open(identities_path) as handle:
            write_rows(handle.write, [IDENTITIES_HEADER, *sorted(log.identities.items())], "\r\n")


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


# The dates of panel.csv and factors.csv rendered at a time: each key's
# cells on them are gathered, ordered and rendered before the next dates.
FACTOR_WRITE_DAYS = 32


def factor_rows(series: Mapping[tuple[str, str, str], Series], instrument: Series, lineterminator: str) -> Iterator[str]:
    """The lines of the factors.csv schema: the header, then the data sorted
    by date, token, category and factor, ``FACTOR_WRITE_DAYS`` dates' lines
    joined in one string at a time; the instrument is written under
    ``INSTRUMENT_TOKEN``.

    Each line is the row ``[date, token, category, factor, repr(value)]`` as
    ``write_rows`` renders it, ending in ``lineterminator``. Each key's
    ``token,category,factor`` is rendered once, and each date's text once.
    One window's cells and lines are all that is held beside the panel."""
    keyed = {**series, INSTRUMENT_KEY: instrument}
    keys = sorted(keyed)
    rendered: list[str] = []
    write_rows(rendered.append, [FACTORS_HEADER, *keys], "")
    header, *prefixes = rendered
    yield header + lineterminator
    columns = [keyed[key] for key in keys]
    prefix = np.array(prefixes, dtype=object)
    days = np.empty(0, np.int64)  # every date with a cell, ascending
    for column in columns:
        days = np.sort(np.concatenate([days, column.days]))
        days = days[run_starts(days)]
    # each window's last date; row w of cuts: where each key's cells before window w end
    lasts = np.append(days[FACTOR_WRITE_DAYS - 1:-1:FACTOR_WRITE_DAYS], days[-1:])
    cuts = np.array([np.searchsorted(column.days, lasts, side="right") for column in columns], np.int64)
    cuts = np.vstack([np.zeros(len(columns), np.int64), cuts.T]).tolist()
    for window, (starts, stops) in enumerate(zip(cuts, cuts[1:])):
        on = days[window * FACTOR_WRITE_DAYS:(window + 1) * FACTOR_WRITE_DAYS]
        spans = list(zip(columns, starts, stops))
        day = np.concatenate([column.days[start:stop] for column, start, stop in spans])
        value = np.concatenate([column.data[start:stop] for column, start, stop in spans])
        key = np.repeat(np.arange(len(columns)), np.subtract(stops, starts))
        order = np.argsort(day, kind="stable")  # keys ascending within a date
        text = np.array([date.fromordinal(ordinal).isoformat() for ordinal in on.tolist()], dtype=object)
        yield "".join([f"{date_text},{key_text},{number!r}{lineterminator}" for date_text, key_text, number in zip(
            text[np.searchsorted(on, day[order])].tolist(), prefix[key[order]].tolist(), value[order].tolist())])


def write_factors(panel: FactorPanel, path: str | Path) -> None:
    """Serialize a FactorPanel to the long-format factors schema, streamed
    row by row, each line ending in csv's default ``\\r\\n``."""
    with atomic_open(path) as handle:
        handle.writelines(factor_rows(panel.series, panel.instrument, "\r\n"))
