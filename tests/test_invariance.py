"""The pipeline's invariances, as properties of whole ``report`` runs.

Each property rewrites one input of a small synth history (the weights'
unit or textual form, the addresses, the poll registry), runs ``report`` on
it and compares every artifact with the report of the original history.
"""

from __future__ import annotations

import csv
import io
import math
from collections import defaultdict
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import write_polls_csv, write_votes_csv
from govpulse.centrality import utc_day
from govpulse.cli import exec_command
from govpulse.govdata import ValidationReport, VoteLog, load_polls
from oracles import columns_of, exact_sum_oracle, final_ballots_oracle, load_vote_events_oracle

CONFIG = '{"days": 8, "voter_pool": 40, "polls_per_day": ["constant", 2], "participation_rate": 0.4, "seed": 11}'
CALENDARS = ("drop-missing", "full-calendar")
# report CSVs -> the columns that hold vote totals
TOTAL_COLUMNS = {
    "metrics.csv": ("total_votes",),
    "fig_poll_votes.csv": ("total_votes", "largest_votes"),
    "profiles.csv": ("total_votes", "highest_single_vote"),
}
# report CSVs -> the columns of their Ginis, Lorenz points and grid
# statistics, which a change of weight unit may move in the last bits
CLOSE_COLUMNS = {
    "metrics.csv": ("gini",),
    "fig_gini_series.csv": ("gini",),
    "fig_lorenz.csv": ("population_share", "vote_share"),
}
GRID_COLUMNS = {"ols_grid.csv": ("t1", "p1"), "iv_grid.csv": ("fs_t1", "t1", "p1")}


class History(tuple):
    """(directory, rows of votes.csv and polls.csv, report artifacts by
    calendar), with a short repr for Hypothesis' reports."""

    def __repr__(self) -> str:
        return f"History({self[0]})"


@pytest.fixture(scope="module")
def history(tmp_path_factory):
    """A small synth history: its directory, the rows of votes.csv and
    polls.csv, and the artifacts of its report under each calendar."""
    tmp = tmp_path_factory.mktemp("invariance")
    (tmp / "c.json").write_text(CONFIG)
    assert exec_command(["synth", "--config", str(tmp / "c.json"), "--tokens", "MKR",
                         "--out-dir", str(tmp / "data")]) == 0
    rows = {}
    for name in ("votes", "polls"):
        with open(tmp / "data" / f"{name}.csv", newline="") as handle:
            rows[name] = list(csv.reader(handle))[1:]
    base = {calendar: _report(tmp / "data", tmp / f"base-{calendar}", calendar) for calendar in CALENDARS}
    return History((tmp, rows, base))


def _report(data: Path, out: Path, calendar: str = "drop-missing", votes: Path | None = None,
            polls: Path | None = None) -> dict[str, bytes]:
    argv = ["report", "--votes", str(votes or data / "votes.csv"), "--polls", str(polls or data / "polls.csv"),
            "--factors", str(data / "factors.csv"), "--calendar", calendar, "--formats", "csv,markdown,svg",
            "--out-dir", str(out)]
    assert exec_command(argv) == 0
    return {path.name: path.read_bytes() for path in out.iterdir() if path.name != "run_manifest.json"}


def _table(data: bytes) -> list[dict[str, str]]:
    return list(csv.DictReader(io.StringIO(data.decode(), newline="")))


def _rewritten_votes(tmp: Path, rows: list[list[str]], weight, voter=lambda v: v) -> Path:
    path = tmp / "votes.csv"
    write_votes_csv(path, [(p, voter(v), o, weight(i, w), t) for i, (p, v, o, w, t) in enumerate(rows)])
    return path


def _same_but(got: dict[str, bytes], want: dict[str, bytes], columns: dict[str, tuple[str, ...]]) -> None:
    """Every artifact of ``got`` is byte-identical to that of ``want``,
    except ``columns`` of some CSVs, which the caller checks; those CSVs
    keep their other columns and rows."""
    assert set(got) <= set(want)
    for name in got:
        if name not in columns:
            assert got[name] == want[name], name
            continue
        new, old = _table(got[name]), _table(want[name])
        assert len(new) == len(old), name
        for a, b in zip(new, old):
            assert list(a) == list(b), name
            assert {k: v for k, v in a.items() if k not in columns[name]} == {
                k: v for k, v in b.items() if k not in columns[name]}, name


@settings(max_examples=8, deadline=None)
@given(shift=st.integers(-24, 24))
def test_weight_unit_scales_the_totals_only(history, tmp_path_factory, shift):
    tmp, rows, base = history
    work = tmp_path_factory.mktemp("unit")
    votes = _rewritten_votes(work, rows["votes"], lambda _, w: str(Decimal(w).scaleb(shift)))
    got = _report(tmp / "data", work / "out", votes=votes)
    want = base["drop-missing"]
    moved = {name: TOTAL_COLUMNS.get(name, ()) + CLOSE_COLUMNS.get(name, ())
             for name in {*TOTAL_COLUMNS, *CLOSE_COLUMNS}}
    # the other files print totals or statistics of them (the panel's
    # TotalVotes, descriptives, grids and the tables rendered from them)
    _same_but({name: got[name] for name in [*moved, "fig_daily_counts.csv"]}, want, moved)
    scale = Fraction(10) ** shift
    for name, columns in moved.items():
        for new, old in zip(_table(got[name]), _table(want[name])):
            for column in columns:
                if column in TOTAL_COLUMNS.get(name, ()):
                    assert Fraction(new[column]) == Fraction(old[column]) * scale, (name, column)
                else:
                    assert math.isclose(float(new[column]), float(old[column]), rel_tol=1e-12), (name, column)
    for name, columns in GRID_COLUMNS.items():
        new_rows, old_rows = _table(got[name]), _table(want[name])
        assert [row["status"] for row in new_rows] == [row["status"] for row in old_rows], name
        for new, old in zip(new_rows, old_rows):
            for column in columns if old["status"] == "ok" else ():
                assert math.isclose(float(new[column]), float(old[column]), rel_tol=1e-12), (name, column)


def _equal_form(text: str, zeros: int, style: int) -> str:
    """``text`` written as another decimal of the same value: normalized,
    then given ``zeros`` more trailing zeros, in one of three styles (plain,
    ``<coefficient>E<exponent>``, ``0.<digits>E<exponent>``)."""
    sign, digits, exponent = Decimal(text).normalize().as_tuple()
    digits, exponent = digits + (0,) * zeros, exponent - zeros
    coefficient = "".join(map(str, digits))
    return [
        str(Decimal((sign, digits, exponent))),
        f"{coefficient}E{exponent}",
        f"0.{coefficient}E{exponent + len(digits)}",
    ][style]


def _exact_totals(votes: Path, polls: Path) -> dict[str, dict[str, dict[str, str]]]:
    """The text of every vote total of ``report`` under the last-ballot rule:
    exact sums started at ``Decimal(0)``, and each voter's first-seen
    largest ballot in poll-id and final-ballot order."""
    events, _ = load_vote_events_oracle(votes, polls)
    log = VoteLog(columns_of(events), load_polls(polls, ValidationReport()))
    per_poll, per_day, per_voter = {}, defaultdict(list), defaultdict(list)
    for poll_id in log.poll_ids():
        ballots = final_ballots_oracle(log, poll_id, "last")
        total = exact_sum_oracle(b.weight for b in ballots)
        for ballot in ballots:
            per_voter[ballot.voter].append(ballot.weight)
        if total > 0:
            per_poll[str(poll_id)] = {"total_votes": str(total), "largest_votes": str(ballots[0].weight)}
            per_day[utc_day(log.registry[poll_id].deploy_timestamp).isoformat()].append(total)
    highest = {}
    for voter, weights in per_voter.items():
        highest[voter] = weights[0]
        for weight in weights:
            if weight > highest[voter]:
                highest[voter] = weight
    return {
        "fig_poll_votes.csv": per_poll,
        "metrics.csv": {day: {"total_votes": str(exact_sum_oracle(totals))} for day, totals in per_day.items()},
        "profiles.csv": {
            voter: {"total_votes": str(exact_sum_oracle(weights)), "highest_single_vote": str(highest[voter])}
            for voter, weights in per_voter.items()
        },
    }


@settings(max_examples=8, deadline=None)
@given(forms=st.lists(st.tuples(st.integers(0, 4), st.integers(0, 2)), min_size=1))
def test_equal_weight_forms_keep_every_measure(history, tmp_path_factory, forms):
    tmp, rows, base = history
    work = tmp_path_factory.mktemp("forms")
    votes = _rewritten_votes(work, rows["votes"], lambda i, w: _equal_form(w, *forms[i % len(forms)]))
    got = _report(tmp / "data", work / "out", votes=votes)
    want = base["drop-missing"]
    assert sorted(got) == sorted(want)
    _same_but(got, want, TOTAL_COLUMNS)
    expected = _exact_totals(votes, tmp / "data" / "polls.csv")
    key = {"metrics.csv": "date", "fig_poll_votes.csv": "poll_id", "profiles.csv": "address"}
    for name, columns in TOTAL_COLUMNS.items():
        new_rows = _table(got[name])
        assert len(new_rows) == len(expected[name]), name
        for new, old in zip(new_rows, _table(want[name])):
            for column in columns:
                assert Decimal(new[column]) == Decimal(old[column]), (name, column)
                assert new[column] == expected[name][new[key[name]]][column], (name, column)


@settings(max_examples=8, deadline=None)
@given(names=st.lists(st.text("abcdef0123456789", min_size=1, max_size=12), min_size=40, unique=True))
def test_order_keeping_address_bijection_moves_only_the_addresses(history, tmp_path_factory, names):
    tmp, rows, base = history
    work = tmp_path_factory.mktemp("addresses")
    addresses = sorted({row[1] for row in rows["votes"]})
    assert len(addresses) <= len(names)
    renamed = dict(zip(addresses, sorted(names)))
    votes = _rewritten_votes(work, rows["votes"], lambda _, w: w, renamed.__getitem__)
    got = _report(tmp / "data", work / "out", votes=votes)
    want = base["drop-missing"]
    assert sorted(got) == sorted(want)
    _same_but(got, want, {"profiles.csv": ("address",)})
    assert [row["address"] for row in _table(got["profiles.csv"])] == [
        renamed[row["address"]] for row in _table(want["profiles.csv"])]


@settings(max_examples=6, deadline=None)
@given(days=st.lists(st.integers(-2, 10), min_size=1, max_size=5))
@pytest.mark.parametrize("calendar", CALENDARS)
def test_polls_without_votes_move_only_the_poll_counts(history, tmp_path_factory, calendar, days):
    tmp, rows, base = history
    work = tmp_path_factory.mktemp("empty-polls")
    first = min(int(deploy) for _, deploy, *_ in rows["polls"])
    top = max(int(poll_id) for poll_id, *_ in rows["polls"])
    added = [(top + 1 + i, first + day * 86400 + 3600, f"empty {i}", "1:yes|2:no", "")
             for i, day in enumerate(days)]
    polls = work / "polls.csv"
    write_polls_csv(polls, [*rows["polls"], *added])
    got = _report(tmp / "data", work / "out", calendar, polls=polls)
    want = base[calendar]
    counts = {"metrics.csv": "poll_count", "fig_daily_counts.csv": "polls"}
    assert sorted(got) == sorted(want)
    _same_but({k: v for k, v in got.items() if k != "fig_daily_counts.svg"},
              {k: v for k, v in want.items() if k != "fig_daily_counts.svg"},
              {name: (column,) for name, column in counts.items()})
    extra = defaultdict(int)
    for _, deploy, *_ in added:
        extra[utc_day(deploy).isoformat()] += 1
    for name, column in counts.items():
        for new, old in zip(_table(got[name]), _table(want[name])):
            assert int(new[column]) == int(old[column]) + extra[new["date"]], (name, new["date"])
