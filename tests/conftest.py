"""Shared builders for hand-crafted vote logs and CSV fixtures."""

from __future__ import annotations

import csv
from datetime import datetime, timezone
from decimal import Decimal
from pathlib import Path

import pytest

from govpulse.govdata import PollRecord, VoteEvent, VoteLog
from oracles import columns_of

DAY0 = int(datetime(2021, 3, 1, tzinfo=timezone.utc).timestamp())


def make_poll(poll_id: int, deploy: int, options: int = 3, abstain: tuple[int, ...] = ()) -> PollRecord:
    return PollRecord(
        poll_id=poll_id,
        deploy_timestamp=deploy,
        options=tuple((i, f"option {i}") for i in range(1, options + 1)),
        abstain_option_ids=frozenset(abstain),
        title=f"poll {poll_id}",
    )


def make_log(events: list[tuple], polls: list[PollRecord], identities: dict | None = None) -> VoteLog:
    """Events given as (poll_id, voter, option_id, weight, timestamp) tuples."""
    parsed = [
        VoteEvent(
            poll_id=poll_id,
            voter=voter,
            option_id=option_id,
            weight=Decimal(str(weight)),
            timestamp=timestamp,
        )
        for poll_id, voter, option_id, weight, timestamp in events
    ]
    return VoteLog(columns_of(parsed), {p.poll_id: p for p in polls}, identities or {})


def addr(i: int) -> str:
    return f"0x{i:040x}"


def write_votes_csv(path: Path, rows: list[tuple]) -> None:
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["poll_id", "voter", "option_id", "weight", "timestamp"])
        writer.writerows(rows)


def write_polls_csv(path: Path, rows: list[tuple]) -> None:
    """Rows: (poll_id, deploy_timestamp, title, options, abstain_options)."""
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["poll_id", "deploy_timestamp", "title", "options", "abstain_options"])
        writer.writerows(rows)


def write_factors_csv(path: Path, rows: list[tuple]) -> None:
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["date", "token", "category", "factor", "value"])
        writer.writerows(rows)


def grid_cell(grid, token: str, factor: str, measure: str):
    """The grid's cell for (token, factor, measure), or None."""
    for cell in grid.cells:
        if (cell.token, cell.factor, cell.measure) == (token, factor, measure):
            return cell
    return None


@pytest.fixture
def simple_log() -> VoteLog:
    """Two polls on one day, three voters, one revision."""
    p1, p2 = make_poll(1, DAY0), make_poll(2, DAY0 + 3600)
    events = [
        (1, addr(1), 1, "60", DAY0 + 100),
        (1, addr(2), 2, "40", DAY0 + 200),
        (2, addr(1), 1, "60", DAY0 + 3700),
        (2, addr(2), 1, "40", DAY0 + 3800),
        (2, addr(3), 2, "5", DAY0 + 3900),
        (2, addr(3), 1, "5", DAY0 + 4000),  # revision: final choice is option 1
    ]
    return make_log(events, [p1, p2])
