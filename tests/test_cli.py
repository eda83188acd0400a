"""CLI exit codes, artifacts, manifests and determinism."""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import random
import statistics
import subprocess
import sys
import tracemalloc
import warnings
from argparse import Namespace
from collections import Counter
from datetime import date, timedelta
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import DAY0, write_factors_csv, write_polls_csv, write_votes_csv
import govpulse
from govpulse import centrality, cli, factorlab, govdata, synthgov
from govpulse.cli import exec_command
from govpulse.econ import f_pvalues
from govpulse.govdata import FACTORS_HEADER, FactorPanel, Series, load_factors, load_vote_log, write_factors
from govpulse.report import significance_stars
from oracles import factor_rows_oracle


@pytest.fixture
def synth_dir(tmp_path) -> Path:
    data = tmp_path / "data"
    code = exec_command(
        ["synth", "--out-dir", str(data), "--seed", "5", "--config", _small_config(tmp_path)]
    )
    assert code == 0
    return data


def _small_config(tmp_path) -> str:
    config = {
        "days": 12,
        "polls_per_day": ["constant", 3],
        "voter_pool": 60,
        "participation_rate": 0.3,
        "seed": 5,
    }
    path = tmp_path / "synth_config.json"
    path.write_text(json.dumps(config))
    return str(path)


def test_metrics_command_success(synth_dir, tmp_path):
    out = tmp_path / "out"
    code = exec_command(
        [
            "metrics",
            "--votes", str(synth_dir / "votes.csv"),
            "--polls", str(synth_dir / "polls.csv"),
            "--out-dir", str(out),
        ]
    )
    assert code == 0
    assert (out / "metrics.csv").exists()
    assert (out / "poll_metrics.csv").exists()
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["status"] == "ok"
    assert manifest["version"]
    assert any(key.startswith("votes:") for key in manifest["inputs"])


def test_missing_required_flag_exits_2(tmp_path):
    assert exec_command(["metrics", "--polls", "p.csv", "--out-dir", str(tmp_path)]) == 2


def test_unknown_flag_exits_2(tmp_path):
    assert exec_command(["metrics", "--bogus", "x", "--out-dir", str(tmp_path)]) == 2


def test_unknown_subcommand_exits_2():
    assert exec_command(["frobnicate"]) == 2


def test_fatal_schema_error_exits_1_and_manifest_records_failure(tmp_path):
    (tmp_path / "votes.csv").write_text("wrong,header\n1,2\n")
    write_polls_csv(tmp_path / "polls.csv", [(1, DAY0, "p", "1:yes", "")])
    out = tmp_path / "out"
    code = exec_command(
        [
            "metrics",
            "--votes", str(tmp_path / "votes.csv"),
            "--polls", str(tmp_path / "polls.csv"),
            "--out-dir", str(out),
        ]
    )
    assert code == 1
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["status"] == "failed"
    assert "header" in manifest["error"]


def test_missing_votes_file_exits_1(tmp_path):
    write_polls_csv(tmp_path / "polls.csv", [(1, DAY0, "p", "1:yes", "")])
    code = exec_command(
        [
            "metrics",
            "--votes", str(tmp_path / "nope.csv"),
            "--polls", str(tmp_path / "polls.csv"),
            "--out-dir", str(tmp_path / "out"),
        ]
    )
    assert code == 1


def test_synth_outputs_are_loadable(synth_dir):
    log = load_vote_log(synth_dir / "votes.csv", synth_dir / "polls.csv")
    assert len(log.registry) == 36
    assert len(log.events) > 0
    panel = load_factors(synth_dir / "factors.csv")
    assert len(panel.instrument) > 0
    assert not [a for a in panel.anomalies if a.kind == "unknown factor"]


def test_ingest_reports_counts(synth_dir, tmp_path, capsys):
    out = tmp_path / "out"
    code = exec_command(
        [
            "ingest",
            "--votes", str(synth_dir / "votes.csv"),
            "--polls", str(synth_dir / "polls.csv"),
            "--out-dir", str(out),
        ]
    )
    assert code == 0
    captured = capsys.readouterr().out
    assert "polls: 36" in captured
    assert (out / "validation.csv").exists()


def test_ingest_skips_non_finite_weights(tmp_path):
    votes, polls, out = tmp_path / "votes.csv", tmp_path / "polls.csv", tmp_path / "out"
    write_votes_csv(votes, [
        (1, "0xa", 1, "10", DAY0 + 10),
        (1, "0xb", 1, "NaN", DAY0 + 20),
        (1, "0xc", 2, "sNaN", DAY0 + 30),
        (1, "0xd", 2, "Infinity", DAY0 + 40),
        (1, "0xe", 2, "5", DAY0 + 50),
        (1, "0xf", 2, "1e400", DAY0 + 60),  # finite decimal, infinite float
        (1, "0x1", 2, "-1e400", DAY0 + 70),
        (1, "0x2", 2, "0E-999999999", DAY0 + 80),  # its zeros would flood an exact sum
        (1, "0x3", 2, "1E-1001", DAY0 + 90),
        (1, "0x4", 2, "1E-1000", DAY0 + 100),
    ])
    write_polls_csv(polls, [(1, DAY0, "poll 1", "1:yes|2:no", "")])
    code = exec_command(["ingest", "--votes", str(votes), "--polls", str(polls), "--out-dir", str(out)])
    assert code == 0
    with open(out / "validation.csv", newline="") as handle:
        rows = [row for row in csv.DictReader(handle) if row["kind"] == "bad vote row"]
    assert [row["detail"].split(":")[0] for row in rows] == [
        "line 3", "line 4", "line 5", "line 7", "line 8", "line 9", "line 10",
    ]
    # the counts are the loaded log's: a skipped row (and its voter) counts in no total
    assert (out / "ingest_summary.txt").read_text() == "events: 3\npolls: 1\nvoters: 3\nanomalies: 7\n"


CLEAN_VOTE_LINES = [b"1,0xa,1,10,1614556810", b"2,0xb,2,0.5,2021-03-02T00:00:10Z"]


def _data_rows(lines: list[bytes]) -> int:
    """The rows the CSV reader reads from the data lines as one block (a
    quoted field may run onto the next line), as the loader reads them: a
    row the reader rejects counts as one, a blank row as none."""
    text = b"\n".join([*lines, b""]).decode("utf-8", "surrogateescape")
    reader = csv.reader(io.StringIO(text, newline=""))
    rows = 0
    while True:
        try:
            row = next(reader)
        except StopIteration:
            return rows
        except csv.Error:  # a field over the reader's size limit
            rows += 1
            continue
        rows += bool("".join(row).strip())


@settings(max_examples=50, deadline=None)
@example(lines=[b"1,0x" + b"9" * 131073 + b",1,5,1614556900", b"\xff,\xfe", b"  ,\t,"])
@given(lines=st.lists(
    st.one_of(
        st.binary(max_size=30),
        st.sampled_from(CLEAN_VOTE_LINES),
        st.tuples(st.sampled_from(CLEAN_VOTE_LINES), st.binary(max_size=8)).map(b"".join),
    ).map(lambda line: line.translate(None, b'"\r\n')),
    max_size=6,
))
def test_ingest_reads_any_vote_line_bytes(tmp_path_factory, lines):
    tmp = tmp_path_factory.mktemp("fuzz")
    votes, polls, out = tmp / "votes.csv", tmp / "polls.csv", tmp / "out"
    body = [b"poll_id,voter,option_id,weight,timestamp", *CLEAN_VOTE_LINES, *lines]
    votes.write_bytes(b"\n".join(body) + b"\n")
    write_polls_csv(polls, [(1, DAY0, "poll 1", "1:yes|2:no", ""), (2, DAY0 + 86400, "poll 2", "1:yes|2:no", "")])
    assert exec_command(["ingest", "--votes", str(votes), "--polls", str(polls), "--out-dir", str(out)]) == 0
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert (manifest["status"], manifest["command"]) == ("ok", "ingest")
    log = load_vote_log(votes, polls)
    assert len(log.events) + len(log.report.anomalies) == _data_rows(body[1:])


CLEAN_LINES = {
    "polls": [b"1,1614556800,poll 1,1:yes|2:no,", b'2,2021-03-02T00:00:00Z,"poll, ""two""",1:yes|2:no,2'],
    "identities": [b"0xa,Alice", b'"0xB","Bob, Inc."'],
    "factors": [b"2021-03-01,MKR,financial,Price,10", b'"2021-03-02",MKR,"financial",Price,"11.5"'],
}
# an unquoted field without a quote or comma, or a quoted one holding any byte but a line break
FUZZ_FIELD = st.one_of(
    st.binary(max_size=10).map(lambda field: field.translate(None, b'",\r\n')),
    st.binary(max_size=10).map(lambda field: b'"' + field.translate(None, b"\r\n").replace(b'"', b'""') + b'"'),
)


def _fuzz_lines(clean: list[bytes]):
    return st.lists(st.one_of(
        st.lists(FUZZ_FIELD, min_size=1, max_size=6).map(b",".join),
        st.sampled_from(clean),
        st.tuples(st.sampled_from(clean), FUZZ_FIELD).map(b"".join),
        st.tuples(st.sampled_from(clean), FUZZ_FIELD).map(b",".join),
    ), max_size=6)


def _fuzz_run(tmp, argv: list[str]) -> None:
    """exec_command(argv) with the checks every fuzzed run passes: no
    traceback, an exit code in {0, 1, 2} and a manifest of this run."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = exec_command([*argv, "--out-dir", str(tmp / "out")])
    assert "Traceback" not in err.getvalue()
    assert code in (0, 1, 2)
    if code != 2:
        manifest = json.loads((tmp / "out" / "run_manifest.json").read_text())
        assert (manifest["status"], manifest["command"]) == ("ok" if code == 0 else "failed", argv[0])


def _ingest_fuzzed(tmp, name: str, lines: list[bytes]) -> None:
    """``ingest`` with ``lines`` as the data of the polls or identities file:
    each non-blank row is kept (in place of an earlier row, for a duplicate
    key) or skipped with an anomaly."""
    votes, polls, identities = tmp / "votes.csv", tmp / "polls.csv", tmp / "identities.csv"
    votes.write_bytes(b"\n".join([b"poll_id,voter,option_id,weight,timestamp", *CLEAN_VOTE_LINES]) + b"\n")
    polls.write_bytes(b"\n".join([b"poll_id,deploy_timestamp,title,options,abstain_options",
                                  *(lines if name == "polls" else CLEAN_LINES["polls"])]) + b"\n")
    identities.write_bytes(b"\n".join([b"address,name", *(lines if name == "identities" else [])]) + b"\n")
    _fuzz_run(tmp, ["ingest", "--votes", str(votes), "--polls", str(polls), "--identities", str(identities)])
    load, path, replaced, skipped = {
        "polls": (govdata.load_polls, polls, "duplicate poll id", "bad poll row"),
        "identities": (govdata.load_identities, identities, "duplicate identity", "bad identity row"),
    }[name]
    report = govdata.ValidationReport()
    kept = len(load(path, report))
    kinds = Counter(anomaly.kind for anomaly in report.anomalies)
    assert kept + kinds[replaced] + kinds[skipped] == _data_rows(lines)


@settings(max_examples=40, deadline=None)
@example(lines=[b'"1","1614556800","a ""quoted"", title","1:yes|2:no",""', b'"\xff",1', b'""', b'" ",","'])
@given(lines=_fuzz_lines(CLEAN_LINES["polls"]))
def test_ingest_reads_any_poll_line_bytes(tmp_path_factory, lines):
    _ingest_fuzzed(tmp_path_factory.mktemp("fuzz"), "polls", lines)


@settings(max_examples=40, deadline=None)
@example(lines=[b'"0xc",",,,"', b'"\xff",x', b'""', b'" ",","', b"0xA,again"])
@example(lines=[b"", b'0xa,Alice","', b"\x00"])  # a quoted field that runs onto the next line
@given(lines=_fuzz_lines(CLEAN_LINES["identities"]))
def test_ingest_reads_any_identity_line_bytes(tmp_path_factory, lines):
    _ingest_fuzzed(tmp_path_factory.mktemp("fuzz"), "identities", lines)


@settings(max_examples=30, deadline=None)
@example(lines=[b'"2021-03-01","MKR","financial","Price","1e400"', b'2021-03-02,"MKR ","fin,ancial",Price,3'])
@given(lines=_fuzz_lines(CLEAN_LINES["factors"]))
def test_regress_reads_any_factor_line_bytes(tmp_path_factory, lines):
    tmp = tmp_path_factory.mktemp("fuzz")
    votes, polls, factors = tmp / "votes.csv", tmp / "polls.csv", tmp / "factors.csv"
    votes.write_bytes(b"\n".join([b"poll_id,voter,option_id,weight,timestamp", *CLEAN_VOTE_LINES]) + b"\n")
    write_polls_csv(polls, [(1, DAY0, "poll 1", "1:yes|2:no", ""), (2, DAY0 + 86400, "poll 2", "1:yes|2:no", "")])
    factors.write_bytes(b"\n".join([b"date,token,category,factor,value", *lines]) + b"\n")
    _fuzz_run(tmp, ["regress", "--votes", str(votes), "--polls", str(polls), "--factors", str(factors),
                    "--tokens", "MKR"])


def test_ingest_reports_duplicate_option_ids_once(tmp_path):
    votes, polls, out = tmp_path / "votes.csv", tmp_path / "polls.csv", tmp_path / "out"
    write_votes_csv(votes, [(1, "0xa", 1, "10", DAY0 + 10)])
    write_polls_csv(polls, [(1, DAY0, "poll 1", "1:yes|1:no", "")])
    assert exec_command(["ingest", "--votes", str(votes), "--polls", str(polls), "--out-dir", str(out)]) == 0
    with open(out / "validation.csv", newline="") as handle:
        rows = [(row["kind"], row["detail"]) for row in csv.DictReader(handle)]
    assert rows == [("duplicate option ids", "poll 1")]


@pytest.mark.parametrize("column", ["vote", "deploy"])
@pytest.mark.parametrize("stamp", ["inf", "-inf", "nan", "1e30", "-1e30", "0", "-5"])
def test_out_of_range_timestamp_row_is_skipped(tmp_path, column, stamp):
    votes, polls = tmp_path / "votes.csv", tmp_path / "polls.csv"
    write_votes_csv(votes, [
        (1, "0xa", 1, "10", DAY0 + 10),
        (1, "0xb", 2, "5", stamp if column == "vote" else DAY0 + 20),
        (2, "0xc", 2, "1", DAY0 + 30),
    ])
    write_polls_csv(polls, [
        (1, DAY0, "poll 1", "1:yes|2:no", ""),
        (2, stamp if column == "deploy" else DAY0, "poll 2", "1:yes|2:no", ""),
    ])
    inputs = ["--votes", str(votes), "--polls", str(polls)]
    for command in ("ingest", "metrics", "describe", "report"):
        assert exec_command([command, *inputs, "--out-dir", str(tmp_path / command)]) == 0, command
    with open(tmp_path / "ingest" / "validation.csv", newline="") as handle:
        rows = [(row["kind"], row["detail"].split(":")[0]) for row in csv.DictReader(handle)]
    assert (f"bad {'vote' if column == 'vote' else 'poll'} row", "line 3") in rows


def test_overflowing_poll_sum_keeps_its_gini(tmp_path):
    votes, polls = tmp_path / "votes.csv", tmp_path / "polls.csv"
    write_votes_csv(votes, [
        (1, "0xa", 1, "1e308", DAY0 + 10),  # each weight is a finite float, their sum is not
        (1, "0xb", 2, "1.5e308", DAY0 + 20),
        (2, "0xc", 1, "5", DAY0 + 86400 + 10),
    ])
    write_polls_csv(polls, [
        (1, DAY0, "poll 1", "1:yes|2:no", ""),
        (2, DAY0 + 86400, "poll 2", "1:yes|2:no", ""),
    ])
    inputs = ["--votes", str(votes), "--polls", str(polls)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert exec_command(["metrics", *inputs, "--daily-gini", "pooled_sample",
                             "--out-dir", str(tmp_path / "metrics")]) == 0
        for command in ("describe", "report"):
            assert exec_command([command, *inputs, "--out-dir", str(tmp_path / command)]) == 0, command
    with open(tmp_path / "metrics" / "poll_metrics.csv", newline="") as handle:
        assert abs(float(next(csv.DictReader(handle))["gini"]) - 0.1) <= 1e-12
    with open(tmp_path / "metrics" / "metrics.csv", newline="") as handle:
        assert abs(float(next(csv.DictReader(handle))["gini"]) - 0.1) <= 1e-12


def test_total_beyond_float_range_keeps_the_lorenz_curve(tmp_path):
    votes, polls, out = tmp_path / "votes.csv", tmp_path / "polls.csv", tmp_path / "out"
    write_votes_csv(votes, [
        (1, "0xa", 1, "1e308", DAY0 + 10),  # 0xa's total, 2.5e308, is beyond float range
        (1, "0xb", 2, "5", DAY0 + 20),
        (2, "0xa", 1, "1.5e308", DAY0 + 86400 + 10),
        (2, "0xb", 2, "7", DAY0 + 86400 + 20),
    ])
    write_polls_csv(polls, [
        (1, DAY0, "poll 1", "1:yes|2:no", ""),
        (2, DAY0 + 86400, "poll 2", "1:yes|2:no", ""),
    ])
    assert exec_command(["report", "--votes", str(votes), "--polls", str(polls), "--out-dir", str(out)]) == 0
    with open(out / "fig_lorenz.csv", newline="") as handle:
        assert list(csv.reader(handle))[1:] == [["0.0", "0.0"], ["0.5", "4.8e-308"], ["1.0", "1.0"]]


def _grid_rows(path: Path, measure: str) -> list[dict]:
    with open(path, newline="") as handle:
        return [row for row in csv.DictReader(handle) if row["measure"] == measure]


def test_non_finite_measure_is_a_cell_error(tmp_path):
    votes, polls, factors = tmp_path / "votes.csv", tmp_path / "polls.csv", tmp_path / "factors.csv"
    rows = [(1, "0xa", 1, "1e308", DAY0 + 10), (1, "0xb", 2, "1.5e308", DAY0 + 20)]  # TotalVotes inf
    for day in range(1, 6):
        rows += [(day + 1, f"0x{voter}", 1, str(voter), DAY0 + day * 86400 + voter) for voter in range(1, day + 2)]
    write_votes_csv(votes, rows)
    write_polls_csv(polls, [(day + 1, DAY0 + day * 86400, "p", "1:yes|2:no", "") for day in range(6)])
    factor_rows = []
    for day in range(6):
        stamp = f"2021-03-0{day + 1}"
        factor_rows += [
            (stamp, "MKR", "network", "New", str(3.0 + (day * 7) % 5)),
            (stamp, "MKR", "network", "Active", str(10.0 + (day * 3) % 4)),
            (stamp, "ALL", "instrument", "offchain_voters", str(1.0 + (day * 5) % 6)),
        ]
    write_factors_csv(factors, factor_rows)
    inputs = ["--votes", str(votes), "--polls", str(polls), "--factors", str(factors), "--tokens", "MKR"]
    for command, grid in (("regress", "ols_grid.csv"), ("iv", "iv_grid.csv")):
        both, alone = tmp_path / f"{command}_both", tmp_path / f"{command}_alone"
        assert exec_command([command, *inputs, "--measures", "TotalVotes,Voters", "--out-dir", str(both)]) == 0
        assert exec_command([command, *inputs, "--measures", "Voters", "--out-dir", str(alone)]) == 0
        voters = _grid_rows(both / grid, "Voters")
        assert voters == _grid_rows(alone / grid, "Voters")
        assert any(row["status"] == "ok" for row in voters), command
        statuses = {row["status"] for row in _grid_rows(both / grid, "TotalVotes")}
        assert statuses == {"no data", "error: non-finite value"}, command
    with open(tmp_path / "iv_both" / "instrument_screen.csv", newline="") as handle:
        screen = {row[0]: row[1:] for row in csv.reader(handle) if row}
    assert screen["TotalVotes"] == ["nan", "nan", "", "6"]


def test_log_returns_of_prices_whose_ratio_underflows(tmp_path):
    votes, polls, factors = tmp_path / "votes.csv", tmp_path / "polls.csv", tmp_path / "factors.csv"
    write_votes_csv(votes, [(day + 1, f"0x{voter}", 1, str(voter), DAY0 + day * 86400 + voter)
                            for day in range(6) for voter in range(1, day + 3)])
    write_polls_csv(polls, [(day + 1, DAY0 + day * 86400, "p", "1:yes|2:no", "") for day in range(6)])
    prices = [1e150, 1e-180, 2e-180, 3e-180, 1e-180, 5e-180]  # 1e-180 / 1e150 underflows to 0
    write_factors_csv(factors, [(f"2021-03-0{day + 1}", "MKR", "financial", "Price", repr(price))
                                for day, price in enumerate(prices)])
    out = tmp_path / "out"
    code = exec_command(["report", "--votes", str(votes), "--polls", str(polls), "--factors", str(factors),
                         "--vol", "log", "--out-dir", str(out)])
    assert code == 0
    returns = load_factors(out / "panel.csv").series[("MKR", "financial", "r")]
    assert len(returns) == 5
    assert all(math.isfinite(r) for r in returns.values())
    assert returns[min(returns)] == math.log(1e-180) - math.log(1e150)


def test_prices_whose_squares_overflow(tmp_path):
    votes, polls = tmp_path / "votes.csv", tmp_path / "polls.csv"
    write_votes_csv(votes, [(day + 1, f"0x{voter}", 1, str(voter), DAY0 + day * 86400 + (voter + day) % (day + 2))
                            for day in range(8) for voter in range(1, day + 3)])  # the largest voter's turn varies
    write_polls_csv(polls, [(day + 1, DAY0 + day * 86400, "p", "1:yes|2:no", "") for day in range(8)])
    prices = [1e200, 2.5e200, 1.7e200, 4e200, 3.1e200, 2.2e200, 3.6e200, 1.2e200]
    inputs = ["--votes", str(votes), "--polls", str(polls), "--tokens", "MKR"]

    def price_cells(scale: float, *flags: str) -> list[dict]:
        factors = tmp_path / f"factors_{scale}.csv"
        write_factors_csv(factors, [(f"2021-03-0{day + 1}", "MKR", "financial", "Price", repr(price / scale))
                                    for day, price in enumerate(prices)])
        out = tmp_path / f"out_{scale}_{len(flags)}"
        assert exec_command(["regress", *inputs, "--factors", str(factors), *flags, "--out-dir", str(out)]) == 0
        with open(out / "ols_grid.csv", newline="") as handle:
            return [row for row in csv.DictReader(handle) if row["factor"] == "Price"]

    huge, unit = price_cells(1.0), price_cells(1e200)
    assert len(huge) == len(centrality.MEASURES)
    for big, small in zip(huge, unit):
        assert big["status"] == small["status"] == "ok", big
        for column in ("beta1", "t1", "p1", "r2"):
            assert math.isclose(float(big[column]), float(small[column]), rel_tol=1e-12), (big, column)
    assert {row["status"] for row in price_cells(1.0, "--raw")} == {"error: overflow"}


def _eight_days(tmp_path, weights_of_day) -> list[str]:
    """votes.csv and polls.csv of an 8-day history, one poll a day whose
    ballots weigh ``weights_of_day(day)``; returns their flags."""
    tmp_path.mkdir(exist_ok=True)
    votes, polls = tmp_path / "votes.csv", tmp_path / "polls.csv"
    write_votes_csv(votes, [(day + 1, f"0x{voter}", voter % 2 + 1, weight, DAY0 + day * 86400 + voter)
                            for day in range(8) for voter, weight in enumerate(weights_of_day(day))])
    write_polls_csv(polls, [(day + 1, DAY0 + day * 86400, "p", "1:yes|2:no", "") for day in range(8)])
    return ["--votes", str(votes), "--polls", str(polls)]


def _write_daily_factors(path, series: dict[tuple[str, str, str], list[float]]) -> str:
    write_factors_csv(path, [(f"2021-03-0{day + 1}", *key, repr(value))
                             for key, values in series.items() for day, value in enumerate(values)])
    return str(path)


def test_first_stage_of_a_measure_whose_squares_overflow(tmp_path):
    ks = [3, 1, 4, 1, 5, 9, 2, 6]
    factors = _write_daily_factors(tmp_path / "factors.csv", {
        ("MKR", "financial", "Price"): [10.0, 12.5, 9.0, 14.0, 11.0, 13.5, 10.5, 15.0],
        ("ALL", "instrument", "offchain_voters"): [2.0, 7.0, 1.0, 8.0, 2.5, 8.5, 1.5, 8.0],
    })

    def grid(name: str, big: str, unit: str) -> list[dict]:
        # one vote of `big` and one of k `unit` a day; at 1e160 and k 1e150 the
        # squares of the daily TotalVotes overflow, its centred squares do not
        inputs = _eight_days(tmp_path / name, lambda day: [big, f"{ks[day]}{unit}"])
        out = tmp_path / name / "out"
        assert exec_command(["iv", *inputs, "--factors", factors, "--tokens", "MKR", "--raw",
                             "--measures", "TotalVotes", "--out-dir", str(out)]) == 0
        with open(out / "iv_grid.csv", newline="") as handle:
            return list(csv.DictReader(handle))

    def statuses(rows: list[dict]) -> list[tuple[str, str]]:
        return [(row["factor"], row["status"]) for row in rows]

    huge = grid("huge", "1e160", "e150")
    assert statuses(huge) == statuses(grid("unit", "1e10", ""))
    assert dict(statuses(huge))["Price"] == "ok"  # TotalVotes varies with k, which z does not explain
    # a level 100 times its variation puts the intercept below lstsq's rank
    # cutoff, which is relative to the largest singular value
    far, near = grid("far", "1e155", "e153"), grid("near", "1e5", "e3")
    assert statuses(far) == statuses(near)
    assert dict(statuses(far))["Price"] == "ok"
    for big, small in zip(far, near):
        for column in ("fs_t1", "t1", "p1") if small["status"] == "ok" else ():
            assert math.isclose(float(big[column]), float(small[column]), rel_tol=1e-8), (big, column)


def test_raw_fits_do_not_depend_on_the_weight_unit(synth_dir, tmp_path):
    # weights in wei (x1e18), as on-chain exports write them, fit as the token units do
    with open(synth_dir / "votes.csv", newline="") as handle:
        rows = list(csv.reader(handle))
    wei = tmp_path / "wei_votes.csv"
    write_votes_csv(wei, [[*row[:3], str(Decimal(row[3]).scaleb(18)), row[4]] for row in rows[1:]])
    flags = ["--polls", str(synth_dir / "polls.csv"), "--factors", str(synth_dir / "factors.csv"),
             "--tokens", "MKR", "--raw", "--measures", "TotalVotes"]
    for command, grid, columns in (("regress", "ols_grid.csv", ("t1", "p1", "r2")),
                                   ("iv", "iv_grid.csv", ("fs_t1", "t1", "p1", "durbin_p", "wu_hausman_p"))):
        cells = []
        for votes in (synth_dir / "votes.csv", wei):
            out = tmp_path / f"{command}_{votes.stem}"
            assert exec_command([command, "--votes", str(votes), *flags, "--out-dir", str(out)]) == 0
            cells.append(_grid_rows(out / grid, "TotalVotes"))
        unit, scaled = cells
        assert [row["status"] for row in scaled] == [row["status"] for row in unit], command
        assert sum(row["status"] == "ok" for row in unit) >= 20, command
        for small, big in zip(unit, scaled):
            for column in columns if small["status"] == "ok" else ():
                assert math.isclose(float(big[column]), float(small[column]), rel_tol=1e-8), (command, big, column)


def test_instrument_whose_squares_overflow(tmp_path):
    voters = [1e200, 2.5e200, 1.7e200, 4e200, 3.1e200, 2.2e200, 3.6e200, 1.2e200]
    inputs = _eight_days(tmp_path, lambda day: [str(voter) for voter in range(1, day + 3)])
    factors = _write_daily_factors(tmp_path / "factors.csv", {
        ("MKR", "financial", "Price"): [10.0, 12.5, 9.0, 14.0, 11.0, 13.5, 10.5, 15.0],
        ("ALL", "instrument", "offchain_voters"): voters,
    })
    out = tmp_path / "out"
    assert exec_command(["iv", *inputs, "--factors", factors, "--tokens", "MKR", "--out-dir", str(out)]) == 0
    with open(out / "instrument_screen.csv", newline="") as handle:
        described = list(csv.reader(handle))[-2:]
    stats = dict(zip(described[0], map(float, described[1])))
    scaled = [voter / 1e200 for voter in voters]
    assert math.isfinite(stats["std"])
    assert math.isclose(stats["std"], 1e200 * statistics.stdev(scaled), rel_tol=1e-12)
    assert math.isclose(stats["mean"], 1e200 * statistics.fmean(scaled), rel_tol=1e-12)
    assert (stats["maximum"], stats["minimum"]) == (4e200, 1e200)


def test_grid_commands_import_no_masked_arrays(tmp_path):
    """np.unique and np.intersect1d import numpy.ma (about 12 ms and 1 MB);
    the grids take their samples by searchsorted."""
    data = tmp_path / "data"
    inputs = [f"--{name}={data / name}.csv" for name in ("votes", "polls", "factors")]
    commands = [
        ["synth", "--seed", "5", "--config", _small_config(tmp_path), "--out-dir", str(data)],
        ["report", *inputs, "--formats", "csv,markdown,svg", "--out-dir", str(tmp_path / "report")],
    ]
    script = (
        "import json, sys\n"
        "import govpulse.cli\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    assert govpulse.cli.exec_command(argv) == 0, argv[0]\n"
        "assert 'numpy.ma' not in sys.modules\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(govpulse.__file__).resolve().parents[1])}
    done = subprocess.run([sys.executable, "-c", script, json.dumps(commands)], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def test_no_command_needs_scipy(tmp_path):
    # the child refuses any scipy import, so a command that needed it would exit 1
    script = (
        "import json, sys\n"
        "class NoScipy:\n"
        "    def find_spec(self, name, path=None, target=None):\n"
        "        if name.partition('.')[0] == 'scipy':\n"
        "            raise ImportError('scipy is blocked')\n"
        "sys.meta_path.insert(0, NoScipy())\n"
        "import govpulse.cli\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    code = govpulse.cli.exec_command(argv)\n"
        "    assert code == 0, (argv[0], code)\n"
        "assert 'scipy' not in sys.modules\n"
    )
    data, out = tmp_path / "data", tmp_path / "out"
    inputs = [f"--{name}={data / name}.csv" for name in ("votes", "polls", "factors")]
    commands = [
        ["synth", "--seed", "5", "--config", _small_config(tmp_path), "--out-dir", str(data)],
        ["report", *inputs, "--out-dir", str(out / "report")],
        ["regress", *inputs, "--tokens", "MKR", "--out-dir", str(out / "regress")],
        ["iv", *inputs, "--tokens", "MKR", "--out-dir", str(out / "iv")],
    ]
    src = str(Path(govpulse.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", script, json.dumps(commands)], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    for grid in ("report/ols_grid.csv", "report/iv_grid.csv", "regress/ols_grid.csv", "iv/iv_grid.csv"):
        with open(out / grid, newline="") as handle:
            assert any(row["status"] == "ok" and float(row["p1"]) < 1.0 for row in csv.DictReader(handle)), grid


def test_unexpected_error_records_failed_manifest(synth_dir, tmp_path, monkeypatch, capsys):
    from govpulse import cli

    out = tmp_path / "out"
    argv = ["report", "--votes", str(synth_dir / "votes.csv"), "--polls", str(synth_dir / "polls.csv"),
            "--out-dir", str(out)]
    assert exec_command(argv) == 0

    def boom(*args, **kwargs):
        raise RuntimeError("stage exploded")

    monkeypatch.setattr(cli.centrality, "ballot_pass", boom)
    assert exec_command(argv) == 1
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert (manifest["command"], manifest["status"]) == ("report", "failed")
    assert manifest["error"] == "RuntimeError: stage exploded"
    assert "Traceback" in capsys.readouterr().err


@pytest.mark.parametrize("formats", ["pdf", ","])
def test_rejected_formats_record_a_failed_manifest(synth_dir, tmp_path, formats):
    out = tmp_path / "out"
    argv = ["report", "--votes", str(synth_dir / "votes.csv"), "--polls", str(synth_dir / "polls.csv"),
            "--out-dir", str(out)]
    assert exec_command(argv) == 0
    assert exec_command([*argv, "--formats", formats]) == 1
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert (manifest["command"], manifest["status"]) == ("report", "failed")
    assert manifest["config"]["formats"] == formats
    assert manifest["outputs"] == []


def test_describe_outputs(synth_dir, tmp_path):
    out = tmp_path / "out"
    code = exec_command(
        [
            "describe",
            "--votes", str(synth_dir / "votes.csv"),
            "--polls", str(synth_dir / "polls.csv"),
            "--out-dir", str(out),
        ]
    )
    assert code == 0
    for name in (
        "poll_descriptives.csv",
        "profiles.csv",
        "top_voters_involved_polls.csv",
        "top_voters_total_votes.csv",
        "top_voters_highest_single_vote.csv",
    ):
        assert (out / name).exists(), name
    headers = {name: (out / name).read_text().splitlines()[0]
               for name in ("poll_descriptives.csv", "voter_descriptives.csv")}
    assert headers == {
        "poll_descriptives.csv": "stat,total_votes,total_voters,breakdown_votes,breakdown_ratio,"
                                 "breakdown_voters,largest_votes,largest_share",
        "voter_descriptives.csv": "stat,involved_polls,total_votes,first_poll,highest_single_vote",
    }


def test_regress_and_iv_outputs(synth_dir, tmp_path):
    out = tmp_path / "reg"
    code = exec_command(
        [
            "regress",
            "--votes", str(synth_dir / "votes.csv"),
            "--polls", str(synth_dir / "polls.csv"),
            "--factors", str(synth_dir / "factors.csv"),
            "--tokens", "MKR",
            "--out-dir", str(out),
        ]
    )
    assert code == 0
    assert (out / "ols_grid.csv").exists()
    assert (out / "ols_MKR_financial.md").exists()
    assert (out / "effects_MKR.md").exists()
    assert (out / "panel_notes.txt").exists()
    from govpulse.govdata import load_factors as _lf

    derived = _lf(out / "panel.csv")  # same schema as factors.csv, plus derived rows
    assert any(factor == "v7" for (_, _, factor) in derived.series)

    out_iv = tmp_path / "iv"
    code = exec_command(
        [
            "iv",
            "--votes", str(synth_dir / "votes.csv"),
            "--polls", str(synth_dir / "polls.csv"),
            "--factors", str(synth_dir / "factors.csv"),
            "--tokens", "MKR",
            "--measures", "Voters,Speed",
            "--out-dir", str(out_iv),
        ]
    )
    assert code == 0
    assert (out_iv / "iv_grid.csv").read_text().splitlines()[0] == (
        "token,category,factor,measure,status,fs_beta1,fs_t1,fs_stars,partial_f,beta1,se1,t1,p1,stars,"
        "durbin_stat,durbin_p,wu_hausman_stat,wu_hausman_p,adj_r2,n"
    )
    assert (out_iv / "instrument_screen.csv").exists()


def test_report_grids_match_regress_and_iv(synth_dir, tmp_path):
    data = ["--votes", str(synth_dir / "votes.csv"), "--polls", str(synth_dir / "polls.csv")]
    grid = ["--factors", str(synth_dir / "factors.csv"), "--tokens", "MKR", "--measures", "Voters,Speed"]
    for command, flags in (("report", grid), ("regress", grid), ("iv", grid), ("metrics", []), ("describe", [])):
        argv = [command, *data, *flags, "--out-dir", str(tmp_path / command)]
        assert exec_command(argv) == 0, command
    source = {"ols_grid.csv": "regress", "effects_MKR.md": "regress", "iv_grid.csv": "iv", "metrics.csv": "metrics"}
    source.update((path.name, "regress") for path in (tmp_path / "regress").glob("ols_MKR_*.md"))
    source.update((path.name, "iv") for path in (tmp_path / "iv").glob("iv_MKR_*.md"))
    for name in ("poll_descriptives.csv", "poll_descriptives.md", "profiles.csv", "voter_descriptives.md"):
        source[name] = "describe"
    assert len(source) == 18
    for name, command in source.items():
        assert (tmp_path / "report" / name).read_bytes() == (tmp_path / command / name).read_bytes(), name


def test_bad_measures_flag_exits_1(synth_dir, tmp_path):
    code = exec_command(
        [
            "regress",
            "--votes", str(synth_dir / "votes.csv"),
            "--polls", str(synth_dir / "polls.csv"),
            "--factors", str(synth_dir / "factors.csv"),
            "--measures", "NotAMeasure",
            "--out-dir", str(tmp_path / "x"),
        ]
    )
    assert code == 1


def test_report_runs_structural_checks(synth_dir, tmp_path):
    out = tmp_path / "rep"
    code = exec_command(
        [
            "report",
            "--votes", str(synth_dir / "votes.csv"),
            "--polls", str(synth_dir / "polls.csv"),
            "--factors", str(synth_dir / "factors.csv"),
            "--out-dir", str(out),
            "--formats", "csv,markdown,svg",
        ]
    )
    assert code == 0
    for name in (
        "metrics.csv", "poll_descriptives.md", "gini_summary.md", "measures_summary.md",
        "fig_daily_counts.csv", "fig_poll_votes.csv", "fig_gini_series.csv",
        "fig_lorenz.csv", "fig_daily_counts.svg", "ols_grid.csv", "iv_grid.csv",
    ):
        assert (out / name).exists(), name


def test_describe_checks_voter_totals_against_poll_totals(synth_dir, tmp_path, monkeypatch, capsys):
    from govpulse import cli

    real = cli.profiles.profiles_from_pass
    monkeypatch.setattr(cli.profiles, "profiles_from_pass", lambda *args: real(*args)[1:])
    code = exec_command(["describe", "--votes", str(synth_dir / "votes.csv"),
                         "--polls", str(synth_dir / "polls.csv"), "--out-dir", str(tmp_path / "out")])
    assert code == 1
    assert "identity violated" in capsys.readouterr().err


def test_vote_totals_are_exact(tmp_path, capsys):
    # Weights of about 1e11 with 18 decimals have 30 digits, more than the
    # default decimal context keeps, so rounded poll-order and voter-order
    # sums would disagree and describe would report a violated identity.
    rng = random.Random(4)
    votes, polls = tmp_path / "votes.csv", tmp_path / "polls.csv"
    rows, exact = [], Fraction(0)
    for poll in range(1, 9):
        for voter in range(7):
            weight = f"{rng.randint(10**11, 10**12)}.{rng.randint(0, 10**18 - 1):018d}"
            rows.append((poll, f"0x{voter:x}", 1 + voter % 2, weight, DAY0 + 100 * poll + voter))
            exact += Fraction(weight)
    write_votes_csv(votes, rows)
    write_polls_csv(polls, [(poll, DAY0 + 100 * poll, f"poll {poll}", "1:yes|2:no", "") for poll in range(1, 9)])
    out = tmp_path / "out"
    code = exec_command(["describe", "--votes", str(votes), "--polls", str(polls), "--out-dir", str(out)])
    assert code == 0, capsys.readouterr().err
    with open(out / "profiles.csv", newline="") as handle:
        totals = [Fraction(row["total_votes"]) for row in csv.DictReader(handle)]
    assert sum(totals) == exact
    passed = centrality.ballot_pass(load_vote_log(votes, polls))
    assert sum(Fraction(pm.total_votes) for pm in passed.polls) == exact
    assert sum(Fraction(d.total_votes) for d in centrality.daily_from_pass(passed)) == exact


def test_factors_csv_round_trips_byte_for_byte(synth_dir, tmp_path):
    again = tmp_path / "factors.csv"
    write_factors(load_factors(synth_dir / "factors.csv"), again)
    assert again.read_bytes() == (synth_dir / "factors.csv").read_bytes()
    assert b"\r\n" in again.read_bytes()


def test_panel_csv_loads_back_as_the_built_panel(synth_dir, tmp_path):
    votes, polls, factors = (synth_dir / name for name in ("votes.csv", "polls.csv", "factors.csv"))
    out = tmp_path / "out"
    code = exec_command(["regress", "--votes", str(votes), "--polls", str(polls),
                         "--factors", str(factors), "--out-dir", str(out)])
    assert code == 0
    daily = centrality.daily_from_pass(centrality.ballot_pass(load_vote_log(votes, polls)))
    built = factorlab.build_panel(load_factors(factors), factorlab.measures_from_daily(daily))
    loaded = load_factors(out / "panel.csv")
    # a volatility window longer than the history is an empty series: no rows
    assert loaded.series == {key: series for key, series in built.factors.items() if series}
    assert loaded.instrument == built.instrument
    assert not loaded.anomalies


def _csv_bytes(rows, lineterminator: str) -> bytes:
    """The rows as csv.writer quotes them with the "\\r\\n" terminator (a field
    holding "\\r" or "\\n" is quoted), each line ending in ``lineterminator``."""
    lines = []
    for row in rows:
        buffer = io.StringIO()
        csv.writer(buffer, lineterminator="\r\n").writerow(row)
        lines.append(buffer.getvalue().removesuffix("\r\n") + lineterminator)
    return "".join(lines).encode()


def _panel_run(out_dir: Path) -> cli.Run:
    run = cli.Run(Namespace(command="report", out_dir=out_dir))
    run.formats = ["csv"]
    return run


PANEL_ARGS = {"raw": False, "alpha_stars": (0.1, 0.05, 0.01)}
# key texts csv has to quote (a comma, a quote, a line break of either kind)
# or that are not ASCII; "Price" series get returns and volatilities derived
KEY_TOKENS = ["MKR", " MKR", "a,b", 'q"t', "new\nline", "cr\rret", "é"]
KEY_CATEGORIES = ["financial", "network", "x,y"]
KEY_FACTORS = ["Price", "TxnCnt", 'F"q', "two\nlines"]
# overlapping and disjoint dates, the first and the last ISO date included
PANEL_DAYS = [date(2021, 3, 1) + timedelta(days=k) for k in range(6)] + [date(1, 1, 1), date(9999, 12, 31)]
# 5e-324 then 1e308 makes an infinite return, so a nan volatility
PANEL_VALUES = [1.0, 2.5, -1.0, 0.0, 0.1, 5e-324, 1e308, 1.7976931348623157e308]


def _factor_panel(series: dict, instrument: dict) -> FactorPanel:
    return FactorPanel({key: Series.of(cells) for key, cells in series.items()}, Series.of(instrument))


@st.composite
def raw_panels(draw):
    keys = draw(st.lists(st.tuples(*(st.sampled_from(pool) for pool in (KEY_TOKENS, KEY_CATEGORIES, KEY_FACTORS))),
                         max_size=6, unique=True))
    series = {}
    for key in keys:  # a key may have an empty series
        days = draw(st.lists(st.sampled_from(PANEL_DAYS), max_size=len(PANEL_DAYS), unique=True))
        series[key] = {day: draw(st.sampled_from(PANEL_VALUES)) for day in days}
    days = draw(st.lists(st.sampled_from(PANEL_DAYS), max_size=4, unique=True))
    return _factor_panel(series, {day: draw(st.sampled_from(PANEL_VALUES)) for day in days})


@settings(max_examples=150, deadline=None)
@given(raw=raw_panels(), vol=st.sampled_from(["simple", "log"]))
@example(raw=_factor_panel({}, {}), vol="simple")
@example(raw=_factor_panel({}, {PANEL_DAYS[1]: 2.0, PANEL_DAYS[0]: 1.0}), vol="simple")  # only the instrument
@example(raw=_factor_panel({("cr\rret", "financial", "Price"): dict(zip(PANEL_DAYS, [1.0, 5e-324, 1e308, 2.5])),
                            ("a,b", "network", "two\nlines"): {}}, {}), vol="simple")  # inf and nan derived
def test_factor_files_render_as_the_sorted_rows(tmp_path_factory, raw, vol):
    tmp = tmp_path_factory.mktemp("render")
    header = [FACTORS_HEADER]
    write_factors(raw, tmp / "factors.csv")
    assert (tmp / "factors.csv").read_bytes() == _csv_bytes(
        header + list(factor_rows_oracle(raw.series, raw.instrument)), "\r\n")
    built = factorlab.build_panel(raw, {}, vol_mode=vol)
    cli._emit_panel(Namespace(vol=vol, **PANEL_ARGS), _panel_run(tmp), raw, {})
    assert (tmp / "panel.csv").read_bytes() == _csv_bytes(
        header + list(factor_rows_oracle(built.factors, built.instrument)), "\n")


# texts csv has to quote: a comma, a quote, a line break of either kind
CSV_TEXT = st.text(alphabet='ab ,"\r\né', min_size=1, max_size=5)


@settings(max_examples=10, deadline=None)
@given(names=st.lists(CSV_TEXT, min_size=3, max_size=3))
@example(names=["cr\rret", "a\rb", "new\nline"])
def test_csv_artifacts_read_back_as_the_rows_written(tmp_path_factory, names):
    tmp = tmp_path_factory.mktemp("read-back")
    voters = [f"0x{name}" for name in names]
    write_votes_csv(tmp / "votes.csv", [(1, voter, 1 + i % 2, str(i), DAY0 + 10 + i) for i, voter in enumerate(voters)])
    write_polls_csv(tmp / "polls.csv", [(1, DAY0, "poll", "1:yes|2:no", "")])
    with (tmp / "identities.csv").open("w", newline="") as handle:
        csv.writer(handle).writerows([["address", "name"], *zip(voters, names)])
    write_factors_csv(tmp / "factors.csv", [
        (f"2021-03-0{day}", f"T{names[0]}", category, factor, str(day % 3 + 1.5))
        for day in range(1, 6) for category, factor in (("financial", "Price"), ("network", f"F{names[1]}"))
    ])
    written, built = {}, []
    real_write, real_build = cli._write_csv, factorlab.build_panel

    def recording(path, rows):
        written[path] = rows = [list(map(str, row)) for row in rows]
        real_write(path, rows)

    def building(*args, **kwargs):
        built.append(real_build(*args, **kwargs))
        return built[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "_write_csv", recording)
        patch.setattr(factorlab, "build_panel", building)
        for command in ("ingest", "describe", "regress"):
            inputs = ("votes", "polls", "factors") if command == "regress" else ("votes", "polls", "identities")
            argv = [command, *(f"--{name}={tmp / name}.csv" for name in inputs)]
            assert exec_command([*argv, "--out-dir", str(tmp / command)]) == 0, command
    (panel,) = built
    written[tmp / "regress" / "panel.csv"] = [FACTORS_HEADER, *factor_rows_oracle(panel.factors, panel.instrument)]
    assert {"validation.csv", "profiles.csv", "top_voters_total_votes.csv", "panel.csv"} <= {p.name for p in written}
    for path, rows in written.items():
        with open(path, newline="") as handle:
            assert list(csv.reader(handle)) == rows, path.name


def test_report_panel_csv_is_the_sorted_rendering_of_the_built_panel(synth_dir, tmp_path):
    votes, polls, factors = (synth_dir / name for name in ("votes.csv", "polls.csv", "factors.csv"))
    out = tmp_path / "out"
    assert exec_command(["report", "--votes", str(votes), "--polls", str(polls), "--factors", str(factors),
                         "--vol", "log", "--out-dir", str(out)]) == 0
    daily = centrality.daily_from_pass(centrality.ballot_pass(load_vote_log(votes, polls)))
    built = factorlab.build_panel(load_factors(factors), factorlab.measures_from_daily(daily), vol_mode="log")
    rows = [FACTORS_HEADER, *factor_rows_oracle(built.factors, built.instrument)]
    assert (out / "panel.csv").read_bytes() == _csv_bytes(rows, "\n")


def test_panel_csv_is_streamed_not_held(tmp_path, monkeypatch):
    days = [date(2021, 1, 1) + timedelta(days=k) for k in range(365)]
    raw = _factor_panel({(token, "network", f"F{k}"): {day: 1.0 + k / 7 + i / 3 for i, day in enumerate(days)}
                         for token in ("MKR", "DAI", "UNI") for k in range(100)},
                        {day: float(i) for i, day in enumerate(days)})
    built = factorlab.build_panel(raw, {})
    monkeypatch.setattr(cli.factorlab, "build_panel", lambda *args, **kwargs: built)
    tracemalloc.start()
    try:
        cli._emit_panel(Namespace(vol="simple", **PANEL_ARGS), _panel_run(tmp_path), raw, {})
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    written = (tmp_path / "panel.csv").stat().st_size
    assert sum(map(len, built.factors.values())) + len(built.instrument) >= 100_000
    assert peak < written, f"writing a {written}-byte panel.csv peaked at {peak} traced bytes"


def test_emit_csv_streams_its_rows(tmp_path):
    run = _panel_run(tmp_path)
    tracemalloc.start()
    try:
        run.emit_csv("rows.csv", ([str(i), "some text"] for i in range(100_000)))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    written = (tmp_path / "rows.csv").stat().st_size
    assert peak < written, f"writing a {written}-byte rows.csv peaked at {peak} traced bytes"


def test_report_without_csv_renders_no_panel_row(synth_dir, tmp_path, monkeypatch):
    rendered = []
    real = cli.factor_rows

    def counted(*args):
        for line in real(*args):
            rendered.append(line)
            yield line

    monkeypatch.setattr(cli, "factor_rows", counted)
    out = tmp_path / "out"
    assert exec_command(["report", *(f"--{name}={synth_dir / name}.csv" for name in ("votes", "polls", "factors")),
                         "--formats", "markdown", "--out-dir", str(out)]) == 0
    assert not (out / "panel.csv").exists()
    assert rendered == []


@pytest.mark.parametrize("emit", ["emit_csv", "emit_csv_lines"])
def test_a_row_source_that_fails_midway_leaves_the_old_file(tmp_path, emit):
    run = _panel_run(tmp_path)
    good = [["a", "b"], ["1", "2"]]
    (tmp_path / "panel.csv").write_text("the old file\n")

    def failing():
        for row in good:
            yield row if emit == "emit_csv" else ",".join(row) + "\n"
        raise OSError("disk full")

    with pytest.raises(OSError, match="disk full"):
        getattr(run, emit)("panel.csv", failing())
    assert (tmp_path / "panel.csv").read_text() == "the old file\n"
    assert sorted(path.name for path in tmp_path.iterdir()) == ["panel.csv"]
    assert run.outputs == []


ROW_ORDER_FILES = ("factors.csv", "votes.csv", "polls.csv")


@pytest.fixture(scope="module")
def row_order_inputs(tmp_path_factory):
    """A small synth history, the rows of each of its files, and the report
    of it, every artifact's bytes."""
    tmp = tmp_path_factory.mktemp("row-order")
    assert exec_command(["synth", "--out-dir", str(tmp / "data"), "--config", _small_config(tmp)]) == 0
    rows = {}
    for name in ROW_ORDER_FILES:
        with open(tmp / "data" / name, newline="") as handle:
            rows[name] = list(csv.reader(handle))
    # Two records of one poll in the same second would keep their file order,
    # which decides the poll's `order` measure; the history holds no such pair.
    stamps = [(poll_id, stamp) for poll_id, _, _, _, stamp in rows["votes.csv"][1:]]
    assert len(set(stamps)) == len(stamps)
    return tmp, rows, _report_bytes(tmp / "data", tmp / "base")


def _report_bytes(data: Path, out: Path) -> dict[str, bytes]:
    argv = ["report", *(f"--{name}={data / name}.csv" for name in ("votes", "polls", "factors")),
            "--formats", "csv,markdown,svg", "--out-dir", str(out)]
    assert exec_command(argv) == 0
    return {path.name: path.read_bytes() for path in out.iterdir() if path.name != "run_manifest.json"}


@settings(max_examples=4, deadline=None)
@given(order=st.randoms(use_true_random=False))
@pytest.mark.parametrize("shuffled", ROW_ORDER_FILES)
def test_input_row_order_leaves_every_artifact_unchanged(row_order_inputs, shuffled, order):
    tmp, rows, base = row_order_inputs
    data = tmp / f"shuffled-{shuffled}"
    data.mkdir(exist_ok=True)
    for name, (header, *body) in rows.items():
        if name == shuffled:
            body = list(body)
            order.shuffle(body)
        with (data / name).open("w", newline="") as handle:
            csv.writer(handle).writerows([header, *body])
    assert _report_bytes(data, tmp / "out") == base


def test_stray_category_rows_never_feed_a_grid_cell(synth_dir, tmp_path):
    with open(synth_dir / "factors.csv", newline="") as handle:
        header, *rows = list(csv.reader(handle))
    txn = [row for row in rows if row[1:4] == ["MKR", "transaction", "TxnCnt"]]
    values = [row[4] for row in reversed(txn)]
    stray = [[row[0], "MKR", "network", "TxnCnt", value] for row, value in zip(txn, values)]
    grids = {}
    for name, body in (("clean", rows), ("stray-first", stray + rows), ("stray-last", rows + stray)):
        factors = tmp_path / f"{name}.csv"
        with factors.open("w", newline="") as handle:
            csv.writer(handle).writerows([header, *body])
        inputs = ["--votes", str(synth_dir / "votes.csv"), "--polls", str(synth_dir / "polls.csv"),
                  "--factors", str(factors)]
        out = tmp_path / name
        assert exec_command(["regress", *inputs, "--out-dir", str(out / "regress")]) == 0
        assert exec_command(["iv", *inputs, "--out-dir", str(out / "iv")]) == 0
        grids[name] = ((out / "regress" / "ols_grid.csv").read_bytes(), (out / "iv" / "iv_grid.csv").read_bytes())
        panel_rows = (out / "regress" / "panel.csv").read_text()
        assert ("MKR,network,TxnCnt" in panel_rows) == (name != "clean")  # kept in panel.csv
    assert grids["stray-first"] == grids["clean"]
    assert grids["stray-last"] == grids["clean"]


def test_failed_synth_write_leaves_files_intact(synth_dir, tmp_path, monkeypatch):
    before = {path.name: path.read_bytes() for path in synth_dir.iterdir() if path.name != "run_manifest.json"}

    real = govdata.factor_rows

    def failing_rows(*args):
        yield from real(*args)
        raise OSError("disk full")  # once the last row has been written

    monkeypatch.setattr(govdata, "factor_rows", failing_rows)
    code = exec_command(["synth", "--out-dir", str(synth_dir), "--seed", "5", "--config", _small_config(tmp_path)])
    assert code == 1
    after = {path.name: path.read_bytes() for path in synth_dir.iterdir() if path.name != "run_manifest.json"}
    assert after == before


@pytest.mark.parametrize("config, pinned", [
    pytest.param({"days": 6, "voter_pool": 60, "seed": 3}, {
        "votes.csv": "2bc11250aa184ff39f59004c4f098d38f5b78188525016d250afde405a2efd67",
        "polls.csv": "9871456fad56b887e887e4e763eea9ec25eff50f44154b62f029e93b54542a11",
        "factors.csv": "13e2746b6a060778e14d8db0733060c3f55dcd4a681df43570025e9f892903f8",
    }, id="base"),
    # Mostly forced losses over four options and a heavy tail, so that
    # rivals, reassignment order and infeasible losses all shape the bytes.
    pytest.param({"days": 6, "voter_pool": 60, "seed": 3, "largest_wins_prob": 0.2,
                  "options_per_poll": 4, "holdings_alpha": 1.05}, {
        "votes.csv": "0bac1fdb72dd0c80b0150add77527957aa92da122f3f3009cdb719370632c654",
        "polls.csv": "c5a11aea1c2c5045cd6004e83a957edf950d176f23c3df5191c7ee96783e074e",
        "factors.csv": "974e239624ac650823d460947344bba6b99a0d6c2de95f5708523ae3e07b7569",
    }, id="forced-losses"),
])
def test_synth_bytes_are_pinned(tmp_path, config, pinned):
    out = tmp_path / "synth"
    assert exec_command(["synth", "--config", _write(tmp_path / "c.json", json.dumps(config)),
                         "--tokens", "MKR,DAI", "--out-dir", str(out)]) == 0
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
               for name in ("votes.csv", "polls.csv", "factors.csv")}
    assert digests == pinned


def test_commands_build_no_vote_event(tmp_path, monkeypatch):
    built = []
    init = govdata.VoteEvent.__init__
    monkeypatch.setattr(govdata.VoteEvent, "__init__",
                        lambda self, *args, **kwargs: built.append(args) or init(self, *args, **kwargs))
    data = tmp_path / "data"
    assert exec_command(["synth", "--config", _small_config(tmp_path), "--out-dir", str(data)]) == 0
    inputs = [f"--{name}={data / name}.csv" for name in ("votes", "polls")]
    for command, flags in [("ingest", []), ("metrics", []), ("describe", []),
                           ("report", [f"--factors={data / 'factors.csv'}"])]:
        assert exec_command([command, *inputs, *flags, "--out-dir", str(tmp_path / command)]) == 0
    assert built == []
    assert load_vote_log(data / "votes.csv", data / "polls.csv").events[0] and len(built) > 0  # the count counts


def test_report_bytes_are_pinned(tmp_path):
    data, out = tmp_path / "data", tmp_path / "out"
    config = json.dumps({"days": 20, "voter_pool": 80, "polls_per_day": ["poisson", 1.0], "seed": 3})
    assert exec_command(["synth", "--config", _write(tmp_path / "c.json", config),
                         "--tokens", "MKR,DAI", "--out-dir", str(data)]) == 0
    digests = {name: hashlib.sha256((data / name).read_bytes()).hexdigest()
               for name in ("votes.csv", "polls.csv", "factors.csv")}
    assert digests == {
        "votes.csv": "7586736667720ab4144898e154227ea38713d1dcb53ed3673e60770246d05d0d",
        "polls.csv": "745ade31df9f867e93892792187b3064312f84605de13430e9e2633ce0f7fe90",
        "factors.csv": "491a9d6d97e6e0a4ee091ead223c505e316e7b12110867af971929590be9fde8",
    }
    inputs = [f"--{name}={data / name}.csv" for name in ("votes", "polls", "factors")]
    assert exec_command(["report", *inputs, "--calendar", "full-calendar", "--formats", "csv,markdown,svg",
                         "--out-dir", str(out)]) == 0
    with open(out / "metrics.csv", newline="") as handle:
        assert sum(row["missing_flag"] == "1" for row in csv.DictReader(handle)) == 8
    figures = ("metrics.csv", "fig_daily_counts.csv", "fig_gini_series.csv", "fig_poll_votes.csv",
               "profiles.csv", "fig_lorenz.csv")
    names = sorted([path.name for path in out.glob("*.md")] + list(figures))
    assert len(names) == 27 + len(figures)
    listing = "".join(f"{name} {hashlib.sha256((out / name).read_bytes()).hexdigest()}\n" for name in names)
    assert hashlib.sha256(listing.encode()).hexdigest() == (
        "9b485e190c7c0b0bcd8a211596634ec77ab5fe3d5ee3f99f60aa9ddb451f618d"
    )


def _write(path: Path, text: str) -> str:
    path.write_text(text)
    return str(path)


@pytest.fixture(scope="module")
def pinned_data(tmp_path_factory) -> Path:
    """The 20-day history of ``test_report_bytes_are_pinned``."""
    tmp = tmp_path_factory.mktemp("pinned")
    config = json.dumps({"days": 20, "voter_pool": 80, "polls_per_day": ["poisson", 1.0], "seed": 3})
    assert exec_command(["synth", "--config", _write(tmp / "c.json", config),
                         "--tokens", "MKR,DAI", "--out-dir", str(tmp / "data")]) == 0
    return tmp / "data"


@pytest.mark.parametrize("command, flags, pinned", [
    ("describe", ["--formats", "csv,markdown"], "ff39555f86b9b4f62462dbdc564bd1de9a014200dfe3fe0998a22448c9713ad2"),
    ("ingest", [], "0364557e8efce8e93ad96c1acc9b7dbd4f7b326beb6896c6fcdd93350dc0ad71"),
], ids=["describe", "ingest"])
def test_describe_and_ingest_bytes_are_pinned(pinned_data, tmp_path, command, flags, pinned):
    out = tmp_path / "out"
    inputs = [f"--{name}={pinned_data / name}.csv" for name in ("votes", "polls")]
    assert exec_command([command, *inputs, *flags, "--out-dir", str(out)]) == 0
    names = sorted(path.name for path in out.iterdir() if path.name != "run_manifest.json")
    listing = "".join(f"{name} {hashlib.sha256((out / name).read_bytes()).hexdigest()}\n" for name in names)
    assert hashlib.sha256(listing.encode()).hexdigest() == pinned, listing


def test_manifest_counts_the_anomalies_of_each_input(pinned_data, tmp_path):
    synthesized = json.loads((pinned_data / "run_manifest.json").read_text())
    assert synthesized["anomalies"] == {"forced win (infeasible loss)": 4}
    votes, factors = tmp_path / "votes.csv", tmp_path / "factors.csv"
    votes.write_bytes((pinned_data / "votes.csv").read_bytes() + b"1,0xa,1,heavy,1614556810\r\n")
    with open(pinned_data / "factors.csv", newline="") as handle:
        header, *rows = list(csv.reader(handle))
    prices = [row for row in rows if row[1:4] == ["MKR", "financial", "Price"]]
    prices[0][0], prices[1][4] = "2021-02-30", "-1"
    with factors.open("w", newline="") as handle:
        csv.writer(handle).writerows([header, *rows])
    inputs = [f"--votes={votes}", f"--polls={pinned_data / 'polls.csv'}"]
    assert exec_command(["report", *inputs, f"--factors={factors}", "--out-dir", str(tmp_path / "report")]) == 0
    manifest = json.loads((tmp_path / "report" / "run_manifest.json").read_text())
    assert manifest["anomalies"] == {"bad vote row": 1, "bad factor date": 1, "non-positive price": 1}
    assert exec_command(["ingest", *inputs, "--out-dir", str(tmp_path / "ingest")]) == 0
    manifest = json.loads((tmp_path / "ingest" / "run_manifest.json").read_text())
    with open(tmp_path / "ingest" / "validation.csv", newline="") as handle:
        kinds = Counter(row["kind"] for row in csv.DictReader(handle))
    assert manifest["anomalies"] == kinds and kinds["bad vote row"] == 1


def test_manifest_counts_the_cells_of_each_grid_status(pinned_data, tmp_path):
    inputs = [f"--{name}={pinned_data / name}.csv" for name in ("votes", "polls", "factors")]
    for command, kinds in (("ingest", []), ("regress", ["ols"]), ("iv", ["iv"]), ("report", ["ols", "iv"])):
        out = tmp_path / command
        argv = [command, *(inputs if kinds else inputs[:2]), "--formats", "csv", "--out-dir", str(out)]
        assert exec_command(argv) == 0, command
        tallies = {}
        for kind in kinds:
            with open(out / f"{kind}_grid.csv", newline="") as handle:
                tallies[kind] = dict(Counter(row["status"] for row in csv.DictReader(handle)))
        assert json.loads((out / "run_manifest.json").read_text())["grids"] == tallies, command
    assert set(tallies["ols"]) == {"ok", "no data", "error: degenerate regressor"}
    assert set(tallies["iv"]) == {"ok", "no data"}


def test_an_infinite_return_is_fitted_without_a_warning(pinned_data, tmp_path):
    with open(pinned_data / "factors.csv", newline="") as handle:
        header, *rows = list(csv.reader(handle))
    prices = sorted((row for row in rows if row[1:4] == ["MKR", "financial", "Price"]), key=lambda row: row[0])
    prices[3][4], prices[4][4] = "5e-324", "1e308"  # a simple return of inf on the fifth price's day
    factors = tmp_path / "factors.csv"
    with factors.open("w", newline="") as handle:
        csv.writer(handle).writerows([header, *rows])
    out = tmp_path / "out"
    inputs = [f"--{name}={pinned_data / name}.csv" for name in ("votes", "polls")]
    assert exec_command(["regress", *inputs, f"--factors={factors}", "--tokens", "MKR", "--out-dir", str(out)]) == 0
    with open(out / "panel.csv", newline="") as handle:
        derived = {(row[3], row[0]): row[4] for row in csv.reader(handle) if row[1:3] == ["MKR", "financial"]}
    day, next_day = prices[4][0], prices[5][0]
    assert (derived["r", day], derived["v2", day], derived["v2", next_day]) == ("inf", "nan", "nan")
    with open(out / "ols_grid.csv", newline="") as handle:
        statuses = {row["status"] for row in csv.DictReader(handle) if row["factor"] in govdata.DERIVED_FINANCIAL}
    assert "error: non-finite value" in statuses


def test_report_without_factors_still_emits_tables(synth_dir, tmp_path):
    out = tmp_path / "rep2"
    code = exec_command(
        [
            "report",
            "--votes", str(synth_dir / "votes.csv"),
            "--polls", str(synth_dir / "polls.csv"),
            "--out-dir", str(out),
        ]
    )
    assert code == 0
    assert (out / "metrics.csv").exists()
    assert not (out / "ols_grid.csv").exists()


def test_report_lorenz_follows_ballot_rule(tmp_path):
    votes, polls, out = tmp_path / "votes.csv", tmp_path / "polls.csv", tmp_path / "out"
    write_votes_csv(votes, [
        (1, "0xa", 1, "10", DAY0 + 10),
        (1, "0xb", 2, "5", DAY0 + 20),
        (1, "0xa", 2, "40", DAY0 + 30),
    ])
    write_polls_csv(polls, [(1, DAY0, "poll 1", "1:yes|2:no", "")])
    code = exec_command(
        ["report", "--votes", str(votes), "--polls", str(polls), "--ballot", "first", "--out-dir", str(out)]
    )
    assert code == 0
    with open(out / "profiles.csv", newline="") as handle:
        totals = {row["address"]: row["total_votes"] for row in csv.DictReader(handle)}
    assert totals == {"0xa": "10", "0xb": "5"}
    with open(out / "fig_lorenz.csv", newline="") as handle:
        points = [float(value) for row in list(csv.reader(handle))[1:] for value in row]
    assert points == pytest.approx([0.0, 0.0, 0.5, 1 / 3, 1.0, 1.0], rel=1e-12)


def test_each_command_derives_final_ballots_once_per_poll(synth_dir, tmp_path, monkeypatch):
    calls: Counter = Counter()
    original = govdata.final_ballots

    def counted(log, poll_id, rule="last"):
        calls[poll_id] += 1
        return original(log, poll_id, rule=rule)

    for name, module in list(sys.modules.items()):
        if name.startswith("govpulse"):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted)
    data = ["--votes", str(synth_dir / "votes.csv"), "--polls", str(synth_dir / "polls.csv")]
    factors = ["--factors", str(synth_dir / "factors.csv"), "--tokens", "MKR"]
    runs = {
        "report": ["report", *data, *factors],
        "metrics": ["metrics", *data],
        "describe": ["describe", *data],
        "regress": ["regress", *data, *factors],
        "iv": ["iv", *data, *factors, "--measures", "Voters"],
        "synth": ["synth", "--seed", "5", "--config", _small_config(tmp_path)],
    }
    for command, argv in runs.items():
        calls.clear()
        assert exec_command([*argv, "--out-dir", str(tmp_path / command)]) == 0, command
        assert calls and max(calls.values()) == 1, (command, calls.most_common(1))


def test_runs_are_reproducible(synth_dir, tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        code = exec_command(
            [
                "report",
                "--votes", str(synth_dir / "votes.csv"),
                "--polls", str(synth_dir / "polls.csv"),
                "--factors", str(synth_dir / "factors.csv"),
                "--out-dir", str(out),
            ]
        )
        assert code == 0
        outs.append(out)
    for name in ("metrics.csv", "ols_grid.csv", "iv_grid.csv", "poll_descriptives.csv"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_synth_deterministic_under_same_seed(tmp_path):
    config = _small_config(tmp_path)
    dirs = []
    for name in ("s1", "s2"):
        out = tmp_path / name
        assert exec_command(["synth", "--out-dir", str(out), "--config", config]) == 0
        dirs.append(out)
    for name in ("votes.csv", "polls.csv", "factors.csv"):
        assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()


def test_synth_tokens_drop_blank_names(tmp_path):
    config = _small_config(tmp_path)
    for name, tokens in (("plain", "MKR"), ("blank", " MKR ,")):
        assert exec_command(["synth", "--out-dir", str(tmp_path / name), "--config", config,
                             "--tokens", tokens]) == 0
    assert (tmp_path / "blank" / "factors.csv").read_bytes() == (tmp_path / "plain" / "factors.csv").read_bytes()


@pytest.mark.parametrize("command", ["synth", "regress"])
@pytest.mark.parametrize("tokens", [",", " , ", ""], ids=["comma", "blanks", "empty"])
def test_tokens_naming_no_token_fail(synth_dir, tmp_path, capsys, command, tokens):
    out = tmp_path / "out"
    argv = [command, "--tokens", tokens, "--out-dir", str(out)]
    if command == "regress":
        argv += [f"--{name}={synth_dir / name}.csv" for name in ("votes", "polls", "factors")]
    assert exec_command(argv) == 1
    assert "--tokens names no token" in capsys.readouterr().err
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert (manifest["command"], manifest["status"]) == (command, "failed")
    assert not (out / "ols_grid.csv").exists() and not (out / "votes.csv").exists()


def test_synth_rejects_unknown_config_fields(tmp_path, capsys):
    out = tmp_path / "out"
    config = _write(tmp_path / "c.json", json.dumps({"days": 3, "bogus": 1, "extra": 2}))
    assert exec_command(["synth", "--config", config, "--out-dir", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == "error: unknown synth config fields: bogus, extra\n"
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["status"] == "failed"
    assert manifest["error"] == "unknown synth config fields: bogus, extra"
    # values the generator cannot honour are refused by name, not adjusted
    for field, value, error in (
        ("options_per_poll", 1, "options_per_poll must be at least 2, got 1"),
        ("holdings_scale", 0, "holdings_scale must be positive, got 0"),
        ("holdings_scale", -5, "holdings_scale must be positive, got -5"),
        ("days", 0, "days must be at least 1, got 0"),
        ("days", -3, "days must be at least 1, got -3"),
    ):
        out = tmp_path / f"{field}{value}"
        config = _write(tmp_path / "c.json", json.dumps({field: value}))
        assert exec_command(["synth", "--config", config, "--out-dir", str(out)]) == 1
        assert _only_the_failed_manifest(out, "synth") == error


@pytest.mark.parametrize("config, error", [
    pytest.param({"holdings_alpha": math.nan}, "holdings_alpha must be finite, got nan", id="nan-alpha"),
    pytest.param({"turnout_tilt": math.nan}, "turnout_tilt must be finite, got nan", id="nan-tilt"),
    pytest.param({"holdings_scale": math.inf}, "holdings_scale must be finite, got inf", id="infinite-scale"),
    pytest.param({"vote_delay": ["constant", math.inf]}, "vote_delay parameters must be finite, got [inf]",
                 id="infinite-vote-delay"),
    pytest.param({"polls_per_day": ["uniform", 1, math.nan]}, "polls_per_day parameters must be finite, got [1.0, nan]",
                 id="nan-polls-per-day"),
    pytest.param({"polls_per_day": ["constant", 1e12]}, "polls_per_day drew 1000000000000 polls for day 0, over 10000",
                 id="too-many-polls"),
    # a value of the wrong type is refused by name, never converted
    pytest.param({"days": 1.5}, "days must be an int, got 1.5", id="float-days"),
    pytest.param({"days": True}, "days must be an int, got True", id="bool-days"),
    pytest.param({"seed": "x"}, "seed must be an int, got 'x'", id="text-seed"),
    pytest.param({"voter_pool": 2.5}, "voter_pool must be an int, got 2.5", id="float-pool"),
    pytest.param({"options_per_poll": 2.0}, "options_per_poll must be an int, got 2.0", id="float-options"),
    pytest.param({"start_day": 5}, "start_day must be an ISO date, got 5", id="int-start-day"),
    pytest.param({"start_day": "2021-13-01"}, "start_day must be an ISO date, got '2021-13-01'", id="bad-start-day"),
    pytest.param({"participation_rate": "0.3"}, "participation_rate must be a number, got '0.3'", id="text-rate"),
    pytest.param({"turnout_tilt": False}, "turnout_tilt must be a number, got False", id="bool-tilt"),
    pytest.param({"polls_per_day": "abc"}, "polls_per_day: not a number or a [kind, parameter, ...] list: 'abc'",
                 id="text-polls-per-day"),
    pytest.param({"polls_per_day": ["poisson", "3"]},
                 "polls_per_day: not a number or a [kind, parameter, ...] list: ['poisson', '3']", id="text-parameter"),
    pytest.param({"polls_per_day": ["poisson"]}, "polls_per_day: poisson takes 1 parameter, got 0", id="no-parameter"),
    pytest.param({"polls_per_day": ["constant", 1, 2]}, "polls_per_day: constant takes 1 parameter, got 2",
                 id="two-constants"),
    pytest.param({"vote_delay": ["uniform", 5]}, "vote_delay: uniform takes 2 parameters, got 1", id="one-bound"),
    pytest.param({"polls_per_day": ["poisson", -1]}, "polls_per_day: poisson parameter must not be negative, got -1.0",
                 id="negative-poisson"),
    pytest.param({"vote_delay": ["exponential", -2]},
                 "vote_delay: exponential parameter must not be negative, got -2.0", id="negative-exponential"),
    pytest.param({"vote_delay": ["weibull", 1], "participation_rate": 0},
                 "vote_delay: unknown distribution kind: 'weibull'", id="unknown-kind-without-votes"),
    # a value the generator could take but cannot honour
    pytest.param({"seed": -1}, "seed must not be negative, got -1", id="negative-seed"),
    pytest.param({"polls_per_day": ["uniform", 5, 1]},
                 "polls_per_day: uniform high bound must not be below its low bound, got [5.0, 1.0]",
                 id="reversed-uniform-polls"),
    pytest.param({"vote_delay": ["uniform", 5, 1]},
                 "vote_delay: uniform high bound must not be below its low bound, got [5.0, 1.0]",
                 id="reversed-uniform-delay"),
    pytest.param({"voter_pool": 100000000000}, "voter_pool must be at most 1000000, got 100000000000",
                 id="huge-pool"),
    pytest.param({"options_per_poll": 100000000000}, "options_per_poll must be at most 1000, got 100000000000",
                 id="huge-options"),
    pytest.param({"days": 100000000}, "days must be at most 2914269 to end by 9999-12-31, got 100000000",
                 id="days-past-9999"),
    pytest.param({"start_day": "9999-12-30"}, "days must be at most 2 to end by 9999-12-31, got 3", id="last-days"),
])
def test_synth_refuses_what_it_cannot_generate(tmp_path, config, error):
    out = tmp_path / "out"
    config = _write(tmp_path / "c.json", json.dumps({"days": 3, "voter_pool": 20, **config}))
    assert exec_command(["synth", "--config", config, "--out-dir", str(out)]) == 1
    assert _only_the_failed_manifest(out, "synth") == error


@pytest.mark.parametrize("config, error", [
    pytest.param({"start_day": "9999-12-30", "days": 2}, "would get a vote at", id="votes-after-9999"),
    pytest.param({"vote_delay": ["constant", 1e30]}, "would get a vote at", id="far-vote-delay"),
    pytest.param({"start_day": "1969-12-31"}, "would deploy at -", id="deploys-before-1970"),
    pytest.param({"start_day": "9999-12-31", "days": 1}, "would get a vote at", id="last-day"),
    pytest.param({"participation_rate": 0}, "metrics must be non-empty", id="no-votes"),
])
def test_synth_that_cannot_be_loaded_writes_only_the_manifest(tmp_path, config, error):
    out = tmp_path / "out"
    config = _write(tmp_path / "c.json", json.dumps({"days": 3, "voter_pool": 20, "seed": 1, **config}))
    assert exec_command(["synth", "--config", config, "--out-dir", str(out)]) == 1
    assert error in _only_the_failed_manifest(out, "synth")


def test_describe_ranks_on_exact_totals(tmp_path):
    # The two totals differ only in the 30th significant digit, beyond the
    # default decimal context, so a ranking on rounded values ties them.
    votes, polls, out = tmp_path / "votes.csv", tmp_path / "polls.csv", tmp_path / "out"
    write_votes_csv(votes, [
        (1, "0x01", 1, "123456789012.123456789012345678", DAY0 + 10),
        (1, "0x02", 2, "123456789012.123456789012345679", DAY0 + 20),
    ])
    write_polls_csv(polls, [(1, DAY0, "poll 1", "1:yes|2:no", "")])
    assert exec_command(["describe", "--votes", str(votes), "--polls", str(polls), "--out-dir", str(out)]) == 0
    for criterion in ("total_votes", "highest_single_vote"):
        with open(out / f"top_voters_{criterion}.csv", newline="") as handle:
            assert [row["address"] for row in csv.DictReader(handle)] == ["0x02", "0x01"]


def test_version_flag():
    assert exec_command(["--version"]) == 0


# Functions the benchmark's tracer wraps that the program no longer has; their
# per-layer metrics read 0. A program change may shrink this set, never grow it.
STALE_TRACED_NAMES = {
    "centrality.all_poll_metrics", "centrality.daily_metrics", "factorlab.panel_rows",
    "profiles.poll_descriptives", "profiles.voter_profiles", "report.pooled_voter_totals",
}


def test_tracer_finds_every_traced_function(tmp_path):
    root = Path(__file__).resolve().parents[1]
    trace = tmp_path / "trace.json"
    subprocess.run([sys.executable, str(root / "perfbench" / "tracer.py"), "--src", str(root / "src"),
                    "--out", str(trace), "--", "--version"], check=True, capture_output=True, timeout=120)
    assert set(json.loads(trace.read_text())["absent"]) <= STALE_TRACED_NAMES


def test_alpha_stars_flag(synth_dir, tmp_path):
    base = [
        "regress",
        "--votes", str(synth_dir / "votes.csv"),
        "--polls", str(synth_dir / "polls.csv"),
        "--factors", str(synth_dir / "factors.csv"),
        "--tokens", "MKR",
    ]
    assert exec_command(base + ["--alpha-stars", "0.2,0.1,0.05", "--out-dir", str(tmp_path / "ok")]) == 0
    assert exec_command(base + ["--alpha-stars", "0.01,0.05,0.10", "--out-dir", str(tmp_path / "bad")]) == 1
    assert exec_command(base + ["--alpha-stars", "0.125,0.05,0.01", "--out-dir", str(tmp_path / "exact")]) == 0
    title = (tmp_path / "exact" / "effects_MKR.md").read_text().splitlines()[0]
    assert title == "Effects summary (MKR); factors significant at 12.5%."  # not rounded to a whole percent

    loose = (0.2, 0.1, 0.05)
    out = tmp_path / "report"
    argv = ["report", *base[1:], "--alpha-stars", "0.2,0.1,0.05", "--out-dir", str(out)]
    assert exec_command(argv) == 0
    drawn = []  # (stars written, p-value) of every starred column
    for name, p_column in (("ols_grid.csv", "p1"), ("iv_grid.csv", "p1"), ("instrument_screen.csv", "p_value")):
        with open(out / name, newline="") as handle:
            lines = handle.read().split("\n\n")[0].splitlines()  # the screen's descriptives follow a blank line
        rows = [row for row in csv.DictReader(lines) if row["stars"] or row[p_column]]
        assert rows, name
        drawn += [(row["stars"], float(row[p_column])) for row in rows]
        drawn += [(row["fs_stars"], f_pvalues(np.array([float(row["fs_t1"]) ** 2]), int(row["n"]) - 2)[0])
                  for row in rows if "fs_stars" in row]
    for stars, p in drawn:
        assert stars == significance_stars(p, loose), (stars, p)
    assert any(stars != significance_stars(p) for stars, p in drawn)


def test_iv_without_instrument_rows_fails_politely(synth_dir, tmp_path):
    import csv as _csv

    stripped = tmp_path / "factors_noinst.csv"
    with open(synth_dir / "factors.csv") as src, open(stripped, "w", newline="") as dst:
        writer = _csv.writer(dst)
        for row in _csv.reader(src):
            if len(row) < 3 or row[2] != "instrument":
                writer.writerow(row)
    code = exec_command(
        [
            "iv",
            "--votes", str(synth_dir / "votes.csv"),
            "--polls", str(synth_dir / "polls.csv"),
            "--factors", str(stripped),
            "--out-dir", str(tmp_path / "out"),
        ]
    )
    assert code == 1


_IO = {"votes": "v.csv", "polls": "p.csv", "out_dir": "o", "formats": "csv,markdown"}
_ID = {**_IO, "identities": None}
_METRIC = {"ballot": "last", "order": "last", "daily_gini": "mle"}
_GRID = {"tokens": None, "measures": None, "raw": False, "vol": "simple", "alpha_stars": None}


@pytest.mark.parametrize("command, extra, parsed", [
    ("ingest", [], _ID),
    ("metrics", [], {**_IO, **_METRIC, "calendar": "drop-missing"}),
    ("describe", [], {**_ID, "ballot": "last", "top": 10}),
    ("regress", ["--factors", "f.csv"], {**_IO, **_METRIC, **_GRID, "factors": "f.csv"}),
    ("iv", ["--factors", "f.csv"], {**_IO, **_METRIC, **_GRID, "factors": "f.csv"}),
    ("report", [], {**_ID, **_METRIC, **_GRID, "factors": None, "calendar": "drop-missing"}),
    ("synth", None, {"out_dir": "o", "config": None, "seed": None, "tokens": "MKR,DAI"}),
])
def test_parser_keys_and_defaults_are_pinned(command, extra, parsed):
    from govpulse.cli import build_parser

    argv = ["--out-dir", "o"] if extra is None else ["--votes", "v.csv", "--polls", "p.csv", "--out-dir", "o", *extra]
    values = vars(build_parser().parse_args([command, *argv]))
    del values["func"]
    assert values == {"command": command, **parsed}


def test_synth_drops_repeated_tokens(tmp_path):
    config = _small_config(tmp_path)
    for name, tokens in (("once", "MKR"), ("twice", "MKR,MKR")):
        assert exec_command(["synth", "--out-dir", str(tmp_path / name), "--config", config,
                             "--tokens", tokens]) == 0
    assert (tmp_path / "twice" / "factors.csv").read_bytes() == (tmp_path / "once" / "factors.csv").read_bytes()


def test_regress_drops_repeated_tokens(synth_dir, tmp_path):
    inputs = [f"--{name}={synth_dir / name}.csv" for name in ("votes", "polls", "factors")]
    for name, tokens in (("once", "MKR"), ("twice", "MKR,MKR")):
        assert exec_command(["regress", *inputs, "--tokens", tokens, "--out-dir", str(tmp_path / name)]) == 0
    grid = (tmp_path / "twice" / "ols_grid.csv").read_bytes()
    assert grid == (tmp_path / "once" / "ols_grid.csv").read_bytes()
    assert len(grid.decode().splitlines()) == 1 + 259


def test_iv_drops_repeated_measures(synth_dir, tmp_path):
    inputs = [f"--{name}={synth_dir / name}.csv" for name in ("votes", "polls", "factors")]
    for name, measures in (("once", "Voters"), ("twice", "Voters,Voters")):
        argv = ["iv", *inputs, "--tokens", "MKR", "--measures", measures, "--out-dir", str(tmp_path / name)]
        assert exec_command(argv) == 0
    assert (tmp_path / "twice" / "iv_grid.csv").read_bytes() == (tmp_path / "once" / "iv_grid.csv").read_bytes()


_OPTION_TAKERS = {
    "--formats": ("ingest", "metrics", "describe", "regress", "iv", "report"),
    "--alpha-stars": ("regress", "iv", "report"),
    "--measures": ("regress", "iv", "report"),
    "--top": ("describe",),
    "--tokens": ("synth", "regress", "iv", "report"),
}


# --tokens values with a name that holds a path separator or a control
# character, and the error's rendering of that name
_PATH_TOKENS = {"MKR,x/../y": "'x/../y'", "a\\b": "'a\\\\b'", "t\tb,DAI": "'t\\tb'"}


@pytest.mark.parametrize("command, option, value", [
    pytest.param(command, option, value, id=f"{command}{option}={value}")
    for option, value in (("--formats", "pdf"), ("--alpha-stars", "0.01,0.05,0.10"), ("--alpha-stars", "inf,0.05,0.01"),
                          ("--alpha-stars", "5,0.05,0.01"), ("--alpha-stars", "abc,0.05,0.01"),
                          ("--alpha-stars", "0.1,,0.01"), ("--measures", "NotAMeasure"),
                          ("--top", "0"), ("--tokens", ","), ("--tokens", "FOO"), ("--tokens", "mkr"),
                          *(("--tokens", value) for value in _PATH_TOKENS))
    for command in _OPTION_TAKERS[option]
    if not (command == "synth" and value in ("FOO", "mkr"))  # synth reads no factors file to hold a name
])
def test_rejected_option_leaves_only_the_manifest(synth_dir, tmp_path, command, option, value):
    out = tmp_path / "out"
    argv = [command, option, value, "--out-dir", str(out)]
    if command != "synth":
        argv += [f"--{name}={synth_dir / name}.csv" for name in ("votes", "polls")]
    if command in ("regress", "iv", "report"):
        argv.append(f"--factors={synth_dir / 'factors.csv'}")
    assert exec_command(argv) == 1
    assert [path.name for path in out.iterdir()] == ["run_manifest.json"]
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert (manifest["command"], manifest["status"], manifest["outputs"]) == (command, "failed", [])
    if value in ("FOO", "mkr"):
        assert manifest["error"] == f"--tokens names tokens the factors file does not hold: {value}"
    if value in _PATH_TOKENS:  # refused before any input is read
        error = f"--tokens names that hold '/', '\\' or a control character: {_PATH_TOKENS[value]}"
        assert manifest["error"] == error
        assert manifest["inputs"] == {}
    if value in ("abc,0.05,0.01", "0.1,,0.01"):  # a threshold that is not a number
        assert manifest["error"] == "--alpha-stars needs three descending thresholds below 1, e.g. 0.10,0.05,0.01"


def _only_the_failed_manifest(out: Path, command: str) -> str:
    """The error of a run that wrote nothing but its ``failed`` manifest."""
    assert [path.name for path in out.iterdir()] == ["run_manifest.json"]
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert (manifest["command"], manifest["status"], manifest["outputs"]) == (command, "failed", [])
    return manifest["error"]


@pytest.mark.parametrize("flag, value, error", [
    *(pytest.param("--measures", value, "--measures names no measure", id=value) for value in (",", " , ", "")),
    *(pytest.param("--alpha-stars", value, "--alpha-stars names no threshold", id=f"alpha-stars{value}")
      for value in (",", " , ", "")),
])
@pytest.mark.parametrize("command", ["regress", "iv", "report"])
def test_measures_naming_no_measure_leaves_only_the_manifest(synth_dir, tmp_path, command, flag, value, error):
    out = tmp_path / "out"
    argv = [command, flag, value, "--out-dir", str(out)]
    argv += [f"--{name}={synth_dir / name}.csv" for name in ("votes", "polls", "factors")]
    assert exec_command(argv) == 1
    assert _only_the_failed_manifest(out, command) == f"{error}: {value!r}"


@pytest.mark.parametrize("token", ["x/../../../escaped", "a\\..\\escaped", " ", "t\tb"],
                         ids=["slash", "backslash", "blank", "tab"])
def test_factor_token_that_names_a_path_writes_no_file_outside_the_out_dir(synth_dir, tmp_path, token):
    """The MKR rows renamed to ``token`` are skipped as ``bad factor token``,
    each at its line; the instrument rows carry it too, and stay read."""
    with open(synth_dir / "factors.csv", newline="") as handle:
        rows = list(csv.reader(handle))
    renamed = [row[:1] + [token] + row[2:] if row[1] in ("MKR", "ALL") else row for row in rows]
    factors = tmp_path / "factors.csv"
    with open(factors, "w", newline="") as handle:
        csv.writer(handle).writerows(renamed)
    out = tmp_path / "trav" / "a" / "b" / "c" / "out"
    argv = ["report", *(f"--{name}={synth_dir / name}.csv" for name in ("votes", "polls")),
            f"--factors={factors}", "--out-dir", str(out)]
    assert exec_command(argv) == 0
    written = [path for path in (tmp_path / "trav").rglob("*") if not path.is_dir()]
    assert written and all(path.parent == out for path in written)
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["anomalies"]["bad factor token"] == sum(row[1] == "MKR" for row in rows)
    assert sorted(name for name in manifest["outputs"] if name.startswith("effects_")) == ["effects_DAI.md"]
    assert "iv_grid.csv" in manifest["outputs"]
    assert sorted(path.name for path in written) == sorted([*manifest["outputs"], "run_manifest.json"])


def test_flagged_factor_rows_name_no_grid_token(synth_dir, tmp_path):
    """A row of an unknown category and one of a catalogue category with a
    factor the catalogue does not list are kept, flagged, but their tokens
    name no artifact and add no grid cell, and --tokens cannot name them."""
    factors = tmp_path / "factors.csv"
    factors.write_text((synth_dir / "factors.csv").read_text()
                       + "2021-01-05,FOO,bogus,X,1\r\n2021-01-05,BAR,financial,Nope,1\r\n")
    runs = {}
    for name, path in (("plain", synth_dir / "factors.csv"), ("flagged", factors)):
        out = tmp_path / name
        argv = ["report", *(f"--{kind}={synth_dir / kind}.csv" for kind in ("votes", "polls")),
                f"--factors={path}", "--out-dir", str(out)]
        assert exec_command(argv) == 0
        runs[name] = json.loads((out / "run_manifest.json").read_text())
    assert runs["flagged"]["outputs"] == runs["plain"]["outputs"]
    assert runs["flagged"]["grids"] == runs["plain"]["grids"]
    assert {kind: runs["flagged"]["anomalies"][kind] for kind in ("unknown category", "unknown factor")} == {
        "unknown category": 1, "unknown factor": 1}
    for token in ("FOO", "BAR"):
        out = tmp_path / f"tokens-{token}"
        argv = ["report", *(f"--{kind}={synth_dir / kind}.csv" for kind in ("votes", "polls")),
                f"--factors={factors}", "--tokens", token, "--out-dir", str(out)]
        assert exec_command(argv) == 1
        error = f"--tokens names tokens the factors file does not hold: {token}"
        assert _only_the_failed_manifest(out, "report") == error


def test_out_dir_that_is_a_file_fails_cleanly(tmp_path, capsys):
    """The out-dir is created before any input is read (the inputs named do
    not exist); the run exits 1 with one error line and writes nothing."""
    out = tmp_path / "out"
    out.write_text("a file\n")
    argv = ["metrics", f"--votes={tmp_path / 'votes.csv'}", f"--polls={tmp_path / 'polls.csv'}", "--out-dir", str(out)]
    assert exec_command(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "File exists" in err
    assert "Traceback" not in err
    assert out.read_text() == "a file\n"


def test_manifest_that_cannot_be_written_fails_cleanly(synth_dir, tmp_path, capsys):
    """A directory where the manifest goes: the run's outputs are written,
    then the manifest fails, and so does the failed manifest after it."""
    out = tmp_path / "out"
    (out / "run_manifest.json").mkdir(parents=True)
    argv = ["metrics", *(f"--{name}={synth_dir / name}.csv" for name in ("votes", "polls")), "--out-dir", str(out)]
    assert exec_command(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2 and all(line.startswith("error: ") for line in err)
    assert err[1].startswith("error: manifest not written: ")


@pytest.mark.parametrize("options, named", [
    (["--tokens", "MKR"], "--tokens"),
    (["--tokens", "FOO"], "--tokens"),
    (["--measures", "Voters"], "--measures"),
    (["--alpha-stars", "0.10,0.05,0.01"], "--alpha-stars"),
    (["--raw"], "--raw"),
    (["--tokens", "FOO", "--raw"], "--tokens, --raw"),
], ids=["tokens", "unknown-token", "measures", "alpha-stars", "raw", "tokens-and-raw"])
def test_report_takes_grid_options_only_with_factors(synth_dir, tmp_path, options, named):
    out = tmp_path / "out"
    argv = ["report", *options, "--out-dir", str(out)]
    argv += [f"--{name}={synth_dir / name}.csv" for name in ("votes", "polls")]
    assert exec_command(argv) == 1
    assert _only_the_failed_manifest(out, "report") == f"report takes {named} only with --factors"
