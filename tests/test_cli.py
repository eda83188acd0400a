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
import warnings
from collections import Counter
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import DAY0, write_factors_csv, write_polls_csv, write_votes_csv
import govpulse
from govpulse import centrality, factorlab, govdata, synthgov
from govpulse.cli import exec_command
from govpulse.econ import t_pvalue
from govpulse.govdata import load_factors, load_vote_log, write_factors
from govpulse.report import significance_stars


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
    assert "events: 3" in (out / "ingest_summary.txt").read_text()


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
    assert (out_iv / "iv_grid.csv").exists()
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

    class Unprintable(float):
        def __repr__(self) -> str:
            raise OSError("disk full")

    real = synthgov.gen_panel

    def failing_gen_panel(metrics, plan, seed):
        bundle = real(metrics, plan, seed)
        last = max(m.day for m in metrics if not m.missing)
        bundle.panel.put(last, "ALL", "instrument", "offchain_voters", Unprintable(1.0))  # the last row written
        return bundle

    monkeypatch.setattr(synthgov, "gen_panel", failing_gen_panel)
    code = exec_command(["synth", "--out-dir", str(synth_dir), "--seed", "5", "--config", _small_config(tmp_path)])
    assert code == 1
    after = {path.name: path.read_bytes() for path in synth_dir.iterdir() if path.name != "run_manifest.json"}
    assert after == before


def test_synth_bytes_are_pinned(tmp_path):
    out = tmp_path / "synth"
    config = json.dumps({"days": 6, "voter_pool": 60, "seed": 3})
    assert exec_command(["synth", "--config", _write(tmp_path / "c.json", config),
                         "--tokens", "MKR,DAI", "--out-dir", str(out)]) == 0
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
               for name in ("votes.csv", "polls.csv", "factors.csv")}
    assert digests == {
        "votes.csv": "2bc11250aa184ff39f59004c4f098d38f5b78188525016d250afde405a2efd67",
        "polls.csv": "9871456fad56b887e887e4e763eea9ec25eff50f44154b62f029e93b54542a11",
        "factors.csv": "13e2746b6a060778e14d8db0733060c3f55dcd4a681df43570025e9f892903f8",
    }


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


def test_version_flag():
    assert exec_command(["--version"]) == 0


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
        drawn += [(row["fs_stars"], t_pvalue(float(row["fs_t1"]), int(row["n"]) - 2)) for row in rows if "fs_stars" in row]
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
