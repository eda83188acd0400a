"""CLI exit codes, artifacts, manifests and determinism."""

from __future__ import annotations

import csv
import json
import sys
from collections import Counter
from pathlib import Path

import pytest

from conftest import DAY0, write_polls_csv, write_votes_csv
from govpulse import govdata
from govpulse.cli import exec_command
from govpulse.govdata import load_factors, load_vote_log


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
    assert len(panel.instrument_series()) > 0
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
    ])
    write_polls_csv(polls, [(1, DAY0, "poll 1", "1:yes|2:no", "")])
    code = exec_command(["ingest", "--votes", str(votes), "--polls", str(polls), "--out-dir", str(out)])
    assert code == 0
    with open(out / "validation.csv", newline="") as handle:
        rows = [row for row in csv.DictReader(handle) if row["kind"] == "bad vote row"]
    assert [row["detail"].split(":")[0] for row in rows] == ["line 3", "line 4", "line 5"]
    assert "events: 2" in (out / "ingest_summary.txt").read_text()


@pytest.mark.parametrize("column", ["vote", "deploy"])
@pytest.mark.parametrize("stamp", ["inf", "-inf", "nan", "1e30", "-1e30"])
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
    assert any(factor == "v7" for (_, _, _, factor) in derived.cells)

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
    base = [
        "--votes", str(synth_dir / "votes.csv"),
        "--polls", str(synth_dir / "polls.csv"),
        "--factors", str(synth_dir / "factors.csv"),
        "--tokens", "MKR",
        "--measures", "Voters,Speed",
    ]
    for command in ("report", "regress", "iv"):
        assert exec_command([command, *base, "--out-dir", str(tmp_path / command)]) == 0, command
    names = ["ols_grid.csv", "effects_MKR.md"]
    names += [path.name for path in (tmp_path / "regress").glob("ols_MKR_*.md")]
    names += ["iv_grid.csv"] + [path.name for path in (tmp_path / "iv").glob("iv_MKR_*.md")]
    assert len(names) == 13
    for name in names:
        single = tmp_path / ("iv" if name.startswith("iv") else "regress") / name
        assert (tmp_path / "report" / name).read_bytes() == single.read_bytes(), name


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
