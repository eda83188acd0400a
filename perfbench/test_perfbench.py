"""Tests of the benchmark itself, on a small report workload.

    python3 -m pytest perfbench/test_perfbench.py -q

Run from the root of a checkout. They check that the traced run's counts
repeat exactly, that the comparison flags a delay injected into one layer,
that the CSV check holds its tolerance and that the benchmark refuses to run
without the package sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import compare
import run

ROOT = Path(__file__).resolve().parent.parent
SMALL = {
    "kind": "report",
    "config": {"days": 8, "voter_pool": 80, "participation_rate": 0.3},
    "tokens": "MKR,DAI",
}
EXACT_COUNTS = ("govdata.final_ballots_calls", "centrality.gini_pairs", "econ.cells", "econ.cells_ok")
DELAYED = "govdata.final_ballots"


@pytest.fixture(scope="module")
def traced_runs(tmp_path_factory):
    """Two traced runs with inputs generated from the same seed, and a third
    with a delay injected into final_ballots."""
    results = []
    for delays in (None, None, {DELAYED: 0.002}):
        work = tmp_path_factory.mktemp("bench")
        bench = run.Bench(ROOT, work)
        [job] = run.prepare(bench, SMALL, seed=11)
        # The small workload writes the same artifact list as report-votes.
        job.expect.load_reference(run.HERE / "reference" / "report-votes.json", seed=11)
        untraced = run.timed_loop(bench, [job], seconds=0)[0][0].wall_s
        metrics, _, problems = run.traced_run(bench, job, work / "trace.json", "test", untraced, delays)
        assert problems == []
        results.append({"correct": True, "attempted": 2, "failed": 0, "metrics": metrics})
    return results


def test_counts_repeat_exactly(traced_runs):
    first, second, _ = (r["metrics"] for r in traced_runs)
    for name in EXACT_COUNTS:
        assert first[name]["value"] > 0, name
        assert first[name]["value"] == second[name]["value"], name


def test_comparison_flags_injected_delay(traced_runs):
    base, _, delayed = traced_runs
    verdicts = {v.name: v for v in compare.compare([base], [delayed], compare.load_specs())}
    assert verdicts["govdata.final_ballots_s"].regressed
    assert verdicts["trace.wall_s"].regressed
    for name in EXACT_COUNTS:
        assert not verdicts[name].regressed, name


def test_csv_check_tolerance():
    ref = b"a,x\nk,1.0000000000000\n"
    assert checks.csv_mismatch("t.csv", b"a,x\nk,1.0000000000001\n", ref) is None
    assert checks.csv_mismatch("t.csv", b"a,x\nk,1.00000000001\n", ref) is not None
    assert checks.csv_mismatch("t.csv", b"a,x\nj,1.0000000000000\n", ref) is not None
    assert checks.csv_mismatch("t.csv", b"a,x\n", ref) is not None


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    command = json.loads((ROOT / "BENCHMARK.json").read_text())["command"]
    done = subprocess.run(
        [sys.executable, *command[1:], "--workload", "report-panel", "--seed", "3",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
