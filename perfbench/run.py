"""govpulse benchmark: seeded workloads, end-to-end metrics, per-layer trace.

Run from the root of a govpulse checkout (the directory holding ``src/``):

    python3 perfbench/run.py --workload report-votes --seed 1 --seconds 30 --trace 0

Each workload's inputs are generated from ``--seed`` through ``govpulse
synth`` before any timing starts. Then, in a closed loop with one client,
the workload's command runs as a fresh ``python3 -m govpulse.cli`` child
process, one at a time, until ``--seconds`` have elapsed (at least once).
A workload with ``histories`` k > 1 in workloads.json generates k histories
from seeds ``seed * k + j`` and runs them in turn, each at least once. Every
command's outputs are checked (see checks.py).

``--trace 0`` reports the end-to-end metrics: ``wall_s``, ``cpu_s`` and
``peak_rss_mb`` per command (the mean over histories of each history's
median), and ``setup_s`` (median of several ``govpulse --version`` runs).
``--trace 1`` runs the same loop and then the first history's command once
more under tracer.py, and reports the per-layer metrics. The last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import checks
import tracer

HERE = Path(__file__).resolve().parent
WORKLOADS = json.loads((HERE / "workloads.json").read_text(encoding="utf-8"))["workloads"]
SETUP_REPEATS = 7
# A command that runs longer than this is killed and counted as failed, so a
# run always ends within the benchmark's time limit.
COMMAND_TIMEOUT_S = 120.0


class BenchError(Exception):
    """The benchmark cannot run here (no checkout, or inputs not generated)."""


@dataclass
class Sample:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    code: int
    stdout: str
    stderr: str


class Bench:
    """One benchmark run's checkout paths and child-process environment."""

    def __init__(self, root: Path, work: Path) -> None:
        self.root = root
        self.src = root / "src"
        if not (self.src / "govpulse" / "cli.py").is_file():
            raise BenchError(f"no govpulse sources under {self.src}: run from the root of a checkout")
        self.work = work
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(self.src)] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else [])
        )

    def spawn(self, argv: list[str], label: str) -> Sample:
        """Run one child to completion; wall from spawn to exit, rusage of the child."""
        out_path = self.work / f"{label}.stdout"
        err_path = self.work / f"{label}.stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.work, env=self.env, stdout=out, stderr=err)
            killer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Sample(
            wall_s=wall,
            cpu_s=usage.ru_utime + usage.ru_stime,
            peak_rss_mb=usage.ru_maxrss / 1024.0,
            code=proc.returncode,
            stdout=out_path.read_text(encoding="utf-8", errors="replace"),
            stderr=err_path.read_text(encoding="utf-8", errors="replace"),
        )

    def govpulse(self, args: list[str], label: str) -> Sample:
        return self.spawn([sys.executable, "-m", "govpulse.cli", *args], label)

    def traced(self, args: list[str], trace_path: Path, run_id: str,
               delays: dict[str, float] | None = None) -> Sample:
        argv = [sys.executable, str(HERE / "tracer.py"), "--src", str(self.src),
                "--out", str(trace_path), "--run-id", run_id]
        for name, seconds in (delays or {}).items():
            argv += ["--delay", f"{name}={seconds}"]
        return self.spawn([*argv, "--", *args], "traced")


@dataclass
class Job:
    """A prepared workload: the command to time and what its outputs must be."""

    kind: str
    args: list[str]
    out_dir: Path
    expect: checks.Expectation


def history_seeds(spec: dict, seed: int) -> list[int]:
    """Config seeds of the histories a run covers: ``seed * k + j`` for j < k.

    A workload with ``histories`` k > 1 cycles through k generated histories,
    so that work which depends on the drawn holdings pool (such as
    ``_force_outcome``) is averaged over several pools in every run.
    """
    k = spec.get("histories", 1)
    return [seed * k + j for j in range(k)]


def prepare(bench: Bench, spec: dict, seed: int) -> list[Job]:
    """Write the seeded configs and, for report workloads, synthesize the inputs.

    Returns one job per history. The jobs' expectations have no reference
    yet; ``measure`` loads it.
    """
    tokens = spec["tokens"]
    jobs = []
    for history, config_seed in enumerate(history_seeds(spec, seed)):
        config = dict(spec["config"], seed=config_seed)
        config_path = bench.work / f"config-{history}.json"
        config_path.write_text(json.dumps(config, sort_keys=True) + "\n", encoding="utf-8")
        out_dir = bench.work / f"out-{history}"
        expect = checks.Expectation(tokens.split(","), history=history)
        if spec["kind"] == "synth":
            args = ["synth", "--config", str(config_path), "--tokens", tokens, "--out-dir", str(out_dir)]
            jobs.append(Job("synth", args, out_dir, expect))
            continue
        inputs = bench.work / f"inputs-{history}"
        made = bench.govpulse(
            ["synth", "--config", str(config_path), "--tokens", tokens, "--out-dir", str(inputs)],
            f"inputs-{history}",
        )
        if made.code != 0:
            raise BenchError(f"input generation failed ({made.code}): {made.stderr.strip()}")
        expect.metric_days = checks.expected_metric_days(inputs / "votes.csv", inputs / "polls.csv")
        args = [
            "report", "--votes", str(inputs / "votes.csv"), "--polls", str(inputs / "polls.csv"),
            "--factors", str(inputs / "factors.csv"), "--out-dir", str(out_dir),
            "--formats", "csv,markdown,svg",
        ]
        jobs.append(Job("report", args, out_dir, expect))
    return jobs


def run_checked(bench: Bench, job: Job, run) -> tuple[Sample, list[str]]:
    """Run one command on an emptied output directory and check what it wrote."""
    shutil.rmtree(job.out_dir, ignore_errors=True)
    sample = run()
    problems = checks.check_run(job.kind, job.out_dir, sample.code, sample.stdout, job.expect, bench.env)
    return sample, problems


def timed_loop(bench: Bench, jobs: list[Job], seconds: float) -> tuple[list[Sample], list[str]]:
    """Closed loop, one client: run the jobs in turn until each has run once
    and the window has elapsed.

    Sample i ran ``jobs[i % len(jobs)]``. Returns the samples and one line
    per failed command.
    """
    samples: list[Sample] = []
    failures: list[str] = []
    start = time.perf_counter()
    while len(samples) < len(jobs) or time.perf_counter() - start < seconds:
        job = jobs[len(samples) % len(jobs)]
        sample, problems = run_checked(bench, job, lambda: bench.govpulse(job.args, "command"))
        samples.append(sample)
        if problems:
            failures.append(f"command {len(samples)}: {'; '.join(problems)}")
    return samples, failures


def setup_time(bench: Bench) -> float:
    """Median wall seconds of a fresh interpreter running ``govpulse --version``."""
    walls = []
    for _ in range(SETUP_REPEATS):
        sample = bench.govpulse(["--version"], "setup")
        if sample.code != 0:
            raise BenchError(f"govpulse --version failed: {sample.stderr.strip()}")
        walls.append(sample.wall_s)
    return statistics.median(walls)


def end_to_end(samples: list[Sample], histories: int, setup_s: float) -> dict[str, dict]:
    """Per-command figures: the mean over histories of each history's median
    (with one history, the median over commands)."""

    def per_command(field: str) -> float:
        return statistics.fmean(
            statistics.median(getattr(s, field) for s in samples[j::histories])
            for j in range(histories)
        )

    return {
        "wall_s": {"value": per_command("wall_s"), "unit": "s"},
        "cpu_s": {"value": per_command("cpu_s"), "unit": "s"},
        "peak_rss_mb": {"value": per_command("peak_rss_mb"), "unit": "MB"},
        "setup_s": {"value": setup_s, "unit": "s"},
    }


def traced_run(bench: Bench, job: Job, trace_path: Path, run_id: str, untraced_wall: float,
               delays: dict[str, float] | None = None) -> tuple[dict[str, dict], dict, list[str]]:
    """The command once more under the tracer: per-layer metrics, trace, problems."""
    trace_path.unlink(missing_ok=True)
    sample, problems = run_checked(
        bench, job, lambda: bench.traced(job.args, trace_path, run_id, delays)
    )
    try:
        trace = json.loads(trace_path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return {}, {}, problems + [f"traced run wrote no trace: {exc}"]
    return tracer.layer_metrics(trace, sample.wall_s, untraced_wall), trace, problems


def measure(root: Path, name: str, seed: int, seconds: float, trace: bool) -> dict:
    spec = WORKLOADS[name]
    work_root = root / ".bench_work"
    work = work_root / f"{name}-{os.getpid()}"
    bench = Bench(root, work)
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        jobs = prepare(bench, spec, seed)
        for job in jobs:
            job.expect.load_reference(HERE / "reference" / f"{name}.json", seed)
        setup_s = None if trace else setup_time(bench)
        samples, failures = timed_loop(bench, jobs, seconds)
        attempted, failed = len(samples), len(failures)
        print(f"workload {name}, seed {seed}: {attempted} command(s) over {len(jobs)} "
              f"history(ies) in a {seconds:g} s window, reference check "
              f"{'on' if jobs[0].expect.exact else 'off (not the default seed)'}")
        for failure in failures:
            print(f"  FAILED {failure}")
        if trace:
            # The traced run repeats the first history's command.
            untraced = statistics.median(s.wall_s for s in samples[::len(jobs)])
            trace_path = work_root / "traces" / f"{name}-seed{seed}.json"
            trace_path.parent.mkdir(exist_ok=True)
            metrics, trace_doc, traced_problems = traced_run(
                bench, jobs[0], trace_path, f"{name}-seed{seed}", untraced
            )
            attempted += 1
            failed += 1 if traced_problems else 0
            for problem in traced_problems:
                print(f"  FAILED traced: {problem}")
            if trace_doc:
                print(f"spans written to {trace_path.relative_to(root)}; absent layers: "
                      f"{', '.join(trace_doc['absent']) or 'none'}")
            metrics = metrics or {m[0]: {"value": 0.0, "unit": m[1]} for m in tracer.LAYER_METRICS}
            _print_layers(metrics)
        else:
            metrics = end_to_end(samples, len(jobs), setup_s)
            for key, entry in metrics.items():
                print(f"  {key:<12} {entry['value']:>12.4f} {entry['unit']}")
        print(f"  {'fail_ratio':<12} {failed / attempted:>12.4f} ratio ({failed} of {attempted} failed)")
        return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _print_layers(metrics: dict[str, dict]) -> None:
    for key, entry in metrics.items():
        note = " (computed)" if key.endswith("_computed") else ""
        print(f"  {key:<36} {entry['value']:>16.4f} {entry['unit']}{note}")


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description="govpulse benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: the workload's default seed)")
    parser.add_argument("--seconds", type=float, default=30.0, help="measuring window")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    seed = WORKLOADS[args.workload]["default_seed"] if args.seed is None else args.seed
    try:
        result = measure(Path.cwd(), args.workload, seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
