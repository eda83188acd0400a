"""Output checks applied to every command the benchmark runs.

For any seed: exit code 0; ``run_manifest.json`` says ``status: ok`` for the
right command and lists exactly the files written; the artifact list matches
the reference; report grids hold tokens x 37 x 7 OLS and tokens x 37 x 3 IV
cells; ``metrics.csv`` has one row per day with a poll that has votes;
``load_vote_log`` re-reads a synth history's first output with zero anomalies
and the printed event and poll counts; and every later synth command on that
history writes byte-identical files.

At a workload's default seed, additionally: every markdown artifact is
byte-identical to the reference captured at the benchmark's first commit,
every CSV float agrees with it to 1e-12 relative (other CSV fields exactly),
and synth's votes.csv, polls.csv and factors.csv of each history are
byte-identical.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import re
import subprocess
import sys
import tarfile
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

REL_TOL = 1e-12
CATALOGUE_FACTORS = 37
OLS_MEASURES = 7
IV_MEASURES = 3
SYNTH_SUMMARY = re.compile(r"synthesized (\d+) polls, (\d+) events")
REREAD_TIMEOUT_S = 60.0


@dataclass
class Expectation:
    """What one history's outputs must be; ``exact`` at the reference seed."""

    tokens: list[str]
    history: int = 0
    metric_days: int | None = None
    reference: dict = field(default_factory=dict)
    exact: bool = False
    csv_reference: dict[str, bytes] = field(default_factory=dict)
    # Digests of the synth files the history's first, re-read command wrote.
    synth_digests: dict[str, str] = field(default_factory=dict)

    def load_reference(self, path: Path, seed: int) -> None:
        self.reference = json.loads(path.read_text(encoding="utf-8"))
        self.exact = self.reference["seed"] == seed
        if self.exact and self.reference.get("csv_archive"):
            with tarfile.open(path.parent / self.reference["csv_archive"], "r:xz") as archive:
                self.csv_reference = {
                    m.name: archive.extractfile(m).read() for m in archive.getmembers() if m.isfile()
                }


def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def expected_metric_days(votes: Path, polls: Path) -> int:
    """Distinct UTC deploy days over polls that have a positive vote."""
    with open(votes, newline="", encoding="utf-8") as handle:
        rows = csv.reader(handle)
        next(rows)
        voted = {row[0] for row in rows if float(row[3]) > 0}
    with open(polls, newline="", encoding="utf-8") as handle:
        rows = csv.reader(handle)
        next(rows)
        return len({
            datetime.fromtimestamp(int(row[1]), tz=timezone.utc).date()
            for row in rows if row[0] in voted
        })


def data_rows(path: Path) -> int:
    with open(path, newline="", encoding="utf-8") as handle:
        return sum(1 for _ in csv.reader(handle)) - 1


def _close(a: str, b: str) -> bool:
    try:
        x, y = float(a), float(b)
    except ValueError:
        return False
    return x == y or abs(x - y) <= REL_TOL * max(abs(x), abs(y))


def csv_mismatch(name: str, new: bytes, ref: bytes) -> str | None:
    """First field where a CSV differs from its reference beyond REL_TOL."""
    if new == ref:
        return None
    new_rows = list(csv.reader(io.StringIO(new.decode("utf-8"))))
    ref_rows = list(csv.reader(io.StringIO(ref.decode("utf-8"))))
    if len(new_rows) != len(ref_rows):
        return f"{name}: {len(new_rows)} rows, reference has {len(ref_rows)}"
    for r, (new_row, ref_row) in enumerate(zip(new_rows, ref_rows)):
        if len(new_row) != len(ref_row):
            return f"{name} row {r}: {len(new_row)} fields, reference has {len(ref_row)}"
        for c, (a, b) in enumerate(zip(new_row, ref_row)):
            if a != b and not _close(a, b):
                return f"{name} row {r} field {c}: {a!r}, reference {b!r}"
    return None


def check_run(kind: str, out_dir: Path, code: int, stdout: str, expect: Expectation,
              env: dict[str, str]) -> list[str]:
    """Problems found in one command's outputs; empty when it is correct."""
    if code != 0:
        return [f"exit code {code}"]
    problems = []
    try:
        manifest = json.loads((out_dir / "run_manifest.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return [f"run_manifest.json unreadable: {exc}"]
    if manifest.get("status") != "ok" or manifest.get("command") != kind:
        problems.append(f"manifest says {manifest.get('command')!r}/{manifest.get('status')!r}")
    artifacts = sorted(p.name for p in out_dir.iterdir())
    if artifacts != expect.reference["artifacts"]:
        missing = sorted(set(expect.reference["artifacts"]) - set(artifacts))
        extra = sorted(set(artifacts) - set(expect.reference["artifacts"]))
        problems.append(f"artifacts differ: missing {missing}, unexpected {extra}")
    if sorted(manifest.get("outputs", [])) != [a for a in artifacts if a != "run_manifest.json"]:
        problems.append("manifest outputs do not list the files written")
    if problems:
        return problems
    if kind == "report":
        return _check_report(out_dir, expect)
    return _check_synth(out_dir, stdout, expect, env)


def _check_report(out_dir: Path, expect: Expectation) -> list[str]:
    problems = []
    tokens = len(expect.tokens)
    for name, measures in (("ols_grid.csv", OLS_MEASURES), ("iv_grid.csv", IV_MEASURES)):
        rows, want = data_rows(out_dir / name), tokens * CATALOGUE_FACTORS * measures
        if rows != want:
            problems.append(f"{name}: {rows} cells, expected {want}")
    rows = data_rows(out_dir / "metrics.csv")
    if rows != expect.metric_days:
        problems.append(f"metrics.csv: {rows} rows, expected {expect.metric_days}")
    if not expect.exact:
        return problems
    for name, digest in expect.reference["markdown"].items():
        if sha256(out_dir / name) != digest:
            problems.append(f"{name} differs from the reference")
    for name, ref in expect.csv_reference.items():
        mismatch = csv_mismatch(name, (out_dir / name).read_bytes(), ref)
        if mismatch:
            problems.append(mismatch)
    return problems


# Re-reads synth output in a child process: a large parent would inflate the
# max RSS the kernel reports for the commands it spawns next.
REREAD = (
    "import json, sys\n"
    "from govpulse.govdata import load_vote_log\n"
    "log = load_vote_log(sys.argv[1], sys.argv[2])\n"
    "print(json.dumps([len(log.events), len(log.registry), len(log.report.anomalies)]))\n"
)


SYNTH_FILES = ("votes.csv", "polls.csv", "factors.csv")


def _check_synth(out_dir: Path, stdout: str, expect: Expectation, env: dict[str, str]) -> list[str]:
    """Re-read a history's first output; later commands on the same history
    must write byte-identical files."""
    match = SYNTH_SUMMARY.search(stdout)
    if not match:
        return [f"no event count printed: {stdout.strip()!r}"]
    polls, events = int(match.group(1)), int(match.group(2))
    digests = {name: sha256(out_dir / name) for name in SYNTH_FILES}
    problems = []
    if expect.synth_digests:
        for name, digest in expect.synth_digests.items():
            if digests[name] != digest:
                problems.append(f"{name} differs from this history's first output")
    else:
        problems = _reread_synth(out_dir, polls, events, env)
        if not problems:
            expect.synth_digests = digests
    if expect.exact:
        for name, digest in expect.reference["histories"][expect.history]["files"].items():
            if digests[name] != digest:
                problems.append(f"{name} differs from the reference")
    return problems


def _reread_synth(out_dir: Path, polls: int, events: int, env: dict[str, str]) -> list[str]:
    try:
        done = subprocess.run(
            [sys.executable, "-c", REREAD, str(out_dir / "votes.csv"), str(out_dir / "polls.csv")],
            env=env, capture_output=True, text=True, timeout=REREAD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return [f"re-read took over {REREAD_TIMEOUT_S:g} s"]
    if done.returncode != 0:
        return [f"re-read failed: {done.stderr.strip()[-300:]}"]
    reread_events, reread_polls, anomalies = json.loads(done.stdout)
    problems = []
    if anomalies:
        problems.append(f"re-read found {anomalies} anomalies")
    if (reread_events, reread_polls) != (events, polls):
        problems.append(f"re-read {reread_events} events and {reread_polls} polls, "
                        f"printed {events} and {polls}")
    return problems
