"""Capture the reference outputs that checks.py compares against.

    python3 perfbench/capture_reference.py [WORKLOAD ...]

Run from the root of the checkout whose outputs are to be the reference, at
each workload's default seed. Writes ``perfbench/reference/<workload>.json``
(artifact list, markdown digests or each history's synth file digests, input
sizes) and, for report workloads, ``<workload>.csv.tar.xz`` holding every CSV
artifact. The references were captured once, at the commit that added the
benchmark; a change that alters outputs must not recapture them.
"""

from __future__ import annotations

import io
import json
import shutil
import sys
import tarfile
from pathlib import Path

import checks
from run import HERE, WORKLOADS, Bench, history_seeds, prepare


def _archive(out_dir: Path, names: list[str], target: Path) -> None:
    with tarfile.open(target, "w:xz", preset=9) as archive:
        for name in names:
            data = (out_dir / name).read_bytes()
            info = tarfile.TarInfo(name)
            info.size = len(data)
            archive.addfile(info, io.BytesIO(data))


def capture(root: Path, name: str) -> dict:
    spec = WORKLOADS[name]
    seed = spec["default_seed"]
    work = root / ".bench_work" / f"capture-{name}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        bench = Bench(root, work)
        jobs = prepare(bench, spec, seed)
        reference = {"workload": name, "seed": seed, "histories": []}
        for history, (job, config_seed) in enumerate(zip(jobs, history_seeds(spec, seed))):
            sample = bench.govpulse(job.args, "command")
            if sample.code != 0:
                raise SystemExit(f"{name}: exit code {sample.code}: {sample.stderr}")
            artifacts = sorted(p.name for p in job.out_dir.iterdir())
            if reference.setdefault("artifacts", artifacts) != artifacts:
                raise SystemExit(f"{name}: history {history} wrote {artifacts}")
            synth_log = sample.stdout if spec["kind"] == "synth" else (work / f"inputs-{history}.stdout").read_text()
            polls, events = map(int, checks.SYNTH_SUMMARY.search(synth_log).groups())
            factors = job.out_dir / "factors.csv" if spec["kind"] == "synth" else work / f"inputs-{history}" / "factors.csv"
            entry = {
                "seed": config_seed,
                "input_size": {
                    "days": spec["config"]["days"],
                    "polls": polls,
                    "events": events,
                    "factor_rows": checks.data_rows(factors),
                },
            }
            if spec["kind"] == "synth":
                entry["files"] = {n: checks.sha256(job.out_dir / n) for n in checks.SYNTH_FILES}
            else:
                # Report workloads run one history.
                reference["markdown"] = {n: checks.sha256(job.out_dir / n) for n in artifacts if n.endswith(".md")}
                entry["input_size"]["ols_cells"] = checks.data_rows(job.out_dir / "ols_grid.csv")
                entry["input_size"]["iv_cells"] = checks.data_rows(job.out_dir / "iv_grid.csv")
                reference["csv_archive"] = f"{name}.csv.tar.xz"
                _archive(job.out_dir, [n for n in artifacts if n.endswith(".csv")], HERE / "reference" / reference["csv_archive"])
            reference["histories"].append(entry)
        path = HERE / "reference" / f"{name}.json"
        path.write_text(json.dumps(reference, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        return reference
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(names: list[str]) -> int:
    (HERE / "reference").mkdir(exist_ok=True)
    for name in names or sorted(WORKLOADS):
        reference = capture(Path.cwd(), name)
        for entry in reference["histories"]:
            print(name, entry["seed"], json.dumps(entry["input_size"], sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
