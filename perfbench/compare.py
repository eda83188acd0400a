"""Compare two sets of benchmark results of one workload, metric by metric.

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl

Each file holds result objects, one per line, as run.py prints them last
(the same workload and ``--trace`` setting on both sides). A metric regressed
when the new median is worse than the base median by more than its bound:
BENCHMARK.json's ``bound`` for end-to-end metrics, LAYER_BOUND for per-layer
metrics, which have none. Exits 1 when any metric regressed or any new run
failed its output check.
"""

from __future__ import annotations

import json
import statistics
import sys
from dataclasses import dataclass
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
LAYER_BOUND = 0.10


@dataclass
class Verdict:
    name: str
    unit: str
    base: float
    new: float
    bound: float
    regressed: bool


def load_specs(path: Path = BENCHMARK) -> dict[str, dict]:
    doc = json.loads(path.read_text(encoding="utf-8"))
    return {spec["name"]: spec for spec in doc["end_to_end"] + doc["per_layer"]}


def compare(base: list[dict], new: list[dict], specs: dict[str, dict]) -> list[Verdict]:
    """One verdict per metric present on both sides, in BENCHMARK.json order."""
    verdicts = []
    for name, spec in specs.items():
        base_values = [r["metrics"][name]["value"] for r in base if name in r["metrics"]]
        new_values = [r["metrics"][name]["value"] for r in new if name in r["metrics"]]
        if not base_values or not new_values:
            continue
        b, n = statistics.median(base_values), statistics.median(new_values)
        bound = spec.get("bound", LAYER_BOUND)
        if spec["better"] == "lower":
            regressed = n > b + bound * abs(b)
        else:
            regressed = n < b - bound * abs(b)
        verdicts.append(Verdict(name, spec["unit"], b, n, bound, regressed))
    return verdicts


def _read(path: str) -> list[dict]:
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    return [json.loads(line) for line in lines if line.strip()]


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = _read(argv[0]), _read(argv[1])
    verdicts = compare(base, new, load_specs())
    for v in verdicts:
        change = (v.new - v.base) / abs(v.base) if v.base else float("inf") if v.new != v.base else 0.0
        flag = "REGRESSED" if v.regressed else "ok"
        print(f"{v.name:<36} {v.base:>14.4f} -> {v.new:>14.4f} {v.unit:<10} {change:>+8.1%} "
              f"(bound {v.bound:.0%}) {flag}")
    failed_runs = sum(1 for r in new if not r["correct"])
    if failed_runs:
        print(f"{failed_runs} of {len(new)} new runs failed their output check")
    return 1 if failed_runs or any(v.regressed for v in verdicts) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
