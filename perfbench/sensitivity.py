"""Sensitivity test: slow one public function per layer, check who notices.

    python3 perfbench/sensitivity.py [--seeds 1,2,3]

For each seed and workload, one clean run is followed by one run per
fault in :data:`FAULTS` (a fixed busy-wait at the entry of one function,
injected by ``run.py --delay``), so each faulty run is compared with a
clean run of the same inputs made minutes, not an hour, earlier.  Every
run measures for ``BENCHMARK.json``'s ``run_seconds``.  A cell
is one (workload, end-to-end metric) pair; its change is the median over
seeds of faulty / clean, read in the metric's "worse" direction.  The test
passes when every predicted cell worsens by more than the metric's bound
from ``BENCHMARK.json`` and every predicted-zero cell stays within it.
Prints a Markdown table.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("measure", "guard", "serve")
CRAWL = ("visits_per_s", "analyze_s", "pipeline_s")
SERVE = ("serve.rps", "serve.lookup_p50_ms", "serve.report_p50_ms",
         "serve.p99_ms")

#: fault -> (busy-wait seconds, predicted cells, predicted-zero cells).
#: measure and guard also read their study back through ``repro serve``, so
#: a serve-side fault shows in their serve.* cells too and a crawl-side
#: fault must not.
FAULTS = {
    "cookies_for_url": (
        100e-6,
        [(w, m) for w in ("measure", "guard")
         for m in ("visits_per_s", "pipeline_s")],
        [(w, m) for w in WORKLOADS for m in SERVE]),
    "may_read": (
        20e-6,
        [("guard", "visits_per_s"), ("guard", "pipeline_s")],
        [(w, m) for w in ("measure", "serve") for m in CRAWL]
        + [(w, m) for w in WORKLOADS for m in SERVE]),
    "store_put": (
        0.3,
        [("measure", "pipeline_s")],
        [(w, m) for w in ("guard", "serve") for m in CRAWL]
        + [(w, m) for w in WORKLOADS for m in SERVE]),
    "site": (
        0.02,
        [(w, "serve.lookup_p50_ms") for w in WORKLOADS],
        [(w, m) for w in ("measure", "guard") for m in CRAWL]),
}


def run(workload: str, seed: int, seconds: int, delay: str = "") -> Dict:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    if delay:
        argv += ["--delay", delay]
    out = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                         timeout=600)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if out.returncode or not result["correct"]:
        raise SystemExit(f"{workload} seed {seed} {delay}: failed\n"
                         f"{out.stderr}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", default="1,2,3")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    lower = {m["name"]: m["better"] == "lower" for m in spec["end_to_end"]}
    seeds = [int(s) for s in args.seeds.split(",")]

    # ratios[fault][workload][metric] -> faulty / clean, one per seed
    ratios: Dict = {f: {w: {} for w in WORKLOADS} for f in FAULTS}
    for seed in seeds:
        for workload in WORKLOADS:
            clean = run(workload, seed, seconds)
            for fault in FAULTS:
                delay = f"{fault}:{FAULTS[fault][0]}"
                faulty = run(workload, seed, seconds, delay)
                for metric, value in faulty.items():
                    ratios[fault][workload].setdefault(metric, []).append(
                        value / clean[metric])

    ok = True
    print("| busy-wait | cell | change | bound | expected | verdict |")
    print("| --- | --- | --- | --- | --- | --- |")
    for fault in FAULTS:
        wait, moved, zero = FAULTS[fault]
        for cells, expect in ((moved, "worse"), (zero, "within")):
            for workload, metric in cells:
                ratio = statistics.median(ratios[fault][workload][metric])
                worse = ratio - 1 if lower[metric] else 1 - ratio
                good = (worse > bounds[metric]) == (expect == "worse")
                ok &= good
                print(f"| {fault} {wait * 1e3:g} ms | {workload} {metric} "
                      f"| {worse:+.1%} | {bounds[metric]:.0%} | {expect} "
                      f"| {'ok' if good else 'FAIL'} |")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
