"""The repository benchmark: one seeded run of one workload.

    python3 perfbench/run.py --workload {measure,guard,serve} --seed N \\
        --seconds S --trace {0,1} [--delay NAME:SECONDS]

Run from the repository root.  ``--trace 0`` prints every end-to-end
metric; ``--trace 1`` spends half the window untraced and half traced and
prints every per-layer metric plus the tracing overhead.  ``--delay``
injects the sensitivity test's busy-wait (see ``sensitivity.py``).  A
traced run leaves its spans in ``.perfbench-work/spans-<workload>/`` (one
``.npz`` per process; see ``tracer.py``).  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the exit code is 1 when any
output check failed and 2 when the program cannot be found.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"


def _args():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("measure", "guard", "serve"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--delay", default=None,
                        help="NAME:SECONDS busy-wait at the entry of one "
                             "public function (sensitivity test)")
    return parser.parse_args()


def _peak_rss_mb() -> float:
    """Peak RSS of this process plus that of the largest server child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def main() -> int:
    args = _args()
    if not (SRC / "repro" / "__main__.py").is_file():
        print(f"perfbench: no repro package under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(HERE), str(SRC)]
    import hostspeed
    import layers
    import metrics
    from tracer import Spans, Tracer
    from workloads import WORKLOADS, CheckFailed, Outcome

    delay = layers.parse_delay(args.delay)
    if delay is not None:
        layers.install_delay(*delay)
    cls = WORKLOADS[args.workload]
    work = WORK / f"{args.workload}-{os.getpid()}"
    report = {}
    outcome = Outcome()
    try:
        if not args.trace:
            cls(work, args.seed, args.seconds, delay=args.delay).run(outcome)
            report = metrics.end_to_end(outcome, _peak_rss_mb())
        else:
            half = args.seconds / 2
            plain = Outcome()
            cls(work / "untraced", args.seed, half).run(plain, setups=1)
            trace_dir = work / "traced" / "spans"
            trace_dir.mkdir(parents=True)
            tracer = Tracer()
            cls(work / "traced", args.seed, half,
                trace_dir=trace_dir).run(outcome, tracer=tracer, setups=1)
            tracer.dump(trace_dir / "parent.npz")
            spans = Spans([Spans.load(path) for path in
                           sorted(trace_dir.glob("*.npz"))])
            report = metrics.per_layer(args.workload,
                                       spans.window(*outcome.window),
                                       outcome, plain)
            outcome.attempted += plain.attempted
            outcome.failed += plain.failed
            outcome.failures += plain.failures
            # The spans of the last traced run of each workload stay.
            kept = WORK / f"spans-{args.workload}"
            shutil.rmtree(kept, ignore_errors=True)
            trace_dir.rename(kept)
    except CheckFailed as exc:
        outcome.failures.append(str(exc))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass

    for message in outcome.failures:
        print(f"CHECK FAILED: {message}", file=sys.stderr)
    correct = not outcome.failures
    for name, (value, unit) in report.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    share = outcome.failed / max(outcome.attempted, 1)
    print(f"{args.workload} attempted = {outcome.attempted}, "
          f"failed = {outcome.failed}, fail_share = {share:.6g}")
    if outcome.reference:
        print(f"{args.workload} host reference median = "
              f"{statistics.median(outcome.reference) * 1000:.6g} ms over "
              f"{len(outcome.reference)} timings (nominal "
              f"{hostspeed.NOMINAL_S * 1000:g} ms)")
    if not args.trace and outcome.records:
        samples, beyond = outcome.p99_samples
        print(f"{args.workload} serve.p99_ms over {samples} requests, "
              f"{beyond} beyond it")
    print(json.dumps({
        "correct": correct,
        "attempted": max(outcome.attempted, 1),
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in report.items()},
    }))
    return 0 if correct and report else 1


if __name__ == "__main__":
    sys.exit(main())
