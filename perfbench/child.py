"""Start a ``repro`` server command with the benchmark's wrappers installed.

    python perfbench/child.py --trace-out SPANS [--delay NAME:SECONDS] \\
        -- serve ROOT --port 0

Runs ``python -m repro <command...>`` in this process after installing the
span recorder (``--trace-out``) and/or the sensitivity test's busy-wait
(``--delay``).  The spans are written to SPANS when the command returns,
which ``serve`` and ``store-serve`` do on SIGINT.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import layers  # noqa: E402
from tracer import Tracer  # noqa: E402


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--trace-out")
    parser.add_argument("--delay")
    parser.add_argument("command", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    command = args.command[1:] if args.command[:1] == ["--"] else args.command
    tracer = None
    if args.trace_out:
        tracer = Tracer()
        layers.install(tracer)
    delay = layers.parse_delay(args.delay)
    if delay is not None:
        layers.install_delay(*delay)
    from repro.__main__ import main as repro_main
    try:
        repro_main(command)
    finally:
        if tracer is not None:
            tracer.dump(Path(args.trace_out))


if __name__ == "__main__":
    main()
