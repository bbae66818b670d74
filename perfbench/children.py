"""The ``repro serve`` and ``repro store-serve`` child processes.

Untraced, a child is exactly ``python -m repro <command> ROOT --port 0``.
Traced (or slowed for the sensitivity test) it runs the same command
through ``perfbench/child.py``.  The bound port is read from the command's
start-up line, readiness is polled over HTTP, and :meth:`Child.stop`
sends SIGINT (the commands' documented way to stop) and waits.
"""

from __future__ import annotations

import http.client
import os
import re
import select
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import List, Optional

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

_ADDRESS = re.compile(r"http://([0-9.]+):([0-9]+)")
#: Seconds a child may take to report its address, then to answer 200.
START_TIMEOUT = 60.0


class ChildError(RuntimeError):
    pass


def _default_sigint() -> None:
    # A parent started in the background may ignore SIGINT, and Python
    # keeps an inherited "ignore"; the child must turn SIGINT into
    # KeyboardInterrupt so serve/store-serve stop cleanly.
    signal.signal(signal.SIGINT, signal.SIG_DFL)


class Child:
    """One server process on a loopback ephemeral port."""

    def __init__(self, command: str, root: Path, log: Path,
                 ready_path: str, trace_out: Optional[Path] = None,
                 delay: Optional[str] = None):
        argv: List[str] = [sys.executable, "-u"]
        if trace_out is not None or delay:
            argv += [str(HERE / "child.py")]
            if trace_out is not None:
                argv += ["--trace-out", str(trace_out)]
            if delay:
                argv += ["--delay", delay]
            argv += ["--"]
        else:
            argv += ["-m", "repro"]
        argv += [command, str(root), "--port", "0"]
        env = dict(os.environ, PYTHONPATH=str(SRC))
        self._log = open(log, "wb")
        self.proc = subprocess.Popen(argv, stdout=subprocess.PIPE,
                                     stderr=self._log, env=env,
                                     preexec_fn=_default_sigint)
        try:
            self.host, self.port = self._read_address()
            self._wait_ready(ready_path)
        except BaseException:
            self.stop()
            raise

    def _read_address(self):
        deadline = time.monotonic() + START_TIMEOUT
        while time.monotonic() < deadline:
            ready, _, _ = select.select([self.proc.stdout], [], [], 0.5)
            if ready:
                line = self.proc.stdout.readline().decode("utf-8", "replace")
                if not line:
                    break
                match = _ADDRESS.search(line)
                if match:
                    return match.group(1), int(match.group(2))
            elif self.proc.poll() is not None:
                break
        raise ChildError(f"{self.proc.args[-4]} child did not report an "
                         f"address (exit code {self.proc.poll()})")

    def _wait_ready(self, path: str) -> None:
        deadline = time.monotonic() + START_TIMEOUT
        while time.monotonic() < deadline:
            conn = http.client.HTTPConnection(self.host, self.port, timeout=5)
            try:
                conn.request("GET", path)
                if conn.getresponse().status == 200:
                    return
            except OSError:
                pass
            finally:
                conn.close()
            time.sleep(0.02)
        raise ChildError(f"child never answered 200 on {path}")

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def stop(self) -> None:
        """SIGINT, then wait; kill if it does not exit in 20 s."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self._log.close()


def store_child(root: Path, log: Path, **kwargs) -> Child:
    root.mkdir(parents=True, exist_ok=True)
    return Child("store-serve", root, log, "/readyz", **kwargs)


def serve_child(root: Path, log: Path, **kwargs) -> Child:
    root.mkdir(parents=True, exist_ok=True)
    return Child("serve", root, log, "/studies", **kwargs)
