"""In-memory span recorder that wraps public ``repro`` functions from outside.

A :class:`Tracer` replaces a function or method with a wrapper that records
one span per call: ``(name, span id, parent span id, request id, start,
end)``.  Spans live in per-thread ``array`` buffers (about 40 bytes a
span), so a traced crawl of a few thousand visits stays in tens of MB and
no lock is taken on the hot path.  Counts that only the call site can see
(visits decoded, bytes written, guard denials) are recorded with
:meth:`Tracer.add` at the same boundary.

Clock: ``time.monotonic`` is ``CLOCK_MONOTONIC`` on Linux, shared by every
process on the host, so spans written by the server children line up with
the parent's request timings.

A layer's *self time* is its spans' duration minus the time covered by
their direct child spans (:func:`summarize`).
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from array import array
from collections import Counter
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional

import numpy as np

clock = time.monotonic


class _Buffer:
    """One thread's spans, as parallel arrays, plus its call stack."""

    __slots__ = ("names", "ids", "parents", "rids", "starts", "ends",
                 "stack", "cnames", "ctimes", "cvalues")

    def __init__(self) -> None:
        self.names = array("i")
        self.ids = array("q")
        self.parents = array("q")
        self.rids = array("q")
        self.starts = array("d")
        self.ends = array("d")
        self.stack: List = []
        self.cnames = array("i")
        self.ctimes = array("d")
        self.cvalues = array("d")


class Tracer:
    """Wraps callables and keeps their spans until :meth:`dump`."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._buffers: List[_Buffer] = []
        self._lock = threading.Lock()
        self._restore: List = []

    # -- recording --------------------------------------------------------
    def _buffer(self) -> _Buffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = self._local.buf = _Buffer()
            with self._lock:
                self._buffers.append(buf)
        return buf

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is not None:
            return nid
        with self._lock:
            if name not in self._name_ids:
                self._name_ids[name] = len(self.names)
                self.names.append(name)
            return self._name_ids[name]

    def add(self, name: str, n: float = 1) -> None:
        """Record a timestamped increment of ``n`` to counter ``name``."""
        buf = self._buffer()
        buf.cnames.append(self.name_id(name))
        buf.ctimes.append(clock())
        buf.cvalues.append(n)

    def wrap(self, fn: Callable, name: str,
             rid_of: Optional[Callable] = None,
             on_result: Optional[Callable] = None) -> Callable:
        """``fn`` with a span per call.

        ``rid_of(args)`` gives the request id of a root span (a span with
        no traced caller); otherwise the root's own span id is used and
        children inherit it.  ``on_result(tracer, result, args)`` runs
        after the span closes, so its cost is not charged to the layer.
        """
        nid = self.name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            buf = self._buffer()
            stack = buf.stack
            span = next(self._ids)
            if stack:
                parent, rid = stack[-1]
            else:
                parent = 0
                rid = rid_of(args) if rid_of is not None else span
            stack.append((span, rid))
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                buf.names.append(nid)
                buf.ids.append(span)
                buf.parents.append(parent)
                buf.rids.append(rid)
                buf.starts.append(start)
                buf.ends.append(end)
            if on_result is not None:
                on_result(self, result, args)
            return result

        return traced

    def wrap_generator(self, fn: Callable, name: str,
                       on_item: Optional[Callable] = None) -> Callable:
        """A generator function whose every ``next()`` is one span; the
        generator's return value is passed through."""
        step = self.wrap(_advance, name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                done, item = step(it)
                if done:
                    return item
                if on_item is not None:
                    on_item(self, item)
                yield item

        return traced

    # -- installing -------------------------------------------------------
    def patch(self, owner, attr: str, replacement: Callable) -> None:
        """Set ``owner.attr``; for a module function, every ``repro``
        module that imported it by name is patched as well."""
        original = owner.__dict__[attr]
        targets = [owner]
        if not isinstance(owner, type):
            targets = [m for m in list(sys.modules.values())
                       if m is not None
                       and getattr(m, "__name__", "").startswith("repro")
                       and m.__dict__.get(attr) is original]
        for target in targets:
            setattr(target, attr, replacement)
            self._restore.append((target, attr, original))

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._restore):
            setattr(target, attr, original)
        self._restore.clear()

    # -- reading ----------------------------------------------------------
    def columns(self) -> Dict[str, np.ndarray]:
        with self._lock:
            buffers = list(self._buffers)
        def cat(field: str, dtype) -> np.ndarray:
            parts = [np.frombuffer(getattr(b, field).tobytes(), dtype=dtype)
                     for b in buffers if len(getattr(b, field))]
            return (np.concatenate(parts) if parts
                    else np.zeros(0, dtype=dtype))
        return {"name": cat("names", np.int32), "id": cat("ids", np.int64),
                "parent": cat("parents", np.int64),
                "rid": cat("rids", np.int64),
                "start": cat("starts", np.float64),
                "end": cat("ends", np.float64),
                "cname": cat("cnames", np.int32),
                "ctime": cat("ctimes", np.float64),
                "cvalue": cat("cvalues", np.float64)}

    def dump(self, path: Path) -> None:
        """Write every span and counter event to ``path`` (.npz) and the
        name table to ``path`` + ``.json``."""
        with open(path, "wb") as handle:
            np.savez(handle, **self.columns())
        Path(str(path) + ".json").write_text(json.dumps(self.names))


def _advance(it):
    """``(False, next item)`` or ``(True, return value)``."""
    try:
        return False, next(it)
    except StopIteration as stop:
        return True, stop.value


class Spans:
    """Spans of one or more processes, with names resolved to strings."""

    def __init__(self, parts: Iterable[Dict]):
        self.parts = list(parts)

    @staticmethod
    def load(path: Path) -> Dict:
        with np.load(path) as data:
            cols = {key: data[key] for key in data.files}
        cols["names"] = json.loads(Path(str(path) + ".json").read_text())
        return cols

    def window(self, lo: float, hi: float) -> "Spans":
        """Only spans and counter events that started inside ``[lo, hi]``."""
        kept = []
        for part in self.parts:
            span = (part["start"] >= lo) & (part["start"] <= hi)
            event = (part["ctime"] >= lo) & (part["ctime"] <= hi)
            sub = dict(part)
            for key in ("name", "id", "parent", "rid", "start", "end"):
                sub[key] = part[key][span]
            for key in ("cname", "ctime", "cvalue"):
                sub[key] = part[key][event]
            kept.append(sub)
        return Spans(kept)

    def counts(self) -> Counter:
        total: Counter = Counter()
        for part in self.parts:
            for nid, name in enumerate(part["names"]):
                mask = part["cname"] == nid
                if mask.any():
                    total[name] += float(part["cvalue"][mask].sum())
        return total


def summarize(spans: Spans) -> Dict[str, Dict]:
    """Per span name: ``calls``, ``self_s`` and the span durations.

    Self time is computed per process, where span ids are unique: each
    span's duration minus the summed duration of spans whose parent it
    is.
    """
    out: Dict[str, Dict] = {}
    for part in spans.parts:
        if not len(part["id"]):
            continue
        dur = part["end"] - part["start"]
        size = int(max(part["id"].max(), part["parent"].max())) + 1
        child = np.bincount(part["parent"], weights=dur, minlength=size)
        child[0] = 0.0
        self_time = dur - child[part["id"]]
        for nid, name in enumerate(part["names"]):
            mask = part["name"] == nid
            if not mask.any():
                continue
            row = out.setdefault(name, {"calls": 0, "self_s": 0.0,
                                        "durations": []})
            row["calls"] += int(mask.sum())
            row["self_s"] += float(self_time[mask].sum())
            row["durations"].append(dur[mask])
    for row in out.values():
        row["durations"] = np.concatenate(row["durations"])
    return out
