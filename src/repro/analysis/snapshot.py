"""Versioned study snapshots: persist, resume, and refresh analyses.

A *snapshot* is the serialized state of a
:class:`~repro.analysis.reports.StudyAccumulator` — everything
``update()`` merges: ownerships, exfiltration events, manipulations,
``pairs_by_api``, and the integer counters — split into **parts**, one
per ingested shard, each pinned to that shard file's SHA-256.  Because
accumulators merge associatively (proven by
``tests/test_fastpath_equivalence.py``) and every report derivation is
order-independent, *save → load → add the remaining shards* produces
byte-identical report output to a monolithic pass.

The per-shard digest binding is what buys **partial refresh**
(:func:`refresh_study`): diff the snapshot's recorded digests against
the dataset's current :class:`~repro.crawler.storage.ShardManifest`,
re-ingest only shards whose bytes changed, and merge the untouched
parts back in — O(delta) instead of O(population).

Snapshots are a *new, explicitly versioned* artifact (the
``QUEUE_VERSION``/``SHARD_FORMAT_VERSION`` precedent): shard bytes,
shard digests, cache keys, and ETags are untouched by their existence.
The file layout is canonical JSON (sorted keys, compact separators)
stamped with a SHA-256 over its own payload, so equal states are equal
bytes and a torn or hand-edited file is refused on load.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple, Union

from ..crawler.storage import (ShardManifest, dataset_digests,
                               iter_shard_dicts)
from .attribution import CookiePair, CrossDomainAction, SiteOwnership
from .columnar import DEFAULT_BATCH_SIZE, ShardBatch
from .entities import EntityMap
from .exfiltration import ExfilEvent
from .filterlists import FilterList
from .reports import Study, StudyAccumulator

__all__ = [
    "SNAPSHOT_VERSION",
    "RefreshResult",
    "SnapshotError",
    "SnapshotPart",
    "StudySnapshot",
    "accumulator_state",
    "load_snapshot",
    "refresh_study",
    "save_snapshot",
    "snapshot_accumulator",
    "snapshot_dataset",
    "state_accumulator",
]

#: Version of the snapshot file format.  Bumped whenever the serialized
#: accumulator state changes shape; a mismatched file is refused with a
#: clear "re-analyze" message rather than silently misread.
SNAPSHOT_VERSION = 1

#: The counters ``StudyAccumulator.update`` sums — the serialized set.
_COUNTER_FIELDS = (
    "n_logs", "sites_with_tp", "tp_script_total", "tp_scripts_seen",
    "tracking_hits", "tp_set_writes", "fp_set_writes", "doc_api_sites",
    "store_api_sites", "direct_total", "indirect_total", "indirect_seen",
    "indirect_tracking", "dom_mod_sites",
)


class SnapshotError(ValueError):
    """A snapshot file is missing, corrupt, or from another version."""


# ---------------------------------------------------------------------------
# Accumulator state <-> canonical JSONable dict
# ---------------------------------------------------------------------------

def accumulator_state(acc: StudyAccumulator) -> Dict:
    """The accumulator's mergeable state as a canonical JSONable dict.

    Event lists are sorted on their full field tuples and set-valued
    fields become sorted lists, so two accumulators holding the same
    state serialize to identical bytes regardless of ingestion order —
    the property that makes snapshot files, and therefore their stamped
    digests, deterministic.
    """
    ownerships = {}
    for site, own in acc.ownerships.items():
        ownerships[site] = {
            "creators": dict(own.creators),
            # Value order is first-seen order and feeds IdentifierIndex
            # candidates at ingest time only; it is preserved verbatim.
            "values": {name: list(vals) for name, vals in own.values.items()},
            "channels": dict(own.channels),
            "apis": dict(own.apis),
        }
    exfil = sorted(
        [e.site, e.pair.name, e.pair.creator, e.actor, e.destination,
         e.url, e.matched_form, e.api_of_cookie]
        for e in acc.exfil_events)
    manip = sorted(
        [m.site, m.pair.name, m.pair.creator, m.actor, m.kind, m.api,
         m.inclusion, list(m.attrs_changed)]
        for m in acc.manipulations)
    return {
        "counters": {name: getattr(acc, name) for name in _COUNTER_FIELDS},
        "ownerships": ownerships,
        "exfil_events": exfil,
        "manipulations": manip,
        "pairs_by_api": {
            api: sorted([p.name, p.creator] for p in pairs)
            for api, pairs in acc.pairs_by_api.items()},
        "store_name_counts": dict(acc.store_name_counts),
    }


def state_accumulator(state: Dict,
                      entity_map: Optional[EntityMap] = None,
                      filter_list: Optional[FilterList] = None
                      ) -> StudyAccumulator:
    """Rebuild a :class:`StudyAccumulator` from :func:`accumulator_state`.

    ``entity_map``/``filter_list`` are *not* serialized (entity
    attribution and filter decisions happen at ingest/query time, never
    post-hoc on restored state); pass them to avoid re-deriving the
    defaults per part.
    """
    acc = StudyAccumulator(entity_map, filter_list)
    try:
        for name in _COUNTER_FIELDS:
            setattr(acc, name, int(state["counters"][name]))
        for site, own in state["ownerships"].items():
            acc.ownerships[site] = SiteOwnership(
                site=site,
                creators={str(k): str(v)
                          for k, v in own["creators"].items()},
                values={str(k): [str(v) for v in vals]
                        for k, vals in own["values"].items()},
                channels={str(k): str(v)
                          for k, v in own["channels"].items()},
                apis={str(k): str(v) for k, v in own["apis"].items()},
            )
        acc.exfil_events.extend(
            ExfilEvent(site=site, pair=CookiePair(name, creator),
                       actor=actor, destination=destination, url=url,
                       matched_form=matched_form,
                       api_of_cookie=api_of_cookie)
            for site, name, creator, actor, destination, url,
            matched_form, api_of_cookie in state["exfil_events"])
        acc.manipulations.extend(
            CrossDomainAction(site=site, pair=CookiePair(name, creator),
                              actor=actor, kind=kind, api=api,
                              inclusion=inclusion,
                              attrs_changed=tuple(attrs))
            for site, name, creator, actor, kind, api, inclusion, attrs
            in state["manipulations"])
        for api, pairs in state["pairs_by_api"].items():
            acc.pairs_by_api.setdefault(api, set()).update(
                CookiePair(name, creator) for name, creator in pairs)
        acc.store_name_counts = Counter(
            {str(k): int(v)
             for k, v in state["store_name_counts"].items()})
    except (KeyError, TypeError, ValueError) as exc:
        raise SnapshotError(f"malformed snapshot state: {exc}") from exc
    return acc


# ---------------------------------------------------------------------------
# The snapshot object
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SnapshotPart:
    """One shard's worth of accumulator state, pinned to its bytes.

    ``file``/``sha256``/``count`` bind the part to a shard file: a part
    whose digest still appears in the dataset's manifest can be merged
    as-is on refresh.  A part with no binding (``sha256 is None``) came
    from an in-memory accumulator and is only reusable via resume, not
    via digest diffing.
    """

    state: Dict
    file: Optional[str] = None
    sha256: Optional[str] = None
    count: Optional[int] = None

    def to_dict(self) -> Dict:
        out: Dict = {"state": self.state}
        if self.file is not None:
            out["file"] = self.file
        if self.sha256 is not None:
            out["sha256"] = self.sha256
        if self.count is not None:
            out["count"] = self.count
        return out

    @classmethod
    def from_dict(cls, data: Dict) -> "SnapshotPart":
        try:
            return cls(
                state=dict(data["state"]),
                file=None if data.get("file") is None else str(data["file"]),
                sha256=(None if data.get("sha256") is None
                        else str(data["sha256"])),
                count=(None if data.get("count") is None
                       else int(data["count"])),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise SnapshotError(f"malformed snapshot part: {exc}") from exc


class StudySnapshot:
    """A saved analysis: versioned, digest-stamped accumulator parts."""

    def __init__(self, parts: Iterable[SnapshotPart],
                 version: int = SNAPSHOT_VERSION):
        self.version = version
        self.parts: Tuple[SnapshotPart, ...] = tuple(parts)

    # -- structure ------------------------------------------------------
    def to_dict(self) -> Dict:
        return {"version": self.version,
                "parts": [part.to_dict() for part in self.parts]}

    @classmethod
    def from_dict(cls, data: Dict) -> "StudySnapshot":
        try:
            version = int(data["version"])
        except (KeyError, TypeError, ValueError) as exc:
            raise SnapshotError(f"malformed snapshot: {exc}") from exc
        if version != SNAPSHOT_VERSION:
            raise SnapshotError(
                f"unsupported snapshot version {version} (this build "
                f"reads version {SNAPSHOT_VERSION}); re-analyze the "
                f"dataset to rebuild the snapshot")
        try:
            parts = [SnapshotPart.from_dict(p) for p in data["parts"]]
        except (KeyError, TypeError) as exc:
            raise SnapshotError(f"malformed snapshot: {exc}") from exc
        return cls(parts, version=version)

    def part_by_digest(self) -> Dict[str, SnapshotPart]:
        """Shard-bound parts keyed by their pinned SHA-256."""
        return {part.sha256: part for part in self.parts
                if part.sha256 is not None}

    # -- payload bytes ----------------------------------------------------
    def payload_bytes(self) -> bytes:
        """Canonical serialization of the snapshot body (digest input)."""
        return json.dumps(self.to_dict(), sort_keys=True,
                          separators=(",", ":")).encode("utf-8")

    def digest(self) -> str:
        return hashlib.sha256(self.payload_bytes()).hexdigest()

    # -- back to an accumulator -----------------------------------------
    def accumulator(self, entity_map: Optional[EntityMap] = None,
                    filter_list: Optional[FilterList] = None
                    ) -> StudyAccumulator:
        """Merge every part into one resumed :class:`StudyAccumulator`.

        ``update()`` enforces the no-overlapping-sites invariant, so a
        snapshot holding the same shard twice fails loudly here.
        """
        out = StudyAccumulator(entity_map, filter_list)
        for part in self.parts:
            out.update(state_accumulator(part.state, out.entities,
                                         out.filters))
        return out

    def study(self, entity_map: Optional[EntityMap] = None,
              filter_list: Optional[FilterList] = None) -> Study:
        return Study.from_accumulator(self.accumulator(entity_map,
                                                       filter_list))


def snapshot_accumulator(acc: StudyAccumulator, *,
                         file: Optional[str] = None,
                         sha256: Optional[str] = None,
                         count: Optional[int] = None) -> StudySnapshot:
    """Snapshot one in-memory accumulator as a single part."""
    return StudySnapshot([SnapshotPart(state=accumulator_state(acc),
                                       file=file, sha256=sha256,
                                       count=count)])


# ---------------------------------------------------------------------------
# Save / load
# ---------------------------------------------------------------------------

def save_snapshot(snapshot: StudySnapshot, path: Union[str, Path]) -> Path:
    """Write a snapshot atomically (tmp + ``os.replace``), digest-stamped.

    The file is the canonical payload plus a ``sha256`` stamp over that
    payload, itself rendered canonically — saving the same state always
    produces the same bytes, and :func:`load_snapshot` verifies the
    stamp so a torn write or hand edit is refused rather than merged
    into an analysis.
    """
    path = Path(path)
    body = snapshot.to_dict()
    body["sha256"] = snapshot.digest()
    data = json.dumps(body, sort_keys=True,
                      separators=(",", ":")).encode("utf-8") + b"\n"
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as handle:
        handle.write(data)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)
    return path


def load_snapshot(path: Union[str, Path]) -> StudySnapshot:
    """Read and verify a snapshot written by :func:`save_snapshot`.

    Raises :class:`SnapshotError` on a missing/unparseable file, a
    version mismatch (with the re-analyze message), or a stamp that
    does not match the payload.
    """
    path = Path(path)
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise SnapshotError(f"cannot read snapshot {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SnapshotError(
            f"unparseable snapshot {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise SnapshotError(f"malformed snapshot {path}: not an object")
    stamp = data.pop("sha256", None)
    snapshot = StudySnapshot.from_dict(data)
    if stamp != snapshot.digest():
        raise SnapshotError(
            f"snapshot {path} is corrupt: payload hashes to "
            f"{snapshot.digest()[:12]}…, file records "
            f"{str(stamp)[:12]}…; re-analyze the dataset to rebuild it")
    return snapshot


# ---------------------------------------------------------------------------
# Building and refreshing from a sharded dataset
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RefreshResult:
    """What :func:`refresh_study` did, shard by shard."""

    snapshot: StudySnapshot
    reused: Tuple[str, ...]        # shard files merged from old parts
    reingested: Tuple[str, ...]    # shard files re-analyzed from bytes
    dropped: int                   # old parts no longer in the dataset

    @property
    def changed(self) -> bool:
        """Did the refresh produce different parts than the old snapshot?"""
        return bool(self.reingested) or self.dropped > 0


def _ingest_shard(dataset: Path, manifest: ShardManifest, pos: int,
                  entity_map: Optional[EntityMap],
                  filter_list: Optional[FilterList]) -> StudyAccumulator:
    acc = StudyAccumulator(entity_map, filter_list)
    dicts = iter_shard_dicts(dataset, pos, manifest)
    while True:
        batch = list(itertools.islice(dicts, DEFAULT_BATCH_SIZE))
        if not batch:
            return acc
        acc.add_shard_batch(ShardBatch.from_dicts(batch))


def refresh_study(snapshot: Optional[StudySnapshot],
                  dataset: Union[str, Path], *,
                  manifest: Optional[ShardManifest] = None,
                  digests: Optional[Tuple[str, ...]] = None,
                  entity_map: Optional[EntityMap] = None,
                  filter_list: Optional[FilterList] = None
                  ) -> RefreshResult:
    """Bring a snapshot up to date with a dataset's current bytes.

    Diffs the old snapshot's per-part digests against the dataset's
    current per-shard digests: parts whose shard bytes are unchanged
    are merged as-is, changed/added shards are re-ingested (columnar
    batches, same path as a cold build), and parts for shards that no
    longer exist are dropped.  With ``snapshot=None`` this is a full
    per-shard build — the one code path produces both cold snapshots
    and incremental refreshes, so they cannot drift apart.

    A shard's state is a pure function of its bytes (given the default
    entity/filter maps), so digest equality is sufficient for reuse —
    the same argument that makes the PR 3 shard cache sound.
    """
    dataset = Path(dataset)
    if manifest is None:
        manifest = ShardManifest.load(dataset)
    if digests is None:
        digests = dataset_digests(dataset, manifest)
    old = snapshot.part_by_digest() if snapshot is not None else {}
    parts: List[SnapshotPart] = []
    reused: List[str] = []
    reingested: List[str] = []
    seen: set = set()
    for pos, name in enumerate(manifest.files):
        digest = digests[pos]
        seen.add(digest)
        part = old.get(digest)
        if part is not None:
            # Same bytes, possibly renamed: keep the state, rebind it.
            parts.append(SnapshotPart(state=part.state, file=name,
                                      sha256=digest,
                                      count=manifest.counts[pos]))
            reused.append(name)
            continue
        acc = _ingest_shard(dataset, manifest, pos, entity_map,
                            filter_list)
        parts.append(SnapshotPart(state=accumulator_state(acc), file=name,
                                  sha256=digest,
                                  count=manifest.counts[pos]))
        reingested.append(name)
    dropped = sum(1 for digest in old if digest not in seen)
    if snapshot is not None:
        dropped += sum(1 for part in snapshot.parts if part.sha256 is None)
    return RefreshResult(snapshot=StudySnapshot(parts),
                         reused=tuple(reused),
                         reingested=tuple(reingested), dropped=dropped)


def snapshot_dataset(dataset: Union[str, Path], *,
                     entity_map: Optional[EntityMap] = None,
                     filter_list: Optional[FilterList] = None
                     ) -> StudySnapshot:
    """Analyze a sharded dataset into a fresh per-shard snapshot."""
    return refresh_study(None, dataset, entity_map=entity_map,
                         filter_list=filter_list).snapshot
