"""Columnar visit records: decode-once shard batches (ROADMAP item 5).

The object pipeline materializes a :class:`~repro.records.VisitLog` per
site and five dataclass instances per event, then every analysis pass
re-chases the same attribute chains (``log → events → fields``).  A
:class:`ShardBatch` decodes a shard **once** into parallel columns —
flat per-family lists plus CSR-style offset arrays addressing each
site's slice — so the exfiltration / attribution / filter-list passes
run as tight loops over adjacent list elements instead of attribute
lookups through object graphs.  Everything is stdlib: ``array`` for the
numeric columns, plain lists of (interned) strings for the rest.

Three ways into a batch:

* :meth:`ShardBatch.from_logs` — wrap in-memory ``VisitLog`` objects
  (what ``Study(logs)`` routes through);
* :meth:`ShardBatch.from_dicts` — single-pass JSON-dict → columns, no
  event dataclasses ever constructed (the storage decode loop;
  :func:`iter_shard_batches` streams a whole dataset this way);
* :func:`batch_for_ranks` — slice selected sites out of a sharded
  dataset through the PR 6 sidecar offsets, seek + decode only the
  requested lines.

The object API stays available as a thin view: :meth:`ShardBatch.log`
rebuilds one ``VisitLog`` on demand and :meth:`ShardBatch.logs` a whole
list, so callers that need records (the serve site endpoint, the golden
fixture) are untouched.

The per-site analysis kernels (:func:`build_ownership_batch`,
:func:`detect_exfiltration_batch`, :func:`detect_manipulations_batch`)
reproduce :mod:`repro.analysis.attribution` / ``exfiltration`` exactly
— same first-creation-wins ordering, same candidate split, same
collision tie-breaks — which is what
``tests/test_fastpath_equivalence.py`` locks in: the object path and
the columnar path must yield byte-identical ``Study`` report output.
"""

from __future__ import annotations

import json
from array import array
from sys import intern
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

from ..records import (CookieReadEvent, CookieWriteEvent, DomMutationEvent,
                       HeaderCookieEvent, RequestEvent, ScriptRecord,
                       VisitLog)
from .attribution import (CookiePair, CrossDomainAction, SiteOwnership,
                          _attrs_from_raw)
from .exfiltration import (ExfilEvent, encoded_forms_cached,
                           split_candidates_fast)

__all__ = [
    "ShardBatch",
    "batch_for_ranks",
    "build_ownership_batch",
    "detect_exfiltration_batch",
    "detect_manipulations_batch",
    "iter_shard_batches",
]

#: Logs per batch when streaming a dataset; bounds decode memory the
#: same way the coordinator bounds a shard (O(batch), not O(dataset)).
DEFAULT_BATCH_SIZE = 512


def _iopt(value: Optional[str]) -> Optional[str]:
    """Intern low-cardinality strings; ``None`` passes through."""
    return intern(value) if value is not None else None


class ShardBatch:
    """A batch of visit logs as parallel columns.

    Per-log columns are indexed by the batch-local position ``i``; each
    event family stores a flat column per field plus an offset array
    ``*_off`` of length ``len(batch) + 1`` so family ``f``'s events for
    log ``i`` live at ``f_col[f_off[i]:f_off[i + 1]]``.
    """

    __slots__ = (
        # per-log
        "sites", "urls", "ranks", "n_scripts", "n_tp", "n_direct",
        "n_indirect", "cookie_ops", "interacted",
        # cookie writes
        "w_off", "w_name", "w_value", "w_api", "w_kind", "w_script_url",
        "w_script_domain", "w_inclusion", "w_raw", "w_prev", "w_attrs",
        "w_ts",
        # cookie reads
        "r_off", "r_api", "r_script_url", "r_script_domain", "r_inclusion",
        "r_names", "r_ts",
        # header cookies
        "h_off", "h_name", "h_value", "h_resp_url", "h_resp_domain",
        "h_init_domain", "h_first", "h_ts",
        # requests
        "q_off", "q_url", "q_host", "q_domain", "q_method", "q_rtype",
        "q_query", "q_body", "q_script_url", "q_script_domain", "q_stack",
        "q_ts",
        # dom mutations
        "d_off", "d_kind", "d_tag", "d_actor", "d_owner", "d_cross", "d_ts",
        # scripts
        "s_off", "s_url", "s_domain", "s_inclusion", "s_depth", "s_parent",
    )

    def __init__(self) -> None:
        self.sites: List[str] = []
        self.urls: List[str] = []
        self.ranks = array("q")
        self.n_scripts = array("q")
        self.n_tp = array("q")
        self.n_direct = array("q")
        self.n_indirect = array("q")
        self.cookie_ops = array("q")
        self.interacted = array("b")

        self.w_off = array("q", [0])
        self.w_name: List[str] = []
        self.w_value: List[str] = []
        self.w_api: List[str] = []
        self.w_kind: List[str] = []
        self.w_script_url: List[Optional[str]] = []
        self.w_script_domain: List[Optional[str]] = []
        self.w_inclusion: List[str] = []
        self.w_raw: List[str] = []
        self.w_prev: List[Optional[str]] = []
        self.w_attrs: List[Tuple[str, ...]] = []
        self.w_ts = array("d")

        self.r_off = array("q", [0])
        self.r_api: List[str] = []
        self.r_script_url: List[Optional[str]] = []
        self.r_script_domain: List[Optional[str]] = []
        self.r_inclusion: List[str] = []
        self.r_names: List[Tuple[str, ...]] = []
        self.r_ts = array("d")

        self.h_off = array("q", [0])
        self.h_name: List[str] = []
        self.h_value: List[str] = []
        self.h_resp_url: List[str] = []
        self.h_resp_domain: List[str] = []
        self.h_init_domain: List[Optional[str]] = []
        self.h_first = array("b")
        self.h_ts = array("d")

        self.q_off = array("q", [0])
        self.q_url: List[str] = []
        self.q_host: List[str] = []
        self.q_domain: List[str] = []
        self.q_method: List[str] = []
        self.q_rtype: List[str] = []
        self.q_query: List[str] = []
        self.q_body: List[str] = []
        self.q_script_url: List[Optional[str]] = []
        self.q_script_domain: List[Optional[str]] = []
        self.q_stack: List[Tuple[str, ...]] = []
        self.q_ts = array("d")

        self.d_off = array("q", [0])
        self.d_kind: List[str] = []
        self.d_tag: List[str] = []
        self.d_actor: List[Optional[str]] = []
        self.d_owner: List[Optional[str]] = []
        self.d_cross = array("b")
        self.d_ts = array("d")

        self.s_off = array("q", [0])
        self.s_url: List[Optional[str]] = []
        self.s_domain: List[Optional[str]] = []
        self.s_inclusion: List[str] = []
        self.s_depth = array("q")
        self.s_parent: List[Optional[str]] = []

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.sites)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_logs(cls, logs: Sequence[VisitLog]) -> "ShardBatch":
        """Columns from in-memory :class:`VisitLog` objects.

        Each event family is flattened once, then every column fills
        with a single comprehension over the flat run — the attribute
        chasing happens here and nowhere else.
        """
        batch = cls()
        logs = list(logs)
        batch.sites = [log.site for log in logs]
        batch.urls = [log.url for log in logs]
        batch.ranks = array("q", [log.rank for log in logs])
        batch.n_scripts = array("q", [log.n_scripts for log in logs])
        batch.n_tp = array("q", [log.n_third_party_scripts for log in logs])
        batch.n_direct = array("q",
                               [log.n_direct_third_party for log in logs])
        batch.n_indirect = array("q",
                                 [log.n_indirect_third_party for log in logs])
        batch.cookie_ops = array("q", [log.cookie_op_count for log in logs])
        batch.interacted = array("b",
                                 [1 if log.interacted else 0 for log in logs])

        ws: List[CookieWriteEvent] = []
        for log in logs:
            ws.extend(log.cookie_writes)
            batch.w_off.append(len(ws))
        batch.w_name = [w.cookie_name for w in ws]
        batch.w_value = [w.cookie_value for w in ws]
        batch.w_api = [w.api for w in ws]
        batch.w_kind = [w.kind for w in ws]
        batch.w_script_url = [w.script_url for w in ws]
        batch.w_script_domain = [w.script_domain for w in ws]
        batch.w_inclusion = [w.inclusion for w in ws]
        batch.w_raw = [w.raw for w in ws]
        batch.w_prev = [w.prev_value for w in ws]
        batch.w_attrs = [w.attrs_changed for w in ws]
        batch.w_ts = array("d", [w.timestamp for w in ws])

        rs: List[CookieReadEvent] = []
        for log in logs:
            rs.extend(log.cookie_reads)
            batch.r_off.append(len(rs))
        batch.r_api = [r.api for r in rs]
        batch.r_script_url = [r.script_url for r in rs]
        batch.r_script_domain = [r.script_domain for r in rs]
        batch.r_inclusion = [r.inclusion for r in rs]
        batch.r_names = [r.cookie_names for r in rs]
        batch.r_ts = array("d", [r.timestamp for r in rs])

        hs: List[HeaderCookieEvent] = []
        for log in logs:
            hs.extend(log.header_cookies)
            batch.h_off.append(len(hs))
        batch.h_name = [h.cookie_name for h in hs]
        batch.h_value = [h.cookie_value for h in hs]
        batch.h_resp_url = [h.response_url for h in hs]
        batch.h_resp_domain = [h.response_domain for h in hs]
        batch.h_init_domain = [h.initiator_domain for h in hs]
        batch.h_first = array("b", [1 if h.first_party else 0 for h in hs])
        batch.h_ts = array("d", [h.timestamp for h in hs])

        qs: List[RequestEvent] = []
        for log in logs:
            qs.extend(log.requests)
            batch.q_off.append(len(qs))
        batch.q_url = [q.url for q in qs]
        batch.q_host = [q.host for q in qs]
        batch.q_domain = [q.domain for q in qs]
        batch.q_method = [q.method for q in qs]
        batch.q_rtype = [q.resource_type for q in qs]
        batch.q_query = [q.query for q in qs]
        batch.q_body = [q.body for q in qs]
        batch.q_script_url = [q.script_url for q in qs]
        batch.q_script_domain = [q.script_domain for q in qs]
        batch.q_stack = [q.stack for q in qs]
        batch.q_ts = array("d", [q.timestamp for q in qs])

        ds: List[DomMutationEvent] = []
        for log in logs:
            ds.extend(log.dom_mutations)
            batch.d_off.append(len(ds))
        batch.d_kind = [d.kind for d in ds]
        batch.d_tag = [d.target_tag for d in ds]
        batch.d_actor = [d.actor_domain for d in ds]
        batch.d_owner = [d.owner_domain for d in ds]
        batch.d_cross = array("b", [1 if d.cross_script else 0 for d in ds])
        batch.d_ts = array("d", [d.timestamp for d in ds])

        ss: List[ScriptRecord] = []
        for log in logs:
            ss.extend(log.scripts)
            batch.s_off.append(len(ss))
        batch.s_url = [s.url for s in ss]
        batch.s_domain = [s.domain for s in ss]
        batch.s_inclusion = [s.inclusion for s in ss]
        batch.s_depth = array("q", [s.depth for s in ss])
        batch.s_parent = [s.parent_domain for s in ss]
        return batch

    @classmethod
    def from_dicts(cls, dicts: Sequence[Dict]) -> "ShardBatch":
        """Columns straight from parsed JSON dicts (single-pass decode).

        This is the storage decode loop: no ``VisitLog`` and no event
        dataclasses are ever constructed.  Low-cardinality strings
        (sites, domains, APIs, kinds, inclusion labels) are interned so
        repeated values across a shard share one object — equality
        checks in the analysis kernels become pointer compares.
        """
        batch = cls()
        for data in dicts:
            batch.sites.append(intern(data["site"]))
            batch.urls.append(data["url"])
            batch.ranks.append(int(data.get("rank", 0)))
            batch.n_scripts.append(int(data.get("n_scripts", 0)))
            batch.n_tp.append(int(data.get("n_third_party_scripts", 0)))
            batch.n_direct.append(int(data.get("n_direct_third_party", 0)))
            batch.n_indirect.append(int(data.get("n_indirect_third_party", 0)))
            batch.cookie_ops.append(int(data.get("cookie_op_count", 0)))
            batch.interacted.append(1 if data.get("interacted", False) else 0)

            for w in data.get("cookie_writes", ()):
                batch.w_name.append(intern(w["cookie_name"]))
                batch.w_value.append(w["cookie_value"])
                batch.w_api.append(intern(w["api"]))
                batch.w_kind.append(intern(w["kind"]))
                batch.w_script_url.append(w["script_url"])
                batch.w_script_domain.append(_iopt(w["script_domain"]))
                batch.w_inclusion.append(intern(w["inclusion"]))
                batch.w_raw.append(w.get("raw", ""))
                batch.w_prev.append(w.get("prev_value"))
                batch.w_attrs.append(tuple(w.get("attrs_changed", ())))
                batch.w_ts.append(float(w.get("timestamp", 0.0)))
            batch.w_off.append(len(batch.w_name))

            for r in data.get("cookie_reads", ()):
                batch.r_api.append(intern(r["api"]))
                batch.r_script_url.append(r["script_url"])
                batch.r_script_domain.append(_iopt(r["script_domain"]))
                batch.r_inclusion.append(intern(r["inclusion"]))
                batch.r_names.append(tuple(r.get("cookie_names", ())))
                batch.r_ts.append(float(r.get("timestamp", 0.0)))
            batch.r_off.append(len(batch.r_api))

            for h in data.get("header_cookies", ()):
                batch.h_name.append(intern(h["cookie_name"]))
                batch.h_value.append(h["cookie_value"])
                batch.h_resp_url.append(h["response_url"])
                batch.h_resp_domain.append(intern(h["response_domain"]))
                batch.h_init_domain.append(_iopt(h["initiator_domain"]))
                batch.h_first.append(1 if h["first_party"] else 0)
                batch.h_ts.append(float(h.get("timestamp", 0.0)))
            batch.h_off.append(len(batch.h_name))

            for q in data.get("requests", ()):
                batch.q_url.append(q["url"])
                batch.q_host.append(intern(q["host"]))
                batch.q_domain.append(intern(q["domain"]))
                batch.q_method.append(intern(q["method"]))
                batch.q_rtype.append(intern(q["resource_type"]))
                batch.q_query.append(q["query"])
                batch.q_body.append(q["body"])
                batch.q_script_url.append(q["script_url"])
                batch.q_script_domain.append(_iopt(q["script_domain"]))
                batch.q_stack.append(tuple(q.get("stack", ())))
                batch.q_ts.append(float(q.get("timestamp", 0.0)))
            batch.q_off.append(len(batch.q_url))

            for d in data.get("dom_mutations", ()):
                batch.d_kind.append(intern(d["kind"]))
                batch.d_tag.append(intern(d["target_tag"]))
                batch.d_actor.append(_iopt(d["actor_domain"]))
                batch.d_owner.append(_iopt(d["owner_domain"]))
                batch.d_cross.append(1 if d["cross_script"] else 0)
                batch.d_ts.append(float(d.get("timestamp", 0.0)))
            batch.d_off.append(len(batch.d_kind))

            for s in data.get("scripts", ()):
                batch.s_url.append(s["url"])
                batch.s_domain.append(_iopt(s["domain"]))
                batch.s_inclusion.append(intern(s["inclusion"]))
                batch.s_depth.append(int(s.get("depth", 0)))
                batch.s_parent.append(_iopt(s.get("parent_domain")))
            batch.s_off.append(len(batch.s_url))
        return batch

    @classmethod
    def from_jsonl(cls, lines: Sequence[Union[str, bytes]]) -> "ShardBatch":
        """Columns from raw JSONL lines (blank lines skipped)."""
        loads = json.loads
        return cls.from_dicts([loads(line) for line in lines
                               if line.strip()])

    # ------------------------------------------------------------------
    # Object view (thin; built on demand)
    # ------------------------------------------------------------------
    def log(self, i: int) -> VisitLog:
        """Rebuild the :class:`VisitLog` for batch position ``i``."""
        log = VisitLog(site=self.sites[i], url=self.urls[i],
                       rank=self.ranks[i])
        for j in range(self.w_off[i], self.w_off[i + 1]):
            log.cookie_writes.append(CookieWriteEvent(
                site=log.site, cookie_name=self.w_name[j],
                cookie_value=self.w_value[j], api=self.w_api[j],
                kind=self.w_kind[j], script_url=self.w_script_url[j],
                script_domain=self.w_script_domain[j],
                inclusion=self.w_inclusion[j], raw=self.w_raw[j],
                prev_value=self.w_prev[j], attrs_changed=self.w_attrs[j],
                timestamp=self.w_ts[j]))
        for j in range(self.r_off[i], self.r_off[i + 1]):
            log.cookie_reads.append(CookieReadEvent(
                site=log.site, api=self.r_api[j],
                script_url=self.r_script_url[j],
                script_domain=self.r_script_domain[j],
                inclusion=self.r_inclusion[j],
                cookie_names=self.r_names[j], timestamp=self.r_ts[j]))
        for j in range(self.h_off[i], self.h_off[i + 1]):
            log.header_cookies.append(HeaderCookieEvent(
                site=log.site, cookie_name=self.h_name[j],
                cookie_value=self.h_value[j],
                response_url=self.h_resp_url[j],
                response_domain=self.h_resp_domain[j],
                initiator_domain=self.h_init_domain[j],
                first_party=bool(self.h_first[j]), timestamp=self.h_ts[j]))
        for j in range(self.q_off[i], self.q_off[i + 1]):
            log.requests.append(RequestEvent(
                site=log.site, url=self.q_url[j], host=self.q_host[j],
                domain=self.q_domain[j], method=self.q_method[j],
                resource_type=self.q_rtype[j], query=self.q_query[j],
                body=self.q_body[j], script_url=self.q_script_url[j],
                script_domain=self.q_script_domain[j],
                stack=self.q_stack[j], timestamp=self.q_ts[j]))
        for j in range(self.d_off[i], self.d_off[i + 1]):
            log.dom_mutations.append(DomMutationEvent(
                site=log.site, kind=self.d_kind[j],
                target_tag=self.d_tag[j], actor_domain=self.d_actor[j],
                owner_domain=self.d_owner[j],
                cross_script=bool(self.d_cross[j]), timestamp=self.d_ts[j]))
        for j in range(self.s_off[i], self.s_off[i + 1]):
            log.scripts.append(ScriptRecord(
                url=self.s_url[j], domain=self.s_domain[j],
                inclusion=self.s_inclusion[j], depth=self.s_depth[j],
                parent_domain=self.s_parent[j]))
        log.n_scripts = self.n_scripts[i]
        log.n_third_party_scripts = self.n_tp[i]
        log.n_direct_third_party = self.n_direct[i]
        log.n_indirect_third_party = self.n_indirect[i]
        log.cookie_op_count = self.cookie_ops[i]
        log.interacted = bool(self.interacted[i])
        return log

    def logs(self) -> List[VisitLog]:
        return [self.log(i) for i in range(len(self))]

    # ------------------------------------------------------------------
    def select(self, indices: Sequence[int]) -> "ShardBatch":
        """A new batch holding the given positions, in the given order.

        Pure column gathering — no objects are materialized.  This is
        how the serve layer routes one decoded batch into per-bucket
        accumulators.
        """
        out = ShardBatch()
        families = (
            ("w_off", ("w_name", "w_value", "w_api", "w_kind",
                       "w_script_url", "w_script_domain", "w_inclusion",
                       "w_raw", "w_prev", "w_attrs", "w_ts")),
            ("r_off", ("r_api", "r_script_url", "r_script_domain",
                       "r_inclusion", "r_names", "r_ts")),
            ("h_off", ("h_name", "h_value", "h_resp_url", "h_resp_domain",
                       "h_init_domain", "h_first", "h_ts")),
            ("q_off", ("q_url", "q_host", "q_domain", "q_method", "q_rtype",
                       "q_query", "q_body", "q_script_url",
                       "q_script_domain", "q_stack", "q_ts")),
            ("d_off", ("d_kind", "d_tag", "d_actor", "d_owner", "d_cross",
                       "d_ts")),
            ("s_off", ("s_url", "s_domain", "s_inclusion", "s_depth",
                       "s_parent")),
        )
        for i in indices:
            for name in ("sites", "urls", "ranks", "n_scripts", "n_tp",
                         "n_direct", "n_indirect", "cookie_ops",
                         "interacted"):
                getattr(out, name).append(getattr(self, name)[i])
            for off_name, cols in families:
                off = getattr(self, off_name)
                lo, hi = off[i], off[i + 1]
                for col_name in cols:
                    getattr(out, col_name).extend(
                        getattr(self, col_name)[lo:hi])
                out_off = getattr(out, off_name)
                out_off.append(out_off[-1] + (hi - lo))
        return out


# ---------------------------------------------------------------------------
# Streaming decode (storage → batches)
# ---------------------------------------------------------------------------

def iter_shard_batches(path, batch_size: int = DEFAULT_BATCH_SIZE
                       ) -> Iterator[ShardBatch]:
    """Stream a dataset as :class:`ShardBatch` chunks.

    Accepts the same dataset directory as
    :func:`repro.crawler.storage.iter_logs` and performs the same
    manifest validation, but decodes JSON straight into columns — the
    per-event dataclass layer is skipped entirely.
    """
    from ..crawler.storage import iter_dict_batches
    for dicts in iter_dict_batches(path, batch_size=batch_size):
        yield ShardBatch.from_dicts(dicts)


def batch_for_ranks(directory, ranks: Sequence[int], *,
                    manifest=None, index_cache: Optional[Dict] = None
                    ) -> ShardBatch:
    """Decode only the given ranks into a batch, via sidecar offsets.

    Reuses the PR 6 seek indexes: each requested rank costs one seek
    and one line decode; shards without a usable sidecar fall back to a
    line scan (same degradation contract as ``read_site``).  Rows come
    back in the order ``ranks`` lists them.  Raises ``KeyError`` when a
    rank is absent from the dataset.
    """
    from ..crawler.storage import read_site_line
    loads = json.loads
    dicts = [loads(read_site_line(directory, rank, manifest=manifest,
                                  index_cache=index_cache))
             for rank in ranks]
    return ShardBatch.from_dicts(dicts)


# ---------------------------------------------------------------------------
# Per-site analysis kernels (columnar twins of the object-path detectors)
# ---------------------------------------------------------------------------

def build_ownership_batch(batch: ShardBatch, i: int) -> SiteOwnership:
    """Columnar twin of :func:`repro.analysis.attribution.build_ownership`.

    Same merge of first-party headers and script writes in timestamp
    order (ties: headers first via the 10^6 index offset), same
    first-creation-wins ``setdefault`` semantics.
    """
    site = batch.sites[i]
    ownership = SiteOwnership(site=site)

    events: List[Tuple[float, int, int, bool]] = []
    h_lo = batch.h_off[i]
    h_first = batch.h_first
    h_ts = batch.h_ts
    for j in range(h_lo, batch.h_off[i + 1]):
        if h_first[j]:
            events.append((h_ts[j], j - h_lo, j, False))
    w_lo = batch.w_off[i]
    w_ts = batch.w_ts
    for j in range(w_lo, batch.w_off[i + 1]):
        events.append((w_ts[j], 1_000_000 + (j - w_lo), j, True))
    events.sort(key=lambda item: (item[0], item[1]))

    creators = ownership.creators
    channels = ownership.channels
    apis = ownership.apis
    values = ownership.values
    for _ts, _idx, j, is_write in events:
        if is_write:
            if batch.w_kind[j] not in ("set", "overwrite"):
                continue
            name = batch.w_name[j]
            actor = batch.w_script_domain[j]
            creators.setdefault(name, actor if actor is not None else site)
            channels.setdefault(name, "script")
            apis.setdefault(name, batch.w_api[j])
            value = batch.w_value[j]
        else:
            name = batch.h_name[j]
            creators.setdefault(name, batch.h_resp_domain[j])
            channels.setdefault(name, "http")
            apis.setdefault(name, "http")
            value = batch.h_value[j]
        seen = values.setdefault(name, [])
        if value and value not in seen:
            seen.append(value)
    return ownership


def detect_manipulations_batch(batch: ShardBatch, i: int,
                               ownership: SiteOwnership
                               ) -> List[CrossDomainAction]:
    """Columnar twin of ``attribution.detect_manipulations``."""
    site = batch.sites[i]
    actions: List[CrossDomainAction] = []
    created = {batch.h_name[j]
               for j in range(batch.h_off[i], batch.h_off[i + 1])
               if batch.h_first[j]}
    creators = ownership.creators
    w_name = batch.w_name
    w_kind = batch.w_kind
    w_script_domain = batch.w_script_domain
    for j in range(batch.w_off[i], batch.w_off[i + 1]):
        name = w_name[j]
        write_kind = w_kind[j]
        actor = w_script_domain[j]
        if actor is None:
            actor = site
        kind: Optional[str] = None
        attrs = batch.w_attrs[j]
        if write_kind == "delete":
            kind = "delete"
        elif write_kind == "overwrite":
            kind = "overwrite"
        elif write_kind == "set" and name in created:
            kind = "overwrite"
            attrs = _attrs_from_raw(batch.w_raw[j])
        if write_kind in ("set", "overwrite"):
            created.add(name)
        creator = creators.get(name)
        if kind is None or creator is None or actor == creator:
            continue
        actions.append(CrossDomainAction(
            site=site, pair=CookiePair(name, creator), actor=actor,
            kind=kind, api=batch.w_api[j], inclusion=batch.w_inclusion[j],
            attrs_changed=attrs))
    return actions


_FORM_NAMES = ("plain", "b64", "md5", "sha1")

#: Query/body string → deduplicated candidate tokens.  Pure function of
#: the string, so sharing it process-wide is safe; endpoints repeat the
#: same payload shapes across sites and across repeated analyses.
_TOKEN_CACHE: Dict[str, Tuple[str, ...]] = {}
_TOKEN_CACHE_LIMIT = 1 << 16


def _tokens_of(text: str) -> Tuple[str, ...]:
    tokens = _TOKEN_CACHE.get(text)
    if tokens is None:
        if len(_TOKEN_CACHE) >= _TOKEN_CACHE_LIMIT:
            _TOKEN_CACHE.clear()
        tokens = _TOKEN_CACHE[text] = \
            tuple(dict.fromkeys(split_candidates_fast(text)))
    return tokens


#: Cookie value → ((encoded form, form name), ...) in reference order —
#: split first, then plain/b64/md5/sha1 per candidate.
_VALUE_FORMS_CACHE: Dict[str, Tuple[Tuple[str, str], ...]] = {}


def _value_forms(value: str) -> Tuple[Tuple[str, str], ...]:
    forms = _VALUE_FORMS_CACHE.get(value)
    if forms is None:
        if len(_VALUE_FORMS_CACHE) >= _TOKEN_CACHE_LIMIT:
            _VALUE_FORMS_CACHE.clear()
        out: List[Tuple[str, str]] = []
        for candidate in split_candidates_fast(value):
            for form_name, form in zip(_FORM_NAMES,
                                       encoded_forms_cached(candidate)):
                out.append((form, form_name))
        forms = _VALUE_FORMS_CACHE[value] = tuple(out)
    return forms


#: Ownership content → built identifier index.  The key is the full
#: (site, creators, values) payload, so a hit can only reproduce what a
#: rebuild would; repeated analyses of one dataset (bench repeats, the
#: serve layer answering queries) skip the per-site index build.
_INDEX_CACHE: Dict[tuple, Dict[str, Tuple[CookiePair, str]]] = {}
_INDEX_CACHE_LIMIT = 1 << 13


def _identifier_index(ownership: SiteOwnership
                      ) -> Dict[str, Tuple[CookiePair, str]]:
    creators = ownership.creators
    key = (ownership.site,
           tuple((name, creators.get(name), tuple(values))
                 for name, values in ownership.values.items()))
    index = _INDEX_CACHE.get(key)
    if index is None:
        if len(_INDEX_CACHE) >= _INDEX_CACHE_LIMIT:
            _INDEX_CACHE.clear()
        index = {}
        for name, values in ownership.values.items():
            creator = creators.get(name)
            if creator is None:
                continue
            pair = CookiePair(name, creator)
            for value in values:
                for form, form_name in _value_forms(value):
                    index.setdefault(form, (pair, form_name))
        _INDEX_CACHE[key] = index
    return index


def detect_exfiltration_batch(batch: ShardBatch, i: int,
                              ownership: SiteOwnership
                              ) -> List[ExfilEvent]:
    """Columnar twin of ``exfiltration.detect_exfiltration``.

    Builds the same encoded-form identifier index (same iteration and
    collision order, so identical first-pair-wins choices), then scans
    request queries/bodies with the regex candidate splitter.  Tokens
    are deduplicated in occurrence order (query before body), which is
    a deterministic refinement of the object path's set iteration; the
    event *sets* — and therefore every derived report — are identical.
    """
    site = batch.sites[i]
    index = _identifier_index(ownership)
    if not index:
        return []

    events: List[ExfilEvent] = []
    seen: set = set()
    apis = ownership.apis
    lookup = index.get
    q_script_domain = batch.q_script_domain
    q_query = batch.q_query
    q_body = batch.q_body
    for j in range(batch.q_off[i], batch.q_off[i + 1]):
        actor = q_script_domain[j]
        if actor is None:
            actor = site
        tokens = _tokens_of(q_query[j])
        body = q_body[j]
        if body:
            body_tokens = _tokens_of(body)
            if body_tokens:
                tokens = tuple(dict.fromkeys(tokens + body_tokens))
        for token in tokens:
            hit = lookup(token)
            if hit is None:
                continue
            pair, form_name = hit
            if pair.creator == actor:
                continue
            key = (pair.name, pair.creator, actor, batch.q_domain[j])
            if key in seen:
                continue
            seen.add(key)
            events.append(ExfilEvent(
                site=site, pair=pair, actor=actor,
                destination=batch.q_domain[j], url=batch.q_url[j],
                matched_form=form_name,
                api_of_cookie=apis.get(pair.name, "script")))
    return events
