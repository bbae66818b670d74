"""Closed-loop load generator for ``repro serve``, with response checks.

Two client threads, each on one keep-alive ``http.client.HTTPConnection``
with no socket tuning (what a dashboard or ``requests.Session`` uses), send
their next request only after the previous one completed.  Requests come
from one seeded plan, drawn in ticket order under a lock, so the sequence
of request kinds, ranks and reports depends only on the seed.

Every response is checked (a failed check makes the run incorrect):

* a site lookup answers 200 with the requested ``rank`` when the rank is in
  the current manifest, else 404;
* a report or listing answers 200;
* equal ETags always carry byte-identical bodies;
* a revalidation answers 304 exactly when the ETag it sends is current
  (seen since the last publish), else 200 with a different ETag;
* each publish changes the study's ETag in the ``/studies`` listing.

A *publish* (serve workload only) pauses both clients, replaces one shard
of the study in place by atomic renames (shard file, its sidecar index,
then ``manifest.json``) with the other crawl seed's bytes for the same
ranks, and GETs ``/studies`` so the catalog picks the change up.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import os
import random
import shutil
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple

from tracer import clock

from layers import REQUEST_ID_HEADER

LOOKUP, REPORT, REVALIDATE, LISTING, PUBLISH = (
    "lookup", "report", "revalidate", "listing", "publish")

#: Request mix: share of each class (publishes are scheduled separately).
#: No access log of ``repro serve`` exists yet, so these are placeholders,
#: not observed traffic: every class gets the same share, which also gives
#: each per-class median the same number of samples.  Replace them with the
#: shares a serve access log reports once one exists.
MIX = ((LOOKUP, 0.25), (REPORT, 0.25), (REVALIDATE, 0.25), (LISTING, 0.25))
#: Share of revalidations that send an ETag from before the last publish.
#: Also a placeholder: small enough that the revalidation median stays in
#: the 304 mode, large enough that every window checks the outdated-ETag
#: answer (200 with a new ETag) many times.
STALE_REVALIDATE = 0.1
#: Popularity skew of site lookups: rank r is drawn with weight
#: 1/r**ZIPF_S.  Web request popularity is Zipf-like with exponents of
#: 0.64 to 0.83 in the proxy traces of Breslau et al., "Web Caching and
#: Zipf-like Distributions" (INFOCOM 1999); this takes the low end.  On
#: loopback a site log larger than one segment (~64 KB; about a third of
#: lookups at this skew) is answered at once, the rest wait ~40 ms for the
#: client's delayed ACK, so the lookup median stays in the delayed mode.
ZIPF_S = 0.64
#: Client threads, each on one keep-alive connection (the host has 2 CPUs).
N_CLIENTS = 2
#: Socket timeout of every client connection, in seconds.
TIMEOUT = 60


@dataclass
class Record:
    """One completed request, as the client saw it."""

    rid: int
    kind: str
    status: int
    latency: float
    body_bytes: int


@dataclass
class Version:
    """One crawl of the study's ranks: its directory and manifest."""

    directory: Path
    manifest: object
    present: List[Set[int]]           # ranks per shard


@dataclass
class Study:
    """What the client expects the served study to contain right now."""

    study_id: str
    directory: Path
    versions: Sequence[Version]       # index 0 is what was published first
    shard_version: List[int] = field(default_factory=list)
    etag: Optional[str] = None

    def __post_init__(self) -> None:
        if not self.shard_version:
            self.shard_version = [0] * len(self.versions[0].present)

    def present(self, rank: int) -> bool:
        return any(rank in self.versions[v].present[i]
                   for i, v in enumerate(self.shard_version))


class Plan:
    """The seeded request sequence (drawn in ticket order)."""

    def __init__(self, seed: int, n_ranks: int, reports: Sequence[str],
                 publish_every: int = 0):
        self.rng = random.Random(seed)
        self.reports = list(reports)
        self.publish_every = publish_every
        weights = [1.0 / r ** ZIPF_S for r in range(1, n_ranks + 1)]
        self._ranks = list(range(1, n_ranks + 1))
        self._cum = list(_accumulate(weights))
        self._kinds = [kind for kind, _ in MIX]
        self._kind_cum = list(_accumulate([w for _, w in MIX]))

    def draw(self, ticket: int) -> Tuple[str, object]:
        if self.publish_every and ticket % self.publish_every == 0:
            return PUBLISH, self.rng.random()
        kind = self.rng.choices(self._kinds, cum_weights=self._kind_cum)[0]
        if kind == LOOKUP:
            rank = self.rng.choices(self._ranks, cum_weights=self._cum)[0]
            return kind, rank
        if kind == REPORT:
            return kind, self.rng.choice(self.reports)
        if kind == REVALIDATE:
            return kind, (self.rng.random(), self.rng.random())
        return kind, None


def _accumulate(values):
    total = 0.0
    for value in values:
        total += value
        yield total


class LoadGenerator:
    """Runs :class:`Plan` against one serve child."""

    def __init__(self, host: str, port: int, study: Study, plan: Plan):
        self.host, self.port = host, port
        self.study = study
        self.plan = plan
        self.records: List[Record] = []
        self.failures: List[str] = []
        self.attempted = 0
        self.failed = 0
        self.publishes = 0
        self.wall = 0.0
        self._lock = threading.Condition()
        self._ticket = 0
        self._inflight = 0
        self._paused = False
        self._etag_body: Dict[str, str] = {}
        # Revalidation pools: path -> ETag seen since the last publish, and
        # older (path, ETag, study ETag it was seen under).  A revalidation
        # expects 304 exactly when its study ETag is the current one (a
        # publish can flip a shard back, making an old ETag current again).
        self._current: Dict[str, str] = {}
        self._stale: List[Tuple[str, str, str]] = []

    # -- driving ----------------------------------------------------------
    def run(self, seconds: float) -> None:
        """Run the loop for ``seconds``; a later call goes on from here."""
        start = clock()
        threads = [threading.Thread(target=self._client,
                                    args=(start + seconds,))
                   for _ in range(N_CLIENTS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        self.wall += clock() - start

    def _client(self, deadline: float) -> None:
        conn = http.client.HTTPConnection(self.host, self.port,
                                          timeout=TIMEOUT)
        try:
            while clock() < deadline:
                with self._lock:
                    while self._paused:
                        self._lock.wait()
                    self._ticket += 1
                    ticket = self._ticket
                    kind, arg = self.plan.draw(ticket)
                    if kind == PUBLISH:
                        self._paused = True
                        while self._inflight:
                            self._lock.wait()
                    else:
                        self._inflight += 1
                try:
                    if kind == PUBLISH:
                        self._publish(conn, ticket, arg)
                    else:
                        conn = self._one(conn, ticket, kind, arg)
                except Exception as exc:
                    # Any error, a malformed body included, fails the run;
                    # the client goes on with a fresh connection.
                    self._fail(f"{kind}: {type(exc).__name__}: {exc}")
                    conn.close()
                    conn = http.client.HTTPConnection(self.host, self.port,
                                                      timeout=TIMEOUT)
                finally:
                    with self._lock:
                        if kind == PUBLISH:
                            self._paused = False
                        else:
                            self._inflight -= 1
                        self._lock.notify_all()
        finally:
            conn.close()

    # -- one request ------------------------------------------------------
    def _one(self, conn, rid: int, kind: str, arg):
        base = f"/studies/{self.study.study_id}"
        sent_etag = sent_is_current = None
        if kind == LOOKUP:
            path = f"{base}/sites/{arg}"
        elif kind == REPORT:
            path = f"{base}/reports/{arg}"
        elif kind == LISTING:
            path = "/studies"
        else:
            path, sent_etag, sent_is_current = self._pick_revalidation(arg)
            if path is None:   # nothing fetched yet: send a listing instead
                kind, path = LISTING, "/studies"
        headers = {"If-None-Match": sent_etag} if sent_etag else None
        with self._lock:
            self.attempted += 1
        try:
            latency, status, etag, body = request(conn, rid, path, headers)
        except (OSError, http.client.HTTPException) as exc:
            self._fail(f"{path}: {type(exc).__name__}: {exc}")
            conn.close()
            return http.client.HTTPConnection(self.host, self.port,
                                              timeout=TIMEOUT)
        with self._lock:
            self.records.append(Record(rid, kind, status, latency,
                                       len(body)))
            problem = self._check(kind, arg, path, status, etag, body,
                                  sent_etag, sent_is_current)
            if problem:
                self._fail(problem)
            elif status == 200 and etag and kind != LISTING:
                self._current[path] = etag
        return conn

    def _pick_revalidation(self, arg):
        pick, stale_pick = arg
        with self._lock:
            if self._stale and stale_pick < STALE_REVALIDATE:
                path, etag, seen_under = self._stale[
                    int(pick * len(self._stale))]
                return path, etag, seen_under == self.study.etag
            if not self._current:
                return None, None, None
            paths = sorted(self._current)
            path = paths[int(pick * len(paths))]
            return path, self._current[path], True

    def _check(self, kind, arg, path, status, etag, body, sent_etag,
               sent_is_current) -> Optional[str]:
        if kind == REVALIDATE:
            if sent_is_current:
                if status != 304 or etag != sent_etag:
                    return (f"{path}: current ETag revalidation answered "
                            f"{status} {etag} (sent {sent_etag})")
                return None
            if status != 200 or etag == sent_etag:
                return (f"{path}: outdated ETag revalidation answered "
                        f"{status} with ETag {etag}")
        elif kind == LOOKUP:
            expected = 200 if self.study.present(arg) else 404
            if status != expected:
                return f"{path}: expected {expected}, got {status}"
            if status == 404:
                return None
            if json.loads(body).get("rank") != arg:
                return f"{path}: body is for another rank"
        elif status != 200:
            return f"{path}: expected 200, got {status}"
        if kind == LISTING:
            listed = listed_etag(body, self.study.study_id)
            if listed != self.study.etag:
                return (f"/studies lists ETag {listed} for the study, "
                        f"expected {self.study.etag}")
        if etag is None:
            return f"{path}: 200 without an ETag"
        digest = hashlib.sha256(body).hexdigest()
        if self._etag_body.setdefault(etag, digest) != digest:
            return f"{path}: ETag {etag} came with two different bodies"
        return None

    def _fail(self, message: str) -> None:
        with self._lock:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(message)

    # -- publishing -------------------------------------------------------
    def listing_etag(self, conn, rid: int) -> Optional[str]:
        """GET /studies; the study's dataset ETag in the listing."""
        with self._lock:
            self.attempted += 1
        latency, status, _etag, body = request(conn, rid, "/studies")
        with self._lock:
            self.records.append(Record(rid, PUBLISH, status, latency,
                                       len(body)))
        if status != 200:
            self._fail(f"/studies answered {status}")
            return None
        return listed_etag(body, self.study.study_id)

    def _publish(self, conn, rid: int, pick: float) -> None:
        study = self.study
        index = int(pick * len(study.shard_version))
        new = 1 - study.shard_version[index]
        replace_shard(study.directory, study.versions[new], index)
        study.shard_version[index] = new
        before = study.etag
        etag = self.listing_etag(conn, rid)
        if etag is None or etag == before:
            self._fail(f"publish of shard {index} left the study ETag "
                       f"at {etag}")
        study.etag = etag
        self.publishes += 1
        self._stale.extend((path, tag, before)
                           for path, tag in self._current.items())
        del self._stale[:-200]
        self._current.clear()


def request(conn, rid: int, path: str,
            headers: Optional[Dict[str, str]] = None):
    """GET ``path`` tagged with request id ``rid``:
    (latency, status, ETag, body)."""
    headers = dict(headers or {}, **{REQUEST_ID_HEADER: str(rid)})
    start = clock()
    conn.request("GET", path, headers=headers)
    response = conn.getresponse()
    body = response.read()
    latency = clock() - start
    return latency, response.status, response.getheader("ETag"), body


def listed_etag(body: bytes, study_id: str) -> Optional[str]:
    """The dataset ETag a ``/studies`` body lists for ``study_id``."""
    return {s["id"]: s["etag"]
            for s in json.loads(body)["studies"]}.get(study_id)


def replace_shard(directory: Path, version: Version, index: int) -> None:
    """Publish ``version``'s shard ``index`` into ``directory`` in place.

    Shard file, sidecar index, then ``manifest.json``, each written to a
    temporary name and renamed over the old one.
    """
    from repro.crawler import ShardManifest, index_filename
    source = version.manifest
    name = source.files[index]
    for blob in (name, index_filename(name)):
        tmp = directory / f".{blob}.tmp"
        shutil.copyfile(version.directory / blob, tmp)
        os.replace(tmp, directory / blob)
    current = ShardManifest.load(directory)
    counts = list(current.counts)
    digests = list(current.digests)
    counts[index] = source.counts[index]
    digests[index] = source.digests[index]
    ShardManifest(n_shards=current.n_shards, total=sum(counts),
                  compress=current.compress, files=current.files,
                  counts=tuple(counts), digests=tuple(digests)).save(directory)
