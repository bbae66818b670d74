"""Persistence for crawl datasets (JSONL, optionally gzipped).

A dataset is a directory: ``shard-0000.jsonl[.gz] …
shard-NNNN.jsonl[.gz]`` plus a ``manifest.json`` that pins each shard's
log count and SHA-256.  The crawl coordinator streams each shard to its
own file, so a full-scale crawl never has to hold every
:class:`VisitLog` in memory at once.  ``save_logs`` writes the same
layout from logs already in memory; every reader requires the manifest
and validates the shards against it while reading.

Sharded writes also emit a **sidecar index** per shard
(``shard-NNNN.index.json``): a rank → (byte offset, line length) map
over the *uncompressed* JSONL stream, plus the shard file's SHA-256 so
a stale sidecar (shard rewritten without its index) is detected and
ignored.  :func:`read_site` uses the sidecars to serve a single site's
:class:`VisitLog` with a seek and a one-line parse instead of
deserializing a whole shard — the lookup primitive the
:mod:`repro.serve` HTTP catalog rides — falling back to a full line
scan for pre-index datasets (:func:`build_shard_indexes` backfills
them in one shot).  The sidecar is derived data: shard bytes, digests,
and :data:`SHARD_FORMAT_VERSION` are untouched by its existence.
"""

from __future__ import annotations

import gzip
import hashlib
import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import (Dict, Iterable, Iterator, List, NamedTuple, Optional,
                    Sequence, Tuple, Union)

from ..faults import InjectedFault, maybe_fire
from .logs import VisitLog

__all__ = [
    "IndexBuildResult",
    "ManifestError",
    "SHARD_FORMAT_VERSION",
    "SHARD_INDEX_VERSION",
    "ShardIndex",
    "ShardManifest",
    "ShardWriteResult",
    "build_shard_indexes",
    "compute_digest",
    "dataset_digests",
    "index_filename",
    "iter_dict_batches",
    "iter_dicts",
    "iter_logs",
    "iter_shard_dicts",
    "load_logs",
    "load_shard_index",
    "shard_index_from_bytes",
    "shard_index_to_bytes",
    "read_site",
    "read_site_line",
    "save_logs",
    "shard_filename",
    "verify_shard_files",
    "write_shard",
]

MANIFEST_NAME = "manifest.json"
MANIFEST_VERSION = 1

#: Version of the sidecar ``*.index.json`` format.  Independent of the
#: shard byte format: the sidecar is derived data and never enters
#: digests, cache keys, or the golden fixture.
SHARD_INDEX_VERSION = 1

#: Version of the shard *byte* format.  Bumped whenever the serializer
#: changes the bytes it emits for the same logs (v2: compact JSON
#: separators) — it is part of the shard-cache key, so entries written
#: by an older serializer can never be mixed into a newer run.
SHARD_FORMAT_VERSION = 2


class ManifestError(ValueError):
    """A sharded dataset's manifest is missing, malformed, or stale."""


class _Sha256Tee:
    """Binary sink that feeds every written chunk through a SHA-256.

    Writing a shard and digesting it used to be two passes (write, then
    re-read the file); the tee digests the on-disk bytes chunk by chunk
    as they stream out, so the digest is free by the time the file is
    closed.  For gzip shards the tee sits *under* the compressor — the
    digest covers the compressed bytes, same as :func:`compute_digest`.
    """

    def __init__(self, raw):
        self._raw = raw
        self.sha = hashlib.sha256()

    def write(self, data) -> int:
        self.sha.update(data)
        return self._raw.write(data)

    def flush(self) -> None:
        self._raw.flush()


def _open(path: Path, mode: str):
    """Open a dataset file for *reading* (writes go via ``_write_shard``)."""
    if path.suffix == ".gz":
        return gzip.open(path, mode + "t", encoding="utf-8")
    return open(path, mode, encoding="utf-8")


def compute_digest(path: Union[str, Path]) -> str:
    """SHA-256 over a file's raw (on-disk, possibly compressed) bytes."""
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def dataset_digests(directory: Union[str, Path],
                    manifest: Optional["ShardManifest"] = None
                    ) -> Tuple[str, ...]:
    """Every shard's SHA-256, in shard order, for a sharded dataset.

    Manifest-recorded digests are trusted verbatim; pre-digest
    manifests fall back to hashing the shard files.  This is the
    complete digest list the serve catalog's ETags derive from and the
    snapshot layer diffs against (:mod:`repro.analysis.snapshot`).
    """
    directory = Path(directory)
    if manifest is None:
        manifest = ShardManifest.load(directory)
    return tuple(
        manifest.digest_for(pos) or compute_digest(directory / name)
        for pos, name in enumerate(manifest.files))


def shard_filename(index: int, compress: bool = False) -> str:
    return f"shard-{index:04d}.jsonl" + (".gz" if compress else "")


def index_filename(shard_name: str) -> str:
    """Sidecar index name for a shard file name.

    ``shard-0003.jsonl`` and ``shard-0003.jsonl.gz`` both map to
    ``shard-0003.index.json`` — the index describes the uncompressed
    JSONL stream, so the compression suffix is irrelevant to it.
    """
    base = shard_name
    if base.endswith(".gz"):
        base = base[:-len(".gz")]
    if base.endswith(".jsonl"):
        base = base[:-len(".jsonl")]
    return base + ".index.json"


# ---------------------------------------------------------------------------
# Manifest
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ShardManifest:
    """Describes a sharded crawl directory (``manifest.json``).

    ``digests`` — per-shard SHA-256 over the raw shard-file bytes — is
    optional (entries may be ``None``): datasets written before digests
    existed still load.  When present, a digest pins the shard file
    byte-for-byte, which is what makes distributed retry and the shard
    cache verifiable (see :mod:`repro.crawler.distributed`).
    """

    n_shards: int
    total: int
    compress: bool
    files: tuple          # shard file names, indexed by shard
    counts: tuple         # logs per shard, indexed by shard
    digests: tuple = ()   # sha256 hex (or None) per shard; () = none known
    version: int = MANIFEST_VERSION

    def digest_for(self, index: int) -> Optional[str]:
        if 0 <= index < len(self.digests):
            return self.digests[index]
        return None

    def to_dict(self) -> Dict:
        shards = []
        for i, (name, count) in enumerate(zip(self.files, self.counts)):
            entry: Dict = {"index": i, "file": name, "count": count}
            digest = self.digest_for(i)
            if digest is not None:
                entry["sha256"] = digest
            shards.append(entry)
        return {
            "version": self.version,
            "n_shards": self.n_shards,
            "total": self.total,
            "compress": self.compress,
            "shards": shards,
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "ShardManifest":
        try:
            version = int(data["version"])
            if version != MANIFEST_VERSION:
                raise ManifestError(
                    f"unsupported manifest version {version} "
                    f"(expected {MANIFEST_VERSION})")
            shards = sorted(data["shards"], key=lambda s: int(s["index"]))
            indexes = [int(s["index"]) for s in shards]
            if indexes != list(range(len(shards))):
                raise ManifestError(f"non-contiguous shard indexes {indexes}")
            digests = tuple(
                str(s["sha256"]) if s.get("sha256") is not None else None
                for s in shards)
            if all(d is None for d in digests):
                digests = ()
            manifest = cls(
                n_shards=int(data["n_shards"]),
                total=int(data["total"]),
                compress=bool(data["compress"]),
                files=tuple(str(s["file"]) for s in shards),
                counts=tuple(int(s["count"]) for s in shards),
                digests=digests,
            )
        except ManifestError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise ManifestError(f"malformed manifest: {exc}") from exc
        if manifest.n_shards != len(manifest.files):
            raise ManifestError(
                f"manifest lists {len(manifest.files)} shards "
                f"but declares n_shards={manifest.n_shards}")
        if manifest.digests and len(manifest.digests) != len(manifest.files):
            raise ManifestError(
                f"manifest carries {len(manifest.digests)} digests "
                f"for {len(manifest.files)} shards")
        if manifest.total != sum(manifest.counts):
            raise ManifestError(
                f"manifest total {manifest.total} != "
                f"sum of shard counts {sum(manifest.counts)}")
        return manifest

    def save(self, directory: Union[str, Path]) -> Path:
        """Write ``manifest.json`` atomically (temp file + ``os.replace``).

        The manifest is the index a resuming coordinator trusts; an
        in-place write interrupted by a crash could leave a torn file
        that neither loads nor signals "no manifest yet".  With the
        rename, readers see either the old complete manifest or the new
        one, never a prefix.  The tmp file is fsynced before the rename:
        without it, an OS crash could reorder the rename ahead of the
        data blocks and publish a manifest full of holes.
        """
        path = Path(directory) / MANIFEST_NAME
        tmp = path.with_name(MANIFEST_NAME + ".tmp")
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(self.to_dict(), indent=2) + "\n")
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
        return path

    @classmethod
    def load(cls, directory: Union[str, Path]) -> "ShardManifest":
        if not Path(directory).is_dir():
            raise ManifestError(
                f"{directory} is not a dataset directory "
                f"(expected shard files and {MANIFEST_NAME})")
        path = Path(directory) / MANIFEST_NAME
        if not path.exists():
            raise ManifestError(f"no {MANIFEST_NAME} in {directory}")
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise ManifestError(f"unreadable manifest {path}: {exc}") from exc
        return cls.from_dict(data)


# ---------------------------------------------------------------------------
# Writing
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ShardWriteResult:
    """What writing one shard file produced: name, log count, digest."""

    name: str
    count: int
    sha256: str


#: Serialized log lines buffered between writes; bounds per-write call
#: overhead without holding a whole shard in memory.
_WRITE_CHUNK_LINES = 512


def _write_shard(logs: Iterable[VisitLog], path: Path,
                 index_path: Path) -> "ShardWriteResult":
    """Stream logs to ``path`` as compact JSONL; returns count + digest.

    One serialization pass: compact separators (no cosmetic spaces —
    ~10% fewer bytes per line), lines batched into single buffered
    writes, and the on-disk bytes digested as they stream through the
    :class:`_Sha256Tee` (no second read-back pass).  Gzip members are
    written with a zeroed header (no mtime, no filename) so compressed
    bytes stay a pure function of the content — the determinism the
    distributed coordinator's retry verification leans on.

    A sidecar rank→offset index over the uncompressed stream is written
    to ``index_path``.  The shard bytes (and therefore digest) are
    identical with or without the sidecar.
    """
    count = 0
    offset = 0
    buf: List[bytes] = []
    ranks: List[int] = []
    offsets: List[int] = []
    lengths: List[int] = []
    dumps = json.dumps
    with open(path, "wb") as raw:
        tee = _Sha256Tee(raw)
        out = (gzip.GzipFile(filename="", mode="wb", fileobj=tee, mtime=0)
               if path.suffix == ".gz" else tee)
        try:
            for log in logs:
                line = dumps(log.to_dict(),
                             separators=(",", ":")).encode("utf-8")
                ranks.append(log.rank)
                offsets.append(offset)
                lengths.append(len(line))
                offset += len(line) + 1
                buf.append(line)
                count += 1
                if len(buf) >= _WRITE_CHUNK_LINES:
                    out.write(b"\n".join(buf) + b"\n")
                    buf.clear()
            if buf:
                out.write(b"\n".join(buf) + b"\n")
        finally:
            if out is not tee:
                out.close()
    digest = tee.sha.hexdigest()
    write_shard_index(index_path, ShardIndex(
        file=path.name, count=count, sha256=digest,
        ranks=ranks, offsets=offsets, lengths=lengths))
    return ShardWriteResult(name=path.name, count=count, sha256=digest)


def write_shard(logs: Iterable[VisitLog], directory: Union[str, Path],
                index: int, compress: bool = False) -> ShardWriteResult:
    """Write one shard file into ``directory``; returns name/count/digest.

    Used by the coordinator's workers, which each own one shard;
    the coordinator assembles and saves the :class:`ShardManifest` from
    the returned digests afterwards.  Gzip output is deterministic
    (zeroed header), so the digest is a pure function of the logs.
    Every shard gets a sidecar rank→offset index (see
    :func:`read_site`); the shard bytes themselves are unaffected.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    name = shard_filename(index, compress)
    result = _write_shard(logs, directory / name,
                          index_path=directory / index_filename(name))
    point = maybe_fire("storage.write_shard", scope=str(index))
    if point is not None and point.kind == "torn":
        # Simulate a crash mid-write: truncate the freshly written
        # shard and fail the task.  The retry rewrites the file from
        # scratch, so the recorded digest must still be reproduced.
        with open(directory / name, "r+b") as handle:
            handle.truncate(max(handle.seek(0, 2) // 2, 1))
        raise InjectedFault(f"torn shard write: {name}")
    return result


def save_logs(logs: Iterable[VisitLog], path: Union[str, Path],
              shards: int = 1, compress: bool = False) -> int:
    """Write a crawl dataset directory; returns the number of logs written.

    Logs are split into ``shards`` near-even contiguous runs (in the
    given order), one file per shard, plus ``manifest.json``.
    """
    path = Path(path)
    n_shards = max(int(shards), 1)
    logs = list(logs)
    path.mkdir(parents=True, exist_ok=True)
    base, extra = divmod(len(logs), n_shards)
    counts: List[int] = []
    files: List[str] = []
    digests: List[str] = []
    start = 0
    for index in range(n_shards):
        size = base + (1 if index < extra else 0)
        chunk = logs[start:start + size]
        start += size
        written = write_shard(chunk, path, index, compress=compress)
        files.append(written.name)
        counts.append(written.count)
        digests.append(written.sha256)
    ShardManifest(n_shards=n_shards, total=len(logs), compress=compress,
                  files=tuple(files), counts=tuple(counts),
                  digests=tuple(digests)).save(path)
    return len(logs)


# ---------------------------------------------------------------------------
# Sidecar shard indexes (seekable single-site lookup)
# ---------------------------------------------------------------------------

@dataclass
class ShardIndex:
    """Parsed sidecar index for one shard file.

    ``offsets``/``lengths`` address the *uncompressed* JSONL stream (for
    plain shards that is the file itself; for gzip shards the seek
    decompresses forward, which still skips all JSON parsing).
    ``sha256`` is the shard file's on-disk digest at index-write time —
    comparing it against the manifest's recorded digest is how a stale
    sidecar is detected.
    """

    file: str
    count: int
    sha256: str
    ranks: Sequence[int]
    offsets: Sequence[int]
    lengths: Sequence[int]

    def __post_init__(self) -> None:
        self._by_rank: Dict[int, Tuple[int, int]] = {
            rank: (offset, length)
            for rank, offset, length in zip(self.ranks, self.offsets,
                                            self.lengths)}

    def entry_for(self, rank: int) -> Optional[Tuple[int, int]]:
        """(byte offset, line length) of ``rank``'s log line, or None."""
        return self._by_rank.get(rank)

    def to_dict(self) -> Dict:
        return {
            "version": SHARD_INDEX_VERSION,
            "file": self.file,
            "count": self.count,
            "sha256": self.sha256,
            "ranks": list(self.ranks),
            "offsets": list(self.offsets),
            "lengths": list(self.lengths),
        }


def write_shard_index(path: Union[str, Path], index: ShardIndex) -> Path:
    """Write a sidecar index atomically (tmp + ``os.replace``).

    A torn sidecar must never poison lookups: readers treat an
    unparseable sidecar as absent, but the rename makes even that
    window impossible for the common case.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(json.dumps(index.to_dict(), separators=(",", ":")) + "\n",
                   encoding="utf-8")
    os.replace(tmp, path)
    return path


def shard_index_to_bytes(index: ShardIndex) -> bytes:
    """The sidecar index's canonical serialized bytes.

    Byte-identical to what :func:`write_shard_index` puts on disk, so
    blob-level stores (see :mod:`repro.crawler.storebackends`) can carry
    sidecars without their own serializer.
    """
    return (json.dumps(index.to_dict(), separators=(",", ":")) + "\n"
            ).encode("utf-8")


def shard_index_from_bytes(data: Optional[bytes],
                           shard_name: str) -> Optional["ShardIndex"]:
    """Parse sidecar-index bytes for ``shard_name``; None if unusable.

    "Unusable" covers absent/torn/garbage JSON, a version or shard-name
    mismatch, and inconsistent array lengths — every case degrades to
    the full-scan fallback rather than raising.
    """
    if data is None:
        return None
    try:
        payload = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError):
        return None
    try:
        if int(payload["version"]) != SHARD_INDEX_VERSION:
            return None
        if str(payload["file"]) != shard_name:
            return None
        index = ShardIndex(
            file=shard_name,
            count=int(payload["count"]),
            sha256=str(payload["sha256"]),
            ranks=[int(r) for r in payload["ranks"]],
            offsets=[int(o) for o in payload["offsets"]],
            lengths=[int(n) for n in payload["lengths"]],
        )
    except (KeyError, TypeError, ValueError):
        return None
    if not (len(index.ranks) == len(index.offsets)
            == len(index.lengths) == index.count):
        return None
    return index


def load_shard_index(directory: Union[str, Path],
                     shard_name: str) -> Optional["ShardIndex"]:
    """Parse the sidecar index for ``shard_name``; None if unusable."""
    path = Path(directory) / index_filename(shard_name)
    try:
        data = path.read_bytes()
    except OSError:
        return None
    return shard_index_from_bytes(data, shard_name)


def _open_binary(path: Path):
    """The shard's uncompressed byte stream (what index offsets address)."""
    if path.suffix == ".gz":
        return gzip.open(path, "rb")
    return open(path, "rb")


def _read_line_at(path: Path, offset: int, length: int) -> bytes:
    with _open_binary(path) as handle:
        handle.seek(offset)
        return handle.read(length)


def _load_valid_index(directory: Path, manifest: ShardManifest,
                      shard_pos: int) -> Optional[ShardIndex]:
    """The shard's sidecar index, or None when missing or stale.

    Stale = the sidecar's recorded shard digest disagrees with the
    manifest's (the shard was rewritten without its index); such a
    sidecar is ignored, never trusted.
    """
    name = manifest.files[shard_pos]
    index = load_shard_index(directory, name)
    if index is None:
        return None
    expected = manifest.digest_for(shard_pos)
    if expected is not None and index.sha256 != expected:
        return None
    return index


def read_site_line(directory: Union[str, Path], rank: int, *,
                   manifest: Optional[ShardManifest] = None,
                   use_index: bool = True,
                   index_cache: Optional[Dict[int, Optional[ShardIndex]]]
                   = None) -> bytes:
    """Fetch one site's raw JSON line from a sharded dataset by rank.

    The seek primitive under :func:`read_site`, exposed so the columnar
    decode path (:func:`repro.analysis.columnar.batch_for_ranks`) can go
    straight from bytes to columns without materializing a
    :class:`VisitLog`.  Same index/fallback contract as
    :func:`read_site`; raises :class:`KeyError` when no shard holds
    ``rank``.
    """
    directory = Path(directory)
    if manifest is None:
        manifest = ShardManifest.load(directory)
    unindexed: List[int] = []
    for pos, name in enumerate(manifest.files):
        index: Optional[ShardIndex] = None
        if use_index:
            if index_cache is not None and pos in index_cache:
                index = index_cache[pos]
            else:
                index = _load_valid_index(directory, manifest, pos)
                if index_cache is not None:
                    index_cache[pos] = index
        if index is None:
            unindexed.append(pos)
            continue
        entry = index.entry_for(rank)
        if entry is None:
            continue
        offset, length = entry
        return _read_line_at(directory / name, offset, length)
    for pos in unindexed:
        path = directory / manifest.files[pos]
        with _open(path, "r") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                data = json.loads(line)
                # Skip rank-less lines instead of comparing a default:
                # build_shard_indexes skips them too, so both paths
                # resolve every rank to the same line (or to KeyError).
                line_rank = data.get("rank")
                if line_rank is not None and int(line_rank) == rank:
                    return line.encode("utf-8")
    raise KeyError(f"rank {rank} is not in the dataset at {directory}")


def read_site(directory: Union[str, Path], rank: int, *,
              manifest: Optional[ShardManifest] = None,
              use_index: bool = True,
              index_cache: Optional[Dict[int, Optional[ShardIndex]]] = None
              ) -> VisitLog:
    """Fetch one site's :class:`VisitLog` from a sharded dataset by rank.

    With sidecar indexes this is a seek plus a one-line parse; shards
    without a usable index fall back to a transparent full line scan
    (``use_index=False`` forces that path, for equivalence tests and
    benchmarks).  ``index_cache`` — a caller-owned dict keyed by shard
    position — memoizes parsed sidecars across calls, which is what the
    :mod:`repro.serve` catalog does per study.  Raises :class:`KeyError`
    when no shard holds ``rank``.
    """
    line = read_site_line(directory, rank, manifest=manifest,
                          use_index=use_index, index_cache=index_cache)
    return VisitLog.from_dict(json.loads(line))


class IndexBuildResult(NamedTuple):
    """What :func:`build_shard_indexes` did: sidecars written vs kept."""

    built: int
    up_to_date: int


def build_shard_indexes(directory: Union[str, Path],
                        force: bool = False) -> IndexBuildResult:
    """Backfill sidecar indexes for a sharded dataset (one-shot).

    Scans every shard that lacks a usable sidecar (or all of them with
    ``force=True``), recording each line's rank, uncompressed byte
    offset, and length.  Returns how many sidecars were written and how
    many already matched their shard's pinned digest and were left
    untouched — safe to re-run, and the split makes "nothing to do"
    visible to the CLI instead of indistinguishable from a rebuild.
    """
    directory = Path(directory)
    manifest = ShardManifest.load(directory)
    built = 0
    up_to_date = 0
    for pos, name in enumerate(manifest.files):
        if not force and _load_valid_index(directory, manifest, pos) \
                is not None:
            up_to_date += 1
            continue
        path = directory / name
        digest = manifest.digest_for(pos) or compute_digest(path)
        ranks: List[int] = []
        offsets: List[int] = []
        lengths: List[int] = []
        offset = 0
        with _open_binary(path) as handle:
            for raw_line in handle:
                # Record the fully stripped JSON line — no trailing \r
                # on CRLF shards, no leading whitespace — so the seek
                # path returns byte-for-byte what the fallback scan's
                # text-mode .strip() yields for the same rank.
                body = raw_line.strip()
                if body:
                    data = json.loads(body)
                    rank = data.get("rank")
                    # Rank-less lines are unreachable by rank lookup;
                    # indexing them under a default would let them
                    # shadow a real rank (the scan fallback skips them
                    # too — see read_site_line).
                    if rank is not None:
                        lead = len(raw_line) - len(raw_line.lstrip())
                        ranks.append(int(rank))
                        offsets.append(offset + lead)
                        lengths.append(len(body))
                offset += len(raw_line)
        write_shard_index(directory / index_filename(name), ShardIndex(
            file=name, count=len(ranks), sha256=digest,
            ranks=ranks, offsets=offsets, lengths=lengths))
        built += 1
    return IndexBuildResult(built=built, up_to_date=up_to_date)


# ---------------------------------------------------------------------------
# Reading
# ---------------------------------------------------------------------------

def _iter_file_dicts(path: Path) -> Iterator[Dict]:
    with _open(path, "r") as handle:
        for line in handle:
            line = line.strip()
            if line:
                yield json.loads(line)


def iter_shard_dicts(directory: Union[str, Path], index: int,
                     manifest: Optional[ShardManifest] = None
                     ) -> Iterator[Dict]:
    """Stream one shard of a dataset one parsed-JSON dict at a time.

    Validated against the manifest: a missing shard file, bytes not
    readable in the recorded layout, or a log count other than the
    recorded one raise :class:`ManifestError` naming the shard.
    """
    directory = Path(directory)
    if manifest is None:
        manifest = ShardManifest.load(directory)
    if not 0 <= index < manifest.n_shards:
        raise ManifestError(
            f"shard index {index} out of range 0..{manifest.n_shards - 1}")
    name = manifest.files[index]
    shard_path = directory / name
    if not shard_path.exists():
        raise ManifestError(f"manifest lists missing shard {name}")
    seen = 0
    try:
        for data in _iter_file_dicts(shard_path):
            seen += 1
            yield data
    except (OSError, EOFError, UnicodeDecodeError,
            json.JSONDecodeError) as exc:
        # Covers a manifest/disk format mismatch: a .gz shard name over
        # plain bytes (BadGzipFile/EOFError) or gzip bytes under a plain
        # name (UnicodeDecodeError/JSON garbage).
        layout = "gzip JSONL" if name.endswith(".gz") else "plain JSONL"
        raise ManifestError(
            f"shard {index} ({name}) is not readable as the "
            f"{layout} the manifest records: {exc}") from exc
    if seen != manifest.counts[index]:
        raise ManifestError(
            f"shard {index} ({name}) holds {seen} logs, "
            f"manifest says {manifest.counts[index]}")


def iter_dicts(path: Union[str, Path]) -> Iterator[Dict]:
    """Stream a dataset one parsed-JSON dict at a time.

    The decode layer under :func:`iter_logs`, with the identical
    manifest validation, but stopping at dicts — what the columnar batch
    path consumes, skipping the per-event dataclass construction
    entirely.
    """
    manifest = ShardManifest.load(path)
    for index in range(manifest.n_shards):
        yield from iter_shard_dicts(path, index, manifest)


def iter_dict_batches(path: Union[str, Path],
                      batch_size: int = 512) -> Iterator[List[Dict]]:
    """Stream a dataset as lists of parsed-JSON dicts (same validation
    as :func:`iter_logs`); memory stays O(batch), not O(dataset)."""
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    batch: List[Dict] = []
    for data in iter_dicts(path):
        batch.append(data)
        if len(batch) >= batch_size:
            yield batch
            batch = []
    if batch:
        yield batch


def iter_logs(path: Union[str, Path]) -> Iterator[VisitLog]:
    """Stream a dataset one :class:`VisitLog` at a time.

    Shards stream in index order and each shard's log count is checked
    against the manifest (:class:`ManifestError` on mismatch, missing
    files, or a path that is not a dataset directory).
    """
    for data in iter_dicts(path):
        yield VisitLog.from_dict(data)


def verify_shard_files(directory: Union[str, Path],
                       manifest: Optional[ShardManifest] = None) -> None:
    """Check every shard file against the manifest's recorded digests.

    Raises :class:`ManifestError` naming the first shard whose file is
    missing or whose bytes do not hash to the recorded SHA-256; shards
    without a recorded digest are only checked for existence.
    """
    directory = Path(directory)
    if manifest is None:
        manifest = ShardManifest.load(directory)
    for index, name in enumerate(manifest.files):
        shard_path = directory / name
        if not shard_path.exists():
            raise ManifestError(f"manifest lists missing shard {name}")
        expected = manifest.digest_for(index)
        if expected is None:
            continue
        actual = compute_digest(shard_path)
        if actual != expected:
            raise ManifestError(
                f"shard {index} ({name}) hashes to {actual[:12]}…, "
                f"manifest records {expected[:12]}…")


def load_logs(path: Union[str, Path]) -> List[VisitLog]:
    """Read a crawl dataset directory into memory."""
    return list(iter_logs(path))


def load_shard(directory: Union[str, Path], index: int) -> List[VisitLog]:
    """Read one shard of a dataset (validated like :func:`iter_logs`)."""
    return [VisitLog.from_dict(data)
            for data in iter_shard_dicts(directory, index)]

