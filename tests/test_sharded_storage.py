"""Sharded crawl-dataset storage: round-trips, streaming, manifest errors."""

from __future__ import annotations

import json

import pytest

from repro.analysis import Study
from repro.crawler import (
    Coordinator,
    CrawlConfig,
    ManifestError,
    ProcessPoolBackend,
    ShardManifest,
    iter_logs,
    load_logs,
    save_logs,
)
from repro.crawler.storage import (MANIFEST_NAME, compute_digest, load_shard,
                                   shard_filename, verify_shard_files,
                                   write_shard)


def _stream(logs):
    return [json.dumps(log.to_dict(), sort_keys=True)
            for log in sorted(logs, key=lambda log: log.rank)]


@pytest.fixture()
def sharded_dir(crawl_logs, tmp_path):
    directory = tmp_path / "crawl"
    save_logs(crawl_logs, directory, shards=4)
    return directory


class TestShardedRoundTrip:
    @pytest.mark.parametrize("compress", [False, True],
                             ids=["plain", "gzip"])
    def test_save_load_identical(self, crawl_logs, tmp_path, compress):
        directory = tmp_path / "crawl"
        written = save_logs(crawl_logs, directory, shards=3,
                            compress=compress)
        assert written == len(crawl_logs)
        suffix = ".jsonl.gz" if compress else ".jsonl"
        assert (directory / f"shard-0000{suffix}").exists()
        assert _stream(load_logs(directory)) == _stream(crawl_logs)

    @pytest.mark.parametrize("compress", [False, True],
                             ids=["plain", "gzip"])
    def test_sharded_study_equals_in_memory(self, crawl_logs, tmp_path,
                                            compress):
        directory = tmp_path / "crawl"
        save_logs(crawl_logs, directory, shards=3, compress=compress)
        manifest = ShardManifest.load(directory)
        shards = [load_shard(directory, i)
                  for i in range(manifest.n_shards)]
        merged = Study.from_shards(shards)
        mono = Study(crawl_logs)
        assert merged.table1() == mono.table1()
        assert merged.table2(20) == mono.table2(20)
        assert merged.table5(10) == mono.table5(10)
        assert merged.sec51_prevalence() == mono.sec51_prevalence()

    def test_existing_directory_implies_sharded(self, crawl_logs, tmp_path):
        directory = tmp_path / "crawl"
        directory.mkdir()
        save_logs(crawl_logs[:6], directory)
        manifest = ShardManifest.load(directory)
        assert manifest.n_shards == 1
        assert manifest.total == 6

    def test_iter_logs_streams_in_shard_order(self, sharded_dir, crawl_logs):
        streamed = list(iter_logs(sharded_dir))
        assert _stream(streamed) == _stream(crawl_logs)

    def test_load_shard_partition(self, sharded_dir, crawl_logs):
        manifest = ShardManifest.load(sharded_dir)
        pieces = [load_shard(sharded_dir, i)
                  for i in range(manifest.n_shards)]
        assert [len(piece) for piece in pieces] == list(manifest.counts)
        flat = [log for piece in pieces for log in piece]
        assert _stream(flat) == _stream(crawl_logs)

    def test_parallel_crawl_to_dir_matches_serial_save(self, population,
                                                       crawl_logs, tmp_path):
        directory = tmp_path / "parallel"
        coordinator = Coordinator(population, CrawlConfig(seed=2025),
                                  backend=ProcessPoolBackend(2))
        manifest = coordinator.run(directory, n_shards=3).manifest
        assert manifest.total == len(crawl_logs)
        assert _stream(load_logs(directory)) == _stream(crawl_logs)

    def test_file_path_is_rejected(self, crawl_logs, tmp_path):
        save_logs(crawl_logs[:5], tmp_path / "crawl")
        shard = tmp_path / "crawl" / shard_filename(0)
        with pytest.raises(ManifestError, match="not a dataset directory"):
            load_logs(shard)
        with pytest.raises(ManifestError, match="not a dataset directory"):
            load_logs(tmp_path / "missing")


class TestManifestErrors:
    def test_missing_manifest(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        with pytest.raises(ManifestError, match="no manifest"):
            load_logs(empty)

    def test_missing_shard_file(self, sharded_dir):
        (sharded_dir / shard_filename(2)).unlink()
        with pytest.raises(ManifestError, match="missing shard"):
            load_logs(sharded_dir)

    def test_count_mismatch(self, sharded_dir):
        shard = sharded_dir / shard_filename(1)
        lines = shard.read_text().splitlines()
        shard.write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(ManifestError, match="manifest says"):
            load_logs(sharded_dir)

    def test_total_mismatch(self, sharded_dir):
        manifest_path = sharded_dir / MANIFEST_NAME
        data = json.loads(manifest_path.read_text())
        data["total"] += 1
        manifest_path.write_text(json.dumps(data))
        with pytest.raises(ManifestError, match="sum of shard counts"):
            load_logs(sharded_dir)

    def test_unsupported_version(self, sharded_dir):
        manifest_path = sharded_dir / MANIFEST_NAME
        data = json.loads(manifest_path.read_text())
        data["version"] = 99
        manifest_path.write_text(json.dumps(data))
        with pytest.raises(ManifestError, match="version"):
            load_logs(sharded_dir)

    def test_malformed_json(self, sharded_dir):
        (sharded_dir / MANIFEST_NAME).write_text("{not json")
        with pytest.raises(ManifestError, match="unreadable"):
            load_logs(sharded_dir)

    def test_missing_fields(self, sharded_dir):
        (sharded_dir / MANIFEST_NAME).write_text(json.dumps({"version": 1}))
        with pytest.raises(ManifestError, match="malformed"):
            load_logs(sharded_dir)

    def test_non_contiguous_indexes(self, sharded_dir):
        manifest_path = sharded_dir / MANIFEST_NAME
        data = json.loads(manifest_path.read_text())
        data["shards"][0]["index"] = 7
        manifest_path.write_text(json.dumps(data))
        with pytest.raises(ManifestError, match="non-contiguous"):
            load_logs(sharded_dir)

    def test_shard_index_out_of_range(self, sharded_dir):
        with pytest.raises(ManifestError, match="out of range"):
            load_shard(sharded_dir, 11)

    def test_gz_name_over_plain_bytes_names_the_shard(self, crawl_logs,
                                                      tmp_path):
        """Manifest says gzip, disk holds plain JSONL: ManifestError."""
        directory = tmp_path / "crawl"
        save_logs(crawl_logs, directory, shards=2, compress=True)
        victim = directory / shard_filename(1, compress=True)
        plain = "\n".join(json.dumps(log.to_dict())
                          for log in crawl_logs[:1]) + "\n"
        victim.write_text(plain)
        with pytest.raises(ManifestError, match=r"shard 1 .*gzip JSONL"):
            load_logs(directory)

    def test_plain_name_over_gzip_bytes_names_the_shard(self, crawl_logs,
                                                        tmp_path):
        """Manifest says plain, disk holds gzip bytes: ManifestError."""
        import gzip

        directory = tmp_path / "crawl"
        save_logs(crawl_logs, directory, shards=2)
        victim = directory / shard_filename(0)
        victim.write_bytes(gzip.compress(victim.read_bytes()))
        with pytest.raises(ManifestError, match=r"shard 0 .*plain JSONL"):
            load_logs(directory)


class TestShardDigests:
    def test_save_logs_records_digests(self, sharded_dir):
        manifest = ShardManifest.load(sharded_dir)
        assert len(manifest.digests) == manifest.n_shards
        for index, name in enumerate(manifest.files):
            assert manifest.digest_for(index) \
                == compute_digest(sharded_dir / name)

    def test_verify_shard_files_passes_clean_dataset(self, sharded_dir):
        verify_shard_files(sharded_dir)

    def test_verify_shard_files_catches_tampering(self, sharded_dir):
        victim = sharded_dir / shard_filename(2)
        victim.write_bytes(victim.read_bytes() + b"extra\n")
        with pytest.raises(ManifestError, match="shard 2 .*hashes to"):
            verify_shard_files(sharded_dir)

    def test_verify_shard_files_catches_missing_file(self, sharded_dir):
        (sharded_dir / shard_filename(1)).unlink()
        with pytest.raises(ManifestError, match="missing shard"):
            verify_shard_files(sharded_dir)

    def test_digestless_manifest_still_loads(self, sharded_dir, crawl_logs):
        """Datasets written before digests existed remain readable."""
        manifest_path = sharded_dir / MANIFEST_NAME
        data = json.loads(manifest_path.read_text())
        for shard in data["shards"]:
            shard.pop("sha256", None)
        manifest_path.write_text(json.dumps(data))
        manifest = ShardManifest.load(sharded_dir)
        assert manifest.digests == ()
        assert manifest.digest_for(0) is None
        verify_shard_files(sharded_dir)    # existence-only check
        assert len(load_logs(sharded_dir)) == len(crawl_logs)

    @pytest.mark.parametrize("compress", [False, True],
                             ids=["plain", "gzip"])
    def test_write_shard_digest_is_pure_function_of_logs(self, crawl_logs,
                                                         tmp_path, compress):
        """Byte-determinism: same logs, same digest — even gzipped."""
        first = write_shard(crawl_logs[:5], tmp_path / "a", 0,
                            compress=compress)
        second = write_shard(crawl_logs[:5], tmp_path / "b", 0,
                             compress=compress)
        assert first.sha256 == second.sha256
        assert (tmp_path / "a" / first.name).read_bytes() \
            == (tmp_path / "b" / second.name).read_bytes()


# ---------------------------------------------------------------------------
# Sidecar seek indexes (PR 6): derived data, never part of the dataset
# ---------------------------------------------------------------------------

class TestShardIndexes:
    @pytest.mark.parametrize("compress", [False, True],
                             ids=["plain", "gzip"])
    def test_sidecars_written_alongside_shards(self, crawl_logs, tmp_path,
                                               compress):
        from repro.crawler.storage import (index_filename, load_shard_index)
        directory = tmp_path / "crawl"
        save_logs(crawl_logs, directory, shards=3, compress=compress)
        manifest = ShardManifest.load(directory)
        for i, name in enumerate(manifest.files):
            assert (directory / index_filename(name)).exists()
            index = load_shard_index(directory, name)
            assert index is not None
            assert index.count == manifest.counts[i]
            assert index.sha256 == manifest.digests[i]
            assert list(index.ranks) == sorted(index.ranks)

    def test_sidecar_does_not_change_shard_bytes_or_digests(
            self, crawl_logs, tmp_path):
        """The index is derived data: digests (and therefore cache keys,
        run keys, and the golden fixture) are untouched by its
        existence."""
        directory = tmp_path / "crawl"
        save_logs(crawl_logs, directory, shards=3)
        manifest = ShardManifest.load(directory)
        for i, name in enumerate(manifest.files):
            assert compute_digest(directory / name) == manifest.digests[i]

    @pytest.mark.parametrize("compress", [False, True],
                             ids=["plain", "gzip"])
    def test_read_site_indexed_equals_scan(self, crawl_logs, tmp_path,
                                           compress):
        from repro.crawler.storage import read_site
        directory = tmp_path / "crawl"
        save_logs(crawl_logs, directory, shards=3, compress=compress)
        cache = {}
        for log in crawl_logs:
            indexed = read_site(directory, log.rank, index_cache=cache)
            scanned = read_site(directory, log.rank, use_index=False)
            assert indexed.to_dict() == log.to_dict()
            assert scanned.to_dict() == indexed.to_dict()

    def test_read_site_missing_rank_raises(self, sharded_dir):
        from repro.crawler.storage import read_site
        with pytest.raises(KeyError):
            read_site(sharded_dir, 10**9)

    def test_missing_sidecars_fall_back_to_scan(self, crawl_logs,
                                                sharded_dir):
        from repro.crawler.storage import read_site
        for path in sharded_dir.glob("*.index.json"):
            path.unlink()
        log = crawl_logs[3]
        assert read_site(sharded_dir, log.rank).to_dict() == log.to_dict()

    def test_stale_sidecar_is_ignored(self, crawl_logs, sharded_dir):
        """A sidecar whose recorded sha disagrees with the manifest
        digest (e.g. the shard was re-crawled) must not be trusted."""
        from repro.crawler.storage import (index_filename, load_shard_index,
                                          read_site)
        manifest = ShardManifest.load(sharded_dir)
        name = manifest.files[0]
        sidecar = sharded_dir / index_filename(name)
        doctored = json.loads(sidecar.read_text())
        doctored["sha256"] = "0" * 64
        # Point the first entry at a bogus offset: a reader trusting
        # this sidecar would return garbage instead of falling back.
        doctored["offsets"][0] = 7
        sidecar.write_text(json.dumps(doctored))
        assert load_shard_index(sharded_dir, name) is not None  # loads...
        ranks = json.loads(sidecar.read_text())["ranks"]
        log = next(l for l in crawl_logs if l.rank == ranks[0])
        # ...but read_site cross-checks against the manifest and scans.
        got = read_site(sharded_dir, log.rank, manifest=manifest)
        assert got.to_dict() == log.to_dict()

    def test_torn_sidecar_is_ignored(self, crawl_logs, sharded_dir):
        from repro.crawler.storage import (index_filename, load_shard_index,
                                          read_site)
        manifest = ShardManifest.load(sharded_dir)
        name = manifest.files[0]
        sidecar = sharded_dir / index_filename(name)
        sidecar.write_text(sidecar.read_text()[:25])
        assert load_shard_index(sharded_dir, name) is None
        log = crawl_logs[0]
        assert read_site(sharded_dir, log.rank,
                         manifest=manifest).to_dict() == log.to_dict()

    def test_backfill_rebuilds_byte_identical_sidecars(self, sharded_dir):
        from repro.crawler.storage import build_shard_indexes, index_filename
        manifest = ShardManifest.load(sharded_dir)
        originals = {name: (sharded_dir / index_filename(name)).read_bytes()
                     for name in manifest.files}
        for name in manifest.files:
            (sharded_dir / index_filename(name)).unlink()
        result = build_shard_indexes(sharded_dir)
        assert (result.built, result.up_to_date) == (manifest.n_shards, 0)
        for name, blob in originals.items():
            assert (sharded_dir / index_filename(name)).read_bytes() == blob
        # Valid sidecars are left alone on a second pass — and counted,
        # so the CLI can report "N indexed, M up-to-date" truthfully.
        result = build_shard_indexes(sharded_dir)
        assert (result.built, result.up_to_date) == (0, manifest.n_shards)


# ---------------------------------------------------------------------------
# Indexed and scan paths must return the same bytes for the same rank
# ---------------------------------------------------------------------------

def _handmade_dataset(tmp_path, raw: bytes, count: int):
    """A one-shard dataset with externally produced (non-writer) bytes."""
    directory = tmp_path / "hand"
    directory.mkdir()
    name = shard_filename(0)
    (directory / name).write_bytes(raw)
    ShardManifest(n_shards=1, total=count, compress=False,
                  files=(name,), counts=(count,),
                  digests=(compute_digest(directory / name),)).save(directory)
    return directory


class TestLookupPathEquivalence:
    """read_site_line: sidecar seeks == full-scan fallback, byte for byte.

    Our writer never emits CRLF or padding, but externally produced
    shards (rsynced from Windows tooling, hand-concatenated) can — and
    the two lookup paths used to disagree on them: the index recorded
    the ``rstrip(b"\\n")`` span (keeping ``\\r``) while the scan
    stripped both, so the bytes a caller got depended on whether a
    sidecar happened to exist.  ETag-relevant, hence pinned.
    """

    def test_crlf_shard_returns_identical_bytes_on_both_paths(
            self, crawl_logs, tmp_path):
        from repro.crawler.storage import (build_shard_indexes,
                                           read_site_line)
        logs = crawl_logs[:3]
        lines = [json.dumps(log.to_dict(),
                            separators=(",", ":")).encode("utf-8")
                 for log in logs]
        raw = b"\r\n".join(lines) + b"\r\n"
        directory = _handmade_dataset(tmp_path, raw, len(logs))
        build_shard_indexes(directory)
        for log, line in zip(logs, lines):
            indexed = read_site_line(directory, log.rank)
            scanned = read_site_line(directory, log.rank, use_index=False)
            assert indexed == scanned == line

    def test_padded_lines_return_identical_bytes_on_both_paths(
            self, crawl_logs, tmp_path):
        from repro.crawler.storage import (build_shard_indexes,
                                           read_site_line)
        log = crawl_logs[0]
        line = json.dumps(log.to_dict(),
                          separators=(",", ":")).encode("utf-8")
        raw = b"   " + line + b"  \r\n"
        directory = _handmade_dataset(tmp_path, raw, 1)
        build_shard_indexes(directory)
        assert read_site_line(directory, log.rank) == line
        assert read_site_line(directory, log.rank, use_index=False) == line

    def test_rankless_line_cannot_shadow_rank_zero(self, crawl_logs,
                                                   tmp_path):
        """Writer/reader rank-default parity.

        ``build_shard_indexes`` used to file a rank-less line under the
        default rank 0 while the scan fallback used -1 — so a malformed
        line shadowed a real rank-0 log exactly when an index was
        present.  Both paths now skip rank-less lines entirely.
        """
        from repro.crawler.storage import (build_shard_indexes,
                                           load_shard_index,
                                           read_site_line)
        data = crawl_logs[0].to_dict()
        data["rank"] = 0
        line = json.dumps(data, separators=(",", ":")).encode("utf-8")
        junk = b'{"malformed":true}'
        raw = junk + b"\n" + line + b"\n"
        directory = _handmade_dataset(tmp_path, raw, 2)
        build_shard_indexes(directory)
        index = load_shard_index(directory, shard_filename(0))
        assert list(index.ranks) == [0]      # the junk line is not indexed
        assert read_site_line(directory, 0) == line
        assert read_site_line(directory, 0, use_index=False) == line

    def test_rankless_line_misses_identically_on_both_paths(
            self, crawl_logs, tmp_path):
        from repro.crawler.storage import build_shard_indexes, read_site_line
        log = crawl_logs[0]
        line = json.dumps(log.to_dict(),
                          separators=(",", ":")).encode("utf-8")
        raw = b'{"malformed":true}\n' + line + b"\n"
        directory = _handmade_dataset(tmp_path, raw, 2)
        build_shard_indexes(directory)
        assert read_site_line(directory, log.rank) == line
        for use_index in (True, False):
            with pytest.raises(KeyError):
                read_site_line(directory, 10 ** 9, use_index=use_index)
