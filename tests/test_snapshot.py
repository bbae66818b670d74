"""Study snapshots (``repro.analysis.snapshot``): persist, resume, refresh.

The contract under test: a snapshot is a faithful, versioned, canonical
serialization of ``StudyAccumulator`` state — *save → load → add the
remaining shards* and *partial refresh over a changed dataset* both
produce report output byte-identical to a monolithic analysis
(``Study.report_bytes()``), for any shard split and either compression.
"""

from __future__ import annotations

import json

import pytest

from repro.analysis.columnar import ShardBatch, iter_shard_batches
from repro.analysis.reports import Study, StudyAccumulator
from repro.analysis.snapshot import (
    SNAPSHOT_VERSION,
    SnapshotError,
    StudySnapshot,
    accumulator_state,
    load_snapshot,
    refresh_study,
    save_snapshot,
    snapshot_accumulator,
    snapshot_dataset,
    state_accumulator,
)
from repro.crawler import ShardManifest, save_logs
from repro.crawler.storage import iter_shard_dicts, load_shard, write_shard


@pytest.fixture(scope="module")
def logs(crawl_logs):
    return crawl_logs[:60]


@pytest.fixture(scope="module")
def reference(logs):
    """Monolithic-analysis report bytes: the equivalence bar."""
    return Study(logs).report_bytes()


def _dataset(tmp_path, logs, n_shards=4, compress=False):
    directory = tmp_path / "ds"
    save_logs(logs, directory, shards=n_shards, compress=compress)
    return directory


def _add_shards(acc, directory, indexes):
    """Feed whole shards of a dataset into ``acc``, one batch each."""
    for index in indexes:
        acc.add_shard_batch(ShardBatch.from_dicts(
            list(iter_shard_dicts(directory, index))))
    return acc


def _touch_shard(directory, shard=0):
    """Drop one log from a shard and republish the manifest."""
    manifest = ShardManifest.load(directory)
    changed = load_shard(directory, shard)[:-1]
    written = write_shard(changed, directory, shard,
                          compress=manifest.compress)
    counts = list(manifest.counts)
    digests = list(manifest.digests)
    counts[shard] = written.count
    digests[shard] = written.sha256
    ShardManifest(n_shards=manifest.n_shards, total=sum(counts),
                  compress=manifest.compress, files=manifest.files,
                  counts=tuple(counts), digests=tuple(digests),
                  ).save(directory)


class TestStateRoundTrip:
    def test_state_rebuilds_an_equivalent_accumulator(self, logs,
                                                      reference):
        acc = StudyAccumulator()
        for log in logs:
            acc.add(log)
        rebuilt = state_accumulator(accumulator_state(acc))
        assert Study.from_accumulator(rebuilt).report_bytes() == reference

    def test_state_is_independent_of_ingestion_order(self, logs):
        forward = StudyAccumulator()
        for log in logs:
            forward.add(log)
        backward = StudyAccumulator()
        for log in reversed(logs):
            backward.add(log)
        assert accumulator_state(forward) == accumulator_state(backward)

    def test_malformed_state_is_refused(self):
        with pytest.raises(SnapshotError, match="malformed"):
            state_accumulator({"counters": {}})


class TestSaveLoad:
    def test_roundtrip_preserves_digest_and_reports(self, logs, tmp_path,
                                                    reference):
        directory = _dataset(tmp_path, logs)
        snapshot = snapshot_dataset(directory)
        path = tmp_path / "snap.json"
        save_snapshot(snapshot, path)
        loaded = load_snapshot(path)
        assert loaded.digest() == snapshot.digest()
        assert loaded.study().report_bytes() == reference

    def test_equal_state_saves_equal_bytes(self, logs, tmp_path):
        directory = _dataset(tmp_path, logs)
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        save_snapshot(snapshot_dataset(directory), a)
        save_snapshot(snapshot_dataset(directory), b)
        assert a.read_bytes() == b.read_bytes()

    def test_version_mismatch_is_refused_with_reanalyze_message(
            self, logs, tmp_path):
        directory = _dataset(tmp_path, logs, n_shards=2)
        path = tmp_path / "snap.json"
        save_snapshot(snapshot_dataset(directory), path)
        data = json.loads(path.read_text())
        data["version"] = SNAPSHOT_VERSION + 1
        path.write_text(json.dumps(data))
        with pytest.raises(SnapshotError, match="re-analyze"):
            load_snapshot(path)

    def test_tampered_payload_is_refused(self, logs, tmp_path):
        directory = _dataset(tmp_path, logs, n_shards=2)
        path = tmp_path / "snap.json"
        save_snapshot(snapshot_dataset(directory), path)
        data = json.loads(path.read_text())
        data["parts"][0]["state"]["counters"]["n_logs"] += 1
        path.write_text(json.dumps(data))
        with pytest.raises(SnapshotError, match="corrupt"):
            load_snapshot(path)

    def test_torn_file_is_refused(self, logs, tmp_path):
        directory = _dataset(tmp_path, logs, n_shards=2)
        path = tmp_path / "snap.json"
        save_snapshot(snapshot_dataset(directory), path)
        path.write_bytes(path.read_bytes()[:-40])
        with pytest.raises(SnapshotError, match="unparseable"):
            load_snapshot(path)

    def test_missing_file_is_refused(self, tmp_path):
        with pytest.raises(SnapshotError, match="cannot read"):
            load_snapshot(tmp_path / "nope.json")


class TestResumeEquivalence:
    @pytest.mark.parametrize("compress", [False, True],
                             ids=["plain", "gzip"])
    def test_save_load_resume_equals_monolithic(self, logs, tmp_path,
                                                reference, compress):
        """save → load → add the remaining shards == one-pass analysis."""
        directory = _dataset(tmp_path, logs, n_shards=4, compress=compress)
        half = _add_shards(StudyAccumulator(), directory, range(2))
        path = tmp_path / "snap.json"
        save_snapshot(snapshot_accumulator(half), path)

        resumed = _add_shards(StudyAccumulator.resume(path), directory,
                              range(2, 4))
        assert Study.from_accumulator(resumed).report_bytes() == reference

    def test_resume_accepts_a_snapshot_object(self, logs, reference):
        acc = StudyAccumulator()
        for log in logs:
            acc.add(log)
        resumed = StudyAccumulator.resume(snapshot_accumulator(acc))
        assert Study.from_accumulator(resumed).report_bytes() == reference

    def test_overlapping_parts_fail_loudly(self, logs):
        acc = StudyAccumulator()
        for log in logs[:10]:
            acc.add(log)
        state = accumulator_state(acc)
        doubled = StudySnapshot([part for snap in
                                 (snapshot_accumulator(acc),) * 2
                                 for part in snap.parts])
        assert doubled.parts[0].state == state
        with pytest.raises(ValueError, match="overlapping"):
            doubled.accumulator()


class TestMergeAssociativity:
    def test_parts_merge_identically_in_any_grouping(self, logs, tmp_path,
                                                     reference):
        directory = _dataset(tmp_path, logs, n_shards=3)
        parts = snapshot_dataset(directory).parts
        assert len(parts) == 3

        def merge(groups):
            out = StudyAccumulator()
            for group in groups:
                partial = StudyAccumulator(out.entities, out.filters)
                for part in group:
                    partial.update(state_accumulator(part.state,
                                                     out.entities,
                                                     out.filters))
                out.update(partial)
            return Study.from_accumulator(out).report_bytes()

        a, b, c = parts
        assert merge([[a], [b, c]]) == merge([[a, b], [c]]) \
            == merge([[c, b, a]]) == reference

    def test_part_order_does_not_change_reports(self, logs, tmp_path,
                                                reference):
        directory = _dataset(tmp_path, logs, n_shards=3)
        snapshot = snapshot_dataset(directory)
        shuffled = StudySnapshot(reversed(snapshot.parts))
        assert shuffled.study().report_bytes() == reference


class TestPartialRefresh:
    def test_unchanged_dataset_reuses_every_part(self, logs, tmp_path,
                                                 reference):
        directory = _dataset(tmp_path, logs)
        snapshot = snapshot_dataset(directory)
        result = refresh_study(snapshot, directory)
        assert result.reingested == () and result.dropped == 0
        assert len(result.reused) == 4 and not result.changed
        assert result.snapshot.study().report_bytes() == reference

    @pytest.mark.parametrize("compress", [False, True],
                             ids=["plain", "gzip"])
    def test_touched_shard_is_the_only_one_reingested(self, logs, tmp_path,
                                                      compress):
        directory = _dataset(tmp_path, logs, compress=compress)
        snapshot = snapshot_dataset(directory)
        _touch_shard(directory, shard=1)
        manifest = ShardManifest.load(directory)
        result = refresh_study(snapshot, directory)
        assert result.reingested == (manifest.files[1],)
        assert len(result.reused) == 3
        assert result.dropped == 1      # the touched shard's old part
        # Byte-identical to analyzing the changed dataset from scratch.
        scratch = StudyAccumulator()
        for batch in iter_shard_batches(directory):
            scratch.add_shard_batch(batch)
        assert result.snapshot.study().report_bytes() \
            == Study.from_accumulator(scratch).report_bytes()

    def test_removed_shard_is_dropped(self, logs, tmp_path):
        directory = _dataset(tmp_path, logs, n_shards=3)
        snapshot = snapshot_dataset(directory)
        manifest = ShardManifest.load(directory)
        kept = list(range(manifest.n_shards - 1))
        remaining = [log for i in kept
                     for log in load_shard(directory, i)]
        (directory / manifest.files[-1]).unlink()
        ShardManifest(n_shards=len(kept),
                      total=len(remaining),
                      compress=manifest.compress,
                      files=manifest.files[:-1],
                      counts=manifest.counts[:-1],
                      digests=manifest.digests[:-1]).save(directory)
        result = refresh_study(snapshot, directory)
        assert result.reingested == () and result.dropped == 1
        assert result.changed
        assert result.snapshot.study().report_bytes() \
            == Study(remaining).report_bytes()

    def test_renamed_shard_is_rebound_not_reingested(self, logs, tmp_path):
        directory = _dataset(tmp_path, logs, n_shards=2)
        snapshot = snapshot_dataset(directory)
        manifest = ShardManifest.load(directory)
        old_name = manifest.files[0]
        new_name = "renamed-" + old_name
        (directory / old_name).rename(directory / new_name)
        ShardManifest(n_shards=manifest.n_shards, total=manifest.total,
                      compress=manifest.compress,
                      files=(new_name,) + manifest.files[1:],
                      counts=manifest.counts,
                      digests=manifest.digests).save(directory)
        result = refresh_study(snapshot, directory)
        assert result.reingested == ()
        assert result.reused == (new_name, manifest.files[1])
        assert result.snapshot.parts[0].file == new_name

    def test_snapshot_artifacts_leave_the_dataset_untouched(self, logs,
                                                            tmp_path):
        """Snapshots are a new, versioned artifact: shard bytes, digests,
        and the manifest must be identical with or without one."""
        from repro.crawler.storage import compute_digest
        directory = _dataset(tmp_path, logs, n_shards=2)
        manifest = ShardManifest.load(directory)
        before = {name: compute_digest(directory / name)
                  for name in manifest.files}
        save_snapshot(snapshot_dataset(directory),
                      directory / "study.snapshot.json")
        after = ShardManifest.load(directory)
        assert after.to_dict() == manifest.to_dict()
        for name in manifest.files:
            assert compute_digest(directory / name) == before[name]


class TestAnalyzeCLI:
    def test_cold_resume_and_scratch_reports_are_byte_identical(
            self, logs, tmp_path, capsys):
        from repro.__main__ import main
        directory = _dataset(tmp_path, logs, n_shards=3)
        snap = tmp_path / "snap.json"
        cold = tmp_path / "cold.json"
        warm = tmp_path / "warm.json"
        scratch = tmp_path / "scratch.json"

        main(["analyze", str(directory), "--snapshot", str(snap),
              "--report", str(cold)])
        assert "re-ingested=3" in capsys.readouterr().out

        _touch_shard(directory)
        main(["analyze", str(directory), "--snapshot", str(snap),
              "--resume", "--report", str(warm)])
        out = capsys.readouterr().out
        assert "reused=2" in out and "re-ingested=1" in out

        main(["analyze", str(directory), "--report", str(scratch)])
        capsys.readouterr()
        assert warm.read_bytes() == scratch.read_bytes()
        assert cold.read_bytes() != warm.read_bytes()

    def test_resume_requires_snapshot_flag(self, logs, tmp_path, capsys):
        from repro.__main__ import main
        directory = _dataset(tmp_path, logs, n_shards=2)
        with pytest.raises(SystemExit):
            main(["analyze", str(directory), "--resume"])
        assert "--resume requires --snapshot" in capsys.readouterr().out

    def test_snapshot_rejects_single_file_datasets(self, logs, tmp_path,
                                                   capsys):
        from repro.__main__ import main
        directory = _dataset(tmp_path, logs, n_shards=1)
        with pytest.raises(SystemExit) as exc:
            main(["analyze", str(directory / "shard-0000.jsonl"),
                  "--snapshot", str(tmp_path / "s.json")])
        assert exc.value.code == 3
        assert "not a dataset directory" in capsys.readouterr().err

    def test_corrupt_snapshot_fails_with_clear_message(self, logs,
                                                       tmp_path, capsys):
        from repro.__main__ import main
        directory = _dataset(tmp_path, logs, n_shards=2)
        snap = tmp_path / "snap.json"
        main(["analyze", str(directory), "--snapshot", str(snap)])
        capsys.readouterr()
        snap.write_bytes(snap.read_bytes()[:-40])
        with pytest.raises(SystemExit):
            main(["analyze", str(directory), "--snapshot", str(snap),
                  "--resume"])
        assert "unparseable snapshot" in capsys.readouterr().out


@pytest.mark.slow
class TestResumeDeterminismMatrix:
    """The resume axis of the determinism matrix: every split point of
    every compression must reproduce the monolithic report bytes."""

    @pytest.mark.parametrize("compress", [False, True],
                             ids=["plain", "gzip"])
    def test_every_split_point_matches_monolithic(self, logs, tmp_path,
                                                  reference, compress):
        n_shards = 4
        directory = tmp_path / ("gz" if compress else "plain")
        save_logs(logs, directory, shards=n_shards, compress=compress)
        for split in range(n_shards + 1):
            head = _add_shards(StudyAccumulator(), directory, range(split))
            path = tmp_path / f"split-{compress}-{split}.json"
            save_snapshot(snapshot_accumulator(head), path)
            resumed = _add_shards(StudyAccumulator.resume(path), directory,
                                  range(split, n_shards))
            assert Study.from_accumulator(resumed).report_bytes() \
                == reference, f"resume diverged at split {split}"
