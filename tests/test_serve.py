"""The study-catalog HTTP service (``repro.serve``).

The contract under test: every response is a pure function of (shard
bytes, resource, canonical params) — ETags are stable across server
restarts, ``If-None-Match`` revalidation yields 304, and report bodies
are byte-identical to what an in-process ``Study`` over the same logs
computes.
"""

from __future__ import annotations

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.analysis import Study
from repro.crawler import save_logs
from repro.serve import (StudyCatalog, canonical_resource, etag_matches,
                         make_server, parse_params, get_query, QueryError)

N_SHARDS = 3


@pytest.fixture(scope="module")
def study_dir(crawl_logs, tmp_path_factory):
    root = tmp_path_factory.mktemp("serve-root")
    directory = root / "demo"
    directory.mkdir()
    save_logs(crawl_logs, directory, shards=N_SHARDS, compress=True)
    return root


@pytest.fixture(scope="module")
def server(study_dir):
    server = make_server(study_dir, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()


@pytest.fixture(scope="module")
def client(server):
    port = server.server_address[1]

    def get(path, headers=None, method="GET"):
        request = urllib.request.Request(
            f"http://127.0.0.1:{port}{path}", headers=headers or {},
            method=method)
        try:
            with urllib.request.urlopen(request) as response:
                return response.status, dict(response.headers), \
                    response.read()
        except urllib.error.HTTPError as error:
            return error.code, dict(error.headers), error.read()

    return get


class TestRouting:
    def test_listing(self, client):
        status, headers, body = client("/studies")
        assert status == 200
        assert headers["Content-Type"].startswith("application/json")
        payload = json.loads(body)
        assert [s["id"] for s in payload["studies"]] == ["demo"]
        assert payload["studies"][0]["n_shards"] == N_SHARDS

    def test_study_summary_lists_reports(self, client):
        status, _, body = client("/studies/demo")
        assert status == 200
        payload = json.loads(body)
        assert payload["id"] == "demo"
        assert "top-exfiltrators" in payload["reports"]
        assert "summary" in payload["reports"]

    def test_shards_expose_manifest_digests(self, client, study_dir):
        from repro.crawler import ShardManifest
        manifest = ShardManifest.load(study_dir / "demo")
        status, _, body = client("/studies/demo/shards")
        assert status == 200
        rows = json.loads(body)["shards"]
        assert [r["sha256"] for r in rows] == list(manifest.digests)
        assert [r["count"] for r in rows] == list(manifest.counts)

    def test_site_returns_full_visit_log(self, client, crawl_logs):
        log = crawl_logs[5]
        status, _, body = client(f"/studies/demo/sites/{log.rank}")
        assert status == 200
        assert json.loads(body) == json.loads(
            json.dumps(log.to_dict(), sort_keys=True))

    def test_head_matches_get(self, client):
        get_status, get_headers, body = client("/studies/demo")
        head_status, head_headers, head_body = client("/studies/demo",
                                                      method="HEAD")
        assert (get_status, get_headers["ETag"]) \
            == (head_status, head_headers["ETag"])
        assert head_body == b"" and body

    @pytest.mark.parametrize("path,status", [
        ("/studies/nope", 404),
        ("/studies/demo/sites/999999999", 404),
        ("/studies/demo/sites/abc", 400),
        ("/studies/demo/reports/nope", 404),
        ("/studies/demo/reports/top-exfiltrators?limit=x", 400),
        ("/studies/demo/reports/top-exfiltrators?limit=0", 400),
        ("/studies/demo/reports/top-exfiltrators?limit=501", 400),
        ("/studies/demo/reports/top-exfiltrators?limit=1&limit=2", 400),
        ("/studies/demo/reports/top-exfiltrators?frobnicate=1", 400),
        ("/studies/demo/reports/prevalence?bucket=0", 400),
        ("/studies/demo/reports/prevalence?bucket=1.5", 400),
        ("/studies/demo/reports/entity", 400),     # missing required name
        ("/studies/demo/shards?x=1", 400),         # takes no params
        ("/nope", 404),
    ])
    def test_error_statuses_are_json(self, client, path, status):
        got, headers, body = client(path)
        assert got == status
        payload = json.loads(body)
        assert payload["status"] == status and payload["error"]
        # A rejected request is not a cacheable resource: no ETag, and
        # the body is the structured error, never an HTML traceback.
        assert "ETag" not in headers
        assert headers["Content-Type"].startswith("application/json")


class TestETags:
    def test_etag_stable_across_restarts(self, study_dir, client):
        """A second server over the same bytes issues the same ETags —
        they derive from the manifest digests, not server state."""
        _, first_headers, _ = client("/studies/demo/reports/summary")
        other = make_server(study_dir, port=0)
        thread = threading.Thread(target=other.serve_forever, daemon=True)
        thread.start()
        try:
            port = other.server_address[1]
            with urllib.request.urlopen(
                    f"http://127.0.0.1:{port}/studies/demo/reports/summary"
            ) as response:
                assert response.headers["ETag"] == first_headers["ETag"]
        finally:
            other.shutdown()
            other.server_close()

    def test_if_none_match_yields_304_with_empty_body(self, client):
        status, headers, body = client("/studies/demo/shards")
        assert status == 200
        etag = headers["ETag"]
        status2, headers2, body2 = client("/studies/demo/shards",
                                          {"If-None-Match": etag})
        assert status2 == 304 and body2 == b""
        assert headers2["ETag"] == etag

    def test_star_and_weak_validators_match(self, client):
        _, headers, _ = client("/studies/demo")
        etag = headers["ETag"]
        for candidate in ("*", f"W/{etag}", f'"zzz", {etag}'):
            status, _, _ = client("/studies/demo",
                                  {"If-None-Match": candidate})
            assert status == 304, candidate
        status, _, _ = client("/studies/demo", {"If-None-Match": '"zzz"'})
        assert status == 200

    def test_default_params_share_an_etag(self, client):
        """?limit=20 and an omitted limit canonicalize identically."""
        _, h1, b1 = client("/studies/demo/reports/top-exfiltrators")
        _, h2, b2 = client("/studies/demo/reports/top-exfiltrators?limit=20")
        assert h1["ETag"] == h2["ETag"] and b1 == b2
        _, h3, _ = client("/studies/demo/reports/top-exfiltrators?limit=5")
        assert h3["ETag"] != h1["ETag"]

    def test_distinct_resources_distinct_etags(self, client):
        etags = set()
        for path in ("/studies", "/studies/demo", "/studies/demo/shards",
                     "/studies/demo/reports",
                     "/studies/demo/reports/summary"):
            _, headers, _ = client(path)
            etags.add(headers["ETag"])
        assert len(etags) == 5

    def test_dataset_change_changes_etags(self, crawl_logs, client,
                                          tmp_path):
        """Same logs, different sharding → different shard digests →
        every study etag moves (it pins bytes, not content)."""
        other = tmp_path / "demo"
        other.mkdir()
        save_logs(crawl_logs, other, shards=N_SHARDS + 1, compress=True)
        catalog = StudyCatalog(tmp_path)
        _, headers, _ = client("/studies/demo")
        assert catalog.get("demo").etag != headers["ETag"].strip('"')


class TestReportFidelity:
    def test_top_exfiltrators_matches_in_process_study(self, client,
                                                       crawl_logs):
        study = Study(crawl_logs)
        expected = [{"domain": r.domain, "n_cookies": r.n_cookies,
                     "pct_of_all_cookies": r.pct_of_all_cookies}
                    for r in study.figure2(top=10)]
        status, _, body = client(
            "/studies/demo/reports/top-exfiltrators?limit=10")
        assert status == 200
        payload = json.loads(body)
        assert payload["result"] == json.loads(
            json.dumps(expected, sort_keys=True))
        # Byte-level: the served body IS the canonical rendering.
        assert body == (json.dumps(payload, sort_keys=True,
                                   separators=(",", ":")) + "\n").encode()

    def test_summary_matches_in_process_study(self, client, crawl_logs):
        study = Study(crawl_logs)
        status, _, body = client("/studies/demo/reports/summary")
        assert status == 200
        result = json.loads(body)["result"]
        assert result["n_sites"] == study.n_sites
        assert result["sec51_prevalence"] == study.sec51_prevalence()
        assert result["sec56_inclusion"] == study.sec56_inclusion()

    def test_prevalence_buckets_partition_the_study(self, client,
                                                    crawl_logs):
        status, _, body = client("/studies/demo/reports/prevalence?bucket=7")
        assert status == 200
        rows = json.loads(body)["result"]
        assert sum(r["n_sites"] for r in rows) == len(crawl_logs)
        ranks = sorted(log.rank for log in crawl_logs)
        assert rows[0]["bucket"] == ranks[0] // 7
        for row in rows:
            assert row["rank_lo"] == row["bucket"] * 7
            assert row["rank_hi"] == row["rank_lo"] + 6
            assert "pct_sites_with_third_party" in row

    def test_whole_study_bucket_equals_global_prevalence(self, client,
                                                         crawl_logs):
        """One bucket spanning every rank must reproduce the global
        sec51 numbers exactly — the accumulator decomposition is
        associative."""
        study = Study(crawl_logs)
        bucket = 10 ** 6
        status, _, body = client(
            f"/studies/demo/reports/prevalence?bucket={bucket}")
        assert status == 200
        rows = json.loads(body)["result"]
        assert len(rows) == 1
        got = {k: v for k, v in rows[0].items()
               if k not in ("bucket", "rank_lo", "rank_hi", "n_sites")}
        assert got == study.sec51_prevalence()

    def test_entity_drilldown_counts_events(self, client, crawl_logs):
        study = Study(crawl_logs)
        if not study.exfil_events:
            pytest.skip("fixture crawl produced no exfiltration")
        event = study.exfil_events[0]
        entity = study.entities.entity_of(event.actor)
        status, _, body = client(
            f"/studies/demo/reports/entity?name={entity}")
        assert status == 200
        result = json.loads(body)["result"]
        expected = sum(
            1 for e in study.exfil_events
            if study.entities.entity_of(e.actor) == entity)
        assert result["as_exfiltrator"]["n_events"] == expected
        assert result["n_sites"] >= 1


class TestQueryHelpers:
    def test_parse_params_defaults_and_rejects(self):
        query = get_query("top-exfiltrators")
        assert parse_params(query, {}) == {"limit": 20}
        assert parse_params(query, {"limit": ["3"]}) == {"limit": 3}
        with pytest.raises(QueryError, match="unknown parameter"):
            parse_params(query, {"nope": ["1"]})
        with pytest.raises(QueryError, match="more than once"):
            parse_params(query, {"limit": ["1", "2"]})
        with pytest.raises(QueryError, match=">= 1"):
            parse_params(query, {"limit": ["0"]})

    def test_canonical_resource_sorts_params(self):
        assert canonical_resource("/r", {"b": 2, "a": 1}) == "/r?a=1&b=2"
        assert canonical_resource("/r") == "/r"

    def test_etag_matches_variants(self):
        assert etag_matches('"x"', "x")
        assert etag_matches('W/"x"', "x")
        assert etag_matches('"a", "x"', "x")
        assert etag_matches("*", "x")
        assert not etag_matches('"y"', "x")
        assert not etag_matches(None, "x")
        assert not etag_matches("", "x")


class TestCatalogDiscovery:
    def test_single_study_root(self, study_dir):
        catalog = StudyCatalog(study_dir / "demo")
        assert catalog.study_ids() == ["demo"]

    def test_refresh_picks_up_new_and_dropped_studies(self, crawl_logs,
                                                      tmp_path):
        root = tmp_path
        first = root / "alpha"
        first.mkdir()
        save_logs(crawl_logs, first, shards=2)
        catalog = StudyCatalog(root)
        assert catalog.study_ids() == ["alpha"]
        second = root / "beta"
        second.mkdir()
        save_logs(crawl_logs, second, shards=2)
        catalog.refresh()
        assert catalog.study_ids() == ["alpha", "beta"]
        entry = catalog.get("alpha")
        assert entry.is_current()
        import shutil
        shutil.rmtree(second)
        catalog.refresh()
        assert catalog.study_ids() == ["alpha"]


# ---------------------------------------------------------------------------
# Catalog refresh: non-blocking, crash-safe, and incrementally aggregated
# ---------------------------------------------------------------------------

def _touch_shard(directory, shard=0):
    """Drop one log from a shard and republish the manifest — the
    smallest dataset-version bump a re-crawl can produce."""
    from repro.crawler.storage import ShardManifest, load_shard, write_shard
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


class TestCatalogRefreshLocking:
    def test_refresh_does_not_hold_the_lock_while_hashing(
            self, crawl_logs, tmp_path, monkeypatch):
        """Entry construction (which digests every shard of a pre-digest
        manifest) must not stall concurrent get()/listing() calls."""
        import repro.serve.catalog as catalog_module

        root = tmp_path
        alpha = root / "alpha"
        alpha.mkdir()
        save_logs(crawl_logs[:20], alpha, shards=2)
        catalog = StudyCatalog(root)

        # A second study whose manifest carries no digests, so the
        # refresh has to hash its shards during StudyEntry.__init__.
        beta = root / "beta"
        beta.mkdir()
        save_logs(crawl_logs[:20], beta, shards=2)
        manifest_path = beta / "manifest.json"
        data = json.loads(manifest_path.read_text())
        for shard in data["shards"]:
            shard.pop("sha256", None)
        manifest_path.write_text(json.dumps(data))

        hashing = threading.Event()
        release = threading.Event()
        real_digest = catalog_module.compute_digest

        def slow_digest(path):
            hashing.set()
            assert release.wait(timeout=10), "test deadlocked"
            return real_digest(path)

        monkeypatch.setattr(catalog_module, "compute_digest", slow_digest)
        refresher = threading.Thread(target=catalog.refresh)
        refresher.start()
        try:
            assert hashing.wait(timeout=10)
            # The rebuild is mid-hash: reads must not block on it.
            got = {}
            reader = threading.Thread(target=lambda: got.update(
                ids=catalog.study_ids(), listing=catalog.listing(),
                entry=catalog.get("alpha")))
            reader.start()
            reader.join(timeout=5)
            assert not reader.is_alive(), \
                "get()/listing() blocked behind the refresh rebuild"
            assert got["ids"] == ["alpha"]
        finally:
            release.set()
            refresher.join(timeout=10)
        assert catalog.study_ids() == ["alpha", "beta"]

    def test_refresh_skips_a_study_that_vanished_after_discovery(
            self, crawl_logs, tmp_path, monkeypatch):
        root = tmp_path
        alpha = root / "alpha"
        alpha.mkdir()
        save_logs(crawl_logs[:20], alpha, shards=2)
        catalog = StudyCatalog(root)
        ghost = root / "ghost"   # discovered, then deleted before build
        monkeypatch.setattr(
            catalog, "_discover",
            lambda: {"alpha": alpha, "ghost": ghost})
        catalog.refresh()        # must not raise
        assert catalog.study_ids() == ["alpha"]
        with pytest.raises(KeyError):
            catalog.get("ghost")


class TestBucketSizeGuard:
    def test_zero_bucket_raises_value_error_not_zero_division(
            self, crawl_logs, tmp_path):
        from repro.serve.catalog import StudyEntry
        directory = tmp_path / "study"
        directory.mkdir()
        save_logs(crawl_logs[:20], directory, shards=2)
        entry = StudyEntry("study", directory)
        for bad in (0, -4):
            with pytest.raises(ValueError, match="bucket_size must be >= 1"):
                entry.prevalence_by_bucket(bad)


class TestSnapshotSidecar:
    def _entry(self, directory):
        from repro.serve.catalog import StudyEntry
        return StudyEntry(directory.name, directory)

    def _counting_ingest(self, monkeypatch):
        import repro.analysis.snapshot as snapshot_module
        calls = []
        real = snapshot_module._ingest_shard

        def counting(dataset, manifest, pos, entity_map, filter_list):
            calls.append(manifest.files[pos])
            return real(dataset, manifest, pos, entity_map, filter_list)

        monkeypatch.setattr(snapshot_module, "_ingest_shard", counting)
        return calls

    def test_study_persists_a_sidecar_snapshot(self, crawl_logs, tmp_path,
                                               monkeypatch):
        from repro.serve.catalog import SNAPSHOT_NAME
        directory = tmp_path / "study"
        directory.mkdir()
        save_logs(crawl_logs[:30], directory, shards=3)
        entry = self._entry(directory)
        etag_before = entry.etag
        reference = entry.study().report_bytes()
        assert (directory / SNAPSHOT_NAME).exists()

        # A fresh entry (catalog rebuild, server restart) resumes from
        # the sidecar: zero shards re-ingested, identical report bytes,
        # and the ETag untouched by the sidecar's existence.
        calls = self._counting_ingest(monkeypatch)
        fresh = self._entry(directory)
        assert fresh.etag == etag_before
        assert fresh.study().report_bytes() == reference
        assert calls == []

    def test_catalog_refresh_upgrades_a_stale_entry_incrementally(
            self, crawl_logs, tmp_path, monkeypatch):
        from repro.analysis.reports import Study, StudyAccumulator
        from repro.analysis.columnar import iter_shard_batches
        root = tmp_path
        directory = root / "alpha"
        directory.mkdir()
        save_logs(crawl_logs[:30], directory, shards=3)
        catalog = StudyCatalog(root)
        catalog.get("alpha").study()          # builds + persists sidecar

        _touch_shard(directory)
        calls = self._counting_ingest(monkeypatch)
        catalog.refresh()
        entry = catalog.get("alpha")
        refreshed = entry.study().report_bytes()
        assert calls == [entry.manifest.files[0]], \
            "refresh must re-ingest exactly the changed shard"

        acc = StudyAccumulator()
        for batch in iter_shard_batches(directory):
            acc.add_shard_batch(batch)
        assert refreshed == Study.from_accumulator(acc).report_bytes()
