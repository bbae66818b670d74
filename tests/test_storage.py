"""Crawl dataset persistence: one-shard directory round-trips."""

from repro.crawler.storage import ShardManifest, load_logs, save_logs


class TestRoundTrip:
    def test_jsonl_roundtrip(self, crawl_logs, tmp_path):
        path = tmp_path / "crawl"
        written = save_logs(crawl_logs[:10], path)
        assert written == 10
        assert (path / "shard-0000.jsonl").is_file()
        restored = load_logs(path)
        assert len(restored) == 10
        assert restored[0].site == crawl_logs[0].site
        assert len(restored[0].cookie_writes) == len(crawl_logs[0].cookie_writes)

    def test_gzip_roundtrip(self, crawl_logs, tmp_path):
        path = tmp_path / "crawl"
        save_logs(crawl_logs[:5], path, compress=True)
        assert (path / "shard-0000.jsonl.gz").is_file()
        restored = load_logs(path)
        assert len(restored) == 5

    def test_events_preserved_exactly(self, crawl_logs, tmp_path):
        original = crawl_logs[0]
        path = tmp_path / "one"
        save_logs([original], path)
        restored = load_logs(path)[0]
        assert restored.cookie_writes == original.cookie_writes
        assert restored.cookie_reads == original.cookie_reads
        assert restored.requests == original.requests
        assert restored.header_cookies == original.header_cookies
        assert restored.scripts == original.scripts
        assert restored.dom_mutations == original.dom_mutations

    def test_counters_preserved(self, crawl_logs, tmp_path):
        original = crawl_logs[0]
        path = tmp_path / "one"
        save_logs([original], path)
        restored = load_logs(path)[0]
        assert restored.n_scripts == original.n_scripts
        assert restored.cookie_op_count == original.cookie_op_count
        assert restored.rank == original.rank

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty"
        save_logs([], path)
        manifest = ShardManifest.load(path)
        assert manifest.n_shards == 1 and manifest.total == 0
        assert load_logs(path) == []
