"""Property-style equivalence of the PR 5 + PR 7 fast paths.

Every optimization in the hot-path sweeps claims "same answers, fewer
cycles".  This suite makes that claim falsifiable with randomized
inputs:

* memoized PSL lookups == the uncached reference algorithm;
* cached ``parse_url`` + interned ``Origin`` == a fresh parse;
* the domain-indexed ``CookieJar`` == a brute-force full-scan reference
  implementation (same cookies, same order, same touch effects);
* the compact single-buffer shard serializer round-trips the golden
  fixture byte-for-byte against a line-at-a-time reference;
* ``ShardKeyFactory`` keys == the original whole-payload hash;
* the columnar analysis pipeline (``ShardBatch`` + batch report
  passes) == the per-log object path, down to the report bytes, over
  randomly seeded crawled populations — and batch-built accumulators
  merge associatively.

Randomness is seeded — failures reproduce.
"""

from __future__ import annotations

import gzip
import json
import random
from pathlib import Path

import pytest

from repro.cookies.cookie import Cookie, domain_match, path_match
from repro.cookies.jar import CookieJar
from repro.crawler.distributed import ShardKeyFactory, ShardStore, WorkSpec
from repro.crawler.storage import (ShardManifest, compute_digest,
                                   load_logs, save_logs, write_shard)
from repro.net.psl import DEFAULT_PSL, PublicSuffixList
from repro.net.url import URL, parse_url
from repro.records import VisitLog

GOLDEN = Path(__file__).parent / "data" / "golden_visitlog.json"

_LABELS = ["a", "b", "www", "api", "cdn", "example", "site-7", "x" * 40,
           "tracker", "metrics", "shop", "1", "255", "256", "999",
           "1" * 30, "0" * 300]
_SUFFIXES = ["com", "co.uk", "github.io", "ck", "bd", "com.bd", "zz",
             "org", "net.au", "blogspot.com"]


def _random_host(rng: random.Random) -> str:
    n = rng.randint(1, 4)
    host = ".".join(rng.choice(_LABELS) for _ in range(n))
    if rng.random() < 0.7:
        host += "." + rng.choice(_SUFFIXES)
    if rng.random() < 0.1:
        host = host.upper()
    if rng.random() < 0.1:
        host += "."
    if rng.random() < 0.05:
        host = "." + host
    if rng.random() < 0.08:
        host = ".".join(str(rng.randint(0, 300)) for _ in range(4))
    return host


class TestPSLMemoEquivalence:
    def test_randomized_hosts_agree_with_reference(self):
        rng = random.Random(2025)
        psl = PublicSuffixList()  # fresh instance: cold caches
        hosts = [_random_host(rng) for _ in range(2000)]
        for host in hosts + hosts:  # second pass exercises warm cache
            assert psl.public_suffix(host) == \
                psl.public_suffix_uncached(host), host
            assert psl.registrable_domain(host) == \
                psl.registrable_domain_uncached(host), host

    def test_default_psl_agrees_on_fixed_corpus(self):
        for host in ["example.com", "a.b.example.co.uk", "www.ck",
                     "sub.www.ck", "example.com.bd", "192.168.1.1",
                     "[2001:db8::1]", "EXAMPLE.ORG.", "com", "co.uk"]:
            assert DEFAULT_PSL.registrable_domain(host) == \
                DEFAULT_PSL.registrable_domain_uncached(host)

    def test_cache_is_bounded(self):
        psl = PublicSuffixList(cache_size=64)
        for i in range(1000):
            psl.registrable_domain(f"site-{i}.example.com")
        assert psl._domain_cached.cache_info().maxsize == 64
        assert psl._domain_cached.cache_info().currsize <= 64

    def test_is_ip_bounds_digit_runs(self):
        # A 300-digit label must not be treated as an IPv4 octet (and
        # must not cost a big-int conversion).
        assert not DEFAULT_PSL.is_ip("1.2.3." + "9" * 300)
        assert not DEFAULT_PSL.is_ip("1000.1000.1000.1000")
        assert DEFAULT_PSL.is_ip("255.255.255.255")
        assert not DEFAULT_PSL.is_ip("256.1.1.1")
        # Zero-padded octets keep their historical int() semantics.
        assert DEFAULT_PSL.is_ip("1.2.3.0255")
        assert DEFAULT_PSL.is_ip("0.0.0." + "0" * 300)
        assert not DEFAULT_PSL.is_ip("1.2.3.0256")
        # The giant-label host still resolves through the full paths.
        monster = "9" * 300 + ".example.com"
        assert DEFAULT_PSL.registrable_domain(monster) == "example.com"


class TestURLCacheEquivalence:
    RAWS = [
        "https://example.com/",
        "https://example.com/a/b?x=1&y=2#frag",
        "http://shop.example.co.uk:8080/checkout",
        "wss://live.example.com/socket",
        "https://EXAMPLE.com./path",
        "https://api.tracker.net/collect?uid=abc",
    ]

    def test_cached_parse_equals_fresh_dataclass(self):
        for raw in self.RAWS * 2:
            url = parse_url(raw)
            again = parse_url(raw)
            assert url == again
            # Compare against an uncached reconstruction of the fields.
            rebuilt = URL(url.scheme, url.host, url.port, url.path,
                          url.query, url.fragment)
            assert rebuilt == url and str(rebuilt) == str(url)

    def test_interned_origin_identity_and_equality(self):
        a = parse_url("https://example.com/a").origin
        b = parse_url("https://example.com/b?q=1").origin
        assert a == b and a is b  # interned: one instance per triple
        c = parse_url("https://example.com:8443/").origin
        assert c != a

    def test_opaque_origins_stay_opaque(self):
        from repro.net.url import Origin
        opaque = Origin.opaque()
        # Never same-origin, not even with itself — interning must not
        # (and does not) apply to opaque origins.
        assert not opaque.same_origin(opaque)
        assert not opaque.same_origin(Origin.opaque())

    def test_relative_parse_still_resolves_against_base(self):
        base = parse_url("https://example.com/dir/page.html")
        assert str(parse_url("/x?q=1", base=base)) == \
            "https://example.com/x?q=1"
        assert str(parse_url("img.gif", base=base)) == \
            "https://example.com/dir/img.gif"
        assert parse_url("//cdn.example.com/l.js", base=base).host == \
            "cdn.example.com"


def _reference_cookies_for_url(store_snapshot, url, now,
                               include_http_only=True):
    """The pre-index full-scan retrieval (verbatim from the old jar)."""
    matches = []
    for cookie in store_snapshot:
        if cookie.is_expired(now):
            continue
        if cookie.host_only:
            if url.host.lower() != cookie.domain:
                continue
        elif not domain_match(url.host, cookie.domain):
            continue
        if not path_match(url.path, cookie.path):
            continue
        if cookie.secure and not url.is_secure:
            continue
        if cookie.http_only and not include_http_only:
            continue
        matches.append(cookie)
    matches.sort(key=lambda c: (-len(c.path), c.creation_time))
    return matches


class TestJarIndexEquivalence:
    DOMAINS = ["example.com", "www.example.com", "sub.www.example.com",
               "other.net", "example.co.uk", "deep.a.b.example.com"]
    PATHS = ["/", "/a", "/a/", "/a/b", "/long/path/here"]
    HOSTS = ["example.com", "www.example.com", "sub.www.example.com",
             "unrelated.org", "a.b.example.com", "example.co.uk"]

    def _random_jar(self, rng: random.Random, n: int) -> CookieJar:
        jar = CookieJar()
        for i in range(n):
            cookie = Cookie(
                name=f"c{rng.randint(0, 30)}",
                value=f"v{i}",
                domain=rng.choice(self.DOMAINS),
                path=rng.choice(self.PATHS),
                expires=None if rng.random() < 0.7
                else rng.uniform(-10.0, 500.0),
                secure=rng.random() < 0.3,
                http_only=rng.random() < 0.3,
                host_only=rng.random() < 0.5,
                creation_time=float(rng.randint(0, 5)),
                last_access_time=float(rng.randint(0, 5)),
            )
            jar.set(cookie, now=0.0)
            if rng.random() < 0.1 and len(jar):
                victim = rng.choice(jar.all())
                jar.delete(victim.name, victim.domain, victim.path)
        return jar

    @pytest.mark.parametrize("seed", [1, 7, 42, 2025])
    def test_randomized_jars_match_full_scan(self, seed):
        rng = random.Random(seed)
        jar = self._random_jar(rng, 150)
        for trial in range(60):
            scheme = rng.choice(["https", "http"])
            url = parse_url(f"{scheme}://{rng.choice(self.HOSTS)}"
                            f"{rng.choice(self.PATHS)}")
            now = rng.uniform(0.0, 60.0)
            include = rng.random() < 0.5
            # Snapshot BEFORE the indexed call (it touches cookies).
            snapshot = jar.all()
            expected = _reference_cookies_for_url(
                snapshot, url, now, include_http_only=include)
            got = jar.cookies_for_url(url, now=now,
                                      include_http_only=include)
            assert [c.key for c in got] == [c.key for c in expected], \
                (seed, trial, str(url), now)
            # Touch semantics: every returned cookie is stored with
            # last_access_time == now.
            for cookie in got:
                assert jar.get(*cookie.key).last_access_time == now

    def test_index_survives_overwrite_delete_expire_evict(self):
        jar = CookieJar()
        url = parse_url("https://example.com/")
        jar.set(Cookie(name="a", value="1", domain="example.com"), now=0.0)
        jar.set(Cookie(name="a", value="2", domain="example.com",
                       creation_time=9.0), now=1.0)
        got = jar.cookies_for_url(url, now=1.0)
        assert [c.value for c in got] == ["2"]
        # Overwrite preserved the original creation time (§5.3 11.3).
        assert got[0].creation_time == 0.0
        jar.set(Cookie(name="a", value="", domain="example.com",
                       expires=-1.0), now=2.0)
        assert jar.cookies_for_url(url, now=2.0) == []
        assert len(jar) == 0
        assert jar._by_domain == {}  # index emptied in lockstep


class TestSerializerEquivalence:
    def test_golden_logs_round_trip_bit_identical(self, tmp_path):
        """GOLDEN fixture → new serializer → load → re-render == fixture."""
        entries = json.loads(GOLDEN.read_text(encoding="utf-8"))
        logs = [VisitLog.from_dict(e) for e in entries]
        save_logs(logs, tmp_path)
        loaded = load_logs(tmp_path)
        rendered = json.dumps([log.to_dict() for log in loaded],
                              sort_keys=True, indent=1) + "\n"
        assert rendered == GOLDEN.read_text(encoding="utf-8")

    def test_compact_lines_match_reference_dumps(self, tmp_path):
        entries = json.loads(GOLDEN.read_text(encoding="utf-8"))
        logs = [VisitLog.from_dict(e) for e in entries]
        written = write_shard(logs, tmp_path, 0)
        lines = (tmp_path / written.name).read_text(
            encoding="utf-8").splitlines()
        expected = [json.dumps(log.to_dict(), separators=(",", ":"))
                    for log in logs]
        assert lines == expected

    def test_streaming_digest_matches_file_digest(self, tmp_path):
        entries = json.loads(GOLDEN.read_text(encoding="utf-8"))
        logs = [VisitLog.from_dict(e) for e in entries]
        for compress in (False, True):
            written = write_shard(logs, tmp_path, 1, compress=compress)
            assert written.sha256 == \
                compute_digest(tmp_path / written.name)

    def test_gzip_member_header_stays_zeroed(self, tmp_path):
        entries = json.loads(GOLDEN.read_text(encoding="utf-8"))
        logs = [VisitLog.from_dict(e) for e in entries]
        a = write_shard(logs, tmp_path / "one", 0, compress=True)
        b = write_shard(logs, tmp_path / "two", 0, compress=True)
        bytes_a = (tmp_path / "one" / a.name).read_bytes()
        bytes_b = (tmp_path / "two" / b.name).read_bytes()
        assert bytes_a == bytes_b  # mtime zeroed: pure function of logs
        with gzip.open(tmp_path / "one" / a.name, "rt",
                       encoding="utf-8") as handle:
            assert len(handle.read().splitlines()) == len(logs)


class TestShardKeyFactoryEquivalence:
    @pytest.mark.parametrize("compress", [False, True])
    def test_factory_matches_reference_key(self, compress):
        rng = random.Random(5)
        factory = ShardKeyFactory("pop" * 20, "cfg" * 20, compress)
        for _ in range(50):
            ranks = sorted(rng.sample(range(10_000), rng.randint(1, 40)))
            assert factory.key_for(ranks) == ShardStore.shard_key(
                "pop" * 20, "cfg" * 20, ranks, compress)

    def test_serializer_format_version_is_part_of_the_key(self):
        """Pre-PR5 cache entries (old JSON separators) must MISS under
        the new keys — old-format bytes carry digests a v2 retry can
        never reproduce, so they must not enter a v2 run's journal."""
        import hashlib
        legacy_payload = {"population": "p" * 64, "config": "c" * 64,
                          "ranks": [1, 2], "compress": False}
        legacy_key = hashlib.sha256(json.dumps(
            legacy_payload, sort_keys=True).encode("utf-8")).hexdigest()
        assert ShardStore.shard_key("p" * 64, "c" * 64, (1, 2), False) \
            != legacy_key

    def test_workspec_threads_fingerprints(self, tmp_path):
        spec = WorkSpec(population={"n_sites": 4, "seed": 1},
                        config={"seed": 1, "interact": True,
                                "max_clicks": 3, "install_guard": False,
                                "guard_policy": None,
                                "guard_uncloak_dns": False},
                        shards=((0, 1), (2, 3)),
                        population_fp="p" * 64, config_fp="c" * 64)
        spec.save(tmp_path)
        loaded = WorkSpec.load(tmp_path / "workspec.json")
        assert loaded.population_fp == "p" * 64
        assert loaded.config_fp == "c" * 64
        factory = loaded.key_factory()
        assert factory.key_for((0, 1)) == ShardStore.shard_key(
            "p" * 64, "c" * 64, (0, 1), False)

    def test_worker_side_cache_serves_repeat_shards(self, tmp_path,
                                                    monkeypatch):
        """crawl-shard --cache-dir: the spec-carried fingerprints key a
        worker-side ShardStore, so a repeat shard is served from cache
        (zero visits) with byte-identical output."""
        from repro.crawler import (CrawlConfig, config_fingerprint,
                                   population_fingerprint,
                                   run_shard_worker)
        from repro.crawler import distributed as dist
        from repro.crawler.parallel import ShardPlan
        from repro.ecosystem import PopulationConfig, generate_population

        population = generate_population(
            PopulationConfig(n_sites=6, seed=2025))
        config = CrawlConfig(seed=2025)
        plan = ShardPlan.for_population(population, 2)
        spec = WorkSpec.build(
            population, config, plan, False, False,
            population_fp=population_fingerprint(population),
            config_fp=config_fingerprint(config))
        spec_path = spec.save(tmp_path)
        cache = tmp_path / "cache"

        first = run_shard_worker(spec_path, 0, out_dir=tmp_path / "one",
                                 cache_dir=cache)
        # Any further crawl attempt would prove the cache was bypassed.
        monkeypatch.setattr(
            dist, "_execute_shard",
            lambda *a, **k: pytest.fail("cache miss: shard re-crawled"))
        second = run_shard_worker(spec_path, 0, out_dir=tmp_path / "two",
                                  cache_dir=cache)
        assert second == first
        assert (tmp_path / "two" / first["file"]).read_bytes() == \
            (tmp_path / "one" / first["file"]).read_bytes()

    def test_workspec_without_fingerprints_still_keys(self, tmp_path):
        # Back-compat: specs written before PR 5 carry no fingerprints;
        # key_factory falls back to recomputing them.
        spec = WorkSpec(population={"n_sites": 4, "seed": 1},
                        config={"seed": 1, "interact": True,
                                "max_clicks": 3, "install_guard": False,
                                "guard_policy": None,
                                "guard_uncloak_dns": False},
                        shards=((0, 1),))
        data = spec.to_dict()
        assert "population_fp" not in data and "config_fp" not in data
        factory = WorkSpec.from_dict(data).key_factory()
        assert len(factory.key_for((0, 1))) == 64


def _report_blob(study) -> str:
    """Every §5 report of a Study as one canonical JSON string.

    Byte equality of this blob is the PR 7 equivalence bar: the
    columnar path may order intermediate event lists differently, but
    every emitted report table/figure must be identical bytes.
    """
    import dataclasses
    payload = {
        "sec51_prevalence": study.sec51_prevalence(),
        "sec52_api_usage": study.sec52_api_usage(),
        "table1": [dataclasses.asdict(r) for r in study.table1()],
        "table2": [dataclasses.asdict(r) for r in study.table2()],
        "figure2": [dataclasses.asdict(r) for r in study.figure2()],
        "sec55_overwrite": study.sec55_overwrite_attributes(),
        "table5": [dataclasses.asdict(r) for r in study.table5()],
        "figure8": {key: [dataclasses.asdict(r) for r in rows]
                    for key, rows in study.figure8().items()},
        "sec56_inclusion": study.sec56_inclusion(),
        "sec8_dom_pilot": study.sec8_dom_pilot(),
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _object_path_study(logs):
    """The pre-PR7 reference: one ``StudyAccumulator.add`` per log."""
    from repro.analysis.reports import Study, StudyAccumulator
    acc = StudyAccumulator()
    for log in logs:
        acc.add(log)
    return Study.from_accumulator(acc)


class TestColumnarEquivalence:
    """``ShardBatch`` analysis == per-log object analysis, byte for byte."""

    def _crawled(self, seed: int, n_sites: int = 40):
        from repro.crawler import CrawlConfig, Crawler
        from repro.ecosystem import PopulationConfig, generate_population
        population = generate_population(
            PopulationConfig(n_sites=n_sites, seed=seed))
        return Crawler(population, CrawlConfig(seed=seed)).crawl(
            population.successful_sites(), keep_incomplete=True)

    @pytest.mark.parametrize("seed", [3, 11, 2025])
    def test_random_populations_report_identical_bytes(self, seed):
        from repro.analysis.columnar import ShardBatch
        from repro.analysis.reports import Study, StudyAccumulator
        logs = self._crawled(seed)
        reference = _report_blob(_object_path_study(logs))
        # Path 1: Study(logs) — routes through ShardBatch.from_logs.
        assert _report_blob(Study(logs)) == reference
        # Path 2: an explicit batch fed whole to an accumulator.
        acc = StudyAccumulator()
        acc.add_shard_batch(ShardBatch.from_logs(logs))
        assert _report_blob(Study.from_accumulator(acc)) == reference

    def test_shard_dict_decode_matches_object_path(self, tmp_path):
        """JSON dicts → columns (no VisitLog objects) == object path."""
        from repro.analysis.columnar import iter_shard_batches
        from repro.analysis.reports import Study, StudyAccumulator
        logs = self._crawled(7)
        save_logs(logs, tmp_path, shards=3, compress=True)
        acc = StudyAccumulator()
        for batch in iter_shard_batches(tmp_path):
            acc.add_shard_batch(batch)
        assert _report_blob(Study.from_accumulator(acc)) == \
            _report_blob(_object_path_study(logs))

    def test_batch_object_view_round_trips(self, crawl_logs):
        """``ShardBatch.logs()`` rebuilds the exact VisitLog dicts."""
        from repro.analysis.columnar import ShardBatch
        logs = list(crawl_logs[:60])
        batch = ShardBatch.from_logs(logs)
        assert len(batch) == len(logs)
        assert [log.to_dict() for log in batch.logs()] == \
            [log.to_dict() for log in logs]

    def test_select_is_a_pure_column_gather(self, crawl_logs):
        from repro.analysis.columnar import ShardBatch
        logs = list(crawl_logs[:40])
        batch = ShardBatch.from_logs(logs)
        indices = [31, 2, 17, 2, 0]
        sub = batch.select(indices)
        assert [log.to_dict() for log in sub.logs()] == \
            [logs[i].to_dict() for i in indices]

    def test_merge_is_associative_on_report_bytes(self, crawl_logs):
        """merge(a, merge(b, c)) == merge(merge(a, b), c) — the property
        the shard merge, the serve catalog, and the rank-bucket
        decomposition all rely on."""
        from repro.analysis.columnar import ShardBatch
        from repro.analysis.reports import Study, StudyAccumulator
        logs = list(crawl_logs[:90])
        thirds = [logs[0:30], logs[30:60], logs[60:90]]

        def acc_of(chunk):
            acc = StudyAccumulator()
            acc.add_shard_batch(ShardBatch.from_logs(chunk))
            return acc

        a_then_bc = StudyAccumulator()
        a_then_bc.update(acc_of(thirds[0]))
        bc = StudyAccumulator()
        bc.update(acc_of(thirds[1]))
        bc.update(acc_of(thirds[2]))
        a_then_bc.update(bc)

        ab_then_c = StudyAccumulator()
        ab = StudyAccumulator()
        ab.update(acc_of(thirds[0]))
        ab.update(acc_of(thirds[1]))
        ab_then_c.update(ab)
        ab_then_c.update(acc_of(thirds[2]))

        left = _report_blob(Study.from_accumulator(a_then_bc))
        right = _report_blob(Study.from_accumulator(ab_then_c))
        assert left == right
        # And both equal the unsplit whole.
        assert left == _report_blob(Study.from_accumulator(acc_of(logs)))

    def test_golden_fixture_through_the_batch_path(self):
        from repro.analysis.columnar import ShardBatch
        from repro.analysis.reports import Study, StudyAccumulator
        entries = json.loads(GOLDEN.read_text(encoding="utf-8"))
        logs = [VisitLog.from_dict(e) for e in entries]
        reference = _report_blob(_object_path_study(logs))
        assert _report_blob(Study(logs)) == reference
        # from_dicts: straight off the JSON entries, no objects built.
        acc = StudyAccumulator()
        acc.add_shard_batch(ShardBatch.from_dicts(entries))
        assert _report_blob(Study.from_accumulator(acc)) == reference


class TestSplitCandidatesFastEquivalence:
    CORPUS = [
        "", "short", "abcdefgh", "abcdefg",  # boundary at MIN length
        "uid=4f3a9b2c1d8e7f60&session=zzzz; theme=dark",
        "a" * 7 + "-" + "b" * 8 + "_" + "c" * 64,
        "%7Btoken%7D=ABCDEFGH12345678&x=----",
        "trailing-run-ends-here-0123456789abcdef",
        "0123456789abcdef",  # one pure run, no delimiters
        # Non-ASCII: isalnum() admits these, the ASCII class must not —
        # the fast path has to fall back to the reference loop.
        "αβγδεζηθικλμνξο",
        "abcd1234日本語efgh5678",
        "Ωmega-uid-ABCDEFGH87654321",
        "é" * 10 + "&" + "x" * 12,
        "ＡＢＣＤＥＦＧＨ",  # fullwidth letters are alnum too
    ]

    def test_fixed_corpus_agrees_with_reference(self):
        from repro.analysis.exfiltration import (split_candidates,
                                                 split_candidates_fast)
        for value in self.CORPUS:
            assert split_candidates_fast(value) == \
                split_candidates(value), value

    def test_randomized_values_agree_with_reference(self):
        from repro.analysis.exfiltration import (split_candidates,
                                                 split_candidates_fast)
        rng = random.Random(2025)
        alphabet = ("abcXYZ0189" + "-_.;&= %" + "éλ語Ω")
        for trial in range(400):
            value = "".join(rng.choice(alphabet)
                            for _ in range(rng.randint(0, 80)))
            assert split_candidates_fast(value) == \
                split_candidates(value), (trial, value)

    def test_encoded_forms_cache_is_pure(self):
        from repro.analysis.exfiltration import encoded_forms_cached
        from repro.encoding import encoded_forms
        for candidate in ["abcdefgh", "4f3a9b2c1d8e7f60", "abcdefgh"]:
            assert encoded_forms_cached(candidate) == \
                encoded_forms(candidate)


class TestAtomicManifestSave:
    def _manifest(self) -> ShardManifest:
        return ShardManifest(n_shards=1, total=2, compress=False,
                             files=("shard-0000.jsonl",), counts=(2,))

    def test_save_leaves_no_temp_file(self, tmp_path):
        self._manifest().save(tmp_path)
        names = {p.name for p in tmp_path.iterdir()}
        assert names == {"manifest.json"}
        assert ShardManifest.load(tmp_path).total == 2

    def test_save_replaces_existing_manifest_atomically(self, tmp_path):
        (tmp_path / "manifest.json").write_text('{"torn', encoding="utf-8")
        self._manifest().save(tmp_path)
        assert ShardManifest.load(tmp_path).n_shards == 1
