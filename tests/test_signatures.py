"""Behaviour signatures and self-hosted/cloaked tracker detection (§8)."""

import pytest

from repro.cookieguard.signatures import (
    ScriptSignature,
    SignatureStore,
    detect_self_hosted,
    operations_of,
)
from repro.crawler import CrawlConfig, Crawler
from repro.ecosystem import PopulationConfig, generate_population
from repro.records import (
    CookieReadEvent,
    CookieWriteEvent,
    RequestEvent,
    ScriptRecord,
    VisitLog,
)


def make_log(site, script_url, script_domain, cookie_names=("_t_id",),
             destinations=("collect.t.com",)):
    log = VisitLog(site=site, url=f"https://{site}/")
    log.scripts.append(ScriptRecord(url=script_url, domain=script_domain,
                                    inclusion="direct"))
    for name in cookie_names:
        log.cookie_writes.append(CookieWriteEvent(
            site=site, cookie_name=name, cookie_value="v" * 12,
            api="document.cookie", kind="set", script_url=script_url,
            script_domain=script_domain, inclusion="direct",
            raw=f"{name}=x", timestamp=1.0))
    log.cookie_reads.append(CookieReadEvent(
        site=site, api="document.cookie", script_url=script_url,
        script_domain=script_domain, inclusion="direct",
        cookie_names=tuple(f"c{i}" for i in range(6)), timestamp=1.0))
    for dest in destinations:
        log.requests.append(RequestEvent(
            site=site, url=f"https://{dest}/px?x=1", host=dest,
            domain=dest.split(".", 1)[-1] if dest.count(".") > 1 else dest,
            method="GET", resource_type="image", query="x=1", body="",
            script_url=script_url, script_domain=script_domain,
            timestamp=2.0))
    return log


class TestSignature:
    def test_deterministic(self):
        ops = [("write:set", "_ga"), ("read", "bulk"), ("request", "t.com")]
        a = ScriptSignature.from_operations(ops)
        b = ScriptSignature.from_operations(list(reversed(ops)))
        assert a.digest == b.digest  # order-insensitive

    def test_empty_operations(self):
        assert ScriptSignature.from_operations([]) is None

    def test_similarity(self):
        a = ScriptSignature.from_operations([("write:set", "_ga"),
                                             ("read", "bulk")])
        b = ScriptSignature.from_operations([("write:set", "_ga"),
                                             ("read", "bulk"),
                                             ("request", "x.com")])
        assert 0.5 < a.similarity(b) < 1.0
        assert a.similarity(a) == 1.0

    def test_operations_of_extracts_everything(self):
        log = make_log("site.com", "https://cdn.t.com/t.js", "t.com")
        ops = operations_of(log, "https://cdn.t.com/t.js")
        kinds = {kind for kind, _ in ops}
        assert kinds == {"write:set", "read", "request"}

    def test_read_buckets(self):
        log = make_log("site.com", "https://cdn.t.com/t.js", "t.com")
        ops = operations_of(log, "https://cdn.t.com/t.js")
        assert ("read", "bulk") in ops


class TestStore:
    def test_learn_and_exact_match(self):
        store = SignatureStore()
        learned = store.learn([make_log("a.com", "https://cdn.t.com/t.js",
                                        "t.com")])
        assert learned == 1
        ops = operations_of(make_log("b.com", "https://b.com/copy.js",
                                     "b.com"),
                            "https://b.com/copy.js")
        assert store.match(ops, site="b.com") == "t.com"

    def test_first_party_scripts_not_learned(self):
        store = SignatureStore()
        learned = store.learn([make_log("a.com", "https://a.com/main.js",
                                        "a.com")])
        assert learned == 0

    def test_fuzzy_match(self):
        store = SignatureStore()
        store.learn([make_log("a.com", "https://cdn.t.com/t.js", "t.com",
                              cookie_names=("_t_id", "_t_sess"))])
        # Same behaviour minus one cookie: high Jaccard, not exact.
        variant = make_log("b.com", "https://b.com/v.js", "b.com",
                           cookie_names=("_t_id",))
        ops = operations_of(variant, "https://b.com/v.js")
        assert store.match(ops, site="b.com", threshold=0.5) == "t.com"
        assert store.match(ops, site="b.com", threshold=0.95) is None

    def test_no_match_for_unrelated(self):
        store = SignatureStore()
        store.learn([make_log("a.com", "https://cdn.t.com/t.js", "t.com")])
        unrelated = make_log("b.com", "https://b.com/other.js", "b.com",
                             cookie_names=("completely", "different"),
                             destinations=("elsewhere.example",))
        ops = operations_of(unrelated, "https://b.com/other.js")
        assert store.match(ops, site="b.com") is None


class TestCloakedDetection:
    """The end-to-end §8 scenario: learn from the open web, catch cloaks."""

    @pytest.fixture(scope="class")
    def cloaked_world(self):
        population = generate_population(PopulationConfig(
            n_sites=500, seed=51, p_cloaked=0.15))
        logs = Crawler(population, CrawlConfig(seed=51)).crawl()
        return population, logs

    def test_detects_cloaked_trackers(self, cloaked_world):
        population, logs = cloaked_world
        cloaked_sites = {s.domain: s for s in population.iter_sites()
                         if s.cloaked_services}
        store = SignatureStore()
        store.learn(logs)
        findings = detect_self_hosted(logs, store)
        detected_sites = {f.site for f in findings}
        # At least half the crawled cloaked sites are caught by behaviour.
        crawled_cloaked = {log.site for log in logs
                           if log.site in cloaked_sites}
        if not crawled_cloaked:
            pytest.skip("no cloaked site crawled")
        hit_rate = len(detected_sites & crawled_cloaked) / len(crawled_cloaked)
        assert hit_rate >= 0.5

    def test_matched_domain_is_true_service(self, cloaked_world):
        population, logs = cloaked_world
        cloaked_sites = {s.domain: s for s in population.iter_sites()
                         if s.cloaked_services}
        store = SignatureStore()
        store.learn(logs)
        for finding in detect_self_hosted(logs, store):
            site = cloaked_sites.get(finding.site)
            if site is None or "metrics." not in finding.script_url:
                continue
            true_domains = {population.services[k].domain
                            for k in site.cloaked_services}
            assert finding.matched_domain in true_domains


class TestDnsUncloaking:
    def test_guard_with_dns_blocks_cloaked_tracker(self):
        population = generate_population(PopulationConfig(
            n_sites=500, seed=51, p_cloaked=0.15))
        cloaked = [s for s in population.successful_sites()
                   if s.cloaked_services][:5]
        if not cloaked:
            pytest.skip("no cloaked sites")
        plain = Crawler(population, CrawlConfig(seed=51, install_guard=True))
        plain.crawl(cloaked)
        dns = Crawler(population, CrawlConfig(seed=51, install_guard=True,
                                              guard_uncloak_dns=True))
        dns.crawl(cloaked)
        plain_blocked = sum(g.blocked_writes + g.blocked_reads
                            for g in plain.guards)
        dns_blocked = sum(g.blocked_writes + g.blocked_reads
                          for g in dns.guards)
        # DNS-aware attribution demotes cloaked scripts from owner to
        # third party, so strictly more operations are policed.
        assert dns_blocked > plain_blocked
