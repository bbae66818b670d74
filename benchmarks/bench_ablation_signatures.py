"""Ablation — behaviour-signature detection of cloaked/self-hosted
trackers (§8 future work, after Chen et al.).

CookieGuard's URL attribution is blind to CNAME cloaking.  Signatures
learned from attributed third-party scripts elsewhere in the crawl flag
the same behaviour when it appears under a first-party URL.
"""

from repro.cookieguard.signatures import SignatureStore, detect_self_hosted
from repro.crawler import CrawlConfig, Crawler
from repro.ecosystem import PopulationConfig, generate_population

from conftest import banner


def test_signature_detection(benchmark):
    population = generate_population(PopulationConfig(
        n_sites=700, seed=31, p_cloaked=0.12))
    logs = Crawler(population, CrawlConfig(seed=31)).crawl()
    cloaked_sites = {s.domain for s in population.iter_sites()
                     if s.cloaked_services}

    def run():
        store = SignatureStore()
        store.learn(logs)
        return store, detect_self_hosted(logs, store)

    store, findings = benchmark.pedantic(run, rounds=1, iterations=1)
    crawled_cloaked = {log.site for log in logs if log.site in cloaked_sites}
    detected = {f.site for f in findings}
    true_positives = detected & crawled_cloaked
    banner("Ablation — behaviour signatures vs cloaking",
           "§8 proposal: match first-party scripts against known tracker "
           "behaviour")
    print(f"signatures learned: {len(store)}")
    print(f"cloaked sites crawled: {len(crawled_cloaked)}")
    print(f"flagged by signatures: {len(detected)} "
          f"(true positives: {len(true_positives)})")
    if crawled_cloaked:
        recall = len(true_positives) / len(crawled_cloaked)
        precision = len(true_positives) / max(len(detected), 1)
        print(f"recall: {recall:.0%}  precision vs known cloaks: "
              f"{precision:.0%}")
        assert recall >= 0.5
