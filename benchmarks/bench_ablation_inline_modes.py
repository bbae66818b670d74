"""Ablation — strict vs relaxed inline-script handling (§6.1).

Strict mode denies inline scripts all cookie access (safe-by-default);
relaxed mode treats them as first-party.  The ablation measures how much
cross-domain activity the relaxed stance re-admits.
"""

from repro.cookieguard.policy import InlineMode, PolicyConfig
from repro.crawler import CrawlConfig, Crawler
from repro.evaluation.access_control import _site_action_rates

from conftest import banner


def _guarded_rates(population, sites, mode):
    crawler = Crawler(population, CrawlConfig(
        seed=2025, install_guard=True,
        guard_policy=PolicyConfig(inline_mode=mode)))
    return _site_action_rates(crawler.crawl(sites)), crawler


def test_inline_mode_ablation(benchmark, population):
    sites = population.sites_for(population.ranks[:200])
    strict_rates, strict_crawler = benchmark.pedantic(
        _guarded_rates, args=(population, sites, InlineMode.STRICT),
        rounds=1, iterations=1)
    relaxed_rates, relaxed_crawler = _guarded_rates(population, sites,
                                                    InlineMode.RELAXED)
    banner("Ablation — inline-script modes",
           "strict denies inline scripts; relaxed re-admits their writes")
    print(f"{'action':<14} {'strict %':>10} {'relaxed %':>10}")
    for action in ("overwriting", "deleting", "exfiltration"):
        print(f"{action:<14} {strict_rates[action]:>10.1f} "
              f"{relaxed_rates[action]:>10.1f}")
    strict_blocked = sum(g.blocked_writes for g in strict_crawler.guards)
    relaxed_blocked = sum(g.blocked_writes for g in relaxed_crawler.guards)
    print(f"blocked writes: strict={strict_blocked} relaxed={relaxed_blocked}")
    # Strict mode blocks strictly more writes (every inline write).
    assert strict_blocked > relaxed_blocked
