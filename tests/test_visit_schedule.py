"""One visit schedule: the crawl is an in-order loop over visits.

Every visit is seeded ``[seed, site.rank]`` and owns its browser, jar,
page clock and rng, so neither the shard partition nor the worker count
can change a byte.  Three layers:

* **The visit generator** — ``Crawler.visit_steps`` yields one label per
  stage and returns the log ``visit_site`` returns; a failed crawl
  returns None.
* **The lazy loop** — ``Crawler.icrawl`` streams rank-ordered logs and
  synthesizes a site only when it visits it.
* **Coordinator equivalence** — in-process and pool-backend crawls under
  both shard strategies, and the ``Study`` built from them, match the
  serial crawl (the cases ``tests/test_parallel_crawl.py`` does not
  already cover).
"""

from __future__ import annotations

import json

import pytest

from repro.analysis import Study
from repro.crawler import (
    CrawlConfig,
    Crawler,
    InProcessBackend,
    ProcessPoolBackend,
)
from repro.ecosystem import Population, PopulationConfig, generate_population

SEED_CFG = CrawlConfig(seed=2025)


def _stream(logs):
    return [json.dumps(log.to_dict(), sort_keys=True)
            for log in sorted(logs, key=lambda log: log.rank)]


@pytest.fixture(scope="module")
def subset(population):
    """A small site sample *including* failing crawls (None results)."""
    return population.sites_for(population.ranks[:60])


@pytest.fixture(scope="module")
def subset_stream(population, subset):
    return _stream(Crawler(population, SEED_CFG).crawl(subset))


@pytest.fixture(scope="module")
def small_population():
    """60 sites, failing crawls included: the coordinator crawls whole
    populations, so sharded runs use this instead of ``subset``."""
    return generate_population(PopulationConfig(n_sites=60, seed=2025))


@pytest.fixture(scope="module")
def small_stream(small_population):
    return _stream(Crawler(small_population, SEED_CFG).crawl())


# ---------------------------------------------------------------------------
# The visit generator
# ---------------------------------------------------------------------------

class TestVisitSteps:
    def test_visit_site_drains_visit_steps(self, population):
        site = population.successful_sites()[0]
        steps = Crawler(population, SEED_CFG).visit_steps(site)
        stages = []
        try:
            while True:
                stages.append(next(steps))
        except StopIteration as done:
            log = done.value
        clicks = min(SEED_CFG.max_clicks, site.n_links)
        assert stages == ["navigation", "parser hand-off",
                          "scroll settle"] + ["click"] * clicks
        direct = Crawler(population, SEED_CFG).visit_site(site)
        assert json.dumps(log.to_dict(), sort_keys=True) == \
            json.dumps(direct.to_dict(), sort_keys=True)

    def test_failed_crawl_yields_none(self, population):
        failed = next(s for s in population.iter_sites() if s.crawl_fails)
        crawler = Crawler(population, SEED_CFG)
        assert crawler.visit_site(failed) is None
        assert list(crawler.visit_steps(failed)) == []

    def test_guards_accumulate_in_site_order(self, population):
        sites = population.successful_sites()[:6]
        config = CrawlConfig(seed=2025, install_guard=True)
        crawler = Crawler(population, config)
        crawler.crawl(sites)
        assert len(crawler.guards) == len(sites)


# ---------------------------------------------------------------------------
# The lazy loop
# ---------------------------------------------------------------------------

class TestLazyLoop:
    def test_icrawl_streams_in_rank_order(self, population, subset,
                                          subset_stream):
        crawler = Crawler(population, SEED_CFG)
        seen = []
        stream = []
        for log in crawler.icrawl(subset):
            seen.append(log.rank)
            stream.append(json.dumps(log.to_dict(), sort_keys=True))
        assert seen == sorted(seen)
        assert stream == subset_stream

    def test_first_log_needs_one_synthesized_site(self, monkeypatch):
        population = generate_population(
            PopulationConfig(n_sites=300, seed=2025))
        synthesized = []
        original = Population.synthesize

        def counting(self, rank):
            synthesized.append(rank)
            return original(self, rank)

        monkeypatch.setattr(Population, "synthesize", counting)
        crawl = Crawler(population, SEED_CFG).icrawl(keep_incomplete=True)
        first = next(crawl)
        assert first.rank == 1
        assert synthesized == [1]
        next(crawl)
        assert synthesized == [1, 2]


# ---------------------------------------------------------------------------
# Coordinator crawls match the serial loop
# ---------------------------------------------------------------------------

class TestCoordinatorEquivalence:
    @pytest.mark.parametrize("strategy", ["contiguous", "stride"])
    def test_sharded_inprocess_matches_serial(self, small_population,
                                              small_stream,
                                              coordinated_crawl, strategy):
        logs = coordinated_crawl(small_population, n_shards=3,
                                 strategy=strategy,
                                 backend=InProcessBackend())
        assert _stream(logs) == small_stream

    def test_study_output_matches_serial(self, small_population,
                                         coordinated_crawl):
        serial = Study(Crawler(small_population, SEED_CFG).crawl())
        merged = Study(coordinated_crawl(small_population, n_shards=4))
        assert merged.table1() == serial.table1()
        assert merged.table2(20) == serial.table2(20)
        assert merged.sec51_prevalence() == serial.sec51_prevalence()
        assert merged.sec56_inclusion() == serial.sec56_inclusion()

    @pytest.mark.slow
    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("n_shards", [2, 8, 64])
    @pytest.mark.parametrize("strategy", ["contiguous", "stride"])
    def test_process_worker_matrix(self, small_population, small_stream,
                                   coordinated_crawl, jobs, n_shards,
                                   strategy):
        """The pool backend × shard count × shard strategy matrix; 64
        shards exceeds the 60 sites, so the plan clamps to one per site."""
        logs = coordinated_crawl(small_population, n_shards=n_shards,
                                 strategy=strategy,
                                 backend=ProcessPoolBackend(jobs))
        assert _stream(logs) == small_stream

    @pytest.mark.slow
    def test_process_study_matches_serial(self, small_population,
                                          coordinated_crawl):
        serial = Study(Crawler(small_population, SEED_CFG).crawl())
        merged = Study.from_shards([coordinated_crawl(
            small_population, n_shards=4, backend=ProcessPoolBackend(2))])
        assert merged.table1() == serial.table1()
        assert merged.sec52_api_usage() == serial.sec52_api_usage()
        assert merged.sec55_overwrite_attributes() == \
            serial.sec55_overwrite_attributes()
