"""Shared fixtures: a small deterministic population and its crawl.

Session-scoped so the integration-heavy test modules share one crawl
instead of re-running it per test.
"""

from __future__ import annotations

import itertools

import pytest

from repro.analysis import Study
from repro.crawler import Coordinator, CrawlConfig, Crawler, load_logs
from repro.ecosystem import PopulationConfig, generate_population

SMALL_N = 400


@pytest.fixture(scope="session")
def population():
    return generate_population(PopulationConfig(n_sites=SMALL_N, seed=2025))


@pytest.fixture(scope="session")
def crawl_logs(population):
    return Crawler(population, CrawlConfig(seed=2025)).crawl()


@pytest.fixture(scope="session")
def guarded_logs(population):
    return Crawler(population, CrawlConfig(seed=2025,
                                           install_guard=True)).crawl()


@pytest.fixture(scope="session")
def study(crawl_logs):
    return Study(crawl_logs)


@pytest.fixture()
def coordinated_crawl(tmp_path):
    """Crawl a whole population through the coordinator; returns its logs.

    Keyword arguments go to :class:`Coordinator`; each call writes a
    fresh dataset directory under ``tmp_path``.
    """
    runs = itertools.count()

    def crawl(population, config=CrawlConfig(seed=2025), n_shards=1,
              **coordinator_kwargs):
        out = tmp_path / f"coordinated-{next(runs)}"
        Coordinator(population, config, **coordinator_kwargs).run(
            out, n_shards=n_shards)
        return load_logs(out)
    return crawl
