"""Serial vs process crawl throughput.

Not a paper figure; it records what process workers buy on this
hardware.  Per-site seeding makes the coordinator's output
bit-identical to the serial crawl, so the only variable is wall-clock.
The coordinator runs on a ``ProcessPoolBackend``; speedup tracks the
machine's core count: on a single-core runner the figures show pure
process overhead, on an M-core box jobs=M approaches M×.  The
coordinator crawls whole populations, so these runs crawl a
``SAMPLE``-site population of their own: same site count as the serial
sample, not the same sites.
"""

import json
import os
import tempfile
import time

import pytest

from repro.crawler import (Coordinator, CrawlConfig, Crawler,
                           ProcessPoolBackend, load_logs)
from repro.ecosystem import PopulationConfig, generate_population

from conftest import banner

SAMPLE = int(os.environ.get("REPRO_BENCH_SAMPLE", "50"))


def _sample(population):
    return population.successful_sites()[:SAMPLE]


@pytest.fixture(scope="module")
def sample_population():
    return generate_population(PopulationConfig(n_sites=SAMPLE, seed=2025))


def _coordinated_crawl(population, jobs):
    """Crawl ``population`` through the coordinator on ``jobs`` processes."""
    with tempfile.TemporaryDirectory(prefix="bench-crawl-") as out:
        Coordinator(population, CrawlConfig(seed=2025),
                    backend=ProcessPoolBackend(jobs)).run(out, n_shards=jobs)
        return load_logs(out)


def test_serial_crawl(benchmark, population):
    sites = _sample(population)
    crawler = Crawler(population, CrawlConfig(seed=2025))
    logs = benchmark(crawler.crawl, sites)
    assert logs


def test_parallel_crawl_two_jobs(benchmark, sample_population):
    logs = benchmark(_coordinated_crawl, sample_population, 2)
    assert logs


def test_parallel_crawl_four_jobs(benchmark, sample_population):
    logs = benchmark(_coordinated_crawl, sample_population, 4)
    assert logs


def test_serial_vs_process_summary(population, sample_population):
    """One-shot wall-clock comparison with a determinism cross-check."""
    sites = _sample(population)
    timings = {}

    def run(label, crawl, *args):
        t0 = time.perf_counter()
        logs = crawl(*args)
        timings[label] = time.perf_counter() - t0
        return [json.dumps(log.to_dict(), sort_keys=True) for log in logs]

    run("serial", Crawler(population, CrawlConfig(seed=2025)).crawl, sites)
    serial_sample = [json.dumps(log.to_dict(), sort_keys=True) for log in
                     Crawler(sample_population, CrawlConfig(seed=2025))
                     .crawl()]
    for jobs in (2, 4):
        assert run(f"jobs={jobs}", _coordinated_crawl, sample_population,
                   jobs) == serial_sample

    banner("Serial vs process crawl", "crawl engines, not a paper figure")
    cores = os.cpu_count() or 1
    print(f"sample: {len(sites)} sites; machine cores: {cores}")
    for label, seconds in timings.items():
        rate = len(sites) / seconds
        speedup = timings["serial"] / seconds
        print(f"  {label:<16} {seconds:7.2f}s  {rate:7.1f} sites/s  "
              f"{speedup:5.2f}x vs serial")
    assert timings["serial"] > 0
