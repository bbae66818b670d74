"""Serial vs async vs process crawl throughput (the crawl engines).

Not a paper figure; it records what the two scaling axes buy on this
hardware.  Per-site seeding makes every engine's output bit-identical
to the serial crawl, so the only variable is wall-clock:

* **process workers** (``jobs``) — the coordinator on a
  ``ProcessPoolBackend``; speedup tracks the machine's core count: on a
  single-core runner the figures show pure process overhead, on an
  M-core box jobs=M approaches M×.  The coordinator crawls whole
  populations, so these runs crawl a ``SAMPLE``-site population of
  their own: same site count as the serial sample, not the same sites.
* **async visits** (``concurrency``) — the cooperative engine overlaps
  in-flight visits on one core.  The simulator's waits are virtual, so
  on a single core this measures the engine's scheduling overhead:
  throughput stays at parity with the serial path (within noise) while
  proving the machinery adds no real cost; against live sites the same
  wait-points hide real network latency.
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


def _coordinated_crawl(population, jobs, concurrency=1):
    """Crawl ``population`` through the coordinator on ``jobs`` processes."""
    config = CrawlConfig(seed=2025, concurrency=concurrency)
    with tempfile.TemporaryDirectory(prefix="bench-crawl-") as out:
        Coordinator(population, config,
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


def test_async_crawl_concurrency_8(benchmark, population):
    sites = _sample(population)
    crawler = Crawler(population, CrawlConfig(seed=2025, concurrency=8))
    logs = benchmark(crawler.crawl, sites)
    assert logs


def test_async_crawl_concurrency_64(benchmark, population):
    sites = _sample(population)
    crawler = Crawler(population, CrawlConfig(seed=2025, concurrency=64))
    logs = benchmark(crawler.crawl, sites)
    assert logs


def test_serial_vs_async_vs_process_summary(population,
                                            sample_population):
    """One-shot wall-clock comparison with a determinism cross-check.

    Covers all three engines: the serial path (the engine's trivial
    concurrency=1 schedule), the async engine overlapping in-flight
    visits on this core, and the process pool — plus the composition of
    the two axes.
    """
    sites = _sample(population)
    timings = {}

    def run(label, crawl, *args, **kwargs):
        t0 = time.perf_counter()
        logs = crawl(*args, **kwargs)
        timings[label] = time.perf_counter() - t0
        return [json.dumps(log.to_dict(), sort_keys=True) for log in logs]

    reference = run(
        "serial", Crawler(population, CrawlConfig(seed=2025)).crawl, sites)
    # Best-of-2 for the single-core engines: the contract is parity, so
    # keep one-shot timer noise from reading as a regression.
    for attempt in range(2):
        for concurrency in (8, 64):
            crawler = Crawler(population, CrawlConfig(seed=2025))
            label = f"async={concurrency}"
            stream = run(f"{label}#{attempt}", crawler.crawl, sites,
                         concurrency=concurrency)
            assert stream == reference
            timings[label] = min(timings.pop(f"{label}#{attempt}"),
                                 timings.get(label, float("inf")))
        stream = run(f"serial#{attempt}",
                     Crawler(population, CrawlConfig(seed=2025)).crawl, sites)
        assert stream == reference
        timings["serial"] = min(timings["serial"],
                                timings.pop(f"serial#{attempt}"))
    serial_sample = [json.dumps(log.to_dict(), sort_keys=True) for log in
                     Crawler(sample_population, CrawlConfig(seed=2025))
                     .crawl()]
    for jobs, concurrency in ((2, 1), (4, 1), (2, 16)):
        label = (f"jobs={jobs}" if concurrency == 1
                 else f"jobs={jobs} async={concurrency}")
        assert run(label, _coordinated_crawl, sample_population, jobs,
                   concurrency) == serial_sample

    banner("Serial vs async vs process crawl",
           "crawl engines, not a paper figure")
    cores = os.cpu_count() or 1
    print(f"sample: {len(sites)} sites; machine cores: {cores}")
    for label, seconds in timings.items():
        rate = len(sites) / seconds
        speedup = timings["serial"] / seconds
        print(f"  {label:<16} {seconds:7.2f}s  {rate:7.1f} sites/s  "
              f"{speedup:5.2f}x vs serial")
    assert timings["serial"] > 0
    # The async engine must not cost throughput on a single core: its
    # schedule is the same work, so parity (with a little timer slack)
    # is the locked-in floor.
    for concurrency in (8, 64):
        rate_async = len(sites) / timings[f"async={concurrency}"]
        rate_serial = len(sites) / timings["serial"]
        assert rate_async >= rate_serial * 0.9, (
            f"async concurrency={concurrency} fell below serial parity: "
            f"{rate_async:.1f} vs {rate_serial:.1f} sites/s")
