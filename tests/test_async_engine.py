"""The deterministic cooperative visit engine (ROADMAP rung 2).

Two layers of guarantees:

* **Scheduler unit tests** — wait-point ordering on the virtual clock,
  FIFO tie-breaking, submission-order result streaming, exception
  propagation and coroutine cleanup.
* **Cross-engine equivalence matrix** — the crawl's ``VisitLog`` stream
  (and the merged ``Study`` output) is bit-identical across the serial
  path, the async engine at concurrency 2/8/64, and coordinator crawls
  on the pool backend × async combinations under both shard strategies.
  This is the within-shard analogue of ``tests/test_parallel_crawl.py``.
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
    VisitEngine,
    WaitPoint,
    drive,
)
from repro.ecosystem import PopulationConfig, generate_population

SEED_CFG = CrawlConfig(seed=2025)


def _stream(logs):
    return [json.dumps(log.to_dict(), sort_keys=True)
            for log in sorted(logs, key=lambda log: log.rank)]


# ---------------------------------------------------------------------------
# Scheduler unit tests
# ---------------------------------------------------------------------------

def _job(name, waits, trace, result=None, fail_at=None):
    """A visit coroutine that records its resume points in ``trace``."""
    def factory():
        trace.append((name, "start"))
        for step, wait in enumerate(waits):
            yield WaitPoint(wait, reason=f"{name}:{step}")
            if fail_at == step:
                raise ValueError(f"{name} failed at step {step}")
            trace.append((name, step))
        trace.append((name, "end"))
        return result if result is not None else name
    return factory


class TestVisitEngine:
    def test_invalid_concurrency(self):
        with pytest.raises(ValueError):
            VisitEngine(0)
        with pytest.raises(ValueError):
            VisitEngine(-3)

    def test_negative_wait_rejected(self):
        with pytest.raises(ValueError):
            WaitPoint(-0.1)

    def test_concurrency_one_is_the_serial_schedule(self):
        trace = []
        jobs = [_job("a", [1.0, 1.0], trace), _job("b", [0.1], trace)]
        results = VisitEngine(1).run(jobs)
        assert results == ["a", "b"]
        # b never starts before a has fully finished.
        assert trace == [("a", "start"), ("a", 0), ("a", 1), ("a", "end"),
                         ("b", "start"), ("b", 0), ("b", "end")]

    def test_wait_point_ordering_on_the_virtual_clock(self):
        trace = []
        jobs = [_job("slow", [5.0], trace), _job("fast", [1.0], trace)]
        results = VisitEngine(2).run(jobs)
        assert results == ["slow", "fast"]   # submission order...
        # ...but the shorter wait resumed first on the shared clock.
        assert trace == [("slow", "start"), ("fast", "start"),
                         ("fast", 0), ("fast", "end"),
                         ("slow", 0), ("slow", "end")]

    def test_equal_due_times_resume_fifo(self):
        trace = []
        jobs = [_job(name, [2.0, 2.0], trace) for name in ("a", "b", "c")]
        VisitEngine(3).run(jobs)
        # Every wake-up wave replays the admission order, twice.
        resumed = [name for name, step in trace if step in (0, 1)]
        assert resumed == ["a", "b", "c", "a", "b", "c"]

    def test_zero_second_waits_still_interleave_deterministically(self):
        trace = []
        jobs = [_job("a", [0.0, 0.0], trace), _job("b", [0.0], trace)]
        VisitEngine(2).run(jobs)
        assert trace == [("a", "start"), ("b", "start"),
                         ("a", 0), ("b", 0), ("b", "end"),
                         ("a", 1), ("a", "end")]

    def test_results_in_submission_order_despite_completion_order(self):
        trace = []
        completion = []
        jobs = [_job("a", [9.0], trace), _job("b", [1.0], trace),
                _job("c", [0.5], trace)]
        engine = VisitEngine(3, on_complete=lambda i, r: completion.append(i))
        assert engine.run(jobs) == ["a", "b", "c"]
        assert completion == [2, 1, 0]

    def test_run_ordered_streams_before_later_jobs_start(self):
        trace = []
        jobs = [_job("a", [1.0], trace), _job("b", [1.0], trace)]
        stream = VisitEngine(1).run_ordered(jobs)
        assert next(stream) == "a"
        # Lazy admission: b's coroutine has not even started yet.
        assert ("b", "start") not in trace
        assert list(stream) == ["b"]

    def test_more_jobs_than_concurrency(self):
        trace = []
        jobs = [_job(f"j{i}", [float(i % 3)], trace) for i in range(20)]
        assert VisitEngine(4).run(jobs) == [f"j{i}" for i in range(20)]

    def test_buffered_results_count_toward_concurrency(self):
        """A slow head-of-line visit must not let admission run ahead.

        In-flight + buffered-but-unemitted results are capped at
        ``concurrency``, so shard streaming keeps its memory bound even
        when later visits finish instantly (e.g. failed crawls).
        """
        trace = []
        jobs = [_job("slow", [10.0], trace)] + \
            [_job(f"instant{i}", [], trace) for i in range(5)]
        assert VisitEngine(2).run(jobs) == \
            ["slow"] + [f"instant{i}" for i in range(5)]
        # Only one instant job (filling the second slot) started before
        # the slow visit finished and drained the emission buffer.
        slow_end = trace.index(("slow", "end"))
        started_before = [name for name, step in trace[:slow_end]
                          if step == "start"]
        assert started_before == ["slow", "instant0"]

    def test_immediate_return_coroutines(self):
        def empty():
            return None
            yield  # pragma: no cover — makes this a generator

        trace = []
        jobs = [empty, _job("a", [1.0], trace), empty]
        assert VisitEngine(2).run(jobs) == [None, "a", None]

    def test_exception_propagates_and_survivors_are_closed(self):
        trace = []
        closed = []

        def bystander():
            try:
                yield WaitPoint(100.0, "never fires")
                trace.append(("bystander", "resumed"))
            finally:
                closed.append("bystander")

        jobs = [bystander,
                _job("boom", [1.0], trace, fail_at=0),
                _job("never-admitted", [1.0], trace)]
        with pytest.raises(ValueError, match="boom failed"):
            VisitEngine(2).run(jobs)
        assert closed == ["bystander"]          # finally blocks ran
        assert ("bystander", "resumed") not in trace
        assert ("never-admitted", "start") not in trace

    def test_non_waitpoint_yield_rejected(self):
        def bad():
            yield 2.0

        with pytest.raises(TypeError, match="expected WaitPoint"):
            VisitEngine(1).run([bad])
        with pytest.raises(TypeError, match="expected WaitPoint"):
            drive(bad())

    def test_drive_returns_the_coroutine_value(self):
        trace = []
        assert drive(_job("solo", [1.0, 2.0], trace, result=42)()) == 42
        assert trace[-1] == ("solo", "end")


# ---------------------------------------------------------------------------
# Cross-engine equivalence: serial vs async vs process×async
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def subset(population):
    """A small site sample *including* failing crawls (None results)."""
    return population.sites[:60]


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


def _async_config(concurrency):
    return CrawlConfig(seed=2025, concurrency=concurrency)


class TestCrossEngineEquivalence:
    @pytest.mark.parametrize("concurrency", [2, 8, 64])
    def test_async_matches_serial(self, population, subset, subset_stream,
                                  concurrency):
        crawler = Crawler(population, SEED_CFG)
        assert _stream(crawler.crawl(subset,
                                     concurrency=concurrency)) == subset_stream

    @pytest.mark.parametrize("strategy", ["contiguous", "stride"])
    def test_sharded_async_matches_serial(self, small_population,
                                          small_stream, coordinated_crawl,
                                          strategy):
        logs = coordinated_crawl(small_population, _async_config(8),
                                 n_shards=3, strategy=strategy,
                                 backend=InProcessBackend())
        assert _stream(logs) == small_stream

    def test_study_output_matches_serial(self, small_population,
                                         coordinated_crawl):
        serial = Study(Crawler(small_population, SEED_CFG).crawl())
        merged = Study(coordinated_crawl(small_population,
                                         _async_config(16), n_shards=4))
        assert merged.table1() == serial.table1()
        assert merged.table2(20) == serial.table2(20)
        assert merged.sec51_prevalence() == serial.sec51_prevalence()
        assert merged.sec56_inclusion() == serial.sec56_inclusion()

    def test_icrawl_streams_in_rank_order(self, population, subset,
                                          subset_stream):
        crawler = Crawler(population, SEED_CFG)
        seen = []
        stream = []
        for log in crawler.icrawl(subset, concurrency=8):
            seen.append(log.rank)
            stream.append(json.dumps(log.to_dict(), sort_keys=True))
        assert seen == sorted(seen)
        assert stream == subset_stream

    def test_icrawl_on_visit_covers_every_site(self, population, subset):
        visited = []
        crawler = Crawler(population, SEED_CFG)
        list(crawler.icrawl(subset, concurrency=4,
                            on_visit=lambda i, log: visited.append(i)))
        # Every site fires exactly once — including failed crawls.
        assert sorted(visited) == list(range(len(subset)))

    @pytest.mark.slow
    def test_full_population_async_matches_serial(self, population,
                                                  crawl_logs):
        reference = _stream(crawl_logs)
        crawler = Crawler(population, SEED_CFG)
        assert _stream(crawler.crawl(concurrency=8)) == reference

    @pytest.mark.slow
    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("concurrency", [2, 8, 64])
    @pytest.mark.parametrize("strategy", ["contiguous", "stride"])
    def test_process_worker_matrix(self, small_population, small_stream,
                                   coordinated_crawl, jobs, concurrency,
                                   strategy):
        """The full matrix: pool backend × async engine × strategy."""
        logs = coordinated_crawl(small_population,
                                 _async_config(concurrency),
                                 n_shards=2 * jobs, strategy=strategy,
                                 backend=ProcessPoolBackend(jobs))
        assert _stream(logs) == small_stream

    @pytest.mark.slow
    def test_process_async_study_matches_serial(self, small_population,
                                                coordinated_crawl):
        serial = Study(Crawler(small_population, SEED_CFG).crawl())
        merged = Study.from_shards([coordinated_crawl(
            small_population, _async_config(8), n_shards=4,
            backend=ProcessPoolBackend(2))])
        assert merged.table1() == serial.table1()
        assert merged.sec52_api_usage() == serial.sec52_api_usage()
        assert merged.sec55_overwrite_attributes() == \
            serial.sec55_overwrite_attributes()


# ---------------------------------------------------------------------------
# The trivial schedule really is the old serial path
# ---------------------------------------------------------------------------

class TestSerialPathIsTrivialSchedule:
    def test_visit_site_equals_engine_run(self, population):
        site = population.successful_sites()[0]
        direct = Crawler(population, SEED_CFG).visit_site(site)
        crawler = Crawler(population, SEED_CFG)
        [via_engine] = VisitEngine(1).run(
            [lambda: crawler.visit_steps(site)])
        assert json.dumps(direct.to_dict(), sort_keys=True) == \
            json.dumps(via_engine.to_dict(), sort_keys=True)

    def test_failed_crawl_yields_none(self, population):
        failed = [s for s in population.sites if s.crawl_fails][0]
        crawler = Crawler(population, SEED_CFG)
        assert VisitEngine(4).run(
            [lambda: crawler.visit_steps(failed)]) == [None]

    def test_guards_accumulate_in_site_order(self, population):
        sites = population.successful_sites()[:6]
        config = CrawlConfig(seed=2025, install_guard=True, concurrency=4)
        crawler = Crawler(population, config)
        crawler.crawl(sites)
        assert len(crawler.guards) == len(sites)
