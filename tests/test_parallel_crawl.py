"""Determinism of the sharded crawl.

The contract under test: for the same population and seed, a
:class:`Coordinator` crawl produces *bit-for-bit* the same
``VisitLog.to_dict()`` stream as the serial crawler (after ordering by
rank), for any shard count, worker count, shard strategy, and backend —
and ``Study`` aggregation is independent of the shard partition and
merge order.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis import Study, StudyAccumulator
from repro.crawler import (
    Coordinator,
    CrawlConfig,
    CrawlProgress,
    Crawler,
    InProcessBackend,
    ProcessPoolBackend,
    ShardPlan,
)
from repro.crawler.crawler import _stable_token
from repro.crawler.parallel import print_progress
from repro.ecosystem import PopulationConfig, generate_population


def _stream(logs):
    return [json.dumps(log.to_dict(), sort_keys=True)
            for log in sorted(logs, key=lambda log: log.rank)]


def _population(n_sites):
    return generate_population(PopulationConfig(n_sites=n_sites, seed=2025))


@pytest.fixture(scope="module")
def tiny_population():
    """24 sites, failing crawls included: the progress-reporting crawls."""
    return _population(24)


# ---------------------------------------------------------------------------
# Shard planning
# ---------------------------------------------------------------------------

class TestShardPlan:
    def test_partition_covers_all_ranks(self, population):
        plan = ShardPlan.for_population(population, 7)
        seen = [rank for shard in plan for rank in shard.ranks]
        assert sorted(seen) == list(population.ranks)
        assert len(seen) == len(set(seen))

    def test_contiguous_shards_are_rank_runs(self, population):
        plan = ShardPlan.for_population(population, 5)
        for shard in plan:
            assert list(shard.ranks) == sorted(shard.ranks)
            assert shard.ranks[-1] - shard.ranks[0] == len(shard.ranks) - 1

    def test_stride_partition_covers_all_ranks(self, population):
        plan = ShardPlan.for_population(population, 5, strategy="stride")
        seen = sorted(rank for shard in plan for rank in shard.ranks)
        assert seen == list(population.ranks)

    def test_deterministic(self, population):
        a = ShardPlan.for_population(population, 4)
        b = ShardPlan.for_population(population, 4)
        assert a == b

    def test_near_even_sizes(self, population):
        plan = ShardPlan.for_population(population, 7)
        sizes = [len(shard) for shard in plan]
        assert max(sizes) - min(sizes) <= 1

    def test_more_shards_than_sites(self):
        plan = ShardPlan.for_ranks([1, 2, 3], 10)
        assert plan.n_shards == 3

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            ShardPlan.for_ranks([1, 2], 0)
        with pytest.raises(ValueError):
            ShardPlan.for_ranks([1, 2], 2, strategy="random")


# ---------------------------------------------------------------------------
# Crawl determinism
# ---------------------------------------------------------------------------

class TestParallelDeterminism:
    @pytest.fixture(scope="class")
    def serial_stream(self, crawl_logs):
        return _stream(crawl_logs)

    def test_serial_executor_matches(self, population, serial_stream,
                                     coordinated_crawl):
        logs = coordinated_crawl(population, n_shards=4,
                                 backend=InProcessBackend())
        assert _stream(logs) == serial_stream

    def test_two_workers_match(self, population, serial_stream,
                               coordinated_crawl):
        logs = coordinated_crawl(population, n_shards=2,
                                 backend=ProcessPoolBackend(2))
        assert _stream(logs) == serial_stream

    def test_stride_strategy_matches(self, coordinated_crawl):
        population = _population(40)
        serial = Crawler(population, CrawlConfig(seed=2025)).crawl()
        logs = coordinated_crawl(population, n_shards=2, strategy="stride",
                                 backend=ProcessPoolBackend(2))
        assert _stream(logs) == _stream(serial)

    @pytest.mark.slow
    def test_four_workers_match(self, population, serial_stream,
                                coordinated_crawl):
        logs = coordinated_crawl(population, n_shards=8,
                                 backend=ProcessPoolBackend(4))
        assert _stream(logs) == serial_stream

    def test_forced_process_executor_single_job(self, coordinated_crawl):
        """The pool backend's task path at jobs=1 (it runs in-process)."""
        population = _population(12)
        serial = Crawler(population, CrawlConfig(seed=2025)).crawl()
        logs = coordinated_crawl(population, n_shards=2,
                                 backend=ProcessPoolBackend(1))
        assert _stream(logs) == _stream(serial)


# ---------------------------------------------------------------------------
# Study merge determinism
# ---------------------------------------------------------------------------

def _results(study: Study):
    return (study.table1(), study.table2(20), study.table5(10),
            study.figure2(20), study.figure8(20),
            study.sec51_prevalence(), study.sec52_api_usage(),
            study.sec55_overwrite_attributes(), study.sec56_inclusion(),
            study.sec8_dom_pilot())


class TestStudyMerge:
    @pytest.fixture(scope="class")
    def shards(self, crawl_logs):
        return [list(crawl_logs)[i::3] for i in range(3)]

    def test_from_shards_equals_monolithic(self, study, shards):
        assert _results(Study.from_shards(shards)) == _results(study)

    def test_shard_order_independent(self, study, shards):
        reordered = [shards[2], shards[0], shards[1]]
        assert _results(Study.from_shards(reordered)) == _results(study)

    def test_pairwise_merge_equals_monolithic(self, study, shards):
        merged = Study(shards[0]).merge(Study(shards[1])) \
                                 .merge(Study(shards[2]))
        assert _results(merged) == _results(study)

    def test_from_accumulators_without_logs(self, study, shards):
        accs = [StudyAccumulator().add_all(shard) for shard in shards]
        merged = Study.from_shards(accs)
        assert merged.logs == []
        assert merged.n_sites == study.n_sites
        assert _results(merged) == _results(study)

    def test_merged_logs_sorted_by_rank(self, study, shards):
        merged = Study.from_shards([shards[1], shards[0], shards[2]])
        ranks = [log.rank for log in merged.logs]
        assert ranks == sorted(ranks)
        assert len(ranks) == study.n_sites

    def test_overlapping_shards_rejected(self, crawl_logs):
        shard = list(crawl_logs)[:5]
        with pytest.raises(ValueError, match="overlapping"):
            Study.from_shards([shard, shard])


# ---------------------------------------------------------------------------
# Per-shard progress reporting (off by default)
# ---------------------------------------------------------------------------

class TestProgressReporting:
    def test_off_by_default(self, tiny_population):
        coordinator = Coordinator(tiny_population, CrawlConfig(seed=2025))
        assert coordinator.progress is None

    def test_one_event_per_shard_batch(self, tiny_population,
                                       coordinated_crawl):
        events = []
        logs = coordinated_crawl(tiny_population, n_shards=3,
                                 progress=events.append)
        assert len(events) == 3
        assert sorted(e.shard_index for e in events) == [0, 1, 2]
        assert all(isinstance(e, CrawlProgress) for e in events)
        assert all(e.n_shards == 3 for e in events)
        assert events[-1].done_shards == 3
        assert events[-1].total_visits == len(logs)
        assert sum(e.shard_visits for e in events) == len(logs)
        assert all(e.elapsed >= 0.0 for e in events)

    def test_callback_never_changes_the_output(self, tiny_population,
                                               coordinated_crawl):
        quiet = coordinated_crawl(tiny_population, n_shards=3)
        noisy = coordinated_crawl(tiny_population, n_shards=3,
                                  progress=lambda event: None)
        assert _stream(noisy) == _stream(quiet)

    def test_print_progress_writes_one_line(self, capsys):
        print_progress(CrawlProgress(shard_index=1, n_shards=4,
                                     shard_visits=17, done_shards=2,
                                     total_visits=33, elapsed=1.25))
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "shard 1" in err and "2/4" in err and "33 visits" in err

    @pytest.mark.slow
    def test_progress_fires_across_process_pool(self, tiny_population,
                                                coordinated_crawl):
        events = []
        logs = coordinated_crawl(tiny_population, n_shards=2,
                                 backend=ProcessPoolBackend(2),
                                 progress=events.append)
        assert sorted(e.shard_index for e in events) == [0, 1]
        assert sum(e.shard_visits for e in events) == len(logs)


# ---------------------------------------------------------------------------
# Crawler state hygiene (the satellite bug fixes)
# ---------------------------------------------------------------------------

class TestCrawlerStateHygiene:
    def test_guards_reset_between_crawls(self, population):
        crawler = Crawler(population, CrawlConfig(install_guard=True))
        sites = population.successful_sites()[:4]
        crawler.crawl(sites)
        assert len(crawler.guards) == 4
        crawler.crawl(sites)
        assert len(crawler.guards) == 4

    def test_stable_token_is_process_independent(self):
        # Locked-in constants: blake2b is keyless and unsalted, so these
        # values cannot drift across processes or PYTHONHASHSEED values
        # (unlike the builtin hash() they replaced).
        assert _stable_token("example.com", 10**12) == 772579972710
        assert _stable_token("moc.elpmaxe", 10**10) == 1519728271

    @pytest.mark.slow
    def test_cookie_values_stable_across_hash_seeds(self):
        script = (
            "import hashlib, json\n"
            "from repro.ecosystem import PopulationConfig, generate_population\n"
            "from repro.crawler import CrawlConfig, Crawler\n"
            "pop = generate_population(PopulationConfig(n_sites=5, seed=2025))\n"
            "logs = Crawler(pop, CrawlConfig(seed=2025)).crawl(\n"
            "    keep_incomplete=True)\n"
            "stream = ''.join(json.dumps(l.to_dict(), sort_keys=True)\n"
            "                 for l in logs)\n"
            "print(len(stream), hashlib.sha256(stream.encode()).hexdigest())\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        outputs = []
        for hash_seed in ("0", "424242"):
            proc = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True, text=True, check=True,
                env={"PYTHONPATH": src, "PYTHONHASHSEED": hash_seed,
                     "PATH": "/usr/bin:/bin"})
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]
