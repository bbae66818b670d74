"""The three workloads: ``measure``, ``guard`` and ``serve``.

Each workload is a :class:`Workload` with a set-up step, run several
times (``setup_s`` is their median), and a timed window.  Every run
reports every end-to-end metric, so each workload also measures the stages
the others emphasise.  On a shared VM (the 2-vCPU seed host) the CPU speed
wanders by tens of percent over seconds to minutes, so the samples of each
metric are spread over the whole run rather than bunched at one end of it:

* ``measure`` / ``guard`` alternate :data:`PIPELINE_RUNS` cold pipeline
  runs (population -> ``Coordinator`` -> shards [-> store] -> ``Study`` ->
  report bytes) with parts of a read-back of the first run's study through
  a ``repro serve`` child, with the serve workload's request mix and no
  publishes.  Each part is cut into :data:`READBACK_SLICES` slices with one
  more analysis of the served dataset after each.
* ``serve`` crawls its study twice in each set-up (the crawl metrics come
  from those crawls) and follows each set-up with one part of the closed
  loop with publishes, cut into :data:`SERVE_SLICES` slices with one more
  analysis of a set-up crawl after each.

An analysis takes only 0.1-0.25 s on the seed host, so a few of them in a
row would sample the host's speed at a few moments only; taken between the
slices, the ``analyze_s`` samples cover the whole window.  A drift that
outlasts a run is taken out by :meth:`Outcome.settle`, which scales each
CPU-bound sample by the host-speed reference timed next to it
(``hostspeed.py``).

Inputs: every run visits the same site population (the repository's
canonical ``PopulationConfig`` seed, 2025); the workload seed is the crawl
seed of every visit (the serve study's second crawl uses ``seed + 1``) and
seeds the request plan.  Varying the population too would change the
amount of work by +-10% from seed to seed (the sites differ), which would
swamp the run-to-run spread the bounds are set against.
"""

from __future__ import annotations

import gc
import http.client
import shutil
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import children
import client
import hostspeed
import layers
from client import LoadGenerator, Plan, Record, Study, Version
from tracer import Tracer, clock

#: measure/guard: sites per pipeline run, shards per crawl, pipeline runs
#: per window, and read-back slices (each followed by an analysis) after
#: each pipeline run.
PIPELINE_SITES = 200
PIPELINE_SHARDS = 4
PIPELINE_RUNS = 5
READBACK_SLICES = 4
#: measure/guard read their study back for this share of ``--seconds``, so
#: that at ~60 requests/s serve.p99_ms keeps more than ten samples beyond
#: it; the pipeline runs take about the rest on the seed host.
READBACK_SHARE = 0.7
#: serve: the served study's size, and one publish per this many tickets.
SERVE_SITES = 150
SERVE_SHARDS = 8
PUBLISH_EVERY = 150
#: serve: loop slices per part, each followed by an analysis.
SERVE_SLICES = 3
#: Reference timings after a set-up or a pipeline run, which follow the
#: one right before it; their median scales its samples (``hostspeed.py``).
REFERENCES_AFTER = 2
#: The site population every run visits.
POPULATION_SEED = 2025
#: Parameters of the report queries in the request mix.
PREVALENCE_BUCKETS = (25, 50, 100)
LIMITS = (10, 50)


class CheckFailed(Exception):
    """An output of the program did not match what the benchmark expects."""


@dataclass
class Outcome:
    """What one run measured and checked."""

    # The CPU-bound samples, at the nominal host speed (see settle()).
    setups: List[float] = field(default_factory=list)
    visit_rates: List[float] = field(default_factory=list)
    analyze: List[float] = field(default_factory=list)
    pipeline: List[float] = field(default_factory=list)
    reference: List[float] = field(default_factory=list)   # every timing
    pending: List[Tuple[str, float]] = field(default_factory=list)
    opened: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)
    records: List[Record] = field(default_factory=list)
    serve_wall: float = 0.0
    window: Optional[Tuple[float, float]] = None     # first start, last end
    crawl_retries: int = 0
    store_errors: int = 0
    visits_in_window: int = 0
    p99_samples: Tuple[int, int] = (0, 0)     # (samples, samples beyond)

    def open(self) -> None:
        """Time the reference once before the samples of :meth:`add`."""
        self.opened.append(hostspeed.time_reference())

    def add(self, name: str, value: float) -> None:
        """A CPU-bound sample for the list ``name``, as measured; it is
        filed by the next :meth:`settle`."""
        self.pending.append((name, value))

    def settle(self, references: int = 1) -> None:
        """Time the reference ``references`` times and file the pending
        samples at the nominal host speed: times multiplied, rates divided,
        by ``NOMINAL_S`` / the median of these timings and the one of
        :meth:`open`, if any."""
        times = self.opened + [hostspeed.time_reference()
                               for _ in range(references)]
        self.opened = []
        self.reference += times
        factor = hostspeed.NOMINAL_S / statistics.median(times)
        for name, value in self.pending:
            rate = name == "visit_rates"
            getattr(self, name).append(value / factor if rate
                                       else value * factor)
        self.pending.clear()


class CountingBackend:
    """Delegates to a store backend, counting the HTTP requests it makes."""

    def __init__(self, backend):
        self.backend = backend
        self.requests = 0
        self.errors = 0

    def _count(self, n: int, call, *args):
        from repro.crawler import StoreBackendError
        self.requests += n
        try:
            return call(*args)
        except StoreBackendError:
            self.errors += 1
            raise

    def get(self, key, name):
        return self._count(1, self.backend.get, key, name)

    def put(self, key, blobs):
        return self._count(len(blobs), self.backend.put, key, blobs)

    def exists(self, key):
        return self._count(1, self.backend.exists, key)

    def evict(self, key):
        return self._count(1, self.backend.evict, key)


def crawl(directory: Path, n_sites: int, n_shards: int, pop_seed: int,
          crawl_seed: int, guard: bool = False, store=None):
    """One cold pipeline run; returns timings, the report and the Study."""
    from repro.crawler import (Coordinator, CrawlConfig, InProcessBackend)
    from repro.ecosystem import PopulationConfig, generate_population
    # Every run starts from a collected heap, as in a fresh process, so the
    # cyclic collector's passes fall at the same points of every run.
    gc.collect()
    start = clock()
    population = generate_population(PopulationConfig(n_sites=n_sites,
                                                      seed=pop_seed))
    coordinator = Coordinator(population,
                              CrawlConfig(seed=crawl_seed,
                                          install_guard=guard),
                              backend=InProcessBackend(), store=store,
                              compress=True)
    crawl_start = clock()
    report = coordinator.run(directory, n_shards=n_shards)
    crawl_end = clock()
    study, report_bytes = analyze(directory)
    end = clock()
    timings = {"visit_rates": report.visits_executed
               / (crawl_end - crawl_start),
               "analyze": end - crawl_end, "pipeline": end - start}
    return timings, report, study, report_bytes, coordinator


def analyze(directory: Path):
    """Shard bytes -> ``Study`` -> report bytes."""
    from repro.analysis.columnar import iter_shard_batches
    from repro.analysis.reports import Study as ReproStudy
    from repro.analysis.reports import StudyAccumulator
    acc = StudyAccumulator()
    for batch in iter_shard_batches(directory):
        acc.add_shard_batch(batch)
    study = ReproStudy.from_accumulator(acc)
    return study, study.report_bytes()


def reanalyze(outcome: Outcome, directory: Path, expected: bytes) -> None:
    """One more timed analysis of ``directory``, which must give the report
    bytes ``expected``, then one reference timing."""
    gc.collect()
    start = clock()
    _study, again = analyze(directory)
    outcome.add("analyze", clock() - start)
    outcome.settle()
    if again != expected:
        raise CheckFailed(f"two analyses of {directory.name} gave different "
                          f"report bytes")


def check_dataset(directory: Path) -> None:
    from repro.crawler import ManifestError, verify_shard_files
    try:
        verify_shard_files(directory)
    except ManifestError as exc:
        raise CheckFailed(f"verify_shard_files({directory.name}): {exc}")


def version_of(directory: Path) -> Version:
    from repro.crawler import ShardManifest, load_shard_index
    manifest = ShardManifest.load(directory)
    present = []
    for name in manifest.files:
        index = load_shard_index(directory, name)
        if index is None:
            raise CheckFailed(f"{directory.name}/{name} has no sidecar index")
        present.append(set(index.ranks))
    return Version(directory, manifest, present)


def report_paths(study) -> List[str]:
    """The report queries the mix sends, entity names taken from ``study``."""
    paths = ["summary"]
    for limit in LIMITS:
        paths += [f"top-exfiltrators?limit={limit}",
                  f"top-exfiltrated?limit={limit}"]
    paths += [f"prevalence?bucket={b}" for b in PREVALENCE_BUCKETS]
    entities: List[str] = []
    for row in study.figure2(top=20):
        entity = study.entities.entity_of(row.domain)
        if entity and entity not in entities:
            entities.append(entity)
    paths += [f"entity?name={e}" for e in entities[:3]]
    return paths


def get(child: children.Child, path: str) -> Tuple[int, bytes]:
    """One unrecorded GET on a fresh connection: (status, body)."""
    conn = http.client.HTTPConnection(child.host, child.port,
                                      timeout=client.TIMEOUT)
    try:
        _latency, status, _etag, body = client.request(conn, 0, path)
    finally:
        conn.close()
    return status, body


def load_generator(child: children.Child, study: Study,
                   plan: Plan) -> LoadGenerator:
    """A load generator on ``study``, whose current ETag it looks up."""
    status, body = get(child, "/studies")
    if status != 200:
        raise CheckFailed(f"/studies answered {status}")
    study.etag = client.listed_etag(body, study.study_id)
    if study.etag is None:
        raise CheckFailed(f"/studies does not list {study.study_id}")
    return LoadGenerator(child.host, child.port, study, plan)


def fold(outcome: Outcome, generator: LoadGenerator) -> None:
    outcome.serve_wall += generator.wall
    outcome.records += generator.records
    outcome.attempted += generator.attempted
    outcome.failed += generator.failed
    outcome.failures += generator.failures


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

class Workload:
    """Set-up, timed window and teardown of one run."""

    name = ""
    #: Set-ups per untraced run; setup_s is their median.
    setups = 3
    #: Whether the window is cut into one part after each set-up, rather
    #: than following the last set-up whole.
    split_window = False

    def __init__(self, work: Path, seed: int, seconds: float,
                 trace_dir: Optional[Path] = None,
                 delay: Optional[str] = None):
        self.work = work
        self.seed = seed
        self.seconds = seconds
        self.trace_dir = trace_dir
        self.delay = delay
        self.children: List[children.Child] = []

    def child_kwargs(self, role: str) -> Dict:
        kwargs: Dict = {"delay": self.delay}
        if self.trace_dir is not None:
            kwargs["trace_out"] = self.trace_dir / f"{role}.npz"
        return kwargs

    def stop_children(self) -> None:
        while self.children:
            self.children.pop().stop()

    def fresh(self, name: str) -> Path:
        path = self.work / name
        if path.exists():
            shutil.rmtree(path)
        path.mkdir(parents=True)
        return path

    def run(self, outcome: Outcome, tracer: Optional[Tracer] = None,
            setups: Optional[int] = None) -> None:
        setups = setups or self.setups
        parts = setups if self.split_window else 1
        try:
            for i in range(setups):
                self.stop_children()
                outcome.open()
                start = clock()
                self.setup(outcome)
                outcome.add("setups", clock() - start)
                outcome.settle(REFERENCES_AFTER)
                if i >= setups - parts:
                    self.timed(outcome, tracer, self.seconds / parts)
        finally:
            self.stop_children()

    def timed(self, outcome: Outcome, tracer: Optional[Tracer],
              seconds: float) -> None:
        if tracer is not None:
            layers.install(tracer)
        try:
            start = clock()
            self.window(outcome, seconds)
            end = clock()
        finally:
            if tracer is not None:
                tracer.uninstall()
        outcome.window = (outcome.window[0] if outcome.window else start, end)


class Pipeline(Workload):
    """measure and guard: cold pipeline runs between read-back parts."""

    guard = False
    use_store = True
    # A set-up only starts the children (under a second), so more of them
    # are cheap and steady setup_s.
    setups = 4
    #: (shard digests, report bytes) of the run's first pipeline run.
    first: Optional[Tuple] = None

    def setup(self, outcome: Outcome) -> None:
        if self.use_store:
            self.store = children.store_child(
                self.fresh("store"), self.work / "store.log",
                **self.child_kwargs("store"))
            self.children.append(self.store)
        self.catalog = self.fresh("catalog")
        self.server = children.serve_child(self.catalog,
                                           self.work / "serve.log",
                                           **self.child_kwargs("serve"))
        self.children.append(self.server)

    def _store(self):
        from repro.crawler import HTTPStoreBackend, ShardStore
        return ShardStore(CountingBackend(HTTPStoreBackend(self.store.url)))

    def window(self, outcome: Outcome, seconds: float) -> None:
        out = self.work / "crawl"
        study = self.pipeline_run(outcome, out)
        report_bytes = self.first[1]
        served = self.catalog / f"study-{self.seed}"
        out.rename(served)
        reports = report_paths(study)
        # The read-back measures warm serving, so the Study and every report
        # are built once before it starts; the serve workload's publishes
        # measure those builds.
        for path in reports:
            status, _body = get(self.server,
                                f"/studies/{served.name}/reports/{path}")
            if status != 200:
                raise CheckFailed(f"{path} answered {status}")
        generator = load_generator(
            self.server, Study(served.name, served, [version_of(served)]),
            Plan(self.seed, PIPELINE_SITES, reports))
        slice_s = READBACK_SHARE * seconds / (PIPELINE_RUNS * READBACK_SLICES)
        for i in range(PIPELINE_RUNS):
            if i:
                self.pipeline_run(outcome, out)
                shutil.rmtree(out)
            for _ in range(READBACK_SLICES):
                generator.run(slice_s)
                reanalyze(outcome, served, report_bytes)
        fold(outcome, generator)

    def pipeline_run(self, outcome: Outcome, out: Path):
        """One checked cold pipeline run into ``out``; returns its Study."""
        store = None
        if self.use_store:
            shutil.rmtree(self.work / "store" / "objects", ignore_errors=True)
            store = self._store()
        outcome.open()
        timings, report, study, report_bytes, coordinator = crawl(
            out, PIPELINE_SITES, PIPELINE_SHARDS, POPULATION_SEED, self.seed,
            guard=self.guard, store=store)
        for name in ("visit_rates", "analyze", "pipeline"):
            outcome.add(name, timings[name])
        outcome.settle(REFERENCES_AFTER)
        outcome.visits_in_window += report.visits_executed
        outcome.crawl_retries += report.retries
        outcome.attempted += PIPELINE_SHARDS + report.retries
        outcome.failed += report.retries
        if store is not None:
            counter = store.backend
            outcome.attempted += counter.requests
            outcome.failed += counter.errors
            outcome.store_errors += counter.errors
            self.check_store(report, coordinator)
        check_dataset(out)
        fingerprint = (report.manifest.digests, report_bytes)
        if self.first is None:
            self.first = fingerprint
        elif fingerprint != self.first:
            raise CheckFailed("shard digests or report bytes differ "
                              "between two runs of one seed")
        return study

    def check_store(self, report, coordinator) -> None:
        from repro.crawler import ShardStore
        if report.cached_shards or report.executed_shards != PIPELINE_SHARDS:
            raise CheckFailed(
                f"run was not cold: {report.cached_shards} cache hits, "
                f"{report.executed_shards} shards executed")
        # Read the store child's directory directly (same layout), so the
        # check adds no requests to the ones the pipeline made.
        probe = ShardStore(self.work / "store")
        for shard in coordinator.plan(PIPELINE_SHARDS):
            key = ShardStore.shard_key(report.population_fingerprint,
                                       report.config_fingerprint,
                                       shard.ranks, True)
            if not probe.contains(key):
                raise CheckFailed(f"shard key {key[:12]} missing from "
                                  f"the store after the run")


class Measure(Pipeline):
    name = "measure"


class Guard(Pipeline):
    name = "guard"
    guard = True
    use_store = False


class Serve(Workload):
    """A closed loop with publishes against a study crawled in set-up."""

    name = "serve"
    # The crawl metrics come from the set-ups, so they are spread over the
    # run between the parts of the loop.
    split_window = True
    #: The request plan, drawn on from one part of the loop to the next.
    plan: Optional[Plan] = None

    def setup(self, outcome: Outcome) -> None:
        # Both crawls stay outside the catalog: publishes copy from them.
        first, second = self.fresh("first-crawl"), self.fresh("second-crawl")
        studies = []
        #: (directory, report bytes) of both crawls, analysed again
        #: between the loop's slices.
        self.datasets = []
        for directory, crawl_seed in ((first, self.seed),
                                      (second, self.seed + 1)):
            timings, _report, study, report_bytes, _ = crawl(
                directory, SERVE_SITES, SERVE_SHARDS, POPULATION_SEED,
                crawl_seed)
            studies.append(study)
            self.datasets.append((directory, report_bytes))
            for name in ("visit_rates", "analyze", "pipeline"):
                outcome.add(name, timings[name])
        check_dataset(first)
        check_dataset(second)
        catalog = self.fresh("catalog")
        study_dir = catalog / f"study-{self.seed}"
        shutil.copytree(first, study_dir)
        self.server = children.serve_child(catalog, self.work / "serve.log",
                                           **self.child_kwargs("serve"))
        self.children.append(self.server)
        # The first Study is built by the first report request.
        status, _body = get(self.server,
                            f"/studies/{study_dir.name}/reports/summary")
        if status != 200:
            raise CheckFailed(f"first summary answered {status}")
        self.study = Study(study_dir.name, study_dir,
                           [version_of(first), version_of(second)])
        if [v.manifest.files for v in self.study.versions] != \
                [self.study.versions[0].manifest.files] * 2:
            raise CheckFailed("the two crawls of the study differ in shards")
        self.reports = report_paths(studies[0])

    def window(self, outcome: Outcome, seconds: float) -> None:
        if self.plan is None:
            self.plan = Plan(self.seed, SERVE_SITES, self.reports,
                             publish_every=PUBLISH_EVERY)
        generator = load_generator(self.server, self.study, self.plan)
        for i in range(SERVE_SLICES):
            generator.run(seconds / SERVE_SLICES)
            reanalyze(outcome, *self.datasets[i % 2])
        fold(outcome, generator)
        if generator.publishes == 0:
            raise CheckFailed("no publish happened in the window")


WORKLOADS = {cls.name: cls for cls in (Measure, Guard, Serve)}
