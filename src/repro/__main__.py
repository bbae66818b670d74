"""Command-line interface: ``python -m repro <command> [options]``.

Commands
--------
study [N] [--jobs J]
    run the §5 measurement study (default 2000 sites)
evaluate [N]
    run the §7 CookieGuard evaluation (default 1000 sites)
crawl [N] [OUT] [--jobs J] [--shards S] [--gzip]
      [--progress] [--backend B] [--cache-dir D] [--max-retries R]
      [--task-timeout S] [--store-retries N] [--store-backoff S]
    crawl through the coordinator and save raw visit logs.  OUT
    (default ``crawl``) is always a directory holding
    ``shard-NNNN.jsonl[.gz]`` files, a ``manifest.json`` pinning each
    shard's SHA-256, and the durable ``queue.jsonl`` work journal
    (idempotent shard retry, resume by re-running)
crawl-shard SPEC INDEX [--cache-dir D]
    worker entrypoint for the distributed coordinator: execute shard
    INDEX of a ``workspec.json``, write its shard file next to the
    spec, and print one JSON result line (file/count/sha256) on stdout.
    With ``--cache-dir`` the worker consults/backfills a shard cache on
    its own side (keyed by the fingerprints the spec carries), so a
    repeat shard costs zero visits
analyze DATASET [--snapshot PATH] [--resume] [--report F]
    run the §5 analysis over a crawl dataset directory and print the
    headline prevalence numbers.  With ``--snapshot PATH`` the
    per-shard accumulator state is saved as a versioned snapshot; with
    ``--resume`` an existing snapshot at PATH is diffed against the
    dataset's current shard digests and only changed/added shards are
    re-analyzed — O(delta), not O(population) — with unchanged shards
    merged from their saved state.  ``--report F`` writes the full
    canonical report JSON (byte-identical for identical studies, the
    equivalence the snapshot tests pin)
bench [SCENARIO ...] [--quick] [--repeats R] [--warmup W] [--out F]
      [--baseline F] [--compare F] [--tolerance T] [--list]
    run the perf harness (``repro.perf``): registered scenarios with
    warmup/repeat/medians, a machine-readable BENCH_*.json report, and
    a regression gate.  ``--list`` prints the registry; positional
    SCENARIO names restrict the run.  ``--baseline F`` embeds a prior
    report's numbers (plus per-scenario speedups) into ``--out``;
    ``--compare F`` exits non-zero when any scenario's rate drops more
    than ``--tolerance`` (default 0.25) below the baseline's
serve [ROOT] [--host H] [--port P]
    HTTP study-catalog service (``repro.serve``) over the sharded
    crawl directories under ROOT (default ``studies``; a ROOT that is
    itself a crawl directory serves as a single study).  Endpoints:
    ``/studies``, ``/studies/<id>``, ``/studies/<id>/shards``,
    ``/studies/<id>/sites/<rank>`` (seek via sidecar indexes), and
    parameterized ``/studies/<id>/reports/<name>`` queries.  Every
    response carries a digest-derived strong ETag and honors
    ``If-None-Match`` with 304
store-serve [ROOT] [--host H] [--port P] [--verbose]
    share a shard-cache directory (default ``shard-cache``) over HTTP
    (``repro.serve.store``) so that ``crawl``/``crawl-shard`` on other
    machines can use ``--cache-dir http://HOST:PORT`` and read/upload
    shards through one cluster-wide content-addressed store.
    ``/healthz`` reports liveness; ``/readyz`` reports readiness (the
    root is writable, so uploads will land)
index-shards DIR [DIR ...] [--force]
    backfill sidecar seek indexes (``shard-NNNN.index.json``) for
    existing sharded crawl directories; shard bytes, digests, and
    manifests are untouched.  ``--force`` rewrites valid sidecars too
full [N] [OUT] [--jobs J] [--shards S]
    the complete paper reproduction in one shot

Options
-------
--jobs J         fan the crawl out over J worker processes (default
                 1 = serial).  Without ``--backend``, J > 1 selects
                 the ``pool`` backend and J = 1 ``inprocess``.
                 Per-site seeding makes the result bit-identical to a
                 serial crawl for any J.
--shards S       split the saved dataset into S shard files (default:
                 one shard per 256 sites).  Not derived from --jobs:
                 shard ranks key the shard cache.
--gzip           gzip shard files.
--progress       print one stderr line per completed shard batch.
--backend B      run the coordinator's shards on backend B:
                 ``inprocess`` (this process; rejects --jobs > 1),
                 ``pool`` (local worker processes), or ``subprocess``
                 (each shard execs ``python -m repro crawl-shard``, the
                 cross-machine worker protocol).  The result is
                 bit-identical to the serial pipeline for every
                 backend.
--cache-dir D    content-addressed shard cache: shards already crawled
                 for the same population/config/ranks are reused
                 without executing a single visit, and new shards are
                 stored for the next run.  D is a local directory or an ``http(s)://`` URL of a
                 ``store-serve`` endpoint; with the subprocess backend
                 the value is forwarded to every worker, so workers
                 hit the shared store directly and the coordinator
                 only moves digests.
--max-retries R  retry a failed/lost shard up to R times (default 2)
                 before giving up; retried bytes must match any
                 previously recorded digest.
--task-timeout S lease deadline in seconds (subprocess backend): a
                 worker still running past it is killed, its log kept
                 as evidence, and the shard re-pended under the same
                 digest-checked retry invariant.  Default: no deadline.
--store-retries N / --store-backoff S
                 retry policy for an ``http(s)://`` --cache-dir store:
                 N total attempts (default 3) with exponential backoff
                 starting at S seconds (default 0.1) for idempotent
                 requests (GET/HEAD/content-addressed PUT).  When the
                 store stays down past the budget the crawl degrades:
                 shards spill to ``OUT/store-overflow`` and are
                 reconciled to the store by a later run.  None of
                 these knobs enter cache keys or output bytes.

A lone ``--`` ends option parsing; later arguments are positional.

Exit status
-----------
0 success; 1 a failed command (e.g. an unreadable snapshot or a bench
regression); 2 a usage error.  A dataset that fails manifest
validation (including a missing DATASET or a file path where a dataset
directory is expected) exits 3, a crawl the coordinator cannot
complete exits 4, and an unreachable or failing shard store exits 5.
Each of these prints one ``repro: <message>`` line on stderr.
"""

from __future__ import annotations

import sys
from typing import List

from .cliutil import (pop_choice_flag, pop_flag, pop_float_flag,
                      pop_int_flag, pop_switch, reject_unknown_flags)


def _usage() -> None:
    print(__doc__)
    raise SystemExit(2)


def _run_crawl(args: List[str]) -> None:
    jobs = pop_int_flag(args, "--jobs", 1, minimum=1)
    shards = pop_int_flag(args, "--shards", 0, minimum=1) or None
    compress = pop_switch(args, "--gzip")
    show_progress = pop_switch(args, "--progress")
    backend_name = pop_choice_flag(args, "--backend",
                                   ["inprocess", "pool", "subprocess"])
    cache_dir = pop_flag(args, "--cache-dir")
    max_retries = pop_int_flag(args, "--max-retries", 2, minimum=0)
    task_timeout = pop_float_flag(args, "--task-timeout", None,
                                  minimum=0, exclusive_minimum=True)
    store_retries = pop_int_flag(args, "--store-retries", 3, minimum=1)
    store_backoff = pop_float_flag(args, "--store-backoff", 0.1, minimum=0)
    reject_unknown_flags(args)
    if backend_name == "inprocess" and jobs > 1:
        print(f"crawl: --backend inprocess runs one shard at a time; "
              f"it cannot use --jobs {jobs}")
        raise SystemExit(2)
    n_sites = int(args[0]) if args else 2000
    out = args[1] if len(args) > 1 else "crawl"

    from pathlib import Path

    from .crawler import (Coordinator, CrawlConfig, HTTPStoreBackend,
                          RetryPolicy, ShardStore, make_backend,
                          print_progress)
    from .ecosystem import PopulationConfig, generate_population
    backend = make_backend(backend_name, jobs=jobs, cache_dir=cache_dir)
    population = generate_population(PopulationConfig(n_sites=n_sites,
                                                      seed=2025))
    config = CrawlConfig(seed=2025)
    store = None
    if cache_dir:
        # The CLI runs resilient by default: a store outage spills to
        # OUT/store-overflow (reconciled by a later run) instead of
        # failing the crawl.  Retry/backoff/overflow are pure
        # scheduling — cache keys and shard bytes are unaffected.
        target = (HTTPStoreBackend(
            cache_dir, retry=RetryPolicy(attempts=store_retries,
                                         backoff=store_backoff))
            if "://" in cache_dir else cache_dir)
        store = ShardStore(target, overflow_dir=Path(out) / "store-overflow")
    progress = print_progress if show_progress else None
    coordinator = Coordinator(population, config, backend=backend,
                              max_retries=max_retries, store=store,
                              compress=compress, progress=progress,
                              task_timeout=task_timeout)
    # The shard count is deliberately NOT derived from --jobs: shard
    # ranks are part of the cache key, so a jobs change must not change
    # the plan (the coordinator's own default is population-sized).
    report = coordinator.run(out, n_shards=shards)
    print(f"saved {report.manifest.total} visit logs to {out}/ "
          f"({report.manifest.n_shards} shards, "
          f"backend={backend.name}, jobs={jobs}, "
          f"executed={report.executed_shards}, "
          f"cached={report.cached_shards}, "
          f"reused={report.reused_shards}, "
          f"visits executed={report.visits_executed}, "
          f"retries={report.retries})")


def _run_analyze(args: List[str]) -> None:
    """Analyze a crawl dataset, optionally through the snapshot layer."""
    from pathlib import Path

    snapshot_path = pop_flag(args, "--snapshot")
    resume = pop_switch(args, "--resume")
    report_out = pop_flag(args, "--report")
    reject_unknown_flags(args)
    if len(args) != 1:
        print("analyze needs exactly one DATASET directory")
        raise SystemExit(2)
    if resume and not snapshot_path:
        print("analyze: --resume requires --snapshot PATH")
        raise SystemExit(2)
    dataset = Path(args[0])

    from .analysis.reports import Study, StudyAccumulator
    if snapshot_path:
        from .analysis.snapshot import (SnapshotError, load_snapshot,
                                        refresh_study, save_snapshot)
        old = None
        if resume and Path(snapshot_path).exists():
            try:
                old = load_snapshot(snapshot_path)
            except SnapshotError as exc:
                print(f"analyze: {exc}")
                raise SystemExit(1)
        try:
            result = refresh_study(old, dataset)
        except SnapshotError as exc:
            print(f"analyze: {exc}")
            raise SystemExit(1)
        save_snapshot(result.snapshot, snapshot_path)
        study = result.snapshot.study()
        print(f"analyzed {dataset}: {study.n_sites} sites "
              f"(reused={len(result.reused)}, "
              f"re-ingested={len(result.reingested)}, "
              f"dropped={result.dropped}); snapshot -> {snapshot_path}")
    else:
        from .analysis.columnar import iter_shard_batches
        acc = StudyAccumulator()
        for batch in iter_shard_batches(dataset):
            acc.add_shard_batch(batch)
        study = Study.from_accumulator(acc)
        print(f"analyzed {dataset}: {study.n_sites} sites")
    for key, value in sorted(study.sec51_prevalence().items()):
        print(f"  {key:<34} {value:8.2f}")
    if report_out:
        Path(report_out).write_bytes(study.report_bytes() + b"\n")
        print(f"wrote {report_out}")


def _run_bench(args: List[str]) -> None:
    """Run the perf harness; see ``repro.perf`` for the machinery."""
    import platform

    from .perf import (DEFAULT_TOLERANCE, build_report, compare_reports,
                       current_commit, get_scenario, iter_scenarios,
                       load_report, run_scenarios, skipped_scenarios,
                       write_report)

    quick = pop_switch(args, "--quick")
    list_only = pop_switch(args, "--list")
    repeats = pop_int_flag(args, "--repeats", 5, minimum=1)
    warmup = pop_int_flag(args, "--warmup", 1, minimum=0)
    out = pop_flag(args, "--out")
    baseline_path = pop_flag(args, "--baseline")
    compare_path = pop_flag(args, "--compare")
    tolerance_s = pop_flag(args, "--tolerance")
    reject_unknown_flags(args)
    try:
        tolerance = (float(tolerance_s) if tolerance_s is not None
                     else DEFAULT_TOLERANCE)
    except ValueError:
        print(f"--tolerance expects a number, got {tolerance_s!r}")
        raise SystemExit(2)

    if list_only:
        for scn in iter_scenarios():
            print(f"{scn.name:<24} [{scn.units}/s] {scn.description}")
        return

    names = args or None
    if names:
        try:
            for name in names:
                get_scenario(name)
        except KeyError as exc:
            print(f"bench: {exc.args[0]}")
            raise SystemExit(2)
    print(f"repro bench: python {platform.python_version()}, "
          f"commit {current_commit()}, "
          f"{'quick' if quick else 'full'} workloads, "
          f"repeats={min(repeats, 3) if quick else repeats}, "
          f"warmup={warmup}")
    results = run_scenarios(names, warmup=warmup, repeats=repeats,
                            quick=quick)
    baseline = load_report(baseline_path) if baseline_path else None
    report = build_report(results, baseline=baseline)
    if baseline and report.get("speedup"):
        for name, speedup in sorted(report["speedup"].items()):
            print(f"  {name:<24} {speedup:10.2f}x vs baseline")
    if out:
        path = write_report(report, out)
        print(f"wrote {path}")
    if compare_path:
        gate = load_report(compare_path)
        for name in skipped_scenarios(report, gate):
            print(f"  skipped {name}: not in baseline {compare_path} "
                  f"(new scenario, nothing to regress against)")
        regressions = compare_reports(report, gate, tolerance=tolerance)
        if regressions:
            for reg in regressions:
                print(f"REGRESSION {reg.name}: {reg.current_rate:.1f}/s "
                      f"vs baseline {reg.baseline_rate:.1f}/s "
                      f"(-{reg.drop:.0%}, tolerance {tolerance:.0%})")
            raise SystemExit(1)
        print(f"regression gate passed "
              f"(tolerance {tolerance:.0%} vs {compare_path})")


def _run_crawl_shard(args: List[str]) -> None:
    """Distributed worker: one shard of a workspec, result JSON on stdout."""
    import json

    cache_dir = pop_flag(args, "--cache-dir")
    reject_unknown_flags(args)
    if len(args) != 2:
        print("crawl-shard needs exactly: SPEC_PATH SHARD_INDEX")
        raise SystemExit(2)
    try:
        index = int(args[1])
    except ValueError:
        print(f"crawl-shard INDEX expects an integer, got {args[1]!r}")
        raise SystemExit(2)
    from .crawler import run_shard_worker
    result = run_shard_worker(args[0], index, cache_dir=cache_dir)
    print(json.dumps(result, sort_keys=True))


def _run_serve(args: List[str]) -> None:
    """Serve the study catalog over HTTP until interrupted."""
    host = pop_flag(args, "--host") or "127.0.0.1"
    port = pop_int_flag(args, "--port", 8311, minimum=0)
    reject_unknown_flags(args)
    if len(args) > 1:
        print("serve takes at most one positional argument: ROOT")
        raise SystemExit(2)
    root = args[0] if args else "studies"
    from pathlib import Path
    if not Path(root).is_dir():
        print(f"serve: root {root!r} is not a directory")
        raise SystemExit(2)
    from .serve import serve
    serve(root, host=host, port=port)


def _run_store_serve(args: List[str]) -> None:
    """Share a shard-cache directory over HTTP until interrupted."""
    host = pop_flag(args, "--host") or "127.0.0.1"
    port = pop_int_flag(args, "--port", 8412, minimum=0)
    verbose = pop_switch(args, "--verbose")
    reject_unknown_flags(args)
    if len(args) > 1:
        print("store-serve takes at most one positional argument: ROOT")
        raise SystemExit(2)
    root = args[0] if args else "shard-cache"
    from .serve import serve_store
    serve_store(root, host=host, port=port, verbose=verbose)


def _run_index_shards(args: List[str]) -> None:
    """Backfill sidecar seek indexes for sharded crawl directories."""
    force = pop_switch(args, "--force")
    reject_unknown_flags(args)
    if not args:
        print("index-shards needs at least one crawl directory")
        raise SystemExit(2)
    from .crawler import build_shard_indexes
    for directory in args:
        result = build_shard_indexes(directory, force=force)
        print(f"{directory}: {result.built} indexed, "
              f"{result.up_to_date} up-to-date")


def main(argv=None) -> None:
    """Run one command; dataset, crawl and store failures exit with one
    ``repro: <message>`` stderr line and their own exit code."""
    from .crawler import CoordinationError, ManifestError, StoreBackendError

    try:
        _dispatch(list(sys.argv[1:] if argv is None else argv))
    except ManifestError as exc:
        _fail(exc, 3)
    except CoordinationError as exc:
        _fail(exc, 4)
    except StoreBackendError as exc:
        _fail(exc, 5)


def _fail(exc: Exception, code: int) -> None:
    message = " ".join(str(exc).split()) or type(exc).__name__
    print(f"repro: {message}", file=sys.stderr)
    raise SystemExit(code)


def _dispatch(argv: List[str]) -> None:
    if not argv:
        _usage()
    command, *args = argv

    if command == "study":
        _run_example("measurement_study", args)
    elif command == "evaluate":
        _run_example("cookieguard_evaluation", args)
    elif command == "crawl":
        _run_crawl(args)
    elif command == "crawl-shard":
        _run_crawl_shard(args)
    elif command == "analyze":
        _run_analyze(args)
    elif command == "bench":
        _run_bench(args)
    elif command == "serve":
        _run_serve(args)
    elif command == "store-serve":
        _run_store_serve(args)
    elif command == "index-shards":
        _run_index_shards(args)
    elif command == "full":
        from pathlib import Path
        script = Path(__file__).resolve().parents[2] / "scripts" / "full_scale_run.py"
        sys.argv = [str(script)] + args
        exec(compile(script.read_text(), str(script), "exec"),
             {"__name__": "__main__"})
    else:
        _usage()


def _run_example(name: str, args) -> None:
    """Execute an example script from the repository's examples/ dir."""
    from pathlib import Path
    script = Path(__file__).resolve().parents[2] / "examples" / f"{name}.py"
    if not script.exists():
        print(f"example not found: {script}")
        raise SystemExit(1)
    sys.argv = [str(script)] + list(args)
    exec(compile(script.read_text(), str(script), "exec"),
         {"__name__": "__main__"})


if __name__ == "__main__":
    main()
