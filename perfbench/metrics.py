"""End-to-end metrics of an untraced run; per-layer metrics of a traced one.

Every metric is returned as ``name -> (value, unit)``.  The names are the
ones ``BENCHMARK.json`` lists; the layer map is in ``README.md``.  The
samples of ``setup_s``, ``visits_per_s``, ``analyze_s`` and
``pipeline_s`` come at the nominal host speed (see ``hostspeed.py``); the
other metrics, the per-layer ones too, are as measured, with the run's
reference time beside the per-layer ones.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Tuple

import numpy as np

from client import LOOKUP, REPORT, REVALIDATE
from tracer import Spans, summarize
from workloads import Outcome

Metrics = Dict[str, Tuple[float, str]]


def tail_quantile(values: List[float], q: float = 0.99) -> Tuple[float, int]:
    """The ``q`` quantile (nearest rank) and how many samples lie above it."""
    ordered = sorted(values)
    index = min(len(ordered) - 1, max(0, int(q * len(ordered) + 0.5) - 1))
    return ordered[index], len(ordered) - index - 1


def end_to_end(outcome: Outcome, rss_mb: float) -> Metrics:
    records = outcome.records
    by_kind: Dict[str, List[float]] = {}
    for record in records:
        by_kind.setdefault(record.kind, []).append(record.latency * 1000)
    p99, beyond = tail_quantile([r.latency * 1000 for r in records])
    outcome.p99_samples = (len(records), beyond)
    return {
        "setup_s": (statistics.median(outcome.setups), "s"),
        "visits_per_s": (statistics.median(outcome.visit_rates), "visits/s"),
        "analyze_s": (statistics.median(outcome.analyze), "s"),
        "pipeline_s": (statistics.median(outcome.pipeline), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "ok_share": ((outcome.attempted - outcome.failed)
                     / max(outcome.attempted, 1), "ratio"),
        "serve.rps": (len(records) / outcome.serve_wall, "req/s"),
        "serve.lookup_p50_ms": (statistics.median(by_kind[LOOKUP]), "ms"),
        "serve.report_p50_ms": (statistics.median(by_kind[REPORT]), "ms"),
        "serve.p99_ms": (p99, "ms"),
    }


def _handler_durations(spans: Spans) -> Dict[int, float]:
    """Request id -> duration of the serve child's handler span."""
    out: Dict[int, float] = {}
    for part in spans.parts:
        if "serve.handler" not in part["names"]:
            continue
        mask = part["name"] == part["names"].index("serve.handler")
        durations = part["end"][mask] - part["start"][mask]
        out.update(zip(part["rid"][mask].tolist(), durations.tolist()))
    return out


def _median_ms(seconds: List[float]) -> float:
    return float(np.median(seconds)) * 1000 if seconds else 0.0


def _overhead(workload: str, traced: Outcome, plain: Outcome) -> float:
    """Traced / untraced cost of the window's main work, minus one:
    ``pipeline_s`` (at the nominal host speed) on measure and guard, time
    per request on serve."""
    if workload != "serve":
        return (statistics.median(traced.pipeline)
                / statistics.median(plain.pipeline) - 1)
    rate = len(traced.records) / traced.serve_wall
    plain_rate = len(plain.records) / plain.serve_wall
    return plain_rate / rate - 1


def per_layer(workload: str, spans: Spans, traced: Outcome,
              plain: Outcome) -> Metrics:
    rows = summarize(spans)
    counts = spans.counts()

    def calls(name: str) -> float:
        return float(rows[name]["calls"]) if name in rows else 0.0

    def self_s(*names: str) -> float:
        return sum(rows[n]["self_s"] for n in names if n in rows)

    def p50_ms(name: str) -> float:
        if name not in rows:
            return 0.0
        return float(np.median(rows[name]["durations"])) * 1000

    records = traced.records
    handler = _handler_durations(spans)
    transport = [r.latency - handler[r.rid] for r in records
                 if r.rid in handler]
    transport_200 = [r.latency - handler[r.rid] for r in records
                     if r.rid in handler and r.status == 200]
    decisions = calls("cookieguard.policy")
    n_spans = sum(len(part["id"]) for part in spans.parts)
    return {
        "ecosystem.site.calls": (calls("ecosystem.site"), "count"),
        "ecosystem.site.self_s": (self_s("ecosystem.site"), "s"),
        "cookies.cookies_for_url.calls": (calls("cookies.cookies_for_url"),
                                          "count"),
        "cookies.cookies_for_url.self_s": (self_s("cookies.cookies_for_url"),
                                           "s"),
        "cookies.set.calls": (calls("cookies.set"), "count"),
        "cookies.set.self_s": (self_s("cookies.set",
                                      "cookies.set_from_header"), "s"),
        "browser.visit.self_s": (self_s("browser.visit"), "s"),
        "browser.transport.calls": (calls("browser.transport"), "count"),
        "browser.document_cookie.calls": (calls("browser.document_cookie"),
                                          "count"),
        "browser.document_cookie.self_s": (self_s("browser.document_cookie"),
                                           "s"),
        "net.parse_url.calls": (calls("net.parse_url"), "count"),
        "net.parse_url.self_s": (self_s("net.parse_url"), "s"),
        "net.psl.calls": (calls("net.psl"), "count"),
        "net.psl.self_s": (self_s("net.psl"), "s"),
        "extension.calls": (calls("extension"), "count"),
        "extension.self_s": (self_s("extension"), "s"),
        "cookieguard.decisions": (decisions, "count"),
        "cookieguard.blocked_share": (
            1 - counts["cookieguard.allowed"] / decisions if decisions
            else 0.0,
            "ratio"),
        "cookieguard.self_s": (self_s("cookieguard.policy",
                                      "cookieguard.headers"), "s"),
        "crawler.visit.self_s": (self_s("crawler.visit"), "s"),
        "crawler.write_shard.self_s": (self_s("crawler.write_shard"), "s"),
        "crawler.digest.self_s": (self_s("crawler.digest"), "s"),
        "crawler.shard_bytes": (counts["crawler.shard_bytes"], "bytes"),
        "crawler.store.requests": (calls("store.handler"), "count"),
        "crawler.store.self_s": (self_s("crawler.store"), "s"),
        "crawler.store.server_self_s": (self_s("store.handler"), "s"),
        "crawler.store.errors": (float(traced.store_errors), "count"),
        "crawler.retries": (float(traced.crawl_retries), "count"),
        "analysis.decode.self_s": (self_s("analysis.decode"), "s"),
        "analysis.decode.visits": (counts["analysis.decode.visits"], "count"),
        "analysis.accumulate.self_s": (self_s("analysis.accumulate"), "s"),
        "analysis.report.self_s": (self_s("analysis.report"), "s"),
        "analysis.refresh.reingested_shards": (
            counts["analysis.refresh.reingested_shards"], "count"),
        "analysis.refresh.reused_shards": (
            counts["analysis.refresh.reused_shards"], "count"),
        "serve.revalidate_p50_ms": (_median_ms(
            [r.latency for r in records if r.kind == REVALIDATE]), "ms"),
        "serve.handler_p50_ms": (p50_ms("serve.handler"), "ms"),
        "serve.handler.self_s": (self_s("serve.handler"), "s"),
        "serve.transport_p50_ms": (_median_ms(transport), "ms"),
        "serve.transport_200_p50_ms": (_median_ms(transport_200), "ms"),
        "serve.catalog_refresh.calls": (calls("serve.catalog_refresh"),
                                        "count"),
        "serve.catalog_refresh.self_s": (self_s("serve.catalog_refresh"),
                                         "s"),
        "serve.site.self_s": (self_s("serve.site"), "s"),
        "serve.study_build.self_s": (self_s("serve.study_build"), "s"),
        "serve.prevalence.self_s": (self_s("serve.prevalence"), "s"),
        "serve.render.self_s": (self_s("serve.render"), "s"),
        "serve.not_modified_share": (
            sum(r.status == 304 for r in records) / max(len(records), 1),
            "ratio"),
        "serve.body_bytes": (float(sum(r.body_bytes for r in records)),
                             "bytes"),
        "trace.window_s": (traced.window[1] - traced.window[0], "s"),
        "trace.visits": (float(traced.visits_in_window), "count"),
        "trace.requests": (float(len(records)), "count"),
        "trace.spans": (float(n_spans), "count"),
        "trace.overhead_share": (_overhead(workload, traced, plain),
                                 "ratio"),
        "host.reference_ms": (
            statistics.median(traced.reference + plain.reference) * 1000,
            "ms"),
    }
