"""Which public ``repro`` functions the traced run wraps, per layer.

The table below is the layer map of ``perfbench/README.md``: every span
name starts with its layer (the ``repro`` subpackage, or ``crawler.store``
for the shard store).  :func:`install` wraps them all in the calling
process; the parent and both server children call it, so each process
records the layers it runs.

:func:`install_delay` is the sensitivity test's fault: a fixed busy-wait
at the entry of one public function.
"""

from __future__ import annotations

import importlib
from pathlib import Path
from typing import Callable, Dict, Optional, Tuple

from tracer import Tracer, clock

#: (span name, module, attribute path, kind).  ``kind`` is "call" or
#: "generator"; hooks that record counts are attached in :func:`install`.
WRAPPED: Tuple[Tuple[str, str, str, str], ...] = (
    ("ecosystem.site", "repro.ecosystem.population", "Population.site", "call"),
    ("cookies.cookies_for_url", "repro.cookies.jar", "CookieJar.cookies_for_url", "call"),
    ("cookies.set", "repro.cookies.jar", "CookieJar.set", "call"),
    ("cookies.set_from_header", "repro.cookies.jar", "CookieJar.set_from_header", "call"),
    ("browser.visit", "repro.browser.browser", "Browser.visit", "call"),
    ("browser.transport", "repro.browser.browser", "Browser.transport", "call"),
    ("browser.document_cookie", "repro.browser.document_cookie", "DocumentCookie.get", "call"),
    ("browser.document_cookie", "repro.browser.document_cookie", "DocumentCookie.set", "call"),
    ("net.parse_url", "repro.net.url", "parse_url", "call"),
    ("net.psl", "repro.net.psl", "PublicSuffixList.registrable_domain", "call"),
    ("extension", "repro.extension.instrumentation", "InstrumentationExtension.on_request_will_be_sent", "call"),
    ("extension", "repro.extension.instrumentation", "InstrumentationExtension.on_headers_received", "call"),
    ("extension", "repro.extension.instrumentation", "InstrumentationExtension.content_script", "call"),
    ("cookieguard.policy", "repro.cookieguard.policy", "AccessPolicy.may_read", "call"),
    ("cookieguard.policy", "repro.cookieguard.policy", "AccessPolicy.may_write", "call"),
    ("cookieguard.headers", "repro.cookieguard.guard", "CookieGuardExtension.on_headers_received", "call"),
    ("crawler.visit", "repro.crawler.crawler", "Crawler.visit_steps", "generator"),
    ("crawler.write_shard", "repro.crawler.storage", "write_shard", "call"),
    ("crawler.digest", "repro.crawler.storage", "compute_digest", "call"),
    ("crawler.store", "repro.crawler.distributed", "ShardStore.put", "call"),
    ("crawler.store", "repro.crawler.distributed", "ShardStore.fetch", "call"),
    ("crawler.store", "repro.crawler.distributed", "ShardStore.contains", "call"),
    ("analysis.decode", "repro.analysis.columnar", "iter_shard_batches", "generator"),
    ("analysis.accumulate", "repro.analysis.reports", "StudyAccumulator.add_shard_batch", "call"),
    ("analysis.report", "repro.analysis.reports", "Study.report_bytes", "call"),
    ("analysis.refresh", "repro.analysis.snapshot", "refresh_study", "call"),
    ("serve.handler", "repro.serve.app", "StudyCatalogHandler.do_GET", "call"),
    ("serve.handler", "repro.serve.app", "StudyCatalogHandler.do_HEAD", "call"),
    ("serve.catalog_refresh", "repro.serve.catalog", "StudyCatalog.refresh", "call"),
    ("serve.site", "repro.serve.catalog", "StudyEntry.site", "call"),
    ("serve.study_build", "repro.serve.catalog", "StudyEntry.study", "call"),
    ("serve.prevalence", "repro.serve.catalog", "StudyEntry.prevalence_by_bucket", "call"),
    ("serve.render", "repro.serve.app", "render_json", "call"),
    ("store.handler", "repro.serve.store", "ShardStoreHandler.do_GET", "call"),
    ("store.handler", "repro.serve.store", "ShardStoreHandler.do_HEAD", "call"),
    ("store.handler", "repro.serve.store", "ShardStoreHandler.do_PUT", "call"),
    ("store.handler", "repro.serve.store", "ShardStoreHandler.do_DELETE", "call"),
)

#: Functions the sensitivity test may slow down, one per layer.
DELAY_TARGETS = {
    "cookies_for_url": ("repro.cookies.jar", "CookieJar.cookies_for_url"),
    "may_read": ("repro.cookieguard.policy", "AccessPolicy.may_read"),
    "store_put": ("repro.crawler.distributed", "ShardStore.put"),
    "site": ("repro.serve.catalog", "StudyEntry.site"),
}

#: Request header carrying the client's request number, so a handler span
#: in the serve child can be joined with the client's latency.
REQUEST_ID_HEADER = "X-Bench-Request"


def _resolve(module: str, path: str):
    owner = importlib.import_module(module)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


def _import_all() -> None:
    # Patch only after every module that imports a wrapped function by name
    # is loaded, so Tracer.patch finds each reference.
    for module in ("repro.crawler", "repro.analysis", "repro.serve",
                   "repro.ecosystem", "repro.cookieguard", "repro.extension",
                   "repro.browser", "repro.analysis.snapshot",
                   "repro.analysis.columnar", "repro.serve.catalog"):
        importlib.import_module(module)


def _handler_rid(args) -> int:
    try:
        return int(args[0].headers.get(REQUEST_ID_HEADER, 0))
    except ValueError:
        return 0


def _count_allowed(tracer: Tracer, result, args) -> None:
    # Most decisions deny; recording the minority keeps the hook cheap.
    if result.name == "ALLOW":
        tracer.add("cookieguard.allowed")


def _count_shard_bytes(tracer: Tracer, result, args) -> None:
    tracer.add("crawler.shard_bytes",
               (Path(args[1]) / result.name).stat().st_size)


def _count_refresh(tracer: Tracer, result, args) -> None:
    tracer.add("analysis.refresh.reingested_shards", len(result.reingested))
    tracer.add("analysis.refresh.reused_shards", len(result.reused))


def _count_batch(tracer: Tracer, batch) -> None:
    tracer.add("analysis.decode.visits", len(batch))


_ON_RESULT: Dict[str, Callable] = {
    "AccessPolicy.may_read": _count_allowed,
    "AccessPolicy.may_write": _count_allowed,
    "write_shard": _count_shard_bytes,
    "refresh_study": _count_refresh,
}


def install(tracer: Tracer) -> None:
    """Wrap every function in :data:`WRAPPED` in this process."""
    _import_all()
    for name, module, path, kind in WRAPPED:
        owner, attr = _resolve(module, path)
        original = owner.__dict__[attr]
        if kind == "generator":
            wrapped = tracer.wrap_generator(
                original, name,
                on_item=_count_batch if name == "analysis.decode" else None)
        else:
            rid_of = _handler_rid if name == "serve.handler" else None
            wrapped = tracer.wrap(original, name, rid_of=rid_of,
                                  on_result=_ON_RESULT.get(path))
        tracer.patch(owner, attr, wrapped)


def install_delay(target: str, seconds: float) -> None:
    """Busy-wait ``seconds`` at the entry of one :data:`DELAY_TARGETS`
    function (the sensitivity test's injected slowdown)."""
    _import_all()
    owner, attr = _resolve(*DELAY_TARGETS[target])
    original = owner.__dict__[attr]

    def slowed(*args, **kwargs):
        until = clock() + seconds
        while clock() < until:
            pass
        return original(*args, **kwargs)

    setattr(owner, attr, slowed)


def parse_delay(spec: Optional[str]) -> Optional[Tuple[str, float]]:
    """``NAME:SECONDS`` → ``(NAME, SECONDS)``; None passes through."""
    if not spec:
        return None
    name, _, seconds = spec.partition(":")
    if name not in DELAY_TARGETS:
        raise SystemExit(f"unknown delay target {name!r} "
                         f"(known: {', '.join(sorted(DELAY_TARGETS))})")
    return name, float(seconds)

