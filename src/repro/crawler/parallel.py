"""Shard planning for the crawl coordinator.

The crawl is embarrassingly parallel by construction: every visit is
seeded with ``[seed, site.rank]`` (see :class:`~repro.crawler.crawler.
Crawler.visit_site`), so no visit can observe another visit's state.
This module holds the types :class:`~repro.crawler.distributed.
Coordinator` plans and reports with:

* :class:`ShardPlan` deterministically partitions a population's site
  ranks into :class:`Shard`\\ s (contiguous rank ranges or a
  round-robin stride).
* :class:`CrawlProgress` and :func:`print_progress` report completed
  shards.
* ``_WORKER``/``_init_worker`` hold the population and config once per
  pool worker, so tasks only carry small shard descriptions.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from ..ecosystem.population import Population
from .crawler import CrawlConfig

__all__ = ["Shard", "ShardPlan", "CrawlProgress", "print_progress"]


# ---------------------------------------------------------------------------
# Shard planning
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Shard:
    """One unit of parallel work: a set of site ranks.

    ``ranks`` is any ordered int sequence — plans derived from a whole
    population keep it as a :class:`range`, so a shard of a 10M-site plan
    is O(1) memory; explicit site lists yield tuples.
    """

    index: int
    of: int
    ranks: Sequence[int]

    def __len__(self) -> int:
        return len(self.ranks)


@dataclass(frozen=True)
class ShardPlan:
    """A deterministic partition of site ranks into shards.

    ``contiguous`` splits the rank-ordered site list into near-even
    runs (shard files then hold adjacent ranks, which keeps the on-disk
    layout browsable); ``stride`` deals sites round-robin, which
    balances load when per-site cost correlates with rank.  Both are
    pure functions of the site list and shard count.
    """

    shards: Tuple[Shard, ...]
    strategy: str = "contiguous"

    @property
    def n_shards(self) -> int:
        return len(self.shards)

    def __iter__(self):
        return iter(self.shards)

    @classmethod
    def for_population(cls, population: Population, n_shards: int,
                       strategy: str = "contiguous") -> "ShardPlan":
        # population.ranks is a range — the plan's shards stay O(1) memory
        # (range slices), never materializing the population.
        return cls.for_ranks(population.ranks, n_shards, strategy)

    @classmethod
    def for_ranks(cls, ranks: Sequence[int], n_shards: int,
                  strategy: str = "contiguous") -> "ShardPlan":
        if n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {n_shards}")
        if strategy not in ("contiguous", "stride"):
            raise ValueError(f"unknown shard strategy {strategy!r}")
        if not (isinstance(ranks, range) and ranks.step > 0):
            ranks = sorted(ranks)
        n_shards = min(n_shards, max(len(ranks), 1))
        parts: List[Sequence[int]]
        if strategy == "stride":
            # Slicing a range yields ranges; slicing a list yields lists —
            # freeze the latter to tuples so explicit plans stay hashable.
            parts = [part if isinstance(part, range) else tuple(part)
                     for part in (ranks[i::n_shards]
                                  for i in range(n_shards))]
        else:
            base, extra = divmod(len(ranks), n_shards)
            parts = []
            start = 0
            for index in range(n_shards):
                size = base + (1 if index < extra else 0)
                part = ranks[start:start + size]
                parts.append(part if isinstance(part, range)
                             else tuple(part))
                start += size
        shards = tuple(Shard(index=i, of=n_shards, ranks=part)
                       for i, part in enumerate(parts))
        return cls(shards=shards, strategy=strategy)


# ---------------------------------------------------------------------------
# Progress reporting
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CrawlProgress:
    """One completed visit batch (= one shard) of a parallel crawl.

    Reporting only — arrival order depends on worker timing, so nothing
    downstream may consume these for anything but display.
    """

    shard_index: int
    n_shards: int
    shard_visits: int     # retained logs in this shard
    done_shards: int      # shards completed so far (including this one)
    total_visits: int     # retained logs across completed shards
    elapsed: float        # seconds since the crawl started


def print_progress(event: CrawlProgress) -> None:
    """A ready-made ``progress`` callback: one stderr line per batch."""
    print(f"[crawl] shard {event.shard_index} done: "
          f"{event.shard_visits} visits "
          f"({event.done_shards}/{event.n_shards} shards, "
          f"{event.total_visits} visits, {event.elapsed:.1f}s)",
          file=sys.stderr, flush=True)


# ---------------------------------------------------------------------------
# Worker-process plumbing
# ---------------------------------------------------------------------------

# Populated once per worker by the pool initializer; workers then only
# receive (small) Shard descriptions per task.
_WORKER: Dict[str, object] = {}


def _init_worker(population: Population, config: CrawlConfig) -> None:
    _WORKER["population"] = population
    _WORKER["config"] = config
