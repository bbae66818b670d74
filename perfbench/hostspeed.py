"""The host-speed reference: fixed work timed between the benchmark's samples.

On a shared VM (the 2-vCPU seed host) the CPU runs faster or slower by tens
of percent over tens of seconds, because of the other tenants of the
machine, and process CPU time moves with wall time.  A drift that lasts
longer than one run moves every CPU-bound metric of that run together, and
no median inside the run can remove it.

:func:`reference` is Python work of the same kind as the program's (JSON
encoding and decoding, zlib, dict counting, hashing) on a fixed input.  It
calls nothing under ``src/``, so its time follows the host and nothing
else.  The CPU-bound metrics are reported as on a host on which it takes
:data:`NOMINAL_S`: each sample times ``NOMINAL_S / median`` of the
reference timings taken right before and after it.  Over five minutes on the seed
host, the 30-second medians of an analysis alone spread by 24% of their
median (interquartile distance), those of the analysis divided by the
reference (on a 400-site document) by 3.4%.
"""

from __future__ import annotations

import gc
import hashlib
import json
import random
import zlib

from tracer import clock

#: Median time of one :func:`reference` on the seed host (a 2-vCPU Linux VM,
#: Python 3.11.7), in seconds.  A constant of the benchmark: changing it
#: rescales every normalized metric.
NOMINAL_S = 0.055
#: Sites in the reference document.
_SITES = 1000


def _document() -> str:
    rng = random.Random(0)
    return json.dumps([
        {"domain": f"site{rng.randrange(10 ** 6)}.example", "rank": rank,
         "cookies": [{"name": f"c{j}", "value": hex(rng.getrandbits(64)),
                      "path": "/"} for j in range(8)]}
        for rank in range(_SITES)])


# Kept as one string, so that between calls the reference adds no objects
# for the cyclic collector to walk in the benchmark process.
_DOCUMENT = _document()


def reference() -> str:
    """The fixed work: decode, encode, compress and count one document."""
    text = json.dumps(json.loads(_DOCUMENT), sort_keys=True)
    data = json.loads(zlib.decompress(zlib.compress(text.encode(), 6)))
    counts: dict = {}
    for site in data:
        suffix = site["domain"].rsplit(".", 1)[-1]
        for cookie in site["cookies"]:
            key = (cookie["name"], suffix)
            counts[key] = counts.get(key, 0) + len(cookie["value"])
    return hashlib.sha256(repr(sorted(counts.items())).encode()).hexdigest()


def time_reference() -> float:
    """Seconds one :func:`reference` takes, from a collected heap."""
    gc.collect()
    start = clock()
    reference()
    return clock() - start

