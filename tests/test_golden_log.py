"""Golden-log regression: the canonical ``VisitLog`` byte stream.

``tests/data/golden_visitlog.json`` freezes the full serialized crawl
of a 6-site population (seed 2025, the seed-repo byte stream).  Any
change to the visit path, the event schemas, or the serialization that
shifts a single byte fails here loudly — which is exactly the alarm a
determinism-contract refactor must trip if it is not perfectly
equivalence-preserving.

If a change is *intentional* (a new log field, a schema migration),
regenerate the fixture with::

    PYTHONPATH=src python tests/test_golden_log.py --regenerate

and call the change out in the PR, since it breaks byte-compatibility
of stored crawl datasets.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.crawler import CrawlConfig, Crawler
from repro.ecosystem import PopulationConfig, generate_population

FIXTURE = Path(__file__).parent / "data" / "golden_visitlog.json"
GOLDEN_N_SITES = 6
GOLDEN_SEED = 2025


def _golden_crawl():
    population = generate_population(
        PopulationConfig(n_sites=GOLDEN_N_SITES, seed=GOLDEN_SEED))
    crawler = Crawler(population, CrawlConfig(seed=GOLDEN_SEED))
    return crawler.crawl(keep_incomplete=True)


def _render(logs) -> str:
    return json.dumps([log.to_dict() for log in logs],
                      sort_keys=True, indent=1) + "\n"


class TestGoldenLog:
    def test_fixture_exists_and_is_nonempty(self):
        data = json.loads(FIXTURE.read_text(encoding="utf-8"))
        assert isinstance(data, list) and data
        for entry in data:
            assert entry["site"] and entry["url"]

    def test_serial_crawl_matches_golden_bytes(self):
        assert _render(_golden_crawl()) == FIXTURE.read_text(encoding="utf-8")

    def test_round_trip_through_from_dict(self):
        from repro.crawler import VisitLog
        golden = json.loads(FIXTURE.read_text(encoding="utf-8"))
        for entry in golden:
            rebuilt = VisitLog.from_dict(entry).to_dict()
            assert rebuilt == entry


if __name__ == "__main__":
    import sys

    if "--regenerate" in sys.argv:
        FIXTURE.parent.mkdir(parents=True, exist_ok=True)
        FIXTURE.write_text(_render(_golden_crawl()), encoding="utf-8")
        print(f"regenerated {FIXTURE}")
    else:
        print(__doc__)
