"""Figure 5 — CookieGuard's access-control effectiveness.

Paper: with the guard enabled, cross-domain overwriting drops 82.2%,
deletion 86.2%, exfiltration 83.2% (site prevalence).  Residual activity
comes from site-owner scripts, which keep full access by design.
"""

from repro.evaluation.access_control import evaluate_access_control

from conftest import banner


def test_figure5(benchmark, population):
    sample = population.sites_for(population.ranks[:300])
    result = benchmark.pedantic(
        evaluate_access_control, args=(population, sample),
        rounds=1, iterations=1)
    banner("Figure 5 — regular vs CookieGuard",
           "reductions: overwrite 82.2% · delete 86.2% · exfil 83.2%")
    print(result.render())
    for row in result.rows:
        assert row.pct_sites_guarded < row.pct_sites_regular
        assert 60.0 <= row.reduction_pct <= 100.0
