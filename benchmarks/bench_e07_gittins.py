"""E7 — the Gittins index rule is optimal for classical multi-armed
bandits (Gittins–Jones [19]); the index is computable in polynomial time
while the joint DP state space grows exponentially.

Driven by the experiment registry: each replication draws random projects,
solves the exact product-space DP, and cross-checks the two independent
index algorithms.
"""

import numpy as np

from repro.bandits import gittins_indices_vwb, random_project
from repro.experiments import get_scenario, run_scenario

SC = get_scenario("E7")


def test_e07_gittins_optimality(benchmark, report):
    res = run_scenario(SC, replications=40, seed=7, workers=1)
    m = res.means()

    proj = random_project(8, np.random.default_rng(99))
    benchmark(lambda: gittins_indices_vwb(proj, 0.9))

    report(
        "E7: Gittins rule vs exact product-space DP "
        "(3 projects x 3 states, 40 random instances)",
        [
            ("mean OPT value", m["opt"], 1.0),
            ("worst |Gittins/OPT - 1|", res.metrics["gittins_gap"].maximum, 0.0),
            ("mean myopic loss", m["myopic_loss"], 0.0),
            ("worst VWB-vs-restart diff", res.metrics["algo_diff"].maximum, 0.0),
        ],
        header=("case", "value", "reference"),
    )

    assert res.all_checks_pass, res.checks
    assert res.metrics["gittins_gap"].maximum < 1e-8  # optimal on every instance
    assert res.metrics["algo_diff"].maximum < 1e-6  # the two algorithms agree
    assert m["myopic_loss"] >= 0.0
