"""Polling-system scenario pack (E15).

Exhaustive / gated / limited service under changeover times, pinned by
the pseudo-conservation law — the survey's polling claim, with the
lockstep flat-polling vectorized kernel.
"""

from __future__ import annotations

from typing import Any, Mapping, Sequence

import numpy as np

from repro.experiments.packs import ScenarioPack
from repro.utils.rng import crn_generators
from repro.experiments.packs._shared import _crn_batches
from repro.sim.vectorized import (
    lockstep_polling_simulations,
)

Params = Mapping[str, Any]
Seeds = Sequence[np.random.SeedSequence]

_SCHEMAS = {
    "E15": {
        "type": "object",
        "properties": {
            "horizon": {"type": "number", "exclusiveMinimum": 0},
            "switchover_means": {
                "type": "array",
                "items": {"type": "number", "minimum": 0},
                "minItems": 2,
                "maxItems": 2,
            },
        },
        "additionalProperties": False,
    },
}

PACK = ScenarioPack(
    name="polling",
    version="1.0.0",
    docs="docs/ARCHITECTURE.md#scenario-packs",
    schemas=_SCHEMAS,
)


_E15_LAM = (0.3, 0.2)


@PACK.scenario(
    "E15",
    title="Polling with changeovers: exhaustive <= gated <= limited",
    claim=(
        "Changeover/setup times change optimal control (polling systems, "
        "Levy–Sidi [25]): local policies rank exhaustive <= gated <= "
        "limited in weighted waits; the pseudo-conservation law pins the "
        "simulator; longer setups hurt every policy."
    ),
    verdict=(
        "Reproduced: the policy ordering holds at both switchover levels, "
        "the pseudo-conservation law matches simulation, and longer setups "
        "hurt every policy."
    ),
    defaults={"horizon": 12000.0, "switchover_means": (0.1, 0.4)},
    checks={
        "exhaustive_best": lambda m: m["exhaustive_short"] <= m["gated_short"] * 1.05
        and m["exhaustive_long"] <= m["gated_long"] * 1.05,
        "gated_beats_limited": lambda m: m["gated_short"] <= m["limited_short"] * 1.05
        and m["gated_long"] <= m["limited_long"] * 1.05,
        "pseudo_conservation": lambda m: m["max_conservation_err"] < 0.15,
        "setups_hurt": lambda m: m["exhaustive_long"] > m["exhaustive_short"]
        and m["gated_long"] > m["gated_short"]
        and m["limited_long"] > m["limited_short"],
    },
    tags=("queueing", "simulation", "polling"),
)
def simulate_e15(ss: np.random.SeedSequence, params: Params) -> dict[str, float]:
    """One replication of E15: Polling with changeovers: exhaustive <= gated <= limited.

    Derives all randomness from ``ss`` and measures the metric
    dictionary the registry entry's shape checks are evaluated on.
    """
    from repro.distributions import Deterministic, Exponential
    from repro.queueing import PollingSystem, pseudo_conservation_rhs

    svc = [Exponential(2.0), Exponential(1.5)]
    lam = list(_E15_LAM)
    horizon = float(params["horizon"])
    short, long_ = params["switchover_means"]

    metrics: dict[str, float] = {}
    cons_errs = []
    cases = [
        (pol, sw_mean, label)
        for sw_mean, label in ((float(short), "short"), (float(long_), "long"))
        for pol in ("exhaustive", "gated", "limited")
    ]
    # CRN: all six (policy, switchover) cases replay the same streams.
    for (pol, sw_mean, label), rng in zip(cases, crn_generators(ss, len(cases))):
        sw = [Deterministic(sw_mean), Deterministic(sw_mean)]
        res = PollingSystem(lam, svc, sw, pol).simulate(horizon, rng)
        metrics[f"{pol}_{label}"] = float(res.weighted_wait_sum)
        if pol in ("exhaustive", "gated"):
            rhs = pseudo_conservation_rhs(lam, svc, sw, pol)
            cons_errs.append(abs(res.weighted_wait_sum / rhs - 1.0))
    metrics["max_conservation_err"] = float(max(cons_errs))
    return metrics


# ---------------------------------------------------------------------------
# vectorized kernels
# ---------------------------------------------------------------------------


@PACK.kernel(
    "E15",
    mode="lockstep",
    note="the pseudo-conservation right-hand sides are deterministic and "
    "hoisted; all six CRN (policy, switchover) cases run through the flat "
    "polling engine with pre-drawn service blocks, including the "
    "zero-switchover idle rule",
)
def batch_e15(seeds: Seeds, params: Params) -> list[dict[str, float]]:
    """``lockstep`` kernel for E15: drives the whole batch through the flat lockstep simulators;
    bit-for-bit equal to ``simulate_e15`` on the same seeds.
    """
    from repro.distributions import Deterministic, Exponential
    from repro.queueing import pseudo_conservation_rhs

    svc_rates = (2.0, 1.5)
    svc = [Exponential(r) for r in svc_rates]
    lam = list(_E15_LAM)
    horizon = float(params["horizon"])
    short, long_ = params["switchover_means"]
    N = len(seeds)

    cases = [
        (pol, sw_mean, label)
        for sw_mean, label in ((float(short), "short"), (float(long_), "long"))
        for pol in ("exhaustive", "gated", "limited")
    ]
    rhs = {
        (pol, sw_mean): pseudo_conservation_rhs(
            lam, svc, [Deterministic(sw_mean), Deterministic(sw_mean)], pol
        )
        for pol, sw_mean, _ in cases
        if pol in ("exhaustive", "gated")
    }
    metrics: dict[str, list[float]] = {}
    cons_errs: list[list[float]] = [[] for _ in range(N)]
    for (pol, sw_mean, label), rngs in zip(cases, _crn_batches(seeds, len(cases))):
        results = lockstep_polling_simulations(
            lam, svc_rates, [sw_mean, sw_mean], pol, horizon, rngs
        )
        metrics[f"{pol}_{label}"] = [float(res.weighted_wait_sum) for res in results]
        if pol in ("exhaustive", "gated"):
            for r, res in enumerate(results):
                cons_errs[r].append(
                    abs(res.weighted_wait_sum / rhs[(pol, sw_mean)] - 1.0)
                )
    rows = []
    for r in range(N):
        row = {name: vals[r] for name, vals in metrics.items()}
        row["max_conservation_err"] = float(max(cons_errs[r]))
        rows.append(row)
    return rows
