"""Cross-backend equivalence harness.

The vectorized kernels promise *bit-for-bit* agreement with the
event-driven backend: fed the same spawned seed sequences, every kernel
must return exactly the per-replication metric dictionaries the
scenario's ``simulate`` function returns — same keys, identical floats.
These tests enforce that promise for every registered kernel, through
both the raw kernel interface and the runner, plus property-based tests
that randomise the scenario parameters of the single-machine,
parallel-machine, heavy-traffic (E12) and polling (E15) kernels.

A failure here means a kernel (or a platform's numpy) broke one of the
bitwise-equality rules documented in :mod:`repro.sim.vectorized` — the
vectorized backend must then not be trusted until fixed.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.experiments import kernel_ids, run_scenario, scenario_ids
from repro.experiments.backends import (
    MissingKernelError,
    resolve_backend,
    simulate_scenario_batch,
)
from repro.experiments.registry import get_scenario
from repro.sim.vectorized import get_kernel
from repro.utils.rng import spawn_seed_sequences

# parameter overrides that shrink the slow scenarios so the exhaustive
# equivalence sweep stays fast; equivalence must hold for any parameters
FAST_PARAMS: dict[str, dict] = {
    "E2": {"n_quanta": 6},
    "E6": {"ns": (3, 5)},
    "E8": {"horizon": 80, "warmup": 10, "fleet_sizes": (5, 9)},
    "E10": {"horizon": 300.0},
    "E11": {"horizon": 250.0},
    "E12": {"horizon": 300.0, "rhos": (0.6, 0.8)},
    "E13": {"horizon": 200.0, "fluid_horizon": 10.0},
    "E14": {"horizon": 300.0, "fluid_horizon": 30.0},
    "E15": {"horizon": 800.0},
    "A2": {"horizon": 800.0},
}

REPLICATIONS = 3


def assert_rows_identical(event_rows, vec_rows, context=""):
    """Exact equality of per-replication metric dictionaries."""
    assert len(event_rows) == len(vec_rows), context
    for r, (ev, vec) in enumerate(zip(event_rows, vec_rows)):
        assert set(ev) == set(vec), f"{context} rep {r}: metric keys differ"
        for key in ev:
            a, b = ev[key], vec[key]
            if math.isnan(a) and math.isnan(b):
                continue
            assert a == b, (
                f"{context} rep {r} metric {key!r}: event={a!r} vectorized={b!r}"
            )


@pytest.mark.parametrize("sid", kernel_ids())
def test_kernel_matches_event_backend_bitwise(sid):
    sc = get_scenario(sid)
    params = sc.params(FAST_PARAMS.get(sid))
    event_rows = [sc.simulate(ss, params) for ss in spawn_seed_sequences(101, REPLICATIONS)]
    vec_rows = simulate_scenario_batch(
        sid, spawn_seed_sequences(101, REPLICATIONS), params
    )
    assert_rows_identical(event_rows, vec_rows, context=sid)


@pytest.mark.parametrize("sid", ["E1", "E4", "E6", "E8", "E13", "E15"])
def test_runner_samples_identical_across_backends(sid):
    kwargs = dict(
        replications=REPLICATIONS, seed=11, workers=1, params=FAST_PARAMS.get(sid)
    )
    ev = run_scenario(sid, backend="event", **kwargs)
    vec = run_scenario(sid, backend="vectorized", **kwargs)
    assert ev.backend == "event" and vec.backend == "vectorized"
    assert ev.samples == vec.samples
    assert ev.means() == vec.means()
    assert ev.checks == vec.checks


def test_auto_backend_picks_kernel_and_vectorized_is_strict():
    assert resolve_backend("E1", "auto") == "vectorized"
    assert resolve_backend("E1", "event") == "event"
    # a scenario without a kernel: auto silently falls back, an explicit
    # vectorized request is an error naming the scenario
    assert resolve_backend("X99", "auto") == "event"
    with pytest.raises(MissingKernelError, match="X99"):
        resolve_backend("X99", "vectorized")
    with pytest.raises(ValueError):
        resolve_backend("E1", "warp-speed")


def test_vectorized_request_for_adhoc_scenario_errors():
    from repro.experiments.registry import Scenario

    sc = Scenario(
        scenario_id="ADHOC",
        title="ad-hoc",
        claim="-",
        verdict="-",
        simulate=lambda ss, params: {"x": 0.0},
        defaults={},
        checks={},
    )
    with pytest.raises(MissingKernelError, match="ADHOC"):
        run_scenario(sc, replications=1, seed=0, workers=1, backend="vectorized")
    # auto still falls back to the event engine for ad-hoc scenarios
    res = run_scenario(sc, replications=1, seed=0, workers=1, backend="auto")
    assert res.backend == "event"


def test_every_kernel_id_is_a_registered_scenario():
    # (not every scenario has a kernel: a kernel must hold the a04
    # speedup floor, see tests/test_benchmark_coverage.py)
    registered = set(scenario_ids())
    for sid in kernel_ids():
        assert sid in registered
        assert get_kernel(sid).mode in ("batched", "cached", "lockstep")


def test_vectorized_chunking_cannot_change_results():
    # one kernel call over all seeds == two kernel calls over a split —
    # each replication consumes only its own seed's streams
    sc = get_scenario("E3")
    params = sc.params()
    seeds = spawn_seed_sequences(5, 6)
    whole = simulate_scenario_batch("E3", seeds, params)
    split = simulate_scenario_batch("E3", seeds[:2], params) + simulate_scenario_batch(
        "E3", seeds[2:], params
    )
    assert_rows_identical(whole, split, context="chunking")


def test_vectorized_backend_worker_count_invariance():
    one = run_scenario("E4", replications=6, seed=9, workers=1, backend="vectorized")
    two = run_scenario("E4", replications=6, seed=9, workers=2, backend="vectorized")
    assert one.samples == two.samples


# ---------------------------------------------------------------------------
# Property-based equivalence over randomised scenario parameters
# ---------------------------------------------------------------------------

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

_PROPERTY_SETTINGS = settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@_PROPERTY_SETTINGS
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    n_brute=st.integers(min_value=2, max_value=6),
    n_jobs=st.integers(min_value=2, max_value=40),
)
def test_property_single_machine_kernel_equivalence(seed, n_brute, n_jobs):
    sc = get_scenario("E1")
    params = sc.params({"n_brute": n_brute, "n_jobs": n_jobs})
    event_rows = [sc.simulate(ss, params) for ss in spawn_seed_sequences(seed, 2)]
    vec_rows = simulate_scenario_batch("E1", spawn_seed_sequences(seed, 2), params)
    assert_rows_identical(event_rows, vec_rows, context=f"E1 seed={seed}")


@_PROPERTY_SETTINGS
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    n_jobs=st.integers(min_value=2, max_value=7),
    m=st.integers(min_value=1, max_value=3),
    lo=st.floats(min_value=0.05, max_value=1.0),
    width=st.floats(min_value=0.1, max_value=4.0),
    sid=st.sampled_from(["E3", "E4"]),
)
def test_property_parallel_machine_kernel_equivalence(seed, n_jobs, m, lo, width, sid):
    sc = get_scenario(sid)
    params = sc.params({"n_jobs": n_jobs, "m": m, "rate_range": (lo, lo + width)})
    event_rows = [sc.simulate(ss, params) for ss in spawn_seed_sequences(seed, 2)]
    vec_rows = simulate_scenario_batch(sid, spawn_seed_sequences(seed, 2), params)
    assert_rows_identical(event_rows, vec_rows, context=f"{sid} seed={seed}")


@_PROPERTY_SETTINGS
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    rho_lo=st.floats(min_value=0.3, max_value=0.7),
    rho_step=st.floats(min_value=0.05, max_value=0.25),
    horizon=st.floats(min_value=50.0, max_value=300.0),
)
def test_property_heavy_traffic_kernel_equivalence(seed, rho_lo, rho_step, horizon):
    # randomised traffic intensities: the lockstep M/M/m engine must track
    # the event engine draw-for-draw across the whole rho sweep
    sc = get_scenario("E12")
    params = sc.params(
        {"rhos": (rho_lo, min(rho_lo + rho_step, 0.95)), "horizon": horizon}
    )
    event_rows = [sc.simulate(ss, params) for ss in spawn_seed_sequences(seed, 2)]
    vec_rows = simulate_scenario_batch("E12", spawn_seed_sequences(seed, 2), params)
    assert_rows_identical(event_rows, vec_rows, context=f"E12 seed={seed}")


@_PROPERTY_SETTINGS
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    # short is either exactly zero (exercising the zero-switchover idle
    # rule) or bounded away from it: a tiny-but-positive deterministic
    # switchover forces *both* backends to tick ~horizon/switchover empty
    # cycles — an inherent property of the model, not a backend difference
    short=st.one_of(st.just(0.0), st.floats(min_value=0.02, max_value=0.3)),
    extra=st.floats(min_value=0.05, max_value=0.5),
    horizon=st.floats(min_value=100.0, max_value=1500.0),
)
def test_property_polling_kernel_equivalence(seed, short, extra, horizon):
    # randomised switchover times, *including exactly zero* — the flat
    # polling engine must reproduce the zero-switchover idle rule
    sc = get_scenario("E15")
    params = sc.params(
        {"switchover_means": (short, short + extra), "horizon": horizon}
    )
    event_rows = [sc.simulate(ss, params) for ss in spawn_seed_sequences(seed, 2)]
    vec_rows = simulate_scenario_batch("E15", spawn_seed_sequences(seed, 2), params)
    assert_rows_identical(event_rows, vec_rows, context=f"E15 seed={seed}")


@_PROPERTY_SETTINGS
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    horizon=st.floats(min_value=50.0, max_value=250.0),
    sid=st.sampled_from(["E13", "E14"]),
)
def test_property_network_scenario_kernel_equivalence(seed, horizon, sid):
    # the instability (E13) and fluid-ranking (E14) kernels drive fixed
    # multiclass networks through the flat engine — a random horizon cuts
    # the event sequence at arbitrary points, so the min-scan calendar
    # must agree with the event heap at *every* prefix, not just the
    # FAST_PARAMS one
    fluid = {"E13": {"fluid_horizon": 10.0}, "E14": {"fluid_horizon": 30.0}}
    sc = get_scenario(sid)
    params = sc.params({"horizon": horizon, **fluid[sid]})
    event_rows = [sc.simulate(ss, params) for ss in spawn_seed_sequences(seed, 2)]
    vec_rows = simulate_scenario_batch(sid, spawn_seed_sequences(seed, 2), params)
    assert_rows_identical(event_rows, vec_rows, context=f"{sid} seed={seed}")


@_PROPERTY_SETTINGS
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    horizon=st.floats(min_value=30.0, max_value=200.0),
    warmup=st.sampled_from([0.0, 0.1]),
    data=st.data(),
)
def test_property_flat_network_engine_equivalence(seed, horizon, warmup, data):
    # engine-level coverage beyond the registered scenarios: a random
    # 3-class 2-station network with randomised disciplines (all four),
    # arrival/service rates, routing chain and server counts — the flat
    # lockstep engine must return bit-for-bit the event path's
    # NetworkResult, replication by replication
    from repro.distributions import Exponential
    from repro.queueing.network import (
        ClassConfig,
        QueueingNetwork,
        StationConfig,
        simulate_network,
    )
    from repro.sim.vectorized import lockstep_network_simulations

    station_of = [0, data.draw(st.integers(0, 1), label="station1"), 1]
    mus = [data.draw(st.floats(0.8, 3.0), label=f"mu{j}") for j in range(3)]
    # optional rates are exactly zero or bounded away from it — a
    # subnormal rate yields an infinite inter-arrival time, which the
    # event calendar (rightly) refuses to schedule
    opt_rate = st.one_of(st.just(0.0), st.floats(0.05, 0.5))
    lams = [
        data.draw(st.floats(0.2, 0.6), label="lam0"),
        data.draw(opt_rate, label="lam1"),
        data.draw(opt_rate, label="lam2"),
    ]
    routing = np.zeros((3, 3))
    routing[0, 1] = data.draw(st.floats(0.0, 0.9), label="p01")
    routing[1, 2] = data.draw(st.floats(0.0, 0.9), label="p12")
    stations = []
    for k in range(2):
        classes_here = [j for j in range(3) if station_of[j] == k]
        disc = data.draw(
            st.sampled_from(["priority", "preemptive", "fifo", "lcfs"]),
            label=f"disc{k}",
        )
        stations.append(
            StationConfig(
                n_servers=data.draw(st.integers(1, 2), label=f"ns{k}"),
                discipline=disc,
                priority=tuple(
                    data.draw(st.permutations(classes_here), label=f"prio{k}")
                ),
            )
        )
    net = QueueingNetwork(
        [
            ClassConfig(station_of[j], Exponential(mus[j]), arrival_rate=lams[j])
            for j in range(3)
        ],
        stations,
        routing,
    )
    children = np.random.SeedSequence(seed).spawn(2)
    event = [
        simulate_network(
            net, horizon, np.random.default_rng(ss), warmup_fraction=warmup
        )
        for ss in children
    ]
    flat = lockstep_network_simulations(
        net,
        horizon,
        [np.random.default_rng(ss) for ss in children],
        warmup_fraction=warmup,
    )
    for r, (ev, vec) in enumerate(zip(event, flat)):
        ctx = f"network seed={seed} rep={r}"
        np.testing.assert_array_equal(
            ev.mean_queue_lengths, vec.mean_queue_lengths, err_msg=ctx
        )
        np.testing.assert_array_equal(ev.mean_waits, vec.mean_waits, err_msg=ctx)
        np.testing.assert_array_equal(ev.visit_counts, vec.visit_counts, err_msg=ctx)
        assert ev.cost_rate == vec.cost_rate or (
            math.isnan(ev.cost_rate) and math.isnan(vec.cost_rate)
        ), ctx
        assert ev.final_backlog == vec.final_backlog, ctx
        assert ev.peak_backlog == vec.peak_backlog, ctx
