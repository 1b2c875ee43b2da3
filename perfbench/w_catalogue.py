"""``catalogue``: every registered scenario at its default parameters.

One process, no sample store, ``workers=1``, ``backend="auto"`` and
REPLICATIONS replications per scenario.  Whole passes over the catalogue
run (at least two, in a seeded order) until the run's time is used; each
scenario run is one operation.  The simulation kernels do almost all of
the work, E12 most of it.

One latency sample is a whole pass (the summed scenario times).
Percentiles over single scenario runs would fall in the gaps between
scenarios of very different cost, so they would jump with noise.

With tracing on, the first pass runs untraced through ``run_scenario``
and the second goes through the same layer functions one by one, in
``run_scenario``'s order, with a span around each call: parameters,
backend resolution, simulation, aggregation, shape checks and the
document.  Its metrics must equal the untraced pass bit for bit.
"""

from __future__ import annotations

import hashlib
import json
import math
import resource
import time

from common import Ctx, Op, import_layers, layer_time, setup_probe, summarise

REPLICATIONS = 2
#: the kind left out of catalogue_light_s
HEAVY = "E12"


def _metrics_key(result) -> str:
    return json.dumps({k: v.to_dict() for k, v in result.metrics.items()}, sort_keys=True)


def _problems(result) -> list[str]:
    return [f"{result.scenario_id}.{name} = {value}"
            for name, m in result.metrics.items()
            for value in (m.mean, m.std, m.half_width, m.minimum, m.maximum)
            if not math.isfinite(value)]


def _traced_scenario(ctx: Ctx, sid: str, seed: int, op: str):
    """run_scenario's pipeline for a registered scenario, one layer per span."""
    from repro.experiments.backends import resolve_backend, simulate_scenario_batch
    from repro.experiments.registry import get_scenario
    from repro.experiments.report import results_to_json
    from repro.experiments.runner import MetricSummary, ScenarioResult
    from repro.utils.rng import spawn_seed_sequences
    from repro.utils.stats import summarize_rows

    span = ctx.tracer.span
    with span("scenario", op):
        with span("registry.params"):
            sc = get_scenario(sid)
            params = sc.params(None)
        with span("backends.resolve"):
            backend = resolve_backend(sid, "auto")
        with span(f"sim.{sid}"):
            seeds = spawn_seed_sequences(seed, REPLICATIONS)
            rows = (simulate_scenario_batch(sid, seeds, params) if backend == "vectorized"
                    else [sc.simulate(ss, params) for ss in seeds])
        with span("stats.summarize"):
            agg = summarize_rows(rows, level=0.95)
            metrics = {
                name: MetricSummary(name=name, mean=float(agg.mean[j]),
                                    half_width=float(agg.half_width[j]), std=float(agg.std[j]),
                                    minimum=float(agg.minimum[j]), maximum=float(agg.maximum[j]),
                                    level=0.95, n=int(agg.counts[j]))
                for j, name in enumerate(agg.names)
            }
        with span("registry.checks"):
            outcomes = sc.check_outcomes({k: v.mean for k, v in metrics.items()})
        with span("report.document"):
            result = ScenarioResult(
                scenario_id=sc.scenario_id, title=sc.title, claim=sc.claim, verdict=sc.verdict,
                n_replications=REPLICATIONS, seed=seed, params=dict(params), metrics=metrics,
                checks={k: o.passed for k, o in outcomes.items()},
                check_errors={k: o.error for k, o in outcomes.items() if o.error is not None},
                elapsed_seconds=0.0, backend=backend)
            results_to_json([result])
    return result


def run(ctx: Ctx) -> tuple[dict, dict, dict]:
    from repro.experiments.registry import scenario_ids
    from repro.experiments.report import canonical_sweep_document, results_to_document
    from repro.experiments.runner import run_scenario

    setup = setup_probe(ctx)
    layers = import_layers(ctx) if ctx.trace else {}

    ids = scenario_ids()
    rng = ctx.rng("catalogue")
    seed = rng.randrange(10**6)
    ops: list[Op] = []
    digests = []
    start = time.perf_counter()
    passes = 0
    while passes < 2 or (not ctx.trace and time.perf_counter() - start < ctx.seconds):
        traced = ctx.trace and passes == 1
        results = []
        last = -1.0
        for sid in rng.sample(ids, len(ids)):
            if time.perf_counter() - last > 0.5:
                ctx.ref.window()
                last = time.perf_counter()
            ctx.attempted += 1
            t0 = time.perf_counter()
            try:
                if traced:
                    result = _traced_scenario(ctx, sid, seed, op=f"{passes}.{sid}")
                else:
                    result = run_scenario(sid, replications=REPLICATIONS, seed=seed, workers=1)
            except Exception as exc:  # noqa: BLE001 - any exception fails the operation
                ctx.fail(f"{sid}: {type(exc).__name__}: {exc}")
                continue
            t1 = time.perf_counter()
            ops.append(Op(sid, t0, t1, traced, unit=passes))
            for problem in _problems(result):
                ctx.fail(f"non-finite metric {problem}")
            results.append(result)
            if sid == HEAVY or t1 - t0 > 0.5:
                ctx.ref.window()
                last = time.perf_counter()
        ctx.ref.window()
        digests.append(hashlib.sha256("".join(
            f"{r.scenario_id}{_metrics_key(r)}" for r in sorted(results, key=lambda r: r.scenario_id)
        ).encode()).hexdigest())
        passes += 1
        if ctx.trace and passes == 1:
            t0 = time.perf_counter()
            document = json.dumps(canonical_sweep_document(results_to_document(results)), indent=2)
            layers["report.canonical_s"] = ctx.ref.adjust(t0, time.perf_counter())
            layers["report.document_bytes"] = len(document.encode())
            layers["catalogue.checks_missed"] = sum(not r.all_checks_pass for r in results)
            layers["sim.reps"] = sum(r.n_replications for r in results)
    if len(set(digests)) != 1:
        ctx.fail(f"catalogue digests differ between passes: {digests}")

    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    busy = [(o.t0, o.t1) for o in ops if not o.traced]
    adjusted, raw, info = summarise(ctx, setup=setup, ops=ops, heavy=HEAVY, busy=busy,
                                    peak_rss_mb=peak, latency_per_unit=True)
    if ctx.trace:
        layers.update(_layer_metrics(ctx, ops))
    return adjusted, raw, {**info, **layers}


def _layer_metrics(ctx: Ctx, ops: list[Op]) -> dict[str, float]:
    tracer = ctx.tracer
    self_times = tracer.self_times()
    out: dict[str, float] = {}
    layer_sum = 0.0
    for name, spans in tracer.by_name().items():
        if name == "scenario":
            continue
        out[f"{name}_s"] = layer_time(ctx, spans, self_times)
        layer_sum += out[f"{name}_s"]
    traced = sum(ctx.ref.adjust(o.t0, o.t1) for o in ops if o.traced)
    untraced = sum(ctx.ref.adjust(o.t0, o.t1) for o in ops if not o.traced)
    out["trace.layer_sum_s"] = layer_sum
    out["trace.untraced_s"] = untraced
    out["trace.overhead_ratio"] = traced / untraced
    return out
