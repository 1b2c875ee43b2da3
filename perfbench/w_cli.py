"""``cli_oneshot``: a closed loop of fresh interpreters, one at a time.

Each cycle runs every command kind once, in a seeded order and with seeded
arguments: ``repro-experiments run`` on E5, E1 and E18 (cheap scenarios whose
shape checks hold at every seed, so the exit status is 0),
``repro-experiments --list`` and ``repro-sweep run`` against a sample store
warmed during set-up.  Nearly all of the time is interpreter start-up,
imports and pack loading.
"""

from __future__ import annotations

import json
import resource
import statistics
import time

from common import (Ctx, Op, canonical_bytes, import_layers, one_shot_sweep, setup_probe,
                    summarise)

KINDS = ("run_E5", "run_E1", "run_E18", "list", "sweep")
#: the kind left out of catalogue_light_s
HEAVY = "sweep"


def _sweep_spec(ctx: Ctx) -> dict:
    rng = ctx.rng("cli.sweep")
    return {
        "values": sorted(rng.sample(range(10, 45, 5), 3)),
        "replications": rng.randint(2, 4),
        "seed": rng.randrange(10**6),
    }


def _command(kind: str, rng, sweep: dict, out: str) -> tuple[list[str], dict]:
    if kind == "list":
        return ["-m", "repro.experiments.cli", "--list"], {}
    if kind == "sweep":
        return ["-m", "repro.experiments.sweep_cli", "run", "E1",
                "--axis", "n_jobs=" + ",".join(map(str, sweep["values"])),
                "--replications", str(sweep["replications"]), "--seed", str(sweep["seed"]),
                "--cache-dir", "cache", "--canonical", "--quiet", "--json", out], {}
    args = {"scenario": kind[4:], "replications": rng.randint(2, 5), "seed": rng.randrange(10**6)}
    return ["-m", "repro.experiments.cli", "run", args["scenario"],
            "--replications", str(args["replications"]), "--seed", str(args["seed"]),
            "--quiet", "--json", out], args


class _Oracle:
    """Expected outputs, computed in this process with the library API."""

    def __init__(self, sweep: dict) -> None:
        from repro.experiments import registry

        self.ids = registry.scenario_ids()
        self.sweep = sweep
        self._runs: dict[tuple, dict] = {}
        self._sweep_bytes: bytes | None = None

    def sweep_bytes(self, cache) -> bytes:
        s = self.sweep
        spec = {"scenario_id": "E1", "axes": {"n_jobs": s["values"]}}
        return canonical_bytes(*one_shot_sweep(
            spec, replications=s["replications"], seed=s["seed"], cache=cache))

    def check(self, kind: str, args: dict, stdout: str, path) -> str | None:
        if kind == "list":
            listed = [line.split()[0] for line in stdout.splitlines() if line.strip()]
            return None if listed == self.ids else f"--list printed {listed}"
        if kind == "sweep":
            if self._sweep_bytes is None:
                self._sweep_bytes = self.sweep_bytes(None)
            return None if path.read_bytes() == self._sweep_bytes else "sweep document differs"
        key = (args["scenario"], args["replications"], args["seed"])
        if key not in self._runs:
            from repro.experiments.report import results_to_json
            from repro.experiments.runner import run_scenario

            res = run_scenario(key[0], replications=key[1], seed=key[2], workers=1)
            self._runs[key] = json.loads(results_to_json([res]))["results"][0]["metrics"]
        got = json.loads(path.read_text())["results"][0]["metrics"]
        return None if got == self._runs[key] else f"{key} metrics differ"


def run(ctx: Ctx) -> tuple[dict, dict, dict]:
    # one window per command: the nearest windows carry the speed of the
    # core the next child runs on
    ctx.ref.reach_s = 1.5
    sweep = _sweep_spec(ctx)
    oracle = _Oracle(sweep)
    oracle.sweep_bytes(str(ctx.tmp / "cache"))  # warms the sample store
    setup = setup_probe(ctx)
    layers = import_layers(ctx) if ctx.trace else {}

    rng = ctx.rng("cli.mix")
    ops: list[Op] = []
    outputs = []
    start = time.perf_counter()
    cycle = 0
    while cycle < 2 or time.perf_counter() - start < ctx.seconds:
        traced = ctx.trace and cycle % 2 == 1
        for kind in rng.sample(KINDS, len(KINDS)):
            out = ctx.tmp / f"out-{len(ops)}.json"
            argv, args = _command(kind, rng, sweep, str(out))
            ctx.ref.window()
            ctx.attempted += 1
            t0 = time.perf_counter()
            code, stdout, stderr = ctx.run_child(argv, timeout=60)
            t1 = time.perf_counter()
            ops.append(Op(kind, t0, t1, traced))
            if traced:
                ctx.tracer.add("cli." + kind.split("_")[0], t0, t1, op=f"{cycle}.{kind}")
            if code != 0:
                ctx.fail(f"{kind} exited {code}: {stderr[-300:]}")
            else:
                outputs.append((kind, args, stdout, out))
        cycle += 1
    ctx.ref.window()

    for kind, args, stdout, out in outputs:
        problem = oracle.check(kind, args, stdout, out)
        if problem:
            ctx.fail(problem)

    peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    busy = [(o.t0, o.t1) for o in ops if not o.traced]
    adjusted, raw, info = summarise(ctx, setup=setup, ops=ops, heavy=HEAVY, busy=busy,
                                    peak_rss_mb=peak)
    if ctx.trace:
        spans = ctx.tracer.by_name()
        for group in ("run", "list", "sweep"):
            layers[f"cli.{group}_s"] = statistics.median(
                ctx.ref.adjust(s["start"], s["end"]) for s in spans[f"cli.{group}"])
        on = [ctx.ref.adjust(o.t0, o.t1) for o in ops if o.traced]
        off = [ctx.ref.adjust(o.t0, o.t1) for o in ops if not o.traced]
        layers["trace.overhead_ratio"] = statistics.median(on) / statistics.median(off)
    return adjusted, raw, {**info, **layers}
