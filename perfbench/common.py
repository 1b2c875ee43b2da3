"""Run context, operation records and the metric summaries every workload
shares."""

from __future__ import annotations

import json
import math
import os
import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from drift import Reference
from spans import Tracer

#: percentiles the tail is chosen from (highest with >= TAIL_BEYOND beyond it)
TAIL_PERCENTILES = (99, 95, 90, 75)
TAIL_BEYOND = 10

#: the probe a fresh interpreter runs: import the experiments API and load
#: every scenario pack, reporting the pack-load share on stdout
IMPORT_PROBE = (
    "import time, json\n"
    "import repro.experiments\n"
    "from repro.experiments import registry\n"
    "t1 = time.perf_counter(); n = len(registry.list_scenarios())\n"
    "print(json.dumps({'packs_s': time.perf_counter() - t1, 'n': n}))\n"
)

#: the numeric libraries stay single-threaded: the whole run is pinned to one
#: CPU, where extra threads would only contend
SINGLE_THREAD_ENV = {k: "1" for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}


@dataclass
class Op:
    """One timed operation: ``kind`` groups operations for per-kind medians."""

    kind: str
    t0: float
    t1: float
    traced: bool = False
    unit: int = 0  # the catalogue pass it belongs to

    @property
    def raw(self) -> float:
        return self.t1 - self.t0


@dataclass
class Ctx:
    root: Path
    tmp: Path
    seed: int
    seconds: float
    trace: bool
    ref: Reference = field(default_factory=Reference)
    tracer: Tracer = field(default_factory=Tracer)
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    procs: list[subprocess.Popen] = field(default_factory=list)
    ops: list[Op] = field(default_factory=list)  # every timed operation, for the run log

    def rng(self, label: str) -> random.Random:
        """A generator for one family of inputs, fixed by the run seed."""
        return random.Random(f"{self.seed}:{label}")

    def fail(self, message: str) -> None:
        self.failures.append(message)

    @property
    def env(self) -> dict[str, str]:
        env = dict(os.environ, **SINGLE_THREAD_ENV)
        env["PYTHONPATH"] = str(self.root / "src")
        return env

    def run_child(self, args: list[str], *, timeout: float = 120) -> tuple[int, str, str]:
        """Run a fresh interpreter to completion (cwd = the run's scratch dir)."""
        proc = subprocess.Popen(
            [sys.executable, *args], cwd=self.tmp, env=self.env,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        self.procs.append(proc)
        try:
            out, err = proc.communicate(timeout=timeout)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            self.procs.remove(proc)
        return proc.returncode, out, err

    def stop_children(self) -> None:
        for proc in list(self.procs):
            if proc.poll() is None:
                proc.terminate()
                try:
                    proc.wait(timeout=10)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait()
        self.procs.clear()


def tail(values: list[float]) -> tuple[float, int]:
    """(value, percentile) of the highest listed percentile that has at least
    TAIL_BEYOND samples beyond it; the median when there are too few."""
    ordered = sorted(values)
    n = len(ordered)
    for p in TAIL_PERCENTILES:
        if n * (100 - p) / 100 >= TAIL_BEYOND:
            return ordered[math.ceil(p / 100 * n) - 1], p
    return statistics.median(ordered), 50


def setup_probe(ctx: Ctx, n: int = 3) -> list[Op]:
    """Time ``n`` fresh interpreters importing the API with packs loaded,
    with a reference window before each and after the last."""
    ops = []
    for i in range(n):
        ctx.ref.window()
        t0 = time.perf_counter()
        code, out, err = ctx.run_child(["-c", IMPORT_PROBE])
        t1 = time.perf_counter()
        if code != 0 or json.loads(out.splitlines()[-1])["n"] < 1:
            raise RuntimeError(f"import probe failed ({code}): {err[-500:]}")
        ops.append(Op("setup", t0, t1))
    ctx.ref.window()
    return ops


def import_tree(stderr: str) -> list[tuple[str, float, list]]:
    """Parse ``-X importtime`` output into root nodes ``(name, cumulative_s,
    children)``; a module's children are printed before it, indented deeper."""
    pending: list[tuple[int, tuple]] = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "cumulative" in line:
            continue
        _, cum, name = line[len("import time:"):].split("|")
        depth = len(name) - len(name.lstrip())
        children = []
        while pending and pending[-1][0] > depth:
            children.insert(0, pending.pop()[1])
        pending.append((depth, (name.strip(), int(cum) * 1e-6, children)))
    return [node for _, node in pending]


def _package_s(nodes: list, package: str) -> float:
    """Cumulative import time of ``package`` and its submodules, counting each
    outermost matching node once (some packages never print their own line)."""
    total = 0.0
    for name, cum, children in nodes:
        if name == package or name.startswith(package + "."):
            total += cum
        else:
            total += _package_s(children, package)
    return total


def _count(nodes: list) -> int:
    return sum(1 + _count(children) for _, _, children in nodes)


def import_layers(ctx: Ctx) -> dict[str, float]:
    """The ``python -X importtime`` probe: cumulative import times of the
    heavy dependencies, the module count and the pack-load time."""
    code, out, err = ctx.run_child(["-X", "importtime", "-c", IMPORT_PROBE])
    if code != 0:
        raise RuntimeError(f"importtime probe failed: {err[-500:]}")
    roots = import_tree(err)
    return {
        "import.total_s": sum(cum for _, cum, _ in roots),
        "import.numpy_s": _package_s(roots, "numpy"),
        "import.scipy_stats_s": _package_s(roots, "scipy.stats"),
        "import.scipy_optimize_s": _package_s(roots, "scipy.optimize"),
        "import.modules": _count(roots),
        "packs.load_s": json.loads(out.splitlines()[-1])["packs_s"],
    }


def summarise(ctx: Ctx, *, setup: list[Op], ops: list[Op], heavy: str,
              busy: list[tuple[float, float]], peak_rss_mb: float,
              latency_per_unit: bool = False) -> tuple[dict, dict, dict]:
    """End-to-end metrics from the untraced operations of a run.

    Returns ``(adjusted, raw, info)``: the reference-adjusted metrics, the
    same figures in raw seconds, and sample counts.  ``catalogue_s`` sums
    the per-kind medians (one pass over every kind of operation);
    ``catalogue_light_s`` leaves out the ``heavy`` kind.  ``busy`` are the
    intervals in which the workload had work in flight.  With
    ``latency_per_unit`` one latency sample is the summed time of all
    operations sharing an ``Op.unit`` (a whole catalogue pass).
    """
    ctx.ops = setup + ops
    untraced = [o for o in ops if not o.traced]
    out = {}
    for label, time_of in (("adjusted", lambda o: ctx.ref.adjust(o.t0, o.t1)),
                           ("raw", lambda o: o.raw)):
        times = [time_of(o) for o in untraced]
        per_kind: dict[str, list[float]] = {}
        per_unit: dict[int, float] = {}
        for o, v in zip(untraced, times):
            per_kind.setdefault(o.kind, []).append(v)
            per_unit[o.unit] = per_unit.get(o.unit, 0.0) + v
        lat = list(per_unit.values()) if latency_per_unit else times
        medians = {k: statistics.median(v) for k, v in per_kind.items()}
        busy_s = sum((t1 - t0) * (ctx.ref.factor(t0, t1) if label == "adjusted" else 1.0)
                     for t0, t1 in busy)
        tail_s, pct = tail(lat)
        out[label] = {
            "setup_s": statistics.median(time_of(o) for o in setup),
            "latency_p50_s": statistics.median(lat),
            "latency_tail_s": tail_s,
            "catalogue_s": sum(medians.values()),
            "catalogue_light_s": sum(v for k, v in medians.items() if k != heavy),
            "jobs_per_s": len(untraced) / busy_s,
            "peak_rss_mb": peak_rss_mb,
        }
    info = {"latency.samples": len(lat), "latency.tail_pct": pct}
    return out["adjusted"], out["raw"], info


def layer_time(ctx: Ctx, spans: list[dict], self_times: dict[int, float] | None = None) -> float:
    """Reference-adjusted total (self) time of ``spans``."""
    total = 0.0
    for s in spans:
        dur = self_times[s["id"]] if self_times is not None else s["end"] - s["start"]
        total += dur * ctx.ref.factor(s["start"], s["end"])
    return total


def one_shot_sweep(spec: dict, *, replications: int, seed: int, cache=None):
    """``run_sweep`` for a wire-form spec, as ``repro-sweep run`` does it;
    returns the result and its document config."""
    from repro.experiments.sweeps import SweepSpec, run_sweep, sweep_run_config

    result = run_sweep(SweepSpec.from_dict(spec), replications=replications, seed=seed,
                       cache_dir=cache)
    config = sweep_run_config(
        replications=replications, seed=seed, workers=1, backend="auto",
        resolved_backends=[r.backend for r in result.results], level=0.95,
        target_precision=None, min_reps=None, max_reps=None, cache_dir=cache)
    return result, config


def canonical_bytes(result, config) -> bytes:
    """The canonical document bytes, as ``--canonical --json`` writes them
    and the daemon serves them."""
    from repro.experiments.report import canonical_sweep_document, sweep_to_json

    return (sweep_to_json(canonical_sweep_document(result.to_document(config=config))) + "\n").encode()
