"""Benchmark entry point: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload catalogue --seed 3 --seconds 15 --trace 0

Run from the root of a source checkout (``src/repro`` must exist).  The
last line of standard output is the result object; the lines before it
are a human-readable summary.  ``--trace 0`` reports the end-to-end
metrics of BENCHMARK.json, ``--trace 1`` the per-layer ones (and writes
the recorded spans to ``.bench_out/``).  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import compileall
import importlib
import json
import os
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = {"cli_oneshot": "w_cli", "catalogue": "w_catalogue", "serve_mixed": "w_serve"}


def declared(section: str) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}; run from a "
              "source checkout", file=sys.stderr)
        return 2
    # Bytecode as an installed package has it, whatever PYTHONDONTWRITEBYTECODE
    # says: without it every fresh interpreter would compile the sources.
    compileall.compile_dir(ROOT / "src", quiet=1)
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    from common import SINGLE_THREAD_ENV, Ctx

    os.environ.update(SINGLE_THREAD_ENV)  # before numpy is first imported
    workload = importlib.import_module(WORKLOADS[args.workload])
    # One CPU for everything, children included: the two vCPUs drift
    # independently, so the reference loop must read the core doing the work.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    tmp = ROOT / ".bench_tmp" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    ctx = Ctx(root=ROOT, tmp=tmp, seed=args.seed, seconds=args.seconds, trace=bool(args.trace))
    started = time.perf_counter()
    try:
        adjusted, raw, layers = workload.run(ctx)
    finally:
        ctx.stop_children()
        shutil.rmtree(tmp, ignore_errors=True)
    failed = len(ctx.failures) + ctx.ref.invalid
    attempted = ctx.attempted + ctx.ref.invalid

    for problem in ctx.failures:
        print(f"FAILED: {problem}")
    print(f"{args.workload} seed={args.seed}: {attempted} operations, {failed} failed, "
          f"{layers['latency.samples']} latency samples (tail = p{layers['latency.tail_pct']}), "
          f"{len(ctx.ref.windows)} reference windows, {time.perf_counter() - started:.1f}s wall")
    units = declared("end_to_end")
    for name, value in adjusted.items():
        print(f"  {name:<20} {value:12.6g} {units[name]:<4} (raw {raw[name]:.6g})")

    log = {"ops": [vars(o) for o in ctx.ops], "windows": [vars(w) for w in ctx.ref.windows]}
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"run-{args.workload}-{args.seed}-{args.trace}.json").write_text(json.dumps(log))
    if args.trace:
        layers.update({f"raw.{k}": v for k, v in raw.items()})
        layers["env.ref_loop_ms"] = ctx.ref.unit_ms
        layers["env.idle_cpu_share"] = ctx.ref.idle_cpu_share
        ctx.tracer.write(out_dir / f"trace-{args.workload}-{args.seed}.ndjson")
        metrics = {name: {"value": layers.get(name, 0), "unit": unit}
                   for name, unit in declared("per_layer").items()}
        for name, m in metrics.items():
            print(f"  {name:<28} {m['value']:12.6g} {m['unit']}")
    else:
        metrics = {name: {"value": adjusted[name], "unit": unit} for name, unit in units.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
