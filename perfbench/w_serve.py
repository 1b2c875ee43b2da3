"""``serve_mixed``: the ``repro-serve`` daemon under a closed loop.

The daemon runs as a subprocess (``start --port 0 --workers 1``) on a fresh
state directory.  One client keeps two jobs outstanding (two threads of a
closed loop) and submits rounds of a seeded mix over cheap scenarios:

* ``fresh`` grids, which simulate and write the store;
* ``overlap`` grids, sharing points (and the root seed) with an earlier
  grid of the round, which read the store through prefix hits;
* ``resubmit``: identical resubmissions, deduplicated on the job id.

Every round has the same shape; round ``k`` shifts every root seed by
``1000 * k`` so its work is new to the store.  The loop drains after each
round to time a reference window.  One job runs from submit to its
document fetched.

Correctness, checked after the timed phase: no HTTP error, no failed job,
and every served document byte-identical to the canonical one-shot
``run_sweep`` document for the same spec.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

from common import (Ctx, Op, canonical_bytes, import_layers, layer_time, one_shot_sweep,
                    summarise)

#: scenario -> (swept parameter, values); every point takes milliseconds
POOL = {"E1": ("n_jobs", (10, 20, 30, 40)),
        "A3": ("n_classes", (3, 4, 5, 6)),
        "E16": ("m", (2, 3, 4, 5))}
#: the kind left out of catalogue_light_s
HEAVY = "fresh"


@dataclass
class Job:
    kind: str
    scenario: str
    values: tuple
    replications: int
    seed: int  # root seed of round 0

    def submission(self, round_no: int) -> dict:
        axis = POOL[self.scenario][0]
        return {"schema": "repro.serve/v1",
                "spec": {"scenario_id": self.scenario, "axes": {axis: list(self.values)}},
                "run": {"replications": self.replications, "seed": self.seed + 1000 * round_no}}


def make_round(ctx: Ctx) -> list[Job]:
    """The job mix every round repeats.

    Per scenario: a fresh 3-point grid at 2 replications, an overlapping
    grid (two shared points, one new) at 3 replications under the same
    root seed, and an identical resubmission of the fresh grid.  All
    fresh grids go first, then the overlaps, then the resubmissions.  The
    seed draws each scenario's root seed, so it changes every sample
    while the amount of work, and the order it arrives in, stay fixed.
    """
    rng = ctx.rng("serve.mix")
    fresh, overlap, again = [], [], []
    for sid, (_, values) in POOL.items():
        seed = rng.randrange(1000)
        fresh.append(Job("fresh", sid, values[:3], 2, seed))
        overlap.append(Job("overlap", sid, values[1:], 3, seed))
        again.append(Job("resubmit", sid, values[:3], 2, seed))
    return fresh + overlap + again


@dataclass
class Done:
    job: Job
    round_no: int
    traced: bool
    t0: float
    t1: float = 0.0
    job_id: str = ""
    created: bool = False
    document: bytes = b""
    marks: dict = field(default_factory=dict)  # traced: accepted/running/finished


def _drive(client, done: Done, poll_s: float = 0.002) -> None:
    """Submit one job, follow it to the end, fetch its document."""
    resp = client.submit(done.job.submission(done.round_no))
    done.job_id, done.created = resp["job_id"], resp["created"]
    if done.traced:
        done.marks["accepted"] = time.perf_counter()
        while client.status(done.job_id)["state"] == "queued":
            time.sleep(poll_s)
        done.marks["running"] = time.perf_counter()
    for event in client.events(done.job_id):
        if event["event"] == "end" and event["state"] != "done":
            raise RuntimeError(f"job {done.job_id} ended {event['state']}")
    if done.traced:
        done.marks["finished"] = time.perf_counter()
    done.document = client.fetch(done.job_id)
    done.t1 = time.perf_counter()


def _closed_loop(ctx: Ctx, client, jobs: list[Done]) -> None:
    """Run ``jobs`` with two outstanding at a time; failures are recorded."""
    queue = iter(jobs)
    lock = threading.Lock()

    def worker() -> None:
        while True:
            with lock:
                done = next(queue, None)
            if done is None:
                return
            done.t0 = time.perf_counter()
            try:
                _drive(client, done)
            except Exception as exc:  # noqa: BLE001 - any error fails the job
                ctx.fail(f"{done.job.kind} job {done.job_id or '?'}: {type(exc).__name__}: {exc}")
                done.t1 = 0.0

    threads = [threading.Thread(target=worker) for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()


class Daemon:
    """One ``repro-serve start`` subprocess on its own state directory."""

    def __init__(self, ctx: Ctx, name: str) -> None:
        self.dir = ctx.tmp / name
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.serve.cli", "start", "--dir", str(self.dir),
             "--port", "0", "--workers", "1"],
            cwd=ctx.tmp, env=ctx.env, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True)
        ctx.procs.append(self.proc)
        watchdog = threading.Timer(60, self.proc.kill)
        watchdog.start()
        try:
            for line in self.proc.stdout:
                if "listening on " in line:
                    self.url = line.split("listening on ", 1)[1].strip()
                    break
            else:
                raise RuntimeError(f"daemon exited {self.proc.wait()} before listening")
        finally:
            watchdog.cancel()
        self.ready = time.perf_counter()
        threading.Thread(target=self.proc.stdout.read, daemon=True).start()

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
        raise RuntimeError("no VmHWM for the daemon")

    def stop(self, ctx: Ctx, client) -> None:
        client.shutdown()
        self.proc.wait(timeout=30)
        ctx.procs.remove(self.proc)


def run(ctx: Ctx) -> tuple[dict, dict, dict]:
    from repro.serve.client import ServeClient

    layers = import_layers(ctx) if ctx.trace else {}
    setup: list[Op] = []
    for i in range(3):
        ctx.ref.window()
        t0 = time.perf_counter()
        daemon = Daemon(ctx, f"daemon-{i}")
        setup.append(Op("setup", t0, daemon.ready))
        client = ServeClient(daemon.url, timeout=60)
        ctx.ref.watch = [daemon.proc.pid]
        ctx.ref.window()
        if i < 2:
            daemon.stop(ctx, client)

    template = make_round(ctx)
    finished: list[Done] = []
    busy: list[tuple[float, float]] = []
    start = time.perf_counter()
    round_no = 0
    while round_no < 2 or time.perf_counter() - start < ctx.seconds:
        traced = ctx.trace and round_no % 2 == 1
        jobs = [Done(job, round_no, traced, 0.0) for job in template]
        ctx.attempted += len(jobs)
        t0 = time.perf_counter()
        _closed_loop(ctx, client, jobs)
        if not traced:
            busy.append((t0, time.perf_counter()))
        ctx.ref.window()
        finished += [d for d in jobs if d.t1]
        round_no += 1

    statuses = {s["job_id"]: s for s in client.jobs()}
    peak = daemon.peak_rss_mb()
    daemon.stop(ctx, client)
    ctx.ref.watch = []
    _check_documents(ctx, finished, layers)

    ops = [Op(d.job.kind, d.t0, d.t1, d.traced) for d in finished]
    adjusted, raw, info = summarise(ctx, setup=setup, ops=ops, heavy=HEAVY, busy=busy,
                                    peak_rss_mb=peak)
    if ctx.trace:
        layers.update(_layer_metrics(ctx, daemon, template, finished, statuses))
    return adjusted, raw, {**info, **layers}


def _check_documents(ctx: Ctx, finished: list[Done], layers: dict) -> None:
    """Every served document against the canonical one-shot ``run_sweep``
    document for the same spec.  The one-shot runs share an in-memory
    sample store, which saves re-simulating overlapping points; canonical
    documents do not depend on the cache state."""
    from repro.experiments.store import MemoryStore

    store = MemoryStore()
    expected: dict[str, bytes] = {}
    canonical_s = 0.0
    document_bytes = 0
    for d in finished:
        if d.job_id not in expected:
            sub = d.job.submission(d.round_no)
            result, config = one_shot_sweep(sub["spec"], **sub["run"], cache=store)
            t0 = time.perf_counter()
            expected[d.job_id] = canonical_bytes(result, config)
            if d.round_no == 0:
                canonical_s += ctx.ref.adjust(t0, time.perf_counter())
                document_bytes += len(expected[d.job_id])
        if d.document != expected[d.job_id]:
            ctx.fail(f"served document of {d.job_id} differs from the one-shot document")
    layers["report.canonical_s"] = canonical_s
    layers["report.document_bytes"] = document_bytes


def _layer_metrics(ctx, daemon, template, finished, statuses) -> dict[str, float]:
    from repro.experiments.store import SampleStore
    from repro.serve.jobs import parse_submission

    out: dict[str, float] = {}
    first = [d for d in finished if d.round_no == 0]
    # client-side spans of the traced rounds, one operation per job
    traced = [d for d in finished if d.traced]
    for d in traced:
        m = d.marks
        for name, a, b in (("serve.submit", d.t0, m["accepted"]),
                           ("serve.queue_wait", m["accepted"], m["running"]),
                           ("serve.execute", m["running"], m["finished"]),
                           ("serve.fetch", m["finished"], d.t1)):
            ctx.tracer.add(name, a, b, op=d.job_id)
    spans = ctx.tracer.by_name()
    for name in ("serve.submit", "serve.queue_wait", "serve.execute", "serve.fetch"):
        out[f"{name}_s"] = statistics.median(
            ctx.ref.adjust(s["start"], s["end"]) for s in spans[name])
    lat = lambda ds: statistics.median(ctx.ref.adjust(d.t0, d.t1) for d in ds)  # noqa: E731
    out["trace.overhead_ratio"] = lat(traced) / lat([d for d in finished if not d.traced])

    # counts of round 0, which every round repeats
    distinct = {d.job_id for d in first}
    out["serve.jobs_deduped"] = sum(not d.created for d in first)
    out["serve.reps_simulated"] = sum(statuses[j]["simulated_replications"] for j in distinct)
    out["serve.reps_cached"] = sum(statuses[j]["cached_replications"] for j in distinct)
    out["serve.store_hit_ratio"] = out["serve.reps_cached"] / (
        out["serve.reps_cached"] + out["serve.reps_simulated"])

    # in-process replay of round 0's traffic through the layers the daemon uses
    live = SampleStore(daemon.dir / "store")
    replay = SampleStore(ctx.tmp / "replay-store")
    for job in template:
        sub = job.submission(0)
        with ctx.tracer.span("jobs.parse", op="replay"):
            parsed = parse_submission(sub)
        with ctx.tracer.span("sweeps.expand", op="replay"):
            points = parsed.spec.expand()
        for p in points:
            params = parsed.spec.resolve().params(p.overrides)
            with ctx.tracer.span("store.load", op="replay"):
                rows = live.load(p.scenario_id, params, sub["run"]["seed"])
            if not rows:
                ctx.fail(f"daemon store lacks {p.scenario_id} {p.overrides}")
                continue
            with ctx.tracer.span("store.save", op="replay"):
                replay.save(p.scenario_id, params, sub["run"]["seed"], rows)
    spans = ctx.tracer.by_name()
    for name in ("jobs.parse", "sweeps.expand", "store.load", "store.save"):
        out[f"{name}_s"] = layer_time(ctx, spans[name])
    files = [f for f in (ctx.tmp / "replay-store").rglob("*") if f.is_file()]
    out["store.entries"] = len(files)
    out["store.bytes"] = sum(f.stat().st_size for f in files)
    return out
