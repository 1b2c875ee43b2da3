"""Self-tests of the benchmark itself (not part of the repository's suite).

    python3 -m pytest perfbench/selftest.py -q

The fast tests cover the input generators, the idle-CPU guard, the
``-X importtime`` parser and the span arithmetic.  The tests marked
``slow`` run the traced workloads twice per seed (a few minutes) and
check that the exact counts repeat; deselect them with ``-m 'not slow'``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import drift  # noqa: E402
from common import Ctx, import_tree, _package_s, tail  # noqa: E402
from spans import Tracer  # noqa: E402


def ctx_for(seed: int, tmp_path: Path) -> Ctx:
    return Ctx(root=ROOT, tmp=tmp_path, seed=seed, seconds=1, trace=False)


def run_bench(workload: str, seed: int, trace: int, cwd: Path = ROOT) -> tuple[int, str]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300)
    return proc.returncode, proc.stdout


# -- generated inputs ---------------------------------------------------------

def test_seed_fixes_and_changes_the_inputs(tmp_path):
    import w_cli
    import w_serve

    a, b, c = (ctx_for(s, tmp_path) for s in (1, 1, 2))
    assert w_serve.make_round(a) == w_serve.make_round(b)
    assert w_serve.make_round(a) != w_serve.make_round(c)
    assert w_cli._sweep_spec(a) == w_cli._sweep_spec(b)
    assert w_cli._sweep_spec(a) != w_cli._sweep_spec(c)
    assert a.rng("catalogue").randrange(10**6) != c.rng("catalogue").randrange(10**6)
    kinds = [j.kind for j in w_serve.make_round(a)]
    assert sorted(kinds) == sorted(["fresh", "overlap", "resubmit"] * len(w_serve.POOL))


def test_every_round_references_only_earlier_jobs(tmp_path):
    import w_serve

    for seed in range(20):
        jobs = w_serve.make_round(ctx_for(seed, tmp_path))
        assert jobs[0].kind == "fresh"
        for i, job in enumerate(jobs):
            if job.kind != "fresh":
                assert any(p.scenario == job.scenario and p.seed == job.seed
                           for p in jobs[:i] if p.kind == "fresh")


# -- the idle-CPU guard ---------------------------------------------------------

def test_guard_passes_when_idle():
    ref = drift.Reference()
    assert ref.window()
    assert ref.invalid == 0 and ref.idle_cpu_share < drift.IDLE_LIMIT


def test_guard_trips_on_a_background_thread():
    stop = threading.Event()

    def burn():
        while not stop.is_set():
            sum(range(1000))

    burner = threading.Thread(target=burn)
    burner.start()
    try:
        ref = drift.Reference()
        assert not ref.window()
    finally:
        stop.set()
        burner.join()
    assert ref.invalid == 1 and ref.idle_cpu_share > drift.IDLE_LIMIT


def test_guard_trips_on_a_watched_process():
    burner = subprocess.Popen([sys.executable, "-c", "while True: pass"])
    try:
        time.sleep(0.2)
        ref = drift.Reference(watch=[burner.pid])
        assert not ref.window()
    finally:
        burner.kill()
        burner.wait()
    assert ref.invalid == 1


def test_adjustment_uses_the_windows_around_an_operation():
    ref = drift.Reference()
    ref.windows = [drift.Window(t, unit, 0.1, 0.0) for t, unit in
                   ((0.0, 0.010), (10.0, 0.020), (20.0, 0.020))]
    assert ref.adjust(0.5, 9.5) == pytest.approx(9.0 * drift.REF_NOMINAL_S / 0.015)
    assert ref.adjust(10.5, 19.5) == pytest.approx(9.0 * drift.REF_NOMINAL_S / 0.020)


# -- parsers and span arithmetic -----------------------------------------------

def test_importtime_tree():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     scipy.stats._a",
        "import time:       200 |        200 |     scipy.stats._b",
        "import time:        50 |        350 |   repro.utils.stats",
        "import time:        10 |        360 | repro.utils",
        "import time:         5 |          5 | json",
    ])
    roots = import_tree(stderr)
    assert [r[0] for r in roots] == ["repro.utils", "json"]
    assert _package_s(roots, "scipy.stats") == pytest.approx(300e-6)
    assert _package_s(roots, "repro") == pytest.approx(360e-6)


def test_tail_needs_ten_samples_beyond():
    assert tail(list(range(19))) == (9, 50)
    assert tail(list(range(1, 41)))[1] == 75
    assert tail(list(range(1, 1001)))[1] == 99


def test_self_time_subtracts_children():
    tracer = Tracer()
    tracer.spans = [
        {"id": 0, "name": "scenario", "op": "x", "parent": None, "start": 0.0, "end": 10.0},
        {"id": 1, "name": "sim", "op": "x", "parent": 0, "start": 1.0, "end": 7.0},
        {"id": 2, "name": "stats", "op": "x", "parent": 0, "start": 7.0, "end": 8.0},
    ]
    assert tracer.self_times() == {0: 3.0, 1: 6.0, 2: 1.0}


# -- whole runs ---------------------------------------------------------------

def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    code, out = run_bench("catalogue", 1, 0, cwd=tmp_path)
    assert code != 0 and out.strip() == ""


EXACT = ("import.modules", "sim.reps", "serve.reps_simulated", "serve.reps_cached",
         "serve.jobs_deduped", "store.entries", "report.document_bytes")


@pytest.mark.slow
@pytest.mark.parametrize("workload", ["serve_mixed", "catalogue"])
def test_exact_counts_repeat(workload):
    runs = []
    for _ in range(2):
        code, out = run_bench(workload, 5, 1)
        result = json.loads(out.splitlines()[-1])
        assert code == 0 and result["correct"] and result["failed"] == 0
        runs.append({k: result["metrics"][k]["value"] for k in EXACT})
    assert runs[0] == runs[1]
    # the layers each workload exercises report real counts
    zero = {"serve_mixed": {"sim.reps"},
            "catalogue": {k for k in EXACT if k.startswith(("serve.", "store."))}}[workload]
    assert {k for k, v in runs[0].items() if v == 0} == zero
