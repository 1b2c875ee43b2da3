"""Coverage guards: every built-in scenario must have a benchmark
consumer, and every vectorized kernel must hold the a04 speedup floor.

The benchmarks under ``benchmarks/bench_*.py`` are the human-facing
claim-vs-measured tables; the registry is the machine-facing catalogue.
The first pair of tests keeps them in lock: a scenario added to a
built-in pack without a ``bench_*.py`` file that consumes it
(``get_scenario("<id>")``) fails here, as does a benchmark referencing an
id the registry no longer knows.

A vectorized kernel is a second, bit-identical implementation of a
scenario the event path already runs, so it must earn its code by being
faster.  The floor guard reads the newest committed full
``a04_vectorized_speedup`` record in ``BENCH_a0x.json``: every
registered kernel needs a recorded speedup of at least 1.5x there, and
``benchmarks/bench_a04_vectorized_speedup.py`` must carry a row for it
(its BATCH table is asserted in sync with the registry).  A scenario
without a kernel is fine: ``auto`` runs it on the event path.

The benchmark-consumer requirement is scoped to *built-in* packs: an
entry-point pack on ``PYTHONPATH`` (e.g. ``examples/demo_pack``) ships
its own benchmarks, if any.  The pack-level guards at the bottom instead
hold for every discovered pack, third-party included.
"""

from __future__ import annotations

import re
from pathlib import Path

from repro.bench import latest_record, load_trajectory
from repro.experiments import discovered_packs, kernel_ids, pack_info, scenario_ids
from repro.sim.vectorized import KERNEL_MODES, get_kernel

BENCH_DIR = Path(__file__).parent.parent / "benchmarks"
TRAJECTORY = Path(__file__).parent.parent / "BENCH_a0x.json"
# the speedup a kernel must hold to keep its place (bench a04's floor)
KERNEL_FLOOR = 1.5
_GET_SCENARIO = re.compile(r"""get_scenario\(\s*["']([A-Za-z]+\d+)["']\s*\)""")


def _builtin_ids() -> list[str]:
    """Scenario ids owned by the built-in packs, in registry order."""
    builtin = {
        sid
        for pack, source in discovered_packs()
        if source == "builtin"
        for sid in pack.scenarios
    }
    return [sid for sid in scenario_ids() if sid.upper() in builtin]


def _consumed_ids() -> dict[str, list[str]]:
    consumers: dict[str, list[str]] = {}
    for path in sorted(BENCH_DIR.glob("bench_*.py")):
        for sid in _GET_SCENARIO.findall(path.read_text()):
            consumers.setdefault(sid.upper(), []).append(path.name)
    return consumers


def test_every_builtin_scenario_has_a_benchmark_consumer():
    consumers = _consumed_ids()
    missing = [sid for sid in _builtin_ids() if sid not in consumers]
    assert not missing, (
        f"built-in scenarios without a benchmarks/bench_*.py consumer: "
        f"{missing}; add a registry-driven benchmark (see bench_e01_wsept.py)"
    )


def test_no_benchmark_references_an_unknown_scenario():
    known = set(scenario_ids())
    unknown = {
        sid: files for sid, files in _consumed_ids().items() if sid not in known
    }
    assert not unknown, f"benchmarks reference unregistered scenarios: {unknown}"


def test_every_kernel_holds_the_a04_floor():
    rec = latest_record(load_trajectory(TRAJECTORY), "a04_vectorized_speedup", "full")
    assert rec is not None, "BENCH_a0x.json must keep a full a04 record"
    for sid in kernel_ids():
        metric = rec["metrics"].get(f"{sid}.speedup")
        assert metric is not None, (
            f"kernel {sid} has no speedup in the newest full a04 record; "
            f"run bench_a04_vectorized_speedup.py with REPRO_BENCH_RECORD=1"
        )
        assert metric["floor"] >= KERNEL_FLOOR, (sid, metric["floor"])
        assert metric["value"] >= metric["floor"], (
            f"kernel {sid} measured {metric['value']:.2f}x, under its "
            f"{metric['floor']}x floor: speed it up or delete it"
        )


def test_every_kernel_declares_a_known_mode_and_a_note():
    for sid in kernel_ids():
        kernel = get_kernel(sid)
        assert kernel.mode in KERNEL_MODES
        assert kernel.note, f"kernel {sid} should document its strategy"


def test_bench_a04_covers_every_builtin_kernel():
    text = (BENCH_DIR / "bench_a04_vectorized_speedup.py").read_text()
    quoted = set(re.findall(r"""["']([AE]\d+)["']""", text))
    missing = sorted(
        set(_builtin_ids()) & set(kernel_ids()) - quoted
    )
    assert not missing, (
        f"bench_a04_vectorized_speedup.py BATCH table lacks kernels: {missing}"
    )


# ---------------------------------------------------------------------------
# pack-level guards: hold for every discovered pack, third-party included
# ---------------------------------------------------------------------------


def test_every_discovered_pack_manifest_validates():
    packs = discovered_packs()
    assert packs, "no scenario packs discovered"
    for pack, _source in packs:
        pack.validate()  # raises PackError on a malformed manifest


def test_every_registered_scenario_belongs_to_a_discovered_pack():
    owned = {
        sid.upper()
        for pack, _source in discovered_packs()
        for sid in pack.scenarios
    }
    orphans = [sid for sid in scenario_ids() if sid.upper() not in owned]
    assert not orphans, f"scenarios registered outside any pack: {orphans}"
    for sid in scenario_ids():
        name, version = pack_info(sid)
        assert name != "unpackaged", f"{sid} has no pack provenance"
        assert version
