"""Machine-speed drift cancellation and the idle-CPU guard.

A fixed pure-Python reference loop is timed in short *windows* between the
operations of a run, only while the program under test has no work in
flight.  Every operation's wall time is then reported in
reference-adjusted seconds::

    adjusted = raw * REF_NOMINAL_S / reference measured around the operation

so a host that runs everything 20 % slower for a few seconds (CPU
frequency, noisy neighbours) moves the reference and the operation
together and the adjusted figure stays put.

The guard keeps that adjustment honest: a window is only valid when
nothing but the reference loop burned CPU during it.  Other threads of
this process (``time.process_time`` minus the loop's ``time.thread_time``)
and every watched process (``/proc/<pid>/stat`` utime+stime, e.g. the
serving daemon) must stay below ``IDLE_LIMIT`` of the window's wall time;
otherwise the window is retried and, when every attempt is dirty, counted
as a failed operation.  Without the guard, a change that leaves work
running in the background would slow the reference, shrink the adjusted
times and so hide its own cost.
"""

from __future__ import annotations

import os
import statistics
import time
from dataclasses import dataclass, field

#: loop length; one call takes roughly REF_NOMINAL_S on a 2-core x86 VM
REF_LOOP_N = 120_000
#: the fixed nominal duration of one reference call (seconds)
REF_NOMINAL_S = 0.010
#: reference calls per window (the window reports their median)
CALLS_PER_WINDOW = 5
#: share of a window's wall time other CPU may take before it is dirty
IDLE_LIMIT = 0.3
#: attempts per window before a dirty reference counts as a failure
ATTEMPTS = 3
#: default for Reference.reach_s
REACH_S = 5.0

_CLK_TCK = os.sysconf("SC_CLK_TCK")


def reference_loop(n: int = REF_LOOP_N) -> int:
    """The fixed unit of pure-Python work the host's speed is read from."""
    acc = 0
    for i in range(n):
        acc = (acc * 31 + i) & 0xFFFF
    return acc


def proc_cpu_seconds(pid: int) -> float:
    """utime + stime of process ``pid`` (0.0 once it has exited)."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
    except OSError:
        return 0.0
    return (int(fields[11]) + int(fields[12])) / _CLK_TCK


@dataclass
class Window:
    t: float  # perf_counter at the window's midpoint
    unit_s: float  # median reference call
    wall_s: float
    other_cpu_s: float

    @property
    def clean(self) -> bool:
        return self.other_cpu_s <= IDLE_LIMIT * self.wall_s


@dataclass
class Reference:
    """Reference windows of one run, and the adjustment they imply.

    ``watch`` holds pids whose CPU counts against idleness (the daemon).
    The windows within ``reach_s`` of an operation (or within its own
    duration, if longer) feed its reference.  A single neighbouring window
    is too noisy: one vCPU's speed swings by +-15 % from one half-second to
    the next.  The median over a few seconds of windows tracks the slower
    drift.
    """

    watch: list[int] = field(default_factory=list)
    reach_s: float = REACH_S
    windows: list[Window] = field(default_factory=list)
    invalid: int = 0  # windows dirty on every attempt

    def _measure(self) -> Window:
        w0 = time.perf_counter()
        p0 = time.process_time()
        t0 = time.thread_time()
        c0 = sum(proc_cpu_seconds(pid) for pid in self.watch)
        calls = []
        for _ in range(CALLS_PER_WINDOW):
            s = time.perf_counter()
            reference_loop()
            calls.append(time.perf_counter() - s)
        thread = time.thread_time() - t0
        other = time.process_time() - p0 - thread
        other += sum(proc_cpu_seconds(pid) for pid in self.watch) - c0
        w1 = time.perf_counter()
        return Window((w0 + w1) / 2, statistics.median(calls), w1 - w0, max(other, 0.0))

    def window(self) -> bool:
        """Time one reference window; False when it stayed dirty."""
        for attempt in range(ATTEMPTS):
            w = self._measure()
            self.windows.append(w)
            if w.clean:
                return True
            time.sleep(0.02 * (attempt + 1))
        self.invalid += 1
        return False

    def factor(self, t0: float, t1: float) -> float:
        """REF_NOMINAL_S / the reference around the interval [t0, t1]."""
        clean = [w for w in self.windows if w.clean]
        if not clean:
            raise RuntimeError("no clean reference window in this run")
        reach = max(self.reach_s, t1 - t0)
        near = [w.unit_s for w in clean if t0 - reach <= w.t <= t1 + reach]
        if len(near) < 2:
            before = [w for w in clean if w.t <= t0]
            after = [w for w in clean if w.t >= t1]
            near += [w.unit_s for w in before[-1:] + after[:1]]
        return REF_NOMINAL_S / statistics.median(near or [clean[-1].unit_s])

    def adjust(self, t0: float, t1: float) -> float:
        """Reference-adjusted seconds of the operation that ran in [t0, t1]."""
        return (t1 - t0) * self.factor(t0, t1)

    @property
    def idle_cpu_share(self) -> float:
        wall = sum(w.wall_s for w in self.windows)
        return sum(w.other_cpu_s for w in self.windows) / wall if wall else 0.0

    @property
    def unit_ms(self) -> float:
        """Median clean reference call, in milliseconds."""
        clean = [w.unit_s for w in self.windows if w.clean]
        return 1e3 * statistics.median(clean) if clean else float("nan")
