"""The run configuration: the eight settings every run shares.

:class:`RunConfig` declares, defaults and validates ``replications``,
``seed``, ``workers``, ``backend``, ``level``, ``target_precision``,
``min_reps`` and ``max_reps`` once, for the library entry points, the
serving daemon and the CLIs.  :func:`add_run_flags` declares the matching
command-line flags once; :meth:`RunConfig.from_args` reads them back and
reports an invalid setting as a :class:`CliError` (exit 2).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, fields
from numbers import Integral, Real
from typing import TYPE_CHECKING, Any

from repro.experiments.backends import BACKENDS
from repro.sim.sequential import DEFAULT_MAX_REPS, DEFAULT_MIN_REPS, PrecisionTarget

if TYPE_CHECKING:
    import argparse

    import numpy as np

__all__ = ["CliError", "RunConfig", "add_run_flags"]


class CliError(Exception):
    """A user-facing CLI error (printed without a traceback, exit 2)."""


@dataclass(frozen=True)
class RunConfig:
    """The eight run settings every entry point shares, validated once.

    This is the one place their names, defaults and rules live:
    :func:`~repro.experiments.runner.run_scenario`,
    :func:`~repro.experiments.runner.run_scenarios`,
    :func:`~repro.experiments.sweeps.run_sweep` and
    :func:`~repro.experiments.sweeps.sweep_run_config` collect them as
    keyword arguments into a ``RunConfig``, the CLIs declare them once
    (:func:`add_run_flags`) and read them back with
    :meth:`from_args`, and a served job's ``run`` block is one.  An
    invalid setting raises ``ValueError`` before any work starts; the
    message starts with the name of the field it rejects, which the CLIs
    and the daemon rely on to name the flag or ``run.<field>``.  Values keep the type they were given (an int
    ``target_precision`` stays an int), because a served job's id hashes
    :meth:`to_dict`.

    Attributes
    ----------
    replications:
        Number of independent replications: an integer (not a bool), at
        least 1.  Ignored when ``target_precision`` is given (the
        controller picks ``n``).
    seed:
        Root seed (an int or a fresh ``SeedSequence``); replication ``i``
        always sees the same stream for a given root seed, independent of
        ``workers``.  ``None`` draws fresh OS entropy.
    workers:
        Process count for the fan-out; ``None``/0 means all cores, 1 runs
        serially in-process.
    backend:
        ``"event"``, ``"vectorized"`` or ``"auto"``.  Vectorized kernels
        are bit-for-bit equivalent to the event path (enforced by the
        cross-backend test harness), so ``"auto"`` (use the kernel when
        one exists) never changes results, only wall-clock time.
        Requesting ``"vectorized"`` for a scenario without a kernel (or
        for an ad-hoc, unregistered scenario object) raises
        :class:`~repro.experiments.backends.MissingKernelError` naming
        the scenario instead of silently running the event engine.
    level:
        Confidence level for the per-metric intervals (and the adaptive
        stopping rule); must lie strictly inside (0, 1).
    target_precision:
        Switch to adaptive sequential replication: a
        :class:`~repro.sim.sequential.PrecisionTarget`, or a bare number
        > 0 meaning a relative half-width target for every reported
        metric.  Replications run in growing chunks until the target is
        met (or ``max_reps`` is hit); the achieved ``n`` is recorded in
        ``n_replications`` and the outcome in ``ScenarioResult.precision``.
        Stopping at ``n`` yields samples bit-identical to a fixed-``n``
        run with the same seed, for any worker count and either backend.
    min_reps, max_reps:
        Bounds for the adaptive controller, only valid together with
        ``target_precision``.  After the ``DEFAULT_MIN_REPS``/
        ``DEFAULT_MAX_REPS`` fallback, ``min_reps >= 2`` (an interval
        needs two samples) and ``max_reps >= min_reps``.
    """

    replications: int = 10
    seed: int | np.random.SeedSequence | None = 0
    workers: int | None = 1
    backend: str = "auto"
    level: float = 0.95
    target_precision: PrecisionTarget | float | None = None
    min_reps: int | None = None
    max_reps: int | None = None

    def __post_init__(self) -> None:
        def integer(value: Any) -> bool:
            return isinstance(value, Integral) and not isinstance(value, bool)

        def number(value: Any) -> bool:
            return isinstance(value, Real) and not isinstance(value, bool)

        if not (integer(self.replications) and self.replications >= 1):
            raise ValueError(
                f"replications must be an integer >= 1, got {self.replications!r}"
            )
        if not (self.workers is None or integer(self.workers) and self.workers >= 0):
            raise ValueError(
                f"workers must be an integer >= 0 (0 = all cores), "
                f"got {self.workers!r}"
            )
        if self.backend not in BACKENDS:
            raise ValueError(
                f"backend must be one of {BACKENDS}, got {self.backend!r}"
            )
        if not (number(self.level) and 0 < self.level < 1):
            raise ValueError(
                f"level must lie strictly inside (0, 1), got {self.level!r}; "
                f"e.g. 0.95 for a 95% confidence interval"
            )
        tp = self.target_precision
        if tp is None:
            for name in ("min_reps", "max_reps"):
                if getattr(self, name) is not None:
                    raise ValueError(f"{name} requires target_precision")
            return
        if not (isinstance(tp, PrecisionTarget) or number(tp) and tp > 0):
            raise ValueError(
                f"target_precision must be a number > 0 or a PrecisionTarget, "
                f"got {tp!r}"
            )
        for name in ("min_reps", "max_reps"):
            value = getattr(self, name)
            if not (value is None or integer(value)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        lo = DEFAULT_MIN_REPS if self.min_reps is None else self.min_reps
        hi = DEFAULT_MAX_REPS if self.max_reps is None else self.max_reps
        if lo < 2:
            raise ValueError(
                f"min_reps must be at least 2 (an interval needs two "
                f"samples), got {lo}"
            )
        if hi < lo:
            raise ValueError(f"max_reps ({hi}) must be >= min_reps ({lo})")

    def to_dict(self) -> dict[str, Any]:
        """The eight settings by name, values exactly as given."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_args(cls, args: Any) -> "RunConfig":
        """Build from the namespace :func:`add_run_flags` filled; an
        invalid setting becomes a :class:`CliError` naming the flags."""
        try:
            return cls(**{f.name: getattr(args, f.name) for f in fields(cls)})
        except ValueError as exc:
            flag = re.compile(r"\b(" + "|".join(f.name for f in fields(cls)) + r")\b")
            message = flag.sub(lambda m: "--" + m[1].replace("_", "-"), str(exc))
            raise CliError(message) from exc


def add_run_flags(parser: argparse.ArgumentParser) -> None:
    """Add the eight :class:`RunConfig` flags, with its defaults, to
    ``parser``; :meth:`RunConfig.from_args` reads them back.  Shared by
    ``repro-experiments run``, ``repro-sweep run`` and ``repro-serve
    submit``."""
    parser.add_argument(
        "--replications",
        type=int,
        default=RunConfig.replications,
        help="replications per scenario or sweep point",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=RunConfig.seed,
        help="root seed (shared by every scenario and sweep point: common "
        "random numbers)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=RunConfig.workers,
        help="worker processes (0 = all cores); results are identical "
        "for every worker count",
    )
    parser.add_argument(
        "--backend",
        choices=BACKENDS,
        default=RunConfig.backend,
        help="simulation backend: the per-replication event engine, the "
        "batched vectorized kernels (an error for scenarios without a "
        "kernel), or auto (kernel when one exists, event otherwise); "
        "backends are bit-for-bit equivalent, so this only changes speed",
    )
    parser.add_argument(
        "--level", type=float, default=RunConfig.level, help="confidence level"
    )
    parser.add_argument(
        "--target-precision",
        type=float,
        default=RunConfig.target_precision,
        metavar="REL",
        help="adaptive mode: grow the replication count until every "
        "metric's relative CI half-width is <= REL (a deterministic "
        "metric counts as met); --replications is ignored, the achieved "
        "n is reported per scenario or point",
    )
    parser.add_argument(
        "--min-reps",
        type=int,
        default=RunConfig.min_reps,
        help="adaptive mode: first evaluation point (default "
        f"{DEFAULT_MIN_REPS}); requires --target-precision",
    )
    parser.add_argument(
        "--max-reps",
        type=int,
        default=RunConfig.max_reps,
        help="adaptive mode: hard replication cap (default "
        f"{DEFAULT_MAX_REPS}); requires --target-precision",
    )
