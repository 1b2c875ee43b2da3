"""repro — a stochastic-scheduling library.

A production-quality reproduction of the systems surveyed in
J. Niño-Mora, *Stochastic Scheduling* (Encyclopedia of Optimization, 2001):

* :mod:`repro.batch` — scheduling a batch of stochastic jobs (WSEPT, SEPT,
  LEPT, Sevcik's preemptive index, parallel/uniform machines, flow shops,
  in-tree precedence, turnpike analysis);
* :mod:`repro.bandits` — multi-armed bandits (Gittins index, restless
  bandits and the Whittle index, LP relaxations, switching costs);
* :mod:`repro.queueing` — queueing scheduling control (cµ rule, Klimov's
  model, conservation laws / achievable region, multiclass networks,
  stability, fluid models, heavy traffic, polling);
* :mod:`repro.core` — the unifying priority-index policy framework;
* substrates: :mod:`repro.distributions`, :mod:`repro.markov`,
  :mod:`repro.mdp`, :mod:`repro.sim`, :mod:`repro.utils`.
"""

# The single source of the package version: pyproject.toml reads it
# through [tool.setuptools.dynamic].  The sample store is keyed on each
# scenario's *pack* version (repro/experiments/packs), so bump a pack's
# version when its simulate output changes; this package version keys
# only scenarios registered outside any pack.
__version__ = "1.6.0"

from repro import batch, core, distributions, markov, mdp, sim, utils  # noqa: F401

__all__ = [
    "batch",
    "bandits",
    "queueing",
    "core",
    "distributions",
    "markov",
    "mdp",
    "sim",
    "utils",
    "experiments",
    "__version__",
]


def __getattr__(name):
    # bandits, queueing and experiments are imported lazily so a partial
    # checkout of the light subpackages stays importable (experiments pulls
    # in every subsystem through its scenario catalogue).
    if name in ("bandits", "queueing", "experiments"):
        import importlib

        return importlib.import_module(f"repro.{name}")
    raise AttributeError(f"module 'repro' has no attribute {name!r}")
