"""CircuitStart reproduction — a slow start for multi-hop anonymity systems.

A Python reproduction of Döpmann & Tschorsch, "CircuitStart: A Slow
Start For Multi-Hop Anonymity Systems" (SIGCOMM Posters and Demos 2018).
The package root exports the unified experiment API only; everything
else is imported from the subpackage that defines it (``repro.sim``,
``repro.net``, ``repro.tor``, ``repro.transport``, ``repro.core``,
``repro.analysis``, ``repro.scenario``, ``repro.experiments``,
``repro.jobs``, ``repro.report``).

Quickstart::

    from repro import BatchJob, get_experiment, run_batch
    from repro.experiments import TraceConfig

    result = get_experiment("trace").run(TraceConfig(bottleneck_distance=1))
    payload = result.to_dict()   # JSON round-trips via .from_dict()
    batch = run_batch([BatchJob("trace", TraceConfig(bottleneck_distance=d))
                       for d in (1, 2, 3)], workers=3)
"""

from importlib import import_module
from typing import Any

__version__ = "1.0.0"

__all__ = [
    "BatchJob",
    "RunContext",
    "get_experiment",
    "iter_experiments",
    "run_batch",
]


def __getattr__(name: str) -> Any:
    """Resolve a re-export from :mod:`repro.experiments` on first use.

    Module-level ``__getattr__`` (PEP 562): ``import repro`` loads this
    module alone, and a run pays only for the subpackages it touches.
    """
    if name not in __all__:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    value = globals()[name] = getattr(import_module(".experiments", __name__), name)
    return value
