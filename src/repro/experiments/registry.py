"""The global experiment registry.

Experiments self-register at import time via :func:`register_experiment`;
everything downstream — CLI subcommand generation, ``repro batch``
sweeps, the report — discovers them here instead of importing each
harness by hand::

    from repro.experiments import get_experiment

    result = get_experiment("trace").run(TraceConfig(bottleneck_distance=3))

Importing :mod:`repro.experiments` registers the full set; the registry
rejects duplicate names so every experiment is registered exactly once.
"""

from __future__ import annotations

from typing import Dict, List, Type

from .api import Experiment

__all__ = [
    "get_experiment",
    "iter_experiments",
    "register_experiment",
]

_REGISTRY: Dict[str, Experiment] = {}


def register_experiment(cls: Type[Experiment]) -> Type[Experiment]:
    """Class decorator: instantiate *cls* and add it to the registry."""
    experiment = cls()
    if not experiment.name:
        raise ValueError("experiment %s has no name" % cls.__name__)
    if experiment.spec_type is None or experiment.result_type is None:
        raise ValueError(
            "experiment %r must declare spec_type and result_type"
            % experiment.name
        )
    if experiment.name in _REGISTRY:
        raise ValueError("experiment %r already registered" % experiment.name)
    _REGISTRY[experiment.name] = experiment
    return cls


def get_experiment(name: str) -> Experiment:
    """The registered experiment called *name*."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            "unknown experiment %r (have: %s)"
            % (name, ", ".join(sorted(_REGISTRY)))
        ) from None


def iter_experiments() -> List[Experiment]:
    """All registered experiments, in registration order."""
    return list(_REGISTRY.values())
