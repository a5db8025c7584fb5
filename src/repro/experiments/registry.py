"""The global experiment registry.

Experiments self-register at import time via :func:`register_experiment`;
everything downstream — CLI subcommand generation, ``repro batch``
sweeps, the report — discovers them here instead of importing each
harness by hand::

    from repro.experiments import get_experiment

    result = get_experiment("trace").run(TraceConfig(bottleneck_distance=3))

Importing one harness module registers that harness only.
:data:`HARNESS_MODULES` maps each built-in experiment to its harness
module, in registry (and CLI subcommand) order: :func:`get_experiment`
imports the one harness it is asked for (all of them for a name not in
the table), and :func:`iter_experiments` imports them all, so a process
pays for the harnesses it runs and a listing is the same whichever
harness some caller imported first.  The registry rejects duplicate
names so every experiment is registered exactly once.
"""

from __future__ import annotations

from importlib import import_module
from typing import TYPE_CHECKING, Dict, Iterable, List, Type

if TYPE_CHECKING:  # every harness imports api; the verb table needs none of it
    from .api import Experiment

__all__ = [
    "HARNESS_MODULES",
    "get_experiment",
    "iter_experiments",
    "register_experiment",
]

#: Each built-in experiment's harness module in :mod:`repro.experiments`,
#: in registry order.
HARNESS_MODULES = {
    "trace": "fig1_traces",
    "cdf": "fig1_cdf",
    "ablations": "ablations",
    "dynamic": "dynamic",
    "friendliness": "friendliness",
    "interactive": "interactive",
    "optimal": "optimal",
    "netscale": "netscale",
    "churn-study": "churn_study",
    "adversity-study": "adversity",
    "scenario": "scenario",
}

_REGISTRY: Dict[str, Experiment] = {}


def _load_harnesses(modules: Iterable[str]) -> None:
    """Import the harness *modules*, registering the ones not yet loaded."""
    for module in modules:
        import_module("." + module, __package__)


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
    """The registered experiment called *name*, importing its harness if need be."""
    experiment = _REGISTRY.get(name)
    if experiment is None:
        module = HARNESS_MODULES.get(name)
        _load_harnesses([module] if module else HARNESS_MODULES.values())
        experiment = _REGISTRY.get(name)
    if experiment is None:
        raise KeyError(
            "unknown experiment %r (have: %s)"
            % (name, ", ".join(sorted(_REGISTRY)))
        )
    return experiment


def _builtin_rank(experiment: Experiment) -> int:
    """The position of *experiment* in :data:`HARNESS_MODULES`; past the
    end for one registered from outside the package."""
    names = list(HARNESS_MODULES)
    return names.index(experiment.name) if experiment.name in names else len(names)


def iter_experiments() -> List[Experiment]:
    """Every experiment: the built-ins in :data:`HARNESS_MODULES` order,
    then the rest in registration order."""
    _load_harnesses(HARNESS_MODULES.values())
    return sorted(_REGISTRY.values(), key=_builtin_rank)
