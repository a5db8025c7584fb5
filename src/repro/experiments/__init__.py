"""Experiment harnesses: everything needed to regenerate Figure 1.

All experiments speak the unified API (:mod:`~repro.experiments.api`):
each is a registered :class:`~repro.experiments.api.Experiment` with a
serializable spec/result pair, discoverable by name::

    from repro.experiments import get_experiment

    result = get_experiment("trace").run(TraceConfig(bottleneck_distance=3))
    payload = result.to_dict()          # JSON round-trips

* :mod:`~repro.experiments.api` — specs, results, serialization;
* :mod:`~repro.experiments.registry` — the ``@register_experiment`` registry;
* :mod:`~repro.experiments.runner` — ``run_batch`` parallel sweeps;
* :mod:`~repro.experiments.netgen` — seeded random star networks;
* :mod:`~repro.experiments.fig1_traces` — the cwnd-trace panels (F1a/b);
* :mod:`~repro.experiments.fig1_cdf` — the download-time CDF (F1c);
* :mod:`~repro.experiments.ablations` — the A1–A4 design-choice studies;
* :mod:`~repro.experiments.dynamic` — the future-work rate-change study;
* :mod:`~repro.experiments.friendliness` — background-traffic impact;
* :mod:`~repro.experiments.interactive` — interactive latency under bulk;
* :mod:`~repro.experiments.optimal` — the analytical optimal-window model;
* :mod:`~repro.experiments.netscale` — network-scale circuit mix over a
  shared bottleneck relay.

The names resolve on first use, so a process that imports one harness
module loads that harness alone.
"""

from typing import Any

from .._lazy import bind_all

__all__ = [
    "AblationsConfig",
    "AdversityImprovement",
    "AdversityPoint",
    "AdversityStudyConfig",
    "AdversityStudyExperiment",
    "AdversityStudyResult",
    "AblationsExperiment",
    "AblationsResult",
    "BackpropagationRow",
    "BatchItem",
    "BatchJob",
    "BatchResult",
    "CdfConfig",
    "CdfExperiment",
    "CdfResult",
    "ChurnStudyConfig",
    "ChurnStudyExperiment",
    "ChurnStudyImprovement",
    "ChurnStudyPoint",
    "ChurnStudyResult",
    "CircuitSample",
    "CompensationRow",
    "DynamicConfig",
    "DynamicExperiment",
    "DynamicResult",
    "Experiment",
    "ExperimentResult",
    "ExperimentSpec",
    "FlowSample",
    "FriendlinessConfig",
    "FriendlinessExperiment",
    "FriendlinessResult",
    "FriendlinessRow",
    "GammaRow",
    "GeneratedNetwork",
    "InitialWindowRow",
    "InteractiveConfig",
    "InteractiveExperiment",
    "InteractiveResult",
    "InteractiveRow",
    "NetScaleConfig",
    "NetScaleExperiment",
    "NetScaleResult",
    "NetworkConfig",
    "NetworkPlan",
    "OptimalConfig",
    "OptimalExperiment",
    "OptimalResult",
    "RunContext",
    "ScenarioExperiment",
    "Serializable",
    "SpecError",
    "TraceConfig",
    "TraceExperiment",
    "TraceResult",
    "backpropagation_study",
    "compensation_modes",
    "decode",
    "encode",
    "gamma_sweep",
    "get_experiment",
    "initial_window_sweep",
    "instantiate_network",
    "iter_experiments",
    "plan_network",
    "register_experiment",
    "run_batch",
    "set_duplex_rate",
]


def __getattr__(name: str) -> Any:
    """Resolve ``__all__`` on first use (PEP 562).

    A name of ``api`` or ``registry`` loads those two: they are cheap,
    and every harness needs them anyway.  Any other public name loads
    the whole surface: ``runner``, ``netgen`` and every harness.  A
    process that imports one harness module never pays for the others.
    """
    try:
        return bind_all(globals(), ("api", "registry"), name)
    except AttributeError:
        from .registry import HARNESS_MODULES

        return bind_all(globals(), ("runner", "netgen", *HARNESS_MODULES.values()), name)
