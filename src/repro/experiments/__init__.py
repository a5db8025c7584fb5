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
"""

from .api import (
    Experiment,
    ExperimentResult,
    ExperimentSpec,
    RunContext,
    Serializable,
    SpecError,
    decode,
    encode,
)
from .registry import (
    get_experiment,
    iter_experiments,
    register_experiment,
)
from .runner import BatchItem, BatchJob, BatchResult, run_batch

# Importing the experiment modules populates the registry; the import
# order below is the registry (and CLI subcommand) order.
from .fig1_traces import TraceConfig, TraceExperiment, TraceResult
from .fig1_cdf import (
    CdfConfig,
    CdfExperiment,
    CdfResult,
    FlowSample,
)
from .ablations import (
    AblationsConfig,
    AblationsExperiment,
    AblationsResult,
    BackpropagationRow,
    CompensationRow,
    GammaRow,
    InitialWindowRow,
    backpropagation_study,
    compensation_modes,
    gamma_sweep,
    initial_window_sweep,
)
from .dynamic import (
    DynamicConfig,
    DynamicExperiment,
    DynamicResult,
    set_duplex_rate,
)
from .friendliness import (
    FriendlinessConfig,
    FriendlinessExperiment,
    FriendlinessResult,
    FriendlinessRow,
)
from .interactive import (
    InteractiveConfig,
    InteractiveExperiment,
    InteractiveResult,
    InteractiveRow,
)
from .optimal import (
    OptimalConfig,
    OptimalExperiment,
    OptimalResult,
)
from .netscale import (
    CircuitSample,
    NetScaleConfig,
    NetScaleExperiment,
    NetScaleResult,
)
from .churn_study import (
    ChurnStudyConfig,
    ChurnStudyExperiment,
    ChurnStudyImprovement,
    ChurnStudyPoint,
    ChurnStudyResult,
)
from .adversity import (
    AdversityImprovement,
    AdversityPoint,
    AdversityStudyConfig,
    AdversityStudyExperiment,
    AdversityStudyResult,
)
from .netgen import (
    GeneratedNetwork,
    NetworkConfig,
    NetworkPlan,
    instantiate_network,
    plan_network,
)

# The generic declarative-scenario experiment registers last.
from .scenario import ScenarioExperiment

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
