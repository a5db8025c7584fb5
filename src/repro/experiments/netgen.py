"""Random Tor network generation — import shim.

The generator moved to :mod:`repro.scenario.netgen` when the scenario
layer was introduced (it is the substrate every topology source builds
on, and the scenario package must not depend on the experiment
harnesses).  This module keeps the historical import path working:
``from repro.experiments.netgen import NetworkConfig, plan_network``.
"""

from __future__ import annotations

from ..scenario.netgen import (
    GeneratedNetwork,
    NetworkConfig,
    NetworkPlan,
    instantiate_network,
    plan_network,
)

__all__ = [
    "NetworkConfig",
    "NetworkPlan",
    "GeneratedNetwork",
    "instantiate_network",
    "plan_network",
]
