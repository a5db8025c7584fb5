"""Plan components, and the kept shard entry point.

:func:`repro.scenario.sharded.partition_plan` groups circuits into the
components they form over shared leaves.
:func:`repro.scenario.sharded.run_sharded` produces output
**byte-identical** to :func:`run_planned` at any shard count, disjoint
or coupled, cold or warm plan cache.  Identity is pinned on the JSON
serialization of the full result, so every sample, probe series value
and event count must match bit for bit.
"""

from __future__ import annotations

import json

import pytest

from repro.experiments.netgen import NetworkConfig
from repro.experiments.netscale import NetScaleConfig
from repro.experiments.api import RunContext
from repro.experiments.registry import get_experiment
from repro.scenario.cache import PlanCache
from repro.scenario.churn import NoChurn
from repro.scenario.engine import run_planned
from repro.scenario.probes import (
    GoodputProbe,
    QueueDepthProbe,
    UtilizationProbe,
)
from repro.scenario.sharded import partition_plan, run_sharded
from repro.scenario.spec import Scenario, plan_scenario
from repro.scenario.topology import GeneratedTopology
from repro.scenario.workloads import BulkWorkload, InteractiveWorkload
from repro.serialize import encode
from repro.units import kib


def result_bytes(result) -> str:
    return json.dumps(result.to_dict(), sort_keys=True)


def coupled_scenario(**overrides) -> Scenario:
    """Small forced-bottleneck scenario: clusters meet at one relay."""
    defaults = dict(
        topology=GeneratedTopology(
            network=NetworkConfig(
                relay_count=12, client_count=8, server_count=8
            ),
            force_bottleneck=True,
            clusters=2,
        ),
        workloads=(
            BulkWorkload(payload_bytes=kib(40)),
            InteractiveWorkload(message_count=3),
        ),
        probes=(
            UtilizationProbe(interval=0.25),
            QueueDepthProbe(interval=0.25),
            GoodputProbe(interval=0.25),
        ),
        circuit_count=8,
        max_sim_time=60.0,
        seed=7,
    )
    defaults.update(overrides)
    return Scenario(**defaults)


def disjoint_scenario(**overrides) -> Scenario:
    """Four leaf-disjoint clusters: embarrassingly parallel components."""
    defaults = dict(
        topology=GeneratedTopology(
            network=NetworkConfig(
                relay_count=16, client_count=8, server_count=8
            ),
            force_bottleneck=False,
            clusters=4,
        ),
        workloads=(BulkWorkload(payload_bytes=kib(60)),),
        probes=(GoodputProbe(interval=0.25),),
        circuit_count=12,
        max_sim_time=60.0,
        seed=11,
    )
    defaults.update(overrides)
    return Scenario(**defaults)


# ----------------------------------------------------------------------
# Partitioning
# ----------------------------------------------------------------------


def test_clustered_plan_partitions_into_components():
    plan = plan_scenario(disjoint_scenario())
    components = partition_plan(plan)
    assert len(components) == 4
    # Components preserve plan order and cover every circuit once.
    indices = [c.index for comp in components for c in comp]
    assert sorted(indices) == list(range(len(plan.circuits)))
    for comp in components:
        assert [c.index for c in comp] == sorted(c.index for c in comp)
    # Components share no leaf.
    leaf_sets = [
        {leaf for c in comp for leaf in (c.source, c.sink, *c.relays)}
        for comp in components
    ]
    for i, a in enumerate(leaf_sets):
        for b in leaf_sets[i + 1:]:
            assert not (a & b)


def test_forced_bottleneck_couples_all_clusters():
    plan = plan_scenario(coupled_scenario())
    assert len(partition_plan(plan)) == 1  # coupled through the bottleneck
    for circuit in plan.circuits:
        assert plan.bottleneck_relay in circuit.relays


# ----------------------------------------------------------------------
# Byte-identity: disjoint components
# ----------------------------------------------------------------------


def test_disjoint_mode_byte_identical_at_any_shard_count():
    plan = plan_scenario(disjoint_scenario())
    classic = result_bytes(run_planned(plan))
    for shards in (1, 2, 4):
        assert result_bytes(run_sharded(plan, shards=shards)) == classic


# ----------------------------------------------------------------------
# Byte-identity: one connected component
# ----------------------------------------------------------------------


def unclustered_scenario() -> Scenario:
    """The classic netscale shape: one cluster, one forced bottleneck."""
    return coupled_scenario(
        topology=GeneratedTopology(
            network=NetworkConfig(
                relay_count=10, client_count=6, server_count=6
            ),
            force_bottleneck=True,
        ),
        circuit_count=6,
    )


@pytest.mark.parametrize("shards", (1, 2, 4))
@pytest.mark.parametrize("scenario", (
    coupled_scenario(),
    unclustered_scenario(),
    # Relay-scoped probes see the whole network: fine on one simulator.
    coupled_scenario(
        probes=(UtilizationProbe(interval=0.25, scope="relays"),)
    ),
), ids=("clustered", "unclustered", "relay-probes"))
def test_one_component_byte_identical_to_classic_engine(scenario, shards):
    # Every circuit meets the others at the bottleneck relay, so there
    # is nothing to run apart: any shard count is the classic engine,
    # event counts included.
    plan = plan_scenario(scenario)
    assert len(partition_plan(plan)) == 1
    assert result_bytes(run_sharded(plan, shards=shards)) == result_bytes(
        run_planned(plan)
    )


@pytest.mark.parametrize("shards", (0, -3, 2.7))
def test_bad_shard_count_is_refused(shards):
    plan = plan_scenario(disjoint_scenario())
    with pytest.raises(ValueError, match="shards must be >= 1"):
        run_sharded(plan, shards=shards)


# ----------------------------------------------------------------------
# Plan cache: cold vs warm
# ----------------------------------------------------------------------


def test_sharded_result_identical_cold_and_warm_cache(tmp_path):
    scenario = coupled_scenario()
    from repro.scenario.cache import DiskPlanCache

    cold_cache = PlanCache()
    cold_cache.disk = DiskPlanCache(str(tmp_path))
    cold = result_bytes(
        run_sharded(plan_scenario(scenario, cache=cold_cache), shards=3)
    )
    warm_cache = PlanCache()  # fresh memory tier, warm disk tier
    warm_cache.disk = DiskPlanCache(str(tmp_path))
    warm = result_bytes(
        run_sharded(plan_scenario(scenario, cache=warm_cache), shards=3)
    )
    assert warm == cold
    stats = warm_cache.stats()
    assert stats["disk_plan_hits"] >= 1  # the warm run actually hit disk


# ----------------------------------------------------------------------
# Experiment level: netscale's clusters field, churn-study's workers
# ----------------------------------------------------------------------


def small_netscale(**overrides) -> NetScaleConfig:
    defaults = dict(
        circuit_count=8,
        bulk_payload_bytes=kib(60),
        interactive_payload_bytes=kib(10),
        seed=5,
        network=NetworkConfig(relay_count=9, client_count=6, server_count=6),
    )
    defaults.update(overrides)
    return NetScaleConfig(**defaults)


def test_netscale_clusters_field_plans_disjoint_paths():
    spec = small_netscale(
        circuit_count=6,
        clusters=2,
        network=NetworkConfig(relay_count=12, client_count=6, server_count=6),
    )
    scenario = spec.to_scenario()
    plan = plan_scenario(scenario)
    # Forced bottleneck: still one coupled component ...
    assert len(partition_plan(plan)) == 1
    # ... but the bottleneck is the only leaf the two clusters share.
    leaves = [set(), set()]
    for c in plan.circuits:
        leaves[c.index % 2].update((c.source, c.sink, *c.relays))
    assert leaves[0] & leaves[1] == {plan.bottleneck_relay}


def test_churn_study_shards_knob_byte_identical():
    def study(**kw):
        from repro.experiments.churn_study import ChurnStudyConfig

        return ChurnStudyConfig(
            rates=(2.0, 6.0),
            circuit_count=6,
            bulk_payload_bytes=kib(60),
            interactive_payload_bytes=kib(10),
            start_window=1.0,
            horizon=3.0,
            network=NetworkConfig(
                relay_count=8, client_count=6, server_count=6
            ),
            **kw,
        )

    run_churn_study = get_experiment("churn-study").run
    baseline = json.dumps(encode(run_churn_study(study())), sort_keys=True)
    pooled = run_churn_study(study(), RunContext(workers=2))
    assert json.dumps(encode(pooled), sort_keys=True) == baseline


def test_scenario_without_bottleneck_or_components_falls_back():
    # One coupled component, no designated bottleneck: nothing to
    # shard on — run_sharded must quietly use the classic engine.
    scenario = coupled_scenario(
        topology=GeneratedTopology(
            network=NetworkConfig(
                relay_count=9, client_count=6, server_count=6
            ),
            force_bottleneck=False,
        ),
        probes=(GoodputProbe(interval=0.25),),
        circuit_count=6,
        churn=NoChurn(start_window=1.0),
    )
    plan = plan_scenario(scenario)
    assert len(partition_plan(plan)) == 1
    assert plan.bottleneck_relay is None
    classic = result_bytes(run_planned(plan))
    assert result_bytes(run_sharded(plan, shards=4)) == classic
