"""Scenario plan-cache correctness (repro.scenario.cache).

The cache must be a pure speedup: cached and uncached paths produce
byte-identical output, serial and parallel sweeps agree, and the key
covers every spec field.
"""

from __future__ import annotations

import json
from dataclasses import fields, replace

import pytest

from repro.experiments import run_batch
from repro.experiments.netscale import NetScaleConfig
from repro.scenario import (
    BulkWorkload,
    GeneratedTopology,
    InteractiveWorkload,
    NetworkConfig,
    NoChurn,
    OpenLoopChurn,
    PlanCache,
    RelayChurnFaults,
    Scenario,
    UtilizationProbe,
    plan_scenario,
    run_scenario,
    spec_hash,
)
from repro.units import kib, seconds


def small_network() -> NetworkConfig:
    return NetworkConfig(relay_count=10, client_count=8, server_count=8)


def small_scenario(**overrides) -> Scenario:
    defaults = dict(
        topology=GeneratedTopology(network=small_network(), force_bottleneck=True),
        workloads=(BulkWorkload(weight=0.7, payload_bytes=kib(60)),
                   InteractiveWorkload(weight=0.3, message_count=2)),
        churn=NoChurn(start_window=0.5),
        circuit_count=6,
    )
    defaults.update(overrides)
    return Scenario(**defaults)


# ----------------------------------------------------------------------
# Cache hit == cache miss
# ----------------------------------------------------------------------


def test_cached_plan_is_byte_identical_to_cold_plan():
    scenario = small_scenario()
    cold = plan_scenario(scenario, cache=None)
    cache = PlanCache()
    miss = plan_scenario(scenario, cache=cache)   # cold through the cache
    hit = plan_scenario(scenario, cache=cache)    # warm
    assert hit is miss
    assert cache.stats()["plan_hits"] == 1 and cache.stats()["plan_misses"] == 1
    assert [c.to_dict() for c in cold.circuits] == \
        [c.to_dict() for c in hit.circuits]
    assert cold.bottleneck_relay == hit.bottleneck_relay
    assert cold.spec_hash == hit.spec_hash


def test_cache_hit_and_miss_runs_produce_identical_json():
    scenario = small_scenario()
    cache = PlanCache()
    first = run_scenario(scenario, cache=cache)   # plan miss
    second = run_scenario(scenario, cache=cache)  # plan hit
    uncached = run_scenario(scenario, cache=None)
    as_json = lambda r: json.dumps(r.to_dict(), sort_keys=True)  # noqa: E731
    assert as_json(first) == as_json(second) == as_json(uncached)
    assert cache.stats()["plan_hits"] == 1


def test_shared_network_plan_is_byte_identical_to_cold_plan():
    """A network cache hit must not perturb any later draw.

    Two specs differing only in workload share the network plan; the
    second plan (network from cache, paths/starts drawn fresh) must
    equal a fully cold plan of the same spec.
    """
    base = small_scenario()
    variant = small_scenario(
        workloads=(BulkWorkload(payload_bytes=kib(40)),)
    )
    cache = PlanCache()
    plan_scenario(base, cache=cache)
    warm = plan_scenario(variant, cache=cache)    # network from cache
    cold = plan_scenario(variant, cache=None)     # everything drawn cold
    assert cache.stats()["network_hits"] == 1
    assert [c.to_dict() for c in warm.circuits] == \
        [c.to_dict() for c in cold.circuits]
    assert warm.bottleneck_relay == cold.bottleneck_relay


def test_network_plan_shared_across_different_specs():
    cache = PlanCache()
    plan_scenario(small_scenario(circuit_count=4), cache=cache)
    plan_scenario(small_scenario(circuit_count=8), cache=cache)
    plan_scenario(
        small_scenario(churn=OpenLoopChurn(start_window=0.5, arrival_rate=2.0,
                                           horizon=2.0)),
        cache=cache,
    )
    # Three distinct specs (three plan misses), one generated network.
    assert cache.stats()["plan_misses"] == 3 and cache.stats()["plan_hits"] == 0
    assert cache.stats()["network_misses"] == 1 and cache.stats()["network_hits"] == 2


def test_network_cache_respects_seed():
    cache = PlanCache()
    plan_scenario(small_scenario(seed=1), cache=cache)
    plan_scenario(small_scenario(seed=2), cache=cache)
    assert cache.stats()["network_misses"] == 2 and cache.stats()["network_hits"] == 0


# ----------------------------------------------------------------------
# Key coverage: any field change invalidates
# ----------------------------------------------------------------------


def test_spec_hash_changes_on_any_field_change():
    base = small_scenario()
    base_hash = spec_hash(base)
    mutated = {
        "topology": GeneratedTopology(network=small_network()),
        "workloads": (BulkWorkload(weight=0.7, payload_bytes=kib(61)),
                      InteractiveWorkload(weight=0.3, message_count=2)),
        "churn": NoChurn(start_window=0.75),
        "probes": (UtilizationProbe(),),
        "circuit_count": 7,
        "hops": 5,
        "kinds": ("with",),
        "seed": base.seed + 1,
        "max_sim_time": seconds(90.0),
        "rng_namespace": "other",
        "faults": (RelayChurnFaults(mttf=2.0),),
    }
    spec_fields = {f.name for f in fields(Scenario)}
    # Every field except transport is exercised above; transport gets a
    # dedicated check below (it needs a non-default TransportConfig).
    assert spec_fields - set(mutated) == {"transport"}
    for name, value in mutated.items():
        changed = replace(base, **{name: value})
        assert spec_hash(changed) != base_hash, (
            "changing %r did not change the spec hash" % name
        )

    from repro.transport.config import TransportConfig

    changed = replace(base, transport=TransportConfig(gamma=7.5))
    assert spec_hash(changed) != base_hash


def test_deep_part_field_change_invalidates():
    base = small_scenario()
    deeper = small_scenario(
        topology=GeneratedTopology(
            network=NetworkConfig(relay_count=10, client_count=8,
                                  server_count=8,
                                  endpoint_rate_mbit=99.0),
            force_bottleneck=True,
        )
    )
    assert spec_hash(base) != spec_hash(deeper)


def test_spec_hash_is_stable_across_instances():
    assert spec_hash(small_scenario()) == spec_hash(small_scenario())


# ----------------------------------------------------------------------
# Batch integration
# ----------------------------------------------------------------------


def _netscale_job(circuits: int) -> dict:
    return {
        "experiment": "netscale",
        "spec": {
            "circuit_count": circuits,
            "bulk_payload_bytes": kib(60),
            "interactive_payload_bytes": kib(10),
            "network": {"relay_count": 10, "client_count": 10,
                        "server_count": 10},
        },
        "label": "circuits=%d" % circuits,
    }


def test_serial_and_parallel_batch_byte_identical():
    jobs = [_netscale_job(5), _netscale_job(7)]
    serial = run_batch(jobs, workers=1)
    parallel = run_batch(jobs, workers=2)
    assert json.dumps(serial.to_dict(), sort_keys=True) == \
        json.dumps(parallel.to_dict(), sort_keys=True)


def test_batch_reports_plan_cache_counters():
    jobs = [_netscale_job(5), _netscale_job(6)]
    result = run_batch(jobs, workers=1)
    stats = result.plan_cache
    assert stats is not None
    assert set(stats) == {"plan_hits", "plan_misses",
                          "network_hits", "network_misses",
                          "disk_plan_hits", "disk_plan_misses",
                          "disk_network_hits", "disk_network_misses"}
    # Two different specs over the same NetworkConfig: at most one
    # network generation happens in this process (the first job may hit
    # a cache warmed by earlier tests, but the second job always hits).
    assert stats["network_hits"] >= 1
    # The counters never leak into the serialized output.
    assert "plan_cache" not in result.to_dict()
    rebuilt = type(result).from_dict(result.to_dict())
    assert rebuilt.plan_cache is None


def test_identical_specs_in_one_batch_hit_the_plan_cache():
    jobs = [_netscale_job(5), _netscale_job(5)]
    result = run_batch(jobs, workers=1)
    assert result.plan_cache["plan_hits"] >= 1


def test_netscale_experiment_warm_vs_cold_byte_identical():
    """The registry path (DEFAULT_CACHE) is also a pure speedup."""
    from repro.experiments import get_experiment

    run_netscale_experiment = get_experiment("netscale").run

    config = NetScaleConfig(
        circuit_count=5,
        bulk_payload_bytes=kib(60),
        interactive_payload_bytes=kib(10),
        network=NetworkConfig(relay_count=10, client_count=10,
                              server_count=10),
    )
    first = run_netscale_experiment(config)    # may be cold or warm
    second = run_netscale_experiment(config)   # definitely warm
    assert json.dumps(first.to_dict(), sort_keys=True) == \
        json.dumps(second.to_dict(), sort_keys=True)


# ----------------------------------------------------------------------
# Cache mechanics
# ----------------------------------------------------------------------


def test_cache_lru_eviction():
    cache = PlanCache(max_entries=2)
    for count in (2, 3, 4):  # three distinct specs, capacity two
        plan_scenario(small_scenario(circuit_count=count), cache=cache)
    assert cache.stats()["plan_misses"] == 3
    # The oldest spec was evicted: re-planning it misses again...
    plan_scenario(small_scenario(circuit_count=2), cache=cache)
    assert cache.stats()["plan_misses"] == 4
    # ...while the newest is still cached.
    plan_scenario(small_scenario(circuit_count=4), cache=cache)
    assert cache.stats()["plan_hits"] == 1


def test_cache_clear_resets_everything():
    cache = PlanCache()
    plan_scenario(small_scenario(), cache=cache)
    plan_scenario(small_scenario(), cache=cache)
    assert len(cache) > 0 and cache.stats()["plan_hits"] == 1
    cache.clear()
    assert len(cache) == 0
    assert cache.stats() == {"plan_hits": 0, "plan_misses": 0,
                             "network_hits": 0, "network_misses": 0,
                             "disk_plan_hits": 0, "disk_plan_misses": 0,
                             "disk_network_hits": 0,
                             "disk_network_misses": 0}


def test_cache_validates_capacity():
    with pytest.raises(ValueError):
        PlanCache(max_entries=0)
