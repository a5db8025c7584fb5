"""Unit tests for random network generation (repro.experiments.netgen)."""

from __future__ import annotations

import pytest

from repro.experiments.netgen import (
    NetworkConfig,
    instantiate_network,
    plan_network,
)
from repro.sim.rand import RandomStreams
from repro.sim.simulator import Simulator
from repro.units import milliseconds


def small_config(**kwargs):
    defaults = dict(relay_count=6, client_count=4, server_count=4)
    defaults.update(kwargs)
    return NetworkConfig(**defaults)


def test_network_has_all_hosts(sim):
    net = instantiate_network(plan_network(small_config(), RandomStreams(1)), sim)
    assert len(net.relay_names) == 6
    assert len(net.client_names) == 4
    assert len(net.server_names) == 4
    # hub + relays + clients + servers
    assert len(net.topology.nodes) == 1 + 6 + 4 + 4


def test_every_leaf_connects_to_hub(sim):
    net = instantiate_network(plan_network(small_config(), RandomStreams(1)), sim)
    for name in net.relay_names + net.client_names + net.server_names:
        assert net.topology.path(name, net.hub_name) == [name, net.hub_name]


def test_directory_covers_relays_only(sim):
    net = instantiate_network(plan_network(small_config(), RandomStreams(1)), sim)
    assert list(net.directory._relays) == net.relay_names


def test_relay_rates_from_configured_classes(sim):
    config = small_config()
    net = instantiate_network(plan_network(config, RandomStreams(2)), sim)
    classes = set(config.relay_rate_classes_mbit)
    for name in net.relay_names:
        assert round(net.relay_rate(name).mbit_per_second, 6) in classes


def test_relay_delays_within_range(sim):
    config = small_config(relay_delay_ms=(5.0, 9.0))
    net = instantiate_network(plan_network(config, RandomStreams(2)), sim)
    for name in net.relay_names:
        delay = net.relay_specs[name].delay
        assert milliseconds(5.0) <= delay <= milliseconds(9.0)


def test_directory_weights_match_rates(sim):
    net = instantiate_network(plan_network(small_config(), RandomStreams(3)), sim)
    for name in net.relay_names:
        assert net.directory._relays[name].bandwidth == net.relay_rate(name)


def test_generation_is_deterministic():
    def build(seed):
        sim = Simulator()
        net = instantiate_network(plan_network(small_config(), RandomStreams(seed)), sim)
        return [
            (name, net.relay_rate(name).bytes_per_second, net.relay_specs[name].delay)
            for name in net.relay_names
        ]

    assert build(7) == build(7)
    assert build(7) != build(8)


def test_config_validation():
    with pytest.raises(ValueError):
        NetworkConfig(relay_count=2)
    with pytest.raises(ValueError):
        NetworkConfig(relay_rate_classes_mbit=(1.0,), relay_rate_weights=(0.5, 0.5))
    with pytest.raises(ValueError):
        NetworkConfig(relay_delay_ms=(10.0, 5.0))
    with pytest.raises(ValueError):
        NetworkConfig(endpoint_delay_ms=(7.0, 3.0))
