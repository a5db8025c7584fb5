"""Tests for the Figure-1c CDF experiment (scaled down for CI speed)."""

from __future__ import annotations

import pytest

from repro.experiments import get_experiment
from repro.experiments.fig1_cdf import CdfConfig
from repro.experiments.netgen import (
    NetworkConfig,
    instantiate_network,
    plan_network,
)
from repro.sim.rand import RandomStreams
from repro.sim.simulator import Simulator
from repro.tor.path_selection import PathSelector
from repro.units import kib


def small_cdf_config(**kwargs):
    defaults = dict(
        circuit_count=8,
        payload_bytes=kib(150),
        network=NetworkConfig(relay_count=12, client_count=8, server_count=8),
    )
    defaults.update(kwargs)
    return CdfConfig(**defaults)


@pytest.fixture(scope="module")
def result():
    return get_experiment("cdf").run(small_cdf_config())


def test_config_validates():
    with pytest.raises(ValueError):
        CdfConfig(circuit_count=0)
    with pytest.raises(ValueError):
        CdfConfig(
            circuit_count=100,
            network=NetworkConfig(client_count=50, server_count=50),
        )


def test_path_selection_deterministic():
    config = small_cdf_config()
    sim = Simulator()
    net = instantiate_network(plan_network(config.network, RandomStreams(config.seed)), sim)

    def select_paths():
        streams = RandomStreams(config.seed)
        selector = PathSelector(net.directory, streams.stream("paths"))
        return [
            [relay.name for relay in selector.select_path(config.hops)]
            for __ in range(config.circuit_count)
        ]

    a = select_paths()
    b = select_paths()
    assert a == b
    assert len(a) == config.circuit_count
    for path in a:
        assert len(path) == config.hops
        assert len(set(path)) == config.hops


def test_all_circuits_finish(result):
    for kind in result.config.kinds:
        assert len(result.ttlb[kind]) == result.config.circuit_count
        assert all(t > 0 for t in result.ttlb[kind])


def test_samples_are_sorted(result):
    for kind in result.config.kinds:
        assert result.ttlb[kind] == sorted(result.ttlb[kind])


def test_with_beats_without_in_the_median(result):
    """The paper's CDF: CircuitStart improves download times."""
    assert result.median_improvement > 0


def test_max_gap_positive_and_bounded(result):
    assert result.max_improvement > 0
    # Sanity: the improvement is a startup effect, not a 10x anomaly.
    assert result.max_improvement < result.cdf("without").median


def test_dominance_majority(result):
    assert result.dominance >= 0.7


def test_paper_scale_claims():
    """Figure 1c at the paper's scale (50 concurrent circuits): the
    "with" CDF dominates, the median improves, the largest gap is a
    sizeable fraction of a second ("by up to 0.5 seconds"), and the
    faster start starves no competing circuit."""
    result = get_experiment("cdf").run(CdfConfig())
    assert result.config.circuit_count == 50
    assert result.median_improvement > 0.1
    assert 0.2 < result.max_improvement < 1.5
    assert result.dominance >= 0.9
    assert result.fairness("with") > 0.5


def test_reduced_payload_keeps_the_gap():
    """Smaller downloads shrink the gap but do not erase it."""
    result = get_experiment("cdf").run(
        CdfConfig(circuit_count=25, payload_bytes=kib(150))
    )
    assert result.median_improvement > 0
    assert result.dominance >= 0.7


def test_cdf_accessor(result):
    cdf = result.cdf("with")
    assert cdf.min > 0
    assert len(cdf) == result.config.circuit_count


def test_requested_kind_subset():
    config = small_cdf_config(circuit_count=4, kinds=("with",))
    partial = get_experiment("cdf").run(config)
    assert list(partial.ttlb) == ["with"]


def test_flow_samples_shape(result):
    for kind in result.config.kinds:
        samples = result.flows[kind]
        assert len(samples) == result.config.circuit_count
        for sample in samples:
            assert 0 < sample.time_to_first_byte <= sample.time_to_last_byte
            assert sample.goodput_bytes_per_second > 0


def test_goodput_consistent_with_ttlb(result):
    payload = result.config.payload_bytes
    for kind in result.config.kinds:
        for sample in result.flows[kind]:
            assert sample.goodput_bytes_per_second == pytest.approx(
                payload / sample.time_to_last_byte
            )


def test_fairness_reasonable(result):
    """Neither scheme starves circuits: fairness well above 1/n."""
    n = result.config.circuit_count
    for kind in result.config.kinds:
        index = result.fairness(kind)
        assert 1.0 / n < index <= 1.0
        assert index > 0.5


def test_circuitstart_does_not_hurt_fairness(result):
    """Faster ramp-up must not come at the cost of starving others."""
    assert result.fairness("with") > result.fairness("without") - 0.15


def test_rendered_text_is_pinned(result):
    """``repro cdf`` as printed for the reduced spec: the two-curve
    figure, the per-controller table and the improvement line."""
    from helpers import pins, render_digest

    assert render_digest("cdf", result) == pins("cdf")["reduced"]
