"""Unit tests for the transport configuration (repro.transport.config)."""

from __future__ import annotations

import pytest

from repro.transport.config import CELL_SIZE, TransportConfig


def test_defaults_follow_the_paper():
    config = TransportConfig()
    assert config.cell_size == 512
    assert config.initial_cwnd_cells == 2
    assert config.gamma == 4.0
    assert config.compensation == "acked"


def test_with_returns_modified_copy():
    config = TransportConfig()
    changed = config.with_(gamma=8.0)
    assert changed.gamma == 8.0
    assert config.gamma == 4.0
    assert changed.cell_size == config.cell_size


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(cell_payload=0),
        dict(cell_payload=CELL_SIZE + 1),
        dict(feedback_size=0),
        dict(initial_cwnd_cells=0),
        dict(min_cwnd_cells=0),
        dict(max_cwnd_cells=1),
        dict(gamma=0.0),
        dict(gamma=-1.0),
        dict(vegas_alpha=-1.0),
        dict(vegas_alpha=5.0, vegas_beta=4.0),
        dict(compensation="bogus"),
        dict(rtt_aggregate="median"),
        dict(sample_gamma_factor=0.5),
        dict(compensation_window_rtts=0),
        # NaN compares false both ways: each of these used to build.
        dict(gamma=float("nan")),
        dict(gamma=float("inf")),
        dict(vegas_alpha=float("nan")),
        dict(vegas_beta=float("nan")),
        dict(vegas_beta=float("inf")),
        dict(sample_gamma_factor=float("nan")),
        dict(sample_gamma_factor=float("inf")),
        dict(rto_initial=float("nan")),
        dict(rto_initial=float("inf")),
    ],
)
def test_invalid_configurations_rejected(kwargs):
    with pytest.raises(ValueError):
        TransportConfig(**kwargs)


def test_valid_compensation_modes():
    for mode in ("acked", "halve", "none"):
        assert TransportConfig(compensation=mode).compensation == mode


def test_valid_aggregates():
    for how in ("min", "mean", "max", "last"):
        assert TransportConfig(rtt_aggregate=how).rtt_aggregate == how
