"""Unit and property tests for RTT estimation (repro.transport.rtt)."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, strategies as st

from repro.transport.config import TransportConfig
from repro.transport.rtt import RttEstimator


def test_current_rtt_under_each_aggregate():
    """The round's samples collapse by min, max, last or mean; the mean
    is ``math.fsum`` over the count, exactly (ten 0.1 s sum to 1.0 there
    and to 0.9999999999999999 by plain addition)."""
    rounds = {
        "min": ((0.3, 0.1, 0.2), 0.1),
        "max": ((0.3, 0.1, 0.2), 0.3),
        "last": ((0.3, 0.1, 0.2), 0.2),
        "mean": ((0.1,) * 10, math.fsum((0.1,) * 10) / 10),
    }
    assert rounds["mean"][1] == 0.1 != sum((0.1,) * 10) / 10
    for how, (samples, value) in rounds.items():
        est = RttEstimator(aggregate=how)
        for sample in samples:
            est.add_sample(sample)
        assert (how, est.current_rtt()) == (how, value)
        assert est.round_samples == len(samples)


def test_empty_round_falls_back_to_last_sample_under_each_aggregate():
    for how in ("mean", "min", "max", "last"):
        est = RttEstimator(aggregate=how)
        with pytest.raises(ValueError):
            est.current_rtt()
        for sample in (0.3, 0.1, 0.2):
            est.add_sample(sample)
        est.finish_round()
        assert (how, est.current_rtt()) == (how, 0.2)
        est.add_sample(0.4)  # a new round aggregates only its own
        assert (how, est.current_rtt()) == (how, 0.4)


def test_unknown_aggregate_refused_at_construction():
    with pytest.raises(ValueError, match="median"):
        RttEstimator(aggregate="median")
    with pytest.raises(ValueError, match="median"):
        TransportConfig(rtt_aggregate="median")


def test_estimator_initial_state():
    est = RttEstimator()
    assert est.base_rtt is None
    assert est.sample_count == 0


def test_estimator_rejects_bad_aggregate():
    with pytest.raises(ValueError):
        RttEstimator(aggregate="median")


def test_negative_sample_rejected():
    with pytest.raises(ValueError):
        RttEstimator().add_sample(-0.1)


def test_base_rtt_is_running_minimum():
    est = RttEstimator()
    for sample in (0.3, 0.1, 0.2, 0.05, 0.4):
        est.add_sample(sample)
    assert est.base_rtt == 0.05


def test_smoothed_rtt_moves_toward_samples():
    """Read through the RTO, SRTT + 4 RTTVAR: the first sample seeds
    SRTT = 0.1, RTTVAR = 0.05; the second moves SRTT an eighth of the way,
    to 0.125, and RTTVAR to 0.05 + (|0.1 - 0.3| - 0.05) / 4 = 0.0875
    (RFC 6298)."""
    est = RttEstimator()
    est.add_sample(0.1)
    assert est.retransmission_timeout(minimum=0.0) == pytest.approx(0.3)
    est.add_sample(0.3)
    assert est.retransmission_timeout(minimum=0.0) == pytest.approx(0.125 + 4 * 0.0875)


def test_current_rtt_uses_round_samples():
    est = RttEstimator(aggregate="mean")
    est.add_sample(0.1)
    est.add_sample(0.3)
    assert est.current_rtt() == pytest.approx(0.2)


def test_current_rtt_falls_back_to_last_sample_after_round():
    est = RttEstimator()
    est.add_sample(0.1)
    est.add_sample(0.25)
    est.finish_round()
    assert est.round_samples == 0
    assert est.current_rtt() == 0.25


def test_current_rtt_without_samples_raises():
    with pytest.raises(ValueError):
        RttEstimator().current_rtt()


def test_vegas_diff_matches_paper_formula():
    est = RttEstimator(aggregate="last")
    est.add_sample(0.1)  # base
    est.add_sample(0.15)
    # diff = cwnd * current/base - cwnd = 10 * 1.5 - 10 = 5
    assert est.vegas_diff(10) == pytest.approx(5.0)


def test_vegas_diff_with_explicit_rtt():
    est = RttEstimator()
    est.add_sample(0.1)
    assert est.vegas_diff(10, rtt=0.2) == pytest.approx(10.0)


def test_vegas_diff_zero_before_samples():
    assert RttEstimator().vegas_diff(10) == 0.0


@given(st.lists(st.floats(min_value=1e-6, max_value=10), min_size=1, max_size=100))
def test_property_base_is_global_min(samples):
    est = RttEstimator()
    for i, s in enumerate(samples):
        est.add_sample(s)
        if i % 7 == 6:
            est.finish_round()
    assert est.base_rtt == pytest.approx(min(samples))


@given(st.lists(st.floats(min_value=1e-6, max_value=10), min_size=1, max_size=50))
def test_property_vegas_diff_nonnegative_at_base(samples):
    """With aggregate=min, diff >= 0 always (current >= base)."""
    est = RttEstimator(aggregate="min")
    for s in samples:
        est.add_sample(s)
    assert est.vegas_diff(10) >= -1e-9
