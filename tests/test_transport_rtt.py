"""Unit and property tests for RTT estimation (repro.transport.rtt)."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.transport.rtt import RoundAggregate, RttEstimator


def test_round_aggregate_values():
    agg = RoundAggregate()
    agg.samples.extend((0.3, 0.1, 0.2))
    assert agg.value("min") == 0.1
    assert agg.value("max") == 0.3
    assert agg.value("last") == 0.2
    assert agg.value("mean") == pytest.approx(0.2)


def test_round_aggregate_empty_raises():
    with pytest.raises(ValueError):
        RoundAggregate().value("mean")


def test_round_aggregate_unknown_kind():
    agg = RoundAggregate()
    agg.samples.append(0.1)
    with pytest.raises(ValueError):
        agg.value("median")


def test_estimator_initial_state():
    est = RttEstimator()
    assert est.base_rtt is None
    assert est.sample_count == 0


def test_estimator_rejects_bad_aggregate():
    with pytest.raises(ValueError):
        RttEstimator(aggregate="median")


def test_estimator_rejects_bad_gain():
    with pytest.raises(ValueError):
        RttEstimator(ewma_gain=0.0)
    with pytest.raises(ValueError):
        RttEstimator(ewma_gain=1.5)


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
    SRTT = 0.1, RTTVAR = 0.05; the second moves SRTT halfway, to 0.2, and
    RTTVAR to 0.05 + (|0.1 - 0.3| - 0.05) / 4 = 0.0875 (RFC 6298)."""
    est = RttEstimator(ewma_gain=0.5)
    est.add_sample(0.1)
    assert est.retransmission_timeout(minimum=0.0) == pytest.approx(0.3)
    est.add_sample(0.3)
    assert est.retransmission_timeout(minimum=0.0) == pytest.approx(0.2 + 4 * 0.0875)


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
