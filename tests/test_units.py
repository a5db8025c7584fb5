"""Unit tests for quantities and conversions (repro.units)."""

from __future__ import annotations


import pytest
from hypothesis import given, strategies as st

from repro.units import (
    KIB,
    MIB,
    Rate,
    bits_per_second,
    kib,
    mbit_per_second,
    mib,
    milliseconds,
    seconds,
)


def test_time_helpers():
    assert seconds(2) == 2.0
    assert milliseconds(250) == 0.25


def test_size_helpers():
    assert kib(1) == KIB == 1024
    assert mib(1) == MIB == 1024 * 1024
    assert kib(1.5) == 1536


def test_rate_constructors_agree():
    assert bits_per_second(8e6).bytes_per_second == 1e6
    assert mbit_per_second(8).bytes_per_second == 1e6


def test_rate_properties():
    rate = mbit_per_second(16)
    assert rate.bits_per_second == 16e6
    assert rate.mbit_per_second == pytest.approx(16.0)


def test_rate_rejects_nonpositive():
    with pytest.raises(ValueError):
        Rate(0)
    with pytest.raises(ValueError):
        Rate(-5)


def test_rate_rejects_nonfinite():
    with pytest.raises(ValueError):
        Rate(float("inf"))
    with pytest.raises(ValueError):
        Rate(float("nan"))


def test_transmission_time():
    rate = mbit_per_second(8)  # 1e6 bytes/s
    assert rate.transmission_time(512) == pytest.approx(512e-6)
    assert rate.transmission_time(0) == 0.0


def test_transmission_time_rejects_negative():
    with pytest.raises(ValueError):
        mbit_per_second(8).transmission_time(-1)


def test_scaled():
    rate = mbit_per_second(8)
    assert rate.scaled(2.0).bytes_per_second == pytest.approx(2e6)
    with pytest.raises(ValueError):
        rate.scaled(0.0)


def test_rates_order_by_throughput():
    assert mbit_per_second(2) < mbit_per_second(10)
    assert min(mbit_per_second(5), mbit_per_second(3)) == mbit_per_second(3)


@given(
    st.floats(min_value=1e3, max_value=1e10),
    st.integers(min_value=0, max_value=10**9),
)
def test_property_transmission_roundtrip(bytes_per_second, nbytes):
    """bytes transmitted in tx_time equal nbytes (within float error)."""
    rate = Rate(bytes_per_second)
    tx = rate.transmission_time(nbytes)
    assert rate.bytes_per_second * tx == pytest.approx(nbytes, rel=1e-9, abs=1e-6)
