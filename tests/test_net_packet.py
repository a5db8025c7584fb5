"""Unit tests for packets (repro.net.packet)."""

from __future__ import annotations

import pytest

from repro.net.packet import Packet


def test_packet_fields():
    p = Packet(512, payload="cell", src="a", dst="b", created_at=1.5)
    assert p.size == 512
    assert p.payload == "cell"
    assert p.src == "a"
    assert p.dst == "b"
    assert p.created_at == 1.5


def test_zero_size_rejected():
    with pytest.raises(ValueError):
        Packet(0)


def test_negative_size_rejected():
    with pytest.raises(ValueError):
        Packet(-10)



@pytest.mark.parametrize("size", [0.5, 1.5, 511.25, -0.5, float("nan"), float("inf")])
def test_a_size_that_is_not_a_positive_whole_number_is_rejected(size):
    # 0.5 used to pass the check and become a 0-byte packet.
    with pytest.raises(ValueError, match="positive whole number"):
        Packet(size)


def test_an_integral_float_size_is_stored_as_an_int():
    size = Packet(512.0).size
    assert size == 512 and type(size) is int
