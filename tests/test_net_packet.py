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

