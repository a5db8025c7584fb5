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


def test_packet_uids_unique_and_increasing():
    a = Packet(1)
    b = Packet(1)
    assert b.uid > a.uid


def test_zero_size_rejected():
    with pytest.raises(ValueError):
        Packet(0)


def test_negative_size_rejected():
    with pytest.raises(ValueError):
        Packet(-10)


def test_hop_counting():
    p = Packet(100)
    assert p.hop_count() == 0
    p.hops += 2  # what Node.deliver does once per link crossed
    assert p.hop_count() == 2


def test_metadata_starts_empty_and_is_per_packet():
    a = Packet(1)
    b = Packet(1)
    a.metadata["k"] = "v"
    assert b.metadata == {}
