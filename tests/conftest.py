"""Shared fixtures for the test suite.

Plain helpers live in :mod:`helpers` (``tests/helpers.py``) and are
imported explicitly by the tests that use them.

Tier-1 runs the ``tier1`` Hypothesis profile: derandomized and without
an example database, so every box and every CI run executes the same
examples.  The scheduled CI job keeps searching with
``--hypothesis-profile=default``.
"""

from __future__ import annotations

import pytest
from hypothesis import settings

from repro.sim.simulator import Simulator
from repro.transport.config import TransportConfig

settings.register_profile("tier1", derandomize=True, database=None)
settings.load_profile("tier1")


@pytest.fixture
def sim():
    """A fresh simulator."""
    return Simulator()


@pytest.fixture
def config():
    """Default transport configuration."""
    return TransportConfig()
