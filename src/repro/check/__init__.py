"""Exhaustive interleaving checker for the hop transport.

This package is the repository's safety net for protocol correctness:
a compact explicit-state **model** of the hop-by-hop transport
(:mod:`repro.check.model`), an **enumerator** that explores *every*
event interleaving of small circuits with state hashing and sleep-set
partial-order reduction (:mod:`repro.check.explore`), an **invariant
catalog** asserted in every reached state
(:mod:`repro.check.invariants`), and a **replay bridge** that
re-executes any enumerated schedule — counterexample or sample —
against the real :class:`~repro.sim.simulator.Simulator` /
:class:`~repro.transport.hop.HopSender` /
:class:`~repro.tor.hosts.TorHost` stack
(:mod:`repro.check.replay`).

The approach follows Commuter's explicit-state style (named in the
ROADMAP's "Correctness at scale" item): determinism pins *one*
schedule byte-for-byte; the checker pins *all* schedules of a small
instance.
"""

from typing import Any

from .._lazy import bind_all

__all__ = [
    "CheckConfig",
    "CheckResult",
    "Counterexample",
    "INVARIANTS",
    "ModelError",
    "ModelState",
    "ReplayMismatch",
    "ReplayReport",
    "Schedule",
    "ScheduleStep",
    "explore",
    "render_check_report",
    "replay_schedule",
    "state_violations",
]


def __getattr__(name: str) -> Any:
    """Load the submodules and bind ``__all__`` on first use (PEP 562)."""
    return bind_all(globals(), (
        "model", "schedule", "explore", "invariants", "replay", "report",
    ), name)
