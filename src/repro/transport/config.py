"""Transport configuration.

All tunables of the hop-by-hop transport and its start-up controllers
live in one frozen dataclass so experiments can sweep parameters without
reaching into implementation modules.  Defaults follow the paper:

* cells are 512 bytes on the wire (Tor's fixed cell size);
* the initial congestion window is **2 cells**;
* the Vegas-style exit threshold is **γ = 4**;
* overshoot compensation sets the window to the data acknowledged in
  the current round ("acked" mode).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Dict, List

__all__ = [
    "TransportConfig",
    "TRANSPORT_PROFILES",
    "transport_profile_names",
    "CELL_SIZE",
    "CELL_PAYLOAD",
    "FEEDBACK_SIZE",
]

#: Wire size of a Tor cell in bytes (fixed by the Tor protocol).
CELL_SIZE = 512

#: Application payload carried by one DATA cell.  Tor relay cells spend
#: 14 bytes on circuit/relay headers; we keep the same proportions.
CELL_PAYLOAD = 498

#: Wire size of a feedback ("moving") message.  BackTap-style feedback
#: carries a circuit id and a sequence number, comparable to a Tor
#: SENDME; it must be far smaller than a data cell so that the reverse
#: direction is effectively uncongested.
FEEDBACK_SIZE = 53

#: Named transport profiles — the scenario-reachable presets of the
#: per-hop reliability machinery.  ``"default"`` is the paper's
#: lossless configuration (go-back-N gated off the hot path);
#: ``"reliable"`` arms it with the stock RFC 6298 clamps; ``"lossy"``
#: additionally shortens the cold-start timeout so the first loss on a
#: fresh hop is recovered before it dominates the start-up phase.
TRANSPORT_PROFILES: Dict[str, Dict[str, Any]] = {
    "default": {},
    "reliable": {"reliable": True},
    "lossy": {"reliable": True, "rto_initial": 0.5},
}


def transport_profile_names() -> List[str]:
    """The registered profile names, presentation order."""
    return list(TRANSPORT_PROFILES)


def _lookup_profile(name: str) -> Dict[str, Any]:
    try:
        return TRANSPORT_PROFILES[name]
    except KeyError:
        raise ValueError(
            "unknown transport profile %r (known: %s)"
            % (name, ", ".join(transport_profile_names()))
        ) from None


@dataclass(frozen=True)
class TransportConfig:
    """Tunables for the per-hop transport and start-up controllers.

    Attributes
    ----------
    cell_size / cell_payload / feedback_size:
        Wire and payload sizes, see module constants.
    initial_cwnd_cells:
        Start-of-circuit congestion window (paper: 2 cells).
    min_cwnd_cells:
        Lower bound every controller respects (also 2 cells; windows
        below that deadlock round-based growth).
    gamma:
        Vegas-style slow-start exit threshold on
        ``diff = cwnd * currentRtt / baseRtt - cwnd`` (paper: 4).
    vegas_alpha / vegas_beta:
        Congestion-avoidance thresholds: grow the window when
        ``diff < alpha``, shrink when ``diff > beta`` (classic Vegas
        pairing, used by the BackTap model).
    compensation:
        What happens to the cwnd when leaving slow start:
        ``"acked"``  — CircuitStart's overshooting compensation (cwnd :=
        cells acknowledged within the current round, i.e. the last RTT);
        ``"halve"``  — the traditional slow-start exit;
        ``"none"``   — keep the overshot window (ablation only).
    rtt_aggregate:
        How a round's RTT samples collapse into ``currentRtt`` for the
        Vegas diff (``"min"``, ``"mean"``, ``"max"``, ``"last"``).  The
        default ``"min"`` isolates *standing* queues (every cell of the
        train delayed) from transient intra-round burstiness — the
        "more elaborate analysis of the timing information" the paper
        attributes to its packet trains.
    sample_gamma_factor:
        Escape hatch for distant bottlenecks: a *single* feedback whose
        diff exceeds ``sample_gamma_factor * gamma`` ends start-up even
        if the round minimum has not confirmed a standing queue yet.
        Queue growth several hops away reaches the source through the
        intermediate relays' window saturation, which shows up as a
        sudden large delay mid-round rather than a uniformly delayed
        train.
    compensation_window_rtts:
        The overshoot compensation averages the feedback arrival count
        over this many trailing base-RTT windows.  Averaging makes the
        "cells the successor forwarded per round" estimate robust
        against the stall/burst transients that relay window cuts
        produce along the circuit.
    max_cwnd_cells:
        Safety cap; high enough to never bind in the paper's scenarios.
    """

    cell_size: int = CELL_SIZE
    cell_payload: int = CELL_PAYLOAD
    feedback_size: int = FEEDBACK_SIZE
    initial_cwnd_cells: int = 2
    min_cwnd_cells: int = 2
    gamma: float = 4.0
    sample_gamma_factor: float = 4.0
    vegas_alpha: float = 2.0
    vegas_beta: float = 4.0
    compensation: str = "acked"
    rtt_aggregate: str = "min"
    compensation_window_rtts: int = 2
    max_cwnd_cells: int = 5000
    # --- per-hop reliability (BackTap performs local loss recovery) ---
    #: Enable go-back-N retransmission on each hop.  Off by default:
    #: the paper's experiments run on lossless, backpressure-bounded
    #: queues, where reliability machinery never activates.
    reliable: bool = False
    #: Clamps for the RFC 6298 per-hop retransmission timeout.
    rto_min: float = 0.05
    rto_max: float = 10.0
    #: Initial timeout before any RTT sample exists.
    rto_initial: float = 1.0
    #: Consecutive timeouts without progress before the hop gives up.
    max_retransmission_rounds: int = 12

    def __post_init__(self) -> None:
        if self.cell_payload <= 0 or self.cell_payload > self.cell_size:
            raise ValueError(
                "cell payload %d incompatible with cell size %d"
                % (self.cell_payload, self.cell_size)
            )
        if self.feedback_size <= 0:
            raise ValueError("feedback size must be positive")
        if self.initial_cwnd_cells < 1:
            raise ValueError("initial cwnd must be at least one cell")
        if self.min_cwnd_cells < 1:
            raise ValueError("min cwnd must be at least one cell")
        if self.max_cwnd_cells < self.initial_cwnd_cells:
            raise ValueError("max cwnd smaller than initial cwnd")
        if not 0 < self.gamma < float("inf"):  # also NaN
            raise ValueError("gamma must be positive and finite, got %r" % self.gamma)
        if not 0 <= self.vegas_alpha <= self.vegas_beta < float("inf"):
            raise ValueError(
                "need 0 <= alpha <= beta, both finite, got alpha=%r beta=%r"
                % (self.vegas_alpha, self.vegas_beta)
            )
        if self.compensation not in ("acked", "halve", "none"):
            raise ValueError("unknown compensation mode %r" % self.compensation)
        if self.rtt_aggregate not in ("min", "mean", "max", "last"):
            raise ValueError("unknown rtt aggregate %r" % self.rtt_aggregate)
        if not 1.0 <= self.sample_gamma_factor < float("inf"):  # also NaN
            raise ValueError(
                "sample_gamma_factor must be >= 1 and finite, got %r"
                % self.sample_gamma_factor
            )
        if self.compensation_window_rtts < 1:
            raise ValueError("compensation_window_rtts must be >= 1")
        if not 0 < self.rto_min <= self.rto_max:
            raise ValueError(
                "need 0 < rto_min <= rto_max, got %r / %r"
                % (self.rto_min, self.rto_max)
            )
        if not 0 < self.rto_initial < float("inf"):  # also NaN
            raise ValueError(
                "rto_initial must be positive and finite, got %r" % self.rto_initial
            )
        if self.max_retransmission_rounds < 1:
            raise ValueError("max_retransmission_rounds must be >= 1")

    def with_(self, **changes: Any) -> "TransportConfig":
        """A copy of this config with *changes* applied (sweep helper)."""
        return replace(self, **changes)

    @classmethod
    def profile(cls, name: str, **overrides: Any) -> "TransportConfig":
        """A fresh config from the named profile, plus *overrides*."""
        changes = dict(_lookup_profile(name))
        changes.update(overrides)
        return cls(**changes)

    def with_profile(self, name: str) -> "TransportConfig":
        """This config with the named profile's settings applied on top.

        Keeps every tunable the caller already set (cell sizes, window
        parameters) and switches only the fields the profile names —
        how the adversity experiments promote an existing scenario's
        transport to the reliable configuration.
        """
        return replace(self, **_lookup_profile(name))
