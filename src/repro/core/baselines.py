"""Baseline start-up schemes CircuitStart is compared against.

* :class:`VegasStartController` — "without CircuitStart": BackTap as
  published.  BackTap's per-hop congestion control is Vegas-like and
  has **no start-up phase** — the window begins at the initial value
  and adapts one cell per round.  The paper's motivation is precisely
  that "most tailored approaches ... neglect the question of how to
  ramp-up the congestion window during the initial phase"; this
  controller is that neglected state of the art, the comparator of the
  Figure-1 CDF ("with CircuitStart" vs "without").

* :class:`PlainSlowStartController` — a traditional TCP-style slow
  start transferred naively to the multi-hop setting: the transport
  keeps BackTap's feedback loop but grows one cell per feedback
  (doubling per RTT, continuously rather than in trains) and *halves*
  on the Vegas exit signal, with no overshooting compensation.

* :class:`FixedWindowController` — no start-up at all: a constant
  window in the spirit of vanilla Tor's fixed 1000-cell circuit window
  (scaled down because our window is per hop, not end-to-end).  Shows
  both extremes: too small a fixed window starves the pipe, too large
  floods the bottleneck queue.

* :class:`JumpStartController` — starts directly at a large window
  with no ramp-up phase, the transfer of Liu et al.'s JumpStart [4]
  that the paper argues "is not suitable for multi-hop scenarios":
  the initial flight overshoots distant bottlenecks and Vegas's
  one-cell-per-round decrease takes a long time to drain the standing
  queue.
"""

from __future__ import annotations

from ..transport.config import TransportConfig
from ..transport.controller import Phase, WindowController

__all__ = [
    "VegasStartController",
    "PlainSlowStartController",
    "FixedWindowController",
    "JumpStartController",
]


class VegasStartController(WindowController):
    """BackTap's native behaviour: congestion avoidance from cell one.

    No ramp-up: the window starts at ``initial_cwnd_cells`` and moves
    one cell per round under the Vegas rule.  Reaching a BDP of *W*
    cells takes roughly *W* round trips — the slow adaption CircuitStart
    was designed to replace.
    """

    name = "vegas-start"

    def __init__(self, config: TransportConfig) -> None:
        super().__init__(config)
        self.phase = Phase.AVOIDANCE  # BackTap has no start-up phase


class PlainSlowStartController(WindowController):
    """Traditional slow start on top of the feedback loop ("without").

    Growth is continuous (one cell per feedback message) rather than
    round-based, and leaving slow start halves the window — exactly
    what a traditional startup scheme would do, per the paper:
    "traditional start-up schemes would halve the cwnd before entering
    congestion avoidance."
    """

    name = "plain-slowstart"

    def _startup_feedback(self, rtt: float, now: float) -> bool:
        # Same dual detector as CircuitStart: the comparison under test
        # is the growth pattern and the exit *policy*, not the sensing.
        diff_round = self.rtt.vegas_diff(self.cwnd_cells)
        diff_sample = self.rtt.vegas_diff(self.cwnd_cells, rtt=rtt)
        gamma = self.config.gamma
        triggered = diff_round > gamma or (
            diff_sample > self.config.sample_gamma_factor * gamma
        )
        if triggered:
            self._enter_avoidance(now)
            self._set_cwnd(self.cwnd_cells // 2, now)
            self._start_round(now)
            return True
        self._set_cwnd(self.cwnd_cells + 1, now)
        return False

    def _startup_round_complete(self, now: float, full: bool) -> None:
        """Growth is per-feedback; nothing extra happens per round."""


class FixedWindowController(WindowController):
    """A constant congestion window (Tor's SENDME spirit, per hop)."""

    name = "fixed-window"

    def __init__(self, config: TransportConfig, window_cells: int = 100) -> None:
        super().__init__(config)
        if window_cells < 1:
            raise ValueError("fixed window must be at least one cell")
        self.cwnd_cells = max(
            config.min_cwnd_cells, min(window_cells, config.max_cwnd_cells)
        )
        self.phase = Phase.AVOIDANCE  # never performs a start-up

    def _avoidance_round(self, now: float, full: bool) -> None:
        """The window never moves."""


class JumpStartController(WindowController):
    """Start at a large window immediately; rely on Vegas to recover."""

    name = "jumpstart"

    def __init__(self, config: TransportConfig, initial_cells: int = 128) -> None:
        super().__init__(config)
        if initial_cells < 1:
            raise ValueError("jumpstart window must be at least one cell")
        self.cwnd_cells = max(
            config.min_cwnd_cells, min(initial_cells, config.max_cwnd_cells)
        )
        self.round_target = self.cwnd_cells
        self.phase = Phase.AVOIDANCE  # skips the start-up phase entirely
