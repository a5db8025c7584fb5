"""CircuitStart — the paper's start-up algorithm.

CircuitStart transfers the idea of a slow start to the multi-hop
scenario.  The differences from a traditional slow start, quoting the
paper's §2 and implemented here one-for-one:

1. *Feedback-driven growth.*  "An increase of the cwnd is not triggered
   by the reception of an ACK, but by feedback messages indicating that
   the cell has been forwarded by the successor relay."  The
   :class:`~repro.transport.hop.HopSender` converts those feedback
   messages into :meth:`on_feedback` calls; growth therefore captures
   the *successor relay's* state, not just the link in between.

2. *Discrete rounds.*  "The window growth does not happen continuously,
   but in discrete rounds, carried out once per RTT after having
   received an appropriate number of feedback messages."  The base
   class counts a window's worth of feedback per round; when a round
   completes during start-up, the window **doubles**
   (:meth:`_startup_round_complete`).

3. *Vegas-style exit detection.*  Per feedback message, the controller
   evaluates ``diff = cwnd * currentRtt / baseRtt - cwnd``; if
   ``diff > γ`` (γ = 4 by default) "this hints at a growing queue at
   the successor relay" and start-up ends.

4. *Overshooting compensation.*  Instead of halving, "the cwnd is set
   to the amount of data acknowledged within the current round so far"
   — the length of the packet train the successor forwarded without
   additional delay, which is the minimal window that still fully
   utilizes the path.  (The traditional halving and a no-op are
   available through ``TransportConfig.compensation`` for the A2
   ablation.)

5. *Backpropagation* needs no dedicated code: it emerges from the hop
   coupling.  When a bottleneck relay shrinks its window, its
   predecessor receives feedback no faster than the bottleneck
   forwards, so the predecessor's own rounds stretch and its Vegas
   signal fires at (roughly) the same window.  The A4 ablation
   (:mod:`repro.experiments.ablations`) verifies this convergence.
"""

from __future__ import annotations

from typing import Optional

from ..transport.config import TransportConfig
from ..transport.controller import WindowController

__all__ = ["CircuitStartController"]


class CircuitStartController(WindowController):
    """The CircuitStart start-up scheme (paper §2)."""

    name = "circuitstart"

    def __init__(self, config: TransportConfig) -> None:
        super().__init__(config)
        #: Window immediately before the overshoot compensation fired
        #: (``None`` until start-up ends); recorded for the ablations.
        self.cwnd_before_exit: Optional[int] = None
        #: The Vegas diff value that triggered the exit.
        self.exit_diff: Optional[float] = None

    # ------------------------------------------------------------------
    # Start-up hooks
    # ------------------------------------------------------------------

    def _startup_feedback(self, rtt: float, now: float) -> bool:
        """Per-feedback queue-growth check (paper's diff > γ exit).

        Two conditions end the ramp-up:

        * the *round's* aggregate RTT ("currentRtt corresponds to the
          latest round", min by default) pushes diff past γ — a
          standing queue delayed the entire packet train; or
        * one sample's diff exceeds ``sample_gamma_factor * γ`` — the
          sudden large delay that appears when an upstream relay's
          window saturates because a *distant* bottleneck is
          backpressuring the circuit.
        """
        diff_round = self.rtt.vegas_diff(self.cwnd_cells)
        diff_sample = self.rtt.vegas_diff(self.cwnd_cells, rtt=rtt)
        gamma = self.config.gamma
        if diff_round > gamma:
            self._exit_startup(now, diff_round)
            return True
        if diff_sample > self.config.sample_gamma_factor * gamma:
            self._exit_startup(now, diff_sample)
            return True
        return False

    def _startup_round_complete(self, now: float, full: bool) -> None:
        """A round of feedback arrived without congestion: double.

        Only *full* rounds double: growth is "carried out once per RTT
        after having received an appropriate number of feedback
        messages" — a round that ended because the hop drained has not
        demonstrated the window is the constraint.
        """
        if full:
            self._set_cwnd(self.cwnd_cells * 2, now)

    # ------------------------------------------------------------------
    # Overshooting compensation
    # ------------------------------------------------------------------

    def _exit_startup(self, now: float, diff: float) -> None:
        self.cwnd_before_exit = self.cwnd_cells
        self.exit_diff = diff
        compensated = self._compensated_window(now)
        self._enter_avoidance(now)
        self._set_cwnd(compensated, now)
        self._start_round(now)

    def _compensated_window(self, now: float) -> int:
        """The post-exit window under the configured compensation mode."""
        mode = self.config.compensation
        if mode == "acked":
            # "The cwnd is set to the amount of data acknowledged within
            # the current round so far."  A round lasts one RTT, so the
            # estimate is the per-RTT feedback count (averaged over the
            # trailing windows for robustness) — the packet train the
            # successor forwarded in one round — and can never exceed
            # the window that was in flight.
            return min(self.acked_per_rtt(now), self.cwnd_cells)
        if mode == "halve":
            return self.cwnd_cells // 2
        # mode == "none": keep the overshot window (ablation A2).
        return self.cwnd_cells
