"""Dynamic CircuitStart — the paper's future-work extension.

The poster's conclusion: "Our future work will include expanding the
scope of the algorithm to not only the initial phase of a circuit, but
to enable it to quickly respond to changing network conditions during
the congestion avoidance phase."

:class:`DynamicCircuitStartController` implements the natural reading
of that sentence on top of the published algorithm:

* **Ramp-up re-entry.**  If the Vegas diff stays below ``alpha`` for
  several consecutive rounds (persistent under-utilization — e.g. a
  competing circuit finished, or the bottleneck link got faster), the
  controller re-enters the CircuitStart start-up phase, doubling per
  round again until the γ signal fires.  Vegas alone would crawl
  upward one cell per RTT.

* **Fast cut-back.**  If the diff explodes past ``cut_factor * beta``
  within a single round (sudden congestion), the controller applies
  the same overshooting-compensation rule used at start-up exit —
  window := cells acknowledged in the round so far — instead of
  stepping down one cell per RTT.

Both knobs are conservative by construction (re-entry needs sustained
evidence, cut-back reuses the compensation estimate), in line with the
paper's stated goal of avoiding aggressive traffic patterns.
"""

from __future__ import annotations

from ..transport.config import TransportConfig
from ..transport.controller import Phase
from .circuitstart import CircuitStartController

__all__ = ["DynamicCircuitStartController"]


class DynamicCircuitStartController(CircuitStartController):
    """CircuitStart extended to react to mid-flow condition changes."""

    name = "circuitstart-dynamic"

    def __init__(
        self,
        config: TransportConfig,
        reentry_rounds: int = 3,
        cut_factor: float = 3.0,
        reentry_cooldown_rounds: int = 12,
    ) -> None:
        super().__init__(config)
        if reentry_rounds < 1:
            raise ValueError("reentry_rounds must be at least 1")
        if cut_factor <= 1.0:
            raise ValueError("cut_factor must exceed 1 (multiplies beta)")
        if reentry_cooldown_rounds < 0:
            raise ValueError("reentry_cooldown_rounds must be non-negative")
        self.reentry_rounds = reentry_rounds
        self.cut_factor = cut_factor
        #: Rounds to wait after a re-entry before another is allowed —
        #: prevents the re-enter/exit/crawl limit cycle when the
        #: compensated window lands marginally below the new optimum.
        self.reentry_cooldown_rounds = reentry_cooldown_rounds
        self._consecutive_low = 0
        self._cooldown_until_round = 0
        #: Number of times the controller re-entered start-up mid-flow.
        self.reentries = 0
        #: Number of fast cut-backs applied during avoidance.
        self.fast_cuts = 0

    def _avoidance_round(self, now: float, full: bool) -> None:
        if self.rtt.base_rtt is None or self.rtt.round_samples == 0:
            return
        diff = self.rtt.vegas_diff(self.cwnd_cells)
        if diff < self.config.vegas_alpha and full:
            self._consecutive_low += 1
            self._set_cwnd(self.cwnd_cells + 1, now)
            if (
                self._consecutive_low >= self.reentry_rounds
                and self.round_index >= self._cooldown_until_round
            ):
                self._reenter_startup(now)
            return
        self._consecutive_low = 0
        if diff > self.cut_factor * self.config.vegas_beta:
            self.fast_cuts += 1
            cut = max(self.config.min_cwnd_cells, self.round_acked)
            self._set_cwnd(cut, now)
        elif diff > self.config.vegas_beta:
            self._set_cwnd(self.cwnd_cells - 1, now)

    def _reenter_startup(self, now: float) -> None:
        self.reentries += 1
        self._consecutive_low = 0
        self._cooldown_until_round = self.round_index + self.reentry_cooldown_rounds
        self.phase = Phase.STARTUP
