"""Round-trip-time estimation for the per-hop feedback loop.

CircuitStart measures, per cell, the time between transmitting the cell
and receiving the corresponding feedback message from the successor.
Two derived values drive the algorithm:

* ``base_rtt`` — the minimum RTT ever observed on this hop, a proxy for
  the unloaded feedback-loop delay (exactly TCP Vegas' BaseRTT);
* ``current_rtt`` — a representative RTT for the *latest round* of the
  window growth; we aggregate the round's samples (mean by default,
  configurable to min/max/last for ablations).

The estimator also keeps an EWMA ("smoothed") RTT and its deviation
for the optional retransmission timer.
"""

from __future__ import annotations

import math
from typing import List, Optional

__all__ = ["RttEstimator"]

#: Supported per-round aggregation functions.
_AGGREGATES = ("mean", "min", "max", "last")

#: Gain of the smoothed-RTT filter (RFC 6298's 1/8).
_EWMA_GAIN = 0.125


class RttEstimator:
    """Tracks base RTT, per-round RTT and a smoothed RTT for one hop.

    Parameters
    ----------
    aggregate:
        How a round's samples collapse into ``current_rtt``
        (default ``"mean"``).
    """

    def __init__(self, aggregate: str = "mean") -> None:
        if aggregate not in _AGGREGATES:
            raise ValueError(
                "unknown aggregate %r (want one of %s)" % (aggregate, _AGGREGATES)
            )
        self.aggregate = aggregate
        #: Minimum RTT ever seen on this hop (``None`` before any
        #: sample).  Only :meth:`add_sample` writes it; the controller
        #: reads it per feedback, so it is a plain attribute.
        self.base_rtt: Optional[float] = None
        self._smoothed: Optional[float] = None
        self._rttvar: Optional[float] = None
        self._last_sample: Optional[float] = None
        # The samples of the round in progress.
        self._round: List[float] = []
        self.sample_count = 0

    # ------------------------------------------------------------------

    @property
    def round_samples(self) -> int:
        """Number of samples collected in the current round."""
        return len(self._round)

    # ------------------------------------------------------------------

    def add_sample(self, rtt: float) -> None:
        """Record one cell's feedback RTT."""
        if rtt < 0:
            raise ValueError("RTT must be non-negative, got %r" % rtt)
        self.sample_count += 1
        self._last_sample = rtt
        if self.base_rtt is None or rtt < self.base_rtt:
            self.base_rtt = rtt
        if self._smoothed is None:
            self._smoothed = rtt
            self._rttvar = rtt / 2.0
        else:
            # RFC 6298 bookkeeping (beta = 1/4 on the deviation).
            assert self._rttvar is not None
            self._rttvar += 0.25 * (abs(self._smoothed - rtt) - self._rttvar)
            self._smoothed += _EWMA_GAIN * (rtt - self._smoothed)
        self._round.append(rtt)

    def current_rtt(self) -> float:
        """Representative RTT of the round in progress.

        Falls back to the last raw sample when the round is empty
        (immediately after :meth:`finish_round`).
        """
        samples = self._round
        if samples:
            how = self.aggregate
            if how == "mean":
                return math.fsum(samples) / len(samples)
            if how == "min":
                return min(samples)
            if how == "max":
                return max(samples)
            return samples[-1]  # "last"
        if self._last_sample is None:
            raise ValueError("no RTT samples recorded yet")
        return self._last_sample

    def finish_round(self) -> None:
        """Close the current round and start collecting the next one."""
        self._round.clear()

    def retransmission_timeout(
        self, minimum: float = 0.05, maximum: float = 10.0, fallback: float = 1.0
    ) -> float:
        """RFC 6298 retransmission timeout: ``SRTT + 4·RTTVAR``.

        Clamped to [*minimum*, *maximum*]; *fallback* applies before any
        sample exists (a fresh hop has no RTT history yet).
        """
        if self._smoothed is None or self._rttvar is None:
            return max(minimum, min(fallback, maximum))
        rto = self._smoothed + 4.0 * self._rttvar
        return max(minimum, min(rto, maximum))

    def vegas_diff(self, cwnd_cells: float, rtt: Optional[float] = None) -> float:
        """The paper's queue-length estimate for window *cwnd_cells*.

        ``diff = cwnd * currentRtt / baseRtt - cwnd`` — the number of
        cells the window overshoots what the pipe can hold, i.e. the
        cells sitting in the successor's queue.  *rtt* overrides the
        round-aggregate RTT for per-sample checks.
        """
        if self.base_rtt is None or self.base_rtt <= 0:
            return 0.0
        current = self.current_rtt() if rtt is None else rtt
        return cwnd_cells * current / self.base_rtt - cwnd_cells
