"""The multi-hop optimal congestion window model.

The paper: "As a baseline, we developed a model to calculate the
source's optimal congestion window in a multi-hop scenario."  This
module is that model, derived for the feedback-based hop transport.

Derivation
----------
Consider a circuit whose data direction traverses links
``L_0, L_1, ..., L_{n-1}`` with rates ``r_i`` and one-way propagation
delays ``d_i``.  The circuit's sustainable throughput is the bottleneck
rate ``B = min_i r_i``.

Hop *i*'s sender (the node upstream of ``L_i``) receives one feedback
message per cell *when its successor forwards the cell* (or, at the
last hop, delivers it).  With an idle successor, the feedback loop of
hop *i* takes

    loop_i = tx_i(cell) + d_i + tx_fb_i + d_i

where ``tx_i(cell) = cell_size / r_i`` is the data cell's serialization
delay and ``tx_fb_i = feedback_size / r_i`` the (small) feedback cell's
serialization on the reverse channel.  The successor's own forwarding
action is window-gated but takes no additional service time in the
unloaded state.

In steady state the successor forwards at most at rate ``B`` (its own
window converges to the bottleneck by backpropagation), so feedback
returns to hop *i* at rate ``B``.  Hop *i* keeps the pipe full iff its
window covers the bandwidth-delay product of its loop **at the
bottleneck rate**:

    W_i* = B · loop_i                                  (bytes)

The *source's* optimal window — the dashed line of Figure 1a/b — is
``W_0*``.  Note the paper's caveat, visible in the formula: the optimal
window depends only on the source's *local* loop delay, so when network
delay differs significantly between relays, backpropagation (which
carries the *bottleneck's* window upstream) may underestimate it.
:func:`backpropagated_window` computes that propagated fixed point for
the A4 ablation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence

from ..transport.config import TransportConfig
from ..units import Rate

__all__ = [
    "HopLink",
    "OptimalWindow",
    "bottleneck_rate",
    "hop_loop_delay",
    "optimal_windows",
    "source_optimal_window",
    "backpropagated_window",
]


@dataclass(frozen=True)
class HopLink:
    """One link of the circuit's data path: rate and one-way delay."""

    rate: Rate
    delay: float

    def __post_init__(self) -> None:
        if not 0 <= self.delay < float("inf"):  # also NaN
            raise ValueError("delay must be in [0, inf), got %r" % self.delay)


@dataclass(frozen=True)
class OptimalWindow:
    """The model's output for one hop."""

    hop_index: int
    loop_delay: float
    window_bytes: float
    window_cells: int


def bottleneck_rate(links: Sequence[HopLink]) -> Rate:
    """The circuit's sustainable rate: the slowest link."""
    if not links:
        raise ValueError("a circuit needs at least one link")
    return min((link.rate for link in links), key=lambda r: r.bytes_per_second)


def hop_loop_delay(link: HopLink, config: TransportConfig) -> float:
    """Unloaded feedback-loop delay of the hop sending over *link*."""
    tx_cell = link.rate.transmission_time(config.cell_size)
    tx_feedback = link.rate.transmission_time(config.feedback_size)
    return tx_cell + tx_feedback + 2.0 * link.delay


def optimal_windows(
    links: Sequence[HopLink], config: TransportConfig
) -> List[OptimalWindow]:
    """The optimal window of every hop sender along the circuit."""
    bottleneck = bottleneck_rate(links)
    out: List[OptimalWindow] = []
    for index, link in enumerate(links):
        loop = hop_loop_delay(link, config)
        window_bytes = bottleneck.bytes_per_second * loop
        window_cells = max(
            config.min_cwnd_cells, math.ceil(window_bytes / config.cell_size)
        )
        out.append(OptimalWindow(index, loop, window_bytes, window_cells))
    return out


def source_optimal_window(
    links: Sequence[HopLink], config: TransportConfig
) -> OptimalWindow:
    """The source's optimal window — the dashed line in Figure 1a/b."""
    return optimal_windows(links, config)[0]


def backpropagated_window(
    links: Sequence[HopLink], config: TransportConfig
) -> int:
    """The window CircuitStart's backpropagation converges to at the source.

    Backpropagation forwards the *minimum* window along the circuit:
    each hop observes it can get at most its successor's window worth
    of cells forwarded per round, so the source ends up at
    ``min_i W_i*`` (in cells).  Equal to the source's optimal window
    when the bottleneck's loop delay is no shorter than the source's —
    and an *underestimate* otherwise, the safety property the paper
    points out ("if network delay differs significantly between relays,
    the optimal window may be underestimated").
    """
    return min(w.window_cells for w in optimal_windows(links, config))
