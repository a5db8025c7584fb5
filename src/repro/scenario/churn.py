"""Churn parts: when circuits arrive, depart and re-arrive.

The arrival/churn process is planned, never reactive: every arrival
time is a pure function of the spec and the seed, drawn at planning
time, so the "with" and "without" runs of a scenario replay the
identical arrival schedule and any difference in the output is
attributable to the start-up scheme.

* :class:`NoChurn` — the classic one-shot wave: every circuit starts
  uniformly within ``start_window`` and stays for its whole transfer.
  This reproduces the pre-scenario harnesses draw for draw.
* :class:`OpenLoopChurn` — the steady-state regime the ROADMAP asked
  for: the initial wave is followed by a Poisson process of *re-arrivals*
  until ``horizon``, and completed circuits *depart* (their state is
  torn down at every host along the path).  The bottleneck relay then
  serves a continuously refreshed mix — old circuits draining while new
  ones join — which is exactly the operating regime a start-up scheme
  has to get right.

Arrivals are ``(generation, start_time)`` pairs: generation 0 is the
initial wave (exactly ``scenario.circuit_count`` entries), generation 1
the churn re-arrivals.  Start-time draws come from the ``starts``
substream and re-arrival draws from the separate ``churn`` substream,
so enabling churn never perturbs the initial wave.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, ClassVar, List, Optional, Tuple

from .parts import ChurnProcess, register_part

__all__ = ["ClosedLoopChurn", "NoChurn", "OpenLoopChurn", "stream_name"]


def stream_name(namespace: str, label: str) -> str:
    """Substream name under *namespace* (bare label when namespace is '').

    Legacy experiment adapters set an empty or experiment-specific
    namespace so their random draws remain byte-identical to the
    pre-scenario harnesses (``"starts"`` for the CDF experiment,
    ``"netscale.starts"`` for netscale).
    """
    return "%s.%s" % (namespace, label) if namespace else label


def _check_horizon(churn: Any) -> None:
    # A NaN or infinite horizon never ends the arrival loop.
    if not churn.start_window <= churn.horizon < float("inf"):
        raise ValueError(
            "horizon (%r) must be finite and not precede the start "
            "window (%r)" % (churn.horizon, churn.start_window)
        )


def _check_settle(churn: Any) -> None:
    # A negative settle would silently classify every warm-up sample
    # as steady state.
    if churn.settle is not None and not 0 <= churn.settle < float("inf"):
        raise ValueError(
            "settle must be non-negative and finite, got %r" % churn.settle
        )


@register_part
@dataclass(frozen=True)
class NoChurn(ChurnProcess):
    """One-shot arrivals: a single wave, no departures."""

    #: Circuits start uniformly within this window (seconds).
    start_window: float = 0.0
    part: str = field(default="none", init=False)

    departures: ClassVar[bool] = False

    def __post_init__(self) -> None:
        if not 0 <= self.start_window < float("inf"):  # also NaN
            raise ValueError(
                "start_window must be non-negative and finite, got %r"
                % self.start_window
            )

    def plan_arrivals(
        self, scenario: Any, streams: Any
    ) -> List[Tuple[int, float]]:
        rng = streams.stream(stream_name(scenario.rng_namespace, "starts"))
        return [
            (0, rng.uniform(0.0, self.start_window))
            for __ in range(scenario.circuit_count)
        ]

    def settle_time(self) -> float:
        # A one-shot wave has no warm-up/steady-state distinction:
        # every sample counts (returning start_window here would make
        # steady_samples() empty for every no-churn scenario).
        return 0.0


@register_part
@dataclass(frozen=True)
class OpenLoopChurn(ChurnProcess):
    """Initial wave + Poisson re-arrivals + departures on completion."""

    #: The initial wave starts uniformly within this window (seconds).
    start_window: float = 2.0
    #: Aggregate re-arrival rate (circuits per second) after the wave.
    arrival_rate: float = 4.0
    #: No re-arrival is planned at or after this simulated time.
    horizon: float = 8.0
    #: Samples from circuits that started before this time count as
    #: warm-up, not steady state; defaults to ``start_window``.
    settle: Optional[float] = None
    part: str = field(default="open-loop", init=False)

    departures: ClassVar[bool] = True

    def __post_init__(self) -> None:
        if not 0 <= self.start_window < float("inf"):  # also NaN
            raise ValueError(
                "start_window must be non-negative and finite, got %r"
                % self.start_window
            )
        if not 0 < self.arrival_rate < float("inf"):  # also NaN
            raise ValueError(
                "arrival_rate must be positive and finite, got %r"
                % self.arrival_rate
            )
        _check_horizon(self)
        _check_settle(self)

    def plan_arrivals(
        self, scenario: Any, streams: Any
    ) -> List[Tuple[int, float]]:
        namespace = scenario.rng_namespace
        start_rng = streams.stream(stream_name(namespace, "starts"))
        arrivals: List[Tuple[int, float]] = [
            (0, start_rng.uniform(0.0, self.start_window))
            for __ in range(scenario.circuit_count)
        ]
        churn_rng = streams.stream(stream_name(namespace, "churn"))
        at = self.start_window
        while True:
            at += churn_rng.expovariate(self.arrival_rate)
            if at >= self.horizon:
                break
            arrivals.append((1, at))
        return arrivals

    def settle_time(self) -> float:
        return self.start_window if self.settle is None else self.settle


@register_part
@dataclass(frozen=True)
class ClosedLoopChurn(ChurnProcess):
    """A fixed user population with think times between sessions.

    Each of the ``circuit_count`` users starts one circuit in the
    initial wave; when a session ends, the user *thinks* for an
    exponential time (mean ``think_time``) and comes back with a fresh
    circuit, until ``horizon``.  Because the plan cannot know actual
    completion times (they depend on the controller kind under test,
    and a plan must serve every kind identically), each session's
    duration is approximated at planning time by the fixed
    ``service_estimate`` — the closed-loop analogue of the open-loop
    process's rate parameter.  All draws come from the ``churn``
    substream, one user at a time, so the schedule is replayable.
    """

    #: The initial wave starts uniformly within this window (seconds).
    start_window: float = 2.0
    #: Mean think time between a session's end and the next arrival.
    think_time: float = 1.0
    #: Planned session duration standing in for the unknown actual one.
    service_estimate: float = 1.0
    #: No re-arrival is planned at or after this simulated time.
    horizon: float = 8.0
    #: Samples from circuits that started before this time count as
    #: warm-up, not steady state; defaults to ``start_window``.
    settle: Optional[float] = None
    part: str = field(default="closed-loop", init=False)

    departures: ClassVar[bool] = True

    def __post_init__(self) -> None:
        if not 0 <= self.start_window < float("inf"):  # also NaN
            raise ValueError(
                "start_window must be non-negative and finite, got %r"
                % self.start_window
            )
        for name in ("think_time", "service_estimate"):
            value = getattr(self, name)
            if not 0 < value < float("inf"):  # also NaN
                raise ValueError(
                    "%s must be positive and finite, got %r" % (name, value)
                )
        _check_horizon(self)
        _check_settle(self)

    def plan_arrivals(
        self, scenario: Any, streams: Any
    ) -> List[Tuple[int, float]]:
        namespace = scenario.rng_namespace
        start_rng = streams.stream(stream_name(namespace, "starts"))
        wave = [
            start_rng.uniform(0.0, self.start_window)
            for __ in range(scenario.circuit_count)
        ]
        arrivals: List[Tuple[int, float]] = [(0, at) for at in wave]
        churn_rng = streams.stream(stream_name(namespace, "churn"))
        for first in wave:
            at = first
            while True:
                at += self.service_estimate + churn_rng.expovariate(
                    1.0 / self.think_time
                )
                if at >= self.horizon:
                    break
                arrivals.append((1, at))
        return arrivals

    def settle_time(self) -> float:
        return self.start_window if self.settle is None else self.settle
