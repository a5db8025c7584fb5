"""Workload parts: what one circuit carries.

Three workload classes ship with the scenario API, all registered under
:class:`~repro.scenario.parts.Workload`:

* :class:`BulkWorkload` — the paper's evaluation workload, "transferring
  a fixed amount of data": one :class:`~repro.tor.apps.BulkSource`
  injects the whole payload at the start time and the transport's
  windows pace everything from there.
* :class:`InteractiveWorkload` — a *real* interactive circuit, backed by
  the stream layer (:class:`~repro.tor.streams.StreamScheduler` and
  :class:`~repro.tor.streams.MultiStreamSink`): the source queues a
  fixed number of small messages on an open-loop timer (a page fetch
  followed by its resources), and every message's delivery is
  timestamped, so per-message latency under network-scale load comes
  out of the run for free.
* :class:`RequestResponseWorkload` — the closed-loop counterpart: the
  next message goes out one think time after the previous one fully
  arrived.

A workload part has two lives.  At *planning* time it is pure data —
:meth:`~repro.scenario.parts.Workload.total_bytes` feeds the cost
estimator and the goodput denominator.  At *run* time,
:meth:`~repro.scenario.parts.Workload.attach` installs the application
endpoints on a built :class:`~repro.tor.circuit.CircuitFlow` and
returns a :class:`WorkloadRun`: the handle the engine polls for
completion and mines for the per-circuit sample, which reads all of it
off the sink the workload attached.  A bulk circuit's run is exactly
that; a message workload's run is a :class:`_StreamRun` subclass that
also owns the stream, its send timer and the per-message books.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, ClassVar, List, Optional

from ..sim.rand import derive_seed
from ..tor.streams import MultiStreamSink, StreamScheduler
from ..transport.config import CELL_PAYLOAD
from ..units import kib
from .parts import Workload, register_part

__all__ = [
    "BulkWorkload",
    "InteractiveWorkload",
    "RequestResponseWorkload",
    "WorkloadRun",
]


class WorkloadRun:
    """Runtime handle of one circuit's workload (engine-facing).

    The one concrete handle: completion and timing are read off the
    *sink* the workload attached — a :class:`~repro.tor.apps.SinkApp`
    or a :class:`~repro.tor.streams.MultiStreamSink`, anything with
    ``done``, ``received_bytes``, ``first_cell_time`` and a
    ``completed`` waiter.  The handle itself keeps the failure record
    and the departure wiring: when the scenario's churn process tears
    completed circuits down, :meth:`enable_departure` subscribes the
    teardown to the sink's completion waiter.
    """

    def __init__(self, flow: Any, sink: Any, workload_name: str) -> None:
        self.flow = flow
        self.sink = sink
        #: Registry name of the workload part that attached this run,
        #: so probes can filter by workload class.
        self.workload_name = workload_name
        self.departed_at: Optional[float] = None
        #: Failure record (fault plane): when and why the circuit died.
        self.failed_at: Optional[float] = None
        self.failure_cause: Optional[str] = None

    # --- completion surface (the sink's) --------------------------------

    @property
    def done(self) -> bool:
        return self.sink.done

    @property
    def delivered_bytes(self) -> int:
        """Application bytes delivered to the sink so far.

        The per-circuit goodput probe samples this on its grid.
        """
        return self.sink.received_bytes

    @property
    def completed(self) -> Any:
        """The :class:`~repro.sim.process.Waiter` triggered at the last byte."""
        return self.sink.completed

    @property
    def first_byte_time(self) -> Optional[float]:
        return self.sink.first_cell_time

    @property
    def last_byte_time(self) -> float:
        return self.sink.completed.value

    @property
    def message_latencies(self) -> List[float]:
        """Queue-to-delivery latency per message (message workloads only)."""
        return []

    # --- failures (fault plane) -----------------------------------------

    @property
    def failed(self) -> bool:
        return self.failed_at is not None

    def fail(self, at: float, cause: str) -> None:
        """Mark the run failed: record the cause and release everything.

        Idempotent, and a no-op on a run that already completed — a
        relay dying after the last byte landed is not this circuit's
        failure.  Cancels the workload's own pending timers (the
        subclass hook) and aborts the flow (cancelling a not-yet-started
        bulk source, closing hop senders, cancelling RTO timers), so a
        failed circuit leaves no dead events behind in the queue.
        """
        if self.failed or self.done:
            return
        self.failed_at = at
        self.failure_cause = cause
        self._cancel_pending()
        self.flow.abort()

    def _cancel_pending(self) -> None:
        """Subclass hook: cancel the workload's own scheduled events."""

    def release(self) -> None:
        """Drop the completion subscriptions once its kind run is over.

        The engine's, the probes' and the departure's callbacks all
        reference this run, which references the sink and its waiter.
        """
        self.completed.release()

    # --- departures -----------------------------------------------------

    def enable_departure(self) -> None:
        """Tear the circuit down (and timestamp it) when the workload ends."""
        self.completed.subscribe(self._depart)

    def _depart(self, at: float) -> None:
        self.departed_at = at
        self.flow.teardown()


@register_part
@dataclass(frozen=True)
class BulkWorkload(Workload):
    """A fixed-size download (the paper's evaluation workload)."""

    weight: float = 1.0
    payload_bytes: int = kib(300)
    part: str = field(default="bulk", init=False)

    #: The engine builds the flow with its built-in bulk apps.
    flow_workload: ClassVar[str] = "bulk"

    def __post_init__(self) -> None:
        if not 0 <= self.weight < float("inf"):  # also NaN
            raise ValueError(
                "workload weight must be >= 0 and finite, got %r" % self.weight
            )
        if self.payload_bytes <= 0:
            raise ValueError(
                "payload_bytes must be positive, got %r" % self.payload_bytes
            )

    def total_bytes(self) -> int:
        return self.payload_bytes

    def attach(self, sim: Any, flow: Any, planned: Any) -> WorkloadRun:
        # CircuitFlow(workload="bulk") already installed the source and
        # the sink.
        return WorkloadRun(flow, flow.sink, self.part)


class _StreamRun(WorkloadRun):
    """A message workload on one circuit: one stream, one sink, one timer.

    Owns what every message workload needs — the stream scheduler on
    the source's hop sender, the multi-stream sink at the far end, the
    pending send timer and its cancel, and the per-message books: the
    stream's own :class:`~repro.tor.streams.MessageRecord` list, each
    record stamped with its delivery time as the sink reports it.  A
    subclass only says when the next message goes out: it defines
    ``_send_next()`` — first called at the circuit's start time — out
    of :meth:`_send` and :meth:`_send_after`.
    """

    def __init__(self, sim: Any, flow: Any, workload: Workload) -> None:
        circuit_id = flow.spec.circuit_id
        sink = MultiStreamSink(
            sim, circuit_id, expected_bytes=workload.total_bytes()
        )
        super().__init__(flow, sink, workload.part_name)
        self.sim = sim
        self.workload = workload
        self.scheduler = StreamScheduler(flow.hop_senders[0], circuit_id)
        self.stream = self.scheduler.open_stream(1)
        flow.hosts[-1].attach_sink_app(circuit_id, sink)
        sink.on_message = self._on_message
        self._timer = sim.schedule_at(max(flow.start_time, sim.now), self._send_next)

    def _send(self, size: int) -> None:
        """Queue one message of *size* bytes now (the timer has fired)."""
        self._timer = None
        self.scheduler.send_message(1, size, self.sim.now)

    def _send_after(self, delay: float) -> None:
        self._timer = self.sim.schedule(delay, self._send_next)

    def _on_message(self, stream_id: int, message_id: int, at: float) -> None:
        self.stream.messages[message_id].last_byte_at = at

    def _cancel_pending(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    def release(self) -> None:
        super().release()
        self.sink.on_message = None

    @property
    def message_latencies(self) -> List[float]:
        return [
            record.latency
            for record in self.stream.messages
            if record.last_byte_at is not None
        ]


class _InteractiveRun(_StreamRun):
    """Stream-scheduler-backed interactive fetch on one circuit."""

    def _send_next(self) -> None:
        # Open-loop: messages go out on the planned timer regardless of
        # delivery, like a page pulling its resources.  The final
        # message absorbs the configured remainder so the circuit's
        # total matches the declared payload exactly.
        workload = self.workload
        last = len(self.stream.messages) == workload.message_count - 1
        self._send(
            workload.message_bytes + (workload.remainder_bytes if last else 0)
        )
        if not last:
            self._send_after(workload.message_interval)


@register_part
@dataclass(frozen=True)
class InteractiveWorkload(Workload):
    """A short interactive fetch: small messages on an open-loop timer."""

    weight: float = 1.0
    message_bytes: int = kib(5)
    message_count: int = 5
    message_interval: float = 0.1
    #: Extra bytes appended to the final message, so adapters can hit
    #: an exact total payload that does not divide evenly.
    remainder_bytes: int = 0
    part: str = field(default="interactive", init=False)

    #: The engine builds a bare flow; :meth:`attach` installs the
    #: stream scheduler and the multi-stream sink itself.
    flow_workload: ClassVar[str] = "none"

    def __post_init__(self) -> None:
        if not 0 <= self.weight < float("inf"):  # also NaN
            raise ValueError(
                "workload weight must be >= 0 and finite, got %r" % self.weight
            )
        if self.message_bytes <= 0 or self.message_count <= 0:
            raise ValueError(
                "interactive workload needs positive message size and count"
            )
        if not 0 <= self.message_interval < float("inf"):  # also NaN
            raise ValueError(
                "message_interval must be >= 0 and finite, got %r"
                % self.message_interval
            )
        if self.remainder_bytes < 0:
            raise ValueError(
                "remainder_bytes must be >= 0, got %r" % self.remainder_bytes
            )

    def total_bytes(self) -> int:
        return self.message_bytes * self.message_count + self.remainder_bytes

    def estimated_cells(self) -> int:
        """Cells are framed per message, not over the contiguous total."""
        full = -(-self.message_bytes // CELL_PAYLOAD)
        last = -(-(self.message_bytes + self.remainder_bytes) // CELL_PAYLOAD)
        return full * (self.message_count - 1) + last

    def attach(self, sim: Any, flow: Any, planned: Any) -> WorkloadRun:
        return _InteractiveRun(sim, flow, self)


class _RequestResponseRun(_StreamRun):
    """Closed-loop request/response exchange on one circuit.

    Only the response direction carries simulated bytes (circuits are
    unidirectional); a "request" is the instant the client decides to
    ask again, which happens one think time after the previous response
    fully arrived.  Unlike the open-loop interactive run, a congested
    circuit therefore slows the *offered load* down — the closed-loop
    coupling the adversity study needs.
    """

    def __init__(
        self, sim: Any, flow: Any, workload: "RequestResponseWorkload", planned: Any
    ) -> None:
        super().__init__(sim, flow, workload)
        # Think times are runtime draws, but deterministic: the RNG is
        # derived from the part's think_seed and the planned circuit
        # index, never from global state, so reruns replay identically.
        self._rng = random.Random(
            derive_seed(workload.think_seed, "reqresp.%d" % planned.index)
        )

    def _send_next(self) -> None:
        self._send(self.workload.response_bytes)

    def _on_message(self, stream_id: int, message_id: int, at: float) -> None:
        super()._on_message(stream_id, message_id, at)
        if len(self.stream.messages) < self.workload.request_count and not self.failed:
            self._send_after(self._rng.expovariate(1.0 / self.workload.think_time))


@register_part
@dataclass(frozen=True)
class RequestResponseWorkload(Workload):
    """A closed-loop exchange: each request waits for its response.

    The next request is issued one exponential think time (mean
    ``think_time``) after the previous response's last byte arrives.
    """

    weight: float = 1.0
    #: Bytes of one response (the simulated direction).
    response_bytes: int = kib(20)
    #: Number of request/response exchanges per circuit.
    request_count: int = 4
    #: Mean think time between a response and the next request (s).
    think_time: float = 0.2
    #: Salt of the deterministic think-time RNG.
    think_seed: int = 0
    part: str = field(default="request-response", init=False)

    #: The engine builds a bare flow; :meth:`attach` installs the
    #: stream scheduler and the multi-stream sink itself.
    flow_workload: ClassVar[str] = "none"

    def __post_init__(self) -> None:
        if not 0 <= self.weight < float("inf"):  # also NaN
            raise ValueError(
                "workload weight must be >= 0 and finite, got %r" % self.weight
            )
        if self.response_bytes <= 0 or self.request_count <= 0:
            raise ValueError(
                "request/response workload needs positive response size and count"
            )
        if not 0 < self.think_time < float("inf"):  # also NaN
            raise ValueError(
                "think_time must be positive and finite, got %r" % self.think_time
            )

    def total_bytes(self) -> int:
        return self.response_bytes * self.request_count

    def estimated_cells(self) -> int:
        """Cells are framed per response message."""
        return -(-self.response_bytes // CELL_PAYLOAD) * self.request_count

    def attach(self, sim: Any, flow: Any, planned: Any) -> WorkloadRun:
        return _RequestResponseRun(sim, flow, self, planned)
