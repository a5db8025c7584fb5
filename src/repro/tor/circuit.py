"""Circuits and end-to-end data flows.

A :class:`CircuitSpec` names the nodes of one circuit in *data
direction* order: the data source first (for a download, the content
origin behind the exit), then the relays, then the data sink (the
client).  :class:`CircuitFlow` wires the per-hop transport along that
path on an existing topology, attaches the workload, and exposes what
the experiments measure:

* ``flow.sink`` — with the built-in bulk workload, the
  :class:`~repro.tor.apps.SinkApp`; its ``completed`` waiter carries
  the time the last byte arrived, which less ``flow.start_time`` is
  the paper's Figure-1c time to last byte;
* ``flow.source_controller`` — the source's window controller, whose
  trace is the paper's Figure-1a/b panel;
* ``flow.hop_senders`` — every hop's sender, source first, used by the
  backpropagation ablation.

Every hop gets its own controller instance of the same *kind* — the
start-up scheme runs at the source and at every relay, exactly as the
paper describes ("Each relay starts with an initial congestion window
of two cells").
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence

from ..core.factory import make_controller
from ..net.topology import Topology
from ..transport.config import TransportConfig
from ..transport.controller import WindowController
from ..transport.hop import HopSender
from .apps import BulkSource, SinkApp
from .hosts import TorHost

__all__ = ["CircuitSpec", "CircuitFlow", "allocate_circuit_id"]

_circuit_ids = itertools.count(1)


def allocate_circuit_id() -> int:
    """Hand out a process-unique circuit identifier."""
    return next(_circuit_ids)


@dataclass(frozen=True)
class CircuitSpec:
    """The nodes of one circuit, in data direction."""

    circuit_id: int
    source: str
    relays: Sequence[str]
    sink: str

    def __post_init__(self) -> None:
        path = self.node_path
        if len(set(path)) != len(path):
            raise ValueError("circuit path contains duplicates: %s" % (path,))
        if not self.relays:
            raise ValueError("a circuit needs at least one relay")

    @property
    def node_path(self) -> List[str]:
        """Source, relays, sink — the data's forward direction."""
        return [self.source, *self.relays, self.sink]


class CircuitFlow:
    """One unidirectional bulk transfer over one circuit."""

    def __init__(
        self,
        sim,
        topology: Topology,
        spec: CircuitSpec,
        config: TransportConfig,
        controller_kind: str = "circuitstart",
        payload_bytes: int = 512 * 1024,
        start_time: float = 0.0,
        controller_kwargs: Optional[Dict[str, Any]] = None,
        workload: str = "bulk",
    ) -> None:
        if workload not in ("bulk", "none"):
            raise ValueError("workload must be 'bulk' or 'none', got %r" % workload)
        self.sim = sim
        self.topology = topology
        self.spec = spec
        self.config = config
        self.controller_kind = controller_kind
        self.payload_bytes = payload_bytes
        self.start_time = start_time
        kwargs = controller_kwargs or {}

        path = spec.node_path
        self.hosts: List[TorHost] = [
            TorHost.install(sim, topology.node(name)) for name in path
        ]
        self.controllers: List[WindowController] = []
        self.hop_senders: List[HopSender] = []

        # Source hop.
        source_controller = make_controller(controller_kind, config, **kwargs)
        self.controllers.append(source_controller)
        self.hop_senders.append(
            self.hosts[0].register_source(
                spec.circuit_id, path[1], config, source_controller
            )
        )
        # Relay hops.
        for i in range(1, len(path) - 1):
            controller = make_controller(controller_kind, config, **kwargs)
            self.controllers.append(controller)
            self.hop_senders.append(
                self.hosts[i].register_relay(
                    spec.circuit_id, path[i - 1], path[i + 1], config, controller
                )
            )
        # Sink and workload.  With workload="none" the caller installs
        # its own apps (e.g. a stream scheduler + multi-stream sink) via
        # the hosts and hop senders exposed on this object.
        if workload == "bulk":
            self.sink = SinkApp(sim, spec.circuit_id, payload_bytes)
            self.hosts[-1].register_sink(spec.circuit_id, path[-2], self.sink)
            self.source_app: Optional[BulkSource] = BulkSource(
                sim,
                self.hop_senders[0],
                spec.circuit_id,
                payload_bytes,
                start_time=start_time,
            )
        else:
            self.sink = None
            self.hosts[-1].register_sink(spec.circuit_id, path[-2], None)
            self.source_app = None

    # ------------------------------------------------------------------
    # Measurements
    # ------------------------------------------------------------------

    @property
    def source_controller(self) -> WindowController:
        """The data source's window controller (traced in Fig. 1a/b)."""
        return self.controllers[0]

    def teardown(self) -> None:
        """Depart: remove the circuit's state at every host on the path.

        Used by churn scenarios when a completed circuit leaves the
        network.  Hop senders are closed (retransmission timers
        cancelled) and each host forgets the circuit; cells still in
        flight toward a departed circuit are dropped and counted by the
        hosts instead of raising.  Idempotent.
        """
        for host in self.hosts:
            host.teardown(self.spec.circuit_id)

    def abort(self) -> None:
        """Fail the flow: stop a not-yet-started source, then tear down.

        Unlike a churn departure, an aborted flow may die *before* its
        start time; the pending :class:`BulkSource` start event must be
        cancelled or it would enqueue onto the closed sender later.
        Idempotent, like :meth:`teardown`.
        """
        if self.source_app is not None:
            self.source_app.cancel()
        self.teardown()

    def trace_cwnd(self, recorder) -> None:
        """Record the source's cwnd evolution into *recorder*.

        The recorder is any object with ``add(time, value)``; values are
        window sizes in cells.  An initial sample at the flow's start
        time anchors the step plot.
        """
        recorder.add(self.start_time, self.source_controller.cwnd_cells)
        self.source_controller.bind_cwnd_listener(recorder.add)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<CircuitFlow c%d %s %s>" % (
            self.spec.circuit_id,
            "->".join(self.spec.node_path),
            self.controller_kind,
        )
