"""Fault parts and the runtime fault injector.

The scenario-facing half of the fault plane.  Two concrete
:class:`~repro.scenario.parts.FaultProcess` parts ship here:

* :class:`LinkFaults` — channel impairment on every relay access link
  (both directions): Bernoulli or Gilbert-Elliott loss plus optional
  bounded reordering.  Purely runtime state — the per-interface
  :class:`~repro.net.faults.FaultModel` RNGs are derived from the
  scenario seed and the link's endpoint names, so no events need to be
  drawn into the plan.
* :class:`RelayChurnFaults` — mid-flight relay failure and restart.
  Kill/restart times *are* drawn at planning time, once, into
  :class:`FaultEvent` entries stored on the
  :class:`~repro.scenario.spec.ScenarioPlan`; a cached plan replays the
  identical fault schedule.

At runtime the engine builds one :class:`FaultInjector` per kind run.
The injector owns relay liveness (``Node.up``), executes the planned
kill/restart events, cascades a kill into circuit teardown through
:meth:`~repro.tor.hosts.TorHost.fail_all_circuits`, and installs the
link fault models.  Both kinds of a scenario see the *same* fault
schedule and the same per-link loss draws — the seeds deliberately do
not include the controller kind, so "with" and "without" face identical
adversity.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from ..net.faults import (
    BernoulliLossModel,
    BoundedReorderModel,
    FaultModel,
    FilteredFaultModel,
    GilbertElliottModel,
    install_fault_model,
)
from ..serialize import Serializable
from ..sim.rand import derive_seed
from .churn import stream_name
from .parts import FaultProcess, register_part

__all__ = [
    "FaultEvent",
    "FaultInjector",
    "LinkFaults",
    "RelayChurnFaults",
    "RelayFailure",
]

_ACTIONS = ("kill", "restart")


class RelayFailure(RuntimeError):
    """A relay died mid-flight, taking its circuits with it."""

    def __init__(self, relay: str) -> None:
        super().__init__("relay %s failed" % relay)
        self.relay = relay


@dataclass(frozen=True)
class FaultEvent(Serializable):
    """One scheduled fault: kill or restart *relay* at time *at*.

    Lives in the :class:`~repro.scenario.spec.ScenarioPlan` — drawn
    once at planning time, replayed verbatim on every run of the plan,
    round-tripping through the plan cache's disk tier.
    """

    relay: str
    at: float
    action: str

    def __post_init__(self) -> None:
        if not self.relay:
            raise ValueError("fault event needs a relay name")
        if not 0 <= self.at < float("inf"):  # also NaN
            raise ValueError(
                "fault event time must be non-negative and finite, got %r"
                % self.at
            )
        if self.action not in _ACTIONS:
            raise ValueError(
                "fault action must be one of %s, got %r" % (_ACTIONS, self.action)
            )


@register_part
@dataclass(frozen=True)
class LinkFaults(FaultProcess):
    """Channel impairment on the overlay's links.

    By default (``links="access"``) applied to both directions of each
    relay's access link (relay→hub and hub→relay); endpoint access
    links stay clean, mirroring the usual assumption that adversity
    lives in the overlay, not at the user's modem.  ``links="trunk"``
    impairs only inter-relay traffic; ``links="all"`` adds the
    client/server endpoint links.  Each interface gets its own RNG
    derived from the scenario seed and the link's endpoint names —
    independent links, and identical loss patterns for the "with" and
    "without" kinds.
    """

    #: Per-packet loss probability (``model="bernoulli"``), or the
    #: bad-state loss probability (``model="gilbert"``).
    loss_rate: float = 0.0
    #: ``"bernoulli"`` for i.i.d. loss, ``"gilbert"`` for bursty loss.
    model: str = "bernoulli"
    #: Gilbert-Elliott transition probabilities (per packet).
    p_good_to_bad: float = 0.01
    p_bad_to_good: float = 0.25
    #: Probability a packet is held back (reordered past successors).
    reorder_rate: float = 0.0
    #: Maximum extra delay of a held-back packet (seconds).
    max_extra_delay: float = 0.005
    #: Which links carry the impairment: ``"access"`` (relay access
    #: links, the historical behavior), ``"trunk"`` (inter-relay
    #: traffic only, selected by src/dst since the star topology has no
    #: dedicated trunk wires), or ``"all"`` (relay access links plus
    #: the client/server endpoint links).
    links: str = "access"
    part: str = field(default="link-faults", init=False)

    def validate(self, scenario: Any) -> None:
        if self.model not in ("bernoulli", "gilbert"):
            raise ValueError("unknown loss model %r" % self.model)
        if self.links not in ("access", "trunk", "all"):
            raise ValueError(
                "links must be 'access', 'trunk' or 'all', got %r"
                % self.links
            )
        if not 0.0 <= self.loss_rate < 1.0:
            raise ValueError("loss_rate must be in [0, 1), got %r" % self.loss_rate)
        if not 0.0 <= self.reorder_rate < 1.0:
            raise ValueError(
                "reorder_rate must be in [0, 1), got %r" % self.reorder_rate
            )
        if not 0 < self.max_extra_delay < float("inf"):  # also NaN
            raise ValueError(
                "max_extra_delay must be positive and finite, got %r"
                % self.max_extra_delay
            )
        for name in ("p_good_to_bad", "p_bad_to_good"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError("%s must be in [0, 1], got %r" % (name, value))
        if (self.loss_rate > 0 or self.reorder_rate > 0) and not scenario.transport.reliable:
            raise ValueError(
                "link faults with unreliable transport would lose data "
                "silently; set transport=TransportConfig.profile('reliable')"
            )

    def install(self, sim: Any, injector: "FaultInjector") -> None:
        injector.install_link_faults(self)

    def _models_for(self, seed: int, label: str) -> List[FaultModel]:
        models: List[FaultModel] = []
        if self.loss_rate > 0.0:
            rng = random.Random(derive_seed(seed, "fault.loss.%s" % label))
            if self.model == "bernoulli":
                models.append(BernoulliLossModel(rng, self.loss_rate))
            else:
                models.append(
                    GilbertElliottModel(
                        rng,
                        self.p_good_to_bad,
                        self.p_bad_to_good,
                        good_loss=0.0,
                        bad_loss=self.loss_rate,
                    )
                )
        if self.reorder_rate > 0.0:
            rng = random.Random(derive_seed(seed, "fault.reorder.%s" % label))
            models.append(
                BoundedReorderModel(rng, self.reorder_rate, self.max_extra_delay)
            )
        return models


@register_part
@dataclass(frozen=True)
class RelayChurnFaults(FaultProcess):
    """Relay kill/restart events, drawn once at planning time.

    Kills arrive as a Poisson process with aggregate rate
    ``candidates / mttf`` (each of the N candidate relays fails
    independently with mean time to failure *mttf*); the victim is
    drawn uniformly among relays currently up.  Each kill schedules a
    restart ``Exp(mttr)`` later.  ``mttf=0`` disables the process
    entirely — the sweep encoding of "MTTF = ∞" (JSON has no Infinity).
    """

    #: Mean time to failure per relay (seconds); 0 disables kills.
    mttf: float = 0.0
    #: Mean time to restart a killed relay (seconds); 0 = never restarts.
    mttr: float = 0.5
    #: Hard cap on the number of kill events in one plan.
    max_kills: int = 4
    #: No kill is planned at or after this simulated time.
    horizon: float = 8.0
    #: No kill is planned before this time (lets the wave establish).
    start_after: float = 0.0
    #: Keep the designated bottleneck relay alive — killing it would
    #: measure relay *replacement*, not start-up behavior.
    spare_bottleneck: bool = True
    part: str = field(default="relay-churn", init=False)

    def validate(self, scenario: Any) -> None:
        for name in ("mttf", "mttr", "horizon", "start_after"):
            value = getattr(self, name)
            if not 0 <= value < float("inf"):  # also NaN
                raise ValueError(
                    "%s must be non-negative and finite, got %r" % (name, value)
                )
        if self.max_kills < 0:
            raise ValueError("max_kills must be non-negative, got %r" % self.max_kills)

    def plan_events(
        self, scenario: Any, streams: Any, network: Any, bottleneck: Optional[str]
    ) -> List[FaultEvent]:
        if self.mttf <= 0 or self.max_kills == 0:
            return []
        candidates = [
            name
            for name in network.relay_names
            if not (self.spare_bottleneck and name == bottleneck)
        ]
        if not candidates:
            return []
        rng = streams.stream(
            stream_name(scenario.rng_namespace, "faults.relays")
        )
        events: List[FaultEvent] = []
        restart_at: Dict[str, float] = {}
        at = self.start_after
        kills = 0
        rate = len(candidates) / self.mttf
        while kills < self.max_kills:
            at += rng.expovariate(rate)
            if at >= self.horizon:
                break
            up = [
                name
                for name in candidates
                if restart_at.get(name, 0.0) <= at
            ]
            if not up:
                continue
            victim = rng.choice(up)
            events.append(FaultEvent(victim, at, "kill"))
            kills += 1
            if self.mttr > 0:
                back = at + rng.expovariate(1.0 / self.mttr)
                restart_at[victim] = back
                events.append(FaultEvent(victim, back, "restart"))
            else:
                restart_at[victim] = float("inf")
        events.sort(key=lambda event: (event.at, event.relay, event.action))
        return events


class FaultInjector:
    """Runtime fault state of one kind run.

    Owns relay liveness, executes the plan's kill/restart schedule, and
    installs link fault models.  A kill cascades through the dead
    relay's :meth:`~repro.tor.hosts.TorHost.fail_all_circuits`; the
    engine attributes the failures through each host's
    ``on_circuit_broken``.
    """

    def __init__(self, sim: Any, scenario: Any, plan: Any, network: Any) -> None:
        self.sim = sim
        self.scenario = scenario
        self.plan = plan
        self.network = network
        #: Relays currently down, mapped to their kill time.
        self.down: Dict[str, float] = {}
        self.kills = 0
        self.restarts = 0

    def arm(self) -> None:
        """Install every fault part and schedule the planned events."""
        for process in self.scenario.faults:
            process.install(self.sim, self)
        for event in self.plan.fault_events:
            self.sim.schedule_at(event.at, self._execute, event)

    # ------------------------------------------------------------------

    def _execute(self, event: FaultEvent) -> None:
        if event.action == "kill":
            self.kill(event.relay)
        else:
            self.restart(event.relay)

    def kill(self, relay: str) -> None:
        """Take *relay* down now: black-hole it and cascade its circuits."""
        if relay in self.down:
            return
        node = self.network.topology.node(relay)
        node.up = False
        self.down[relay] = self.sim.now
        self.kills += 1
        handler = getattr(node, "_handler", None)
        if handler is not None and hasattr(handler, "fail_all_circuits"):
            handler.fail_all_circuits(RelayFailure(relay))

    def restart(self, relay: str) -> None:
        """Bring *relay* back: newly planned circuits may use it again."""
        if relay not in self.down:
            return
        node = self.network.topology.node(relay)
        node.up = True
        del self.down[relay]
        self.restarts += 1

    # ------------------------------------------------------------------

    def install_link_faults(self, part: LinkFaults) -> None:
        """Attach *part*'s models per its ``links`` selector.

        ``"access"`` keeps the historical labels and install order
        exactly, so the per-interface RNG substreams — and therefore
        every draw an existing scenario makes — are unchanged.  Trunk
        impairment gets distinct ``trunk:``-prefixed labels (fresh
        substreams) and is gated on the packet's src/dst both being
        relays, because on the star topology inter-relay traffic shares
        physical interfaces with access traffic.
        """
        topology = self.network.topology
        hub = self.network.hub_name
        seed = self.scenario.seed

        def attach(
            src: str, dst: str, label: str,
            wrap: Optional[Callable[[FaultModel], FaultModel]] = None,
        ) -> None:
            for model in part._models_for(seed, label):
                interface = topology._interface_between(src, dst)
                install_fault_model(
                    interface, model if wrap is None else wrap(model)
                )

        if part.links in ("access", "all"):
            for relay in self.network.relay_names:
                for src, dst in ((relay, hub), (hub, relay)):
                    attach(src, dst, "%s->%s" % (src, dst))
        if part.links == "all":
            endpoints = list(self.network.client_names)
            endpoints.extend(self.network.server_names)
            for name in endpoints:
                for src, dst in ((name, hub), (hub, name)):
                    attach(src, dst, "%s->%s" % (src, dst))
        if part.links == "trunk":
            relays = frozenset(self.network.relay_names)

            def is_trunk(packet: Any) -> bool:
                return packet.src in relays and packet.dst in relays

            for relay in self.network.relay_names:
                for src, dst in ((relay, hub), (hub, relay)):
                    attach(
                        src, dst, "trunk:%s->%s" % (src, dst),
                        wrap=lambda model: FilteredFaultModel(
                            is_trunk, model
                        ),
                    )
