"""Scenario parts: the pluggable pieces a :class:`~repro.scenario.Scenario`
is composed of.

A *part* is a frozen, serializable dataclass describing one facet of a
scenario — where the network comes from (:class:`TopologySource`), what
each circuit carries (:class:`Workload`), when circuits arrive and
depart (:class:`ChurnProcess`), and what gets measured while they run
(:class:`Probe`).  Parts register themselves by name in a small
registry mirroring the experiment registry, and round-trip through the
experiment API's structural JSON serialization: every part carries a
``part`` discriminator field, and the abstract bases implement the
:func:`~repro.experiments.api.decode` polymorphism hook
(``resolve_part_type``) so a field annotated with the base class
decodes into whichever registered subclass the payload names.

Defining a new part is three steps::

    @register_part
    @dataclass(frozen=True)
    class PoissonChurn(ChurnProcess):
        rate: float = 1.0
        part: str = field(default="poisson", init=False)

        def plan_arrivals(self, scenario, streams): ...

Nothing else is needed: serialization, ``repro scenario list`` and the
planner pick the new part up through the registry.
"""

from __future__ import annotations

from dataclasses import fields
from typing import Any, ClassVar, Dict, List, Optional, Tuple, Type

from ..serialize import Serializable, SpecError

__all__ = [
    "ChurnProcess",
    "FaultProcess",
    "Probe",
    "ScenarioPart",
    "TopologySource",
    "Workload",
    "list_parts",
    "register_part",
]


class ScenarioPart(Serializable):
    """Base of every scenario part (all four kinds).

    Each *kind* (topology, workload, churn, probe) is an abstract
    subclass owning its own name registry; concrete parts register
    under their ``part`` field's default value.
    """

    #: Set on the abstract kind bases only; concrete parts inherit it.
    _registry: ClassVar[Optional[Dict[str, type]]] = None
    #: Human name of the kind, for listings and error messages.
    kind: ClassVar[str] = "part"

    @classmethod
    def _registry_base(cls) -> Type["ScenarioPart"]:
        """The abstract base in ``cls``'s MRO that owns the registry."""
        for base in cls.__mro__:
            if "_registry" in vars(base) and vars(base)["_registry"] is not None:
                return base
        raise TypeError(
            "%s is not under a registered part kind" % cls.__name__
        )

    @classmethod
    def resolve_part_type(cls, data: Any) -> type:
        """The :func:`repro.experiments.api.decode` polymorphism hook.

        Resolves the ``part`` discriminator in *data* against this
        kind's registry; decoding a payload against the wrong kind (or
        an unregistered name) fails loudly instead of mis-typing.
        """
        base = cls._registry_base()
        registry = base._registry
        assert registry is not None
        name = data.get("part") if isinstance(data, dict) else None
        if name is None:
            # No discriminator: only unambiguous when cls is concrete.
            if cls in registry.values():
                return cls
            raise SpecError(
                "%s payload %r names no 'part'" % (base.kind, data)
            )
        try:
            return registry[name]
        except KeyError:
            raise SpecError(
                "unknown %s part %r (have: %s)"
                % (base.kind, name, ", ".join(sorted(registry)))
            ) from None

    @property
    def part_name(self) -> str:
        """The registry name of this part (its ``part`` field)."""
        return getattr(self, "part")


class TopologySource(ScenarioPart):
    """Where the network under test comes from.

    A topology source owns the whole *where* of a scenario: it plans
    the network (pure data and cacheable), nominates the bottleneck
    relay, selects each circuit's relay path and maps circuits to
    endpoint hosts.  :class:`~repro.scenario.topology.GeneratedTopology`
    is the one registered source; the planner calls its ``validate``,
    ``designates_bottleneck``, ``network_fingerprint``,
    ``plan_network``, ``select_bottleneck``, ``plan_paths`` and
    ``endpoints``.
    """

    _registry: ClassVar[Dict[str, type]] = {}
    kind: ClassVar[str] = "topology"


class Workload(ScenarioPart):
    """What one circuit carries.

    Concrete workloads come in classes mixed by ``weight``; each must
    implement the planning-side byte accounting (:meth:`total_bytes`)
    and the runtime attachment (:meth:`attach`).
    """

    _registry: ClassVar[Dict[str, type]] = {}
    kind: ClassVar[str] = "workload"

    #: Mix weight of this class within the scenario (need not sum to 1).
    weight: float = 1.0

    def total_bytes(self) -> int:
        """Application bytes one circuit of this class transfers."""
        raise NotImplementedError

    def estimated_cells(self) -> int:
        """Data cells one circuit of this class injects (cost model).

        The default assumes one contiguous transfer; workloads that
        frame per message (each message starts a fresh cell) override
        this so ``repro batch --plan`` stays honest.
        """
        from ..transport.config import CELL_PAYLOAD

        return -(-self.total_bytes() // CELL_PAYLOAD)  # ceil division

    def attach(self, sim: Any, flow: Any, planned: Any) -> Any:
        """Install the workload on *flow*; returns a
        :class:`~repro.scenario.workloads.WorkloadRun` over the sink it
        attached.
        """
        raise NotImplementedError


class ChurnProcess(ScenarioPart):
    """When circuits arrive, depart and re-arrive."""

    _registry: ClassVar[Dict[str, type]] = {}
    kind: ClassVar[str] = "churn"

    #: Whether completed circuits are torn down (their state removed
    #: from every host along the path) — the departure half of churn.
    departures: ClassVar[bool] = False

    def plan_arrivals(self, scenario: Any, streams: Any) -> List[Tuple[int, float]]:
        """Plan every circuit arrival as ``(generation, start_time)``.

        Generation 0 entries are the initial wave (exactly
        ``scenario.circuit_count`` of them, in circuit order);
        generations >= 1 are churn re-arrivals.  All draws must come
        from *streams* so the plan is a pure function of the spec.
        """
        raise NotImplementedError

    def settle_time(self) -> float:
        """Sim time before which samples count as warm-up, not steady state."""
        return 0.0


class Probe(ScenarioPart):
    """A measurement attached to the running scenario."""

    _registry: ClassVar[Dict[str, type]] = {}
    kind: ClassVar[str] = "probe"

    def validate(self, scenario: Any) -> None:
        """Reject probe/scenario combinations that cannot run.

        Called from ``Scenario.__post_init__`` so a doomed probe fails
        at spec construction (and in ``repro batch --plan``), not after
        the network and every flow have been built.
        """

    def install(self, sim: Any, context: Any) -> List[Any]:
        """Install samplers on *sim*; return per-target collector handles.

        Each handle must expose ``series() -> ProbeSeries``.  *context*
        is the engine's :class:`~repro.scenario.engine.KindRun` (network,
        bottleneck, the all-circuits-done predicate).
        """
        raise NotImplementedError


class FaultProcess(ScenarioPart):
    """What goes wrong while the scenario runs.

    A fault process has two halves, mirroring the plan/run split:

    * planning (:meth:`plan_events`) draws every randomized fault
      decision — relay kill/restart times, loss-model seeds — **once**,
      into the :class:`~repro.scenario.spec.ScenarioPlan`, so plans
      stay replayable and disk-cacheable;
    * runtime (:meth:`install`) arms the drawn events and attaches
      fault models onto the freshly instantiated network through the
      engine's :class:`~repro.scenario.faults.FaultInjector`.
    """

    _registry: ClassVar[Dict[str, type]] = {}
    kind: ClassVar[str] = "fault"

    def validate(self, scenario: Any) -> None:
        """Reject fault/scenario combinations that cannot run."""

    def plan_events(
        self, scenario: Any, streams: Any, network: Any, bottleneck: Optional[str]
    ) -> List[Any]:
        """Draw this process's scheduled events (may be empty).

        Returns :class:`~repro.scenario.faults.FaultEvent` entries; all
        randomness must come from *streams* substreams so the plan is a
        pure function of the spec.
        """
        return []

    def install(self, sim: Any, injector: Any) -> None:
        """Arm runtime state on *injector* (loss models, liveness)."""


_KINDS: Tuple[Type[ScenarioPart], ...] = (
    TopologySource,
    Workload,
    ChurnProcess,
    FaultProcess,
    Probe,
)


def register_part(cls: type) -> type:
    """Class decorator registering a concrete part under its ``part`` name."""
    base = cls._registry_base()
    try:
        name = next(f for f in fields(cls) if f.name == "part").default
    except StopIteration:
        raise TypeError(
            "part class %s declares no 'part' field" % cls.__name__
        ) from None
    if not isinstance(name, str) or not name:
        raise TypeError(
            "part class %s needs a non-empty string default for 'part'"
            % cls.__name__
        )
    registry = base._registry
    assert registry is not None
    if name in registry:
        raise ValueError(
            "%s part %r already registered (by %s)"
            % (base.kind, name, registry[name].__name__)
        )
    registry[name] = cls
    return cls


def list_parts() -> List[Tuple[str, str, type]]:
    """``(kind, name, class)`` rows for ``repro scenario list``."""
    rows: List[Tuple[str, str, type]] = []
    for base in _KINDS:
        registry = base._registry
        assert registry is not None
        for name in sorted(registry):
            rows.append((base.kind, name, registry[name]))
    return rows
