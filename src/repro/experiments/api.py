"""The unified experiment API.

Every experiment of the reproduction — the Figure-1 panels, the
ablations, the extension studies, and the optimal-window model — speaks
the same protocol:

* an :class:`Experiment` has a ``name``, a ``spec_type`` and a
  ``run(spec, ctx) -> result`` method — the spec says *what* to
  compute, the :class:`RunContext` *how* to execute it (workers,
  checkpointing); the context never changes a result byte;
* its spec is an :class:`ExperimentSpec` (a frozen dataclass) and its
  result an :class:`ExperimentResult` (a dataclass), both of which
  round-trip through JSON via :meth:`Serializable.to_dict` /
  :meth:`Serializable.from_dict`;
* experiments register themselves in a global registry
  (:mod:`repro.experiments.registry`) so CLI subcommands, batch sweeps
  (:mod:`repro.experiments.runner`) and reports are generated instead
  of hand-written.

Serialization is *type-hint driven*: :func:`encode` turns any spec or
result into plain JSON-able data structurally (dataclasses become
dicts, tuples become lists, :class:`~repro.units.Rate` becomes its
bytes-per-second payload, a :class:`~repro.analysis.trace.TraceRecorder`
becomes its sample arrays), and :func:`decode` rebuilds the typed
object from the target class's dataclass field annotations.  No
per-class ``__serialize__`` boilerplate is needed: nested
``TransportConfig``, ``NetworkConfig``, ``HopLink`` and unit-typed
fields all round-trip through the same two functions.

The serialization core itself lives in :mod:`repro.serialize` (so the
scenario layer can use it without importing the experiment harnesses);
this module re-exports it under the historical names.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from typing import Any, ClassVar, Dict, Iterable, Optional, Tuple

from ..core.factory import check_controller_kinds
from ..serialize import Serializable, SpecError, decode, encode

__all__ = [
    "Experiment",
    "ExperimentResult",
    "ExperimentSpec",
    "RunContext",
    "Serializable",
    "SpecError",
    "decode",
    "encode",
]


# ----------------------------------------------------------------------
# Base classes
# ----------------------------------------------------------------------


class ExperimentSpec(Serializable):
    """Base for experiment parameter dataclasses (frozen, serializable)."""

    @staticmethod
    def check_kinds_and_duration(kinds: Iterable[str], duration: float) -> None:
        """What a spec that runs circuits for a fixed time checks when built.

        Left unchecked, both surface only once the run is under way
        (the controller factory's ``ValueError``, the simulator's
        ``ClockError``); a spec that decodes must be a spec that runs.
        """
        check_controller_kinds(kinds)
        if not 0 < duration < float("inf"):  # also NaN
            raise ValueError("duration must be positive and finite, got %r" % duration)


class ExperimentResult(Serializable):
    """Base for experiment result dataclasses (serializable)."""


@dataclass(frozen=True)
class RunContext:
    """How a run executes — never what it computes.

    The one carrier of execution knobs: passed beside the spec as
    ``experiment.run(spec, ctx)``, never stored on it, never
    serialized, never part of a checkpoint or plan-cache key.  Output
    is byte-identical under every context.  Which knobs an experiment
    honours is declared in :attr:`Experiment.knobs`.
    """

    #: Worker processes a sweep-shaped experiment fans its points over.
    workers: int = 1
    #: Checkpoint completed points under this directory as they finish;
    #: a run over the same directory reuses every point found there.
    checkpoint_dir: Optional[str] = None

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError("workers must be >= 1, got %r" % (self.workers,))


class Experiment:
    """Base class for registered experiments.

    Subclasses set the class attributes, implement :meth:`run`, and may
    override the CLI hooks to expose flags and a text rendering; the
    registry-driven CLI builds its subcommands from exactly these.
    """

    #: Registry key and CLI subcommand name (e.g. ``"trace"``).
    name: ClassVar[str] = ""
    #: One-line help shown by ``repro list`` and ``repro <name> -h``.
    help: ClassVar[str] = ""
    #: The spec dataclass this experiment consumes.
    spec_type: ClassVar[Optional[type]] = None
    #: The result dataclass :meth:`run` returns.
    result_type: ClassVar[Optional[type]] = None
    #: The :class:`RunContext` fields :meth:`run` honours.  Declared,
    #: not probed: the CLI adds exactly these execution flags, and a
    #: sweep refuses a context that sets any other (:meth:`check_knobs`).
    knobs: ClassVar[Tuple[str, ...]] = ()

    def default_spec(self) -> Any:
        """A spec with every parameter at its default."""
        if self.spec_type is None:
            raise NotImplementedError("%s has no spec_type" % type(self).__name__)
        return self.spec_type()

    def run(self, spec: Any, ctx: RunContext = RunContext()) -> Any:
        """Execute the experiment for *spec* under *ctx*; return its result."""
        raise NotImplementedError

    def check_knobs(self, ctx: RunContext) -> None:
        """Raise :class:`SpecError` if *ctx* sets a knob :meth:`run` ignores."""
        unsupported = sorted(
            f.name for f in fields(ctx)
            if getattr(ctx, f.name) != f.default and f.name not in self.knobs
        )
        if unsupported:
            raise SpecError(
                "%s (%s) does not support execution knob(s): %s"
                % (self.name, self.spec_type.__name__, ", ".join(unsupported))
            )

    def coerce_spec(self, spec: Any) -> Any:
        """Accept a spec object, a spec dict, or ``None`` (defaults)."""
        if spec is None:
            return self.default_spec()
        if isinstance(spec, dict):
            return self.spec_type.from_dict(spec)
        if self.spec_type is not None and not isinstance(spec, self.spec_type):
            raise SpecError(
                "%s expects a %s spec, got %s"
                % (self.name, self.spec_type.__name__, type(spec).__name__)
            )
        return spec

    def estimate_cost(self, spec: Any) -> Optional[Dict[str, int]]:
        """Predicted cost of running *spec*, before running anything.

        Returns ``None`` when the experiment cannot predict its cost,
        or a dict with at least ``cells`` (application cells injected)
        and ``cell_hops`` (cells × transport hops — the quantity engine
        time is proportional to).  ``repro batch --plan`` sums these
        across a sweep so big launches are predictable up front.
        """
        return None

    # --- CLI hooks (used by the registry-driven repro.cli) -------------

    def add_cli_arguments(self, parser: Any) -> None:
        """Declare this experiment's command-line flags on *parser*."""

    def spec_from_cli(self, args: Any) -> Any:
        """Build a spec from parsed CLI *args* (raise SpecError on bad input)."""
        return self.default_spec()

    def render(self, result: Any) -> str:
        """Human-readable text for *result* (the CLI's default output)."""
        return json.dumps(encode(result), indent=2, sort_keys=True)
