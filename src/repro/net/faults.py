"""Runtime fault models: per-interface transmission filters.

The fault plane's lowest layer.  A :class:`FaultModel` is attached to an
:class:`~repro.net.link.Interface` (``interface.fault_model``, ``None``
by default) and consulted once per transmitted packet, *after* the
serialization bookkeeping: it returns a verdict — deliver normally,
drop, or deliver with extra delay — and keeps its own loss/reorder
counters.  When no model is attached the transmit path is untouched
(the hook is a single ``is None`` check), so lossless scenarios stay
bit-exact.

Models are *runtime* objects, not scenario parts: they take an injected
:class:`random.Random` so every draw is a pure function of the seed the
installer derived (see :mod:`repro.scenario.faults`, which seeds one
substream per interface from the scenario seed).  Ships with:

* :class:`BernoulliLossModel` — i.i.d. loss at a fixed rate;
* :class:`GilbertElliottModel` — two-state (good/bad) Markov bursty
  loss, the classic wireless/overlay impairment model;
* :class:`BoundedReorderModel` — holds a packet back by a bounded
  random extra delay with some probability, which reorders it past
  packets serialized later;
* :class:`ScriptedLossModel` — drops an explicit set of packet indices
  (deterministic tests);
* :class:`FilteredFaultModel` — gates an inner model behind a packet
  predicate (trunk-only faults select on src/dst node names);
* :class:`CompositeFaultModel` — chains models; first drop wins, extra
  delays add.
"""

from __future__ import annotations

import random
from typing import Any, Callable, Iterable, Optional, Sequence

__all__ = [
    "BernoulliLossModel",
    "BoundedReorderModel",
    "CompositeFaultModel",
    "FaultModel",
    "FilteredFaultModel",
    "GilbertElliottModel",
    "ScriptedLossModel",
    "install_fault_model",
]

#: Verdict sentinel: the packet is lost (never delivered).
DROP = -1.0


class FaultModel:
    """Base transmission filter.

    :meth:`on_transmit` returns the verdict for one packet: ``0.0``
    delivers normally, a positive float delivers with that much extra
    delay (seconds, on top of serialization + propagation), and any
    negative value (canonically :data:`DROP`) drops the packet.
    """

    def __init__(self) -> None:
        self.packets_seen = 0
        self.packets_dropped = 0
        self.packets_delayed = 0

    def on_transmit(self, packet: Any) -> float:
        raise NotImplementedError

    # --- verdict bookkeeping shared by the concrete models ------------

    def _pass(self) -> float:
        self.packets_seen += 1
        return 0.0

    def _drop(self) -> float:
        self.packets_seen += 1
        self.packets_dropped += 1
        return DROP

    def _delay(self, extra: float) -> float:
        self.packets_seen += 1
        self.packets_delayed += 1
        return extra


class BernoulliLossModel(FaultModel):
    """Independent loss: each packet is dropped with probability *loss_rate*."""

    def __init__(self, rng: random.Random, loss_rate: float) -> None:
        super().__init__()
        if not 0.0 <= loss_rate < 1.0:
            raise ValueError(
                "loss_rate must be in [0, 1), got %r" % loss_rate
            )
        self.rng = rng
        self.loss_rate = loss_rate

    def on_transmit(self, packet: Any) -> float:
        if self.rng.random() < self.loss_rate:
            return self._drop()
        return self._pass()


class GilbertElliottModel(FaultModel):
    """Bursty loss: a two-state (good/bad) Markov chain per packet.

    The chain transitions before each packet's verdict; the per-state
    loss probabilities (``good_loss`` typically ~0, ``bad_loss`` high)
    produce the correlated loss bursts that i.i.d. Bernoulli cannot.
    """

    def __init__(
        self,
        rng: random.Random,
        p_good_to_bad: float,
        p_bad_to_good: float,
        good_loss: float = 0.0,
        bad_loss: float = 0.5,
    ) -> None:
        super().__init__()
        for name, value in (
            ("p_good_to_bad", p_good_to_bad),
            ("p_bad_to_good", p_bad_to_good),
            ("good_loss", good_loss),
            ("bad_loss", bad_loss),
        ):
            if not 0.0 <= value <= 1.0:
                raise ValueError("%s must be in [0, 1], got %r" % (name, value))
        self.rng = rng
        self.p_good_to_bad = p_good_to_bad
        self.p_bad_to_good = p_bad_to_good
        self.good_loss = good_loss
        self.bad_loss = bad_loss
        self.bad = False

    def on_transmit(self, packet: Any) -> float:
        rng = self.rng
        if self.bad:
            if rng.random() < self.p_bad_to_good:
                self.bad = False
        else:
            if rng.random() < self.p_good_to_bad:
                self.bad = True
        loss = self.bad_loss if self.bad else self.good_loss
        if loss > 0.0 and rng.random() < loss:
            return self._drop()
        return self._pass()


class BoundedReorderModel(FaultModel):
    """Reordering: with probability *reorder_rate*, hold a packet back.

    A held packet is delivered ``uniform(0, max_extra_delay)`` seconds
    late — enough to land behind packets serialized after it, which is
    what an in-order go-back-N receiver perceives as a gap followed by
    a duplicate.
    """

    def __init__(
        self, rng: random.Random, reorder_rate: float, max_extra_delay: float
    ) -> None:
        super().__init__()
        if not 0.0 <= reorder_rate < 1.0:
            raise ValueError(
                "reorder_rate must be in [0, 1), got %r" % reorder_rate
            )
        if max_extra_delay <= 0.0:
            raise ValueError(
                "max_extra_delay must be positive, got %r" % max_extra_delay
            )
        self.rng = rng
        self.reorder_rate = reorder_rate
        self.max_extra_delay = max_extra_delay

    def on_transmit(self, packet: Any) -> float:
        if self.rng.random() < self.reorder_rate:
            return self._delay(self.rng.uniform(0.0, self.max_extra_delay))
        return self._pass()


class ScriptedLossModel(FaultModel):
    """Drops an explicit set of packet indices (0-based, per model).

    The deterministic counterpart of the random models: tests use it to
    lose exactly the packets they name.  The index counts transmissions
    on the interface, so a FIFO's n-th arrival is its n-th index.
    """

    def __init__(self, drop_indices: Iterable[int]) -> None:
        super().__init__()
        self.drop_indices = frozenset(drop_indices)
        self._index = 0

    def on_transmit(self, packet: Any) -> float:
        index = self._index
        self._index += 1
        if index in self.drop_indices:
            return self._drop()
        return self._pass()


class FilteredFaultModel(FaultModel):
    """Applies an inner model only to packets matching a predicate.

    Non-matching packets pass untouched (and never advance the inner
    model's RNG, so adding a filtered model to an interface does not
    perturb the draw sequence other traffic sees).  The scenario layer
    uses this for trunk-only faults on a star topology, where relay-to-
    relay traffic shares physical interfaces with access traffic: the
    predicate selects by the packet's src/dst node names.
    """

    def __init__(self, predicate: Callable[[Any], bool],
                 inner: FaultModel) -> None:
        super().__init__()
        self.predicate = predicate
        self.inner = inner

    def on_transmit(self, packet: Any) -> float:
        if not self.predicate(packet):
            return self._pass()
        verdict = self.inner.on_transmit(packet)
        if verdict < 0.0:
            return self._drop()
        if verdict > 0.0:
            return self._delay(verdict)
        return self._pass()


class CompositeFaultModel(FaultModel):
    """Chains several models on one interface: first drop wins, delays add."""

    def __init__(self, models: Sequence[FaultModel]) -> None:
        super().__init__()
        if not models:
            raise ValueError("a composite fault model needs at least one model")
        self.models = list(models)

    def on_transmit(self, packet: Any) -> float:
        total = 0.0
        for model in self.models:
            verdict = model.on_transmit(packet)
            if verdict < 0.0:
                return self._drop()
            total += verdict
        if total > 0.0:
            return self._delay(total)
        return self._pass()


def install_fault_model(interface: Any, model: FaultModel) -> FaultModel:
    """Attach *model* to *interface*, composing with any existing model."""
    existing: Optional[FaultModel] = interface.fault_model
    if existing is None:
        interface.fault_model = model
    elif isinstance(existing, CompositeFaultModel):
        existing.models.append(model)
    else:
        interface.fault_model = CompositeFaultModel([existing, model])
    return model
