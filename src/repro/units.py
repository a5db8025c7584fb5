"""Physical quantities used throughout the simulator.

The simulation deals with three kinds of quantities:

* **time** — simulated seconds, represented as plain ``float`` values.
  Helper constructors (:func:`seconds`, :func:`milliseconds`) exist so
  call sites read naturally and unit mistakes are visible in review.
* **data sizes** — bytes, represented as plain ``int`` values.  Helper
  constants (:data:`KIB`, :data:`MIB`) and constructors (:func:`kib`,
  :func:`mib`) cover the common cases.
* **rates** — transmission speed.  Rates get a real class,
  :class:`Rate`, because rate arithmetic (transmission time of a packet)
  is where unit bugs actually happen.  A
  :class:`Rate` stores bytes/second internally and exposes explicit
  conversions.

All public experiment configuration in this project is expressed with
these helpers, so a reader can audit parameter choices against the paper
without mentally converting units.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "KIB",
    "MIB",
    "Rate",
    "bits_per_second",
    "kib",
    "mbit_per_second",
    "mib",
    "milliseconds",
    "seconds",
]

#: One kibibyte, in bytes.
KIB = 1024

#: One mebibyte, in bytes.
MIB = 1024 * 1024


def seconds(value: float) -> float:
    """Return *value* seconds as simulated time (identity, for clarity)."""
    return float(value)


def milliseconds(value: float) -> float:
    """Return *value* milliseconds as simulated seconds."""
    return float(value) / 1e3


def kib(value: float) -> int:
    """Return *value* kibibytes as a whole number of bytes."""
    return int(round(value * KIB))


def mib(value: float) -> int:
    """Return *value* mebibytes as a whole number of bytes."""
    return int(round(value * MIB))


@dataclass(frozen=True, order=True)
class Rate:
    """A transmission rate, stored as bytes per second.

    Instances are immutable and totally ordered by throughput, so the
    bottleneck of a path is simply ``min(rates)``.

    Construct rates with the module-level helpers
    (:func:`mbit_per_second` and friends) rather than the raw
    constructor; the helpers make the unit explicit at the call site.
    """

    bytes_per_second: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.bytes_per_second):
            raise ValueError("rate must be finite, got %r" % self.bytes_per_second)
        if self.bytes_per_second <= 0:
            raise ValueError(
                "rate must be positive, got %r bytes/s" % self.bytes_per_second
            )

    @property
    def bits_per_second(self) -> float:
        """The rate expressed in bits per second."""
        return self.bytes_per_second * 8.0

    @property
    def mbit_per_second(self) -> float:
        """The rate expressed in megabits (1e6 bits) per second."""
        return self.bits_per_second / 1e6

    def transmission_time(self, nbytes: int) -> float:
        """Seconds needed to serialize *nbytes* onto a link of this rate."""
        if nbytes < 0:
            raise ValueError("cannot transmit a negative size: %r" % nbytes)
        return nbytes / self.bytes_per_second

    def scaled(self, factor: float) -> "Rate":
        """A new rate equal to this one multiplied by *factor* (> 0)."""
        return Rate(self.bytes_per_second * factor)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        mbps = self.mbit_per_second
        if mbps >= 1.0:
            return "%.3g Mbit/s" % mbps
        return "%.3g kbit/s" % (self.bits_per_second / 1e3)


def bits_per_second(value: float) -> Rate:
    """Rate of *value* bits per second."""
    return Rate(value / 8.0)


def mbit_per_second(value: float) -> Rate:
    """Rate of *value* megabits (1e6 bits) per second."""
    return bits_per_second(value * 1e6)
