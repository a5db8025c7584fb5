"""Time-series trace recording.

:class:`TraceRecorder` collects ``(time, value)`` samples — the source
cwnd over time for the Figure-1 upper panels, queue depths for the
diagnostics — and offers the small amount of post-processing the
experiments need: step-function evaluation and unit conversion
(cells → kilobytes, seconds → milliseconds).
"""

from __future__ import annotations

import bisect
from typing import List, Sequence, Tuple

__all__ = ["TraceRecorder", "step_value_at"]


class TraceRecorder:
    """An append-only series of timestamped samples."""

    def __init__(self, name: str = "trace") -> None:
        self.name = name
        self.times: List[float] = []
        self.values: List[float] = []

    def __len__(self) -> int:
        return len(self.times)

    def __eq__(self, other: object) -> bool:
        """Value equality, so serialized traces can be compared round-trip."""
        if not isinstance(other, TraceRecorder):
            return NotImplemented
        return (
            self.name == other.name
            and self.times == other.times
            and self.values == other.values
        )

    __hash__ = None  # mutable, append-only: not hashable

    def add(self, time: float, value: float) -> None:
        """Record *value* at *time*; times must be non-decreasing."""
        if self.times and time < self.times[-1]:
            raise ValueError(
                "trace %s: time %r precedes last sample %r"
                % (self.name, time, self.times[-1])
            )
        self.times.append(float(time))
        self.values.append(float(value))

    @property
    def samples(self) -> List[Tuple[float, float]]:
        """The recorded samples as (time, value) pairs."""
        return list(zip(self.times, self.values))

    @property
    def final_value(self) -> float:
        """The most recent sample's value."""
        if not self.values:
            raise ValueError("trace %s is empty" % self.name)
        return self.values[-1]

    @property
    def max_value(self) -> float:
        """The largest value ever recorded."""
        if not self.values:
            raise ValueError("trace %s is empty" % self.name)
        return max(self.values)

    def value_at(self, time: float) -> float:
        """Step-function evaluation: the last sample at or before *time*."""
        return step_value_at(self.times, self.values, time)

    def scaled(self, time_factor: float = 1.0, value_factor: float = 1.0) -> "TraceRecorder":
        """A copy with times and values multiplied by the given factors.

        Used to convert (seconds, cells) traces into the paper's
        (milliseconds, kilobytes) axes.
        """
        out = TraceRecorder(self.name)
        out.times = [t * time_factor for t in self.times]
        out.values = [v * value_factor for v in self.values]
        return out


def step_value_at(times: Sequence[float], values: Sequence[float], time: float) -> float:
    """Evaluate a step function defined by sorted *times* / *values*.

    Returns the value of the last sample at or before *time*; raises
    when *time* precedes the first sample (there is no defined value).
    """
    if not times:
        raise ValueError("empty trace has no value")
    index = bisect.bisect_right(list(times), time) - 1
    if index < 0:
        raise ValueError(
            "time %r precedes the first sample at %r" % (time, times[0])
        )
    return values[index]
