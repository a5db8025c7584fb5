"""One-shot reproduction report.

:func:`generate_report` runs the six chain and CDF experiments of the
reproduction (at either paper scale or a fast reduced scale) and puts
what each one's own ``render`` prints — exactly what ``repro trace``,
``repro cdf``, ``repro ablations``, ``repro dynamic``, ``repro
friendliness`` and ``repro interactive`` show — under markdown headings.

``python -m repro report --out report.md`` is the CLI entry point.
"""

from __future__ import annotations

from ..experiments import (
    AblationsConfig,
    CdfConfig,
    DynamicConfig,
    FriendlinessConfig,
    InteractiveConfig,
    NetworkConfig,
    TraceConfig,
    get_experiment,
)
from ..units import kib, seconds

__all__ = ["generate_report", "report_sections"]


def report_sections(full: bool = False) -> list:
    """``(heading, experiment name, spec)`` rows, in document order; a
    heading with no experiment under it opens a group."""
    duration = seconds(1.0) if full else seconds(0.6)
    near = TraceConfig(bottleneck_distance=1, duration=duration)
    far = TraceConfig(bottleneck_distance=3, duration=duration)
    if full:
        cdf, ablations = CdfConfig(), AblationsConfig()
    else:
        cdf = CdfConfig(
            circuit_count=12,
            payload_bytes=kib(200),
            network=NetworkConfig(relay_count=16, client_count=12,
                                  server_count=12),
        )
        ablations = AblationsConfig(near=near, far=far)
    return [
        ("## Figure 1 (upper): source cwnd traces", None, None),
        ("### distance to bottleneck: 1 hop(s)", "trace", near),
        ("### distance to bottleneck: 3 hop(s)", "trace", far),
        ("## Figure 1 (lower): download-time CDF", "cdf", cdf),
        ("## Ablations (A1-A4)", "ablations", ablations),
        ("## Extensions", None, None),
        ("### Future work: mid-flow rate change", "dynamic", DynamicConfig()),
        ("### Friendliness toward background traffic", "friendliness",
         FriendlinessConfig()),
        ("### Interactive latency under a competing bulk stream",
         "interactive", InteractiveConfig()),
    ]


def _rendered(name: str, spec) -> str:
    """Run experiment *name* on *spec*: its own rendering, fenced."""
    experiment = get_experiment(name)
    return "```\n" + experiment.render(experiment.run(spec)) + "\n```"


def generate_report(full: bool = False) -> str:
    """Render the whole reproduction as one markdown document.

    *full* reruns everything at paper scale (minutes); the default
    reduced scale finishes in well under a minute.
    """
    lines = [
        "# CircuitStart reproduction report",
        "",
        "Scale: %s." % ("paper (full)" if full else "reduced (fast)"),
        "",
    ]
    for heading, name, spec in report_sections(full):
        lines += [heading, ""]
        if name is not None:
            lines += [_rendered(name, spec), ""]
    return "\n".join(lines)
