"""Human-readable rendering of checker results."""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..report.tables import format_table
from .explore import CheckResult
from .invariants import INVARIANTS
from .replay import ReplayReport
from .schedule import Schedule

__all__ = ["format_schedule", "render_check_report"]


#: Steps :func:`format_schedule` shows before eliding the rest.
_SCHEDULE_STEPS = 24


def format_schedule(schedule: Schedule) -> str:
    """A schedule as a compact one-line action string."""
    parts = ["%s@%d" % (step.kind, step.hop) for step in schedule.steps]
    if len(parts) > _SCHEDULE_STEPS:
        shown = ", ".join(parts[:_SCHEDULE_STEPS])
        return "%s, ... (%d more)" % (shown, len(parts) - _SCHEDULE_STEPS)
    return ", ".join(parts)


def render_check_report(
    result: CheckResult,
    replays: Optional[Sequence[ReplayReport]] = None,
) -> str:
    config = result.config
    stats = result.stats
    lines: List[str] = []
    lines.append(
        "repro check: %d hop(s), %d cell(s), %s transport, window=%d (%s)"
        % (config.hops, config.cells,
           "reliable" if config.reliable else "lossless",
           config.cwnd, config.window_mode)
    )
    scope = "exhaustive" if result.exhaustive else "BOUNDED (truncated)"
    lines.append(
        "%s enumeration: %d states, %d transitions, %d terminal states "
        "in %.2fs (max depth %d, POR %s, %d sleep-set skips)"
        % (scope, stats.states, stats.transitions, stats.terminals,
           stats.elapsed_seconds, stats.max_depth_reached,
           "on" if stats.por else "off", stats.sleep_skips)
    )
    lines.append("")

    by_invariant = {}
    for violation in result.violations:
        by_invariant.setdefault(violation.invariant, []).append(violation)
    rows = []
    for name, description in INVARIANTS:
        hits = by_invariant.get(name, [])
        status = "ok" if not hits else "%d VIOLATION(S)" % len(hits)
        rows.append([name, description, status])
    lines.append(format_table(
        ["invariant", "meaning", "status"], rows,
        title="Invariant catalog (asserted in every reached state)",
    ))

    if result.violations:
        lines.append("")
        lines.append("Counterexamples:")
        for violation in result.violations:
            lines.append("  %s: %s" % (violation.invariant, violation.detail))
            lines.append("    schedule: %s" % format_schedule(violation.schedule))

    if replays is not None:
        lines.append("")
        agreed = sum(1 for report in replays if report.agreed)
        lines.append(
            "Engine replay: %d/%d sampled schedules agree with the real "
            "Simulator/HopSender/TorHost stack" % (agreed, len(replays))
        )
        for index, report in enumerate(replays):
            if report.agreed:
                continue
            lines.append("  replay %d DISAGREES (%d step(s)):" % (index, report.steps))
            for mismatch in report.mismatches:
                where = "hop %d" % mismatch.hop if mismatch.hop >= 0 else "circuit"
                lines.append(
                    "    %s [%s]: model=%s engine=%s"
                    % (mismatch.field, where, mismatch.model, mismatch.engine)
                )

    lines.append("")
    replay_ok = replays is None or all(r.agreed for r in replays)
    if result.ok and replay_ok:
        lines.append("VERDICT: PASS — all invariants hold in every %s state%s"
                     % ("reached" if result.exhaustive else "explored",
                        "" if replays is None
                        else "; every replayed schedule matches the engine"))
    else:
        lines.append("VERDICT: FAIL — %d invariant violation(s), %d replay "
                     "disagreement(s)"
                     % (len(result.violations),
                        0 if replays is None
                        else sum(1 for r in replays if not r.agreed)))
    return "\n".join(lines)
