"""The resumable sweep service: checkpoints + dispatch + streaming.

:func:`execute_sweep` is what :func:`repro.experiments.runner.run_batch`
is a thin client of.  It takes the runner's fully-encoded payloads (in
input order) and owns everything between "a list of jobs" and "a list
of terminal outcomes":

1. **keying** — every job gets a checkpoint key (a content hash of the
   experiment name plus its encoded, already-seeded spec);
2. **prefill** — jobs whose key is already checkpointed are served
   from disk in the parent, without ever reaching a worker;
3. **dedup** — identical remaining jobs collapse to one execution, the
   outcome fanned out to every index that asked for it;
4. **dispatch** — the rest run through the work-stealing pool
   (:func:`repro.jobs.dispatch.run_tasks`), each worker checkpointing
   its result the moment it exists;
5. **streaming** — every terminal outcome (prefilled, executed or
   fanned out) is pushed to the caller's callback in completion order,
   so partial sweeps can render partial tables and JSON while running.

Steps 2–4 only engage when a checkpoint directory is given; without
one the service degrades to exactly the old ``run_batch`` semantics
(every job executes) plus per-job failure capture.

An interrupted or crashed sweep surfaces as
:class:`~repro.jobs.dispatch.SweepInterrupted` /
:class:`~repro.jobs.dispatch.SweepBroken`; because checkpoints are
written worker-side before outcomes are reported, both exceptions mean
"pause", never "loss" — re-running the same sweep with ``resume=True``
re-serves the completed jobs, re-leases the orphans, and merges to a
``BatchResult`` byte-identical to an uninterrupted run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from .dispatch import (
    JobOutcome,
    JobTask,
    duplicate_outcome,
    run_tasks,
)
from .store import JobStore, job_key

__all__ = ["SweepReport", "execute_sweep"]


#: ``(experiment, encoded spec)`` — one normalized job as the batch
#: runner prepares it, in input order.
SweepPayload = Tuple[str, Dict[str, Any]]


@dataclass
class SweepReport:
    """Everything a sweep produced, plus how it was produced.

    ``outcomes`` is in **input order** (one entry per payload);
    ``reused``/``computed``/``duplicates``/``failed`` say how many jobs
    came from checkpoints, were actually executed, were fanned out from
    identical twins, and ended in a structured error.  ``orphans`` is
    the crashed predecessor's in-flight set that a resume re-leased.
    """

    outcomes: List[JobOutcome]
    keys: List[Optional[str]]
    reused: int = 0
    computed: int = 0
    duplicates: int = 0
    failed: int = 0
    checkpoint_dir: Optional[str] = None
    orphans: Dict[str, Dict[str, Any]] = field(default_factory=dict)

    def counts(self) -> Dict[str, int]:
        """The run-shape counters as a plain dict (for reports/CLI)."""
        return {
            "reused": self.reused,
            "computed": self.computed,
            "duplicates": self.duplicates,
            "failed": self.failed,
        }


def execute_sweep(
    payloads: Sequence[SweepPayload],
    workers: Optional[int] = None,
    plan_cache_dir: Optional[str] = None,
    checkpoint_dir: Optional[str] = None,
    resume: bool = False,
    on_outcome: Optional[Callable[[JobOutcome, int, int], None]] = None,
) -> SweepReport:
    """Run a sweep's payloads; return terminal outcomes in input order.

    *on_outcome* is called as ``on_outcome(outcome, done, total)`` for
    every terminal outcome in completion order — checkpoint prefills
    first, then executed jobs as they finish (with fanned-out
    duplicates immediately after their twin).

    With *resume*, orphaned lease records (a crashed sweep's in-flight
    jobs) are collected into the report and re-leased implicitly when
    their jobs re-run.  Resume never *requires* orphans: resuming a
    sweep that finished cleanly is simply an all-checkpoint replay.

    Raises :class:`SweepInterrupted` / :class:`SweepBroken` with the
    partial outcomes attached; everything those outcomes describe is
    already durable when a checkpoint directory is in play.
    """
    payloads = list(payloads)
    total = len(payloads)
    store = JobStore(checkpoint_dir) if checkpoint_dir else None
    # Keys are computed whether or not a store is attached: failure
    # records always name their job's spec hash, and `--dry-run`'s
    # reported keys match the runtime keys exactly.
    keys: List[Optional[str]] = [
        job_key(experiment, spec_data)
        for experiment, spec_data in payloads
    ]

    report = SweepReport(outcomes=[], keys=keys, checkpoint_dir=(
        store.directory if store is not None else None
    ))
    done = 0

    def deliver(outcome: JobOutcome) -> None:
        nonlocal done
        report.outcomes.append(outcome)
        done += 1
        if outcome.source == "checkpoint":
            report.reused += 1
        elif outcome.source == "duplicate":
            report.duplicates += 1
        else:
            report.computed += 1
        if outcome.error is not None:
            report.failed += 1
        if on_outcome is not None:
            on_outcome(outcome, done, total)

    todo: List[JobTask] = []
    fanout: Dict[str, List[int]] = {}
    if store is not None:
        store.sweep_scratch()
        if resume:
            report.orphans = store.orphaned_leases()
        primary_for_key: Dict[str, int] = {}
        for index, (experiment, spec_data) in enumerate(payloads):
            key = keys[index]
            payload = store.get(key)
            if payload is not None:
                deliver(JobOutcome(index=index, key=key,
                                   result=payload["result"], error=None,
                                   cache_delta={}, source="checkpoint"))
                continue
            if key in primary_for_key:
                # An identical job is already queued: fan its outcome
                # out instead of running the same bytes twice.
                fanout.setdefault(key, []).append(index)
                continue
            primary_for_key[key] = index
            todo.append((index, experiment, spec_data, key))
    else:
        # No store: every job executes (legacy `run_batch` semantics),
        # keys riding along for failure records only.
        todo = [
            (index, experiment, spec_data, keys[index])
            for index, (experiment, spec_data) in enumerate(payloads)
        ]

    def deliver_with_fanout(outcome: JobOutcome) -> None:
        deliver(outcome)
        if outcome.key is not None:
            for index in fanout.get(outcome.key, ()):
                deliver(duplicate_outcome(outcome, index))

    if todo:
        try:
            run_tasks(
                todo,
                workers=workers,
                plan_cache_dir=plan_cache_dir,
                checkpoint_dir=(store.directory if store else None),
                on_outcome=deliver_with_fanout,
            )
        except (KeyboardInterrupt, RuntimeError) as exc:
            # SweepInterrupted / SweepBroken already carry the executed
            # outcomes; swap in the full terminal set (prefills and
            # fanned-out duplicates included) so callers report the
            # sweep's true progress, then let it propagate.
            if hasattr(exc, "outcomes"):
                exc.outcomes = list(report.outcomes)
                exc.total = total
            raise

    report.outcomes.sort(key=lambda outcome: outcome.index)
    return report
