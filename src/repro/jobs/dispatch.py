"""Work-stealing job execution over a persistent worker pool.

The execution layer under :func:`repro.experiments.runner.run_batch`:
takes fully-encoded job tasks, runs them serially or across a
``concurrent.futures.ProcessPoolExecutor``, and streams
:class:`JobOutcome` records back *in completion order*.  Nothing above
this module knows which of the two happened.

Work-stealing, not chunking: every task is submitted as its own future
against one shared queue, so a free worker always takes the oldest
pending job — a sweep mixing two-second and two-minute jobs keeps all
cores busy instead of stalling on the unluckiest chunk of a
``pool.map``.

Failure is per-job: an exception inside an experiment is captured in
the worker and returned as a structured error record (type, message,
experiment, spec hash, traceback), so one bad spec costs one job, not
the sweep.  Only two things abort a sweep early, and both are
converted into exceptions that carry the completed outcomes
(``run_batch`` re-raises them with its checkpoint prefills and
fanned-out duplicates added):

* :class:`SweepInterrupted` (a ``KeyboardInterrupt`` subclass) — the
  user hit Ctrl-C.  The pool is torn down, and because workers
  checkpoint each job *before* reporting it, everything completed so
  far is already durable: Ctrl-C on a checkpointed sweep is a pause.
* :class:`SweepBroken` — a worker process died (OOM kill, SIGKILL,
  segfault).  ``ProcessPoolExecutor`` detects the death (a bare
  ``multiprocessing`` pool would hang forever on the lost task);
  completed jobs are on disk and ``repro resume`` finishes the rest.

Workers checkpoint and lease through a process-local
:class:`~repro.jobs.store.JobStore` attached by the pool initializer
(the same pattern the scenario plan cache uses for its disk tier), so
results are durable the moment they exist, not when the parent gets
around to flushing them.

The serial path also opens one kind-worker scope for the whole sweep
(:func:`~repro.scenario.kindworker.kind_workers`): the first job that
replays two controller kinds forks one worker per extra usable CPU,
every later job replays its kinds side by side in those same workers,
and the sweep's end closes and joins them, on Ctrl-C too.  A pool
worker forks none: its jobs replay their kinds serially.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from ..scenario.cache import DEFAULT_CACHE, DiskPlanCache, attached_disk_tier
from ..scenario.kindworker import kind_workers
from .store import JobStore

if TYPE_CHECKING:
    from concurrent.futures import ProcessPoolExecutor

__all__ = [
    "JobOutcome",
    "JobTask",
    "SweepBroken",
    "SweepInterrupted",
    "run_tasks",
]


#: ``(index, experiment, encoded spec, checkpoint key)`` — plain data,
#: so tasks cross process boundaries without pickling any experiment
#: machinery.
JobTask = Tuple[int, str, Dict[str, Any], Optional[str]]


@dataclass
class JobOutcome:
    """One job's terminal record, as it comes back from a worker.

    ``source`` says how the result was obtained: ``"run"`` (executed
    here), ``"checkpoint"`` (served from the job store), or
    ``"duplicate"`` (fanned out from an identical job in the same
    sweep).  Exactly one of ``result`` and ``error`` is set.
    """

    index: int
    key: Optional[str]
    result: Optional[Dict[str, Any]]
    error: Optional[Dict[str, Any]]
    cache_delta: Dict[str, int] = field(default_factory=dict)
    source: str = "run"


class SweepInterrupted(KeyboardInterrupt):
    """Ctrl-C stopped a sweep; everything completed so far is carried.

    Subclasses :class:`KeyboardInterrupt` so callers that treat a sweep
    as one blocking call still see interrupt semantics; the CLI catches
    it to report "paused, resume with ``repro resume``".
    """

    def __init__(self, outcomes: List[JobOutcome], total: int) -> None:
        super().__init__("sweep interrupted: %d of %d jobs completed"
                         % (len(outcomes), total))
        self.outcomes = outcomes
        self.total = total


class SweepBroken(RuntimeError):
    """A worker process died mid-sweep (SIGKILL, OOM, segfault).

    Completed jobs are already checkpointed (when a store is attached);
    ``repro resume`` re-runs only what is missing.
    """

    def __init__(self, outcomes: List[JobOutcome], total: int) -> None:
        super().__init__(
            "a sweep worker died: %d of %d jobs completed%s"
            % (len(outcomes), total,
               " (checkpointed jobs survive; resume to finish)")
        )
        self.outcomes = outcomes
        self.total = total


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------

#: The worker-process checkpoint store, attached by the pool
#: initializer (``None``: checkpointing off).  Module-level state, like
#: the plan cache's ``DEFAULT_CACHE.disk``, because pool workers can
#: only be configured through their initializer.
_WORKER_STORE: Optional[JobStore] = None


def _init_worker(
    plan_cache_dir: Optional[str], checkpoint_dir: Optional[str]
) -> None:
    """Pool initializer: attach the shared plan cache and job store."""
    if plan_cache_dir:
        DEFAULT_CACHE.disk = DiskPlanCache(plan_cache_dir)
    global _WORKER_STORE
    _WORKER_STORE = JobStore(checkpoint_dir) if checkpoint_dir else None


@contextmanager
def _attached_store(checkpoint_dir: Optional[str]) -> Iterator[None]:
    """Serial-path twin of :func:`_init_worker`'s store attachment."""
    global _WORKER_STORE
    previous = _WORKER_STORE
    _WORKER_STORE = JobStore(checkpoint_dir) if checkpoint_dir else None
    try:
        yield
    finally:
        _WORKER_STORE = previous


def _job_error(exc: Exception, experiment: str, key: Optional[str]) -> Dict[str, Any]:
    """A structured, serializable record of one job's failure.

    Deterministic for a deterministic failure — the same bad spec
    produces the same record at any worker count and on resume, so
    sweeps containing failures still merge byte-identically.
    """
    record: Dict[str, Any] = {
        "type": type(exc).__name__,
        "message": str(exc),
        "experiment": experiment,
    }
    if key is not None:
        record["spec_hash"] = key
    import traceback

    record["traceback"] = traceback.format_exc()
    return record


def execute_task(task: JobTask) -> JobOutcome:
    """Worker entry point: serve from checkpoint, or run / capture / store.

    Runs in pool processes too: a registry lookup that misses imports
    every harness, so a spawned worker that imported only this module is
    as self-sufficient as a forked one.
    With a store attached the order is lease → run → checkpoint →
    release, so the checkpoint exists *before* the outcome is reported
    and a parent killed a microsecond later loses nothing.
    """
    index, name, spec_data, key = task
    store = _WORKER_STORE
    if store is not None and key is not None:
        payload = store.get(key)
        if payload is not None:
            return JobOutcome(index=index, key=key, result=payload["result"],
                              error=None, cache_delta={}, source="checkpoint")
        store.lease(key, name, index)
    from ..experiments.registry import get_experiment

    before = DEFAULT_CACHE.stats()
    result: Optional[Dict[str, Any]] = None
    error: Optional[Dict[str, Any]] = None
    try:
        from ..serialize import encode

        experiment = get_experiment(name)
        spec = experiment.spec_type.from_dict(spec_data)
        result = encode(experiment.run(spec))
    except KeyboardInterrupt:
        raise  # an interrupt is a sweep event, not a job failure
    except Exception as exc:
        error = _job_error(exc, name, key)
    after = DEFAULT_CACHE.stats()
    delta = {counter: after[counter] - before[counter] for counter in after}
    if store is not None and key is not None:
        if error is None:
            store.put(key, name, spec_data, result)
        # A failed job keeps no lease either: the failure is terminal
        # for this sweep, and resume will re-lease when it retries.
        store.release(key)
    return JobOutcome(index=index, key=key, result=result, error=error,
                      cache_delta=delta, source="run")


# ----------------------------------------------------------------------
# Parent side
# ----------------------------------------------------------------------


def _halt_pool(executor: ProcessPoolExecutor) -> None:
    """Tear a pool down without waiting for its in-flight jobs.

    ``shutdown(cancel_futures=True)`` stops the queue; terminating the
    live children stops the in-flight jobs themselves — on Ctrl-C the
    user wants the prompt back now, and every *completed* job is
    already checkpointed by its worker.
    """
    import multiprocessing

    executor.shutdown(wait=False, cancel_futures=True)
    for child in multiprocessing.active_children():
        try:
            child.terminate()
        except (OSError, ValueError):
            pass


def run_tasks(
    tasks: Sequence[JobTask],
    on_outcome: Callable[[JobOutcome], None],
    workers: Optional[int] = None,
    plan_cache_dir: Optional[str] = None,
    checkpoint_dir: Optional[str] = None,
) -> None:
    """Run every task; outcomes stream to *on_outcome* in completion order.

    Serial (``workers`` ``None``/``1``) and pooled execution share
    :func:`execute_task`, so a job computes identical bytes either way
    (the caller owns input-order merging via ``JobOutcome.index``).

    Raises :class:`SweepInterrupted` on Ctrl-C and :class:`SweepBroken`
    on worker death, both carrying the outcomes completed so far.
    """
    tasks = list(tasks)
    total = len(tasks)
    outcomes: List[JobOutcome] = []

    def record(outcome: JobOutcome) -> None:
        outcomes.append(outcome)
        on_outcome(outcome)

    if workers is None or workers <= 1:
        with attached_disk_tier(DEFAULT_CACHE, plan_cache_dir), \
                _attached_store(checkpoint_dir), kind_workers():
            for task in tasks:
                try:
                    record(execute_task(task))
                except KeyboardInterrupt:
                    raise SweepInterrupted(outcomes, total) from None
        return

    # The pool machinery loads here, not with the module: a serial
    # sweep and a single-job process never use it.
    from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
    from concurrent.futures.process import BrokenProcessPool

    with ProcessPoolExecutor(
        max_workers=min(workers, max(total, 1)),
        initializer=_init_worker,
        initargs=(plan_cache_dir, checkpoint_dir),
    ) as executor:
        pending = {executor.submit(execute_task, task) for task in tasks}
        try:
            while pending:
                finished, pending = wait(pending, return_when=FIRST_COMPLETED)
                for future in finished:
                    record(future.result())
        except KeyboardInterrupt:
            _halt_pool(executor)
            raise SweepInterrupted(outcomes, total) from None
        except BrokenProcessPool as exc:
            _halt_pool(executor)
            raise SweepBroken(outcomes, total) from exc
