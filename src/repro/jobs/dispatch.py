"""One pool of forked workers under every sweep.

The execution layer under :func:`repro.experiments.runner.run_batch`:
takes fully-encoded job tasks, runs them, and streams
:class:`JobOutcome` records back *in completion order*.  Nothing above
this module knows how a job was split or where it ran.

**The unit of work is a kind replay.**  Every CircuitStart comparison
replays one plan once per controller kind, and the replays share
nothing.  For a job whose experiment plans a scenario
(:attr:`~repro.experiments.api.Experiment.plans_scenario`: ``netscale``,
``scenario``, ``cdf``) this process does the job's host work:
checkpoint get and lease, decoding the spec, planning (in input order,
so per-job plan-cache deltas keep their sums), and, once the job's last
kind lands, assembling, encoding, ``store.put`` and release.  Each
``(plan, kind)`` unit replays in a forked
:class:`~repro.scenario.kindworker.Worker`.  This process plans a few
jobs ahead and sends units longest-first by planned cell-hops among the
jobs planned so far, two queued per worker, so its host work overlaps
the replays.  A job whose experiment plans no scenario runs whole: here
at ``workers <= 1`` (once the units in flight have landed, so such jobs
report in input order), as one unit in a worker otherwise.

**Pool size.**  ``workers`` ``None`` or ``1``: one worker per usable
CPU; ``N``: ``N`` workers.  None at all, every unit replaying here, at
``workers <= 1`` on one usable CPU, inside a worker, or beside another
thread.  Workers fork as units need them and are joined when the sweep
ends, whatever ends it.

Failure is per job: an exception inside an experiment is captured as a
structured error record (type, message, experiment, spec hash,
traceback), so one bad spec costs one job, not the sweep.  A unit whose
worker raised, died or was killed is *lost* and replays here when its
job finishes, so a job's error is always the serial engine's own; a
dead worker is replaced once, its replacement not again.  Only two
things abort a sweep early, and both carry the completed outcomes
(``run_batch`` re-raises them with its checkpoint prefills and
fanned-out duplicates added):

* :class:`SweepInterrupted` (a ``KeyboardInterrupt`` subclass) — the
  user hit Ctrl-C.  The workers are killed and joined, and because
  every job is checkpointed *before* it is reported, everything
  completed so far is already durable: Ctrl-C on a checkpointed sweep
  is a pause.
* :class:`SweepBroken` — a worker died while it ran a whole job (OOM
  kill, SIGKILL, segfault).  Completed jobs are on disk and ``repro
  resume`` finishes the rest.

Each lost worker is logged once, as a WARNING naming its pid and what
it lost; each fork is logged at DEBUG.
"""

from __future__ import annotations

import heapq
import select
from collections import deque
from dataclasses import dataclass, field, replace
from itertools import count
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..scenario.cache import DEFAULT_CACHE, attached_disk_tier
from ..scenario.kindworker import Worker, may_fork, usable_cpus
from .store import JobStore

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

#: Jobs planned and waiting for a worker: enough for longest-first to
#: choose among, few enough that the first units go out at once.
_PLAN_AHEAD = 4
#: Units queued per worker.  With one, a worker idles while its next
#: unit crosses the pipe (1.05 s against 0.83 s for a cold sweep-tiny
#: batch on 2 CPUs).
_DEPTH = 2


@dataclass
class JobOutcome:
    """One job's terminal record.

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
    """A worker process died mid-sweep (SIGKILL, OOM, segfault) while it
    ran a whole job.

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


def _log() -> Any:
    """This module's logger.  ``logging`` loads on the first fork, not
    with the module: it costs a cold process ~7 ms, which a process that
    imports this module and forks no pool need not pay."""
    import logging

    return logging.getLogger(__name__)


class _WorkerLost(Exception):
    """A worker died with a whole job: the sweep is broken."""


# ----------------------------------------------------------------------
# One job's host work
# ----------------------------------------------------------------------


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


def _check_out(task: JobTask, store: Optional[JobStore]) -> Optional[JobOutcome]:
    """The job's checkpoint, or ``None`` after taking its lease."""
    index, name, __, key = task
    if store is None or key is None:
        return None
    payload = store.get(key)
    if payload is not None:
        return JobOutcome(index=index, key=key, result=payload["result"],
                          error=None, cache_delta={}, source="checkpoint")
    store.lease(key, name, index)
    return None


def _cache_delta(before: Dict[str, int]) -> Dict[str, int]:
    """The plan-cache counters' growth since *before*."""
    after = DEFAULT_CACHE.stats()
    return {counter: after[counter] - before[counter] for counter in after}


def _check_in(
    task: JobTask,
    store: Optional[JobStore],
    result: Optional[Dict[str, Any]],
    error: Optional[Dict[str, Any]],
    delta: Dict[str, int],
) -> JobOutcome:
    """Checkpoint a finished job and release its lease, *then* return
    its outcome: a parent killed a microsecond later loses nothing."""
    index, name, spec_data, key = task
    if store is not None and key is not None:
        if error is None:
            store.put(key, name, spec_data, result)
        # A failed job keeps no lease either: the failure is terminal
        # for this sweep, and resume will re-lease when it retries.
        store.release(key)
    return JobOutcome(index=index, key=key, result=result, error=error,
                      cache_delta=delta, source="run")


def execute_task(task: JobTask, store: Optional[JobStore] = None) -> JobOutcome:
    """Run one job whole: serve it from *store*, or run, capture and
    checkpoint it there.

    Runs in a worker too: a registry lookup that misses imports every
    harness, so a process that imported only this module can run any
    job.
    """
    hit = _check_out(task, store)
    if hit is not None:
        return hit
    __, name, spec_data, key = task
    from ..experiments.registry import get_experiment
    from ..serialize import encode

    before = DEFAULT_CACHE.stats()
    result: Optional[Dict[str, Any]] = None
    error: Optional[Dict[str, Any]] = None
    try:
        experiment = get_experiment(name)
        result = encode(experiment.run(experiment.spec_type.from_dict(spec_data)))
    except KeyboardInterrupt:
        raise  # an interrupt is a sweep event, not a job failure
    except Exception as exc:
        error = _job_error(exc, name, key)
    return _check_in(task, store, result, error, _cache_delta(before))


def _plans_scenario(name: str) -> bool:
    from ..experiments.registry import get_experiment

    try:
        return get_experiment(name).plans_scenario
    except KeyError:
        return False  # runs whole, and execute_task records the error


class _Job:
    """A scenario job between its planning and its last kind."""

    __slots__ = ("task", "experiment", "spec", "plan", "delta", "outcomes", "waiting")

    def __init__(self, task: JobTask, experiment: Any, spec: Any, plan: Any,
                 delta: Dict[str, int]) -> None:
        self.task = task
        self.experiment = experiment
        self.spec = spec
        self.plan = plan
        #: What planning, all the job asks of the plan cache, counted.
        self.delta = delta
        #: kind -> outcome, for each kind a worker replayed.
        self.outcomes: Dict[str, Any] = {}
        #: Units sent and not yet landed.
        self.waiting = 0


# ----------------------------------------------------------------------
# The pool
# ----------------------------------------------------------------------


class _Pool:
    """Up to *size* workers of one sweep, forked as units need them, each
    answering with ``serve(body, parts)``."""

    def __init__(self, size: int, serve: Callable[[Any, Dict[str, Any]], Any]) -> None:
        self.size = size
        self.serve = serve
        self.workers: List[Worker] = []
        #: Dead first-generation workers not yet replaced.
        self._owed = 0
        #: Pids of replacements, which are not replaced in turn.
        self._spares: set = set()

    @property
    def busy(self) -> bool:
        return any(worker.units for worker in self.workers)

    def can_take(self) -> bool:
        return len(self.workers) < self.size or any(
            len(worker.units) < _DEPTH for worker in self.workers
        )

    def send(self, unit: Tuple[int, Optional[str]], body: Any, parts: Any) -> bool:
        """Queue *unit* on an idle worker, a new one, or the least busy;
        ``False`` if no worker is left to take it."""
        workers = self.workers
        if len(workers) < self.size and all(worker.units for worker in workers):
            try:
                worker = Worker(self.serve)
            except OSError as error:  # out of processes or memory
                _log().warning("cannot fork a sweep worker (%s); %d remain", error, len(workers))
                self.size = len(workers)
                return self.send(unit, body, parts) if workers else False
            if self._owed:
                self._owed -= 1
                self._spares.add(worker.pid)
            workers.append(worker)
            _log().debug("forked sweep worker %d (%d of %d)", worker.pid, len(workers), self.size)
        else:
            worker = min(workers, key=lambda worker: len(worker.units))
        worker.send(unit, body, parts)
        return True

    def wait(self) -> List[Tuple[Any, str, Any]]:
        """Block until a worker answers or dies: the answers, and a
        ``"lost"`` answer for each unit a dead worker held."""
        workers = self.workers
        readable, writable, __ = select.select(
            [worker.answers for worker in workers],
            [worker.requests for worker in workers if worker.outbox], [],
        )
        answers: List[Tuple[Any, str, Any]] = []
        for worker in list(workers):
            if worker.requests in writable:
                worker.flush()
            if worker.answers in readable:
                received = worker.receive()
                if received is None:
                    answers.extend(self._lose(worker))
                else:
                    answers.extend(received)
        return answers

    def _lose(self, worker: Worker) -> List[Tuple[Any, str, Any]]:
        self.workers.remove(worker)
        worker.stop()
        worker.join()
        if worker.pid in self._spares:
            self.size -= 1
        else:
            self._owed += 1
        _log().warning(
            "sweep worker %d died; %s", worker.pid,
            "; ".join(
                "job %d kind %s replays in the parent" % unit if unit[1] is not None
                else "job %d ran whole there: the sweep is broken" % unit[0]
                for unit in worker.units
            ) or "it held no unit",
        )
        return [(unit, "lost", None) for unit in worker.units]

    def close(self, kill: bool = False) -> None:
        workers, self.workers = self.workers, []
        for worker in workers:
            worker.stop(kill)
        for worker in workers:
            worker.join()


# ----------------------------------------------------------------------
# The sweep
# ----------------------------------------------------------------------


class _Sweep:
    """The parent's side of one sweep: plan ahead, send, land, finish."""

    def __init__(self, tasks: Sequence[JobTask], record: Callable[[JobOutcome], None],
                 store: Optional[JobStore], size: int, whole_here: bool) -> None:
        self.pending = deque(tasks)
        self.record = record
        self.store = store
        self.pool = _Pool(size, self._serve)
        self.whole_here = whole_here
        #: ``(-cell-hops, order, unit, body, parts)`` of each unsent unit.
        self.queue: List[Tuple[float, int, Tuple[int, Optional[str]], Any, Any]] = []
        self.order = count()
        #: job index -> its units still in the queue.
        self.unsent: Dict[int, int] = {}
        #: unit -> the job it belongs to (a _Job, or the task of a whole job).
        self.owners: Dict[Tuple[int, Optional[str]], Any] = {}
        #: The network last shipped: the object, its content key, its pickle.
        self.network: Tuple[Any, Any, bytes] = (None, None, b"")

    def run(self) -> None:
        pool = self.pool
        while self.pending or self.queue or pool.busy:
            self._plan_ahead()
            while self.queue and pool.can_take():
                unit, body, parts = self._next_unit()
                if not pool.send(unit, body, parts):
                    self._land(unit, "unsent", None)
            if pool.busy:
                for unit, status, value in pool.wait():
                    self._land(unit, status, value)
            elif self.queue:
                # Every worker and replacement is gone: run it here.
                self._land(self._next_unit()[0], "unsent", None)

    def _plan_ahead(self) -> None:
        while self.pending and len(self.unsent) < _PLAN_AHEAD:
            task = self.pending[0]
            if _plans_scenario(task[1]):
                self._open(self.pending.popleft())
            elif not self.whole_here:
                self.pending.popleft()
                self._enqueue(task, (task[0], None), task, None, float("inf"))
            elif self.queue or self.pool.busy:
                return  # a whole job here waits for the units in flight
            else:
                self.record(execute_task(self.pending.popleft(), self.store))

    def _enqueue(self, owner: Any, unit: Tuple[int, Optional[str]], body: Any,
                 parts: Any, cost: float) -> None:
        self.owners[unit] = owner
        self.unsent[unit[0]] = self.unsent.get(unit[0], 0) + 1
        heapq.heappush(self.queue, (-cost, next(self.order), unit, body, parts))

    def _next_unit(self) -> Tuple[Tuple[int, Optional[str]], Any, Any]:
        """The longest unsent unit, out of the queue."""
        __, __, unit, body, parts = heapq.heappop(self.queue)
        left = self.unsent.pop(unit[0]) - 1
        if left:
            self.unsent[unit[0]] = left
        return unit, body, parts

    def _open(self, task: JobTask) -> None:
        """The host work before a job's replays: checkpoint, decode, plan."""
        hit = _check_out(task, self.store)
        if hit is not None:
            self.record(hit)
            return
        from ..experiments.registry import get_experiment
        from ..scenario.spec import plan_scenario

        index, name, spec_data, key = task
        experiment = get_experiment(name)
        before = DEFAULT_CACHE.stats()
        try:
            spec = experiment.spec_type.from_dict(spec_data)
            plan = plan_scenario(experiment.to_scenario(spec), cache=DEFAULT_CACHE)
        except KeyboardInterrupt:
            raise
        except Exception as exc:
            self.record(_check_in(task, self.store, None, _job_error(exc, name, key),
                                  _cache_delta(before)))
            return
        job = _Job(task, experiment, spec, plan, _cache_delta(before))
        if not self.pool.size:
            self._finish(job)
            return
        import pickle

        if plan.network is not self.network[0]:
            from ..scenario.spec import network_key

            self.network = (plan.network, network_key(plan.scenario),
                            pickle.dumps(plan.network, pickle.HIGHEST_PROTOCOL))
        __, network, blob = self.network
        parts = {
            "network": (network, blob),
            "plan": (index, pickle.dumps(replace(plan, network=None),
                                         pickle.HIGHEST_PROTOCOL)),
        }
        cost = plan.estimated_cost()["cell_hops"]
        for kind in plan.scenario.kinds:
            job.waiting += 1
            self._enqueue(job, (index, kind), kind, parts, cost)

    def _land(self, unit: Tuple[int, Optional[str]], status: str, value: Any) -> None:
        """One answer, or one lost unit."""
        owner = self.owners.pop(unit)
        if status == "interrupted":
            raise KeyboardInterrupt
        if isinstance(owner, _Job):
            if status == "done":
                owner.outcomes[unit[1]] = value
            owner.waiting -= 1
            if not owner.waiting:
                self._finish(owner)
        elif status == "done":
            self.record(value)
        elif status == "lost":
            raise _WorkerLost("a worker died running job %d" % unit[0])
        else:  # it raised outside the job's own capture, or never went out
            self.record(execute_task(owner, self.store))

    def _finish(self, job: _Job) -> None:
        """The host work after a job's replays: replay what was lost,
        assemble, encode, checkpoint, report."""
        from ..scenario.engine import replay_kind, scenario_result
        from ..serialize import encode

        plan = job.plan
        kinds = plan.scenario.kinds
        result: Optional[Dict[str, Any]] = None
        error: Optional[Dict[str, Any]] = None
        try:
            outcomes = [
                job.outcomes[kind] if kind in job.outcomes else replay_kind(plan, kind)
                for kind in kinds
            ]
            result = encode(job.experiment.from_scenario_result(
                job.spec, scenario_result(plan, kinds, outcomes)))
        except KeyboardInterrupt:
            raise
        except Exception as exc:
            error = _job_error(exc, job.task[1], job.task[3])
        self.record(_check_in(job.task, self.store, result, error, job.delta))

    def _serve(self, body: Any, parts: Dict[str, Any]) -> Any:
        """What a worker does with one unit: replay a kind, or run a job."""
        if not parts:
            return execute_task(body, self.store)
        from ..scenario.engine import replay_kind

        plan = parts["plan"]
        plan.network = parts["network"]
        return replay_kind(plan, body)


def run_tasks(
    tasks: Sequence[JobTask],
    on_outcome: Callable[[JobOutcome], None],
    workers: Optional[int] = None,
    plan_cache_dir: Optional[str] = None,
    checkpoint_dir: Optional[str] = None,
) -> None:
    """Run every task; outcomes stream to *on_outcome* in completion order.

    Every job computes identical bytes at any worker count (the caller
    owns input-order merging via ``JobOutcome.index``).  Raises
    :class:`SweepInterrupted` on Ctrl-C and :class:`SweepBroken` when a
    worker dies with a whole job, both carrying the outcomes completed
    so far.
    """
    tasks = list(tasks)
    total = len(tasks)
    outcomes: List[JobOutcome] = []

    def record(outcome: JobOutcome) -> None:
        outcomes.append(outcome)
        on_outcome(outcome)

    serial = workers is None or workers <= 1
    size = (usable_cpus() if serial else workers) if may_fork() else 0
    if serial and size == 1:
        size = 0
    sweep = _Sweep(tasks, record, JobStore(checkpoint_dir) if checkpoint_dir else None,
                   size, whole_here=serial or not size)
    with attached_disk_tier(DEFAULT_CACHE, plan_cache_dir):
        try:
            sweep.run()
        except KeyboardInterrupt:
            sweep.pool.close(kill=True)
            raise SweepInterrupted(outcomes, total) from None
        except _WorkerLost as exc:
            sweep.pool.close(kill=True)
            raise SweepBroken(outcomes, total) from exc
        except BaseException:
            sweep.pool.close(kill=True)
            raise
        sweep.pool.close()
