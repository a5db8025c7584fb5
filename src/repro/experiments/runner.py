"""Batch sweeps over registered experiments.

:func:`run_batch` executes a list of jobs — each naming a registered
experiment plus a spec — and merges the structured outputs into one
serializable :class:`BatchResult`.  It is the one function that owns
how a list of jobs becomes a list of results:

1. **prepare** (:func:`prepare_job`) — normalize the job, resolve its
   spec, re-seed it per index, encode it and key it with a content
   hash of the experiment name plus the encoded spec;
2. **prefill** — with a checkpoint directory, jobs whose key is already
   checkpointed are served from disk here, never reaching a worker;
3. **dedup** — identical remaining jobs collapse to one execution, the
   outcome fanned out to every index that asked for it;
4. **dispatch** — the rest run through
   :func:`repro.jobs.dispatch.run_tasks`, the only code that knows
   where a job or one of its controller kinds ran, which checkpoints
   each job the moment its result exists;
5. **merge** — every terminal outcome (prefilled, executed or fanned
   out) becomes one :class:`BatchItem`, streamed to ``on_item`` in
   completion order and returned in input order.

Steps 2 and 3 need a checkpoint directory; without one every job
executes.  Every job takes the same decode → plan → replay → encode
path whichever process replays its kinds, so given the simulator's
determinism a ``workers=2`` sweep produces *byte-identical* structured
output to a ``workers=1`` one — and, with a ``checkpoint_dir``, so does
a sweep killed at any point and resumed.

Failure is captured per job: an exception inside an experiment becomes
a structured :attr:`BatchItem.error` (type, message, experiment, spec
hash, traceback) while every other job completes and checkpoints.
Ctrl-C at any point after the jobs are prepared and worker death
surface as :class:`~repro.jobs.dispatch.SweepInterrupted` /
:class:`~repro.jobs.dispatch.SweepBroken`, carrying every record
delivered so far; because every job is checkpointed before it is
reported, with a checkpoint directory both mean "pause", not "loss".

Seeding is deterministic: with ``base_seed`` given, every job whose
spec carries a ``seed`` field gets a stable per-job seed derived via
:func:`repro.sim.rand.derive_seed` from the base seed, the job index
and the experiment name — independent of worker count and scheduling.

Scenario-backed jobs are planned in the sweep's own process, through
the process-local planned-scenario cache
(:data:`repro.scenario.DEFAULT_CACHE`); each job's hit/miss delta is
summed into :attr:`BatchResult.plan_cache`, so batch reports show what
the cache saved.  With ``plan_cache_dir`` set, that cache (and every
worker's, for a job run whole in a worker) additionally shares one
on-disk tier (:class:`repro.scenario.cache.DiskPlanCache`), so plans
survive into later sweeps (racing cold planners each plan and publish
the same bytes).  The counters are observability
only — they never enter the serialized output, which stays
byte-identical across worker counts and cache states.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Tuple,
    Union,
)

from ..jobs.store import JobStore, job_key
from ..sim.rand import derive_seed
from .api import Serializable, SpecError, encode
from .registry import get_experiment

if TYPE_CHECKING:
    from ..jobs.dispatch import JobOutcome, JobTask

__all__ = ["BatchJob", "BatchItem", "BatchResult", "prepare_job", "run_batch"]


@dataclass(frozen=True)
class BatchJob:
    """One unit of a sweep: an experiment name plus its spec.

    ``spec`` may be a spec object of the experiment's ``spec_type``, a
    JSON-able dict, or ``None`` for the experiment's defaults.
    """

    experiment: str
    spec: Any = None
    label: Optional[str] = None

    def resolved_spec(self) -> Any:
        """The spec as a typed object (dicts decoded, None defaulted)."""
        return get_experiment(self.experiment).coerce_spec(self.spec)

    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {
            "experiment": self.experiment,
            "spec": encode(self.resolved_spec()),
        }
        if self.label is not None:
            data["label"] = self.label
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "BatchJob":
        if not isinstance(data, dict) or "experiment" not in data:
            raise SpecError(
                "a batch job needs an 'experiment' key, got %r" % (data,)
            )
        return cls(
            experiment=data["experiment"],
            spec=data.get("spec"),
            label=data.get("label"),
        )


@dataclass
class BatchItem(Serializable):
    """One job's merged record: inputs and structured output.

    Exactly one of ``result`` and ``error`` is meaningful: a completed
    job carries its encoded result and ``error is None``; a failed job
    carries an empty ``result`` and a structured error record (type,
    message, experiment, label, spec hash, traceback) instead of
    aborting the sweep.
    """

    index: int
    experiment: str
    label: Optional[str]
    spec: Dict[str, Any]
    result: Dict[str, Any] = field(default_factory=dict)
    error: Optional[Dict[str, Any]] = None

    @property
    def failed(self) -> bool:
        """Whether this job ended in a captured per-job failure."""
        return self.error is not None

    def result_object(self) -> Any:
        """The result decoded back into its experiment's result type."""
        if self.error is not None:
            raise ValueError(
                "job %d (%s) failed with %s: %s"
                % (self.index, self.experiment,
                   self.error.get("type", "Error"),
                   self.error.get("message", ""))
            )
        return get_experiment(self.experiment).result_type.from_dict(self.result)


@dataclass
class BatchResult(Serializable):
    """The merged structured output of one :func:`run_batch` sweep.

    :attr:`plan_cache` carries the sweep's aggregated scenario
    plan-cache counters (``plan_hits`` / ``plan_misses`` /
    ``network_hits`` / ``network_misses``, plus their ``disk_``
    twins when a shared cache directory is in play).  It is run
    metadata, not a dataclass field: it never enters :meth:`to_dict`
    output (cached and uncached sweeps stay byte-identical) and is
    ``None`` on instances rebuilt from JSON.  It is set per instance in
    ``__post_init__`` — a class-level default would let an assignment
    through the class leak one sweep's counters into every result.
    """

    items: List[BatchItem]

    def __post_init__(self) -> None:
        #: Aggregated plan-cache counters, set by :func:`run_batch`.
        self.plan_cache: Optional[Dict[str, int]] = None
        #: Checkpoint/run-shape metadata (directory, reused/computed/
        #: duplicate/failed counts), set by :func:`run_batch` when a
        #: checkpoint directory is in play.  Run metadata like
        #: :attr:`plan_cache`: never serialized, ``None`` after a JSON
        #: round trip.
        self.checkpoint: Optional[Dict[str, Any]] = None

    def __len__(self) -> int:
        return len(self.items)

    def failures(self) -> List[BatchItem]:
        """Every item that ended in a captured per-job error."""
        return [item for item in self.items if item.error is not None]


JobLike = Union[BatchJob, Tuple[str, Any], Dict[str, Any], str]


def _normalize_job(job: JobLike) -> BatchJob:
    if isinstance(job, BatchJob):
        return job
    if isinstance(job, str):
        return BatchJob(experiment=job)
    if isinstance(job, tuple):
        name, spec = job
        return BatchJob(experiment=name, spec=spec)
    if isinstance(job, dict):
        return BatchJob.from_dict(job)
    raise TypeError("cannot interpret %r as a batch job" % (job,))


def _seeded(spec: Any, base_seed: int, index: int, experiment: str) -> Any:
    """Give *spec* a stable per-job seed, if it has a ``seed`` field."""
    if any(f.name == "seed" for f in fields(spec)):
        seed = derive_seed(base_seed, "batch[%d]:%s" % (index, experiment))
        return replace(spec, seed=seed)
    return spec


def prepare_job(
    job: JobLike, index: int, base_seed: Optional[int] = None
) -> Tuple[BatchJob, Dict[str, Any], str]:
    """Job *index* as the sweep runs it: ``(job, encoded spec, key)``.

    The returned job carries its spec as the experiment's typed object,
    re-seeded for *index* when *base_seed* is given; the key is
    :func:`repro.jobs.store.job_key` over what a worker is handed.
    :func:`run_batch` and ``repro batch --dry-run`` both prepare their
    jobs here, so a printed key is a written key.

    Raises ``TypeError`` for a job of no known shape, ``KeyError`` for
    an unknown experiment and ``ValueError`` (:class:`SpecError`) for a
    spec that does not decode.
    """
    job = _normalize_job(job)
    spec = job.resolved_spec()
    if base_seed is not None:
        spec = _seeded(spec, base_seed, index, job.experiment)
    spec_data = encode(spec)
    key = job_key(job.experiment, spec_data)
    return BatchJob(job.experiment, spec, job.label), spec_data, key


def _batch_item(
    job: BatchJob,
    spec_data: Dict[str, Any],
    outcome: JobOutcome,
) -> BatchItem:
    """Merge one terminal outcome with its job's inputs."""
    error = outcome.error
    if error is not None and job.label is not None:
        # The worker does not know labels; enrich the record here so
        # failure reports name the job the way the sweep file does.
        error = dict(error)
        error["label"] = job.label
    return BatchItem(
        index=outcome.index,
        experiment=job.experiment,
        label=job.label,
        spec=spec_data,
        result=outcome.result if outcome.result is not None else {},
        error=error,
    )


#: ``JobOutcome.source`` -> the ``BatchResult.checkpoint`` counter it bumps.
_COUNTED_AS = {"checkpoint": "reused", "run": "computed", "duplicate": "duplicates"}


def run_batch(
    jobs: Iterable[JobLike],
    workers: Optional[int] = None,
    base_seed: Optional[int] = None,
    plan_cache_dir: Optional[str] = None,
    checkpoint_dir: Optional[str] = None,
    resume: bool = False,
    on_item: Optional[Callable[[BatchItem, int, int, str], None]] = None,
) -> BatchResult:
    """Run every job and merge the structured outputs, in input order.

    Parameters
    ----------
    jobs:
        :class:`BatchJob` objects, ``(experiment, spec)`` tuples, bare
        experiment names (run at defaults), or JSON-style dicts
        (``{"experiment": ..., "spec": {...}}``).
    workers:
        ``None`` or ``1``: one forked worker per usable CPU replays the
        jobs' controller kinds while this process plans and checkpoints
        them, and jobs that plan no scenario run here; ``N > 1``: *N*
        workers, which also run those jobs.  Output is identical either
        way.
    base_seed:
        When given, every spec with a ``seed`` field is re-seeded
        deterministically per job (see module docstring).  ``None``
        leaves the specs' own seeds untouched.
    plan_cache_dir:
        When given, a persistent :class:`~repro.scenario.cache
        .DiskPlanCache` under this directory backs the plan cache of
        this process and of every worker, for the duration of the sweep, so
        plans and generated networks are shared across processes and
        across repeated sweeps.  Purely a speedup: the structured
        output stays byte-identical with or without it.
    checkpoint_dir:
        When given, every completed job's result is checkpointed under
        this directory as it finishes (:class:`repro.jobs.JobStore`),
        already-checkpointed jobs are served from disk without
        re-running, and identical jobs within the sweep execute once.
        The merged output stays byte-identical with or without it, at
        any worker count, and across kill/resume cycles.
    resume:
        Resume bookkeeping for an interrupted sweep: collects the
        crashed run's orphaned lease records into
        ``BatchResult.checkpoint["orphans"]``.  Execution semantics are
        unchanged — resuming a cleanly finished sweep is an
        all-checkpoint replay.
    on_item:
        Streaming hook, called as ``on_item(item, done, total, source)``
        for every merged :class:`BatchItem` *in completion order*
        (``source`` is ``"run"``, ``"checkpoint"`` or ``"duplicate"``):
        checkpoint prefills first, in input order, then executed jobs
        as they finish, each fanned-out duplicate right behind its
        twin — so partial sweeps can render partial tables and JSON
        while running.

    Raises :class:`~repro.jobs.dispatch.SweepInterrupted` /
    :class:`~repro.jobs.dispatch.SweepBroken` with every delivered
    record and the sweep's ``total`` attached; a bad job (unknown
    experiment, undecodable spec) raises before anything runs.
    """
    # The pool loads here, not with the module: a process that only
    # prepares jobs (``repro batch --dry-run``) never loads it.
    from ..jobs.dispatch import JobOutcome, SweepBroken, SweepInterrupted, run_tasks

    prepared = [
        prepare_job(job, index, base_seed) for index, job in enumerate(jobs)
    ]
    total = len(prepared)
    store = JobStore(checkpoint_dir) if checkpoint_dir else None
    batch = BatchResult(items=[])
    batch.plan_cache = {}
    if store is not None:
        batch.checkpoint = {
            "reused": 0, "computed": 0, "duplicates": 0, "failed": 0,
            "directory": store.directory, "orphans": {},
        }
    #: Every terminal record so far, in delivery order: what the sweep
    #: exceptions carry.
    delivered: List[JobOutcome] = []

    def deliver(outcome: JobOutcome) -> None:
        job, spec_data, __ = prepared[outcome.index]
        item = _batch_item(job, spec_data, outcome)
        delivered.append(outcome)
        batch.items.append(item)
        if batch.checkpoint is not None:
            batch.checkpoint[_COUNTED_AS[outcome.source]] += 1
            if outcome.error is not None:
                batch.checkpoint["failed"] += 1
        for name, value in outcome.cache_delta.items():
            batch.plan_cache[name] = batch.plan_cache.get(name, 0) + value
        if on_item is not None:
            on_item(item, len(delivered), total, outcome.source)

    #: key of every queued job -> the later indexes that asked for the
    #: same bytes: they execute once and the outcome fans out.
    twins: Dict[str, List[int]] = {}

    def deliver_with_twins(outcome: JobOutcome) -> None:
        deliver(outcome)
        for index in twins.get(outcome.key, ()):
            # The work happened once: the copy carries no cache delta.
            deliver(replace(outcome, index=index, cache_delta={},
                            source="duplicate"))

    try:
        if store is not None:
            store.sweep_scratch()
            if resume:
                batch.checkpoint["orphans"] = store.orphaned_leases()
        todo: List[JobTask] = []
        for index, (job, spec_data, key) in enumerate(prepared):
            if store is not None:
                payload = store.get(key)
                if payload is not None:
                    deliver(JobOutcome(index=index, key=key,
                                       result=payload["result"], error=None,
                                       cache_delta={}, source="checkpoint"))
                    continue
                if key in twins:
                    twins[key].append(index)
                    continue
                twins[key] = []
            todo.append((index, job.experiment, spec_data, key))
        if todo:
            run_tasks(todo, deliver_with_twins, workers=workers,
                      plan_cache_dir=plan_cache_dir,
                      checkpoint_dir=store.directory if store else None)
    except SweepBroken as crash:
        raise SweepBroken(delivered, total) from crash
    except KeyboardInterrupt:
        # run_tasks' SweepInterrupted, or Ctrl-C anywhere else in the
        # sweep (the prefill, a callback): the same pause either way.
        raise SweepInterrupted(delivered, total) from None
    batch.items.sort(key=lambda item: item.index)
    return batch
