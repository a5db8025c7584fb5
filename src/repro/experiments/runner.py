"""Batch sweeps over registered experiments.

:func:`run_batch` executes a list of jobs — each naming a registered
experiment plus a spec — and merges the structured outputs into one
serializable :class:`BatchResult`.  It is a thin client of the
resumable experiment service (:mod:`repro.jobs`): this module owns job
normalization, per-job seeding and the input-order merge; keying,
checkpoint reuse, work-stealing dispatch and streaming live in the
service.  Serial and pooled execution take the same encode → run →
encode path job by job, so given the simulator's determinism a
``workers=2`` sweep produces *byte-identical* structured output to a
serial one — and, with a ``checkpoint_dir``, so does a sweep killed at
any point and resumed.

Failure is captured per job: an exception inside an experiment becomes
a structured :attr:`BatchItem.error` (type, message, experiment, spec
hash, traceback) while every other job completes and checkpoints.
Ctrl-C and worker death surface as
:class:`~repro.jobs.dispatch.SweepInterrupted` /
:class:`~repro.jobs.dispatch.SweepBroken`; with a checkpoint directory
both mean "pause", not "loss".

Seeding is deterministic: with ``base_seed`` given, every job whose
spec carries a ``seed`` field gets a stable per-job seed derived via
:func:`repro.sim.rand.derive_seed` from the base seed, the job index
and the experiment name — independent of worker count and scheduling.

Scenario-backed jobs warm the process-local planned-scenario cache
(:data:`repro.scenario.DEFAULT_CACHE`); each job's hit/miss delta is
carried back from the worker and summed into
:attr:`BatchResult.plan_cache`, so batch reports show what the cache
saved.  With ``plan_cache_dir`` set, every worker's cache additionally
shares one on-disk tier (:class:`repro.scenario.cache.DiskPlanCache`),
so a network appearing in many workers' jobs is planned exactly once
across all processes and plans survive into later sweeps.  The
counters are observability only — they never enter the serialized
output, which stays byte-identical across worker counts and cache
states.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Tuple,
    Union,
)

from ..jobs.service import execute_sweep
from ..sim.rand import derive_seed
from .api import Serializable, SpecError, encode
from .registry import get_experiment

__all__ = ["BatchJob", "BatchItem", "BatchResult", "run_batch"]


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

    def spec_object(self) -> Any:
        """The spec decoded back into its experiment's spec type."""
        return get_experiment(self.experiment).spec_type.from_dict(self.spec)

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

    def by_experiment(self, name: str) -> List[BatchItem]:
        """All items produced by the experiment called *name*."""
        return [item for item in self.items if item.experiment == name]

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


def _batch_item(
    job: BatchJob,
    spec_data: Dict[str, Any],
    outcome: Any,
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
        ``None`` or ``1`` runs serially in-process; ``N > 1`` fans jobs
        out over a work-stealing process pool of *N* workers.  Output
        is identical either way.
    base_seed:
        When given, every spec with a ``seed`` field is re-seeded
        deterministically per job (see module docstring).  ``None``
        leaves the specs' own seeds untouched.
    plan_cache_dir:
        When given, a persistent :class:`~repro.scenario.cache
        .DiskPlanCache` under this directory backs every worker's plan
        cache (and the serial path, for the duration of the sweep), so
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
        (``source`` is ``"run"``, ``"checkpoint"`` or ``"duplicate"``),
        so partial sweeps can render partial tables and JSON while
        running.
    """
    normalized = [_normalize_job(job) for job in jobs]
    specs = [job.resolved_spec() for job in normalized]
    if base_seed is not None:
        specs = [
            _seeded(spec, base_seed, index, job.experiment)
            for index, (job, spec) in enumerate(zip(normalized, specs))
        ]
    encoded = [encode(spec) for spec in specs]
    payloads = [
        (job.experiment, spec_data)
        for job, spec_data in zip(normalized, encoded)
    ]

    def handle_outcome(outcome: Any, done: int, total: int) -> None:
        if on_item is not None:
            item = _batch_item(
                normalized[outcome.index], encoded[outcome.index], outcome
            )
            on_item(item, done, total, outcome.source)

    report = execute_sweep(
        payloads,
        workers=workers,
        plan_cache_dir=plan_cache_dir,
        checkpoint_dir=checkpoint_dir,
        resume=resume,
        on_outcome=handle_outcome if on_item is not None else None,
    )

    items = [
        _batch_item(normalized[outcome.index], encoded[outcome.index], outcome)
        for outcome in report.outcomes
    ]
    batch = BatchResult(items=items)
    cache_totals: Dict[str, int] = {}
    for outcome in report.outcomes:
        for key, value in outcome.cache_delta.items():
            cache_totals[key] = cache_totals.get(key, 0) + value
    batch.plan_cache = cache_totals
    if report.checkpoint_dir is not None:
        batch.checkpoint = dict(report.counts())
        batch.checkpoint["directory"] = report.checkpoint_dir
        batch.checkpoint["orphans"] = report.orphans
    return batch
