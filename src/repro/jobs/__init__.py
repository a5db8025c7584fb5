"""``repro.jobs`` — checkpoints and dispatch under resumable sweeps.

What :func:`repro.experiments.runner.run_batch` stands on to make a
sweep crash-resumable: per-job results checkpointed to disk as they
complete, keyed by a content hash of each job's identity, and
work-stealing dispatch over a worker pool with per-job failure capture.

* :mod:`repro.jobs.store`    — :class:`JobStore`: checkpoint/lease
  persistence on the shared :mod:`repro.storage` envelope discipline,
  and :func:`job_key`;
* :mod:`repro.jobs.dispatch` — ``run_tasks``, the only code that knows
  serial from pooled; the record a worker sends home
  (:class:`JobOutcome`); the sweep-level exceptions
  (:class:`SweepInterrupted`, :class:`SweepBroken`).

``run_batch`` owns the sweep itself (prepare, prefill, dedup, dispatch,
merge); the CLI exposes it as ``repro batch``, ``repro serve`` (run
against a checkpoint directory) and ``repro resume`` (finish an
interrupted one), all three merging to byte-identical output at any
worker count.
"""

from .dispatch import JobOutcome, SweepBroken, SweepInterrupted
from .store import (
    CHECKPOINT_ENV_VAR,
    JobStore,
    code_fingerprint,
    job_key,
)

__all__ = [
    "CHECKPOINT_ENV_VAR",
    "JobOutcome",
    "JobStore",
    "SweepBroken",
    "SweepInterrupted",
    "code_fingerprint",
    "job_key",
]
