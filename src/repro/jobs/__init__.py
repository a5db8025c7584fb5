"""``repro.jobs`` — the crash-resumable experiment service.

The durable job-queue and checkpoint layer under batch sweeps: per-job
results checkpointed to disk as they complete, work-stealing dispatch
over a persistent worker pool with per-job failure capture, streaming
aggregation for partial views, and idempotent resume keyed by content
hashes of each job's identity.

Layering (lowest first):

* :mod:`repro.jobs.store`    — :class:`JobStore`: checkpoint/lease
  persistence on the shared :mod:`repro.storage` envelope discipline;
* :mod:`repro.jobs.dispatch` — the work-stealing executor and the
  sweep-level exceptions (:class:`SweepInterrupted`,
  :class:`SweepBroken`);
* :mod:`repro.jobs.service`  — :func:`execute_sweep`: keying, prefill,
  dedup, dispatch and streaming, which
  :func:`repro.experiments.runner.run_batch` is a thin client of.

The CLI exposes the service as ``repro serve`` (run a sweep against a
checkpoint directory) and ``repro resume`` (finish an interrupted
one); both merge to output byte-identical to an uninterrupted
``repro batch`` at any worker count.
"""

from .dispatch import JobOutcome, SweepBroken, SweepInterrupted
from .service import SweepReport, execute_sweep
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
    "SweepReport",
    "code_fingerprint",
    "execute_sweep",
    "job_key",
]
