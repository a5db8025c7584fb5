"""``repro.jobs`` — checkpoints and dispatch under resumable sweeps.

What :func:`repro.experiments.runner.run_batch` stands on to make a
sweep crash-resumable: per-job results checkpointed to disk as they
complete, keyed by a content hash of each job's identity, and one pool
of forked workers, whose unit is a controller kind's replay, with
per-job failure capture.

* :mod:`repro.jobs.store`    — :class:`JobStore`: checkpoint/lease
  persistence on the shared :mod:`repro.storage` envelope discipline,
  and :func:`job_key`;
* :mod:`repro.jobs.dispatch` — ``run_tasks``, the only code that knows
  where a job or one of its kinds ran; a job's terminal record
  (:class:`JobOutcome`); the sweep-level exceptions
  (:class:`SweepInterrupted`, :class:`SweepBroken`).

``run_batch`` owns the sweep itself (prepare, prefill, dedup, dispatch,
merge); the CLI exposes it as ``repro batch``, ``repro serve`` (run
against a checkpoint directory) and ``repro resume`` (finish an
interrupted one), all three merging to byte-identical output at any
worker count.
"""

from typing import Any

from .._lazy import bind_all

__all__ = [
    "CHECKPOINT_ENV_VAR",
    "JobOutcome",
    "JobStore",
    "SweepBroken",
    "SweepInterrupted",
    "code_fingerprint",
    "job_key",
]


def __getattr__(name: str) -> Any:
    """Load the submodules and bind ``__all__`` on first use (PEP 562)."""
    return bind_all(globals(), ("dispatch", "store"), name)
