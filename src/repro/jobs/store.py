"""Durable per-job checkpoints for experiment sweeps.

A :class:`JobStore` is the persistence layer under resumable sweeps
(:func:`repro.experiments.runner.run_batch` with a ``checkpoint_dir``):
every completed job's serialized result is checkpointed to disk *as it
finishes*, keyed by a content hash of the job's identity — the
experiment name plus the fully encoded (and, under ``base_seed``,
per-index re-seeded) spec — so

* a sweep killed at any point loses only its in-flight jobs: completed
  ones are re-served from disk on resume, byte-for-byte;
* re-submitting a sweep is idempotent — jobs whose key is already
  checkpointed are never run again;
* two identical jobs inside one sweep (or across concurrent sweeps
  sharing a directory) resolve to one execution.

The disk discipline is the one the scenario plan cache uses
(:mod:`repro.scenario.cache`): one :class:`repro.storage.EntryDir` per
kind of file, so envelopes with a format version and a digest of their
payload, atomic temp-file-and-rename publication so partially written
checkpoints are never observed, and defensive reads where anything
corrupt, edited or foreign is a miss, never an error.  A resumed sweep
is only as credible as what it reads back: a checkpoint whose payload
changed under its header is re-run, not merged.

Checkpoints written by *different simulator code* must not satisfy a
resume — the resumed half of a sweep would silently disagree with the
checkpointed half.  Every result entry is therefore stamped with
:func:`repro.storage.source_fingerprint`, a content hash over the
entire ``repro`` package source; entries from another commit are
misses and their jobs re-run.

Alongside the results, the store keeps per-job **lease records**: a
worker writes a lease when it starts a job and removes it on
completion, so a crashed sweep leaves behind exactly the leases of its
in-flight jobs.  ``repro resume`` reports and re-leases these orphans;
they carry pid/host/time for post-mortems but are never load-bearing —
an un-checkpointed job is re-run whether or not its lease survived.
"""

from __future__ import annotations

import os
import socket
import time
from typing import Any, Dict, List, Optional

from ..storage import FORMAT_VERSION, EntryDir, content_hash, source_fingerprint

__all__ = [
    "CHECKPOINT_ENV_VAR",
    "JobStore",
    "code_fingerprint",
    "job_key",
]

#: Environment variable naming the default sweep-checkpoint directory.
CHECKPOINT_ENV_VAR = "REPRO_CHECKPOINT"


def job_key(experiment: str, spec_data: Dict[str, Any]) -> str:
    """The checkpoint key of one job: a content hash of its identity.

    *spec_data* is the job's fully encoded spec — after
    ``run_batch``-style per-index re-seeding, so when a ``base_seed``
    is in play the base-seed index enters the key through the derived
    ``seed`` field.  How the sweep runs (worker count, checkpoint and
    plan-cache directories) is not an input: it never changes what a
    job computes, so a sweep checkpointed one way resumes correctly
    under any other.

    The hash is canonical-JSON based (:func:`repro.storage
    .content_hash`), so it survives encode/decode round trips and field
    reordering — the stability the spec-hash tests pin.
    """
    return content_hash({"experiment": experiment, "spec": spec_data})


#: Set to ``None`` to make the next :func:`code_fingerprint` re-walk the
#: package (the perf ledger times a cold walk this way).
_code_fingerprint_memo: Optional[str] = None


def code_fingerprint() -> str:
    """The stamp on every checkpoint: :func:`repro.storage.source_fingerprint`."""
    global _code_fingerprint_memo
    if _code_fingerprint_memo is None:
        _code_fingerprint_memo = source_fingerprint(refresh=True)
    return _code_fingerprint_memo


class JobStore:
    """Checkpointed job results (and leases) under one directory.

    Layout::

        <directory>/results/<job-key>.json   # completed-job envelopes
        <directory>/leases/<job-key>.json    # in-flight lease records
        <directory>/partial.json             # streaming sweep snapshot

    Each is an entry of one :class:`repro.storage.EntryDir`.  A result
    entry's payload is ``{"experiment", "spec", "result"}``, stamped
    with the source fingerprint; reads reject anything stale,
    misplaced, edited or written by different simulator code.  Leases
    and the snapshot are unstamped, so ``repro resume`` reports them
    across commits.  All writes are atomic, so concurrent workers —
    including workers of *separate* sweeps sharing the directory —
    cannot corrupt each other: racers on one key write the same
    deterministic bytes and the last rename wins.
    """

    def __init__(self, directory: str) -> None:
        self.directory = os.path.abspath(directory)
        self._results = EntryDir(os.path.join(self.directory, "results"), "job")
        self._leases = EntryDir(
            os.path.join(self.directory, "leases"), "lease", stamped=False
        )
        #: ``partial.json``: the one entry, keyed ``partial``, of the top.
        self._partial = EntryDir(self.directory, "partial", stamped=False)

    # --- checkpoints ------------------------------------------------------

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        """The checkpointed payload for *key*, or ``None``.

        The payload is ``{"experiment", "spec", "result"}`` exactly as
        :meth:`put` stored it.  The header names the key, so a file
        copied onto another key's name is a miss; the digest covers the
        payload, so one edited in place is a miss too.
        """
        return self._results.get(key)

    def put(
        self,
        key: str,
        experiment: str,
        spec_data: Dict[str, Any],
        result_data: Dict[str, Any],
    ) -> bool:
        """Checkpoint one completed job atomically; ``True`` on success.

        Failures (unwritable directory) degrade to ``False`` — the
        sweep keeps running, it just loses durability for this job.
        """
        payload = {"experiment": experiment, "spec": spec_data, "result": result_data}
        return self._results.put(key, payload) is not None

    def keys(self) -> List[str]:
        """Every checkpointed job key currently on disk (sorted)."""
        return self._results.keys()

    # --- leases -----------------------------------------------------------

    def lease(self, key: str, experiment: str, index: int) -> None:
        """Record that a worker is now running the job *key*.

        Purely observability for crash forensics and ``repro resume``
        reporting: leases are plain overwriting records, not mutual
        exclusion — two sweeps racing on one key both run the (
        deterministic) job and publish identical checkpoints.
        """
        self._leases.put(key, {
            "experiment": experiment,
            "index": index,
            "pid": os.getpid(),
            "host": socket.gethostname(),
            "time": time.time(),
        })

    def release(self, key: str) -> None:
        """Drop the lease for *key* (the job completed or failed cleanly)."""
        self._leases.discard(key)

    def orphaned_leases(self) -> Dict[str, Dict[str, Any]]:
        """Leases whose job never checkpointed: the crash's in-flight set.

        Keyed by job key; each record carries the pid/host/time the
        original worker stamped.  ``repro resume`` reports these and
        re-leases them (the re-run worker overwrites the record).
        """
        checkpointed = set(self.keys())
        orphans: Dict[str, Dict[str, Any]] = {}
        for key in self._leases.keys():
            if key in checkpointed:
                # The worker died between publishing the result and
                # unlinking its lease: the job is done, not orphaned.
                self.release(key)
                continue
            record = self._leases.get(key)
            if record is not None:
                orphans[key] = record
        return orphans

    # --- streaming snapshot ----------------------------------------------

    def write_partial(self, payload: Dict[str, Any]) -> None:
        """Atomically publish the streaming sweep snapshot.

        *payload* is whatever the aggregation layer considers the
        partial view (done/total counts plus the completed items);
        readers polling ``partial.json`` always see a complete
        document.
        """
        self._partial.put("partial", payload)

    def read_partial(self) -> Optional[Dict[str, Any]]:
        """The last streaming snapshot, or ``None``."""
        return self._partial.get("partial")

    # --- bookkeeping ------------------------------------------------------

    def info(self) -> Dict[str, Any]:
        """Directory summary (``repro serve``/``resume`` reporting)."""
        return {
            "directory": self.directory,
            "format_version": FORMAT_VERSION,
            "checkpoints": len(self.keys()),
            "orphaned_leases": len(self.orphaned_leases()),
        }

    def sweep_scratch(self) -> None:
        """Janitor pass: drop temp files orphaned by killed writers.

        Covers the top directory too: ``partial.json``'s temp file
        lands there, beside the snapshot it is renamed onto.
        """
        for entries in (self._results, self._leases, self._partial):
            entries.sweep((".tmp",), older_than=60.0)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<JobStore dir=%r checkpoints=%d>" % (
            self.directory, len(self.keys())
        )
