"""The planned-scenario cache.

Planning a scenario — generating the network, nominating the
bottleneck, selecting paths, drawing the workload mix and the arrival
schedule — is deterministic given the spec, so it only ever needs to
happen once per distinct spec.  :class:`PlanCache` memoizes it at two
levels:

* the **scenario plan** level, keyed by the hash of the *entire* spec
  (any field change is a different scenario and misses);
* the **network plan** level, keyed by the topology source's
  :meth:`~repro.scenario.parts.TopologySource.network_fingerprint`
  (typically just the network config and the seed), so a sweep whose
  jobs differ only in workload, churn or transport still skips the
  repeated ``generate_network`` and its consensus draws.

Because network draws live on substreams independent of the path and
arrival substreams (:class:`~repro.sim.rand.RandomStreams` decouples
streams by name), a plan assembled from a *cached* network is
byte-identical to one planned cold — the cache is a pure speedup, never
a behaviour change, and the tests pin that.

The in-memory tiers are per-process.  An optional **disk tier**
(:class:`DiskPlanCache`) persists both plan levels across processes:
entries are ``repro.serialize`` JSON files keyed by the same hashes,
written atomically (temp file + rename), stamped with a format version
that invalidates stale layouts, capped in total size with
least-recently-used eviction, and read back defensively — any corrupt,
truncated or unreadable entry is a miss, never an error.  Batch workers
pointed at one cache directory (``repro batch --plan-cache DIR`` or
``REPRO_PLAN_CACHE``) therefore plan each distinct network once
*across all processes*: a cross-process lock file makes concurrent cold
planners single-flight, and racers that lose the lock wait briefly for
the winner's entry before falling back to planning themselves.

:func:`repro.experiments.runner.run_batch` aggregates every worker's
hit/miss counters (memory and disk) into the batch report so sweeps
show what the cache saved.
"""

from __future__ import annotations

import hashlib
import os
import time
from collections import OrderedDict
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, Optional, Tuple

from ..serialize import decode, encode
from ..storage import OwnerLocks, content_hash, read_envelope, write_envelope

__all__ = [
    "DEFAULT_CACHE",
    "DiskPlanCache",
    "PLAN_CACHE_ENV_VAR",
    "PlanCache",
    "attached_disk_tier",
    "planner_fingerprint",
    "resolve_cache_dir",
    "spec_hash",
]

#: Environment variable naming the shared on-disk plan-cache directory.
PLAN_CACHE_ENV_VAR = "REPRO_PLAN_CACHE"


def resolve_cache_dir(explicit: Optional[str] = None) -> Optional[str]:
    """The plan-cache directory to use: *explicit*, else the environment.

    Returns ``None`` when neither a directory argument nor a non-empty
    :data:`PLAN_CACHE_ENV_VAR` is present (disk caching stays off).
    """
    if explicit:
        return explicit
    value = os.environ.get(PLAN_CACHE_ENV_VAR, "").strip()
    return value or None


#: Modules whose code shapes a plan: the planning flow itself, every
#: part implementation, the serialization layer the entries ride on,
#: and the RNG/path-selection machinery the draws come from.  A change
#: to any of them may change what "cold planning" produces, so their
#: combined source hash is stamped into every disk entry — entries
#: written by different planner code are misses, never stale answers.
_PLANNER_MODULES = (
    "repro.scenario.spec",
    "repro.scenario.netgen",
    "repro.scenario.topology",
    "repro.scenario.churn",
    "repro.scenario.workloads",
    "repro.scenario.parts",
    "repro.serialize",
    "repro.sim.rand",
    "repro.tor.path_selection",
    "repro.tor.directory",
    "repro.units",
)

_planner_fingerprint_memo: Optional[str] = None


def planner_fingerprint() -> str:
    """Content hash of the planner's own code, computed once per process.

    Guards the disk cache against a hazard the format version cannot
    see: a planning-behavior change (a new draw, a different
    tie-break) that leaves the entry *layout* untouched.  Directories
    persisted across versions — ``actions/cache`` in CI, a long-lived
    ``REPRO_PLAN_CACHE`` — would otherwise serve the old code's plans
    as if they were cold ones.  Unreadable sources (unusual
    deployments) fall back to hashing the module name, degrading
    toward fewer cross-version hits, never toward stale answers.
    """
    global _planner_fingerprint_memo
    if _planner_fingerprint_memo is None:
        import importlib

        digest = hashlib.sha256()
        for name in _PLANNER_MODULES:
            digest.update(name.encode("utf-8"))
            try:
                module = importlib.import_module(name)
                path = getattr(module, "__file__", None)
                if path:
                    with open(path, "rb") as handle:
                        digest.update(handle.read())
            except (ImportError, OSError):
                pass
        _planner_fingerprint_memo = digest.hexdigest()
    return _planner_fingerprint_memo


def spec_hash(payload: Any) -> str:
    """Stable content hash of any :func:`~repro.serialize.encode`-able value.

    The historical name for :func:`repro.storage.content_hash`, kept
    because every cache key and checkpoint key in the repository is
    phrased in terms of it.
    """
    return content_hash(payload)


class DiskPlanCache:
    """The persistent, cross-process tier of the plan cache.

    Lays out one JSON file per entry under *directory*::

        <directory>/plans/<spec-hash>.json
        <directory>/networks/<network-fingerprint>.json

    Every file wraps its payload in an envelope carrying
    :data:`FORMAT_VERSION` (bumping it — a serialization or layout
    change — silently invalidates every older entry) plus the
    :func:`planner_fingerprint` of the code that wrote it, so entries
    published by a different version of the planner are misses even
    when the layout still matches (directories outlive commits:
    ``actions/cache`` in CI, a long-lived ``REPRO_PLAN_CACHE``).
    Writes go through a per-process temp file renamed into place, so
    readers only ever see complete entries — two processes racing on
    one key both write the same deterministic bytes and the last rename
    wins.  Reads never raise: anything unreadable or undecodable is a
    miss and cold planning takes over.

    The total size of all entries is capped at *max_bytes*; eviction is
    least-recently-used (entry mtimes are refreshed on every hit).
    """

    #: Bump when the entry layout or plan serialization changes shape.
    FORMAT_VERSION = 1

    _KINDS = ("plan", "network")

    def __init__(
        self,
        directory: str,
        max_bytes: int = 256 * 1024 * 1024,
        lock_timeout: float = 10.0,
    ) -> None:
        if max_bytes < 1:
            raise ValueError("max_bytes must be >= 1, got %r" % max_bytes)
        if lock_timeout <= 0:
            raise ValueError(
                "lock_timeout must be positive, got %r" % lock_timeout
            )
        self.directory = os.path.abspath(directory)
        self.max_bytes = max_bytes
        self.lock_timeout = lock_timeout
        self.plan_hits = 0
        self.plan_misses = 0
        self.network_hits = 0
        self.network_misses = 0
        #: Running size estimate; ``None`` forces a rescan on next put.
        #: Writes by other processes are invisible until then, so the
        #: cap is enforced approximately — eviction happens on the next
        #: put whose estimate crosses it, not at the exact byte.
        self._approx_total: Optional[int] = None
        #: The lock files this instance currently holds (owner-token
        #: discipline lives in :class:`repro.storage.OwnerLocks`).
        self._locks = OwnerLocks(lock_timeout)

    # --- paths ------------------------------------------------------------

    def _kind_dir(self, kind: str) -> str:
        return os.path.join(self.directory, kind + "s")

    def _entry_path(self, kind: str, key: str) -> str:
        return os.path.join(self._kind_dir(kind), key + ".json")

    def _lock_path(self, kind: str, key: str) -> str:
        return os.path.join(self._kind_dir(kind), key + ".lock")

    # --- lookup -----------------------------------------------------------

    def get_plan(self, key: str) -> Optional[Any]:
        """The stored :class:`~repro.scenario.spec.ScenarioPlan`, or ``None``."""
        return self._get("plan", key)

    def get_network(self, key: str) -> Optional[Any]:
        """The stored :class:`~repro.scenario.netgen.NetworkPlan`, or ``None``."""
        return self._get("network", key)

    def _get(self, kind: str, key: str) -> Optional[Any]:
        value = self._load(kind, key)
        if value is None:
            self._count(kind, hit=False)
            return None
        self._count(kind, hit=True)
        return value

    def _load(self, kind: str, key: str) -> Optional[Any]:
        """Read and decode one entry; ``None`` on any defect (no counters)."""
        path = self._entry_path(kind, key)
        data = read_envelope(path, expect={
            "format": self.FORMAT_VERSION,
            "kind": kind,
            # A renamed/copied entry (partial rsync, manual restore)
            # would otherwise be served under the wrong key — for
            # network entries this is the only payload-to-key check.
            "key": key,
            # Entries written by different planner code are stale even
            # when the layout matches (see planner_fingerprint).
            "planner": planner_fingerprint(),
        })
        if data is None:
            return None
        value = self._decode(kind, key, data.get("payload"))
        if value is None:
            return None
        try:
            os.utime(path, None)  # refresh LRU recency
        except OSError:
            pass
        return value

    def _decode(self, kind: str, key: str, payload: Any) -> Optional[Any]:
        if payload is None:
            return None
        # Corrupt or stale entries must degrade to a cold plan, never
        # crash a run — so decoding failures of any shape are a miss.
        try:
            if kind == "plan":
                from .spec import ScenarioPlan

                plan = decode(ScenarioPlan, payload)
                # The stored echo can survive an edit of the scenario
                # it names; only the scenario's own hash is proof.
                if plan.spec_hash != key or spec_hash(plan.scenario) != key:
                    return None
                return plan
            from .netgen import NetworkPlan

            return decode(NetworkPlan, payload)
        except Exception:
            return None

    def _count(self, kind: str, hit: bool) -> None:
        name = "%s_%s" % (kind, "hits" if hit else "misses")
        setattr(self, name, getattr(self, name) + 1)

    # --- storage ----------------------------------------------------------

    def put_plan(self, key: str, plan: Any) -> None:
        self._put("plan", key, plan)

    def put_network(self, key: str, network: Any) -> None:
        self._put("network", key, network)

    def _put(self, kind: str, key: str, value: Any) -> None:
        try:
            payload = encode(value)
        except TypeError:
            return  # unencodable value: the in-memory tiers still work
        written = write_envelope(self._entry_path(kind, key), {
            "format": self.FORMAT_VERSION,
            "kind": kind,
            "key": key,
            "planner": planner_fingerprint(),
            "payload": payload,
        })
        if written is None:
            # Unwritable directory: the disk tier degrades to a no-op,
            # the in-memory tiers still work.
            return
        if self._approx_total is not None:
            self._approx_total += written
        if self._approx_total is None or self._approx_total > self.max_bytes:
            # Full directory scans are O(entries); only pay for one
            # when the running estimate says the cap may be crossed
            # (or on the first put, to seed the estimate).
            self._evict()

    def _scan(self) -> Tuple[list, int]:
        """``([(mtime, size, path), ...], total_bytes)`` of every entry.

        Doubles as the janitor: temp files orphaned by a killed writer
        and lock files abandoned by a crashed planner are outside the
        ``*.json`` accounting, so without a sweep they would accumulate
        forever in a shared directory (and be re-persisted by CI's
        ``actions/cache``).  Anything of either shape untouched for
        longer than the lock timeout is dead by protocol — a live
        writer renames within milliseconds, a live lock is honoured for
        at most ``lock_timeout`` — and is removed here.
        """
        entries = []
        total = 0
        stale_after = max(self.lock_timeout, 60.0)
        now = time.time()  # repro: allow[DET002] host-facing mtime staleness, not simulated time
        for kind in self._KINDS:
            kind_dir = self._kind_dir(kind)
            try:
                names = os.listdir(kind_dir)
            except OSError:
                continue
            for name in names:
                path = os.path.join(kind_dir, name)
                try:
                    stat = os.stat(path)
                except OSError:
                    continue
                if not name.endswith(".json"):
                    if (
                        name.endswith((".tmp", ".lock"))
                        and now - stat.st_mtime > stale_after
                    ):
                        try:
                            os.unlink(path)
                        except OSError:
                            pass
                    continue
                entries.append((stat.st_mtime, stat.st_size, path))
                total += stat.st_size
        return entries, total

    def _evict(self) -> None:
        """Drop least-recently-used entries until under the size cap."""
        entries, total = self._scan()
        if total > self.max_bytes:
            entries.sort()
            for __, size, path in entries:
                if total <= self.max_bytes:
                    break
                try:
                    os.unlink(path)
                except OSError:
                    continue
                total -= size
        self._approx_total = total

    # --- cross-process single-flight --------------------------------------

    def acquire(self, kind: str, key: str) -> bool:
        """Try to become the (single) cold planner for *key*.

        ``True`` means "go ahead and plan" — either the lock file was
        created, or locking is impossible here (unwritable directory),
        in which case planning redundantly is the safe fallback.
        ``False`` means another live process holds the lock; the caller
        should :meth:`wait` for that process's entry.  Lock files older
        than ``lock_timeout`` are considered abandoned (their writer
        would have finished or its waiters given up) and are broken —
        so a planning pass slower than ``lock_timeout`` degrades to
        redundant (still deterministic, still correct) planning, never
        to a wrong answer.  The owner-token discipline — release never
        unlinks a lock broken and re-taken by someone else — lives in
        :class:`repro.storage.OwnerLocks`.
        """
        return self._locks.acquire(self._lock_path(kind, key))

    def release(self, kind: str, key: str) -> None:
        """Unlink the lock for *key* — only if this instance still owns it.

        A racer that judged our lock stale may have broken it and taken
        its own; blindly unlinking would free that *live* lock and
        cascade into yet more planners.  The token check keeps release
        strictly owner-local (best-effort: the read/unlink pair is not
        atomic, but losing that tiny race only costs redundant
        planning).
        """
        self._locks.release(self._lock_path(kind, key))

    def recheck(self, kind: str, key: str) -> Optional[Any]:
        """Re-read an entry after winning the lock (double-checked locking).

        A racer that acquires the lock *after* the previous holder
        released it would otherwise re-plan an entry that just landed.
        Counts a hit when the entry is there; absence counts nothing —
        the initial lookup already recorded this consult's miss.
        """
        value = self._load(kind, key)
        if value is not None:
            self._count(kind, hit=True)
        return value

    def wait(self, kind: str, key: str) -> Optional[Any]:
        """Wait for a racing planner's entry; ``None`` if it never lands.

        Polls until the entry decodes, the lock disappears without an
        entry (the writer failed), or ``lock_timeout`` elapses.  Counts
        one disk hit on success, one miss on giving up.
        """
        lock = self._lock_path(kind, key)
        deadline = time.monotonic() + self.lock_timeout  # repro: allow[DET002] host lock timeout, not simulated time
        while True:
            value = self._load(kind, key)
            if value is not None:
                self._count(kind, hit=True)
                return value
            if time.monotonic() >= deadline:  # repro: allow[DET002] host lock timeout, not simulated time
                break
            if not os.path.exists(lock):
                # Writer released (or died) without publishing: one
                # last read above already failed, so plan ourselves.
                break
            time.sleep(0.01)
        self._count(kind, hit=False)
        return None

    # --- bookkeeping ------------------------------------------------------

    def stats(self) -> Dict[str, int]:
        """Disk-tier hit/miss counters (namespaced for batch reports)."""
        return {
            "disk_plan_hits": self.plan_hits,
            "disk_plan_misses": self.plan_misses,
            "disk_network_hits": self.network_hits,
            "disk_network_misses": self.network_misses,
        }

    def reset_counters(self) -> None:
        self.plan_hits = 0
        self.plan_misses = 0
        self.network_hits = 0
        self.network_misses = 0

    def entry_counts(self) -> Dict[str, int]:
        """``{"plan": n, "network": m}`` entries currently on disk."""
        counts = {}
        for kind in self._KINDS:
            try:
                names = os.listdir(self._kind_dir(kind))
            except OSError:
                names = []
            counts[kind] = sum(1 for name in names if name.endswith(".json"))
        return counts

    def total_bytes(self) -> int:
        return self._scan()[1]

    def info(self) -> Dict[str, Any]:
        """Directory layout summary (``repro cache info``)."""
        counts = self.entry_counts()
        return {
            "directory": self.directory,
            "format_version": self.FORMAT_VERSION,
            "plan_entries": counts["plan"],
            "network_entries": counts["network"],
            "total_bytes": self.total_bytes(),
            "max_bytes": self.max_bytes,
        }

    def clear(self) -> int:
        """Delete every entry (and stray lock/temp file); entries removed."""
        removed = 0
        for kind in self._KINDS:
            kind_dir = self._kind_dir(kind)
            try:
                names = os.listdir(kind_dir)
            except OSError:
                continue
            for name in names:
                path = os.path.join(kind_dir, name)
                try:
                    os.unlink(path)
                except OSError:
                    continue
                if name.endswith(".json"):
                    removed += 1
        self.reset_counters()
        self._approx_total = 0
        return removed

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<DiskPlanCache dir=%r plan_hits=%d plan_misses=%d " \
            "network_hits=%d network_misses=%d>" % (
                self.directory,
                self.plan_hits,
                self.plan_misses,
                self.network_hits,
                self.network_misses,
            )


class PlanCache:
    """Two-level LRU memo for scenario plans and network plans.

    With a :class:`DiskPlanCache` attached (the *disk* argument, or
    assigning :attr:`disk` later), every memory miss falls through to
    the persistent tier, and cold results are published to it — so
    separate processes pointed at one directory share plans.  The
    top-level ``plan_hits``/``plan_misses`` (and network twins) count
    overall outcomes: a hit means *served from any tier*, a miss means
    *planned cold*; the disk tier's own counters say how often disk was
    consulted and answered.
    """

    def __init__(
        self, max_entries: int = 64, disk: Optional[DiskPlanCache] = None
    ) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1, got %r" % max_entries)
        self.max_entries = max_entries
        self.disk = disk
        self._plans: "OrderedDict[str, Any]" = OrderedDict()
        self._networks: "OrderedDict[str, Any]" = OrderedDict()
        self.plan_hits = 0
        self.plan_misses = 0
        self.network_hits = 0
        self.network_misses = 0

    # --- scenario plans -------------------------------------------------

    def get_plan(self, key: str) -> Optional[Any]:
        plan = self._plans.get(key)
        if plan is not None:
            self._plans.move_to_end(key)
            self.plan_hits += 1
            return plan
        if self.disk is not None:
            plan = self.disk.get_plan(key)
            if plan is not None:
                self._store_plan(key, plan)
                self.plan_hits += 1
                return plan
        self.plan_misses += 1
        return None

    def put_plan(self, key: str, plan: Any) -> None:
        self._store_plan(key, plan)
        if self.disk is not None:
            self.disk.put_plan(key, plan)

    def _store_plan(self, key: str, plan: Any) -> None:
        self._plans[key] = plan
        self._plans.move_to_end(key)
        while len(self._plans) > self.max_entries:
            self._plans.popitem(last=False)

    def get_or_compute_plan(
        self, key: str, compute: Callable[[], Any]
    ) -> Any:
        """The plan for *key*, from any tier, else computed single-flight."""
        plan = self.get_plan(key)
        if plan is not None:
            return plan
        return self._compute_single_flight(
            "plan", key, compute, self.put_plan, self._admit_plan
        )

    def _admit_plan(self, key: str, plan: Any) -> None:
        """Adopt a racer's disk entry: store it, turn the miss into a hit."""
        self._store_plan(key, plan)
        self.plan_misses -= 1
        self.plan_hits += 1

    # --- network plans ----------------------------------------------------

    def get_network(self, key: str) -> Optional[Any]:
        network = self._networks.get(key)
        if network is not None:
            self._networks.move_to_end(key)
            self.network_hits += 1
            return network
        if self.disk is not None:
            network = self.disk.get_network(key)
            if network is not None:
                self._store_network(key, network)
                self.network_hits += 1
                return network
        self.network_misses += 1
        return None

    def put_network(self, key: str, network: Any) -> None:
        self._store_network(key, network)
        if self.disk is not None:
            self.disk.put_network(key, network)

    def _store_network(self, key: str, network: Any) -> None:
        self._networks[key] = network
        self._networks.move_to_end(key)
        while len(self._networks) > self.max_entries:
            self._networks.popitem(last=False)

    def get_or_compute_network(
        self, key: str, compute: Callable[[], Any]
    ) -> Any:
        """The network for *key*, from any tier, else computed single-flight."""
        network = self.get_network(key)
        if network is not None:
            return network
        return self._compute_single_flight(
            "network", key, compute, self.put_network, self._admit_network
        )

    def _admit_network(self, key: str, network: Any) -> None:
        self._store_network(key, network)
        self.network_misses -= 1
        self.network_hits += 1

    # --- single-flight ----------------------------------------------------

    def _compute_single_flight(
        self,
        kind: str,
        key: str,
        compute: Callable[[], Any],
        put: Callable[[str, Any], None],
        admit: Callable[[str, Any], None],
    ) -> Any:
        """Compute a cold entry, planning at most once across processes.

        Without a disk tier there is nobody to coordinate with: compute
        and store.  With one, take the per-key lock file; losers wait
        for the winner's entry and only plan themselves if it never
        lands (the winner crashed, or the directory is unusable) —
        planning is deterministic, so the redundant fallback is merely
        wasted work, never a different answer.
        """
        disk = self.disk
        if disk is None:
            value = compute()
            put(key, value)
            return value
        if disk.acquire(kind, key):
            try:
                # The lock may have been handed over: the previous
                # holder could have published between our lookup miss
                # and our acquire.  Re-check before planning.
                value = disk.recheck(kind, key)
                if value is not None:
                    admit(key, value)
                    return value
                value = compute()
                put(key, value)
                return value
            finally:
                disk.release(kind, key)
        value = disk.wait(kind, key)
        if value is None:
            value = compute()
            put(key, value)
            return value
        admit(key, value)
        return value

    # --- bookkeeping ------------------------------------------------------

    def stats(self) -> Dict[str, int]:
        """Hit/miss counters as a plain dict (for batch reports).

        Always carries the disk-tier keys (zeros when no disk tier is
        attached) so counter deltas aggregate uniformly across workers
        with and without a shared cache directory.
        """
        counters = {
            "plan_hits": self.plan_hits,
            "plan_misses": self.plan_misses,
            "network_hits": self.network_hits,
            "network_misses": self.network_misses,
            "disk_plan_hits": 0,
            "disk_plan_misses": 0,
            "disk_network_hits": 0,
            "disk_network_misses": 0,
        }
        if self.disk is not None:
            counters.update(self.disk.stats())
        return counters

    def clear(self) -> None:
        """Drop every in-memory entry and zero all counters.

        On-disk entries survive (they are shared with other processes);
        delete them explicitly via :meth:`DiskPlanCache.clear` or
        ``repro cache clear``.
        """
        self._plans.clear()
        self._networks.clear()
        self.plan_hits = 0
        self.plan_misses = 0
        self.network_hits = 0
        self.network_misses = 0
        if self.disk is not None:
            self.disk.reset_counters()

    def __len__(self) -> int:
        return len(self._plans) + len(self._networks)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            "<PlanCache plans=%d networks=%d "
            "plan_hits=%d plan_misses=%d "
            "network_hits=%d network_misses=%d%s>"
            % (
                len(self._plans),
                len(self._networks),
                self.plan_hits,
                self.plan_misses,
                self.network_hits,
                self.network_misses,
                " disk=%r" % self.disk.directory if self.disk else "",
            )
        )


#: The process-wide cache the experiments and the batch runner share.
DEFAULT_CACHE = PlanCache()


@contextmanager
def attached_disk_tier(
    cache: PlanCache, directory: Optional[str]
) -> Iterator[None]:
    """Attach a :class:`DiskPlanCache` for *directory* to *cache*, scoped.

    The single place that implements "swap the disk tier in, restore
    the previous one after" — shared by the CLI subcommands and the
    serial path of :func:`repro.experiments.runner.run_batch`, so
    attachment semantics cannot drift between them.  A falsy
    *directory* is a no-op (purely in-memory caching).
    """
    if not directory:
        yield
        return
    previous = cache.disk
    cache.disk = DiskPlanCache(directory)
    try:
        yield
    finally:
        cache.disk = previous
