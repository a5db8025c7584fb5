"""The planned-scenario cache.

Planning a scenario — generating the network, nominating the
bottleneck, selecting paths, drawing the workload mix, the arrival
schedule and the fault events — is deterministic given the spec, so it
only ever needs to happen once per distinct spec.  :class:`PlanCache`
memoizes it at two levels, its two *kinds*:

* ``"plan"`` — the whole scenario plan, keyed by the hash of the
  *entire* spec (any field change is a different scenario and misses);
* ``"network"`` — the network plan, keyed by the topology source's
  :meth:`~repro.scenario.parts.TopologySource.network_fingerprint`
  (typically just the network config and the seed), so a sweep whose
  jobs differ only in workload, churn or transport still skips the
  repeated ``generate_network`` and its consensus draws.

Network draws live on substreams independent of the path and arrival
substreams, so a plan assembled from a *cached* network is
byte-identical to one planned cold — the cache never changes a result,
and the tests pin that.

One lookup serves both kinds, :meth:`PlanCache.get_or_compute`:
memory, then the optional **disk tier** (:class:`DiskPlanCache`), then
a cold computation whose result is published to disk.  Nothing
coordinates cold planners: planning takes less time than one disk
read, so processes racing on a cold key each plan it and publish the
same deterministic bytes, and the last atomic rename wins — the policy
the job store runs too.  The disk tier is one
:class:`repro.storage.EntryDir` per kind: entries written atomically,
stamped with the whole-package
:func:`~repro.storage.source_fingerprint`, carrying a digest of their
payload, capped in total size with least-recently-used eviction, and
read back defensively — anything corrupt, truncated, foreign, edited
or unreadable is a miss, never an error.

:func:`repro.experiments.runner.run_batch` aggregates every worker's
hit/miss counters (memory and disk) into the batch report so sweeps
show what the cache saved.
"""

from __future__ import annotations

import os
from collections import OrderedDict
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from ..serialize import decode, encode
from ..storage import FORMAT_VERSION, EntryDir, content_hash

__all__ = [
    "DEFAULT_CACHE",
    "DiskPlanCache",
    "PLAN_CACHE_ENV_VAR",
    "PlanCache",
    "attached_disk_tier",
    "spec_hash",
]

#: Environment variable naming the shared on-disk plan-cache directory.
PLAN_CACHE_ENV_VAR = "REPRO_PLAN_CACHE"

#: The historical name of :func:`repro.storage.content_hash`: every
#: cache key and checkpoint key in the repository is phrased in it.
spec_hash = content_hash

#: The cached levels; ``<kind>s/`` is also the disk tier's subdirectory.
KINDS = ("plan", "network")


def _zeroed_counters() -> Dict[str, int]:
    """``plan_hits``, ``plan_misses``, ``network_hits``, ``network_misses``."""
    return {
        "%s_%s" % (kind, outcome): 0
        for kind in KINDS for outcome in ("hits", "misses")
    }


class DiskPlanCache:
    """The persistent, cross-process tier of the plan cache.

    Lays out one JSON file per entry under *directory*::

        <directory>/plans/<spec-hash>.json
        <directory>/networks/<network-fingerprint>.json

    Each kind is one :class:`repro.storage.EntryDir`: every file is a
    version-:data:`~repro.storage.FORMAT_VERSION` envelope stamped with
    the :func:`~repro.storage.source_fingerprint` of the code that
    wrote it, so entries published by a different version of the
    package are misses even when the layout still matches (directories
    outlive commits: ``actions/cache`` in CI, a long-lived
    ``REPRO_PLAN_CACHE``), and carrying a digest of its payload, so an
    entry edited under an intact header is a miss too.  Writes go
    through a per-process temp file renamed into place, so readers only
    ever see complete entries — processes racing on one cold key each
    plan it, write the same deterministic bytes, and the last rename
    wins.  Reads never raise: anything unreadable or undecodable is a
    miss and cold planning takes over.

    The total size of all entries is capped at *max_bytes*; eviction is
    least-recently-used (entry mtimes are refreshed on every hit).
    """

    def __init__(self, directory: str, max_bytes: int = 256 * 1024 * 1024) -> None:
        if max_bytes < 1:
            raise ValueError("max_bytes must be >= 1, got %r" % max_bytes)
        self.directory = os.path.abspath(directory)
        self.max_bytes = max_bytes
        self._dirs = {
            kind: EntryDir(os.path.join(self.directory, kind + "s"), kind)
            for kind in KINDS
        }
        self._counters = _zeroed_counters()
        #: Running size estimate; ``None`` forces a rescan on next put.
        #: Writes by other processes are invisible until then, so the
        #: cap is enforced approximately — eviction happens on the next
        #: put whose estimate crosses it, not at the exact byte.
        self._approx_total: Optional[int] = None

    # --- lookup -----------------------------------------------------------

    def get(self, kind: str, key: str) -> Optional[Any]:
        """Load, decode and count the *kind* entry for *key*, or ``None``.

        Every call counts exactly one hit or one miss.
        """
        entries = self._dirs[kind]
        value = self._decode(kind, key, entries.get(key))
        if value is not None:
            try:
                os.utime(entries.path(key), None)  # refresh LRU recency
            except OSError:
                pass
            self._counters[kind + "_hits"] += 1
        else:
            self._counters[kind + "_misses"] += 1
        return value

    def get_plan(self, key: str) -> Optional[Any]:
        """The stored :class:`~repro.scenario.spec.ScenarioPlan`, or ``None``."""
        return self.get("plan", key)

    def get_network(self, key: str) -> Optional[Any]:
        """The stored :class:`~repro.scenario.netgen.NetworkPlan`, or ``None``."""
        return self.get("network", key)

    def _decode(self, kind: str, key: str, payload: Any) -> Optional[Any]:
        if payload is None:
            return None
        # Corrupt or stale entries must degrade to a cold plan, never
        # crash a run — so decoding failures of any shape are a miss.
        try:
            if kind == "plan":
                from .spec import ScenarioPlan

                plan = decode(ScenarioPlan, payload)
                # Not an integrity check (the envelope digest is that):
                # a float field the caller spelled as an int
                # (``max_sim_time=60``) decodes as ``60.0``, hashes to
                # another key, and served would change the result
                # JSON.  It goes once a spec's key is a function of its
                # value (the ROADMAP item of that name).
                return plan if spec_hash(plan.scenario) == key else None
            from .netgen import NetworkPlan

            return decode(NetworkPlan, payload)
        except Exception:
            return None

    # --- storage ----------------------------------------------------------

    def put(self, kind: str, key: str, value: Any) -> None:
        """Publish *value* as the *kind* entry for *key* (best effort)."""
        try:
            payload = encode(value)
        except TypeError:
            return  # unencodable value: the in-memory tiers still work
        written = self._dirs[kind].put(key, payload)
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

    def put_plan(self, key: str, plan: Any) -> None:
        self.put("plan", key, plan)

    def _scan(self) -> List[Tuple[float, int, str]]:
        """``(mtime, size, path)`` of every entry, after a janitor pass.

        Temp files orphaned by a killed writer are outside the
        ``*.json`` accounting, and so are the per-key lock files that
        directories written by older builds can hold; anything of
        either shape untouched for a minute is dead and swept first, so
        a shared directory (which CI's ``actions/cache`` re-persists)
        does not accumulate them.
        """
        entries = []
        for kind_dir in self._dirs.values():
            kind_dir.sweep((".tmp", ".lock"), 60.0)
            for key in kind_dir.keys():
                path = kind_dir.path(key)
                try:
                    stat = os.stat(path)
                except OSError:
                    continue
                entries.append((stat.st_mtime, stat.st_size, path))
        return entries

    def _evict(self) -> None:
        """Drop least-recently-used entries until under the size cap."""
        entries = sorted(self._scan())
        total = sum(size for __, size, __ in entries)
        for __, size, path in entries:
            if total <= self.max_bytes:
                break
            try:
                os.unlink(path)
            except OSError:
                continue
            total -= size
        self._approx_total = total

    # --- bookkeeping ------------------------------------------------------

    def stats(self) -> Dict[str, int]:
        """Disk-tier hit/miss counters (namespaced for batch reports)."""
        return {"disk_" + name: count for name, count in self._counters.items()}

    def reset_counters(self) -> None:
        self._counters = _zeroed_counters()

    def entry_counts(self) -> Dict[str, int]:
        """``{"plan": n, "network": m}`` entries currently on disk."""
        return {kind: len(entries.keys()) for kind, entries in self._dirs.items()}

    def total_bytes(self) -> int:
        return sum(size for __, size, __ in self._scan())

    def info(self) -> Dict[str, Any]:
        """Directory layout summary (``repro cache info``)."""
        counts = self.entry_counts()
        return {
            "directory": self.directory,
            "format_version": FORMAT_VERSION,
            "plan_entries": counts["plan"],
            "network_entries": counts["network"],
            "total_bytes": self.total_bytes(),
            "max_bytes": self.max_bytes,
        }

    def clear(self) -> int:
        """Delete every entry (and stray lock/temp file); entries removed."""
        removed = sum(entries.clear() for entries in self._dirs.values())
        self.reset_counters()
        self._approx_total = 0
        return removed

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<DiskPlanCache dir=%r %r>" % (self.directory, self._counters)


class PlanCache:
    """Two-level LRU memo for scenario plans and network plans.

    With a :class:`DiskPlanCache` attached (the *disk* argument, or
    assigning :attr:`disk` later), every memory miss falls through to
    the persistent tier, and cold results are published to it — so
    separate processes pointed at one directory share plans.  The
    top-level ``plan_hits``/``plan_misses`` (and network twins) of
    :meth:`stats` count overall outcomes: a hit means *served from any
    tier*, a miss means *planned cold*; the ``disk_*`` counters say how
    often disk was consulted and answered.
    """

    def __init__(
        self, max_entries: int = 64, disk: Optional[DiskPlanCache] = None
    ) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1, got %r" % max_entries)
        self.max_entries = max_entries
        self.disk = disk
        self._entries: Dict[str, "OrderedDict[str, Any]"] = {
            kind: OrderedDict() for kind in KINDS
        }
        self._counters = _zeroed_counters()

    def get_or_compute(
        self, kind: str, key: str, compute: Callable[[], Any]
    ) -> Any:
        """The *kind* entry for *key*, from any tier, else computed.

        Memory, then disk, then *compute*, whose result is published to
        the disk tier.  Processes that miss the same key at once each
        compute it (at most once per process) and publish the same
        bytes; waiting on one another would cost more than planning.
        """
        entries = self._entries[kind]
        value = entries.get(key)
        if value is not None:
            entries.move_to_end(key)
            self._counters[kind + "_hits"] += 1
            return value
        disk = self.disk
        if disk is not None:
            value = disk.get(kind, key)
        if value is None:
            self._counters[kind + "_misses"] += 1
            value = compute()
            if disk is not None:
                disk.put(kind, key, value)
        else:
            self._counters[kind + "_hits"] += 1
        entries[key] = value
        while len(entries) > self.max_entries:
            entries.popitem(last=False)
        return value

    # --- bookkeeping ------------------------------------------------------

    def stats(self) -> Dict[str, int]:
        """Hit/miss counters as a plain dict (for batch reports).

        Always carries the disk-tier keys (zeros when no disk tier is
        attached) so counter deltas aggregate uniformly across workers
        with and without a shared cache directory.
        """
        counters = dict(self._counters)
        if self.disk is not None:
            counters.update(self.disk.stats())
        else:
            counters.update(("disk_" + name, 0) for name in self._counters)
        return counters

    def clear(self) -> None:
        """Drop every in-memory entry and zero all counters.

        On-disk entries survive (they are shared with other processes);
        delete them explicitly via :meth:`DiskPlanCache.clear` or
        ``repro cache clear``.
        """
        for entries in self._entries.values():
            entries.clear()
        self._counters = _zeroed_counters()
        if self.disk is not None:
            self.disk.reset_counters()

    def __len__(self) -> int:
        return sum(len(entries) for entries in self._entries.values())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<PlanCache entries=%d %r%s>" % (
            len(self), self._counters,
            " disk=%r" % self.disk.directory if self.disk else "",
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
