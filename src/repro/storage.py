"""Shared on-disk envelope, entry-directory and lock-file machinery.

Two subsystems persist content-addressed JSON entries under a shared
directory: the scenario plan cache (:mod:`repro.scenario.cache`) and
the experiment job store (:mod:`repro.jobs.store`).  Both are "a
directory of ``<key>.json`` envelopes", so everything directory- or
clock-shaped about that lives here, once:

* **envelopes** (version :data:`FORMAT_VERSION`) — an entry file is
  one compact-JSON header line, then its payload as compact JSON.  The
  header carries the format version, a kind, the entry's own key, a
  writer stamp where the store wants one, and a ``sha256`` of the
  payload bytes as written.  A reader rejects stale layouts, misplaced
  files, entries written by different code and payloads changed under
  an intact header *before* decoding the payload; the digest is checked
  over the raw bytes, never by re-serialising.  A version-1 entry (one
  JSON object, no digest) is a miss;
* **entry directories** — :class:`EntryDir` is one directory of one
  kind of entry: it owns the entry path, the header, atomic write and
  defensive read, listing, clearing and sweeping the ``.tmp``/``.lock``
  files a killed process left behind.  The stores hold one per kind
  and never build a header themselves;
* **one writer fingerprint** — :func:`source_fingerprint`, a hash of
  the whole package source, stamps both stores: one invalidation rule,
  no hand-kept list of "modules that matter" to forget a module in;
* **atomic writes** — entries land via a per-process temp file renamed
  into place, so concurrent readers only ever observe complete entries
  (two processes racing on one key write the same deterministic bytes
  and the last rename wins);
* **owner-token lock files** — cross-process mutual exclusion with
  stale-lock breaking and a bounded wait: each lock file records a
  token unique to its creator, so releasing cannot unlink a lock that
  was broken and re-taken by someone else, and locks older than a
  timeout are treated as abandoned by protocol.

Everything here degrades safely: writes to an unusable directory are
no-ops, reads of corrupt or foreign files are misses, and lock
acquisition on an unwritable directory falls back to "go ahead"
(redundant work is deterministic work, never a wrong answer).  The host
clock is read here and nowhere in the simulated packages.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from .serialize import encode

__all__ = [
    "EntryDir",
    "FORMAT_VERSION",
    "OwnerLocks",
    "content_hash",
    "read_envelope",
    "resolve_dir",
    "source_fingerprint",
    "write_envelope",
]

#: The envelope layout.  Bump when the header or the way a payload is
#: written changes shape: every older entry then reads as a miss.
FORMAT_VERSION = 2


def resolve_dir(explicit: Optional[str], env_var: str) -> Optional[str]:
    """The store directory to use: *explicit*, else the environment.

    Returns ``None`` when neither a directory argument nor a non-empty
    *env_var* is present (that store stays off).
    """
    return explicit or os.environ.get(env_var, "").strip() or None


def content_hash(payload: Any) -> str:
    """Stable content hash of any :func:`~repro.serialize.encode`-able value.

    Canonical JSON (sorted keys, no whitespace) through SHA-256, so the
    hash is stable across processes, interpreter runs and dict
    insertion orders — any field change, however deep, changes the
    hash.
    """
    canonical = json.dumps(
        encode(payload), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


_PACKAGE_DIR = os.path.dirname(os.path.abspath(__file__))
_source_fingerprint_memo: Optional[str] = None


def source_fingerprint(refresh: bool = False) -> str:
    """Content hash of the whole ``repro`` package, once per process.

    The writer stamp of both stores.  A plan or a job's result can
    depend on *any* module (planner, parts, fault processes, engine,
    transport, experiment harnesses), so the honest guard hashes every
    ``.py`` file under the package.  Store directories outlive commits
    (``actions/cache`` in CI, a long-lived ``REPRO_PLAN_CACHE`` or
    ``REPRO_CHECKPOINT``); entries stamped by different code are
    misses, so a run never mixes what two versions of the simulator
    disagree on.  Unreadable sources degrade toward fewer cross-version
    hits, never toward stale answers.  *refresh* walks the tree again.
    """
    global _source_fingerprint_memo
    if refresh or _source_fingerprint_memo is None:
        digest = hashlib.sha256()
        for root, __, names in sorted(os.walk(_PACKAGE_DIR)):
            for name in sorted(names):
                if not name.endswith(".py"):
                    continue
                path = os.path.join(root, name)
                digest.update(os.path.relpath(path, _PACKAGE_DIR).encode("utf-8"))
                try:
                    with open(path, "rb") as handle:
                        digest.update(handle.read())
                except OSError:
                    pass
        _source_fingerprint_memo = digest.hexdigest()
    return _source_fingerprint_memo


def write_envelope(path: str, envelope: Dict[str, Any]) -> Optional[int]:
    """Atomically publish *envelope* at *path*: a header line, then the payload.

    ``envelope["payload"]`` is written as compact JSON after one line
    holding every other item plus ``"sha256"``, the digest of those
    payload bytes.  The blob goes through a per-process temp file
    renamed into place, so a reader never observes a partially written
    entry.  Returns the published byte length, or ``None`` when the
    directory is unusable or the envelope unencodable — persistence
    degrades to a no-op, it never raises.
    """
    tmp = "%s.%d.tmp" % (path, os.getpid())
    try:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        body = json.dumps(
            envelope.get("payload"), separators=(",", ":")
        ).encode("utf-8")
        header = {name: value for name, value in envelope.items() if name != "payload"}
        header["sha256"] = hashlib.sha256(body).hexdigest()
        # json.dumps escapes every newline, so the first one ends the header.
        blob = json.dumps(header, separators=(",", ":")).encode("utf-8") + b"\n" + body
        with open(tmp, "wb") as handle:
            handle.write(blob)
        os.replace(tmp, path)
    except (OSError, TypeError, ValueError):
        try:
            os.unlink(tmp)
        except OSError:
            pass
        return None
    return len(blob)


def read_envelope(
    path: str, expect: Dict[str, Any]
) -> Optional[Dict[str, Any]]:
    """The envelope at *path* as one dict (header items + ``"payload"``), or ``None``.

    Every item of *expect* must match the stored header exactly —
    format version, kind, key, writer stamp — otherwise the file is
    stale, misplaced or foreign and reading it would serve a wrong
    answer under a right-looking name.  The payload bytes must then
    hash to the header's ``"sha256"``: damage inside a payload is a
    miss, not a different answer.  Unreadable or undecodable files are
    misses, never errors.
    """
    try:
        with open(path, "rb") as handle:
            head, __, body = handle.read().partition(b"\n")
        header = json.loads(head)
        if not isinstance(header, dict) or any(
            header.get(field) != value for field, value in expect.items()
        ):
            return None
        if header.get("sha256") != hashlib.sha256(body).hexdigest():
            return None
        header["payload"] = json.loads(body)
    except (OSError, ValueError, RecursionError):  # ValueError: bad JSON or UTF-8
        return None
    return header


class OwnerLocks:
    """Per-key lock files with owner tokens and stale-lock breaking.

    One instance tracks every lock its owner currently holds, keyed by
    lock-file path.  :meth:`acquire` creates the lock file exclusively
    and records a token unique across processes *and* across instances
    within one process; :meth:`release` unlinks the file only while the
    token still matches, so a racer that judged our lock stale, broke
    it and took its own cannot have its *live* lock freed from under
    it.  Locks untouched for longer than *timeout* are abandoned by
    protocol (their writer finished or died) and are broken on the next
    acquisition attempt.
    """

    def __init__(self, timeout: float) -> None:
        if timeout <= 0:
            raise ValueError("timeout must be positive, got %r" % timeout)
        self.timeout = timeout
        self._tokens: Dict[str, str] = {}
        self._counter = itertools.count()

    def acquire(self, path: str) -> bool:
        """Try to take the lock at *path*.

        ``True`` means "go ahead" — either the lock file was created,
        or locking is impossible here (unwritable directory), in which
        case proceeding redundantly is the safe fallback.  ``False``
        means another live owner holds the lock.
        """
        # pid + instance id + counter: unique across processes AND
        # across lock sets within one process.
        token = "%d:%d:%d" % (os.getpid(), id(self), next(self._counter))
        try:
            os.makedirs(os.path.dirname(path), exist_ok=True)
            fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            try:
                age = time.time() - os.stat(path).st_mtime
            except OSError:
                return False  # holder released between open and stat
            if age <= self.timeout:
                return False
            try:
                os.unlink(path)  # stale: its writer is gone
                fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except OSError:
                return False
        except OSError:
            return True  # cannot lock here: proceed (possibly redundantly)
        try:
            os.write(fd, token.encode("ascii"))
        except OSError:
            pass
        finally:
            os.close(fd)
        self._tokens[path] = token
        return True

    def release(self, path: str) -> None:
        """Unlink the lock at *path* — only if this instance still owns it.

        Best-effort: the read/unlink pair is not atomic, but losing
        that tiny race only costs redundant work by the next acquirer,
        never a wrong answer.
        """
        token = self._tokens.pop(path, None)
        if token is None:
            return  # nothing acquired (unwritable directory)
        try:
            with open(path, "rb") as handle:
                current = handle.read()
        except OSError:
            return
        if current == token.encode("ascii"):
            try:
                os.unlink(path)
            except OSError:
                pass

    def wait(
        self, path: str, poll: Callable[[], Optional[Any]]
    ) -> Optional[Any]:
        """What the holder of the lock at *path* publishes, else ``None``.

        Calls *poll* every 10 ms until it returns a value, the lock
        file disappears without one (its holder released or died; the
        poll just before already failed) or *timeout* elapses.
        """
        deadline = time.monotonic() + self.timeout
        while True:
            value = poll()
            if (
                value is not None
                or time.monotonic() >= deadline
                or not os.path.exists(path)
            ):
                return value
            time.sleep(0.01)


class EntryDir:
    """One directory of ``<key>.json`` envelopes of one *kind*.

    The one place an entry's path and header are made: :meth:`put`
    writes the header (format version, kind, key, and with *stamped*
    the :func:`source_fingerprint` of the writing code) and :meth:`get`
    demands the same header back, plus a payload that matches its
    digest.  Stamped entries are misses under any other source tree;
    unstamped ones (a sweep's leases and snapshot) stay readable across
    commits.  The directory is created on first write.
    """

    def __init__(self, directory: str, kind: str, stamped: bool = True) -> None:
        self.directory = directory
        self.kind = kind
        self.stamped = stamped

    def path(self, key: str, suffix: str = ".json") -> str:
        """*key*'s entry file; with *suffix*, its lock or scratch file."""
        return os.path.join(self.directory, key + suffix)

    def _header(self, key: str) -> Dict[str, Any]:
        header = {"format": FORMAT_VERSION, "kind": self.kind, "key": key}
        if self.stamped:
            header["source"] = source_fingerprint()
        return header

    def put(self, key: str, payload: Any) -> Optional[int]:
        """Publish *payload* as *key*'s entry; bytes written, or ``None``."""
        envelope = self._header(key)
        envelope["payload"] = payload
        return write_envelope(self.path(key), envelope)

    def get(self, key: str) -> Optional[Any]:
        """*key*'s payload exactly as :meth:`put` stored it, or ``None``."""
        data = read_envelope(self.path(key), self._header(key))
        return None if data is None else data["payload"]

    def discard(self, key: str) -> None:
        """Unlink *key*'s entry, if there is one."""
        try:
            os.unlink(self.path(key))
        except OSError:
            pass

    def _names(self) -> List[str]:
        try:
            return os.listdir(self.directory)
        except OSError:
            return []

    def keys(self) -> List[str]:
        """Sorted keys of the entries on disk."""
        return sorted(
            name[:-len(".json")] for name in self._names() if name.endswith(".json")
        )

    def clear(self) -> int:
        """Unlink every file in the directory, scratch included; entries removed."""
        removed = 0
        for name in self._names():
            try:
                os.unlink(os.path.join(self.directory, name))
            except OSError:
                continue
            removed += name.endswith(".json")
        return removed

    def sweep(self, suffixes: Tuple[str, ...], older_than: float) -> None:
        """Remove protocol-dead scratch files (``.tmp``/``.lock``).

        Temp files orphaned by a killed writer and lock files abandoned
        by a crashed owner would otherwise accumulate forever in a
        shared directory; anything matching *suffixes* untouched for
        longer than *older_than* seconds is dead by protocol — a live
        writer renames within milliseconds, a live lock is honoured for
        at most its timeout — and is unlinked here.
        """
        now = time.time()
        for name in self._names():
            if not name.endswith(suffixes):
                continue
            path = os.path.join(self.directory, name)
            try:
                if now - os.stat(path).st_mtime > older_than:
                    os.unlink(path)
            except OSError:
                continue
