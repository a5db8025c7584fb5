"""Shared on-disk envelope, segment, entry-directory and lock-file machinery.

Two subsystems persist content-addressed JSON entries under a shared
directory: the scenario plan cache (:mod:`repro.scenario.cache`) and
the experiment job store (:mod:`repro.jobs.store`).  Both are "a
directory of keyed entries of one kind", so everything directory- or
clock-shaped about that lives here, once:

* **entry directories** — :class:`EntryDir` is one directory of one
  kind of entry, kept as append-only segments, one per writing
  process: publishing an entry is one ``os.write`` and creates no
  file.  A record is a compact-JSON header line (format version
  :data:`FORMAT_VERSION`, kind, key, writer stamp, time, size and a
  ``sha256`` over the key and the payload bytes), then the payload.  A
  reader indexes the headers alone, and rejects stale layouts,
  relabelled or damaged records, entries written by different code and
  payloads changed under an intact header when it reads a record,
  *before* decoding the payload; the digest is checked over the raw
  bytes, never by re-serialising.  The stores hold one per kind and
  never build a header themselves;
* **envelopes** — a lone file published by atomic rename
  (:func:`write_envelope`, :func:`read_envelope`): the same header
  line, a digest of the payload bytes alone, then the payload.  A
  sweep's ``partial.json``, which pollers read whole, is one;
* **one writer fingerprint** — :func:`source_fingerprint`, a hash of
  the whole package source, stamps both stores: one invalidation rule,
  no hand-kept list of "modules that matter" to forget a module in;
* **owner-token lock files** — cross-process mutual exclusion with
  stale-lock breaking and a bounded wait: each lock file records a
  token unique to its creator, so releasing cannot unlink a lock that
  was broken and re-taken by someone else, and locks older than a
  timeout are treated as abandoned by protocol.  Neither store takes a
  lock: racers append the same deterministic bytes and either record
  serves.  :class:`OwnerLocks` stays for the ``storage.lock_cycle_us``
  row of the benchmark, which times it.

Everything here degrades safely: writes to an unusable directory are
no-ops, reads of corrupt or foreign records are misses, and lock
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
from stat import S_ISREG
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from .serialize import encode

__all__ = [
    "EntryDir",
    "FORMAT_VERSION",
    "HOST",
    "OwnerLocks",
    "content_hash",
    "encode_payload",
    "publish_envelope",
    "read_envelope",
    "resolve_dir",
    "source_fingerprint",
    "sweep_files",
    "write_envelope",
]

#: The envelope layout.  Bump when the header or the way a payload is
#: written changes shape: every older entry then reads as a miss.
FORMAT_VERSION = 3

#: This host's name: the first half of every segment name it writes,
#: and the ``host`` of a sweep's lease records.
HOST = os.uname().nodename


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
    try:
        body = encode_payload(envelope.get("payload"))
    except (TypeError, ValueError):
        return None
    header = {name: value for name, value in envelope.items() if name != "payload"}
    return publish_envelope(path, header, body)


def encode_payload(payload: Any) -> bytes:
    """*payload* as the compact JSON bytes an envelope stores."""
    return json.dumps(payload, separators=(",", ":")).encode("utf-8")


def publish_envelope(path: str, header: Dict[str, Any], body: bytes) -> Optional[int]:
    """:func:`write_envelope` for a payload already encoded as *body*.

    A writer that republishes a growing payload keeps the encodings of
    its parts and joins them here, instead of re-encoding the whole.
    """
    tmp = "%s.%d.tmp" % (path, os.getpid())
    try:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        header = dict(header, sha256=hashlib.sha256(body).hexdigest())
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
    """One directory of one *kind* of entry, kept as append-only segments.

    Every process appends to its own segment, ``<host>-<pid>.log``
    (``<host>-<pid>.<n>.log`` once it has rotated *n* times), with one
    ``os.write`` per record on a descriptor opened with ``O_APPEND`` and
    closed before the call returns: no descriptor outlives a call, and a
    forked child never writes into its parent's segment.  A record is a
    header line — format version, kind, key, with *stamped* the
    :func:`source_fingerprint` of the writing code, the wall-clock
    ``time`` of the write, the payload's byte size and a ``sha256`` over
    the key and the payload bytes — then the compact-JSON payload and a
    newline.  A record with an empty payload is a tombstone
    (:meth:`discard`).

    Reads go through an in-memory index of the records' headers: built
    on first use, refreshed on a miss, and reading only the headers of
    what each segment grew by since, never a payload.  A key's latest
    record wins: a later record of the same segment, else the one with
    the later ``time``.  A record is indexed once the byte its header's
    size points at is the newline that ends it; a header line that does
    not parse, does not match or points elsewhere is skipped and the
    next line is tried as a header.  :meth:`get` reads the record,
    checks every header field and hashes the payload before it decodes
    anything, and :meth:`keys` lists only records that verify: damage
    costs misses, never a wrong payload or an exception.  Stamped
    entries are misses under any other source tree; unstamped ones (a
    sweep's leases) stay readable across commits.  The directory is
    created on first write.

    *segment_bytes* (0: never) makes a writer start a new segment once
    its current one holds that many bytes, so a store that evicts whole
    segments (:meth:`segments`, :meth:`drop`) can keep a long-lived
    writer under a cap.  A store whose records are all superseded in
    the end (a sweep's leases) unlinks the spent segments instead
    (:meth:`compact`).
    """

    def __init__(self, directory: str, kind: str, stamped: bool = True,
                 segment_bytes: int = 0) -> None:
        self.directory = directory
        self.kind = kind
        self.stamped = stamped
        self.segment_bytes = segment_bytes
        #: key -> ``(time, segment, offset, header length, payload length)``
        #: of its latest record.
        self._index: Dict[str, Tuple[Any, str, int, int, int]] = {}
        #: segment -> ``(inode, bytes indexed)``.
        self._seen: Dict[str, Tuple[int, int]] = {}
        #: ``(pid, rotations)`` of the segment this process appends to.
        self._writer = (0, 0)

    def _expect(self) -> Dict[str, Any]:
        expect = {"format": FORMAT_VERSION, "kind": self.kind}
        if self.stamped:
            expect["source"] = source_fingerprint()
        return expect

    # --- writing ----------------------------------------------------------

    def put(self, key: str, payload: Any) -> Optional[int]:
        """Append *payload* as *key*'s record; bytes written, or ``None``."""
        try:
            body = encode_payload(payload)
        except (TypeError, ValueError):
            return None
        return self.put_encoded(key, body)

    def put_encoded(self, key: str, body: bytes) -> Optional[int]:
        """:meth:`put` for a payload already encoded (:func:`encode_payload`)."""
        if not body or b"\n" in body:
            return None  # a tombstone, or bytes that would end the record early
        return self._append(key, body)

    def discard(self, key: str) -> None:
        """Append a tombstone: *key* has no entry from now on."""
        self._append(key, b"")

    def _segment(self) -> str:
        pid = os.getpid()
        if self._writer[0] != pid:
            self._writer = (pid, 0)  # a forked child: its own segment
        rotations = self._writer[1]
        return "%s-%d%s.log" % (HOST, pid, ".%d" % rotations if rotations else "")

    def _append(self, key: str, body: bytes) -> Optional[int]:
        try:
            header = self._expect()
            header.update(key=key, time=time.time(), bytes=len(body),
                          sha256=_digest(key.encode("utf-8"), body))
            # json.dumps escapes every newline, so the first one ends the header.
            head = json.dumps(header, separators=(",", ":")).encode("utf-8") + b"\n"
        except (TypeError, ValueError):
            return None
        record = head + body + b"\n"
        flags = os.O_RDWR | os.O_APPEND | os.O_CREAT
        try:
            while True:
                name = self._segment()
                path = os.path.join(self.directory, name)
                try:
                    fd = os.open(path, flags, 0o644)
                except FileNotFoundError:
                    os.makedirs(self.directory, exist_ok=True)
                    fd = os.open(path, flags, 0o644)
                try:
                    stat = os.fstat(fd)
                    if self.segment_bytes and stat.st_size >= self.segment_bytes:
                        self._writer = (self._writer[0], self._writer[1] + 1)
                        continue
                    blob = record
                    if stat.st_size and self._seen.get(name) != (
                            stat.st_ino, stat.st_size) and os.pread(
                            fd, 1, stat.st_size - 1) != b"\n":
                        # A record torn by a killed writer whose pid this
                        # process reuses: end it, so ours stays whole.
                        blob = b"\n" + record
                    if os.write(fd, blob) != len(blob):
                        return None  # a torn record: readers skip it
                    end = os.lseek(fd, 0, os.SEEK_CUR)
                finally:
                    os.close(fd)
                break
        except OSError:
            return None
        start = end - len(record)
        if blob is record and self._seen.get(name, (stat.st_ino, 0)) == (stat.st_ino, start):
            # Nothing unread before it: index our own record as written.
            self._note(key, (header["time"], name, start, len(head), len(body)))
            self._seen[name] = (stat.st_ino, end)
        return len(blob)

    # --- reading ----------------------------------------------------------

    def get(self, key: str) -> Optional[Any]:
        """*key*'s payload exactly as :meth:`put` stored it, or ``None``."""
        payload = self._load(key)
        if payload is None:
            self._refresh()
            payload = self._load(key)
        return payload

    def listed(self) -> Set[str]:
        """Keys whose latest record's header names an entry, after one
        look at the directory; unverified, as :meth:`get` checks each."""
        self._refresh()
        return {key for key, record in self._index.items() if record[4]}

    def keys(self) -> List[str]:
        """Sorted keys whose latest record on disk is an entry that verifies."""
        return sorted(key for key in self.listed() if self._read(key) is not None)

    def _load(self, key: str) -> Optional[Any]:
        body = self._read(key)
        if body is None:
            return None
        try:
            return json.loads(body)
        except (ValueError, RecursionError):  # ValueError: bad JSON or UTF-8
            return None

    def _read(self, key: str) -> Optional[bytes]:
        """The payload bytes of *key*'s indexed record, once its header
        matches and its digest verifies; else ``None``."""
        record = self._index.get(key)
        if record is None or not record[4]:
            return None
        __, name, offset, head_size, size = record
        try:
            fd = os.open(os.path.join(self.directory, name), os.O_RDONLY)
            try:
                blob = os.pread(fd, head_size + size + 1, offset)
            finally:
                os.close(fd)
        except OSError:
            return None
        if len(blob) != head_size + size + 1 or blob[-1:] != b"\n":
            return None
        body = blob[head_size:-1]
        if _parse_header(blob[:head_size], self._expect()) != (
                key, record[0], size, _digest(key.encode("utf-8"), body)):
            return None
        return body

    def _note(self, key: str, record: Tuple[Any, str, int, int, int]) -> None:
        latest = self._index.get(key)
        if latest is None or latest[1] == record[1] or record[0] >= latest[0]:
            self._index[key] = record

    def _names(self) -> List[str]:
        try:
            return os.listdir(self.directory)
        except OSError:
            return []

    def _stats(self) -> List[Tuple[str, os.stat_result]]:
        found = []
        for name in self._names():
            if name.endswith(".log"):
                try:
                    stat = os.stat(os.path.join(self.directory, name))
                except OSError:
                    continue
                if S_ISREG(stat.st_mode):
                    found.append((name, stat))
        return found

    def segments(self) -> List[Tuple[float, int, str]]:
        """``(mtime, size, path)`` of every segment in the directory."""
        return [(stat.st_mtime, stat.st_size, os.path.join(self.directory, name))
                for name, stat in self._stats()]

    def _refresh(self) -> None:
        """Index what each segment grew by; start over if one went away."""
        stats = dict(self._stats())
        for name, (inode, done) in self._seen.items():
            stat = stats.get(name)
            if stat is None or stat.st_ino != inode or stat.st_size < done:
                # Evicted, cleared or replaced under its name: what its
                # records superseded may be the latest again.
                self._index.clear()
                self._seen.clear()
                break
        for name in sorted(stats):
            stat = stats[name]
            done = self._seen.get(name, (stat.st_ino, 0))[1]
            if stat.st_size > done:
                self._seen[name] = (stat.st_ino, self._scan(name, done, self._note))

    def _scan(self, name: str, offset: int,
              visit: Callable[[str, Tuple[Any, str, int, int, int]], None]) -> int:
        """Hand *visit* the key and place of each whole record of segment
        *name* from *offset* on; returns where the first incomplete one
        starts.

        Only headers are read: a record is whole once the byte its
        header's size points at is the newline that ends it.  A payload
        is hashed when it is read (:meth:`_read`), never here.
        """
        expect = self._expect()
        try:
            with open(os.path.join(self.directory, name), "rb") as handle:
                handle.seek(offset)
                line = handle.readline()
                while line.endswith(b"\n"):
                    parsed = _parse_header(line, expect)
                    if parsed is not None:
                        end = offset + len(line) + parsed[2]
                        handle.seek(end)
                        tail = handle.read(1)
                        if tail == b"\n":
                            visit(parsed[0], (parsed[1], name, offset, len(line), parsed[2]))
                            offset = end + 1
                            line = handle.readline()
                            continue
                        handle.seek(offset + len(line))
                        if not tail and not handle.readline().endswith(b"\n"):
                            break  # still being written, or torn by a kill
                        handle.seek(offset + len(line))
                    # Not a header, or one whose size is wrong: its
                    # payload line may be the next record's header.
                    offset += len(line)
                    line = handle.readline()
        except OSError:
            pass
        return offset

    # --- housekeeping -----------------------------------------------------

    def touch(self, key: str) -> None:
        """Mark the segment holding *key*'s entry as just used."""
        record = self._index.get(key)
        if record is not None:
            try:
                os.utime(os.path.join(self.directory, record[1]), None)
            except OSError:
                pass

    def drop(self, path: str) -> bool:
        """Unlink the segment at *path*; ``True`` if it went."""
        try:
            os.unlink(path)
        except OSError:
            return False
        self._index.clear()  # rebuilt from the segments left, on the next miss
        self._seen.clear()
        return True

    def compact(self) -> int:
        """Unlink the segments whose records are all spent; segments unlinked.

        A segment goes when no live process appends to it any more
        (this process's own, or a finished process's of this host), and
        for every key it holds a record of, that key's latest record is
        a tombstone, held in a segment that goes too or in one that
        stays: dropping segments never uncovers a record they
        superseded.
        """
        self._refresh()
        holders: Dict[str, Set[str]] = {}

        def hold(key: str, record: Tuple[Any, str, int, int, int]) -> None:
            holders.setdefault(key, set()).add(record[1])

        names = [name for name, __ in self._stats()]
        for name in names:
            self._scan(name, 0, hold)
        doomed = {name for name in names if _writer_gone(name)}
        changed = True
        while changed:
            changed = False
            for key, held in holders.items():
                latest = self._index.get(key)
                if latest is None:
                    keep = held & doomed  # appended since the refresh
                elif latest[1] in doomed and (latest[4] or not held <= doomed):
                    keep = {latest[1]}
                else:
                    continue
                if keep:
                    doomed -= keep
                    changed = True
        return sum(self.drop(os.path.join(self.directory, name))
                   for name in sorted(doomed))

    def clear(self) -> int:
        """Unlink every file in the directory; entries removed."""
        removed = len(self.keys())
        for name in self._names():
            try:
                os.unlink(os.path.join(self.directory, name))
            except OSError:
                continue
        self._index.clear()
        self._seen.clear()
        return removed


def _writer_gone(name: str) -> bool:
    """Whether no other live process appends to segment *name*: it is
    this process's, or a process's of this host that has exited."""
    host, __, rest = name[:-len(".log")].rpartition("-")
    try:
        pid = int(rest.split(".")[0])
    except ValueError:
        return False
    if host != HOST:
        return False
    if pid == os.getpid():
        return True
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    except (OSError, OverflowError):
        pass  # alive and another user's, or no pid this host can have
    return False


def _digest(key: bytes, body: Any) -> str:
    """The ``sha256`` of a record: its key, a newline, its payload bytes.

    The key is inside the digest because no file name carries it: a
    header relabelled to another key no longer verifies.
    """
    digest = hashlib.sha256(key)
    digest.update(b"\n")
    digest.update(body)
    return digest.hexdigest()


def _parse_header(
    line: bytes, expect: Dict[str, Any]
) -> Optional[Tuple[str, Any, int, str]]:
    """``(key, time, bytes, sha256)`` of a record header matching *expect*."""
    try:
        header = json.loads(line)
        if not isinstance(header, dict) or any(
            header.get(field) != value for field, value in expect.items()
        ):
            return None
        key, stamp = header.get("key"), header.get("time")
        size, digest = header.get("bytes"), header.get("sha256")
        if not (isinstance(key, str) and type(stamp) in (int, float)
                and type(size) is int and size >= 0 and isinstance(digest, str)):
            return None
        key.encode("utf-8")  # a lone surrogate cannot be a key
    except (ValueError, RecursionError):
        return None
    return key, stamp, size, digest


def sweep_files(directory: str, suffixes: Tuple[str, ...], older_than: float) -> None:
    """Unlink the files of *directory* ending in *suffixes*, untouched
    for longer than *older_than* seconds.

    What a killed writer of a one-file envelope left (``.tmp``), and
    files an older layout left beside the segments, would otherwise
    accumulate forever in a shared directory.
    """
    now = time.time()
    try:
        names = os.listdir(directory)
    except OSError:
        return
    for name in names:
        if not name.endswith(suffixes):
            continue
        path = os.path.join(directory, name)
        try:
            if now - os.stat(path).st_mtime > older_than:
                os.unlink(path)
        except OSError:
            continue
