"""Kind workers: forked processes that replay controller kinds.

Every scenario job replays one plan under two or more controller kinds,
and the replays share nothing.  A *worker* is a process forked from
this one that reads requests from one pipe and writes one answer per
request to another, until it reads end of file.  A :class:`Pool` is
the only thing that forks, feeds, loses, replaces, logs and reaps
workers.  Its unit is a ``(job, kind)`` replay, or a whole job (kind
``None``) for a sweep's verb that plans no scenario.  A sweep
(:func:`repro.jobs.dispatch.run_tasks`) keeps one pool for the whole
batch; a single call (:func:`replay_kinds`) keeps one for the call,
with one worker per extra usable CPU, and only for a plan of at least
its *floor* cell-hops per kind: a fork costs more than a small plan
saves.

A process forks workers only on a platform with ``fork``, when it is
itself no worker and runs no other thread (fork is unsafe beside
threads): :func:`may_fork`.

**The pipe protocol.**  A message is a 4-byte length and a pickle.  A
request is ``(unit, body, parts)``; ``parts`` maps a slot name to
``(key, blob)``, and :meth:`_Worker.send` drops the blob when the
worker last received that slot under the same key.  So a network
shared by a sweep crosses each pipe once, and a job's plan, pickled
once, crosses it once for all of its kinds.  An answer is ``(unit,
status, value)``: ``"done"`` with the value, ``"raised"`` when the
unit raised, ``"interrupted"`` when it raised ``KeyboardInterrupt``.
A worker that answers ``"raised"`` serves on.

**The failure rule.**  A unit whose worker raised, died or was killed
is *lost*, and the caller replays it itself once its job's other kinds
have landed, in kind order, so an error is always the serial engine's
own.  A dead worker is replaced once, its replacement not again.  Each
lost worker is logged once, as a WARNING naming its pid and what it
held; each fork at DEBUG, but only when :mod:`logging` is already
loaded: an unloaded ``logging`` has no handler to lose, and loading it
costs a cold process ~7 ms.

A worker closes its copies of every pipe end this process holds for
any worker: when this process dies, even by ``SIGKILL``, each worker
reads end of file (or a broken pipe) and exits.  A worker ignores
``SIGINT``: Ctrl-C interrupts the process that forked it, which kills
the workers itself.
"""

from __future__ import annotations

import os
import select
import signal
import struct
import sys
import threading
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "Pool",
    "Unit",
    "may_fork",
    "replay_kinds",
    "usable_cpus",
]

#: Whether this process is a kind worker (set in the child after fork).
_IN_WORKER = False

#: This process's ends of every live worker's pipes; a new worker
#: closes them all, so only this process keeps a worker's pipes open.
_PARENT_ENDS: set = set()

_LENGTH = struct.Struct("<I")

#: ``(key, blob)`` per slot name.
Parts = Dict[str, Tuple[Any, bytes]]

#: ``(job, kind)``; job ``None`` in a single call, kind ``None`` for a whole job.
Unit = Tuple[Optional[int], Optional[str]]

#: Units queued per worker.  With one, a worker idles while its next
#: unit crosses the pipe (1.05 s against 0.83 s for a cold sweep-tiny
#: batch on 2 CPUs).
_DEPTH = 2


def may_fork() -> bool:
    """Whether this process may fork workers: the platform forks, and
    this process is no worker itself and runs no other thread."""
    return (hasattr(os, "fork") and not _IN_WORKER
            and threading.active_count() == 1)


def usable_cpus() -> int:
    """The CPUs this process may run on (its affinity mask where known)."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else os.cpu_count() or 1


class _Worker:
    """One forked worker and this process's ends of its pipes.

    ``serve(body, parts)`` answers each request in the worker, with
    ``parts`` mapping each slot of the request to its unpickled object.
    Requests are written without blocking (the unwritten rest waits in
    :attr:`outbox` for :meth:`flush`); answers are read unbuffered, so a
    ``select`` on :attr:`answers` never misses one.
    """

    __slots__ = ("pid", "requests", "answers", "inbox", "outbox", "units", "sent")

    def __init__(self, serve: Callable[[Any, Dict[str, Any]], Any]) -> None:
        import pickle  # before the fork: the worker needs it too

        requests_in, requests_out = os.pipe()
        answers_in, answers_out = os.pipe()
        try:
            pid = os.fork()
        except BaseException:
            for fd in (requests_in, requests_out, answers_in, answers_out):
                os.close(fd)
            raise
        if pid == 0:
            # The worker: serve until end of file, then leave at once,
            # running none of the parent's clean-up.
            try:
                global _IN_WORKER
                _IN_WORKER = True
                signal.signal(signal.SIGINT, signal.SIG_IGN)
                for fd in (requests_out, answers_in, *_PARENT_ENDS):
                    os.close(fd)
                _PARENT_ENDS.clear()
                _serve(requests_in, answers_out, serve, pickle)
            finally:
                os._exit(0)
        os.close(requests_in)
        os.close(answers_out)
        os.set_blocking(requests_out, False)
        _PARENT_ENDS.update((requests_out, answers_in))
        self.pid = pid
        self.requests = requests_out
        self.answers = answers_in
        self.inbox = bytearray()
        self.outbox = bytearray()
        #: Units sent and not yet answered, in the order they were sent.
        self.units: List[Any] = []
        #: slot -> the key this worker last received it under.
        self.sent: Dict[str, Any] = {}

    def send(self, unit: Any, body: Any, parts: Optional[Parts] = None) -> None:
        """Queue one request and write what the pipe takes now.

        A dead worker is not noticed here: its units are reported lost
        when :meth:`receive` reads its end of file.
        """
        import pickle

        wire = {}
        for slot, (key, blob) in (parts or {}).items():
            wire[slot] = (key, None if self.sent.get(slot) == key else blob)
            self.sent[slot] = key
        frame = pickle.dumps((unit, body, wire), pickle.HIGHEST_PROTOCOL)
        self.outbox += _LENGTH.pack(len(frame))
        self.outbox += frame
        self.units.append(unit)
        self.flush()

    def flush(self, wait: bool = False) -> None:
        """Write queued request bytes: what the pipe takes now, or (with
        *wait*) all of them."""
        while self.outbox:
            try:
                written = os.write(self.requests, self.outbox)
            except BlockingIOError:
                if not wait:
                    return
                select.select([], [self.requests], [])
                continue
            except BrokenPipeError:
                self.outbox.clear()  # dead: receive() reports its units
                return
            del self.outbox[:written]

    def receive(self) -> Optional[List[Tuple[Any, str, Any]]]:
        """The answers complete after one read (which blocks until the
        pipe holds something), or ``None`` at end of file."""
        import pickle

        chunk = os.read(self.answers, 1 << 16)
        if not chunk:
            return None
        inbox = self.inbox
        inbox += chunk
        answers = []
        while len(inbox) >= _LENGTH.size:
            (size,) = _LENGTH.unpack_from(inbox)
            end = _LENGTH.size + size
            if len(inbox) < end:
                break
            answer = pickle.loads(inbox[_LENGTH.size:end])
            del inbox[:end]
            self.units.remove(answer[0])
            answers.append(answer)
        return answers

    def stop(self, kill: bool = False) -> None:
        """Close this process's pipe ends (the worker reads end of file),
        after ``SIGKILL`` when *kill* is set; :meth:`join` reaps it."""
        if kill:
            os.kill(self.pid, signal.SIGKILL)  # unreaped: never ESRCH
        for fd in (self.requests, self.answers):
            _PARENT_ENDS.discard(fd)
            os.close(fd)

    def join(self) -> None:
        os.waitpid(self.pid, 0)


def _serve(requests_fd: int, answers_fd: int, serve: Callable, pickle: Any) -> None:
    """The worker's loop: one answer per request, until end of file."""
    requests = open(requests_fd, "rb")
    kept: Dict[str, Any] = {}
    while True:
        header = requests.read(_LENGTH.size)
        if len(header) < _LENGTH.size:
            return
        unit, body, wire = pickle.loads(requests.read(_LENGTH.unpack(header)[0]))
        for slot, (__, blob) in wire.items():
            if blob is not None:
                kept[slot] = pickle.loads(blob)
        try:
            answer = (unit, "done", serve(body, {slot: kept[slot] for slot in wire}))
        except KeyboardInterrupt:
            answer = (unit, "interrupted", None)
        except Exception:
            answer = (unit, "raised", None)
        frame = pickle.dumps(answer, pickle.HIGHEST_PROTOCOL)
        view = memoryview(_LENGTH.pack(len(frame)) + frame)
        while view:
            view = view[os.write(answers_fd, view):]


def _log() -> Any:
    """This module's logger.  ``logging`` loads on the first record, not
    with the module."""
    import logging

    return logging.getLogger(__name__)


class Pool:
    """Up to *size* workers, forked as units need them, each answering
    with ``serve(body, parts)``; *name* names them in the log."""

    def __init__(self, size: int, serve: Callable[[Any, Dict[str, Any]], Any],
                 name: str) -> None:
        self.size = size
        self.serve = serve
        self.name = name
        self.workers: List[_Worker] = []
        #: Dead first-generation workers not yet replaced.
        self._owed = 0
        #: Pids of replacements, which are not replaced in turn.
        self._spares: set = set()

    @property
    def busy(self) -> bool:
        return any(worker.units for worker in self.workers)

    def can_take(self) -> bool:
        return len(self.workers) < self.size or any(
            len(worker.units) < _DEPTH for worker in self.workers
        )

    def send(self, unit: Unit, body: Any, parts: Optional[Parts]) -> bool:
        """Queue *unit* on an idle worker, a new one, or the least busy;
        ``False`` if no worker is left to take it."""
        workers = self.workers
        if len(workers) < self.size and all(worker.units for worker in workers):
            try:
                worker = _Worker(self.serve)
            except OSError as error:  # out of processes or memory
                _log().warning("cannot fork a %s worker (%s); %d remain",
                               self.name, error, len(workers))
                self.size = len(workers)
                return self.send(unit, body, parts) if workers else False
            if self._owed:
                self._owed -= 1
                self._spares.add(worker.pid)
            workers.append(worker)
            if "logging" in sys.modules:
                _log().debug("forked %s worker %d (%d of %d)",
                             self.name, worker.pid, len(workers), self.size)
        else:
            worker = min(workers, key=lambda worker: len(worker.units))
        worker.send(unit, body, parts)
        return True

    def flush(self) -> None:
        """Write every queued request, waiting on the pipes as needed."""
        for worker in self.workers:
            worker.flush(wait=True)

    def wait(self) -> List[Tuple[Unit, str, Any]]:
        """Block until a worker answers or dies: the answers, and a
        ``"lost"`` answer for each unit a dead worker held."""
        workers = self.workers
        readable, writable, __ = select.select(
            [worker.answers for worker in workers],
            [worker.requests for worker in workers if worker.outbox], [],
        )
        answers: List[Tuple[Unit, str, Any]] = []
        for worker in list(workers):
            if worker.requests in writable:
                worker.flush()
            if worker.answers in readable:
                received = worker.receive()
                if received is None:
                    answers.extend(self._lose(worker))
                else:
                    answers.extend(received)
        return answers

    def _lose(self, worker: _Worker) -> List[Tuple[Unit, str, Any]]:
        self.workers.remove(worker)
        worker.stop()
        worker.join()
        if worker.pid in self._spares:
            self.size -= 1
        else:
            self._owed += 1
        _log().warning("%s worker %d died; %s", self.name, worker.pid, "; ".join(
            "job %d ran whole there: the sweep is broken" % job if kind is None
            else "%skind %s replays in the parent" % ("" if job is None else "job %d " % job, kind)
            for job, kind in worker.units
        ) or "it held no unit")
        return [(unit, "lost", None) for unit in worker.units]

    def close(self) -> None:
        """Stop every worker, killing each that holds a unit, and reap it."""
        workers, self.workers = self.workers, []
        for worker in workers:
            worker.stop(kill=bool(worker.units))
        for worker in workers:
            worker.join()


def replay_kinds(
    plan: Any,
    kinds: Sequence[str],
    run_kind: Callable[[Any, str], Any],
    floor: int,
) -> list:
    """``run_kind(plan, kind)`` of each of *kinds*, in kind order.

    Side by side, for a plan of *floor* or more cell-hops per kind when
    this process may fork and use two CPUs: the first kind replays here
    while the others go to a :class:`Pool` of one worker per extra
    usable CPU.  Each kind the pool lost replays here afterwards, on
    the line a serial replay takes, so its traceback is the serial
    engine's own.
    """
    size = max(min(len(kinds), usable_cpus()) - 1, 0)
    if size and not (may_fork() and plan.estimated_cost()["cell_hops"] >= floor):
        size = 0
    pool = Pool(size, lambda kind, parts: run_kind(parts["plan"], kind), "kind")
    outcomes: Dict[str, Any] = {}
    try:
        if size:
            import pickle

            part = {"plan": (0, pickle.dumps(plan, pickle.HIGHEST_PROTOCOL))}
            for kind in kinds[1:]:
                if not pool.send((None, kind), kind, part):
                    break
            pool.flush()
        for kind in kinds:
            if kind not in outcomes:
                outcomes[kind] = run_kind(plan, kind)
            while pool.busy:
                for (__, done), status, value in pool.wait():
                    if status == "done":
                        outcomes[done] = value
    finally:
        pool.close()
    return [outcomes[kind] for kind in kinds]
