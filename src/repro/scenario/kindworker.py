"""Kind workers: forked processes that replay controller kinds.

Every scenario job replays one plan under two or more controller kinds,
and the replays share nothing.  A *kind worker* is a process forked
from this one that reads requests from one pipe and writes one answer
per request to another, until it reads end of file.  Two callers fork
them:

* **a sweep** — :func:`repro.jobs.dispatch.run_tasks` keeps a pool of
  them for the whole batch.  Its unit is one ``(plan, kind)`` replay
  (or a whole job, for a verb that plans no scenario), and the parent
  plans, encodes and checkpoints while the workers replay;
* **a single call** — :func:`replay_kinds` replays the first kind here
  and the others in workers forked for this call alone, and only for a
  plan of at least its *floor* cell-hops per kind: a fork costs more
  than a small plan saves.

A process forks workers only on a platform with ``fork``, when it is
itself no worker and runs no other thread (fork is unsafe beside
threads): :func:`may_fork`.

**The pipe protocol.**  A message is a 4-byte length and a pickle.  A
request is ``(unit, body, parts)``; ``parts`` maps a slot name to
``(key, blob)``, and :meth:`Worker.send` drops the blob when the
worker last received that slot under the same key.  So a network
shared by a sweep crosses each pipe once, and a job's plan, pickled
once, crosses it once for all of its kinds.  An answer is ``(unit,
status, value)``: ``"done"`` with the value, ``"raised"`` when the
unit raised, ``"interrupted"`` when it raised ``KeyboardInterrupt``.
A worker that answers ``"raised"`` serves on.

**Failure rules.**  A unit whose worker raised, died or was killed is
*lost*, and the caller replays it itself, so an error is always the
serial engine's own.  A single call that loses anything — its own
kind raising or being interrupted included — kills and joins its
workers and replays every kind serially.

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
import threading
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "Worker",
    "in_child_process",
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


def in_child_process() -> bool:
    """Whether this process is a kind worker: it forks none of its own."""
    return _IN_WORKER


def may_fork() -> bool:
    """Whether this process may fork workers: the platform forks, and
    this process is no worker itself and runs no other thread."""
    return (hasattr(os, "fork") and not _IN_WORKER
            and threading.active_count() == 1)


def usable_cpus() -> int:
    """The CPUs this process may run on (its affinity mask where known)."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else os.cpu_count() or 1


class Worker:
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


def replay_kinds(
    plan: Any,
    kinds: Sequence[str],
    run_kind: Callable[[Any, str], Any],
    floor: int,
) -> list:
    """``run_kind(plan, kind)`` of each of *kinds*, in kind order.

    Side by side, for a plan of *floor* or more cell-hops per kind when
    this process may fork and use two CPUs: the first kind replays here
    and the others in workers forked for this call, one per extra usable
    CPU, round robin.  Serially otherwise, and again after any failure.
    """
    count = min(len(kinds), usable_cpus()) - 1
    if count > 0 and may_fork() and plan.estimated_cost()["cell_hops"] >= floor:
        import pickle

        workers: List[Worker] = []
        answers: Dict[int, Any] = {}
        try:
            part = {"plan": (0, pickle.dumps(plan, pickle.HIGHEST_PROTOCOL))}
            for __ in range(count):
                workers.append(Worker(lambda kind, parts: run_kind(parts["plan"], kind)))
            for position, kind in enumerate(kinds[1:], 1):
                workers[position % count].send(position, kind, part)
            for worker in workers:
                worker.flush(wait=True)
            first = run_kind(plan, kinds[0])
            for worker in workers:
                while worker.units:
                    received = worker.receive()
                    if received is None:
                        raise EOFError("kind worker %d died" % worker.pid)
                    for position, status, value in received:
                        if status != "done":
                            raise RuntimeError("kind %r was lost" % kinds[position])
                        answers[position] = value
            return [first] + [answers[position] for position in range(1, len(kinds))]
        except Exception:
            pass  # replay below, so the caller sees the serial engine's error
        finally:
            lost = len(answers) < len(kinds) - 1
            for worker in workers:
                worker.stop(kill=lost)  # a worker may be mid-request
            for worker in workers:
                worker.join()
    return [run_kind(plan, kind) for kind in kinds]
