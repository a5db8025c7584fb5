"""Kind workers: forked processes that replay controller kinds side by side.

Every scenario job replays one plan under two or more controller kinds,
and the replays share nothing.  A *kind worker* is a process forked
from this one that takes ``(plan, kind)`` requests over a pair of pipes
and answers each with the replay's outcome, until it reads end of file.
:meth:`KindWorkers.replay` runs one kind here while the workers run the
others, byte for byte the outcomes of replaying them one after the
other.

The workers live as long as their *scope*, :func:`kind_workers`:

* **a batch** — the serial path of :func:`repro.jobs.dispatch.run_tasks`
  opens one scope for the whole sweep.  The first side-by-side replay
  forks the workers, every later job reuses them whatever its size, and
  they are closed and joined when the sweep ends;
* **a single call** — a replay outside any scope opens one for itself,
  and only for a plan of at least its *floor* cell-hops per kind: a fork
  costs more than a small plan saves.

Kinds replay side by side only when this process may use more than one
CPU, is itself no worker (of a pool or of a scope) and runs no other
thread (fork is unsafe beside threads).  If anything fails on that path
— a worker raised, died or was killed, the pipe broke, this process's
own kind raised or was interrupted — every worker of the scope is
killed and joined, and the kinds replay serially, so an error is always
the serial engine's own.  A later replay in the scope forks afresh.

A worker closes its copies of the pipe ends this process writes and
reads, its own and every older worker's: when this process dies, even
by ``SIGKILL``, each worker reads end of file and exits.  A worker
ignores ``SIGINT``: Ctrl-C interrupts the process that owns the scope,
which kills the workers itself.
"""

from __future__ import annotations

import os
import signal
import sys
import threading
from contextlib import contextmanager
from typing import Any, Callable, Iterator, List, Optional, Sequence

__all__ = [
    "KindWorkers",
    "in_child_process",
    "kind_workers",
]

#: Whether this process is a kind worker (set in the child after fork).
_IN_WORKER = False

#: The open scope's workers (``None``: no scope is open).
_OPEN: Optional["KindWorkers"] = None


def in_child_process() -> bool:
    """Whether this process is a kind worker or was started by
    :mod:`multiprocessing` (a pool worker): it replays serially, never
    nesting processes.

    A pool worker has imported :mod:`multiprocessing` before it runs
    anything, so a process that has not is no pool worker and need not
    import it.
    """
    if _IN_WORKER:
        return True
    multiprocessing = sys.modules.get("multiprocessing")
    return multiprocessing is not None and multiprocessing.parent_process() is not None


def usable_cpus() -> int:
    """The CPUs this process may run on (its affinity mask where known)."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else os.cpu_count() or 1


@contextmanager
def kind_workers(floor: int = 0) -> Iterator["KindWorkers"]:
    """The open scope's workers, or a scope of this block's own.

    A scope opened here forks nothing until a replay needs a worker,
    and closes and joins its workers when the block ends, error or
    interrupt included.  Its replays go side by side only for plans of
    *floor* or more cell-hops per kind; a block inside an open scope
    uses that scope, whose floor is its own.
    """
    global _OPEN
    if _OPEN is not None:
        yield _OPEN
        return
    _OPEN = workers = KindWorkers(floor)
    try:
        yield workers
    finally:
        _OPEN = None
        workers.close()


class _Worker:
    """One forked worker: its pid and this process's ends of its pipes."""

    __slots__ = ("pid", "requests", "answers")

    def __init__(self, pid: int, requests: Any, answers: Any) -> None:
        self.pid = pid
        self.requests = requests
        self.answers = answers

    def ask(self, plan: Any, kind: str) -> None:
        import pickle

        pickle.dump((plan, kind), self.requests, pickle.HIGHEST_PROTOCOL)
        self.requests.flush()

    def answer(self) -> Any:
        """The outcome; ``EOFError`` if the worker raised or died."""
        import pickle

        return pickle.load(self.answers)

    def close_pipes(self) -> None:
        for end in (self.requests, self.answers):
            try:
                end.close()
            except OSError:
                pass  # a dead reader: the unsent request goes with it


class KindWorkers:
    """The kind workers of one scope, forked as replays need them."""

    def __init__(self, floor: int = 0) -> None:
        #: Cell-hops per kind under which this scope replays serially.
        self.floor = floor
        self._workers: List[_Worker] = []

    def replay(
        self,
        plan: Any,
        kinds: Sequence[str],
        run_kind: Callable[[Any, str], Any],
    ) -> list:
        """``run_kind(plan, kind)`` of each of *kinds*, in kind order.

        Groups of as many kinds as there are usable CPUs: a group's
        first replays here, the others in workers.  A worker forked now
        serves with *run_kind* for the rest of the scope.
        """
        cpus = usable_cpus()
        if (
            min(len(kinds), cpus) > 1
            and not in_child_process()
            and threading.active_count() == 1
            and (not self.floor or plan.estimated_cost()["cell_hops"] >= self.floor)
        ):
            outcomes: list = []
            try:
                for start in range(0, len(kinds), cpus):
                    group = kinds[start:start + cpus]
                    workers = self._enlist(len(group) - 1, run_kind)
                    for worker, kind in zip(workers, group[1:]):
                        worker.ask(plan, kind)
                    outcomes.append(run_kind(plan, group[0]))
                    outcomes.extend(worker.answer() for worker in workers)
                return outcomes
            except Exception:
                pass  # replay below, so the caller sees the serial engine's error
            finally:
                if len(outcomes) < len(kinds):
                    self.close(kill=True)  # a worker may be mid-request
        return [run_kind(plan, kind) for kind in kinds]

    def close(self, kill: bool = False) -> None:
        """Stop every worker and wait for it: end of file on its request
        pipe, and first ``SIGKILL`` when *kill* is set."""
        workers, self._workers = self._workers, []
        for worker in workers:
            if kill:
                os.kill(worker.pid, signal.SIGKILL)  # unreaped: never ESRCH
            worker.close_pipes()
        for worker in workers:
            os.waitpid(worker.pid, 0)

    def _enlist(self, count: int, run_kind: Callable[[Any, str], Any]) -> List[_Worker]:
        """The first *count* workers, forking the missing ones."""
        while len(self._workers) < count:
            self._workers.append(self._fork(run_kind))
        return self._workers[:count]

    def _fork(self, run_kind: Callable[[Any, str], Any]) -> _Worker:
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
                os.close(requests_out)
                os.close(answers_in)
                for older in self._workers:
                    older.close_pipes()
                requests = open(requests_in, "rb")
                answers = open(answers_out, "wb")
                while True:
                    try:
                        plan, kind = pickle.load(requests)
                    except EOFError:
                        break
                    pickle.dump(run_kind(plan, kind), answers, pickle.HIGHEST_PROTOCOL)
                    answers.flush()
            finally:
                os._exit(0)
        os.close(requests_in)
        os.close(answers_out)
        return _Worker(pid, open(requests_out, "wb"), open(answers_in, "rb"))
