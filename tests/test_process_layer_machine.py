"""The process layer of a checkpointed sweep, under a state machine.

One sweep of tiny two-kind ``netscale`` jobs runs again and again over
one checkpoint directory.  Each step runs it once, and at most one
thing goes wrong on the way: the parent is interrupted after its next
finished job, a live worker is SIGKILLed, a worker's kind raises.  A
resume step runs the sweep to its end; a last step starts a fresh
directory once every job is done.

After every step:

* every checkpointed job holds the bytes the one-CPU batch computes;
* no child this process forked is alive or unreaped;
* while a step ran, never more workers were alive than usable CPUs;
* no job that was checkpointed when a step began was computed again.

With one usable CPU nothing forks, and the kill rule has no victim.
"""

from __future__ import annotations

import os
import signal
import tempfile

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.experiments.netscale import NetScaleConfig
from repro.experiments.runner import BatchJob, prepare_job, run_batch
from repro.jobs import JobStore, SweepInterrupted
from repro.scenario import engine, kindworker
from repro.scenario.kindworker import usable_cpus
from repro.scenario.netgen import NetworkConfig
from repro.units import kib

#: The sweep-tiny shape: two circuits, two kinds, a few ms per kind.
JOBS = [
    BatchJob(
        "netscale",
        NetScaleConfig(
            circuit_count=2, bulk_fraction=1.0, bulk_payload_bytes=kib(4) + index,
            seed=2018, network=NetworkConfig(8, 4, 4),
        ),
        label="tiny-%d" % index,
    )
    for index in range(4)
]
KEYS = [prepare_job(job, index)[2] for index, job in enumerate(JOBS)]

_REFERENCE = {}


def reference():
    """job key -> the result the one-CPU batch computes."""
    if not _REFERENCE:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(os, "sched_getaffinity", lambda pid: {0})
            batch = run_batch(JOBS, workers=1)
        assert not batch.failures()
        _REFERENCE.update(zip(KEYS, (item.result for item in batch.items)))
    return _REFERENCE


def alive(pid) -> bool:
    """Whether *pid* runs (a zombie waiting for its reaper does not)."""
    try:
        with open("/proc/%d/stat" % pid) as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


class ProcessLayer(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        reference()
        self.scratch = tempfile.TemporaryDirectory(prefix="machine-")
        self.generation = 0
        self.checkpoint = self._fresh_directory()
        self.forks = []
        self.live_peak = 0
        self.recomputed = []
        self.raise_flag = os.path.join(self.scratch.name, "raise")
        self.patch = pytest.MonkeyPatch()
        real_fork = os.fork

        def fork():
            pid = real_fork()
            if pid:
                self.forks.append(pid)
            return pid

        real_run_kind = engine._run_kind
        flag = self.raise_flag

        def run_kind(plan, kind):
            if (kind == "without" and kindworker._IN_WORKER
                    and os.path.exists(flag)):
                raise RuntimeError("a planted failure in a worker's kind")
            return real_run_kind(plan, kind)

        self.patch.setattr(os, "fork", fork)
        self.patch.setattr(engine, "_run_kind", run_kind)

    def teardown(self) -> None:
        self.patch.undo()
        self.scratch.cleanup()

    def _fresh_directory(self) -> str:
        self.generation += 1
        return os.path.join(self.scratch.name, "ckpt-%d" % self.generation)

    def _done(self):
        return set(JobStore(self.checkpoint).keys()) if os.path.isdir(
            self.checkpoint) else set()

    def _sweep(self, stop_after=None, kill=None, resume=False) -> None:
        """One run of the sweep; stop after *stop_after* computed jobs,
        SIGKILL live worker number *kill* at the first one."""
        done_before = self._done()
        computed = []

        def on_item(item, done, total, source):
            live = [pid for pid in self.forks if alive(pid)]
            self.live_peak = max(self.live_peak, len(live))
            if source != "run":
                return
            if KEYS[item.index] in done_before:
                self.recomputed.append(item.index)
            computed.append(item.index)
            if kill is not None and len(computed) == 1 and live:
                os.kill(live[kill % len(live)], signal.SIGKILL)
            if stop_after is not None and len(computed) >= stop_after:
                raise KeyboardInterrupt  # Ctrl-C, between two jobs

        try:
            run_batch(JOBS, workers=1, checkpoint_dir=self.checkpoint,
                      resume=resume, on_item=on_item)
        except SweepInterrupted:
            assert stop_after is not None

    # --- rules -----------------------------------------------------------

    @rule()
    def run_the_next_job(self):
        self._sweep(stop_after=1)

    @rule(victim=st.integers(0, 3))
    def sigkill_a_live_worker(self, victim):
        self._sweep(stop_after=2, kill=victim)

    @rule()
    def make_a_workers_kind_raise(self):
        with open(self.raise_flag, "w") as handle:
            handle.write("raise\n")
        try:
            self._sweep(stop_after=1)
        finally:
            os.unlink(self.raise_flag)

    @rule()
    def resume_from_the_checkpoint_directory(self):
        self._sweep(resume=True)
        assert self._done() == set(KEYS)

    @precondition(lambda self: self._done() == set(KEYS))
    @rule()
    def start_a_fresh_directory(self):
        self.checkpoint = self._fresh_directory()

    # --- invariants --------------------------------------------------------

    @invariant()
    def every_finished_job_holds_the_one_cpu_bytes(self):
        store = JobStore(self.checkpoint) if os.path.isdir(self.checkpoint) else None
        for key in self._done():
            assert store.get(key)["result"] == reference()[key]

    @invariant()
    def no_child_is_alive_or_unreaped(self):
        for pid in self.forks:
            with pytest.raises(ChildProcessError):
                os.waitpid(pid, os.WNOHANG)

    @invariant()
    def never_more_workers_than_usable_cpus(self):
        assert self.live_peak <= usable_cpus()

    @invariant()
    def no_checkpointed_job_is_computed_again(self):
        assert self.recomputed == []


ProcessLayer.TestCase.settings = settings(
    max_examples=50,
    stateful_step_count=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
TestProcessLayer = ProcessLayer.TestCase
