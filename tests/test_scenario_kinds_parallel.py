"""Controller kinds replayed side by side in forked kind workers.

Two callers fork kind workers (:mod:`repro.scenario.kindworker`):
``run_planned``, for the one call, and a sweep's pool
(:mod:`repro.jobs.dispatch`), whose workers replay one kind of one job
at a time and stay warm from job to job.  Everything observable must be
what the serial engine produces — results byte for byte, errors down to
the traceback text — workers must never outlive their call or batch,
not even a SIGKILLed parent, and the "do not fork" conditions must
hold: a small plan outside a batch, one usable CPU, a process that is
itself a worker.

The plans here are small, so most single-call tests lower the size
floor.  With one usable CPU (CI also runs this module under ``taskset
-c 0``) the engine never forks and every identity holds trivially; the
fork counts are asserted against what this process may actually use.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import logging
import multiprocessing
import multiprocessing.pool
import os
import signal
import subprocess
import sys
import time
import traceback
from typing import List

import pytest

from repro.experiments import study
from repro.experiments.adversity import AdversityStudyConfig
from repro.experiments.api import (
    Experiment,
    ExperimentResult,
    ExperimentSpec,
    RunContext,
)
from repro.experiments.churn_study import ChurnStudyConfig
from repro.experiments.netscale import NetScaleConfig
from repro.experiments.registry import _REGISTRY, get_experiment, register_experiment
from repro.experiments.runner import BatchJob, run_batch
from repro.scenario import engine, kindworker, plan_scenario, run_planned, sharded
from repro.scenario.cache import PlanCache
from repro.scenario.netgen import NetworkConfig, NetworkPlan
from repro.scenario.spec import Scenario
from repro.scenario.topology import GeneratedTopology
from repro.scenario.workloads import BulkWorkload
from repro.units import kib

#: Whether this process may fork kinds at all (a real affinity mask).
CAN_FORK = len(os.sched_getaffinity(0)) > 1


def netscale_config(**overrides) -> NetScaleConfig:
    fields = dict(circuit_count=4, seed=2018, network=NetworkConfig(10, 10, 10))
    fields.update(overrides)
    return NetScaleConfig(**fields)


def lossless_plan(**overrides):
    scenario = dataclasses.replace(netscale_config().to_scenario(), **overrides)
    return plan_scenario(scenario, cache=PlanCache())


def faulted_plan():
    scenario = AdversityStudyConfig(
        circuit_count=4, horizon=2.0, bulk_payload_bytes=kib(100)
    ).point_scenario(0.02, 4.0)
    return plan_scenario(scenario, cache=PlanCache())


def result_bytes(result) -> str:
    return json.dumps(result.to_dict(), sort_keys=True)


@pytest.fixture(autouse=True)
def deadline():
    """Fail, not hang: nothing in this module waits two minutes."""

    def expire(signum, frame):
        raise AssertionError("no answer after 120 s: a replay hung")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(120)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def low_floor(monkeypatch):
    """Every plan is large enough to fork."""
    monkeypatch.setattr(engine, "_SIDE_BY_SIDE_FLOOR", 0)


def recording_fork(pids):
    """``os.fork``, appending each child's pid to *pids* in the parent."""
    real_fork = os.fork

    def fork():
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    return fork


@pytest.fixture
def forks(monkeypatch):
    """The pids this process forked, in order."""
    pids = []
    monkeypatch.setattr(os, "fork", recording_fork(pids))
    return pids


@contextlib.contextmanager
def one_cpu():
    """The CPU probe reads one usable CPU: the serial engine."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(os, "sched_getaffinity", lambda pid: {0})
        yield


@pytest.fixture
def two_cpus(monkeypatch):
    """Where this process may fork, the CPU probe reads two usable CPUs,
    whatever the box has: a serial batch's pool has two workers."""
    if CAN_FORK:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})


def serial_bytes(plan, kinds=None) -> str:
    with one_cpu():
        return result_bytes(run_planned(plan, kinds=kinds))


def assert_reaped(pids) -> None:
    """No child is running and none is left unwaited-for."""
    assert multiprocessing.active_children() == []
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


# ----------------------------------------------------------------------
# (a) byte-identical results
# ----------------------------------------------------------------------


@pytest.mark.parametrize("make_plan", (lossless_plan, faulted_plan))
def test_forked_result_is_the_serial_result(make_plan, low_floor, forks):
    plan = make_plan()
    assert result_bytes(run_planned(plan)) == serial_bytes(plan)
    assert len(forks) == (1 if CAN_FORK else 0)
    assert_reaped(forks)


def test_three_kinds_run_in_groups_of_the_usable_cpus(low_floor, forks):
    plan = lossless_plan(kinds=("with", "without", "jumpstart"))
    with pytest.MonkeyPatch.context() as patch:
        if CAN_FORK:
            # Two CPUs whatever the box has: groups (with, without), (jumpstart).
            patch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        result = run_planned(plan)
    assert result.run_kinds == ["with", "without", "jumpstart"]
    assert result_bytes(result) == serial_bytes(plan)
    assert len(forks) == (1 if CAN_FORK else 0)


def test_kinds_argument_keeps_its_order(low_floor, forks):
    plan = lossless_plan()
    reverse = ["without", "with"]
    result = run_planned(plan, kinds=reverse)
    assert result.run_kinds == reverse
    assert result_bytes(result) == serial_bytes(plan, kinds=reverse)
    assert len(forks) == (1 if CAN_FORK else 0)


# ----------------------------------------------------------------------
# (b) errors are the serial engine's own
# ----------------------------------------------------------------------


def second_kind_fails():
    """(config, kinds): a fault-free netscale job whose horizon ends after
    its first kind's last circuit and before its second kind's."""
    with one_cpu():
        result = run_planned(lossless_plan())
    finish = {
        kind: max(s.start_time + s.time_to_last_byte for s in rows)
        for kind, rows in result.samples.items()
    }
    fast, slow = sorted(finish, key=finish.get)
    assert finish[fast] < finish[slow]
    cutoff = (finish[fast] + finish[slow]) / 2
    return netscale_config(max_sim_time=cutoff, kinds=(fast, slow))


def outcome_of(plan):
    """What a caller can see of one ``run_planned``: result or error."""
    try:
        return result_bytes(run_planned(plan))
    except Exception as exc:
        return type(exc), str(exc), traceback.format_exc()


def test_second_kind_error_is_the_serial_engines_own(low_floor, forks):
    config = second_kind_fails()
    plan = plan_scenario(config.to_scenario(), cache=PlanCache())
    with one_cpu():
        serial = outcome_of(plan)
    assert serial[0] is engine.UnfinishedCircuitsError
    assert "kind=%s" % config.kinds[1] in serial[1]
    assert outcome_of(plan) == serial
    assert len(forks) == (1 if CAN_FORK else 0)
    assert_reaped(forks)


# ----------------------------------------------------------------------
# (c), (e) children die, the parent is interrupted: nothing is left behind
# ----------------------------------------------------------------------


def replay_where(parent=None, child=None):
    """``engine._run_kind``, replaced on one side of the fork."""
    real = engine._run_kind

    def run_kind(plan, kind):
        side = child if kindworker.in_child_process() else parent
        return real(plan, kind) if side is None else side()

    return run_kind


def kill_myself():
    os.kill(os.getpid(), signal.SIGKILL)


def test_a_killed_child_yields_the_serial_result(low_floor, forks, monkeypatch):
    plan = lossless_plan()
    expected = serial_bytes(plan)
    monkeypatch.setattr(engine, "_run_kind", replay_where(child=kill_myself))
    assert result_bytes(run_planned(plan)) == expected
    assert len(forks) == (1 if CAN_FORK else 0)
    assert_reaped(forks)


def test_an_interrupt_in_the_parents_kind_reaps_the_children(
    low_floor, forks, monkeypatch
):
    def interrupt():
        raise KeyboardInterrupt

    # Large enough that the child is still simulating when it is stopped.
    plan = plan_scenario(
        netscale_config(circuit_count=40).to_scenario(), cache=PlanCache()
    )
    monkeypatch.setattr(engine, "_run_kind", replay_where(parent=interrupt))
    with pytest.raises(KeyboardInterrupt):
        run_planned(plan)
    assert len(forks) == (1 if CAN_FORK else 0)
    assert_reaped(forks)


# ----------------------------------------------------------------------
# (d) when the engine must not fork
# ----------------------------------------------------------------------


def test_no_fork_below_the_floor(forks):
    # The sweep-tiny shape: 72 planned cell-hops against a floor of 2 000.
    plan = plan_scenario(
        netscale_config(
            circuit_count=2, bulk_fraction=1.0, bulk_payload_bytes=kib(4),
            network=NetworkConfig(8, 4, 4),
        ).to_scenario(),
        cache=PlanCache(),
    )
    assert plan.estimated_cost()["cell_hops"] < engine._SIDE_BY_SIDE_FLOOR
    run_planned(plan)
    assert forks == []


def test_the_default_floor_lets_a_larger_plan_fork(forks):
    plan = lossless_plan()
    assert plan.estimated_cost()["cell_hops"] >= engine._SIDE_BY_SIDE_FLOOR
    run_planned(plan)
    assert len(forks) == (1 if CAN_FORK else 0)


def test_no_fork_with_one_usable_cpu(low_floor, forks):
    with one_cpu():
        run_planned(lossless_plan())
    assert forks == []


def test_no_fork_for_a_single_kind(low_floor, forks):
    run_planned(lossless_plan(), kinds=["with"])
    assert forks == []


def _replay_in_worker():
    """(in a child?, forks, result bytes) of a floor-less replay."""
    engine._SIDE_BY_SIDE_FLOOR = 0
    pids = []
    os.fork = recording_fork(pids)  # this worker is not reused
    result = run_planned(lossless_plan())
    return kindworker.in_child_process(), len(pids), result_bytes(result)


@dataclasses.dataclass(frozen=True)
class ProbeSpec(ExperimentSpec):
    probe: str = "replay"


@dataclasses.dataclass
class ProbeResult(ExperimentResult):
    in_child: bool = False
    forks: int = 0
    text: str = ""
    seen: List[int] = dataclasses.field(default_factory=list)


class ProbeExperiment(Experiment):
    """Runs one probe of this module where a sweep runs a whole job."""

    name = "test-kind-probe"
    spec_type = ProbeSpec
    result_type = ProbeResult

    def run(self, spec, ctx=RunContext()):
        if spec.probe == "study":
            return ProbeResult(seen=_study_sweep_workers())
        in_child, forks, text = _replay_in_worker()
        return ProbeResult(in_child=in_child, forks=forks, text=text)


def in_a_pool_worker(probe):
    """The probe's result, run as a whole job in a ``workers=2`` sweep."""
    register_experiment(ProbeExperiment)
    try:
        batch = run_batch([BatchJob("test-kind-probe", ProbeSpec(probe))], workers=2)
        return batch.items[0].result_object()
    finally:
        _REGISTRY.pop(ProbeExperiment.name, None)


def test_no_fork_inside_a_pool_worker():
    assert not kindworker.in_child_process()
    probe = in_a_pool_worker("replay")
    assert probe.in_child == kindworker.may_fork()
    assert probe.forks == 0
    assert probe.text == serial_bytes(lossless_plan())


# ----------------------------------------------------------------------
# The nesting guard of the study sweep; the sharded entry forks as kinds do
# ----------------------------------------------------------------------


class _Stop(Exception):
    pass


def _study_sweep_workers():
    """The worker count a ``workers=2`` study hands to its point sweep."""
    seen = []

    def spy(jobs, workers=None, **kwargs):
        seen.append(workers)
        raise _Stop

    real_run_batch = study.run_batch
    study.run_batch = spy
    try:
        get_experiment("churn-study").run(
            ChurnStudyConfig(rates=(2.0,), circuit_count=4), RunContext(workers=2)
        )
    except _Stop:
        pass
    finally:
        study.run_batch = real_run_batch
    return seen


def _disjoint_plan():
    return plan_scenario(
        Scenario(
            topology=GeneratedTopology(
                network=NetworkConfig(relay_count=16, client_count=8, server_count=8),
                force_bottleneck=False,
                clusters=4,
            ),
            workloads=(BulkWorkload(payload_bytes=kib(20)),),
            circuit_count=8,
            max_sim_time=60.0,
            seed=11,
        ),
        cache=PlanCache(),
    )


def test_a_study_inside_a_pool_worker_sweeps_serially():
    assert _study_sweep_workers() == [2]
    assert in_a_pool_worker("study").seen == [1 if kindworker.may_fork() else 2]


def test_a_sharded_run_forks_as_run_planned_does(low_floor, forks, monkeypatch):
    def no_pool(self, *args, **kwargs):
        raise AssertionError("a multiprocessing pool was constructed")

    monkeypatch.setattr(multiprocessing.pool.Pool, "__init__", no_pool)
    plan = _disjoint_plan()
    planned = result_bytes(run_planned(plan))
    assert len(forks) == (1 if CAN_FORK else 0)
    assert result_bytes(sharded.run_sharded(plan, shards=4)) == planned
    assert len(forks) == (2 if CAN_FORK else 0)
    assert_reaped(forks)


# ----------------------------------------------------------------------
# (f) a sweep reads the same at any worker count, errors included
# ----------------------------------------------------------------------


def test_batch_is_byte_identical_in_process_and_pooled(two_cpus, forks):
    jobs = [
        BatchJob("netscale", netscale_config(), label="ok"),
        BatchJob("netscale", second_kind_fails(), label="late"),
        BatchJob("netscale", netscale_config(seed=7), label="ok-7"),
    ]
    in_process = run_batch(jobs, workers=1)
    # One worker per usable CPU; the one whose kind raised answered so
    # and served on, and the parent replayed that kind.
    assert len(forks) == (2 if CAN_FORK else 0)
    pooled = run_batch(jobs, workers=2)
    assert json.dumps(in_process.to_dict(), sort_keys=True) == json.dumps(
        pooled.to_dict(), sort_keys=True
    )
    errors = [item.error for item in in_process.items]
    assert errors[0] is None and errors[2] is None
    assert errors[1]["type"] == "UnfinishedCircuitsError"
    assert "_run_kind" in errors[1]["traceback"]
    assert_reaped(forks)


# ----------------------------------------------------------------------
# (g) a sweep's pool keeps its kind workers warm from job to job
# ----------------------------------------------------------------------


def tiny_config(index):
    """The sweep-tiny shape: 72 planned cell-hops per kind, far below the
    size floor of a call outside any scope."""
    return netscale_config(
        circuit_count=2, bulk_fraction=1.0, bulk_payload_bytes=kib(4) + index,
        network=NetworkConfig(8, 4, 4),
    )


def tiny_jobs(count=4):
    return [BatchJob("netscale", tiny_config(index), label="tiny-%d" % index)
            for index in range(count)]


def tiny_scenario_jobs(kinds, count=4):
    """Tiny jobs of the ``scenario`` experiment, which runs any kinds."""
    return [
        BatchJob("scenario", dataclasses.replace(
            tiny_config(index).to_scenario(), kinds=kinds), label="tiny-%d" % index)
        for index in range(count)
    ]


def batch_bytes(result) -> str:
    return json.dumps(result.to_dict(), sort_keys=True)


def serial_batch_bytes(jobs) -> str:
    with one_cpu():
        return batch_bytes(run_batch(jobs, workers=1))


@pytest.mark.parametrize("kinds", [("with", "without"), ("with", "without", "jumpstart")])
def test_a_serial_batch_forks_once_per_usable_cpu_not_once_per_job(kinds, forks):
    jobs = tiny_scenario_jobs(kinds)
    plan = plan_scenario(jobs[0].spec, cache=PlanCache())
    assert plan.estimated_cost()["cell_hops"] < engine._SIDE_BY_SIDE_FLOOR
    expected = serial_batch_bytes(jobs)
    with pytest.MonkeyPatch.context() as patch:
        if CAN_FORK:
            # As many CPUs as kinds, whatever the box has.
            patch.setattr(os, "sched_getaffinity", lambda pid: set(range(len(kinds))))
        result = run_batch(jobs, workers=1)
    assert len(forks) == (len(kinds) if CAN_FORK else 0)
    assert_reaped(forks)
    assert batch_bytes(result) == expected


def test_a_worker_killed_between_jobs_yields_the_serial_bytes(two_cpus, forks):
    jobs = tiny_jobs()
    expected = serial_batch_bytes(jobs)

    def kill_the_worker(item, done, total, source):
        if done == 1 and forks:
            os.kill(forks[0], signal.SIGKILL)

    result = run_batch(jobs, workers=1, on_item=kill_the_worker)
    assert batch_bytes(result) == expected
    # The parent replayed what the dead worker held; a replacement forks
    # once, if a unit still waits for a worker.
    assert (2 <= len(forks) <= 3) if CAN_FORK else forks == []
    assert_reaped(forks)


def test_an_error_in_the_workers_kind_is_the_serial_engines_own(two_cpus, forks):
    tiny = tiny_jobs(3)
    jobs = [tiny[0], BatchJob("netscale", second_kind_fails(), label="late"), *tiny[1:]]
    expected = serial_batch_bytes(jobs)
    result = run_batch(jobs, workers=1)
    assert batch_bytes(result) == expected
    error = result.items[1].error
    assert error["type"] == "UnfinishedCircuitsError"
    assert "_run_kind" in error["traceback"]
    # The late job's second kind raised in a worker, which answered so
    # and served on: no worker was replaced.
    assert len(forks) == (2 if CAN_FORK else 0)
    assert_reaped(forks)


def test_an_interrupt_in_the_parents_kind_stops_the_warm_worker(
    two_cpus, forks, monkeypatch
):
    real = engine._run_kind

    def run_kind(plan, kind):
        if not kindworker.in_child_process():
            # The parent replays a kind only when a worker lost it.
            raise KeyboardInterrupt
        if kind == "without":
            raise RuntimeError("lost in the worker")
        return real(plan, kind)

    monkeypatch.setattr(engine, "_run_kind", run_kind)
    with pytest.raises(KeyboardInterrupt):
        run_batch(tiny_jobs(), workers=1)
    # Interrupted with later jobs' units queued in both workers.
    assert len(forks) == (2 if CAN_FORK else 0)
    assert_reaped(forks)


#: A serial batch whose first finished job blocks: the worker is warm
#: and idle when its parent is killed.
_KILLED_PARENT = """
import os, time
from repro.experiments.netscale import NetScaleConfig
from repro.experiments.runner import run_batch
from repro.scenario.netgen import NetworkConfig

pids = []
real_fork = os.fork

def fork():
    pid = real_fork()
    if pid:
        pids.append(pid)
    return pid

def block(item, done, total, source):
    print(pids[0] if pids else 0, flush=True)
    time.sleep(120)

os.fork = fork
jobs = [("netscale", NetScaleConfig(circuit_count=2, bulk_fraction=1.0,
         bulk_payload_bytes=4096 + index, seed=2018, network=NetworkConfig(8, 4, 4)))
        for index in range(2)]
run_batch(jobs, workers=1, on_item=block)
"""


def gone(pid) -> bool:
    """Whether *pid* has exited (a zombie waiting for its reaper counts)."""
    try:
        with open("/proc/%d/stat" % pid) as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] == "Z"
    except OSError:
        return True


@pytest.mark.skipif(not CAN_FORK, reason="one usable CPU: no worker to orphan")
def test_a_worker_outlives_no_sigkilled_parent():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(engine.__file__))))
    parent = subprocess.Popen(
        [sys.executable, "-c", _KILLED_PARENT],
        env=env, stdout=subprocess.PIPE, text=True,
    )
    try:
        worker = int(parent.stdout.readline())
    finally:
        parent.kill()
        parent.wait()
        parent.stdout.close()
    assert worker > 0, "the batch forked no worker"
    for _ in range(100):
        if gone(worker):
            return
        time.sleep(0.05)
    os.kill(worker, signal.SIGKILL)
    raise AssertionError("worker %d outlived its SIGKILLed parent by 5 s" % worker)


# ----------------------------------------------------------------------
# (h) what crosses the pipe, and what the pool logs
# ----------------------------------------------------------------------


@pytest.fixture
def unpickled(monkeypatch, tmp_path):
    """The pid of each process that unpickled a ``NetworkPlan``, in order."""
    record = tmp_path / "unpickled"

    def setstate(self, state):
        with open(str(record), "a") as handle:
            handle.write("%d\n" % os.getpid())
        self.__dict__.update(state)

    monkeypatch.setattr(NetworkPlan, "__setstate__", setstate, raising=False)
    return lambda: [int(pid) for pid in record.read_text().split()] if record.exists() else []


def test_a_sweep_ships_its_shared_network_once_per_worker(two_cpus, forks, unpickled):
    jobs = tiny_jobs(8)  # sixteen kind units over one network
    expected = serial_batch_bytes(jobs)
    assert unpickled() == []
    result = run_batch(jobs, workers=1)
    assert not result.failures()
    assert batch_bytes(result) == expected
    assert sorted(unpickled()) == sorted(forks)  # once in each worker
    assert len(forks) == (2 if CAN_FORK else 0)


def test_a_new_network_ships_again(two_cpus, forks, unpickled):
    jobs = tiny_jobs(3) + [BatchJob("netscale", dataclasses.replace(
        tiny_config(0), network=NetworkConfig(9, 4, 4)))]
    expected = serial_batch_bytes(jobs)
    result = run_batch(jobs, workers=1)
    assert not result.failures()
    assert batch_bytes(result) == expected
    shipped = unpickled()
    if CAN_FORK:
        # The first network reaches both workers; the last job's second
        # network reaches each worker that replays one of its kinds.
        assert set(shipped) <= set(forks)
        assert 3 <= len(shipped) <= 4
    else:
        assert shipped == []


def test_a_lost_worker_is_logged_once_and_output_stays_the_same(two_cpus, forks, caplog):
    jobs = tiny_jobs(6)
    expected = serial_batch_bytes(jobs)
    caplog.set_level(logging.DEBUG, logger="repro")

    def kill_the_first_worker(item, done, total, source):
        if done == 1 and forks:
            os.kill(forks[0], signal.SIGKILL)

    result = run_batch(jobs, workers=1, on_item=kill_the_first_worker)
    assert batch_bytes(result) == expected
    assert_reaped(forks)
    records = [(r.name, r.levelno, r.getMessage()) for r in caplog.records]
    warnings = [message for __, level, message in records if level >= logging.WARNING]
    if not CAN_FORK:
        assert records == []
        return
    assert len(warnings) == 1
    assert warnings[0].startswith("sweep worker %d died; " % forks[0])
    assert all(name == "repro.jobs.dispatch" for name, __, __ in records)
    forked = [message for __, level, message in records if level == logging.DEBUG]
    assert len(forked) == len(forks)
    assert all("forked sweep worker %d " % pid in message
               for pid, message in zip(forks, forked))


def test_the_engine_layers_log_nothing():
    root = os.path.dirname(os.path.dirname(os.path.abspath(engine.__file__)))
    for layer in ("sim", "net", "transport", "tor"):
        for name in os.listdir(os.path.join(root, layer)):
            if name.endswith(".py"):
                with open(os.path.join(root, layer, name)) as handle:
                    assert "logging" not in handle.read(), (layer, name)


def test_a_dead_worker_is_replaced_once_and_then_the_parent_replays(
    two_cpus, monkeypatch, caplog
):
    """Every worker dies at birth: each of the two is replaced once, the
    replacements are not, and the parent replays every kind itself."""
    jobs = tiny_jobs()
    expected = serial_batch_bytes(jobs)
    pids = []
    real_fork = os.fork

    def stillborn():
        pid = real_fork()
        if pid:
            pids.append(pid)
            os.kill(pid, signal.SIGKILL)
        return pid

    monkeypatch.setattr(os, "fork", stillborn)
    caplog.set_level(logging.WARNING, logger="repro.jobs.dispatch")
    result = run_batch(jobs, workers=1)
    assert batch_bytes(result) == expected
    assert len(pids) == (4 if CAN_FORK else 0)
    assert_reaped(pids)
    assert len(caplog.records) == len(pids)


def test_a_failed_fork_leaves_the_parent_to_replay(two_cpus, monkeypatch, caplog):
    jobs = tiny_jobs()
    expected = serial_batch_bytes(jobs)

    def no_fork():
        raise BlockingIOError(11, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", no_fork)
    caplog.set_level(logging.WARNING, logger="repro.jobs.dispatch")
    result = run_batch(jobs, workers=1)
    assert batch_bytes(result) == expected
    assert [r.getMessage().startswith("cannot fork a sweep worker")
            for r in caplog.records] == ([True] if CAN_FORK else [])
