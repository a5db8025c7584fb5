"""The engine's side-by-side replay of controller kinds, and its fallback.

``run_planned`` may replay a plan's kinds in forked children
(:func:`repro.scenario.engine._run_kinds`).  Everything observable must
be what the serial engine produces — results byte for byte, errors down
to the traceback text — children must never outlive the call, and the
"do not fork" conditions must hold: a small plan, one usable CPU, a
process that is itself somebody's child.

The plans here are small, so most tests lower the size floor.  With one
usable CPU (CI also runs this module under ``taskset -c 0``) the engine
never forks and every identity holds trivially; the fork counts are
asserted against what this process may actually use.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import multiprocessing
import multiprocessing.pool
import os
import signal
import traceback
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.experiments import study
from repro.experiments.adversity import AdversityStudyConfig
from repro.experiments.api import RunContext
from repro.experiments.churn_study import ChurnStudyConfig
from repro.experiments.netscale import NetScaleConfig
from repro.experiments.registry import get_experiment
from repro.experiments.runner import BatchJob, run_batch
from repro.scenario import engine, plan_scenario, run_planned, sharded
from repro.scenario.cache import PlanCache
from repro.scenario.netgen import NetworkConfig
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
        side = child if engine._in_child_process() else parent
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
    return engine._in_child_process(), len(pids), result_bytes(result)


def test_no_fork_inside_a_pool_worker():
    assert not engine._in_child_process()
    with ProcessPoolExecutor(max_workers=1) as pool:
        in_child, fork_count, result = pool.submit(_replay_in_worker).result(120)
    assert in_child
    assert fork_count == 0
    assert result == serial_bytes(lossless_plan())


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
    with ProcessPoolExecutor(max_workers=1) as pool:
        assert pool.submit(_study_sweep_workers).result(120) == [1]


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


def test_batch_is_byte_identical_in_process_and_pooled(low_floor, forks):
    jobs = [
        BatchJob("netscale", netscale_config(), label="ok"),
        BatchJob("netscale", second_kind_fails(), label="late"),
        BatchJob("netscale", netscale_config(seed=7), label="ok-7"),
    ]
    in_process = run_batch(jobs, workers=1)
    # Kinds forked in-process: once per good job, once for the failing one.
    assert len(forks) == (3 if CAN_FORK else 0)
    pooled = run_batch(jobs, workers=2)
    assert json.dumps(in_process.to_dict(), sort_keys=True) == json.dumps(
        pooled.to_dict(), sort_keys=True
    )
    errors = [item.error for item in in_process.items]
    assert errors[0] is None and errors[2] is None
    assert errors[1]["type"] == "UnfinishedCircuitsError"
    assert "_run_kind" in errors[1]["traceback"]
    assert_reaped(forks[:3])
