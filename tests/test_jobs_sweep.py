"""Crash-resume, interrupt and failure semantics of checkpointed sweeps.

The byte-identity bar these tests pin: a sweep killed at any point and
resumed produces output byte-identical to an uninterrupted run — at
workers=1 (a SIGKILLed serial sweep *process*, driven as a subprocess)
and at workers=4 (a SIGKILLed pool worker, in-process).  The probe
experiments live in ``_sweep_exps`` so the subprocess driver registers
exactly the same code the in-process assertions use.
"""

from __future__ import annotations

import json
import os
import re
import signal
import subprocess
import sys

import pytest
from helpers import SHORT_HORIZON_ERROR, SHORT_HORIZON_SCENARIO

import _sweep_exps
import repro
from repro.experiments.runner import run_batch
from repro.jobs import JobStore, SweepBroken, SweepInterrupted


@pytest.fixture(autouse=True)
def probe_experiments():
    _sweep_exps.install()
    yield
    _sweep_exps.uninstall()


def canonical(batch) -> str:
    """The serialized sweep output, exactly as ``repro batch`` writes it."""
    return json.dumps(batch.to_dict(), indent=2, sort_keys=True)


def fuse_jobs(marker, count=5, kill_index=2):
    """A sweep where one job SIGKILLs its process the first time it runs."""
    return [
        {"experiment": "test-fuse", "label": "v%d" % value,
         "spec": {"value": value,
                  "kill_marker": str(marker) if value == kill_index else None}}
        for value in range(count)
    ]


def trip_jobs(marker, count=4, trip_index=1):
    """A sweep where one job raises KeyboardInterrupt the first time."""
    return [
        {"experiment": "test-trip", "label": "v%d" % value,
         "spec": {"value": value,
                  "trip_marker": str(marker) if value == trip_index else None}}
        for value in range(count)
    ]


def reference_run(jobs, marker, **kwargs):
    """The uninterrupted baseline: arm the marker so nothing sabotages."""
    marker.write_text("armed\n")
    try:
        return canonical(run_batch(jobs, **kwargs))
    finally:
        marker.unlink()


# ----------------------------------------------------------------------
# Kill and resume: workers=1 (whole process) and workers=4 (one worker)
# ----------------------------------------------------------------------

_DRIVER = """\
import json, sys
import _sweep_exps
_sweep_exps.install()
from repro.experiments.runner import run_batch
with open(sys.argv[1]) as handle:
    config = json.load(handle)
run_batch(config["jobs"], workers=config["workers"],
          base_seed=config["base_seed"],
          checkpoint_dir=config["checkpoint"])
"""


def _run_driver(config_path) -> subprocess.CompletedProcess:
    src_dir = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    tests_dir = os.path.dirname(os.path.abspath(_sweep_exps.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([src_dir, tests_dir])
    return subprocess.run(
        [sys.executable, "-c", _DRIVER, str(config_path)],
        env=env, capture_output=True, text=True, timeout=120,
    )


def test_kill_and_resume_byte_identical_workers1(tmp_path):
    marker = tmp_path / "fuse.armed"
    ckpt = tmp_path / "ckpt"
    jobs = fuse_jobs(marker)
    reference = reference_run(jobs, marker, workers=1, base_seed=7)

    config_path = tmp_path / "driver.json"
    config_path.write_text(json.dumps({
        "jobs": jobs, "workers": 1, "base_seed": 7,
        "checkpoint": str(ckpt),
    }))
    proc = _run_driver(config_path)
    assert proc.returncode == -signal.SIGKILL, proc.stderr
    assert marker.exists()  # the fuse blew, killing the sweep process

    # Serial order: jobs 0 and 1 checkpointed, job 2 died in flight
    # (its lease survives as the orphan), jobs 3 and 4 never started.
    store = JobStore(str(ckpt))
    assert len(store.keys()) == 2
    orphans = store.orphaned_leases()
    assert [record["index"] for record in orphans.values()] == [2]

    resumed = run_batch(jobs, workers=1, base_seed=7,
                        checkpoint_dir=str(ckpt), resume=True)
    assert canonical(resumed) == reference
    assert resumed.checkpoint["reused"] == 2
    assert resumed.checkpoint["computed"] == 3
    assert set(resumed.checkpoint["orphans"]) == set(orphans)


def test_kill_and_resume_byte_identical_workers4(tmp_path):
    marker = tmp_path / "fuse.armed"
    ckpt = tmp_path / "ckpt"
    jobs = fuse_jobs(marker)
    reference = reference_run(jobs, marker, workers=1, base_seed=7)

    with pytest.raises(SweepBroken) as crash:
        run_batch(jobs, workers=4, base_seed=7, checkpoint_dir=str(ckpt))
    assert marker.exists()
    assert crash.value.total == len(jobs)

    store = JobStore(str(ckpt))
    orphan_indexes = {
        record["index"] for record in store.orphaned_leases().values()
    }
    assert 2 in orphan_indexes  # the killed worker's in-flight job

    resumed = run_batch(jobs, workers=4, base_seed=7,
                        checkpoint_dir=str(ckpt), resume=True)
    assert canonical(resumed) == reference
    counts = resumed.checkpoint
    assert counts["reused"] + counts["computed"] == len(jobs)
    assert counts["computed"] >= 1  # the killed job was never durable


# ----------------------------------------------------------------------
# Ctrl-C is a pause: completed jobs are flushed, resume finishes
# ----------------------------------------------------------------------


def test_interrupt_is_a_pause_serial(tmp_path):
    marker = tmp_path / "trip.armed"
    ckpt = tmp_path / "ckpt"
    jobs = trip_jobs(marker)
    reference = reference_run(jobs, marker, workers=1, base_seed=3)

    with pytest.raises(SweepInterrupted) as pause:
        run_batch(jobs, workers=1, base_seed=3, checkpoint_dir=str(ckpt))
    # Serial order: exactly job 0 completed — and is already durable.
    assert [outcome.index for outcome in pause.value.outcomes] == [0]
    assert pause.value.total == len(jobs)
    assert len(JobStore(str(ckpt)).keys()) == 1

    resumed = run_batch(jobs, workers=1, base_seed=3,
                        checkpoint_dir=str(ckpt), resume=True)
    assert canonical(resumed) == reference
    assert resumed.checkpoint["reused"] == 1
    assert resumed.checkpoint["computed"] == len(jobs) - 1


def test_interrupt_in_pool_worker_tears_down_and_resumes(tmp_path, monkeypatch):
    marker = tmp_path / "trip.armed"
    ckpt = tmp_path / "ckpt"
    jobs = trip_jobs(marker, count=6, trip_index=2)
    reference = reference_run(jobs, marker, workers=1, base_seed=3)

    pids = []
    real_fork = os.fork

    def fork():
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    with pytest.raises(SweepInterrupted):
        run_batch(jobs, workers=2, base_seed=3, checkpoint_dir=str(ckpt))
    monkeypatch.undo()

    # The pool must be torn down, not abandoned: every worker process
    # is gone and reaped once the interrupt surfaces.
    assert pids
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)

    resumed = run_batch(jobs, workers=2, base_seed=3,
                        checkpoint_dir=str(ckpt), resume=True)
    assert canonical(resumed) == reference


# ----------------------------------------------------------------------
# Per-job failure capture
# ----------------------------------------------------------------------


def flaky_jobs():
    return [
        {"experiment": "test-flaky", "label": "ok-a", "spec": {"value": 1}},
        {"experiment": "test-flaky", "label": "boom",
         "spec": {"value": 2, "fail": True}},
        {"experiment": "test-flaky", "label": "ok-b", "spec": {"value": 3}},
    ]


def test_one_failing_job_yields_structured_error_others_complete():
    batch = run_batch(flaky_jobs(), workers=1)
    assert len(batch.items) == 3
    failures = batch.failures()
    assert [item.index for item in failures] == [1]
    error = failures[0].error
    assert error["type"] == "ValueError"
    assert "told to fail (value=2)" in error["message"]
    assert error["experiment"] == "test-flaky"
    assert error["label"] == "boom"
    assert len(error["spec_hash"]) == 64
    assert "ValueError" in error["traceback"]
    assert failures[0].failed and failures[0].result == {}
    with pytest.raises(ValueError, match="boom|ValueError|failed"):
        failures[0].result_object()
    # The surviving jobs are ordinary completed items.
    assert batch.items[0].result_object().value == 2
    assert batch.items[2].result_object().value == 6


def test_unfinished_fault_free_run_is_the_jobs_error(tmp_path):
    """``batch`` and ``serve`` record a run that cannot finish in its
    horizon as that job's error, and the sweep goes on."""
    job = {"experiment": "scenario", "spec": SHORT_HORIZON_SCENARIO}
    batch = run_batch([job], workers=1, checkpoint_dir=str(tmp_path / "ckpt"))
    assert batch.checkpoint["failed"] == 1
    error = batch.items[0].error
    assert error["type"] == "UnfinishedCircuitsError"
    assert re.match(SHORT_HORIZON_ERROR, error["message"]), error["message"]


def test_failure_records_identical_serial_and_pooled():
    serial = canonical(run_batch(flaky_jobs(), workers=1))
    pooled = canonical(run_batch(flaky_jobs(), workers=2))
    assert serial == pooled


def test_failed_jobs_are_not_checkpointed_and_retry_on_resume(tmp_path):
    ckpt = tmp_path / "ckpt"
    first = run_batch(flaky_jobs(), workers=1, checkpoint_dir=str(ckpt))
    assert first.checkpoint["failed"] == 1
    assert first.checkpoint["computed"] == 3
    assert len(JobStore(str(ckpt)).keys()) == 2  # the failure stayed out

    again = run_batch(flaky_jobs(), workers=1, checkpoint_dir=str(ckpt),
                      resume=True)
    assert again.checkpoint["reused"] == 2
    assert again.checkpoint["computed"] == 1  # the failed job retried
    assert again.checkpoint["failed"] == 1
    assert canonical(again) == canonical(first)


# ----------------------------------------------------------------------
# Dedup, idempotent resubmission, streaming
# ----------------------------------------------------------------------


def test_identical_jobs_execute_once_with_a_store(tmp_path):
    jobs = [
        {"experiment": "test-flaky", "label": "a", "spec": {"value": 4}},
        {"experiment": "test-flaky", "label": "b", "spec": {"value": 4}},
        {"experiment": "test-flaky", "label": "c", "spec": {"value": 5}},
    ]
    batch = run_batch(jobs, workers=1, checkpoint_dir=str(tmp_path / "ckpt"))
    assert batch.checkpoint["computed"] == 2
    assert batch.checkpoint["duplicates"] == 1
    assert batch.items[0].result == batch.items[1].result
    assert batch.items[0].label == "a" and batch.items[1].label == "b"
    # Without a store there is no dedup (and no checkpoint metadata).
    plain = run_batch(jobs, workers=1)
    assert plain.checkpoint is None
    assert canonical(plain) == canonical(batch)


def test_resubmitting_a_finished_sweep_recomputes_nothing(tmp_path):
    ckpt = str(tmp_path / "ckpt")
    jobs = [
        {"experiment": "test-flaky", "label": "v%d" % v, "spec": {"value": v}}
        for v in range(4)
    ]
    first = run_batch(jobs, workers=2, checkpoint_dir=ckpt)
    second = run_batch(jobs, workers=1, checkpoint_dir=ckpt)
    assert second.checkpoint["reused"] == 4
    assert second.checkpoint["computed"] == 0
    assert canonical(second) == canonical(first)


def test_streaming_callback_sees_every_job_in_completion_order(tmp_path):
    ckpt = str(tmp_path / "ckpt")
    jobs = [
        {"experiment": "test-flaky", "label": "v%d" % v, "spec": {"value": v}}
        for v in range(3)
    ]
    run_batch(jobs, workers=1, checkpoint_dir=ckpt)

    seen = []

    def on_item(item, done, total, source):
        seen.append((item.index, done, total, source))

    resumed = run_batch(jobs, workers=1, checkpoint_dir=ckpt, on_item=on_item)
    assert [entry[1] for entry in seen] == [1, 2, 3]
    assert all(total == 3 for __, __, total, __ in seen)
    assert all(source == "checkpoint" for __, __, __, source in seen)
    assert sorted(entry[0] for entry in seen) == [0, 1, 2]
    assert resumed.checkpoint["reused"] == 3


# ----------------------------------------------------------------------
# One sweep, every way a job can end: the stream, the counters, the
# exceptions' records, the keys
# ----------------------------------------------------------------------


def tiny_netscale(extra, label):
    """A ~5 ms scenario-backed job (the ``sweep-tiny`` shape)."""
    return {"experiment": "netscale", "label": label, "spec": {
        "circuit_count": 2, "bulk_fraction": 1.0,
        "bulk_payload_bytes": 4096 + extra,
        "network": {"relay_count": 8, "client_count": 4, "server_count": 4},
    }}


#: index -> how the job ends, once ``kept-a`` and ``kept-b`` are on disk.
MIXED_SOURCES = {0: "run", 1: "checkpoint", 2: "duplicate", 3: "run",
                 4: "checkpoint", 5: "run"}


def mixed_jobs():
    jobs = [
        tiny_netscale(0, "fresh"),
        tiny_netscale(1, "kept-a"),
        tiny_netscale(0, "twin"),  # the same bytes as "fresh"
        {"experiment": "test-flaky", "label": "boom",
         "spec": {"value": 7, "fail": True}},
        tiny_netscale(2, "kept-b"),
        tiny_netscale(3, "fresh-b"),
    ]
    return jobs, [jobs[1], jobs[4]]


@pytest.mark.parametrize("workers", (1, 2))
def test_mixed_sweep_stream_counters_and_cache_totals(tmp_path, workers):
    from repro.scenario.cache import DEFAULT_CACHE

    ckpt = str(tmp_path / "ckpt")
    jobs, kept = mixed_jobs()
    run_batch(kept, workers=1, checkpoint_dir=ckpt)
    seen = []

    def on_item(item, done, total, source):
        seen.append((item, done, total, source))

    DEFAULT_CACHE.clear()
    batch = run_batch(jobs, workers=workers, checkpoint_dir=ckpt,
                      on_item=on_item)

    order = [item.index for item, __, __, __ in seen]
    assert [done for __, done, __, __ in seen] == [1, 2, 3, 4, 5, 6]
    assert all(total == 6 for __, __, total, __ in seen)
    assert {item.index: source for item, __, __, source in seen} == MIXED_SOURCES
    assert order[:2] == [1, 4]  # prefills first, in input order
    assert order.index(2) == order.index(0) + 1  # the twin right behind
    if workers == 1:
        assert order == [1, 4, 0, 2, 3, 5]
    # What streamed is what merged, in input order.
    assert sorted((item for item, __, __, __ in seen),
                  key=lambda item: item.index) == batch.items
    assert [item.label for item in batch.items] == [
        "fresh", "kept-a", "twin", "boom", "kept-b", "fresh-b"
    ]
    assert batch.items[2].result == batch.items[0].result != {}
    assert [item.index for item in batch.failures()] == [3]
    assert batch.items[3].error["label"] == "boom"

    assert batch.checkpoint == {
        "reused": 2, "computed": 3, "duplicates": 1, "failed": 1,
        "directory": os.path.abspath(ckpt), "orphans": {},
    }
    # Only the two executed scenario jobs consulted the plan cache: the
    # prefills, the twin and the probe job add nothing to the totals.
    cache = batch.plan_cache
    assert sorted(cache) == sorted(DEFAULT_CACHE.stats())
    assert (cache["plan_hits"], cache["plan_misses"]) == (0, 2)
    assert cache["network_hits"] + cache["network_misses"] == 2
    if workers == 1:
        assert (cache["network_hits"], cache["network_misses"]) == (1, 1)
    assert not any(cache[name] for name in cache if name.startswith("disk_"))


def assert_twins_follow_their_primaries(outcomes):
    for position, outcome in enumerate(outcomes):
        if outcome.source == "duplicate":
            primary = outcomes[position - 1]
            assert position and primary.key == outcome.key
            assert primary.result == outcome.result


@pytest.mark.parametrize("workers", (1, 2))
def test_interrupt_carries_prefills_and_duplicates(tmp_path, workers):
    marker = tmp_path / "trip.armed"
    ckpt = str(tmp_path / "ckpt")
    jobs = trip_jobs(marker, count=5, trip_index=3)
    jobs[2] = dict(jobs[1], label="twin")  # job 2 is job 1 again
    run_batch([jobs[0]], workers=1, checkpoint_dir=ckpt)

    with pytest.raises(SweepInterrupted) as pause:
        run_batch(jobs, workers=workers, checkpoint_dir=ckpt)
    outcomes = pause.value.outcomes
    assert pause.value.total == len(jobs)
    assert (outcomes[0].index, outcomes[0].source) == (0, "checkpoint")
    assert_twins_follow_their_primaries(outcomes)
    if workers == 1:
        assert [(outcome.index, outcome.source) for outcome in outcomes] == [
            (0, "checkpoint"), (1, "run"), (2, "duplicate"),
        ]


def test_worker_death_carries_prefills_and_duplicates(tmp_path):
    marker = tmp_path / "fuse.armed"
    ckpt = str(tmp_path / "ckpt")
    jobs = fuse_jobs(marker, count=5, kill_index=4)
    jobs[2] = dict(jobs[1], label="twin")
    run_batch([jobs[0]], workers=1, checkpoint_dir=ckpt)

    with pytest.raises(SweepBroken) as crash:
        run_batch(jobs, workers=2, checkpoint_dir=ckpt)
    outcomes = crash.value.outcomes
    assert crash.value.total == len(jobs)
    assert (outcomes[0].index, outcomes[0].source) == (0, "checkpoint")
    assert_twins_follow_their_primaries(outcomes)
    assert {outcome.index for outcome in outcomes} <= {0, 1, 2, 3}


def test_dry_run_prints_exactly_the_keys_serve_writes(tmp_path, capsys):
    from repro.cli import main

    jobs = fuse_jobs(tmp_path / "never.armed", count=4, kill_index=-1)
    specs = tmp_path / "specs.json"
    specs.write_text(json.dumps(jobs))
    ckpt = tmp_path / "ckpt"

    assert main(["batch", str(specs), "--dry-run", "--base-seed", "11"]) == 0
    printed = [line.split("key=")[1].strip()
               for line in capsys.readouterr().out.splitlines()
               if "key=" in line]
    assert len(set(printed)) == len(jobs)
    assert main(["serve", str(specs), "--checkpoint", str(ckpt),
                 "--base-seed", "11", "--progress", "none"]) == 0
    written = sorted(name[:-len(".json")]
                     for name in os.listdir(str(ckpt / "results")))
    assert sorted(printed) == written
    # Another base seed re-seeds every job: not one key in common.
    assert main(["batch", str(specs), "--dry-run", "--base-seed", "12"]) == 0
    assert not set(written) & {
        line.split("key=")[1].strip()
        for line in capsys.readouterr().out.splitlines() if "key=" in line
    }
