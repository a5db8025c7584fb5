"""The disk tier of the plan cache (repro.scenario.cache.DiskPlanCache).

The load-bearing guarantee: a plan loaded from disk produces
byte-identical experiment output to one planned cold, in-process or
across processes — and every failure mode (truncated entry, stale
format, unwritable directory, a lock file a killed planner left behind)
degrades to cold planning, never to an error, a wait or different
output.  Processes racing on one cold key are not coordinated: each
plans it and publishes the same bytes.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import time

import pytest

from repro.experiments import run_batch
from repro.scenario import (
    BulkWorkload,
    DiskPlanCache,
    GeneratedTopology,
    NetworkConfig,
    NetworkPlan,
    PlanCache,
    Scenario,
    ScenarioPlan,
    plan_network,
    plan_scenario,
    run_planned,
    run_scenario,
    spec_hash,
)
from repro.serialize import encode
from repro.sim.rand import RandomStreams
from repro.storage import FORMAT_VERSION
from repro.units import kib

from helpers import assert_shared_tier_counters, read_header, rewrite_header


def small_network(**overrides) -> NetworkConfig:
    defaults = dict(relay_count=10, client_count=8, server_count=8)
    defaults.update(overrides)
    return NetworkConfig(**defaults)


def small_scenario(**overrides) -> Scenario:
    defaults = dict(
        topology=GeneratedTopology(
            network=small_network(), force_bottleneck=True
        ),
        workloads=(BulkWorkload(payload_bytes=kib(40)),),
        circuit_count=4,
    )
    defaults.update(overrides)
    return Scenario(**defaults)


def result_json(result) -> str:
    return json.dumps(result.to_dict(), sort_keys=True)


# ----------------------------------------------------------------------
# Round trips
# ----------------------------------------------------------------------


def test_network_plan_round_trips():
    plan = plan_network(small_network(), RandomStreams(7))
    rebuilt = NetworkPlan.from_dict(plan.to_dict())
    assert encode(rebuilt) == encode(plan)
    # The rebuilt consensus directory names the same relays at the same
    # rates (Rate objects round-trip through bytes/second).
    assert [
        (d.name, d.bandwidth.bytes_per_second)
        for d in rebuilt.build_directory()._relays.values()
    ] == [
        (d.name, d.bandwidth.bytes_per_second)
        for d in plan.build_directory()._relays.values()
    ]


def test_scenario_plan_round_trip_equals_cold_plan():
    scenario = small_scenario()
    cold = plan_scenario(scenario, cache=None)
    rebuilt = ScenarioPlan.from_dict(cold.to_dict())
    assert encode(rebuilt) == encode(cold)
    # The guarantee that matters: the round-tripped plan *runs*
    # byte-identically to the cold one.
    assert result_json(run_planned(rebuilt)) == result_json(run_planned(cold))


# ----------------------------------------------------------------------
# Disk tier: persistence across cache instances / processes
# ----------------------------------------------------------------------


def test_disk_tier_shares_plans_across_cache_instances(tmp_path):
    scenario = small_scenario()
    directory = str(tmp_path / "plan-cache")

    writer = PlanCache(disk=DiskPlanCache(directory))
    written = plan_scenario(scenario, cache=writer)
    assert writer.stats()["plan_misses"] == 1
    assert writer.disk.stats()["disk_plan_misses"] == 1  # consulted before planning

    # A fresh PlanCache (a new process, in effect) is served from disk:
    # no re-planning, no network generation.
    reader = PlanCache(disk=DiskPlanCache(directory))
    loaded = plan_scenario(scenario, cache=reader)
    assert reader.stats()["plan_hits"] == 1 and reader.stats()["plan_misses"] == 0
    assert reader.stats()["network_misses"] == 0
    assert reader.disk.stats()["disk_plan_hits"] == 1
    assert encode(loaded) == encode(written)

    # Byte-identical experiment output, disk-loaded vs fully cold.
    assert result_json(run_planned(loaded)) == \
        result_json(run_scenario(scenario, cache=None))


def test_disk_hit_of_a_float_field_spelled_as_an_int_is_byte_identical(tmp_path):
    """``max_sim_time=60`` comes back from disk as ``60.0``.

    The two spellings encode, and so hash, differently: serving the
    stored plan would echo ``60.0`` in a result whose cold run says
    ``60``.  The disk tier must answer this spec with a cold plan.
    """
    scenario = small_scenario(max_sim_time=60)
    cold = result_json(run_scenario(scenario, cache=None))
    directory = _warm_directory(tmp_path, scenario)
    reader = PlanCache(disk=DiskPlanCache(directory))
    assert result_json(run_planned(plan_scenario(scenario, cache=reader))) == cold


def test_disk_tier_shares_network_plans(tmp_path):
    directory = str(tmp_path / "plan-cache")
    writer = PlanCache(disk=DiskPlanCache(directory))
    plan_scenario(small_scenario(circuit_count=3), cache=writer)

    # A different spec over the same network, in a fresh cache: the
    # scenario plan misses but the network comes from disk.
    reader = PlanCache(disk=DiskPlanCache(directory))
    warm = plan_scenario(small_scenario(circuit_count=5), cache=reader)
    assert reader.stats()["plan_misses"] == 1
    assert reader.stats()["network_hits"] == 1 and reader.stats()["network_misses"] == 0
    assert reader.disk.stats()["disk_network_hits"] == 1

    cold = plan_scenario(small_scenario(circuit_count=5), cache=None)
    assert encode(warm) == encode(cold)


def test_memory_hit_skips_disk(tmp_path):
    scenario = small_scenario()
    cache = PlanCache(disk=DiskPlanCache(str(tmp_path)))
    plan_scenario(scenario, cache=cache)
    consults = cache.disk.stats()["disk_plan_hits"] + cache.disk.stats()["disk_plan_misses"]
    plan_scenario(scenario, cache=cache)  # memory hit
    assert cache.stats()["plan_hits"] == 1
    assert cache.disk.stats()["disk_plan_hits"] + cache.disk.stats()["disk_plan_misses"] == consults


# ----------------------------------------------------------------------
# Failure modes: every defect degrades to a cold plan
# ----------------------------------------------------------------------


def _entry_paths(directory: str):
    paths = []
    for kind in ("plans", "networks"):
        kind_dir = os.path.join(directory, kind)
        if os.path.isdir(kind_dir):
            paths.extend(
                os.path.join(kind_dir, name)
                for name in os.listdir(kind_dir)
                if name.endswith(".json")
            )
    return sorted(paths)


def _warm_directory(tmp_path, scenario) -> str:
    directory = str(tmp_path / "plan-cache")
    plan_scenario(scenario, cache=PlanCache(disk=DiskPlanCache(directory)))
    return directory


def test_truncated_entry_falls_back_to_cold_plan(tmp_path):
    scenario = small_scenario()
    directory = _warm_directory(tmp_path, scenario)
    for path in _entry_paths(directory):
        with open(path, "r") as handle:
            blob = handle.read()
        with open(path, "w") as handle:
            handle.write(blob[: len(blob) // 2])  # mid-write crash shape

    cache = PlanCache(disk=DiskPlanCache(directory))
    plan = plan_scenario(scenario, cache=cache)
    assert cache.stats()["plan_misses"] == 1 and cache.disk.stats()["disk_plan_misses"] == 1
    assert encode(plan) == encode(plan_scenario(scenario, cache=None))


def test_rewriting_a_header_with_its_own_values_is_still_a_hit(tmp_path):
    """The header-edit tests below miss for the field they change.

    ``rewrite_header`` itself leaves a servable entry: with every field
    set to what it already was, both levels are still disk hits.
    """
    scenario = small_scenario()
    directory = _warm_directory(tmp_path, scenario)
    for path in _entry_paths(directory):
        rewrite_header(path, **read_header(path))

    cache = PlanCache(disk=DiskPlanCache(directory))
    plan = plan_scenario(scenario, cache=cache)
    assert cache.stats()["disk_plan_hits"] == 1 and cache.stats()["plan_misses"] == 0
    assert DiskPlanCache(directory).get_network(
        spec_hash(scenario.topology.network_fingerprint(scenario))
    ) is not None
    assert encode(plan) == encode(plan_scenario(scenario, cache=None))


def test_wrong_format_version_is_a_miss(tmp_path):
    scenario = small_scenario()
    directory = _warm_directory(tmp_path, scenario)
    for path in _entry_paths(directory):
        rewrite_header(path, format=FORMAT_VERSION + 1)

    cache = PlanCache(disk=DiskPlanCache(directory))
    plan = plan_scenario(scenario, cache=cache)
    assert cache.disk.stats()["disk_plan_hits"] == 0 and cache.disk.stats()["disk_plan_misses"] == 1
    assert encode(plan) == encode(plan_scenario(scenario, cache=None))
    # Re-planning republished the entries at the current version.
    assert read_header(_entry_paths(directory)[0])["format"] == FORMAT_VERSION


def test_garbage_entry_is_a_miss(tmp_path):
    scenario = small_scenario()
    directory = _warm_directory(tmp_path, scenario)
    for path in _entry_paths(directory):
        with open(path, "w") as handle:
            handle.write("not json at all {{{")

    cache = PlanCache(disk=DiskPlanCache(directory))
    plan = plan_scenario(scenario, cache=cache)
    assert cache.stats()["plan_misses"] == 1
    assert encode(plan) == encode(plan_scenario(scenario, cache=None))


def test_entry_from_different_planner_code_is_a_miss(tmp_path):
    """Entries written by another planner version never serve.

    CI persists the cache directory across commits (actions/cache) and
    users keep REPRO_PLAN_CACHE pointed at one directory across
    upgrades; a planning-behavior change that leaves the entry layout
    intact must still invalidate.
    """
    scenario = small_scenario()
    directory = _warm_directory(tmp_path, scenario)
    for path in _entry_paths(directory):
        rewrite_header(path, source="e" * 64)  # some other commit's planner

    cache = PlanCache(disk=DiskPlanCache(directory))
    plan = plan_scenario(scenario, cache=cache)
    assert cache.disk.stats()["disk_plan_hits"] == 0 and cache.stats()["plan_misses"] == 1
    assert encode(plan) == encode(plan_scenario(scenario, cache=None))


def _forget_fingerprints(monkeypatch):
    """Make the next stamp re-read the sources, whichever module memoizes it."""
    import repro.jobs.store
    import repro.scenario.cache
    import repro.storage

    for module in (repro.storage, repro.scenario.cache, repro.jobs.store):
        for name in list(vars(module)):
            if name.endswith("fingerprint_memo"):
                monkeypatch.setattr(module, name, None)


def test_entry_predating_an_edit_of_the_fault_planner_is_a_miss(
        tmp_path, monkeypatch):
    """``scenario/faults.py`` draws the fault events a plan persists.

    The stamp has to see its bytes: a plan with relay churn written to
    a disk tier, then an edit of that file (served here by patching
    the reader the stamp goes through), must not be served again.
    """
    import builtins
    import io

    import repro.scenario.faults as faults_module
    from repro.scenario import RelayChurnFaults

    scenario = small_scenario(faults=(RelayChurnFaults(mttf=2.0),))
    _forget_fingerprints(monkeypatch)
    directory = _warm_directory(tmp_path, scenario)
    warm = PlanCache(disk=DiskPlanCache(directory))
    assert plan_scenario(scenario, cache=warm).fault_events
    assert warm.disk.stats()["disk_plan_hits"] == 1  # same code: served

    real_open = builtins.open
    target = os.path.realpath(faults_module.__file__)

    def open_edited(file, mode="r", *args, **kwargs):
        handle = real_open(file, mode, *args, **kwargs)
        if mode == "rb" and os.path.realpath(file) == target:
            with handle:
                return io.BytesIO(handle.read() + b"\n# a different draw\n")
        return handle

    monkeypatch.setattr(builtins, "open", open_edited)
    _forget_fingerprints(monkeypatch)
    cache = PlanCache(disk=DiskPlanCache(directory))
    plan = plan_scenario(scenario, cache=cache)
    stats = cache.stats()
    assert stats["disk_plan_hits"] == 0 and stats["disk_network_hits"] == 0
    assert stats["plan_misses"] == 1 and stats["network_misses"] == 1
    assert encode(plan) == encode(plan_scenario(scenario, cache=None))


def test_directory_stamped_by_the_module_list_reads_as_all_miss(tmp_path):
    """What a checkout before the whole-package stamp left behind.

    Those entries carry a hash over a hand-kept list of planner
    modules; under the one stamp both stores share now they are plain
    misses (never an error), replanned and republished.
    """
    import hashlib

    scenario = small_scenario()
    directory = _warm_directory(tmp_path, scenario)
    digest = hashlib.sha256()
    for name in ("repro.scenario.spec", "repro.scenario.netgen", "repro.units"):
        digest.update(name.encode("utf-8"))
    for path in _entry_paths(directory):
        rewrite_header(path, source=digest.hexdigest())

    cache = PlanCache(disk=DiskPlanCache(directory))
    plan = plan_scenario(scenario, cache=cache)
    stats = cache.stats()
    assert stats["disk_plan_hits"] == 0 and stats["disk_network_hits"] == 0
    assert stats["disk_plan_misses"] == 1 and stats["disk_network_misses"] == 1
    assert encode(plan) == encode(plan_scenario(scenario, cache=None))
    reader = PlanCache(disk=DiskPlanCache(directory))
    plan_scenario(scenario, cache=reader)
    assert reader.stats()["disk_plan_hits"] == 1  # republished under the new stamp


def test_scan_sweeps_orphaned_temp_and_lock_files(tmp_path):
    """A killed writer's leftovers don't accumulate in a shared directory."""
    directory = str(tmp_path / "plan-cache")
    disk = DiskPlanCache(directory)
    plan = plan_scenario(small_scenario(), cache=None)
    disk.put_plan(plan.spec_hash, plan)

    plans_dir = os.path.join(directory, "plans")
    orphan_tmp = os.path.join(plans_dir, "x" * 64 + ".json.123.tmp")
    orphan_lock = os.path.join(plans_dir, "x" * 64 + ".lock")
    for orphan in (orphan_tmp, orphan_lock):
        with open(orphan, "w") as handle:
            handle.write("killed mid-write")
        os.utime(orphan, (1, 1))  # ancient: dead by protocol
    fresh_lock = os.path.join(plans_dir, "y" * 64 + ".lock")
    with open(fresh_lock, "w") as handle:
        handle.write("live planner")

    disk.total_bytes()  # any scan runs the janitor
    assert not os.path.exists(orphan_tmp)
    assert not os.path.exists(orphan_lock)
    assert os.path.exists(fresh_lock)  # recent files are left alone
    assert os.path.exists(os.path.join(plans_dir, plan.spec_hash + ".json"))


def test_entry_under_wrong_key_is_a_miss(tmp_path):
    """A copied/renamed entry (partial rsync, manual restore) never serves."""
    import shutil

    scenario = small_scenario()
    directory = _warm_directory(tmp_path, scenario)
    network_path = next(
        path for path in _entry_paths(directory)
        if os.sep + "networks" + os.sep in path
    )
    bogus = os.path.join(os.path.dirname(network_path), "f" * 64 + ".json")
    shutil.copy(network_path, bogus)

    disk = DiskPlanCache(directory)
    assert disk.get_network("f" * 64) is None  # key mismatch inside file
    assert disk.stats()["disk_network_misses"] == 1


def test_unusable_directory_degrades_to_memory_only(tmp_path):
    # Point the disk tier at a *file*: every open/mkdir under it fails
    # (works under root too, unlike permission bits), standing in for
    # any unwritable/unreadable cache directory.
    blocker = tmp_path / "not-a-directory"
    blocker.write_text("occupied")
    scenario = small_scenario()
    cache = PlanCache(disk=DiskPlanCache(str(blocker)))
    plan = plan_scenario(scenario, cache=cache)
    assert encode(plan) == encode(plan_scenario(scenario, cache=None))
    # Memory tier still works; disk never produced a hit.
    assert plan_scenario(scenario, cache=cache) is plan
    assert cache.disk.stats()["disk_plan_hits"] == 0
    assert blocker.read_text() == "occupied"  # nothing clobbered it


@pytest.mark.skipif(os.geteuid() == 0, reason="root ignores permission bits")
def test_readonly_directory_degrades_to_memory_only(tmp_path):
    directory = tmp_path / "readonly"
    directory.mkdir()
    directory.chmod(0o500)
    try:
        scenario = small_scenario()
        cache = PlanCache(disk=DiskPlanCache(str(directory)))
        plan = plan_scenario(scenario, cache=cache)
        assert encode(plan) == encode(plan_scenario(scenario, cache=None))
    finally:
        directory.chmod(0o700)


# ----------------------------------------------------------------------
# Racing planners
# ----------------------------------------------------------------------


def test_a_leftover_lock_file_never_stalls_a_planner(tmp_path):
    """A planner SIGKILLed mid-plan left ``<spec-hash>.lock`` behind.

    No one reads lock files, so the next planner of that key plans at
    once; it must not wait for an owner that will never publish.
    """
    scenario = small_scenario()
    directory = str(tmp_path / "plan-cache")
    plans_dir = os.path.join(directory, "plans")
    os.makedirs(plans_dir)
    with open(os.path.join(plans_dir, spec_hash(scenario) + ".lock"), "w") as handle:
        handle.write("4242:1234567:0")  # the dead owner's token

    started = time.monotonic()
    plan = plan_scenario(scenario, cache=PlanCache(disk=DiskPlanCache(directory)))
    assert time.monotonic() - started < 0.5
    assert encode(plan) == encode(plan_scenario(scenario, cache=None))


def _race_worker(args):
    directory, circuit_count = args
    cache = PlanCache(disk=DiskPlanCache(directory))
    scenario = small_scenario(circuit_count=circuit_count)
    plan = plan_scenario(scenario, cache=cache)
    return encode(plan), cache.stats()


def test_two_processes_racing_on_one_directory(tmp_path):
    """Two specs over one network, one fresh cache per process.

    Both processes may miss the network key at once; then both plan it
    and both publish the same bytes.  Whatever the interleaving, every
    plan equals its cold plan and the directory stays readable.
    """
    directory = str(tmp_path / "plan-cache")
    counts = (4, 5)
    with multiprocessing.Pool(2) as pool:
        outputs = pool.map(
            _race_worker, [(directory, count) for count in counts], chunksize=1
        )
    cold = [
        encode(plan_scenario(small_scenario(circuit_count=count), cache=None))
        for count in counts
    ]
    assert [plan for plan, __ in outputs] == cold
    totals = {
        name: sum(stats[name] for __, stats in outputs) for name in outputs[0][1]
    }
    assert_shared_tier_counters(totals, distinct_specs=len(counts), workers=2)
    reader = PlanCache(disk=DiskPlanCache(directory))
    assert [
        encode(plan_scenario(small_scenario(circuit_count=count), cache=reader))
        for count in counts
    ] == cold
    assert reader.stats()["disk_plan_hits"] == len(counts)
    assert reader.stats()["plan_misses"] == 0


# ----------------------------------------------------------------------
# Size cap / LRU eviction
# ----------------------------------------------------------------------


def test_disk_eviction_is_least_recently_used(tmp_path):
    directory = str(tmp_path / "plan-cache")
    disk = DiskPlanCache(directory, max_bytes=1)  # everything over cap
    plan = plan_scenario(small_scenario(), cache=None)
    disk.put_plan(plan.spec_hash, plan)
    # The put itself triggered eviction down to (at most) the cap.
    assert disk.entry_counts()["plan"] == 0

    roomy = DiskPlanCache(directory, max_bytes=256 * 1024 * 1024)
    keys = []
    for count in (3, 4, 5):
        p = plan_scenario(small_scenario(circuit_count=count), cache=None)
        roomy.put_plan(p.spec_hash, p)
        keys.append(p.spec_hash)
    # Cap that holds roughly two entries: the oldest goes first.
    entry_bytes = roomy.total_bytes() // 3
    os.utime(os.path.join(directory, "plans", keys[0] + ".json"), (1, 1))  # force the order
    tight = DiskPlanCache(directory, max_bytes=entry_bytes * 2)
    p = plan_scenario(small_scenario(circuit_count=6), cache=None)
    tight.put_plan(p.spec_hash, p)
    assert tight.get_plan(keys[0]) is None  # evicted (oldest)
    assert tight.get_plan(p.spec_hash) is not None  # newest survives


# ----------------------------------------------------------------------
# Batch integration: the acceptance sweep
# ----------------------------------------------------------------------


def _netscale_job(circuits: int, seed: int) -> dict:
    return {
        "experiment": "netscale",
        "spec": {
            "circuit_count": circuits,
            "seed": seed,
            "bulk_payload_bytes": kib(60),
            "interactive_payload_bytes": kib(10),
            "network": {"relay_count": 11, "client_count": 9,
                        "server_count": 9},
        },
        "label": "circuits=%d" % circuits,
    }


def test_parallel_workers_share_one_network_through_disk(tmp_path, monkeypatch):
    """The acceptance sweep: 4 workers, one network, one directory.

    The seed is unique to this test so the parent's DEFAULT_CACHE (which
    forked workers inherit) cannot already hold these plans — the
    aggregated counters then account for exactly this sweep.  How many
    workers planned the shared network depends on how the pool started
    them; the output never does.
    """
    jobs = [_netscale_job(circuits, seed=987001) for circuits in (4, 5, 6, 7)]
    directory = str(tmp_path / "plan-cache")

    shared = run_batch(jobs, workers=4, plan_cache_dir=directory)
    assert_shared_tier_counters(shared.plan_cache, distinct_specs=4, workers=4)

    # Byte-identical to a cold, serial, cache-disabled run: patch a
    # fresh, empty, disk-less cache in for the baseline.
    from repro.scenario.cache import PlanCache as _PlanCache

    cold_cache = _PlanCache()
    monkeypatch.setattr("repro.experiments.netscale.DEFAULT_CACHE", cold_cache)
    # The batch execution path (and its cache-delta accounting) lives in
    # the jobs dispatch layer now that run_batch is a thin client of it.
    monkeypatch.setattr("repro.jobs.dispatch.DEFAULT_CACHE", cold_cache)
    cold = run_batch(jobs, workers=1)
    assert cold.plan_cache["plan_misses"] == 4  # genuinely cold
    assert json.dumps(shared.to_dict(), sort_keys=True) == \
        json.dumps(cold.to_dict(), sort_keys=True)


def test_serial_batch_uses_and_restores_disk_tier(tmp_path):
    from repro.scenario.cache import DEFAULT_CACHE

    jobs = [_netscale_job(4, seed=987002)]
    directory = str(tmp_path / "plan-cache")
    before = DEFAULT_CACHE.disk
    result = run_batch(jobs, workers=1, plan_cache_dir=directory)
    assert DEFAULT_CACHE.disk is before  # serial path restored the tier
    assert result.plan_cache["disk_plan_misses"] >= 1  # disk was consulted
    assert DiskPlanCache(directory).entry_counts()["plan"] >= 1  # published


# ----------------------------------------------------------------------
# BatchResult.plan_cache is per-instance state
# ----------------------------------------------------------------------


def test_batch_results_never_share_plan_cache_state():
    from repro.experiments.runner import BatchResult

    first = BatchResult(items=[])
    second = BatchResult(items=[])
    first.plan_cache = {"plan_hits": 7}
    assert second.plan_cache is None  # not leaked through the class
    assert "plan_cache" not in vars(type(first))  # no class attribute left
    # And it stays out of the serialized form.
    assert "plan_cache" not in first.to_dict()
    assert BatchResult.from_dict(first.to_dict()).plan_cache is None
