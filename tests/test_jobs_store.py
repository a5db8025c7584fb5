"""Tests for the sweep checkpoint store: keys, envelopes, leases."""

from __future__ import annotations

import json
import os
import shutil

import repro.storage
from repro.experiments import TraceConfig, encode
from repro.jobs.store import (
    CHECKPOINT_ENV_VAR,
    JobStore,
    code_fingerprint,
    job_key,
)
from repro.storage import resolve_dir, source_fingerprint
from repro.units import milliseconds

from helpers import read_header, rewrite_header

#: Checkpoints ``repro serve`` wrote in the version-1 envelope.
PARENT_RESULTS = os.path.join(
    os.path.dirname(__file__), "golden", "parent_checkpoint", "results"
)


def entry_file(store, key, subdir="results"):
    """The documented layout: ``DIR/results/<key>.json``, ``DIR/leases/<key>.json``."""
    return os.path.join(store.directory, subdir, key + ".json")


# ----------------------------------------------------------------------
# Key stability (what makes checkpoints safe to reuse)
# ----------------------------------------------------------------------


def test_job_key_ignores_field_order():
    forward = {"duration": 0.15, "relay_count": 4, "payload_bytes": 1024}
    backward = {"payload_bytes": 1024, "relay_count": 4, "duration": 0.15}
    assert job_key("trace", forward) == job_key("trace", backward)


def test_job_key_survives_encode_round_trip():
    spec = TraceConfig(duration=milliseconds(150.0), relay_count=3)
    first = encode(spec)
    # Through JSON text and back through the typed spec: both the
    # serialization that lands in a sweep file and the reconstruction
    # run_batch performs must map to the same checkpoint key.
    via_json = json.loads(json.dumps(first))
    via_spec = encode(TraceConfig.from_dict(via_json))
    assert job_key("trace", first) == job_key("trace", via_json)
    assert job_key("trace", first) == job_key("trace", via_spec)


def test_job_key_separates_experiments_and_specs():
    spec = encode(TraceConfig(duration=milliseconds(150.0)))
    other = encode(TraceConfig(duration=milliseconds(200.0)))
    assert job_key("trace", spec) != job_key("cdf", spec)
    assert job_key("trace", spec) != job_key("trace", other)


def test_code_fingerprint_is_a_stable_digest():
    first = code_fingerprint()
    assert len(first) == 64
    int(first, 16)  # hex digest
    assert code_fingerprint() == first  # memoized, stable in-process


# ----------------------------------------------------------------------
# Checkpoint round trips and defensive reads
# ----------------------------------------------------------------------


def _put_one(store, experiment="trace", value=1):
    spec_data = {"value": value}
    key = job_key(experiment, spec_data)
    assert store.put(key, experiment, spec_data, {"answer": value * 2})
    return key


def test_put_get_round_trip(tmp_path):
    store = JobStore(str(tmp_path / "ckpt"))
    key = _put_one(store, value=3)
    payload = store.get(key)
    assert payload == {
        "experiment": "trace",
        "spec": {"value": 3},
        "result": {"answer": 6},
    }
    assert store.keys() == [key]
    assert store.get("0" * 64) is None


def test_corrupt_checkpoint_is_a_miss(tmp_path):
    store = JobStore(str(tmp_path / "ckpt"))
    key = _put_one(store)
    with open(entry_file(store, key), "w") as handle:
        handle.write("{not json")
    assert store.get(key) is None


def test_rewriting_a_checkpoint_header_with_its_own_values_is_still_a_hit(tmp_path):
    """What the header-edit tests change is one field, nothing else."""
    store = JobStore(str(tmp_path / "ckpt"))
    key = _put_one(store, value=9)
    path = entry_file(store, key)
    rewrite_header(path, **read_header(path))
    assert store.get(key)["result"] == {"answer": 18}


def test_checkpoint_from_other_code_is_a_miss(tmp_path):
    store = JobStore(str(tmp_path / "ckpt"))
    key = _put_one(store, value=9)
    # Stamped by a different simulator version.
    rewrite_header(entry_file(store, key), source="0" * 64)
    assert store.get(key) is None


def test_checkpoint_copied_onto_another_keys_name_is_a_miss(tmp_path):
    """A manual restore or partial copy must not satisfy the wrong job."""
    store = JobStore(str(tmp_path / "ckpt"))
    source = _put_one(store, value=10)
    target = job_key("trace", {"value": 9})
    shutil.copy(entry_file(store, source), entry_file(store, target))
    assert store.get(target) is None
    assert store.get(source)["result"] == {"answer": 20}


def test_version_1_checkpoint_is_a_miss(tmp_path):
    """The previous envelope, stamped as this code's, is re-run, not read.

    The version-1 layout (one JSON object, no payload digest) is what
    ``repro serve`` wrote before; stamped with this code's fingerprint
    it would have been served.  Re-published through :meth:`put`, the
    same payload is a hit.
    """
    store = JobStore(str(tmp_path / "ckpt"))
    name = sorted(os.listdir(PARENT_RESULTS))[0]
    with open(os.path.join(PARENT_RESULTS, name)) as handle:
        envelope = json.load(handle)
    assert envelope["format"] == 1
    envelope["code"] = source_fingerprint()
    key = envelope["key"]
    os.makedirs(os.path.dirname(entry_file(store, key)))
    with open(entry_file(store, key), "w") as handle:
        json.dump(envelope, handle, separators=(",", ":"))
    assert store.get(key) is None
    payload = envelope["payload"]
    assert store.put(key, payload["experiment"], payload["spec"], payload["result"])
    assert store.get(key) == payload


# ----------------------------------------------------------------------
# Leases and orphan detection
# ----------------------------------------------------------------------


def test_orphaned_lease_lifecycle(tmp_path):
    store = JobStore(str(tmp_path / "ckpt"))
    spec_data = {"value": 5}
    key = job_key("trace", spec_data)
    store.lease(key, "trace", 0)
    orphans = store.orphaned_leases()
    assert set(orphans) == {key}
    record = orphans[key]
    assert record["experiment"] == "trace"
    assert record["index"] == 0
    assert record["pid"] == os.getpid()
    # Completing the job makes the lease moot; the next orphan scan
    # garbage-collects it instead of reporting a phantom crash.
    assert store.put(key, "trace", spec_data, {"answer": 10})
    assert store.orphaned_leases() == {}
    assert not os.path.exists(entry_file(store, key, "leases"))


def test_release_drops_the_lease(tmp_path):
    store = JobStore(str(tmp_path / "ckpt"))
    key = job_key("trace", {"value": 1})
    store.lease(key, "trace", 0)
    store.release(key)
    assert store.orphaned_leases() == {}
    store.release(key)  # idempotent


def test_leases_and_snapshot_are_read_across_a_source_change(tmp_path, monkeypatch):
    """Only results are stamped: ``repro resume`` under new code still
    reports the old run's orphans and its last snapshot."""
    store = JobStore(str(tmp_path / "ckpt"))
    done = _put_one(store, value=1)
    orphan = job_key("trace", {"value": 2})
    store.lease(orphan, "trace", 1)
    snapshot = {"done": 1, "total": 2, "failed": 0, "items": []}
    store.write_partial(snapshot)
    monkeypatch.setattr(repro.storage, "_source_fingerprint_memo", "f" * 64)
    assert store.get(done) is None
    assert set(store.orphaned_leases()) == {orphan}
    assert store.read_partial() == snapshot


# ----------------------------------------------------------------------
# Partial snapshot, info, clear, directory resolution
# ----------------------------------------------------------------------


def test_partial_snapshot_round_trip(tmp_path):
    store = JobStore(str(tmp_path / "ckpt"))
    assert store.read_partial() is None
    snapshot = {"done": 2, "total": 5, "failed": 0, "items": []}
    store.write_partial(snapshot)
    assert store.read_partial() == snapshot


def test_info_counts_checkpoints_and_orphaned_leases(tmp_path):
    store = JobStore(str(tmp_path / "ckpt"))
    _put_one(store, value=1)
    _put_one(store, value=2)
    store.lease(job_key("trace", {"value": 3}), "trace", 2)
    info = store.info()
    assert info["checkpoints"] == 2
    assert info["orphaned_leases"] == 1


def test_sweep_scratch_reaches_the_snapshot_temp_file(tmp_path):
    """A writer killed mid-snapshot leaves ``partial.json.<pid>.tmp`` up top."""
    store = JobStore(str(tmp_path / "ckpt"))
    key = _put_one(store)
    store.write_partial({"done": 1, "total": 1, "failed": 0, "items": []})
    snapshot = os.path.join(store.directory, "partial.json")
    orphan = snapshot + ".4242.tmp"
    live = snapshot + ".4243.tmp"
    for path in (orphan, live):
        with open(path, "w") as handle:
            handle.write('{"format":1,"kind":"partial","payl')
    os.utime(orphan, (1, 1))  # ancient: its writer is long dead
    store.sweep_scratch()
    assert not os.path.exists(orphan)
    assert os.path.exists(live)  # a writer renames within milliseconds
    assert store.read_partial() is not None and store.keys() == [key]


def test_resolve_checkpoint_dir(monkeypatch):
    monkeypatch.delenv(CHECKPOINT_ENV_VAR, raising=False)
    assert resolve_dir(None, CHECKPOINT_ENV_VAR) is None
    assert resolve_dir("explicit", CHECKPOINT_ENV_VAR) == "explicit"
    monkeypatch.setenv(CHECKPOINT_ENV_VAR, "from-env")
    assert resolve_dir(None, CHECKPOINT_ENV_VAR) == "from-env"
    assert resolve_dir("explicit", CHECKPOINT_ENV_VAR) == "explicit"
    monkeypatch.setenv(CHECKPOINT_ENV_VAR, "   ")
    assert resolve_dir(None, CHECKPOINT_ENV_VAR) is None
