"""Tests for the sweep checkpoint store: keys, envelopes, leases."""

from __future__ import annotations

import json
import os

import pytest

import repro.storage
from repro.experiments import TraceConfig, encode
from repro.jobs.store import (
    CHECKPOINT_ENV_VAR,
    JobStore,
    code_fingerprint,
    job_key,
)
from repro.storage import encode_payload, resolve_dir, source_fingerprint
from repro.units import milliseconds

from helpers import (
    read_header,
    record_bytes,
    record_of,
    replace_record,
    rewrite_header,
)

#: Checkpoints ``repro serve`` wrote in the version-1 envelope.
PARENT_RESULTS = os.path.join(
    os.path.dirname(__file__), "golden", "parent_checkpoint", "results"
)


def store_dir(store, subdir="results"):
    """The documented layout: ``DIR/results/`` and ``DIR/leases/`` hold segments."""
    return os.path.join(store.directory, subdir)


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
    replace_record(record_of(store_dir(store), key), b"{not json\n")
    assert store.get(key) is None
    assert JobStore(store.directory).get(key) is None


def test_rewriting_a_checkpoint_header_with_its_own_values_is_still_a_hit(tmp_path):
    """What the header-edit tests change is one field, nothing else."""
    store = JobStore(str(tmp_path / "ckpt"))
    key = _put_one(store, value=9)
    rewrite_header(store_dir(store), key, **read_header(store_dir(store), key))
    assert store.get(key)["result"] == {"answer": 18}
    assert JobStore(store.directory).get(key)["result"] == {"answer": 18}


def test_checkpoint_from_other_code_is_a_miss(tmp_path):
    store = JobStore(str(tmp_path / "ckpt"))
    key = _put_one(store, value=9)
    # Stamped by a different simulator version.
    rewrite_header(store_dir(store), key, source="0" * 64)
    assert store.get(key) is None
    assert JobStore(store.directory).get(key) is None


def test_checkpoint_copied_onto_another_keys_name_is_a_miss(tmp_path):
    """A manual restore or partial copy must not satisfy the wrong job.

    With no file name to carry the key, a copy can only relabel the
    header: the digest covers the key, so the relabelled record is a
    miss, and an unrelabelled copy in another segment still serves only
    its own key.
    """
    store = JobStore(str(tmp_path / "ckpt"))
    source = _put_one(store, value=10)
    target = job_key("trace", {"value": 9})
    record = record_of(store_dir(store), source)
    relabelled = record_bytes(dict(record.header, key=target), record.body)
    copy = os.path.join(store_dir(store), "elsewhere-1.log")
    with open(copy, "wb") as handle:
        handle.write(relabelled + record_bytes(record.header, record.body))
    for reader in (store, JobStore(store.directory)):
        assert reader.get(target) is None
        assert reader.get(source)["result"] == {"answer": 20}
        assert reader.keys() == [source]


def test_a_record_damaged_after_it_was_indexed_is_a_miss(tmp_path):
    """A reader that indexed a record reads it again, header and digest,
    on every get: a digit changed under it since is a miss."""
    store = JobStore(str(tmp_path / "ckpt"))
    key = _put_one(store, value=7)
    reader = JobStore(store.directory)
    assert reader.keys() == [key] and reader.get(key)["result"] == {"answer": 14}
    record = record_of(store_dir(store), key)
    assert record.body.count(b'"answer":14') == 1
    replace_record(record, record_bytes(
        record.header, record.body.replace(b'"answer":14', b'"answer":15')))
    assert reader.get(key) is None
    rewrite_header(store_dir(store), key, source="0" * 64)
    assert reader.get(key) is None


@pytest.mark.parametrize("off_by", [-5, 5, 40])
def test_a_header_whose_size_is_wrong_hides_no_other_record(tmp_path, off_by):
    """Only headers are indexed: one whose ``bytes`` points anywhere but
    its record's last newline is skipped, and the records after it in
    the segment still serve."""
    store = JobStore(str(tmp_path / "ckpt"))
    keys = [_put_one(store, value=value) for value in range(3)]
    size = read_header(store_dir(store), keys[1])["bytes"]
    rewrite_header(store_dir(store), keys[1], bytes=size + off_by)
    fresh = JobStore(store.directory)
    assert fresh.get(keys[1]) is None
    assert [fresh.get(key)["result"] for key in (keys[0], keys[2])] == [
        {"answer": 0}, {"answer": 4}]
    assert fresh.keys() == sorted([keys[0], keys[2]])


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
    os.makedirs(store_dir(store))
    with open(os.path.join(store_dir(store), name), "w") as handle:
        json.dump(envelope, handle, separators=(",", ":"))
    assert store.get(key) is None and store.keys() == []
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
    # ...by appending a tombstone, which a fresh reader sees too.
    last = record_of(store_dir(store, "leases"), key)
    assert last.header["bytes"] == 0 and last.body == b""
    assert JobStore(store.directory).orphaned_leases() == {}


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
    store.write_partial(encode_payload(snapshot))
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
    store.write_partial(encode_payload(snapshot))
    assert store.read_partial() == snapshot


def _foreign_lease_segment(store, name, leased, released=()):
    """Leases for *leased*, then tombstones for *released*, in a segment
    called *name*, as another writer of ``DIR/leases/`` leaves them."""
    from repro.storage import EntryDir

    other = EntryDir(os.path.join(os.path.dirname(store.directory), "other"),
                     "lease", stamped=False)
    for index, key in enumerate(leased):
        other.put(key, {"experiment": "trace", "index": index, "pid": 1,
                        "host": "elsewhere", "time": 0.0})
    for key in released:
        other.discard(key)
    [written] = os.listdir(other.directory)
    os.replace(os.path.join(other.directory, written),
               os.path.join(store_dir(store, "leases"), name))


def test_spent_lease_segments_go_and_live_ones_stay(tmp_path):
    """A segment goes once its writer is gone and nothing in it is live,
    and only when dropping it uncovers no lease it superseded."""
    import subprocess
    import sys

    from repro.storage import HOST

    store = JobStore(str(tmp_path / "ckpt"))
    a, b, c, d, e, f = (job_key("trace", {"value": value}) for value in range(6))
    store.lease(d, "trace", 3)
    store.release(d)
    exited = subprocess.run([sys.executable, "-c", "import os; print(os.getpid())"],
                            capture_output=True, text=True, check=True)
    crashed = "%s-%d.log" % (HOST, int(exited.stdout))
    _foreign_lease_segment(store, crashed, [a, b])  # a crashed sweep's two orphans
    _foreign_lease_segment(store, "%s-1.log" % HOST, [c])  # a live writer's
    _foreign_lease_segment(store, "elsewhere-5.log", [e])  # another host's
    # A live writer between two jobs: nothing in its segment is live,
    # but it may append its next lease at any moment.
    idle = subprocess.Popen([sys.executable, "-c", "import sys; sys.stdin.read()"],
                            stdin=subprocess.PIPE)
    between = "%s-%d.log" % (HOST, idle.pid)
    _foreign_lease_segment(store, between, [f], released=[f])
    # A pid no process of this host can have: its writer is unknown.
    unknown = "%s-%d.log" % (HOST, 10 ** 30)
    _foreign_lease_segment(store, unknown, [f], released=[f])
    own = "%s-%d.log" % (HOST, os.getpid())

    def segments():
        return sorted(os.listdir(store_dir(store, "leases")))

    try:
        store.release(a)  # a resume ran one orphan
        store.drop_spent_leases()
        # Dropping our segment would bring a's lease back; the crashed
        # sweep's still holds b.
        assert segments() == sorted([crashed, own, between, unknown,
                                     "%s-1.log" % HOST, "elsewhere-5.log"])
        assert set(store.orphaned_leases()) == {b, c, e}
        store.release(b)
        store.drop_spent_leases()
        assert segments() == sorted([between, unknown, "%s-1.log" % HOST,
                                     "elsewhere-5.log"])
        assert set(JobStore(store.directory).orphaned_leases()) == {c, e}
    finally:
        idle.communicate(b"")
    store.drop_spent_leases()  # its writer has exited now
    assert segments() == sorted([unknown, "%s-1.log" % HOST, "elsewhere-5.log"])


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
    store.write_partial(encode_payload({"done": 1, "total": 1, "failed": 0, "items": []}))
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


# ----------------------------------------------------------------------
# Segments: one append per record, one segment per writing process
# ----------------------------------------------------------------------


def _append_many(directory, writer, count, start, shared_pid):
    """A child's body: wait for *start*, then append *count* entries."""
    from repro.storage import EntryDir

    if shared_pid is not None:
        os.getpid = lambda: shared_pid  # both children pick one segment
    entries = EntryDir(directory, "job")
    start.wait()
    for index in range(count):
        assert entries.put("%d-%d" % (writer, index), {"writer": writer, "index": index})


@pytest.mark.parametrize("shared", [False, True], ids=["own-segments", "one-segment"])
def test_two_processes_appending_at_once_lose_no_record(tmp_path, shared):
    """Each record is one ``O_APPEND`` write: two writers racing on one
    directory, in a segment each or (a reused pid) in one, lose
    nothing and tear nothing."""
    import multiprocessing

    from repro.storage import EntryDir

    directory = str(tmp_path / "results")
    context = multiprocessing.get_context("fork")
    start = context.Event()
    count = 2000
    children = [
        context.Process(target=_append_many,
                        args=(directory, writer, count, start, 4242 if shared else None))
        for writer in range(2)
    ]
    for child in children:
        child.start()
    start.set()
    for child in children:
        child.join(60)
        assert child.exitcode == 0
    segments = sorted(os.listdir(directory))
    assert len(segments) == (1 if shared else 2)
    assert all(name.endswith(".log") for name in segments)
    entries = EntryDir(directory, "job")
    expected = sorted("%d-%d" % (writer, index)
                      for writer in range(2) for index in range(count))
    assert entries.keys() == expected
    for key in expected:
        writer, index = map(int, key.split("-"))
        assert entries.get(key) == {"writer": writer, "index": index}
