"""Fuzz the host-side stores: envelopes, the plan cache's disk tier, the job store.

Every test drives public names only (``read_envelope`` /
``write_envelope``, ``EntryDir``, ``OwnerLocks``,
``DiskPlanCache.get_*`` / ``put_*``, ``JobStore``, ``plan_scenario``,
``run_batch``) and addresses files by the documented on-disk layout,
never through a private path helper.  Damage that edits fields (``field``, ``bury``) reads the
version-2 envelope as what it is, a header line and a payload, and
lands in either.

Three properties, on every generated damage:

1. **never raises** — a damaged, foreign or unwritable directory is a
   miss or a no-op, not a traceback;
2. **never a wrong payload** — whatever a store serves is what was
   written under that key, byte for byte: a plan equal to the cold
   plan, a checkpoint equal to the clean run's result;
3. **the directory stays resumable** — afterwards a fresh ``PlanCache``
   / ``run_batch(resume=True)`` on it completes, byte-identical to
   a clean run.
"""

from __future__ import annotations

import builtins
import errno
import json
import os
import re
import shutil
import tempfile
from contextlib import ExitStack, contextmanager
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import _sweep_exps
from repro.experiments.runner import run_batch
from repro.jobs.store import JobStore, job_key
from repro.scenario import (
    BulkWorkload,
    DiskPlanCache,
    GeneratedTopology,
    NetworkConfig,
    PlanCache,
    RelayChurnFaults,
    Scenario,
    plan_scenario,
)
from repro.serialize import encode
from repro.storage import (
    FORMAT_VERSION,
    EntryDir,
    OwnerLocks,
    content_hash,
    encode_payload,
    read_envelope,
    write_envelope,
)
from repro.units import kib

# ----------------------------------------------------------------------
# Damage: an algebra on file bytes
# ----------------------------------------------------------------------

FRACTION = st.floats(0.0, 1.0, exclude_max=True)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-9, 9) | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
#: Openers repeated without a closer: the parser recurses once per level.
OPENERS = ("[", '{"a":', '[{"payload":')
HEADER_FIELDS = ("format", "kind", "key", "source", "sha256", "payload")
#: Where a deep (closed, well-formed) nest is buried inside an envelope.
BURY_AT = (("payload",), ("payload", "spec"), ("payload", "scenario"), ("key",))

DAMAGE = st.one_of(
    st.tuples(st.just("truncate"), FRACTION),
    st.tuples(st.just("flip"), FRACTION, st.integers(0, 7)),
    st.tuples(st.just("splice"), FRACTION, st.binary(min_size=1, max_size=6)),
    st.tuples(st.just("nest"), st.sampled_from(OPENERS), st.integers(1, 200_000)),
    st.tuples(st.just("field"), st.sampled_from(HEADER_FIELDS), JSON_VALUES),
    st.tuples(st.just("bury"), st.sampled_from(BURY_AT), st.integers(1, 5_000)),
)


def damaged(blob: bytes, op) -> bytes:
    """*blob* after one damage *op* (see :data:`DAMAGE`)."""
    name = op[0]
    if name == "truncate":
        return blob[: int(op[1] * len(blob))]
    if name == "flip":
        if not blob:
            return blob
        at = int(op[1] * len(blob))
        return blob[:at] + bytes([blob[at] ^ (1 << op[2])]) + blob[at + 1:]
    if name == "splice":
        at = int(op[1] * len(blob))
        return blob[:at] + op[2] + blob[at:]
    if name == "nest":
        return op[1].encode("ascii") * op[2]
    head, __, body = blob.partition(b"\n")
    try:
        header, payload = json.loads(head), json.loads(body)
    except (ValueError, RecursionError):
        header = None
    if not isinstance(header, dict):
        return blob  # field edits only apply to envelopes (not lock tokens)
    data = dict(header, payload=payload)
    if name == "field":
        data[op[1]] = op[2]
        return envelope_bytes(data)
    # "bury": too deep for json.dumps, so splice the nest in as text.
    target = data
    for step in op[1][:-1]:
        target = target.get(step)
        if not isinstance(target, dict):
            return blob
    target[op[1][-1]] = "@DEEP@"
    nest = b"[" * op[2] + b"]" * op[2]
    return envelope_bytes(data).replace(b'"@DEEP@"', nest)


def envelope_bytes(data) -> bytes:
    """*data* (header items + ``"payload"``) laid out as a version-2 entry.

    The header's ``sha256`` is written as it stands, never recomputed:
    what an edit did to the payload stays visible to the reader.
    """
    header = {name: value for name, value in data.items() if name != "payload"}
    return b"\n".join(
        json.dumps(part, separators=(",", ":")).encode("utf-8")
        for part in (header, data["payload"])
    )


def damage_file(path: str, op) -> None:
    if os.path.isfile(path):  # an earlier op may have removed it
        with open(path, "rb") as handle:
            blob = handle.read()
        with open(path, "wb") as handle:
            handle.write(damaged(blob, op))


def copy_over(source: str, target: str) -> None:
    """An entry renamed (or restored) onto another key's path."""
    if source != target and os.path.exists(source):
        shutil.copy(source, target)


# ----------------------------------------------------------------------
# read_envelope
# ----------------------------------------------------------------------

ENVELOPE = {"format": FORMAT_VERSION, "kind": "fuzz", "key": "k" * 64,
            "source": "c" * 64,
            "payload": {"spec": {"value": 3}, "result": [1, 2.5, "x", None]}}
EXPECT = {field: ENVELOPE[field] for field in ("format", "kind", "key", "source")}


def written(envelope) -> bytes:
    """The bytes :func:`write_envelope` publishes for *envelope*."""
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "entry.json")
        write_envelope(path, envelope)
        with open(path, "rb") as handle:
            return handle.read()


ENVELOPE_BYTES = written(ENVELOPE)


def check_read_envelope(blob: bytes) -> None:
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "entry.json")
        with open(path, "wb") as handle:
            handle.write(blob)
        data = read_envelope(path, expect=EXPECT)
    if data is not None:
        assert isinstance(data, dict)
        assert all(data[field] == value for field, value in EXPECT.items())
        assert data["payload"] == ENVELOPE["payload"]


def test_write_then_read_envelope_round_trips(tmp_path):
    path = str(tmp_path / "entry.json")
    assert write_envelope(path, ENVELOPE) == len(ENVELOPE_BYTES)
    data = read_envelope(path, expect=EXPECT)
    assert len(data.pop("sha256")) == 64
    assert data == ENVELOPE


@settings(max_examples=150, deadline=None)
@given(ops=st.lists(DAMAGE, min_size=1, max_size=3))
@example(ops=[("nest", "[", 200_000)])  # RecursionError is not a ValueError
@example(ops=[("bury", ("payload",), 5_000)])
@example(ops=[("flip", 0.5, 7)])  # a lone high byte: not UTF-8
def test_read_envelope_never_raises_and_honours_expect(ops):
    blob = ENVELOPE_BYTES
    for op in ops:
        blob = damaged(blob, op)
    check_read_envelope(blob)


@settings(max_examples=100, deadline=None)
@given(blob=st.binary(max_size=200))
def test_read_envelope_on_arbitrary_bytes(blob):
    check_read_envelope(blob)


def test_read_envelope_on_a_directory_and_a_missing_file(tmp_path):
    assert read_envelope(str(tmp_path), expect={}) is None
    assert read_envelope(str(tmp_path / "absent.json"), expect={}) is None


# ----------------------------------------------------------------------
# OwnerLocks
# ----------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(op=DAMAGE)
@example(op=("flip", 0.0, 7))  # UnicodeDecodeError out of a text-mode read
def test_release_never_raises_on_a_damaged_lock_file(op):
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "key.lock")
        locks = OwnerLocks(10.0)
        assert locks.acquire(path)
        damage_file(path, op)
        locks.release(path)
        locks.release(path)  # and stays idempotent
        # Whatever is left is an ordinary foreign lock: honoured while
        # fresh, broken once older than the timeout.
        if os.path.exists(path):
            assert not OwnerLocks(10.0).acquire(path)
            os.utime(path, (1, 1))
        late = OwnerLocks(10.0)
        assert late.acquire(path)
        late.release(path)
        assert not os.path.exists(path)


# ----------------------------------------------------------------------
# The plan cache's disk tier
# ----------------------------------------------------------------------

SCENARIO = Scenario(
    topology=GeneratedTopology(
        network=NetworkConfig(relay_count=8, client_count=4, server_count=4),
        force_bottleneck=True,
    ),
    workloads=(BulkWorkload(payload_bytes=kib(40)),),
    circuit_count=3,
    # Fault events are drawn at planning time and persisted in the plan.
    faults=(RelayChurnFaults(mttf=2.0),),
)
REFERENCE = plan_scenario(SCENARIO, cache=None)
KEYS = {
    "plan": content_hash(SCENARIO),
    "network": content_hash(SCENARIO.topology.network_fingerprint(SCENARIO)),
}


def plan_file(directory: str, kind: str, suffix: str = ".json") -> str:
    """README "Persistent plan cache": ``<dir>/<kind>s/<key>.json|.lock``."""
    return os.path.join(directory, kind + "s", KEYS[kind] + suffix)


@pytest.fixture(scope="module")
def warm_plan_dir(tmp_path_factory):
    directory = str(tmp_path_factory.mktemp("warm-plans"))
    plan_scenario(SCENARIO, cache=PlanCache(disk=DiskPlanCache(directory)))
    return directory


def assert_plan_tier_serves_only_the_truth(directory: str):
    """Properties 1-3 on *directory*, through every public entry point."""
    disk = DiskPlanCache(directory)
    plan = disk.get_plan(KEYS["plan"])
    assert plan is None or encode(plan) == encode(REFERENCE)
    network = disk.get_network(KEYS["network"])
    assert network is None or encode(network) == encode(REFERENCE.network)
    # Nothing in the directory belongs under any other key.
    assert disk.get_plan(KEYS["network"]) is None
    assert disk.get_network(KEYS["plan"]) is None
    fresh = PlanCache(disk=DiskPlanCache(directory))
    assert encode(plan_scenario(SCENARIO, cache=fresh)) == encode(REFERENCE)
    # ...and what that run published is the truth, for the next one.
    again = PlanCache(disk=DiskPlanCache(directory))
    assert encode(plan_scenario(SCENARIO, cache=again)) == encode(REFERENCE)


PLAN_TARGETS = st.sampled_from(["plan", "network"])
PLAN_OPS = st.one_of(
    st.tuples(st.just("entry"), PLAN_TARGETS, DAMAGE),
    # A lock file an older build's planner left, fresh or ancient, damaged.
    st.tuples(st.just("lock"), PLAN_TARGETS, DAMAGE, st.booleans()),
    st.tuples(st.just("rename"), PLAN_TARGETS, PLAN_TARGETS),
)


@settings(max_examples=200, deadline=None)
@given(ops=st.lists(PLAN_OPS, min_size=1, max_size=3))
@example(ops=[("entry", "plan", ("nest", "[", 200_000))])
@example(ops=[("entry", "network", ("bury", ("payload",), 600))])
@example(ops=[("lock", "plan", ("flip", 0.0, 7), True)])
@example(ops=[("rename", "network", "plan")])
@example(ops=[("entry", "network", ("flip", 0.5, 0))])  # a payload bit
def test_plan_tier_survives_damage(warm_plan_dir, ops):
    with tempfile.TemporaryDirectory() as scratch:
        directory = os.path.join(scratch, "plans")
        shutil.copytree(warm_plan_dir, directory)
        strays = {}  # lock path -> (its bytes, whether it is ancient)
        for op in ops:
            if op[0] == "entry":
                damage_file(plan_file(directory, op[1]), op[2])
            elif op[0] == "lock":
                path = plan_file(directory, op[1], ".lock")
                with open(path, "wb") as handle:
                    handle.write(b"4242:1234567:0")
                damage_file(path, op[2])
                if op[3]:
                    os.utime(path, (1, 1))  # its planner died long ago
                with open(path, "rb") as handle:
                    strays[path] = (handle.read(), op[3])
            else:
                copy_over(plan_file(directory, op[1]), plan_file(directory, op[2]))
        assert_plan_tier_serves_only_the_truth(directory)
        # A stray lock is ignored: nothing reads, rewrites or removes it
        # but the janitor, which sweeps scratch files a minute old.
        for path, (blob, ancient) in strays.items():
            if ancient and not os.path.exists(path):
                continue
            with open(path, "rb") as handle:
                assert handle.read() == blob


def test_plan_entry_edited_under_an_intact_header_is_a_miss(warm_plan_dir):
    """The stored scenario edited in place: the payload digest sees it."""
    with tempfile.TemporaryDirectory() as scratch:
        directory = os.path.join(scratch, "plans")
        shutil.copytree(warm_plan_dir, directory)
        path = plan_file(directory, "plan")
        with open(path, "rb") as handle:
            blob = handle.read()
        assert blob.count(b'"circuit_count":3') == 1
        with open(path, "wb") as handle:
            handle.write(blob.replace(b'"circuit_count":3', b'"circuit_count":4'))
        assert DiskPlanCache(directory).get_plan(KEYS["plan"]) is None
        assert_plan_tier_serves_only_the_truth(directory)


def test_flipped_bit_in_a_plan_payload_is_a_miss(warm_plan_dir):
    """The fuzz's first falsifying example: a bit flipped inside the payload."""
    with tempfile.TemporaryDirectory() as scratch:
        directory = os.path.join(scratch, "plans")
        shutil.copytree(warm_plan_dir, directory)
        damage_file(plan_file(directory, "plan"), ("flip", 0.34375, 0))
        assert_plan_tier_serves_only_the_truth(directory)


def test_network_entry_with_one_relay_delay_edited_is_a_miss(warm_plan_dir):
    """One relay's link delay doubled, everything else left as written."""
    with tempfile.TemporaryDirectory() as scratch:
        directory = os.path.join(scratch, "plans")
        shutil.copytree(warm_plan_dir, directory)
        path = plan_file(directory, "network")
        with open(path, "rb") as handle:
            blob = handle.read()
        edited = re.sub(
            rb'"delay":([0-9.e-]+)',
            lambda match: b'"delay":' + repr(2 * float(match.group(1))).encode(),
            blob, count=1,
        )
        assert edited != blob
        with open(path, "wb") as handle:
            handle.write(edited)
        assert DiskPlanCache(directory).get_network(KEYS["network"]) is None
        assert_plan_tier_serves_only_the_truth(directory)


# ----------------------------------------------------------------------
# The job store
# ----------------------------------------------------------------------


@pytest.fixture(autouse=True)
def probe_experiments():
    _sweep_exps.install()
    yield
    _sweep_exps.uninstall()


PAYLOADS = [
    ("test-flaky", encode(_sweep_exps.FlakySpec(value=value))) for value in range(4)
]
JOB_KEYS = [job_key(experiment, spec) for experiment, spec in PAYLOADS]


def sweep_results(**kwargs):
    batch = run_batch(PAYLOADS, **kwargs)
    assert [item.error for item in batch.items] == [None] * len(PAYLOADS)
    return [item.result for item in batch.items]


def job_file(directory: str, index: int, subdir: str = "results") -> str:
    """README: ``DIR/results/<key>.json`` and ``DIR/leases/<key>.json``."""
    return os.path.join(directory, subdir, JOB_KEYS[index] + ".json")


@pytest.fixture(scope="module")
def clean_results():
    _sweep_exps.install()
    return sweep_results()


def assert_job_store_serves_only_the_truth(directory, clean):
    store = JobStore(directory)
    for index, key in enumerate(JOB_KEYS):
        payload = store.get(key)
        if payload is not None:
            assert job_key(payload["experiment"], payload["spec"]) == key
            assert payload["result"] == clean[index]
    assert store.get(content_hash("no such job")) is None
    assert isinstance(store.orphaned_leases(), dict)
    partial = store.read_partial()
    assert partial is None or isinstance(partial, dict)
    assert set(store.keys()) <= set(JOB_KEYS)
    store.info()
    store.lease(JOB_KEYS[0], "test-flaky", 0)
    store.release(JOB_KEYS[0])
    store.sweep_scratch()
    assert sweep_results(checkpoint_dir=directory, resume=True) == clean
    assert sweep_results(checkpoint_dir=directory, resume=True) == clean


JOB_INDEX = st.integers(0, len(PAYLOADS) - 1)
JOB_OPS = st.one_of(
    st.tuples(st.just("result"), JOB_INDEX, DAMAGE),
    # A crashed worker's lease (its job un-checkpointed or not), damaged.
    st.tuples(st.just("lease"), JOB_INDEX, DAMAGE, st.booleans()),
    st.tuples(st.just("partial"), DAMAGE),
    st.tuples(st.just("rename"), JOB_INDEX, JOB_INDEX),
)


@settings(max_examples=150, deadline=None)
@given(ops=st.lists(JOB_OPS, min_size=1, max_size=3))
@example(ops=[("result", 1, ("nest", "[", 200_000))])
@example(ops=[("result", 2, ("bury", ("payload", "spec"), 600))])
@example(ops=[("lease", 0, ("flip", 0.5, 7), True)])
@example(ops=[("lease", 3, ("nest", '{"a":', 200_000), False)])
@example(ops=[("rename", 0, 3), ("partial", ("truncate", 0.5))])
def test_job_store_survives_damage(clean_results, ops):
    with tempfile.TemporaryDirectory() as scratch:
        directory = os.path.join(scratch, "ckpt")
        assert sweep_results(checkpoint_dir=directory) == clean_results
        store = JobStore(directory)
        for op in ops:
            if op[0] == "result":
                damage_file(job_file(directory, op[1]), op[2])
            elif op[0] == "lease":
                store.lease(JOB_KEYS[op[1]], "test-flaky", op[1])
                damage_file(job_file(directory, op[1], "leases"), op[2])
                if op[3] and os.path.exists(job_file(directory, op[1])):
                    os.unlink(job_file(directory, op[1]))  # died before put
            elif op[0] == "partial":
                store.write_partial(encode_payload({"done": 4, "total": 4, "items": []}))
                damage_file(os.path.join(directory, "partial.json"), op[1])
            else:
                copy_over(job_file(directory, op[1]), job_file(directory, op[2]))
        assert_job_store_serves_only_the_truth(directory, clean_results)


def test_flipped_bit_in_a_checkpoint_payload_is_a_miss(clean_results):
    """The job store's falsifying fuzz example: one result digit changed."""
    with tempfile.TemporaryDirectory() as scratch:
        directory = os.path.join(scratch, "ckpt")
        assert sweep_results(checkpoint_dir=directory) == clean_results
        damage_file(job_file(directory, 1), ("flip", 0.975, 0))
        assert_job_store_serves_only_the_truth(directory, clean_results)


THEFTS = st.sampled_from(["delete", "steal", "garbage", "directory"])


@settings(max_examples=20, deadline=None)
@given(thefts=st.lists(THEFTS, min_size=len(PAYLOADS), max_size=len(PAYLOADS)))
def test_lease_stolen_or_deleted_mid_job(clean_results, thefts):
    """Leases are never load-bearing: the job still checkpoints."""
    with tempfile.TemporaryDirectory() as scratch:
        directory = os.path.join(scratch, "ckpt")
        honest_run = _sweep_exps.FlakyExperiment.run

        def thieving_run(self, spec, *args, **kwargs):
            path = job_file(directory, spec.value, "leases")
            theft = thefts[spec.value]
            assert os.path.exists(path)  # we are between lease and put
            os.unlink(path)
            if theft == "steal":
                EntryDir(os.path.dirname(path), "lease", stamped=False).put(
                    JOB_KEYS[spec.value],
                    {"experiment": "test-flaky", "index": 99, "pid": 1,
                     "host": "elsewhere", "time": 0.0},
                )
            elif theft == "garbage":
                with open(path, "wb") as handle:
                    handle.write(b"\xff" * 9)
            elif theft == "directory":
                os.mkdir(path)
            return honest_run(self, spec, *args, **kwargs)

        with mock.patch.object(_sweep_exps.FlakyExperiment, "run", thieving_run):
            assert sweep_results(checkpoint_dir=directory) == clean_results
        assert_job_store_serves_only_the_truth(directory, clean_results)


# ----------------------------------------------------------------------
# Writes that fail: ENOSPC, EACCES
# ----------------------------------------------------------------------


@contextmanager
def failing_writes(directory: str, code: int, doomed):
    """Fail the *doomed*-numbered writes under *directory* with errno *code*.

    Counts every ``os.replace``, creating ``os.open`` and write-mode
    ``open`` whose target lies under *directory*; ``doomed`` is a set
    of call numbers, or ``None`` for "every one".
    """
    real = {"replace": os.replace, "os_open": os.open, "open": builtins.open}
    calls = [0]

    def gate(path) -> None:
        if not os.path.abspath(os.fspath(path)).startswith(directory):
            return
        calls[0] += 1
        if doomed is None or calls[0] - 1 in doomed:
            raise OSError(code, os.strerror(code), os.fspath(path))

    def replace(source, target, *args, **kwargs):
        gate(target)
        return real["replace"](source, target, *args, **kwargs)

    def os_open(path, flags, *args, **kwargs):
        if flags & os.O_CREAT:
            gate(path)
        return real["os_open"](path, flags, *args, **kwargs)

    def open_(file, mode="r", *args, **kwargs):
        if isinstance(file, (str, bytes, os.PathLike)) and set(mode) & set("wax+"):
            gate(file)
        return real["open"](file, mode, *args, **kwargs)

    with ExitStack() as stack:
        stack.enter_context(mock.patch("os.replace", replace))
        stack.enter_context(mock.patch("os.open", os_open))
        stack.enter_context(mock.patch("builtins.open", open_))
        yield


@settings(max_examples=60, deadline=None)
@given(
    code=st.sampled_from([errno.ENOSPC, errno.EACCES, errno.EROFS, errno.EIO]),
    doomed=st.none() | st.sets(st.integers(0, 30), max_size=8),
)
@example(code=errno.ENOSPC, doomed=None)
@example(code=errno.EACCES, doomed={0})
def test_failing_writes_cost_durability_never_results(clean_results, code, doomed):
    with tempfile.TemporaryDirectory() as scratch:
        scratch = os.path.realpath(scratch)
        plans = os.path.join(scratch, "plans")
        ckpt = os.path.join(scratch, "ckpt")
        with failing_writes(scratch, code, doomed):
            cache = PlanCache(disk=DiskPlanCache(plans))
            assert encode(plan_scenario(SCENARIO, cache=cache)) == encode(REFERENCE)
            assert sweep_results(checkpoint_dir=ckpt) == clean_results
            store = JobStore(ckpt)
            store.write_partial(encode_payload({"done": 4, "total": 4, "items": []}))
            store.lease(JOB_KEYS[0], "test-flaky", 0)
            store.release(JOB_KEYS[0])
        # The disk is healthy again: whatever landed is whole and true.
        assert_plan_tier_serves_only_the_truth(plans)
        assert_job_store_serves_only_the_truth(ckpt, clean_results)


@pytest.mark.skipif(os.geteuid() == 0, reason="root ignores permission bits")
def test_readonly_directories_cost_durability_never_results(tmp_path, clean_results):
    plans, ckpt = tmp_path / "plans", tmp_path / "ckpt"
    for directory in (plans, ckpt):
        directory.mkdir()
        directory.chmod(0o500)
    try:
        cache = PlanCache(disk=DiskPlanCache(str(plans)))
        assert encode(plan_scenario(SCENARIO, cache=cache)) == encode(REFERENCE)
        assert sweep_results(checkpoint_dir=str(ckpt)) == clean_results
    finally:
        for directory in (plans, ckpt):
            directory.chmod(0o700)
    assert_plan_tier_serves_only_the_truth(str(plans))
    assert_job_store_serves_only_the_truth(str(ckpt), clean_results)
