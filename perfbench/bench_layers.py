"""The per-layer ledger: each layer timed from outside, on its own.

Every function here calls one layer's public functions on a small fixed
input and returns host-time numbers keyed ``<module>.<metric>``.  The
inputs never depend on the workload or the seed, so the ledger reads the
same in the traced run of any workload and a regression can be located
as well as noticed.  Timings are medians over :data:`REPEATS` inner runs
(fewer for the cases marked heavy); every number is host time.
"""

from __future__ import annotations

import json
import os
import random
import statistics
import tempfile
import time
from typing import Any, Callable, Dict, List

from repro.core.factory import make_controller
from repro.experiments import get_experiment
from repro.experiments.netgen import NetworkConfig
from repro.experiments.netscale import NetScaleConfig, NetScaleResult
from repro.experiments.runner import run_batch
from repro.jobs import store as job_store
from repro.jobs.store import JobStore, job_key
from repro.net.faults import BernoulliLossModel
from repro.net.link import Interface, Link
from repro.net.node import Node
from repro.net.packet import Packet
from repro.net.topology import LinkSpec, build_chain
from repro.scenario import (
    BulkWorkload,
    GeneratedTopology,
    GoodputProbe,
    Scenario,
    ScenarioPlan,
    instantiate_network,
    plan_scenario,
)
from repro.scenario.cache import DEFAULT_CACHE, DiskPlanCache, PlanCache
from repro.scenario.sharded import partition_plan, run_sharded
from repro.serialize import decode, encode
from repro.sim.simulator import Simulator
from repro.storage import OwnerLocks, content_hash, read_envelope, write_envelope
from repro.tor.cells import DataCell
from repro.tor.circuit import CircuitFlow, CircuitSpec, allocate_circuit_id
from repro.tor.streams import MultiStreamSink, StreamScheduler
from repro.transport.config import CELL_PAYLOAD, TransportConfig
from repro.transport.hop import HopSender
from repro.units import kib, mbit_per_second, milliseconds

REPEATS = 9
HEAVY_REPEATS = 3

Timed = Callable[[], float]


def _median(run: Timed, repeats: int) -> float:
    """Median of *repeats* calls of *run*, which returns its own seconds."""
    return statistics.median(run() for _ in range(repeats))


def _clock(body: Callable[[], Any]) -> float:
    start = time.perf_counter()
    body()
    return time.perf_counter() - start


def _noop() -> None:
    pass


# ----------------------------------------------------------------------
# sim
# ----------------------------------------------------------------------


def sim_layer(repeats: int) -> Dict[str, float]:
    count = 20_000

    def fast() -> float:
        sim = Simulator()

        def body() -> None:
            for i in range(count):
                sim.schedule_fast((i * 7919 % 10007) * 1e-4, _noop)
            sim.run()

        return _clock(body)

    def burst() -> float:
        # 200 bursts of 100 events, each burst on one timestamp: the
        # consecutive same-time pushes are what the burst ring serves.
        sim = Simulator()

        def body() -> None:
            for i in range(count):
                sim.schedule_fast(float(i // 100), _noop)
            sim.run()

        return _clock(body)

    def handle() -> float:
        sim = Simulator()

        def body() -> None:
            for i in range(count):
                sim.schedule((i * 7919 % 10007) * 1e-4, _noop)
            sim.run()

        return _clock(body)

    def cancel() -> float:
        sim = Simulator()

        def body() -> None:
            for i in range(count):
                sim.cancel(sim.schedule((i * 7919 % 10007) * 1e-4, _noop))

        return _clock(body)

    per_event = 1e9 / count
    return {
        "sim.fast_event_ns": _median(fast, repeats) * per_event,
        "sim.burst_event_ns": _median(burst, repeats) * per_event,
        "sim.handle_event_ns": _median(handle, repeats) * per_event,
        "sim.cancel_ns": _median(cancel, repeats) * per_event,
    }


# ----------------------------------------------------------------------
# net
# ----------------------------------------------------------------------


def _not_captured(packet: Packet, arrival: float) -> bool:
    return False


def _tx_started(arg: Any) -> None:
    pass


def net_layer(repeats: int) -> Dict[str, float]:
    count = 5000

    def case(fault: bool, capture: bool, tx_hook: bool) -> Timed:
        def run() -> float:
            sim = Simulator()
            received: List[Packet] = []
            sender = Node(sim, "a")
            receiver = Node(sim, "b", handler=lambda packet, node: received.append(packet))
            interface = Interface(sim, sender, Link(mbit_per_second(100), 0.001))
            interface.attach_peer(receiver)
            sender.add_interface(interface)
            if fault:
                interface.fault_model = BernoulliLossModel(random.Random(1), 0.0)
            if capture:
                interface.on_serialize = _not_captured
            packets = [Packet(512, dst="b") for _ in range(count)]
            if tx_hook:
                for packet in packets:
                    packet.on_tx_start = _tx_started

            def body() -> None:
                for packet in packets:
                    interface.send(packet)
                sim.run()

            seconds = _clock(body)
            if len(received) != count:
                raise RuntimeError("link delivered %d of %d" % (len(received), count))
            return seconds

        return run

    per_packet = 1e6 / count
    return {
        "net.link_pkt_us.plain": _median(case(False, False, False), repeats) * per_packet,
        "net.link_pkt_us.fault": _median(case(True, False, False), repeats) * per_packet,
        "net.link_pkt_us.capture": _median(case(False, True, False), repeats) * per_packet,
        "net.link_pkt_us.all": _median(case(True, True, True), repeats) * per_packet,
    }


# ----------------------------------------------------------------------
# transport
# ----------------------------------------------------------------------


def _one_hop(config: TransportConfig, loss: float, count: int) -> float:
    """Push *count* cells through one HopSender over a fixed-delay channel.

    The receiver is the go-back-N one of ``TorHost._handle_data``:
    in-order acceptance, duplicates re-acknowledged, gaps dropped.
    """
    sim = Simulator()
    rng = random.Random(7)
    delay = 0.001
    state = {"expected": 0}

    def lost() -> bool:
        return loss > 0.0 and rng.random() < loss

    def acknowledge(seq: int) -> None:
        if not lost():
            sim.schedule_fast(delay, sender.on_feedback, seq)

    def receive(cell: DataCell) -> None:
        if cell.hop_seq < state["expected"]:
            acknowledge(cell.hop_seq)
        elif cell.hop_seq == state["expected"]:
            state["expected"] += 1
            acknowledge(cell.hop_seq)

    def transmit(cell: DataCell, token: Any) -> None:
        if not lost():
            sim.schedule_fast(delay, receive, cell)

    sender = HopSender(sim, config, make_controller("with", config), transmit)
    cells = [DataCell(1, 1, i * CELL_PAYLOAD, CELL_PAYLOAD) for i in range(count)]

    def body() -> None:
        for cell in cells:
            sender.enqueue(cell)
        sim.run()

    seconds = _clock(body)
    if state["expected"] != count:
        raise RuntimeError("hop delivered %d of %d" % (state["expected"], count))
    return seconds


def transport_layer(repeats: int) -> Dict[str, float]:
    count = 2000
    reliable = TransportConfig().with_profile("reliable")
    return {
        "transport.cells_per_s.lossless": count
        / _median(lambda: _one_hop(TransportConfig(), 0.0, count), repeats),
        "transport.cells_per_s.reliable": count
        / _median(lambda: _one_hop(reliable, 0.0, count), repeats),
        "transport.cells_per_s.lossy": count
        / _median(lambda: _one_hop(reliable, 0.02, count), repeats),
    }


# ----------------------------------------------------------------------
# tor
# ----------------------------------------------------------------------

_CHAIN = ["source", "r1", "r2", "r3", "sink"]


def _chain(sim: Simulator):
    spec = LinkSpec(mbit_per_second(100), milliseconds(2))
    return build_chain(sim, _CHAIN, [spec] * 4)


def _circuit_spec() -> CircuitSpec:
    return CircuitSpec(allocate_circuit_id(), "source", ["r1", "r2", "r3"], "sink")


def tor_layer(repeats: int) -> Dict[str, float]:
    cells = 500
    flows = 50
    messages = 100

    def circuit() -> float:
        sim = Simulator()
        flow = CircuitFlow(
            sim, _chain(sim), _circuit_spec(), TransportConfig(),
            payload_bytes=cells * CELL_PAYLOAD,
        )
        seconds = _clock(sim.run)
        if flow.sink.cells_received != cells:
            raise RuntimeError("circuit delivered %d cells" % flow.sink.cells_received)
        return seconds

    built: List[CircuitFlow] = []

    def setup() -> float:
        sim = Simulator()
        topology = _chain(sim)
        specs = [_circuit_spec() for _ in range(flows)]
        del built[:]

        def body() -> None:
            for spec in specs:
                built.append(CircuitFlow(sim, topology, spec, TransportConfig()))

        return _clock(body)

    def teardown() -> float:
        setup()
        return _clock(lambda: [flow.teardown() for flow in built])

    def streams() -> float:
        sim = Simulator()
        spec = _circuit_spec()
        flow = CircuitFlow(
            sim, _chain(sim), spec, TransportConfig(), workload="none"
        )
        scheduler = StreamScheduler(flow.hop_senders[0], spec.circuit_id)
        scheduler.open_stream(1)
        sink = MultiStreamSink(sim, spec.circuit_id, expected_bytes=messages * kib(2))
        flow.hosts[-1].attach_sink_app(spec.circuit_id, sink)

        def body() -> None:
            for _ in range(messages):
                scheduler.send_message(1, kib(2), sim.now)
            sim.run()

        seconds = _clock(body)
        if len(sink.delivered_messages) != messages:
            raise RuntimeError("stream delivered %d messages" % len(sink.delivered_messages))
        return seconds

    return {
        "tor.circuit_cells_per_s": cells / _median(circuit, repeats),
        "tor.circuit_setup_us": _median(setup, repeats) * 1e6 / flows,
        "tor.teardown_us": _median(teardown, repeats) * 1e6 / flows,
        "tor.stream_msgs_per_s": messages / _median(streams, repeats),
    }


# ----------------------------------------------------------------------
# scenario
# ----------------------------------------------------------------------


def _reference_spec() -> NetScaleConfig:
    """The default-seed ``netscale-wave`` spec: what planning is timed on."""
    return NetScaleConfig(circuit_count=40, network=NetworkConfig(30, 30, 30))


def _sharding_plan(clusters: int, force_bottleneck: bool) -> ScenarioPlan:
    """``bench_engine.py``'s scaling scenario at an eighth of its payload."""
    return plan_scenario(Scenario(
        topology=GeneratedTopology(
            network=NetworkConfig(relay_count=16, client_count=8, server_count=8),
            force_bottleneck=force_bottleneck,
            clusters=clusters,
        ),
        workloads=(BulkWorkload(payload_bytes=kib(16)),),
        probes=() if force_bottleneck else (GoodputProbe(interval=0.5),),
        circuit_count=16,
        max_sim_time=90.0,
        seed=13,
    ))


def _sharded_speedup(plan: ScenarioPlan, repeats: int) -> float:
    serial = _median(lambda: _clock(lambda: run_sharded(plan, shards=1)), repeats)
    sharded = _median(lambda: _clock(lambda: run_sharded(plan, shards=2)), repeats)
    return serial / sharded


def scenario_layer(workdir: str, repeats: int, heavy: int) -> Dict[str, float]:
    scenario = _reference_spec().to_scenario()
    plan = plan_scenario(scenario)
    warm = PlanCache()
    plan_scenario(scenario, cache=warm)
    encoded = encode(plan)
    disk = DiskPlanCache(tempfile.mkdtemp(prefix="layer-plans-", dir=workdir))
    disk.put_plan(plan.spec_hash, plan)

    def hit() -> float:
        return _clock(lambda: plan_scenario(scenario, cache=warm))

    disjoint = _sharding_plan(clusters=4, force_bottleneck=False)
    if len(partition_plan(disjoint)) != 4:
        raise RuntimeError("the disjoint sharding plan lost its 4 components")
    coupled = _sharding_plan(clusters=2, force_bottleneck=True)

    return {
        "scenario.plan_ms": _median(
            lambda: _clock(lambda: plan_scenario(scenario)), repeats) * 1e3,
        "scenario.plan_hit_us": _median(hit, repeats) * 1e6,
        "scenario.instantiate_ms": _median(
            lambda: _clock(lambda: instantiate_network(plan.network, Simulator())),
            repeats) * 1e3,
        "scenario.plan_encode_ms": _median(
            lambda: _clock(lambda: encode(plan)), repeats) * 1e3,
        "scenario.plan_decode_ms": _median(
            lambda: _clock(lambda: decode(ScenarioPlan, encoded)), repeats) * 1e3,
        "scenario.disk_put_ms": _median(
            lambda: _clock(lambda: disk.put_plan(plan.spec_hash, plan)), repeats) * 1e3,
        "scenario.disk_get_ms": _median(
            lambda: _clock(lambda: disk.get_plan(plan.spec_hash)), repeats) * 1e3,
        "scenario.sharded_speedup_2": _sharded_speedup(disjoint, heavy),
        "scenario.coupled_speedup_2": _sharded_speedup(coupled, heavy),
    }


# ----------------------------------------------------------------------
# serialize, storage, jobs: all on one small netscale result
# ----------------------------------------------------------------------


def _tiny_specs(count: int) -> List[NetScaleConfig]:
    """The ``sweep-tiny`` job shape at the default seed."""
    return [
        NetScaleConfig(
            circuit_count=2, bulk_fraction=1.0, bulk_payload_bytes=kib(4) + index,
            network=NetworkConfig(8, 4, 4),
        )
        for index in range(count)
    ]


def result_layers(workdir: str, repeats: int) -> Dict[str, float]:
    """``serialize``/``storage``/``jobs`` primitives on one netscale result."""
    spec = NetScaleConfig(
        circuit_count=8, bulk_payload_bytes=kib(64), network=NetworkConfig(30, 30, 30)
    )
    result = get_experiment("netscale").run(spec)
    data = encode(result)
    spec_data = encode(spec)
    kilobytes = len(json.dumps(data, sort_keys=True)) / 1024.0
    envelope = {"format": 1, "kind": "bench", "key": "k", "payload": data}
    expect = {"format": 1, "kind": "bench", "key": "k"}
    directory = tempfile.mkdtemp(prefix="layer-store-", dir=workdir)
    envelope_path = os.path.join(directory, "envelope.json")
    lock_path = os.path.join(directory, "entry.lock")
    locks = OwnerLocks(10.0)
    store = JobStore(os.path.join(directory, "jobs"))
    key = job_key("netscale", spec_data)

    def lock_cycle() -> None:
        locks.acquire(lock_path)
        locks.release(lock_path)

    def lease_cycle() -> None:
        store.lease(key, "netscale", 0)
        store.release(key)

    def fingerprint() -> float:
        # The fingerprint is memoized per process; clearing the memo is
        # the only way to time the first call more than once.
        job_store._code_fingerprint_memo = None
        return _clock(job_store.code_fingerprint)

    def timed(body: Callable[[], Any], scale: float) -> float:
        return _median(lambda: _clock(body), repeats) * scale

    write_envelope(envelope_path, envelope)
    store.put(key, "netscale", spec_data, data)
    return {
        "scenario.result_encode_ms": timed(
            lambda: json.dumps(result.to_dict(), sort_keys=True), 1e3),
        "serialize.encode_us_per_kb": timed(lambda: encode(result), 1e6 / kilobytes),
        "serialize.decode_us_per_kb": timed(
            lambda: NetScaleResult.from_dict(data), 1e6 / kilobytes),
        "storage.write_envelope_us": timed(
            lambda: write_envelope(envelope_path, envelope), 1e6),
        "storage.read_envelope_us": timed(
            lambda: read_envelope(envelope_path, expect), 1e6),
        "storage.content_hash_us_per_kb": timed(
            lambda: content_hash(data), 1e6 / kilobytes),
        "storage.lock_cycle_us": timed(lock_cycle, 1e6),
        "jobs.key_us": timed(lambda: job_key("netscale", spec_data), 1e6),
        "jobs.fingerprint_ms": _median(fingerprint, repeats) * 1e3,
        "jobs.put_us": timed(lambda: store.put(key, "netscale", spec_data, data), 1e6),
        "jobs.get_us": timed(lambda: store.get(key), 1e6),
        "jobs.lease_cycle_us": timed(lease_cycle, 1e6),
    }


def dispatch_layer(workdir: str, repeats: int, count: int) -> Dict[str, float]:
    """Per-job cost of ``run_batch`` over what the jobs cost run directly."""
    specs = _tiny_specs(count)
    jobs = [("netscale", spec) for spec in specs]
    experiment = get_experiment("netscale")

    def direct() -> float:
        DEFAULT_CACHE.clear()
        def body() -> None:
            for spec in specs:
                experiment.run(spec)

        return _clock(body)

    def bare() -> float:
        DEFAULT_CACHE.clear()
        return _clock(lambda: run_batch(jobs, workers=1))

    checkpointed_dirs: List[Dict[str, str]] = []

    def checkpointed() -> float:
        DEFAULT_CACHE.clear()
        dirs = dict(
            plan_cache_dir=tempfile.mkdtemp(prefix="layer-plans-", dir=workdir),
            checkpoint_dir=tempfile.mkdtemp(prefix="layer-ckpt-", dir=workdir),
        )
        checkpointed_dirs.append(dirs)
        return _clock(lambda: run_batch(jobs, workers=1, **dirs))

    def resume() -> float:
        dirs = checkpointed_dirs[-1]
        return _clock(lambda: run_batch(jobs, workers=1, resume=True, **dirs))

    def pool_startup() -> float:
        pair = jobs[:2]
        pooled = _clock(lambda: run_batch(pair, workers=2))
        serial = _clock(lambda: run_batch(pair, workers=1))
        return pooled - serial

    direct_s = _median(direct, repeats)
    bare_s = _median(bare, repeats)
    checkpointed_s = _median(checkpointed, repeats)
    results = os.path.join(checkpointed_dirs[-1]["checkpoint_dir"], "results")
    checkpoint_bytes = sum(
        os.path.getsize(os.path.join(results, name)) for name in os.listdir(results)
    )
    return {
        "jobs.dispatch_overhead_ms_per_job": (bare_s - direct_s) * 1e3 / count,
        "jobs.checkpoint_overhead_ms_per_job": (checkpointed_s - bare_s) * 1e3 / count,
        "jobs.resume_ms_per_job": _median(resume, repeats) * 1e3 / count,
        "jobs.checkpoint_bytes_per_job": checkpoint_bytes / count,
        "jobs.pool_startup_ms": _median(pool_startup, repeats) * 1e3,
    }


def measure_layers(workdir: str, smoke: bool = False) -> Dict[str, float]:
    """Every timed entry of the ledger.  *smoke* cuts repeats, not cases."""
    repeats = 3 if smoke else REPEATS
    heavy = 1 if smoke else HEAVY_REPEATS
    ledger: Dict[str, float] = {}
    ledger.update(sim_layer(repeats))
    ledger.update(net_layer(repeats))
    ledger.update(transport_layer(repeats))
    ledger.update(tor_layer(repeats))
    ledger.update(scenario_layer(workdir, repeats, heavy))
    ledger.update(result_layers(workdir, repeats))
    ledger.update(dispatch_layer(workdir, heavy if smoke else 5, 10 if smoke else 30))
    return ledger
