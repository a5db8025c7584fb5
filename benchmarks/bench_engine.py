"""Micro-benchmarks of the simulation substrate.

These measure the engine itself (events/second, cells/second through a
circuit) rather than reproducing a paper artifact; they exist so that
performance regressions in the substrate are visible and so the cost of
the Figure-1 experiments stays predictable.

Run:  pytest benchmarks/bench_engine.py --benchmark-only
"""

from __future__ import annotations

import json
import os

import pytest

from repro.sim.events import EventQueue
from repro.sim.simulator import Simulator
from repro.tor.circuit import CircuitFlow, CircuitSpec, allocate_circuit_id
from repro.net.topology import LinkSpec, build_chain
from repro.transport.config import CELL_PAYLOAD, TransportConfig
from repro.units import mbit_per_second, milliseconds


def test_event_queue_throughput(benchmark):
    """Push/pop 10k events through the calendar queue."""

    def churn():
        q = EventQueue()
        for i in range(10_000):
            q.push(float(i % 97), lambda: None)
        count = 0
        while q:
            q.pop()
            count += 1
        return count

    assert benchmark(churn) == 10_000


def test_event_queue_fast_path_throughput(benchmark):
    """Push/pop 10k handle-free events through the calendar queue."""

    def churn():
        q = EventQueue()
        for i in range(10_000):
            q.push_fast(float(i % 97), _noop)
        count = 0
        while q:
            q.pop_callback()
            count += 1
        return count

    assert benchmark(churn) == 10_000


def _noop():
    pass


def test_simulator_event_rate(benchmark):
    """Execute 10k chained timer events."""

    def run():
        sim = Simulator()
        remaining = [10_000]

        def tick():
            remaining[0] -= 1
            if remaining[0] > 0:
                sim.schedule(0.001, tick)

        sim.schedule(0.0, tick)
        sim.run()
        return sim.events_executed

    assert benchmark(run) == 10_000


def test_circuit_cell_throughput(benchmark):
    """Move 500 cells across a 3-relay circuit, end to end."""

    def run():
        sim = Simulator()
        spec = LinkSpec(mbit_per_second(100), milliseconds(2))
        names = ["source", "r1", "r2", "r3", "sink"]
        topo = build_chain(sim, names, [spec] * 4)
        flow = CircuitFlow(
            sim,
            topo,
            CircuitSpec(allocate_circuit_id(), "source", ["r1", "r2", "r3"], "sink"),
            TransportConfig(),
            payload_bytes=500 * CELL_PAYLOAD,
        )
        sim.run()
        return flow.sink.cells_received

    assert benchmark(run) == 500


def test_trace_experiment_wall_time(benchmark):
    """Wall-clock cost of one Figure-1a style run (400 ms simulated)."""
    from repro import TraceConfig, run_trace_experiment

    result = benchmark(run_trace_experiment, TraceConfig())
    assert result.startup_exit_time is not None


# ----------------------------------------------------------------------
# Sharded engine: cells per core
#
# Four leaf-disjoint clusters form four connected components, the
# embarrassingly-parallel regime of the sharded engine.  The same plan
# runs at 1, 2 and 4 shards; output is pinned byte-identical across
# shard counts, and on machines with enough cores the 4-shard run must
# finish at least twice as fast as the serial one.
# ----------------------------------------------------------------------

_SCALING_CACHE = {}


def _scaling_plan():
    plan = _SCALING_CACHE.get("plan")
    if plan is None:
        from repro.experiments.netgen import NetworkConfig
        from repro.scenario.probes import GoodputProbe
        from repro.scenario.spec import Scenario, plan_scenario
        from repro.scenario.topology import GeneratedTopology
        from repro.scenario.workloads import BulkWorkload
        from repro.units import kib

        scenario = Scenario(
            topology=GeneratedTopology(
                network=NetworkConfig(
                    relay_count=16, client_count=8, server_count=8
                ),
                force_bottleneck=False,
                clusters=4,
            ),
            workloads=(BulkWorkload(payload_bytes=kib(128)),),
            probes=(GoodputProbe(interval=0.5),),
            circuit_count=16,
            max_sim_time=90.0,
            seed=13,
        )
        plan = _SCALING_CACHE["plan"] = plan_scenario(scenario)
    return plan


def _run_scaling(shards):
    from repro.scenario.sharded import run_sharded

    return json.dumps(run_sharded(_scaling_plan(), shards=shards).to_dict(),
                      sort_keys=True)


@pytest.mark.parametrize("shards", [1, 2, 4])
def test_sharded_cells_per_core(benchmark, shards):
    """Run the 4-component scenario at a fixed shard count."""
    from repro.scenario.sharded import partition_plan

    assert len(partition_plan(_scaling_plan())) == 4
    output = benchmark(_run_scaling, shards)
    reference = _SCALING_CACHE.setdefault("reference", output)
    assert output == reference  # byte-identical at every shard count


def test_sharded_scaling_speedup():
    """4 shards over 4 components must be >= 2x faster than serial.

    Only measurable where the pool can actually spread: on fewer than
    four cores the workers time-slice one CPU and the comparison says
    nothing about the engine, so the check is skipped.
    """
    import time

    if (os.cpu_count() or 1) < 4:
        pytest.skip("needs >= 4 cores to observe parallel speedup")

    _run_scaling(1)  # warm the plan and code paths
    t0 = time.perf_counter()
    serial = _run_scaling(1)
    serial_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    parallel = _run_scaling(4)
    parallel_s = time.perf_counter() - t0

    assert parallel == serial  # byte-identical regardless of timing
    assert serial_s >= 2.0 * parallel_s, (
        f"expected >= 2x speedup at 4 shards: "
        f"serial {serial_s:.2f}s vs parallel {parallel_s:.2f}s"
    )
