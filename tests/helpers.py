"""Importable test helpers.

Lives in its own module (not ``conftest.py``) so test files can
``from helpers import make_chain_flow`` without depending on which
``conftest`` pytest put on ``sys.path`` first.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import json
import os
from typing import Dict

import pytest

from repro.net.topology import LinkSpec, build_chain
from repro.tor.circuit import CircuitFlow, CircuitSpec, allocate_circuit_id
from repro.transport.config import TransportConfig
from repro.units import mbit_per_second, milliseconds

__all__ = [
    "InFlight",
    "SHORT_HORIZON_ERROR",
    "SHORT_HORIZON_SCENARIO",
    "assert_shared_tier_counters",
    "json_digest",
    "link_counters",
    "make_chain_flow",
    "network_spy",
    "pin_ledger",
    "pins",
    "read_header",
    "render_digest",
    "rewrite_header",
    "text_digest",
]

#: A fault-free scenario whose horizon ends mid-transfer: none of its
#: three 400 KiB circuits can finish in 0.2 s, so the run is refused.
SHORT_HORIZON_SCENARIO = {
    "topology": {"part": "generated",
                 "network": {"relay_count": 8, "client_count": 6,
                             "server_count": 6}},
    "workloads": [{"part": "bulk", "payload_bytes": 409600}],
    "circuit_count": 3,
    "max_sim_time": 0.2,
}

#: The one line that refusal reads as: today's words, then how far the
#: first unfinished circuit got (slow or stuck).
SHORT_HORIZON_ERROR = (
    r"^3/3 circuits did not finish within 0\.2s \(kind=with\); first: "
    r"circuit 1 \(bulk\), [1-9]\d* of 409600 bytes delivered$"
)


class InFlight:
    """One hop's count of cells in flight, for a controller driven alone.

    In the engine the hop sender owns this count and tells the
    controller, with each feedback, whether the hop drained.  A
    controller unit test keeps the count here and does the same.
    """

    def __init__(self, controller) -> None:
        self.controller = controller
        self.cells = 0

    def send(self, count: int = 1) -> None:
        self.cells += count

    def feedback(self, rtt: float, now: float, sampled: bool = True) -> None:
        # A feedback with nothing in flight finds the hop drained.
        self.cells = max(0, self.cells - 1)
        self.controller.on_feedback(rtt, now, not self.cells, sampled=sampled)


@functools.lru_cache(maxsize=None)
def pin_ledger() -> dict:
    """``tests/pins.json``, read once per process: group -> ``covers``
    (what it pins), ``teeth`` (``file.py::test_name`` of a test showing
    a real change moves it) and ``sha256`` (key -> digest).  Shared by
    every caller; read it, never change it."""
    with open(os.path.join(os.path.dirname(__file__), "pins.json")) as handle:
        return json.load(handle)


def pins(group: str) -> Dict[str, str]:
    """The pinned sha256 digests of *group* in ``tests/pins.json``, by key.

    Every digest a test pins lives in that one ledger.  A re-pin is a
    hand edit of the ledger, never of a test file.
    """
    return dict(pin_ledger()[group]["sha256"])


def json_digest(result) -> str:
    """sha256 of the text ``repro <verb> --json`` prints for *result*.

    The chain harnesses pin their output with it: a digest in the
    ledger stands for a golden file of a few KB, and says "these bytes
    did not move" just as exactly.
    """
    return text_digest(json.dumps(result.to_dict(), indent=2, sort_keys=True))


def text_digest(text: str) -> str:
    """sha256 of *text*: a rendering, or a verb's captured stdout."""
    return hashlib.sha256(text.encode()).hexdigest()


def render_digest(name: str, result) -> str:
    """sha256 of the text ``repro <name>`` prints for *result* without
    ``--json``: what :func:`json_digest` is to the data, for the tables
    and figures a reader sees."""
    from repro.experiments import get_experiment

    return text_digest(get_experiment(name).render(result))


def read_header(path: str) -> dict:
    """The header of the storage entry at *path*: its first line."""
    with open(path, "rb") as handle:
        return json.loads(handle.readline())


def rewrite_header(path: str, **fields) -> None:
    """Set *fields* in the header of the storage entry at *path*.

    An entry is a header line, then the payload; only the header is
    rewritten, so the payload bytes and the digest over them stay as
    written and a miss can only come from the fields changed.
    """
    with open(path, "rb") as handle:
        head, newline, body = handle.read().partition(b"\n")
    header = dict(json.loads(head), **fields)
    with open(path, "wb") as handle:
        handle.write(
            json.dumps(header, separators=(",", ":")).encode("utf-8") + newline + body
        )


def assert_shared_tier_counters(stats, distinct_specs: int, workers: int) -> None:
    """What processes sharing one disk plan tier count, however they raced.

    *stats* sums the plan-cache counters of *workers* processes that
    planned *distinct_specs* specs over one network.  Nothing
    coordinates cold planners: each spec is planned once, the shared
    network by anywhere from one process to all of them, and every
    lookup memory could not answer consulted disk once and counted one
    hit or one miss — a disk miss being exactly one cold plan.
    """
    assert stats["plan_misses"] == distinct_specs and stats["plan_hits"] == 0
    assert stats["disk_plan_hits"] + stats["disk_plan_misses"] == distinct_specs
    assert 1 <= stats["network_misses"] <= workers
    assert stats["network_hits"] + stats["network_misses"] == distinct_specs
    assert stats["disk_network_misses"] == stats["network_misses"]
    assert stats["disk_network_hits"] <= stats["network_hits"]


def make_chain_flow(
    sim,
    relay_count=3,
    rates_mbit=None,
    delay_ms=8.0,
    controller_kind="circuitstart",
    payload_bytes=64 * 498,
    config=None,
    start_time=0.0,
    workload_none=False,
):
    """Build a chain topology with one circuit flow over it.

    Returns ``(flow, topology, specs)``.  ``rates_mbit`` gives one rate
    per link (relay_count + 1 links); default: all 16 Mbit/s.
    """
    link_count = relay_count + 1
    if rates_mbit is None:
        rates_mbit = [16.0] * link_count
    if len(rates_mbit) != link_count:
        raise ValueError("need %d link rates" % link_count)
    specs = [
        LinkSpec(mbit_per_second(r), milliseconds(delay_ms)) for r in rates_mbit
    ]
    relay_names = ["relay%d" % (i + 1) for i in range(relay_count)]
    names = ["source", *relay_names, "sink"]
    topology = build_chain(sim, names, specs)
    flow = CircuitFlow(
        sim,
        topology,
        CircuitSpec(allocate_circuit_id(), "source", relay_names, "sink"),
        config or TransportConfig(),
        controller_kind=controller_kind,
        payload_bytes=payload_bytes,
        start_time=start_time,
        workload="none" if workload_none else "bulk",
    )
    return flow, topology, specs


@contextlib.contextmanager
def network_spy(tamper=None):
    """Record every network a kind run builds while the block runs.

    Yields the list each network ``repro.scenario.engine`` instantiates
    is appended to, in build order.  *tamper*, if given, sees each
    network right after it is built.  Only a run in this process is
    seen (see ``run_planned(plan, kinds=[kind])``).  The spy costs one
    frame and one ``append`` per network: the per-cell budget counts
    the calls made inside it.
    """
    from repro.scenario import engine

    networks = []
    instantiate = engine.instantiate_network

    def remember(*args, **kwargs):
        network = instantiate(*args, **kwargs)
        if tamper is not None:
            tamper(network)
        networks.append(network)
        return network

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine, "instantiate_network", remember)
        yield networks


def link_packet_totals(topology):
    """``(sent, received)``: packets every interface of *topology* put on
    a wire, and packets every node took off one.  Equal when no packet
    was lost and none is still in flight."""
    nodes = topology.nodes.values()
    sent = sum(iface.packets_sent for node in nodes for iface in node.interfaces)
    return sent, sum(node.packets_received for node in nodes)


def link_counters(topology):
    """What the link layer counted on *topology*: per interface ``(name,
    packets_sent, bytes_sent, depth)``, then per node ``(name,
    packets_received)``.

    ``depth`` is the most packets that waited at once behind a
    transmission, but at least 1 once the interface sent anything: the
    pinned digests were taken from a queue that counted a packet going
    straight onto an idle wire as a depth of 1.
    """
    nodes = topology.nodes.values()
    return (
        [
            (
                iface.name, iface.packets_sent, iface.bytes_sent,
                max(iface.max_backlog_packets, min(iface.packets_sent, 1)),
            )
            for node in nodes
            for iface in node.interfaces
        ],
        [(node.name, node.packets_received) for node in nodes],
    )
