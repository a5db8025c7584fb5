"""Importable test helpers.

Lives in its own module (not ``conftest.py``) so test files can
``from helpers import make_chain_flow`` without depending on which
``conftest`` pytest put on ``sys.path`` first.
"""

from __future__ import annotations

import hashlib
import json

from repro.net.topology import LinkSpec, build_chain
from repro.tor.circuit import CircuitFlow, CircuitSpec, allocate_circuit_id
from repro.transport.config import TransportConfig
from repro.units import mbit_per_second, milliseconds

__all__ = [
    "assert_shared_tier_counters",
    "json_digest",
    "make_chain_flow",
    "read_header",
    "render_digest",
    "rewrite_header",
    "text_digest",
]


def json_digest(result) -> str:
    """sha256 of the text ``repro <verb> --json`` prints for *result*.

    The chain harnesses pin their output with it: a digest in the test
    file stands for a golden file of a few KB, and says "these bytes
    did not move" just as exactly.
    """
    text = json.dumps(result.to_dict(), indent=2, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


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
