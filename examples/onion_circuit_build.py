#!/usr/bin/env python3
"""Circuit establishment with onion routing, then a measured download.

Demonstrates the Tor-layer machinery underneath the experiments:

* a consensus :class:`Directory` with bandwidth-weighted relays;
* Tor-style path selection (guard, middle, exit);
* an onion-wrapped CREATE sweep — each relay peels exactly one layer
  and learns only its neighbors;
* a bulk download over the established circuit, with the setup time
  and the transfer time reported separately.

Run:  python examples/onion_circuit_build.py
"""

from __future__ import annotations

from repro.net import LinkSpec, build_star
from repro.sim import RandomStreams, Simulator
from repro.tor import (
    CircuitBuilder,
    CircuitSpec,
    Directory,
    PathSelector,
    RelayDescriptor,
)
from repro.tor.onion import wrap_path
from repro.transport import TransportConfig
from repro.units import kib, mbit_per_second, milliseconds


def main() -> None:
    sim = Simulator()
    streams = RandomStreams(seed=42)

    # A small star network: one hub, five relays, a client and a server.
    relays = {
        "relayA": 32.0, "relayB": 16.0, "relayC": 8.0,
        "relayD": 8.0, "relayE": 4.0,
    }
    leaves = {
        name: LinkSpec(mbit_per_second(rate), milliseconds(8))
        for name, rate in relays.items()
    }
    leaves["client"] = LinkSpec(mbit_per_second(100), milliseconds(4))
    leaves["server"] = LinkSpec(mbit_per_second(100), milliseconds(4))
    topology = build_star(sim, "hub", leaves)

    directory = Directory(
        RelayDescriptor(name, mbit_per_second(rate))
        for name, rate in relays.items()
    )
    selector = PathSelector(directory, streams.stream("paths"))
    path = [r.name for r in selector.select_path(3)]
    print("selected path (bandwidth-weighted):", " -> ".join(path))

    # Show the onion-routing property on the CREATE payload.
    onion = wrap_path(path + ["client"])
    print("onion depth:", onion.depth)
    current, previous = onion, "server"
    for name in path + ["client"]:
        layer, current = current.peel(name)
        print(
            "  %-8s peels a layer: predecessor=%s successor=%s"
            % (name, previous, layer.next_hop or "(terminates)")
        )
        previous = name

    # Establish the circuit for real and run a 200 KiB download
    # (data direction: server -> relays -> client).
    builder = CircuitBuilder(sim, topology, TransportConfig())
    spec = CircuitSpec(1, "server", path, "client")
    flow = builder.establish_then_start(spec, payload_bytes=kib(200))
    sim.run()

    print()
    print("circuit setup time : %.1f ms" % (flow.handle.setup_time * 1e3))
    print("download time      : %.3f s (excluding setup)" % flow.time_to_last_byte)
    print("bytes delivered    : %d" % flow.sink.received_bytes)


if __name__ == "__main__":
    main()
