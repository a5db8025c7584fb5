"""Pre-fault-plane golden pins for the existing experiments.

The fault plane refactor threads a ``FaultModel`` hook through every
transmission, failure bookkeeping through every workload run, and new
``faults``/``fault_events`` fields through the scenario spec and plan.
These tests pin the acceptance criterion that all of it is *invisible*
when unconfigured: the canonical JSON of the ``cdf``, ``netscale`` and
``churn-study`` experiments must match the golden files captured
before the refactor — byte for byte, serial and pooled, against a cold
and a warm disk plan cache.

``adversity_study.json`` was added later (captured at the commit
before the study harnesses were folded into one ``GridStudy``
skeleton): it is the one pin with the fault plane *on* (link loss and
relay kills), and it covers the study's aggregated rows, which no
other golden reaches.

``scenario_closed_loop.json`` (captured at the commit before the three
workload run classes became one ``WorkloadRun``) runs the generic
``scenario`` experiment over the parts no other golden reaches: a
closed-loop user population, request/response circuits mixed with bulk
ones, queue depth at every relay and the per-circuit goodput series.

The golden files live in ``tests/golden/`` and are regenerated only
deliberately (a conscious format change), never by test code.
"""

import json
import os

import pytest

from repro.experiments import (
    AdversityStudyConfig,
    CdfConfig,
    ChurnStudyConfig,
    NetScaleConfig,
)
from repro.experiments.netgen import NetworkConfig
from repro.experiments.registry import get_experiment
from repro.experiments.runner import BatchJob, run_batch
from repro.scenario import (
    BulkWorkload,
    ClosedLoopChurn,
    GeneratedTopology,
    GoodputProbe,
    QueueDepthProbe,
    RequestResponseWorkload,
    Scenario,
)
from repro.units import kib

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")


def _network():
    return NetworkConfig(relay_count=8, client_count=6, server_count=6)


def golden_cdf():
    return CdfConfig(
        circuit_count=6,
        payload_bytes=kib(60),
        network=_network(),
    )


def golden_netscale():
    return NetScaleConfig(
        circuit_count=6,
        bulk_payload_bytes=kib(60),
        interactive_payload_bytes=kib(10),
        start_window=1.0,
        network=_network(),
    )


def golden_churn_study():
    return ChurnStudyConfig(
        rates=(2.0, 6.0),
        circuit_count=6,
        bulk_payload_bytes=kib(60),
        interactive_payload_bytes=kib(10),
        start_window=1.0,
        horizon=3.0,
        network=_network(),
    )


def golden_adversity_study():
    # Loss *and* relay churn on: the one pin that crosses the fault
    # plane (go-back-N, kill/restart cascades, failure-rate probe).
    return AdversityStudyConfig(
        loss_rates=(0.0, 0.02),
        relay_mttfs=(0.0, 2.0),
        arrival_rate=2.0,
        circuit_count=6,
        bulk_payload_bytes=kib(60),
        interactive_payload_bytes=kib(10),
        start_window=1.0,
        horizon=3.0,
        max_relay_kills=2,
        network=_network(),
    )


def golden_closed_loop():
    # Users that come back after a think time, each fetching either one
    # bulk payload or three small responses separated by think times
    # drawn at run time; every circuit crosses the slowest relay.
    return Scenario(
        topology=GeneratedTopology(network=_network(), force_bottleneck=True),
        workloads=(
            BulkWorkload(payload_bytes=kib(60)),
            RequestResponseWorkload(
                response_bytes=kib(4), request_count=3,
                think_time=0.05, think_seed=7,
            ),
        ),
        churn=ClosedLoopChurn(
            start_window=1.0, think_time=0.5, service_estimate=0.5, horizon=3.0
        ),
        probes=(
            QueueDepthProbe(interval=0.5, scope="relays"),
            GoodputProbe(interval=0.5, workload="request-response"),
        ),
        circuit_count=6,
    )


CASES = [
    ("cdf", golden_cdf, "cdf.json"),
    ("netscale", golden_netscale, "netscale.json"),
    ("churn-study", golden_churn_study, "churn_study.json"),
    ("adversity-study", golden_adversity_study, "adversity_study.json"),
    ("scenario", golden_closed_loop, "scenario_closed_loop.json"),
]


def _golden(filename: str) -> str:
    with open(os.path.join(GOLDEN_DIR, filename)) as handle:
        return json.dumps(json.load(handle), sort_keys=True)


def _canonical(result) -> str:
    return json.dumps(result.to_dict(), sort_keys=True)


@pytest.mark.parametrize("name,build,filename", CASES)
def test_serial_matches_pre_refactor_golden(name, build, filename):
    result = get_experiment(name).run(build())
    assert _canonical(result) == _golden(filename)


@pytest.mark.parametrize("name,build,filename", CASES)
def test_pooled_cold_then_warm_disk_cache_match_golden(
    name, build, filename, tmp_path
):
    """Pool workers (fresh processes, so genuinely cold in-memory
    caches) against a cold disk tier, then again against the warm one
    the first sweep populated — all byte-identical to the golden."""
    cache_dir = str(tmp_path / "plan-cache")
    golden = _golden(filename)
    for pass_name in ("cold", "warm"):
        batch = run_batch(
            [BatchJob(experiment=name, spec=build())],
            workers=2,
            plan_cache_dir=cache_dir,
        )
        assert not batch.items[0].failed, pass_name
        assert _canonical(batch.items[0].result_object()) == golden, pass_name


@pytest.mark.parametrize("name,build,filename", CASES)
def test_serial_warm_disk_cache_matches_golden(name, build, filename, tmp_path):
    from repro.scenario.cache import DEFAULT_CACHE, attached_disk_tier

    cache_dir = str(tmp_path / "plan-cache")
    with attached_disk_tier(DEFAULT_CACHE, cache_dir):
        get_experiment(name).run(build())  # populate the disk tier
        result = get_experiment(name).run(build())
    assert _canonical(result) == _golden(filename)


def test_adversity_pin_has_teeth(monkeypatch):
    """A planted aggregation bug must trip the adversity pin.

    Every grid point's failure rate is read through
    ``ScenarioResult.failure_rate``; biasing it moves the aggregated
    ``failure_rate`` of every row and nothing else, and the same
    comparison the pins use has to notice.
    """
    from repro.scenario import ScenarioResult

    golden = _golden("adversity_study.json")
    spec = golden_adversity_study()
    honest = ScenarioResult.failure_rate
    monkeypatch.setattr(
        ScenarioResult, "failure_rate",
        lambda self, kind: honest(self, kind) + 0.125,
    )
    planted = get_experiment("adversity-study").run(spec).to_dict()
    assert json.dumps(planted, sort_keys=True) != golden
    # The perturbation is the only difference: undoing it restores the pin.
    for row in planted["points"] + planted["improvements"]:
        row["failure_rate"] -= 0.125
    assert json.dumps(planted, sort_keys=True) == golden


def test_closed_loop_pin_has_teeth(monkeypatch):
    """A think time drawn from the wrong substream must trip the pin.

    The plan (arrivals, paths, workload classes) is drawn before any
    circuit runs and must not move; what a request/response circuit
    does between its responses is the only run-time draw in the
    scenario, so planting a bug there moves those circuits' delivery
    times and, through the relays they share, the rest of the bytes.
    """
    from repro.scenario import workloads

    golden = _golden("scenario_closed_loop.json")
    honest = workloads.derive_seed
    monkeypatch.setattr(
        workloads, "derive_seed",
        lambda seed, label: honest(seed, "planted." + label),
    )
    planted = get_experiment("scenario").run(golden_closed_loop()).to_dict()
    assert json.dumps(planted, sort_keys=True) != golden
    pinned = json.loads(golden)
    assert planted["scenario"] == pinned["scenario"]
    assert planted["spec_hash"] == pinned["spec_hash"]
    moved = 0
    for kind in ("with", "without"):
        for got, want in zip(planted["samples"][kind], pinned["samples"][kind]):
            for key in ("index", "workload", "generation", "relays", "start_time"):
                assert got[key] == want[key]
            if got["workload"] == "request-response":
                moved += got["message_latencies"] != want["message_latencies"]
    assert moved


def test_closed_loop_rendered_text_is_pinned():
    """``repro scenario run`` as printed for the closed-loop spec: the
    per-workload table, one line per probe series (queue depth at every
    relay, goodput per request/response circuit) and the event counts."""
    from helpers import pins, render_digest

    result = get_experiment("scenario").run(golden_closed_loop())
    assert render_digest("scenario", result) == pins("scenario")["closed-loop"]
