"""Tests for the adversity study (repro.experiments.adversity)."""

from __future__ import annotations

import json

import pytest

from repro.experiments import RunContext, get_experiment
from repro.experiments.adversity import (
    AdversityStudyConfig,
    AdversityStudyResult,
)
from repro.experiments.churn_study import ChurnStudyConfig
from repro.experiments.netgen import NetworkConfig
from repro.units import kib


def small_study(**overrides) -> AdversityStudyConfig:
    defaults = dict(
        loss_rates=(0.0, 0.02),
        relay_mttfs=(0.0, 3.0),
        arrival_rate=2.0,
        circuit_count=6,
        bulk_payload_bytes=kib(60),
        interactive_payload_bytes=kib(10),
        start_window=1.0,
        horizon=3.0,
        network=NetworkConfig(relay_count=8, client_count=6, server_count=6),
    )
    defaults.update(overrides)
    return AdversityStudyConfig(**defaults)


run_adversity_study = get_experiment("adversity-study").run
run_churn_study = get_experiment("churn-study").run


@pytest.fixture(scope="module")
def study() -> AdversityStudyResult:
    return run_adversity_study(small_study())


# ----------------------------------------------------------------------
# Spec
# ----------------------------------------------------------------------


def test_grid_is_loss_major():
    spec = small_study()
    assert spec.grid() == [(0.0, 0.0), (0.0, 3.0), (0.02, 0.0), (0.02, 3.0)]


def test_spec_validation():
    with pytest.raises(ValueError, match="at least one"):
        small_study(loss_rates=())
    with pytest.raises(ValueError, match="within"):
        small_study(loss_rates=(0.0, 1.0))
    with pytest.raises(ValueError, match="non-negative"):
        small_study(relay_mttfs=(-1.0,))
    with pytest.raises(ValueError, match="distinct"):
        small_study(loss_rates=(0.0, 0.0))
    with pytest.raises(ValueError, match="arrival_rate"):
        small_study(arrival_rate=0.0)
    with pytest.raises(ValueError, match="transport profile"):
        small_study(transport_profile="teleport")


@pytest.mark.parametrize("overrides", [
    dict(loss_rates=(float("nan"),)),
    dict(relay_mttfs=(float("nan"),)),
    dict(relay_mttfs=(0.0, float("inf"))),
    dict(arrival_rate=float("nan")),
    dict(arrival_rate=float("inf")),
    dict(relay_mttr=float("nan")),
    dict(relay_mttr=float("inf")),
    dict(horizon=float("inf")),
], ids=lambda overrides: "%s=%s" % next(iter(overrides.items())))
def test_nan_or_infinite_spec_is_refused(overrides):
    """Construct only: a NaN rate hung the planner or crashed a point,
    and a NaN MTTF or MTTR ran under a NaN label."""
    with pytest.raises(ValueError):
        small_study(**overrides)


def test_execution_knobs_are_not_fields(tmp_path):
    ctx = RunContext(workers=3, checkpoint_dir=str(tmp_path / "x"))
    spec = small_study(loss_rates=(0.0,), relay_mttfs=(0.0,))
    config = run_adversity_study(spec, ctx).config
    for knob in vars(ctx):
        assert not hasattr(config, knob)
    encoded = json.dumps(config.to_dict(), sort_keys=True)
    assert "workers" not in encoded and "checkpoint" not in encoded
    assert encoded == json.dumps(spec.to_dict(), sort_keys=True)


def test_clean_corner_scenario_has_no_faults():
    spec = small_study()
    clean = spec.point_scenario(0.0, 0.0)
    assert clean.faults == ()
    assert not clean.transport.reliable
    faulted = spec.point_scenario(0.02, 3.0)
    assert len(faulted.faults) == 2
    assert faulted.transport.reliable


# ----------------------------------------------------------------------
# The study
# ----------------------------------------------------------------------


def test_point_rows_cover_the_grid(study):
    spec = study.config
    assert len(study.points) == len(spec.grid()) * len(spec.kinds)
    assert len(study.improvements) == len(spec.grid())
    for loss, mttf in spec.grid():
        for kind in spec.kinds:
            row = study.point(loss, mttf, kind)
            assert row.circuits > 0
            assert 0.0 <= row.failure_rate <= 1.0
        study.improvement(loss, mttf)
    with pytest.raises(KeyError):
        study.point(0.5, 0.5, "with")


def test_adversity_shows_up_in_the_rows(study):
    # Loss without relay churn: go-back-N recovers every circuit, at
    # the price of retransmissions.
    lossy = study.point(0.02, 0.0, "with")
    assert lossy.failure_rate == 0.0
    assert lossy.retransmissions > 0
    # The clean corner never retransmits (machinery gated off).
    clean = study.point(0.0, 0.0, "with")
    assert clean.retransmissions == 0 and clean.timeouts == 0
    # Relay churn fails circuits, and the improvement row records the
    # planned kills.
    churned = study.improvement(0.0, 3.0)
    assert churned.relay_kills > 0
    assert churned.failure_rate > 0.0
    assert study.improvement(0.0, 0.0).relay_kills == 0


def test_clean_corner_matches_churn_study_exactly(study):
    spec = study.config
    churn = run_churn_study(
        ChurnStudyConfig(
            rates=(spec.arrival_rate,),
            circuit_count=spec.circuit_count,
            hops=spec.hops,
            bulk_fraction=spec.bulk_fraction,
            bulk_payload_bytes=spec.bulk_payload_bytes,
            interactive_payload_bytes=spec.interactive_payload_bytes,
            seed=spec.seed,
            start_window=spec.start_window,
            horizon=spec.horizon,
            probe_interval=spec.probe_interval,
            max_sim_time=spec.max_sim_time,
            kinds=spec.kinds,
            network=spec.network,
            transport=spec.transport,
        )
    )
    corner = study.improvement(0.0, 0.0)
    reference = churn.improvements[0]
    assert corner.bottleneck_utilization == reference.bottleneck_utilization
    assert corner.ttfb_improvement == reference.ttfb_improvement
    assert corner.ttlb_improvement == reference.ttlb_improvement
    assert corner.startup_improvement == reference.startup_improvement
    for kind in spec.kinds:
        mine = study.point(0.0, 0.0, kind)
        theirs = next(p for p in churn.points if p.kind == kind)
        assert mine.median_ttfb == theirs.median_ttfb
        assert mine.median_ttlb == theirs.median_ttlb
        assert mine.median_startup == theirs.median_startup
        assert mine.bottleneck_utilization == theirs.bottleneck_utilization


def test_parallel_sweep_is_byte_identical(study):
    pooled = run_adversity_study(small_study(), RunContext(workers=2))
    assert (json.dumps(pooled.to_dict(), sort_keys=True)
            == json.dumps(study.to_dict(), sort_keys=True))


def test_checkpointed_sweep_resumes_byte_identical(study, tmp_path):
    checkpoint = str(tmp_path / "ckpt")
    first = run_adversity_study(
        small_study(), RunContext(checkpoint_dir=checkpoint)
    )
    assert first.checkpoint and first.checkpoint["computed"] == 4
    resumed = run_adversity_study(
        small_study(), RunContext(checkpoint_dir=checkpoint)
    )
    assert resumed.checkpoint["computed"] == 0
    assert resumed.checkpoint["reused"] == 4
    assert (json.dumps(resumed.to_dict(), sort_keys=True)
            == json.dumps(study.to_dict(), sort_keys=True))


def test_result_round_trips(study):
    experiment = get_experiment("adversity-study")
    rebuilt = experiment.result_type.from_dict(study.to_dict())
    assert (json.dumps(rebuilt.to_dict(), sort_keys=True)
            == json.dumps(study.to_dict(), sort_keys=True))


def test_render_smokes(study):
    text = get_experiment("adversity-study").render(study)
    assert "Adversity study" in text
    assert "Improvement under adversity" in text
    assert "circuit failure rate" in text
    assert "MTTF" in text


def test_estimate_cost_sums_the_grid():
    cost = get_experiment("adversity-study").estimate_cost(small_study())
    assert cost["circuits"] > 0
    assert cost["cells"] > 0
    assert cost["kinds"] == 2


def test_rendered_text_is_pinned(study):
    """``repro adversity-study`` as printed for the reduced sweep: both tables
    and the figure.  Rendered from the decoded result, which carries no
    run metadata: the plan-cache line under the figure counts what this
    process happened to have planned before."""
    from helpers import pins, render_digest

    decoded = type(study).from_dict(study.to_dict())
    assert render_digest("adversity-study", decoded) == pins("adversity-study")["reduced"]
