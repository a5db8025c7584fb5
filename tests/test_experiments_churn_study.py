"""Tests for the steady-state churn sweep (repro.experiments.churn_study)."""

from __future__ import annotations

import json

import pytest

from repro.experiments import RunContext, encode, get_experiment
from repro.experiments.churn_study import ChurnStudyConfig, ChurnStudyResult
from repro.experiments.netgen import NetworkConfig
from repro.scenario.cache import DEFAULT_CACHE, attached_disk_tier
from repro.units import kib

from helpers import assert_shared_tier_counters


def small_study(**overrides) -> ChurnStudyConfig:
    defaults = dict(
        rates=(2.0, 6.0),
        circuit_count=6,
        bulk_payload_bytes=kib(60),
        interactive_payload_bytes=kib(10),
        start_window=1.0,
        horizon=3.0,
        network=NetworkConfig(relay_count=8, client_count=6, server_count=6),
    )
    defaults.update(overrides)
    return ChurnStudyConfig(**defaults)


run_churn_study = get_experiment("churn-study").run


@pytest.fixture(scope="module")
def study() -> ChurnStudyResult:
    return run_churn_study(small_study())


# ----------------------------------------------------------------------
# Spec
# ----------------------------------------------------------------------


def test_registered():
    experiment = get_experiment("churn-study")
    assert experiment.spec_type is ChurnStudyConfig
    assert experiment.result_type is ChurnStudyResult


def test_spec_validation():
    with pytest.raises(ValueError, match="at least one arrival rate"):
        small_study(rates=())
    with pytest.raises(ValueError, match="positive"):
        small_study(rates=(2.0, -1.0))
    with pytest.raises(ValueError, match="distinct"):
        small_study(rates=(2.0, 2.0))
    with pytest.raises(ValueError, match="horizon"):
        small_study(start_window=5.0, horizon=4.0)
    with pytest.raises(ValueError, match="probe_interval"):
        small_study(probe_interval=0.0)
    with pytest.raises(ValueError, match="workers"):
        RunContext(workers=0)
    with pytest.raises(ValueError, match="two distinct controller"):
        small_study(kinds=("with", "without", "extra"))
    with pytest.raises(ValueError, match="two distinct controller"):
        small_study(kinds=("with", "with"))


@pytest.mark.parametrize("overrides", [
    dict(rates=(float("nan"),)),
    dict(rates=(2.0, float("inf"))),
    dict(start_window=float("nan")),
    dict(horizon=float("nan")),
    dict(horizon=float("inf")),
    dict(probe_interval=float("nan")),
    dict(probe_interval=float("inf")),
], ids=lambda overrides: "%s=%s" % next(iter(overrides.items())))
def test_nan_or_infinite_spec_is_refused(overrides):
    """Construct only: at a NaN or infinite rate or horizon the arrival
    planner never left its loop."""
    with pytest.raises(ValueError):
        small_study(**overrides)


def test_workers_is_not_a_spec_field():
    """The execution knob never enters the spec, serialized or live."""
    spec = small_study()
    assert not hasattr(spec, "workers")
    assert "workers" not in spec.to_dict()
    study = run_churn_study(small_study(rates=(2.0,)), RunContext(workers=4))
    assert not hasattr(study.config, "workers")
    assert "workers" not in study.config.to_dict()
    assert ChurnStudyConfig.from_dict(study.config.to_dict()) == study.config


def test_point_configs_share_one_network_fingerprint():
    spec = small_study()
    fingerprints = {
        json.dumps(
            config.to_scenario().topology.network_fingerprint(
                config.to_scenario()
            ),
            sort_keys=True,
        )
        for config in (spec.point_config(rate) for rate in spec.rates)
    }
    assert len(fingerprints) == 1


def test_point_config_carries_churn_and_probes():
    config = small_study().point_config(6.0)
    assert config.churn.arrival_rate == 6.0
    assert config.churn.horizon == 3.0
    assert {probe.part_name for probe in config.probes} == {
        "utilization", "goodput",
    }


# ----------------------------------------------------------------------
# Result shape and aggregation
# ----------------------------------------------------------------------


def test_one_row_per_rate_and_kind(study):
    spec = study.config
    expected = [(rate, kind) for rate in spec.rates for kind in spec.kinds]
    assert [(p.arrival_rate, p.kind) for p in study.points] == expected
    assert [row.arrival_rate for row in study.improvements] == list(spec.rates)


def test_rows_carry_steady_state_aggregates(study):
    for point in study.points:
        assert point.circuits >= study.config.circuit_count
        assert 0 <= point.steady_circuits <= point.circuits
        assert point.bottleneck_utilization > 0
        assert point.steady_goodput > 0
        if point.steady_circuits:
            assert point.median_ttfb > 0
            assert point.median_ttlb > 0


def test_improvements_match_point_medians(study):
    with_kind, without_kind = study.config.kinds
    for row in study.improvements:
        with_point = study.point(row.arrival_rate, with_kind)
        without_point = study.point(row.arrival_rate, without_kind)
        assert row.bottleneck_utilization == \
            without_point.bottleneck_utilization
        if with_point.median_ttfb is not None \
                and without_point.median_ttfb is not None:
            assert row.ttfb_improvement == pytest.approx(
                without_point.median_ttfb - with_point.median_ttfb
            )
        else:
            assert row.ttfb_improvement is None


def test_point_lookup(study):
    rate = study.config.rates[0]
    assert study.point(rate, "with").kind == "with"
    with pytest.raises(KeyError):
        study.point(123.0, "with")


def test_result_round_trips_through_serialize(study):
    data = json.loads(json.dumps(study.to_dict()))
    rebuilt = ChurnStudyResult.from_dict(data)
    assert rebuilt == study
    assert json.dumps(rebuilt.to_dict(), sort_keys=True) == json.dumps(
        study.to_dict(), sort_keys=True
    )
    # plan_cache is run metadata: per instance, never serialized.
    assert rebuilt.plan_cache is None
    assert "plan_cache" not in study.to_dict()


def test_render_includes_figure_and_tables(study):
    text = get_experiment("churn-study").render(study)
    assert "Churn study" in text
    assert "Steady-state improvement" in text
    assert "steady-state bottleneck utilization" in text  # the x axis
    assert "no improvement" in text  # the zero reference line
    rebuilt = ChurnStudyResult.from_dict(study.to_dict())
    assert "Churn study" in get_experiment("churn-study").render(rebuilt)


def test_figure_skips_rates_without_both_medians(study):
    pairs = study.improvement_points("ttfb")
    assert len(pairs) <= len(study.config.rates)
    for utilization, improvement in pairs:
        assert utilization > 0
        assert improvement == improvement  # not NaN
    with pytest.raises(KeyError):
        study.improvement_points("teleport")


def test_estimate_cost_sums_the_sweep():
    spec = small_study()
    cost = get_experiment("churn-study").estimate_cost(spec)
    single = get_experiment("netscale").estimate_cost(spec.point_config(2.0))
    assert cost["kinds"] == len(spec.kinds)
    assert cost["circuits"] > single["circuits"]
    assert cost["cells"] > 0 and cost["cell_hops"] > 0


# ----------------------------------------------------------------------
# Determinism: serial vs parallel, cold vs warm cache
# ----------------------------------------------------------------------


def test_parallel_sweep_plans_network_once_and_is_byte_identical(tmp_path):
    """The acceptance run: 4 workers, one shared network, one directory.

    ``network_misses`` counts cold plans across every worker process:
    at least one, and at most one per worker, since racing cold
    planners each plan the network and publish the same bytes.  The
    parallel sweep runs first, on a seed no other test shares, so the
    process-global memory cache (which forked workers inherit) is
    genuinely cold.
    """
    spec = small_study(rates=(1.0, 2.0, 4.0, 6.0), seed=7707)
    with attached_disk_tier(DEFAULT_CACHE, str(tmp_path / "cache")):
        parallel = run_churn_study(spec, RunContext(workers=4))
    assert parallel.plan_cache is not None
    assert_shared_tier_counters(
        parallel.plan_cache, distinct_specs=len(spec.rates), workers=4
    )
    serial = run_churn_study(spec)
    assert encode(parallel) == encode(serial)


def test_cold_vs_warm_disk_cache_byte_identical(tmp_path):
    spec = small_study()
    directory = str(tmp_path / "cache")
    with attached_disk_tier(DEFAULT_CACHE, directory):
        cold = run_churn_study(spec)
        warm = run_churn_study(spec)
    plain = run_churn_study(spec)
    assert encode(cold) == encode(warm) == encode(plain)
    assert warm.plan_cache["plan_hits"] == len(spec.rates)
    assert warm.plan_cache["plan_misses"] == 0


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------


def test_cli_json_emits_serializable_study(capsys):
    from repro.cli import main

    code = main([
        "churn-study", "--rates", "2,6", "--circuits", "6", "--relays", "8",
        "--bulk-payload-kib", "60", "--horizon", "3", "--json",
    ])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    rebuilt = ChurnStudyResult.from_dict(data)
    assert [(p.arrival_rate, p.kind) for p in rebuilt.points] == [
        (2.0, "with"), (2.0, "without"), (6.0, "with"), (6.0, "without"),
    ]


def test_cli_rejects_malformed_rates(capsys):
    from repro.cli import main

    code = main(["churn-study", "--rates", "2,banana"])
    assert code == 2
    assert "comma-separated" in capsys.readouterr().err


@pytest.mark.parametrize("rates", ["1,-2", "2,2", " "])
def test_cli_rejects_invalid_rate_values_cleanly(capsys, rates):
    """Config validation errors exit 2 with a message, not a traceback."""
    from repro.cli import main

    code = main(["churn-study", "--rates", rates])
    assert code == 2
    assert capsys.readouterr().err.strip()


def test_rendered_text_is_pinned(study):
    """``repro churn-study`` as printed for the reduced sweep: both tables
    and the figure.  Rendered from the decoded result, which carries no
    run metadata: the plan-cache line under the figure counts what this
    process happened to have planned before."""
    from helpers import pins, render_digest

    decoded = type(study).from_dict(study.to_dict())
    assert render_digest("churn-study", decoded) == pins("churn-study")["reduced"]
