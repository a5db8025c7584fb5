"""Tests for the command-line interface (repro.cli)."""

from __future__ import annotations

import argparse

import pytest
from helpers import (
    SHORT_HORIZON_ERROR,
    SHORT_HORIZON_SCENARIO,
    pins,
    render_digest,
    text_digest,
)

from repro.cli import build_parser, main

#: Every option string (and positional) of every subcommand, captured
#: at the commit before the execution flags moved from the experiments
#: into one ``RunContext`` table: the refactor adds and drops none.
#: (``--shards`` left five verbs later, with the coupled-shard engine;
#: ``adversity-study --resume`` left when it was found to change nothing:
#: checkpointed points are reused with or without it.)
CLI_SURFACE = {
    "ablations": {"--json", "--plan-cache"},
    "adversity-study": {
        "--bulk-fraction", "--bulk-payload-kib", "--checkpoint",
        "--circuits", "--horizon", "--json", "--loss-rates", "--max-kills",
        "--mttfs", "--mttr", "--plan-cache", "--probe-interval", "--rate",
        "--relays", "--seed", "--workers",
    },
    "batch": {
        "--base-seed", "--checkpoint", "--dry-run", "--out", "--plan",
        "--plan-cache", "--progress", "--workers", "specs",
    },
    "cache": {"--dir", "--json", "action"},
    "cdf": {
        "--circuits", "--json", "--payload-kib", "--plan-cache", "--relays",
        "--seed",
    },
    "check": {
        "--cells", "--close", "--cwnd", "--emit-schedules", "--hops",
        "--json", "--loss-budget", "--max-depth", "--max-retx-rounds",
        "--max-states", "--no-por", "--reliable", "--replay", "--seed",
        "--symmetry", "--window-mode",
    },
    "churn-study": {
        "--bulk-fraction", "--bulk-payload-kib", "--circuits", "--horizon",
        "--json", "--plan-cache", "--probe-interval", "--rates", "--relays",
        "--seed", "--workers",
    },
    "dynamic": {"--json", "--plan-cache"},
    "friendliness": {"--json", "--plan-cache"},
    "interactive": {"--json", "--plan-cache"},
    "lint": {"--json", "--rules", "paths"},
    "list": {"--json"},
    "netscale": {
        "--bulk-fraction", "--bulk-payload-kib", "--churn",
        "--churn-horizon", "--circuits", "--clusters", "--json",
        "--plan-cache", "--probe-interval", "--relays", "--seed",
    },
    "optimal": {"--json", "--link", "--plan-cache"},
    "report": {"--full", "--json", "--out", "checkpoint_dir"},
    "resume": {
        "--base-seed", "--checkpoint", "--out", "--plan-cache", "--progress",
        "--workers", "specs",
    },
    "scenario": {"--json", "--plan-cache", "--spec", "action"},
    "serve": {
        "--base-seed", "--checkpoint", "--out", "--plan-cache", "--progress",
        "--workers", "specs",
    },
    "trace": {
        "--controller", "--distance", "--duration-ms", "--gamma", "--json",
        "--plan-cache",
    },
}


def test_cli_surface_is_pinned():
    subcommands = next(
        action for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    surface = {
        name: {
            string
            for action in command._actions
            for string in (action.option_strings or [action.dest])
        } - {"-h", "--help"}
        for name, command in subcommands.choices.items()
    }
    assert surface == CLI_SURFACE


# The ids keep the names these cases had when the table opened with a
# third one (the deleted ``--resume`` refusal), so their history stays whole.
@pytest.mark.parametrize("argv, message", [
    pytest.param(["adversity-study", "--workers", "0"], "workers must be >= 1",
                 id="argv1-workers must be >= 1"),
    pytest.param(["churn-study", "--workers", "0"], "workers must be >= 1",
                 id="argv2-workers must be >= 1"),
])
def test_bad_execution_knob_is_one_clean_line(argv, message, capsys):
    """One validator (``RunContext``), one path: nothing runs, exit 2."""
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err
    assert len(captured.err.splitlines()) == 1


def test_shards_flag_is_gone_without_an_alias(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["netscale", "--shards", "2"])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --shards 2" in capsys.readouterr().err


def test_parser_requires_command(capsys):
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["teleport"])


def test_trace_command(capsys):
    code = main(["trace", "--distance", "1", "--duration-ms", "400"])
    out = capsys.readouterr().out
    assert code == 0
    assert "source cwnd [KB]" in out
    assert "optimal" in out
    assert "peak=" in out


def test_trace_command_distance_3(capsys):
    code = main(["trace", "--distance", "3"])
    assert code == 0
    assert "optimal" in capsys.readouterr().out


def test_trace_with_custom_gamma(capsys):
    code = main(["trace", "--gamma", "8.0"])
    assert code == 0


def test_trace_with_baseline_controller(capsys):
    code = main(["trace", "--controller", "without"])
    out = capsys.readouterr().out
    assert code == 0
    assert "exit=- " in out  # the Vegas-only baseline never "exits"


def test_cdf_command_small(capsys):
    code = main(
        ["cdf", "--circuits", "6", "--payload-kib", "150", "--relays", "10"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "with CircuitStart" in out
    assert "median improvement" in out
    assert "fairness" in out


def test_dynamic_command(capsys):
    code = main(["dynamic"])
    out = capsys.readouterr().out
    assert code == 0
    assert "adapt [ms]" in out
    assert "dynamic" in out


def test_friendliness_command(capsys):
    code = main(["friendliness"])
    out = capsys.readouterr().out
    assert code == 0
    assert "jumpstart" in out
    assert "added p95" in out


def test_optimal_command(capsys):
    code = main(["optimal", "--link", "50:12", "--link", "8:12",
                 "--link", "50:12", "--link", "50:12"])
    out = capsys.readouterr().out
    assert code == 0
    assert "Optimal windows" in out
    assert "bottleneck 8" in out


def test_optimal_command_bad_link(capsys):
    # An infinite or NaN delay used to reach the window arithmetic and
    # end in a traceback.
    for link in ("fast", "50:inf", "50:nan"):
        code = main(["optimal", "--link", link])
        assert (link, code) == (link, 2)
        assert "bad --link" in capsys.readouterr().err


def test_ablations_command(capsys):
    code = main(["ablations"])
    out = capsys.readouterr().out
    assert code == 0
    for marker in ("A1", "A2", "A3", "A4"):
        assert marker in out


def test_list_includes_netscale(capsys):
    code = main(["list"])
    out = capsys.readouterr().out
    assert code == 0
    assert "netscale" in out


def _write_specs(tmp_path, jobs):
    import json

    path = tmp_path / "specs.json"
    path.write_text(json.dumps(jobs))
    return str(path)


def test_batch_dry_run_valid_file(tmp_path, capsys):
    path = _write_specs(tmp_path, [
        {"experiment": "optimal"},
        {"experiment": "netscale", "spec": {"circuit_count": 5},
         "label": "tiny"},
    ])
    code = main(["batch", path, "--dry-run"])
    captured = capsys.readouterr()
    assert code == 0
    assert "all 2 jobs valid" in captured.out
    assert "netscale NetScaleConfig [tiny] ok" in captured.out


def test_batch_dry_run_runs_nothing(tmp_path, capsys):
    # A netscale job this size would take minutes; the dry run must
    # return immediately because it only decodes the spec.
    path = _write_specs(tmp_path, [
        {"experiment": "netscale", "spec": {"circuit_count": 5000}},
    ])
    code = main(["batch", path, "--dry-run"])
    assert code == 0


def test_batch_dry_run_reports_unknown_experiment(tmp_path, capsys):
    path = _write_specs(tmp_path, [{"experiment": "teleport"}])
    code = main(["batch", path, "--dry-run"])
    captured = capsys.readouterr()
    assert code == 2
    assert "unknown experiment 'teleport'" in captured.err
    assert "1 of 1 jobs invalid" in captured.err


def test_batch_dry_run_reports_unknown_field(tmp_path, capsys):
    path = _write_specs(tmp_path, [
        {"experiment": "trace", "spec": {"duratoin": 0.2}},
        {"experiment": "optimal"},
    ])
    code = main(["batch", path, "--dry-run"])
    captured = capsys.readouterr()
    assert code == 2
    assert "no field(s) 'duratoin'" in captured.err
    assert "job 1: optimal OptimalConfig ok" in captured.out
    assert "1 of 2 jobs invalid" in captured.err


@pytest.mark.parametrize("argv,message", [
    (["netscale", "--clusters", "0"], "clusters must be at least 1"),
    (["netscale", "--clusters", "50"], "split into 50 clusters"),
    (["cdf", "--payload-kib", "0"], "payload_bytes must be positive"),
    (["trace", "--controller", "nope"], "unknown controller kind 'nope'"),
    (["trace", "--duration-ms", "-5"], "duration must be positive"),
    (["trace", "--duration-ms", "nan"], "duration must be positive"),
    (["netscale", "--churn", "2", "--churn-horizon", "3",
      "--probe-interval", "nan"], "sampling interval must be positive"),
    (["churn-study", "--rates", "1", "--circuits", "0"], "need at least one circuit"),
    (["churn-study", "--bulk-fraction", "2"], "bulk_fraction must be within"),
    (["churn-study", "--bulk-payload-kib", "0"], "payload sizes must be positive"),
    (["adversity-study", "--circuits", "0"], "need at least one circuit"),
    (["adversity-study", "--bulk-fraction", "2"], "bulk_fraction must be within"),
])
def test_spec_that_cannot_run_is_a_usage_error(argv, message, capsys):
    """Validity is decided when the spec is built: one stderr line and
    exit 2, where the planner, the controller factory or the clock
    used to raise out of the running experiment."""
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert message in captured.err
    assert len(captured.err.splitlines()) == 1


#: Each decodes field by field and used to fail only inside the run.
CANNOT_RUN = [
    ({"experiment": "netscale", "spec": {"clusters": 0}}, "clusters"),
    ({"experiment": "cdf", "spec": {"payload_bytes": 0}}, "payload_bytes"),
    ({"experiment": "trace", "spec": {"controller_kind": "nope"}},
     "unknown controller kind"),
    ({"experiment": "trace", "spec": {"duration": -1.0}}, "duration"),
    ({"experiment": "churn-study", "spec": {"circuit_count": 0}},
     "need at least one circuit"),
    ({"experiment": "adversity-study", "spec": {"transport_profile": "default"}},
     "link faults with unreliable transport"),
]


def test_batch_dry_run_rejects_specs_that_cannot_run(tmp_path, capsys):
    """A passing dry run means ``repro batch`` will accept the file."""
    path = _write_specs(tmp_path, [job for job, __ in CANNOT_RUN])
    code = main(["batch", path, "--dry-run"])
    captured = capsys.readouterr()
    assert code == 2
    errors = captured.err.splitlines()
    for index, (__, message) in enumerate(CANNOT_RUN):
        assert errors[index].startswith("job %d: " % index)
        assert message in errors[index]
    assert "%d of %d jobs invalid" % (len(CANNOT_RUN), len(CANNOT_RUN)) in captured.err
    assert " ok" not in captured.out


def test_netscale_command_small(capsys):
    code = main([
        "netscale", "--circuits", "8", "--relays", "8",
        "--bulk-payload-kib", "60",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "Network scale" in out
    assert "median TTLB improvement" in out


def test_netscale_churn_flags_build_churned_spec():
    """--churn enables the open-loop process plus the utilization probe."""
    from repro.experiments.registry import get_experiment
    from repro.scenario import OpenLoopChurn, UtilizationProbe

    parser = build_parser()
    args = parser.parse_args([
        "netscale", "--circuits", "8", "--relays", "8",
        "--churn", "3.5", "--churn-horizon", "5.0",
        "--probe-interval", "0.5",
    ])
    spec = get_experiment("netscale").spec_from_cli(args)
    assert isinstance(spec.churn, OpenLoopChurn)
    assert spec.churn.arrival_rate == 3.5
    assert spec.churn.horizon == 5.0
    assert spec.probes == (UtilizationProbe(interval=0.5),)
    # Without --churn, the legacy one-shot wave (no probes).
    args = parser.parse_args(["netscale", "--circuits", "8"])
    spec = get_experiment("netscale").spec_from_cli(args)
    assert spec.churn is None and spec.probes == ()


def test_batch_plan_reports_costs(tmp_path, capsys):
    path = _write_specs(tmp_path, [
        {"experiment": "netscale", "spec": {
            "circuit_count": 5,
            "network": {"relay_count": 8, "client_count": 8,
                        "server_count": 8}},
         "label": "tiny"},
        {"experiment": "optimal"},
    ])
    code = main(["batch", path, "--plan"])
    captured = capsys.readouterr()
    assert code == 0
    assert "job 0: netscale NetScaleConfig [tiny] ok  cost:" in captured.out
    assert "cell-hops" in captured.out
    assert "job 1: optimal OptimalConfig ok  cost: n/a" in captured.out
    assert "estimated sweep cost: 1 of 2 jobs estimable" in captured.out


def test_batch_plan_rejects_invalid_file(tmp_path, capsys):
    path = _write_specs(tmp_path, [{"experiment": "teleport"}])
    code = main(["batch", path, "--plan"])
    captured = capsys.readouterr()
    assert code == 2
    assert "unknown experiment 'teleport'" in captured.err


def test_scenario_list_command(capsys):
    code = main(["scenario", "list"])
    out = capsys.readouterr().out
    assert code == 0
    assert "Registered scenario parts" in out
    for marker in ("generated", "bulk", "interactive", "none",
                   "open-loop", "utilization", "queue-depth"):
        assert marker in out


def test_scenario_list_json(capsys):
    import json

    code = main(["scenario", "list", "--json"])
    rows = json.loads(capsys.readouterr().out)
    assert code == 0
    kinds = {row["kind"] for row in rows}
    assert kinds == {"topology", "workload", "churn", "fault", "probe"}


def test_scenario_run_from_spec_file(tmp_path, capsys):
    import json

    spec = {
        "topology": {"part": "generated", "force_bottleneck": True,
                     "network": {"relay_count": 8, "client_count": 6,
                                 "server_count": 6}},
        "workloads": [{"part": "bulk", "payload_bytes": 40960}],
        "churn": {"part": "none", "start_window": 0.1},
        "circuit_count": 3,
    }
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(spec))
    code = main(["scenario", "run", "--spec", str(path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "Scenario: 3 circuits" in out
    assert "engine events" in out


def test_unfinished_fault_free_run_is_one_stderr_line(tmp_path, capsys):
    """A fault-free run whose horizon ends mid-transfer exits 1 with one
    stderr line, not a traceback."""
    import json
    import re

    path = tmp_path / "short.json"
    path.write_text(json.dumps(SHORT_HORIZON_SCENARIO))
    code = main(["scenario", "run", "--spec", str(path)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (1, "")
    [line] = captured.err.splitlines()
    assert re.match(SHORT_HORIZON_ERROR, line), line


def test_unfinished_run_names_its_horizon_as_given(tmp_path, capsys):
    """A 0.05 s horizon once read "did not finish within 0.1s"."""
    import json

    path = tmp_path / "short.json"
    path.write_text(json.dumps(dict(SHORT_HORIZON_SCENARIO, max_sim_time=0.05)))
    assert main(["scenario", "run", "--spec", str(path)]) == 1
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("3/3 circuits did not finish within 0.05s "), line


def test_scenario_run_rejects_bad_spec_file(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code = main(["scenario", "run", "--spec", str(path)])
    assert code == 2
    assert "not valid JSON" in capsys.readouterr().err


# ----------------------------------------------------------------------
# The on-disk plan cache (--plan-cache / REPRO_PLAN_CACHE / repro cache)
# ----------------------------------------------------------------------


def _scenario_spec_file(tmp_path, seed):
    # A per-test seed keeps the spec out of the process-wide memory
    # cache (a memory hit would never consult or warm the disk tier).
    import json

    spec = {
        "topology": {"part": "generated", "force_bottleneck": True,
                     "network": {"relay_count": 8, "client_count": 6,
                                 "server_count": 6}},
        "workloads": [{"part": "bulk", "payload_bytes": 40960}],
        "churn": {"part": "none", "start_window": 0.1},
        "circuit_count": 3,
        "seed": seed,
    }
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(spec))
    return str(path)


def test_scenario_run_with_plan_cache_warms_directory(tmp_path, capsys):
    from repro.scenario import DEFAULT_CACHE, DiskPlanCache

    spec = _scenario_spec_file(tmp_path, seed=987201)
    cache_dir = str(tmp_path / "plan-cache")
    first = main(["scenario", "run", "--spec", spec,
                  "--plan-cache", cache_dir])
    first_out = capsys.readouterr().out
    assert first == 0
    assert DEFAULT_CACHE.disk is None  # detached after the command
    disk = DiskPlanCache(cache_dir)
    assert disk.entry_counts() == {"plan": 1, "network": 1}

    # A second invocation is served from disk and renders identically.
    second = main(["scenario", "run", "--spec", spec,
                   "--plan-cache", cache_dir])
    second_out = capsys.readouterr().out
    assert second == 0
    assert second_out == first_out


def test_plan_cache_env_var_is_honoured(tmp_path, capsys, monkeypatch):
    from repro.scenario import DiskPlanCache

    cache_dir = str(tmp_path / "env-cache")
    monkeypatch.setenv("REPRO_PLAN_CACHE", cache_dir)
    code = main(["scenario", "run", "--spec",
                 _scenario_spec_file(tmp_path, seed=987202)])
    capsys.readouterr()
    assert code == 0
    assert DiskPlanCache(cache_dir).entry_counts()["plan"] == 1


def test_batch_plan_cache_output_identical_to_uncached(tmp_path, capsys):
    path = _write_specs(tmp_path, [
        {"experiment": "netscale", "spec": {
            "circuit_count": 4, "seed": 987101,
            "bulk_payload_bytes": 61440,
            "interactive_payload_bytes": 10240,
            "network": {"relay_count": 8, "client_count": 8,
                        "server_count": 8}}},
    ])
    cache_dir = str(tmp_path / "plan-cache")
    code = main(["batch", path, "--plan-cache", cache_dir])
    cached = capsys.readouterr()
    assert code == 0
    code = main(["batch", path])
    plain = capsys.readouterr()
    assert code == 0
    assert cached.out == plain.out  # stdout JSON is cache-independent
    assert "disk:" in cached.err    # counters went to stderr only


def test_cache_info_and_clear(tmp_path, capsys):
    cache_dir = str(tmp_path / "plan-cache")
    main(["scenario", "run", "--spec",
          _scenario_spec_file(tmp_path, seed=987203),
          "--plan-cache", cache_dir])
    capsys.readouterr()

    code = main(["cache", "info", "--dir", cache_dir])
    out = capsys.readouterr().out
    assert code == 0
    assert "scenario plans: 1" in out
    assert "network plans:  1" in out

    code = main(["cache", "clear", "--dir", cache_dir])
    out = capsys.readouterr().out
    assert code == 0
    assert "cleared 2 entries" in out

    code = main(["cache", "info", "--dir", cache_dir, "--json"])
    import json

    info = json.loads(capsys.readouterr().out)
    assert code == 0
    assert info["plan_entries"] == 0 and info["network_entries"] == 0


def test_cache_info_without_directory_fails(capsys, monkeypatch):
    monkeypatch.delenv("REPRO_PLAN_CACHE", raising=False)
    code = main(["cache", "info"])
    assert code == 2
    assert "REPRO_PLAN_CACHE" in capsys.readouterr().err


# ----------------------------------------------------------------------
# repro report DIR — checkpointed sweep state
# ----------------------------------------------------------------------


def _checkpointed_adversity_sweep(tmp_path):
    from repro.experiments import RunContext, get_experiment
    from repro.experiments.adversity import AdversityStudyConfig
    from repro.experiments.netgen import NetworkConfig
    from repro.units import kib

    checkpoint = str(tmp_path / "adversity-ckpt")
    spec = AdversityStudyConfig(
        loss_rates=(0.0, 0.02),
        relay_mttfs=(0.0,),
        arrival_rate=2.0,
        circuit_count=4,
        bulk_payload_bytes=kib(60),
        interactive_payload_bytes=kib(10),
        start_window=1.0,
        horizon=3.0,
        network=NetworkConfig(relay_count=8, client_count=6, server_count=6),
    )
    get_experiment("adversity-study").run(
        spec, RunContext(checkpoint_dir=checkpoint)
    )
    return checkpoint


def test_report_checkpoint_dir_renders_partial_state(tmp_path, capsys):
    checkpoint = _checkpointed_adversity_sweep(tmp_path)
    capsys.readouterr()

    code = main(["report", checkpoint])
    out = capsys.readouterr().out
    assert code == 0
    assert "checkpointed sweep" in out
    assert "2/2 done, 0 failed" in out
    assert "scenario" in out  # grid points run as scenario jobs


def test_report_checkpoint_dir_json(tmp_path, capsys):
    import json

    checkpoint = _checkpointed_adversity_sweep(tmp_path)
    capsys.readouterr()

    code = main(["report", checkpoint, "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["done"] == payload["total"] == 2
    assert payload["failed"] == 0
    assert len(payload["items"]) == 2
    assert all(item["experiment"] == "scenario" for item in payload["items"])


def test_report_checkpoint_dir_missing(capsys):
    code = main(["report", "/nonexistent/checkpoint-dir"])
    assert code == 2
    assert "no such checkpoint directory" in capsys.readouterr().err


# ----------------------------------------------------------------------
# repro lint
# ----------------------------------------------------------------------


def test_lint_rules_list(capsys):
    from repro.lint import ALL_RULES

    code = main(["lint", "--rules", "list"])
    out = capsys.readouterr().out
    assert code == 0
    for rule in ALL_RULES:
        assert rule.id in out
        assert rule.title in out


def test_lint_unknown_rule_is_usage_error(capsys):
    code = main(["lint", "--rules", "DET999"])
    assert code == 2
    assert "unknown rule" in capsys.readouterr().err


def test_lint_missing_path_is_usage_error(capsys):
    code = main(["lint", "/no/such/tree"])
    assert code == 2
    assert "no such file" in capsys.readouterr().err


def test_lint_clean_tree_exits_zero(tmp_path, capsys):
    target = tmp_path / "repro" / "tidy.py"
    target.parent.mkdir()
    target.write_text("x = 1\n")
    code = main(["lint", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "0 finding(s)" in out


def test_lint_findings_exit_one_and_render(tmp_path, capsys):
    target = tmp_path / "repro" / "dice.py"
    target.parent.mkdir()
    target.write_text("import random\nx = random.random()\n")
    code = main(["lint", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 1
    assert "DET001" in out
    assert "dice.py:2:" in out


def test_lint_rule_selection_limits_the_pack(tmp_path, capsys):
    target = tmp_path / "repro" / "dice.py"
    target.parent.mkdir()
    target.write_text("import random\nx = random.random()\n")
    code = main(["lint", "--rules", "ARCH001", str(tmp_path)])
    capsys.readouterr()
    assert code == 0  # DET001 deselected: the planted draw passes


def test_lint_json_report(tmp_path, capsys):
    import json

    target = tmp_path / "repro" / "dice.py"
    target.parent.mkdir()
    target.write_text("import random\nx = random.random()\n")
    code = main(["lint", "--json", str(tmp_path)])
    payload = json.loads(capsys.readouterr().out)
    assert code == 1
    assert payload["modules_checked"] == 1
    assert [f["rule"] for f in payload["findings"]] == ["DET001"]


def test_lint_default_paths_cover_the_package(capsys):
    # The repo-wide gate: the shipped package lints clean with the full
    # pack, zero findings.
    code = main(["lint"])
    out = capsys.readouterr().out
    assert code == 0
    assert "0 finding(s)" in out


@pytest.mark.parametrize(
    "command", sorted(pins("cli-listing")),
    ids=lambda command: "-".join(command.replace("--", "").split()),
)
def test_listing_stdout_is_pinned(command, capsys):
    """What the two listing verbs print, text and ``--json``, byte for
    byte (captured before they shared one printer)."""
    assert main(command.split()) == 0
    assert text_digest(capsys.readouterr().out) == pins("cli-listing")[command]


def test_listing_pin_has_teeth(monkeypatch, capsys):
    """One experiment's ``help`` spelled differently must move what
    ``repro list`` prints."""
    from repro.experiments import get_experiment

    trace = type(get_experiment("trace"))
    monkeypatch.setattr(trace, "help", trace.help.replace("Figure", "Fig."))
    assert main(["list"]) == 0
    assert text_digest(capsys.readouterr().out) != pins("cli-listing")["list"]


def test_optimal_rendered_text_is_pinned():
    """``repro optimal`` on the Figure-1a path (the default spec), as
    printed."""
    from repro.experiments import OptimalConfig, get_experiment

    result = get_experiment("optimal").run(OptimalConfig())
    assert render_digest("optimal", result) == pins("optimal")["figure-1a"]


def test_scenario_run_renders_a_class_with_no_completed_circuit(tmp_path, capsys):
    """90 % loss and a 0.2 s horizon: every circuit times out.  The run
    is fine (``--json`` always printed it); the text rendering died on
    the median of an empty sample."""
    import json

    spec = {
        "circuit_count": 3,
        "max_sim_time": 0.2,
        "topology": {"part": "generated",
                     "network": {"relay_count": 6, "client_count": 3,
                                 "server_count": 3}},
        "faults": [{"part": "link-faults", "loss_rate": 0.9}],
        "transport": {"reliable": True},
    }
    path = tmp_path / "lossy.json"
    path.write_text(json.dumps(spec))
    code = main(["scenario", "run", "--spec", str(path)])
    lines = capsys.readouterr().out.splitlines()
    assert code == 0
    assert lines[0] == "Scenario: 3 circuits (bulk)"
    failed = [line.split() for line in lines if line.startswith("bulk")]
    assert failed == [["bulk", "with", "3", "-", "-"],
                      ["bulk", "without", "3", "-", "-"]]
    assert lines[-1].startswith("engine events: with=")
