"""Tests for the unified experiment API: registry, serialization, batch."""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import json
import os
import pkgutil
import subprocess
import sys

import pytest
from helpers import pins, text_digest

import repro
import repro.analysis
from repro._lazy import bind_all
from repro.cli import build_parser, main
from repro.experiments import (
    AblationsConfig,
    BatchJob,
    CdfConfig,
    DynamicConfig,
    FriendlinessConfig,
    InteractiveConfig,
    NetworkConfig,
    OptimalConfig,
    RunContext,
    SpecError,
    TraceConfig,
    encode,
    get_experiment,
    iter_experiments,
    run_batch,
)
from repro.experiments.api import Experiment, decode
from repro.experiments.registry import register_experiment
from repro.scenario.probes import UtilizationProbe
from repro.units import kib, mib, milliseconds, seconds

EXPECTED_NAMES = [
    "trace",
    "cdf",
    "ablations",
    "dynamic",
    "friendliness",
    "interactive",
    "optimal",
    "netscale",
    "churn-study",
    "adversity-study",
    "scenario",
]


def fast_trace_config(**overrides):
    return TraceConfig(duration=milliseconds(150.0), **overrides)


def fast_spec(name):
    """A reduced-scale spec per experiment, for cheap full runs."""
    if name == "trace":
        return fast_trace_config()
    if name == "cdf":
        return CdfConfig(
            circuit_count=4,
            payload_bytes=kib(100),
            network=NetworkConfig(relay_count=8, client_count=4,
                                  server_count=4),
        )
    if name == "ablations":
        return AblationsConfig(
            gammas=(4.0,),
            compensations=("acked",),
            initial_windows=(2,),
            near=fast_trace_config(),
            far=fast_trace_config(bottleneck_distance=3),
            settle_time=seconds(0.4),
        )
    if name == "dynamic":
        return DynamicConfig(change_time=seconds(0.5),
                             duration=seconds(1.2),
                             payload_bytes=mib(4))
    if name == "friendliness":
        return FriendlinessConfig(circuit_start=seconds(0.3),
                                  duration=seconds(0.8),
                                  payload_bytes=mib(1),
                                  controller_kinds=("circuitstart",))
    if name == "interactive":
        return InteractiveConfig(duration=seconds(1.4),
                                 settle_time=seconds(0.7),
                                 bulk_bytes=mib(8),
                                 controller_kinds=("circuitstart",))
    if name == "optimal":
        return OptimalConfig()
    if name == "netscale":
        from repro.experiments.netscale import NetScaleConfig

        return NetScaleConfig(
            circuit_count=6,
            bulk_payload_bytes=kib(60),
            interactive_payload_bytes=kib(10),
            network=NetworkConfig(relay_count=8, client_count=6,
                                  server_count=6),
        )
    if name == "churn-study":
        from repro.experiments.churn_study import ChurnStudyConfig

        return ChurnStudyConfig(
            rates=(2.0, 6.0),
            circuit_count=6,
            bulk_payload_bytes=kib(60),
            interactive_payload_bytes=kib(10),
            start_window=1.0,
            horizon=3.0,
            network=NetworkConfig(relay_count=8, client_count=6,
                                  server_count=6),
        )
    if name == "adversity-study":
        from repro.experiments.adversity import AdversityStudyConfig

        return AdversityStudyConfig(
            loss_rates=(0.0, 0.02),
            relay_mttfs=(0.0,),
            arrival_rate=2.0,
            circuit_count=4,
            bulk_payload_bytes=kib(60),
            interactive_payload_bytes=kib(10),
            start_window=1.0,
            horizon=3.0,
            network=NetworkConfig(relay_count=8, client_count=6,
                                  server_count=6),
        )
    if name == "scenario":
        from repro.scenario import (
            BulkWorkload,
            GeneratedTopology,
            NoChurn,
            Scenario,
        )

        return Scenario(
            topology=GeneratedTopology(
                network=NetworkConfig(relay_count=8, client_count=4,
                                      server_count=4)
            ),
            workloads=(BulkWorkload(payload_bytes=kib(100)),),
            churn=NoChurn(start_window=0.1),
            circuit_count=4,
        )
    raise AssertionError("unknown experiment %r" % name)


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------


def test_registry_contains_every_experiment_exactly_once():
    names = [experiment.name for experiment in iter_experiments()]
    assert names == EXPECTED_NAMES
    assert len(names) == len(set(names))


def test_every_experiment_declares_spec_and_result_types():
    for experiment in iter_experiments():
        assert experiment.spec_type is not None, experiment.name
        assert experiment.result_type is not None, experiment.name
        assert isinstance(experiment.default_spec(), experiment.spec_type)
        assert experiment.help


def test_the_harness_table_names_each_experiments_module():
    from repro.experiments.registry import HARNESS_MODULES

    assert list(HARNESS_MODULES) == EXPECTED_NAMES
    for name, module in HARNESS_MODULES.items():
        assert type(get_experiment(name)).__module__ == "repro.experiments." + module


def test_get_experiment_unknown_name():
    with pytest.raises(KeyError, match="teleport"):
        get_experiment("teleport")


def test_duplicate_registration_rejected():
    class Duplicate(Experiment):
        name = "trace"
        spec_type = TraceConfig
        result_type = TraceConfig

    with pytest.raises(ValueError, match="already registered"):
        register_experiment(Duplicate)


def test_all_is_sorted_and_unique():
    assert list(repro.__all__) == sorted(set(repro.__all__))


def test_every_public_name_still_imports():
    for name in repro.__all__:
        assert getattr(repro, name) is not None, name
    assert repro.get_experiment is get_experiment
    assert repro.RunContext is RunContext


_COLD_IMPORT = """
import json, os, sys, sysconfig
before = set(sys.modules)   # whatever site.py and .pth files loaded
import importlib, pkgutil
import repro
# The packages bind their names on first use: import every module of the
# package, then resolve every public name of every package, as the runs
# that use them would.
for info in pkgutil.walk_packages(repro.__path__, "repro."):
    importlib.import_module(info.name)
for name, module in sorted(sys.modules.items()):
    if name.startswith("repro") and hasattr(module, "__path__"):
        for public in module.__all__:
            getattr(module, public)
home = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep
third_party = {sysconfig.get_path(k) + os.sep for k in ("purelib", "platlib")}
stdlib = {sysconfig.get_path(k) + os.sep for k in ("stdlib", "platstdlib")}
def foreign(path):
    path = os.path.abspath(path)
    return not path.startswith(home) and (
        any(path.startswith(d) for d in third_party)
        or not any(path.startswith(d) for d in stdlib))
print(json.dumps(sorted(
    name for name, module in sys.modules.items()
    if name not in before and getattr(module, "__file__", None)
    and foreign(module.__file__))))
"""


def test_a_cold_import_loads_only_the_standard_library_and_repro():
    """The package has no third-party runtime dependency, and the price of
    one (networkx was half of ``import repro``'s time and 14 MB of every
    process) is paid before the first event of every run: the next such
    import fails here, on any machine, not in a benchmark."""
    assert json.loads(_fresh_interpreter(_COLD_IMPORT)) == []


def test_every_public_name_resolves_in_a_fresh_interpreter():
    """Each package binds its ``__all__`` on first use: every listed name
    resolves in a process that has imported nothing else, and ``import *``
    works as it does on an eager module."""
    missing = json.loads(_fresh_interpreter(
        "import json\n"
        "import repro, repro.analysis, repro.experiments\n"
        "missing = [package.__name__ + '.' + name\n"
        "           for package in (repro, repro.experiments, repro.analysis)\n"
        "           for name in package.__all__ if not hasattr(package, name)]\n"
        "exec('from repro.experiments import *', {})\n"
        "exec('from repro.analysis import *', {})\n"
        "print(json.dumps(missing))\n"
    ))
    assert missing == []


_RESOLVED_NAMES = """
import importlib, json, pkgutil
import repro
packages = ["repro"] + [info.name for info in pkgutil.walk_packages(
    repro.__path__, "repro.") if info.ispkg]
wrong = []
for package_name in packages:
    package = importlib.import_module(package_name)
    # Resolve first, as a caller would, then import the submodules.
    resolved = {name: getattr(package, name) for name in package.__all__}
    exporters = {name: [] for name in resolved}
    for info in pkgutil.iter_modules(package.__path__):
        module = importlib.import_module(package_name + "." + info.name)
        for name in set(getattr(module, "__all__", ())) & set(resolved):
            exporters[name].append(module)
    for name, value in sorted(resolved.items()):
        if not exporters[name] or any(
                getattr(module, name) is not value for module in exporters[name]):
            wrong.append("%s.%s" % (package_name, name))
print(json.dumps(wrong))
"""


def test_every_public_name_is_the_object_its_submodule_exports():
    """Every name of every package's ``__all__``, resolved in a fresh
    interpreter, is the object the submodules that list it export, and
    never missing."""
    assert json.loads(_fresh_interpreter(_RESOLVED_NAMES)) == []


def test_no_package_root_exports_the_name_of_its_own_submodule():
    """Importing ``package.x`` binds the module as the package's ``x``,
    so a public ``x`` from another submodule would read as the module."""
    packages = [repro] + [
        importlib.import_module(info.name)
        for info in pkgutil.walk_packages(repro.__path__, "repro.") if info.ispkg
    ]
    clashes = []
    for package in packages:
        submodules = {info.name for info in pkgutil.iter_modules(package.__path__)}
        clashes.extend("%s.%s" % (package.__name__, name)
                       for name in sorted(submodules & set(package.__all__)))
    assert clashes == []


def test_a_listed_name_no_module_exports_is_an_attribute_error():
    """Not a KeyError: ``hasattr`` and ``getattr`` with a default rely on it."""
    namespace = {"__name__": "repro.analysis", "__all__": ["Summary", "Ghost"]}
    with pytest.raises(AttributeError, match="Ghost"):
        bind_all(namespace, ("stats",), "Ghost")
    assert bind_all(namespace, ("stats",), "Summary") is repro.analysis.Summary
    with pytest.raises(AttributeError, match="unlisted"):
        bind_all(namespace, ("stats",), "unlisted")


def _fresh_interpreter(code):
    """Stdout of *code* run by a new interpreter that sees ``src`` and ``tests``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([
        os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__))),
        os.path.dirname(os.path.abspath(__file__)),
    ])
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _modules_loaded_by(statement):
    """Every module a fresh ``<statement>`` adds to ``sys.modules`` (read
    off the last line of stdout, so *statement* may print)."""
    return set(json.loads(_fresh_interpreter(
        "import json, sys\n"
        "before = set(sys.modules)\n"
        + statement + "\n"
        "print(json.dumps(sorted(set(sys.modules) - before)))\n"
    ).splitlines()[-1]))


def _modules_loaded_by_cli(*argv):
    """Every module a fresh ``python -m repro <argv>`` loads; it must exit 0."""
    return _modules_loaded_by(
        "from repro.cli import main\n"
        "assert main(%r) == 0\n" % list(argv)
    )


def _under(loaded, *packages):
    """The modules of *loaded* that are one of *packages* or inside one."""
    return {name for name in loaded
            if any(name == p or name.startswith(p + ".") for p in packages)}


#: The layers a run simulates with, and its engine.
SIMULATOR = ("repro.sim", "repro.net", "repro.tor", "repro.scenario.engine")


#: The eleven harness modules, one per built-in experiment.
HARNESS_MODULES = {
    "repro.experiments." + name for name in (
        "fig1_traces", "fig1_cdf", "ablations", "dynamic", "friendliness",
        "interactive", "optimal", "netscale", "churn_study", "adversity",
        "scenario",
    )
}


def test_a_bare_import_of_the_package_loads_only_its_root():
    loaded = _modules_loaded_by("import repro")
    assert sorted(name for name in loaded if name.startswith("repro")) == ["repro"]


def test_one_harness_loads_no_other_harness_and_no_worker_pool():
    """A process that runs one ``netscale`` job pays for that harness and
    the layers under it, not for the other ten or for a process pool."""
    loaded = _modules_loaded_by("import repro.experiments.netscale")
    assert loaded & HARNESS_MODULES == {"repro.experiments.netscale"}
    assert "repro.analysis.optimal_window" not in loaded
    assert "concurrent.futures" not in loaded


def test_the_api_and_registry_names_load_no_harness():
    """``from repro.experiments import get_experiment`` (the README's
    quickstart, and the benchmark's set-up) loads no harness."""
    loaded = _modules_loaded_by("from repro.experiments import RunContext, get_experiment")
    assert not loaded & HARNESS_MODULES


def test_the_job_store_loads_no_harness():
    assert not _modules_loaded_by("import repro.jobs.store") & HARNESS_MODULES


@pytest.mark.parametrize("module", ["repro.jobs.store", "repro.report.partial"])
def test_the_checkpoint_readers_load_no_simulator(module):
    """What ``repro report DIR`` reads a sweep with: the store and the
    partial table, not the simulator, the network or Tor."""
    loaded = _modules_loaded_by("import " + module)
    assert not _under(loaded, *SIMULATOR)
    assert len(_under(loaded, "repro")) <= 12


def test_get_experiment_loads_the_one_harness_it_names():
    loaded = _modules_loaded_by(
        "from repro.experiments.registry import get_experiment\n"
        "get_experiment('trace')\n"
    )
    assert loaded & HARNESS_MODULES == {"repro.experiments.fig1_traces"}


def test_an_unknown_experiment_lists_all_eleven():
    message = _fresh_interpreter(
        "from repro.experiments.registry import get_experiment\n"
        "try:\n"
        "    get_experiment('teleport')\n"
        "except KeyError as error:\n"
        "    print(error.args[0])\n"
    )
    assert message.strip() == "unknown experiment 'teleport' (have: %s)" % (
        ", ".join(sorted(EXPECTED_NAMES)))


@pytest.mark.parametrize("argv", [
    ["lint", "--rules", "list"],
    ["cache", "info", "--dir", "{tmp}"],
])
def test_a_verb_that_runs_no_simulation_loads_no_harness(argv, tmp_path):
    loaded = _modules_loaded_by_cli(*[a.format(tmp=tmp_path) for a in argv])
    assert not loaded & HARNESS_MODULES
    assert not _under(loaded, "repro.sim")


def test_report_of_a_checkpoint_loads_no_simulator(tmp_path):
    specs = tmp_path / "specs.json"
    specs.write_text(json.dumps([{"experiment": "optimal", "spec": {}}]))
    ckpt = tmp_path / "ckpt"
    assert main(["batch", str(specs), "--checkpoint", str(ckpt),
                 "--out", str(tmp_path / "out.json")]) == 0
    loaded = _modules_loaded_by_cli("report", str(ckpt))
    assert not _under(loaded, "repro.sim", "repro.net", "repro.tor")
    assert not loaded & HARNESS_MODULES


def test_a_trace_run_loads_its_harness_and_no_other_subsystem():
    loaded = _modules_loaded_by_cli("trace", "--json", "--duration-ms", "50")
    assert loaded & HARNESS_MODULES == {"repro.experiments.fig1_traces"}
    assert not _under(loaded, "repro.jobs", "repro.check", "repro.lint")


def test_a_serial_sweep_never_imports_multiprocessing():
    loaded = _modules_loaded_by(
        "from repro.experiments.runner import BatchJob, run_batch\n"
        "from repro.experiments.netscale import NetScaleConfig\n"
        "from repro.scenario.netgen import NetworkConfig\n"
        "network = NetworkConfig(relay_count=8, client_count=4, server_count=4)\n"
        "jobs = [BatchJob('netscale', NetScaleConfig(\n"
        "    circuit_count=4, bulk_payload_bytes=20000,\n"
        "    interactive_payload_bytes=5000, network=network, seed=seed))\n"
        "    for seed in (1, 2)]\n"
        "assert not run_batch(jobs, workers=1).failures()\n"
    )
    assert "multiprocessing" not in loaded


def test_registry_order_does_not_depend_on_which_harness_loads_first():
    names = json.loads(_fresh_interpreter(
        "import json\n"
        "import repro.experiments.adversity\n"
        "from repro.experiments.registry import iter_experiments\n"
        "print(json.dumps([e.name for e in iter_experiments()]))\n"
    ))
    assert names == EXPECTED_NAMES


def test_repro_list_is_the_same_whichever_harness_loads_first():
    out = _fresh_interpreter(
        "import repro.experiments.adversity\n"
        "from repro.cli import main\n"
        "main(['list'])\n"
    )
    assert text_digest(out) == pins("cli-listing")["list"]


def test_experiments_registered_outside_the_package_list_after_the_built_ins():
    names = json.loads(_fresh_interpreter(
        "import json\n"
        "import _sweep_exps\n"
        "_sweep_exps.install()\n"
        "from repro.experiments.registry import get_experiment, iter_experiments\n"
        "get_experiment('test-fuse')\n"
        "print(json.dumps([e.name for e in iter_experiments()]))\n"
    ))
    assert names == EXPECTED_NAMES + ["test-fuse", "test-trip", "test-flaky"]


def test_a_spawned_worker_runs_a_job_after_importing_only_dispatch():
    """What a ``spawn`` pool worker does: import the dispatch module, then
    run a task by experiment name, with no harness imported first."""
    from repro.jobs.dispatch import execute_task

    task = (0, "trace", encode(fast_trace_config()), None)
    outcome = json.loads(_fresh_interpreter(
        "import json\n"
        "from repro.jobs.dispatch import execute_task\n"
        "outcome = execute_task(tuple(json.loads(%r)))\n"
        "print(json.dumps([outcome.error, outcome.result]))\n"
        % json.dumps(task)
    ))
    assert outcome == [None, json.loads(json.dumps(execute_task(task).result))]


def test_configs_construct_with_defaults():
    for experiment in iter_experiments():
        assert experiment.default_spec() == experiment.default_spec()
    assert NetworkConfig() == NetworkConfig()


# ----------------------------------------------------------------------
# Execution context: beside the spec, never on it
# ----------------------------------------------------------------------

#: CLI flags that set every knob an experiment may declare.
KNOB_FLAGS = {
    "workers": ["--workers", "2"],
    "checkpoint_dir": ["--checkpoint", "somewhere"],
}


@pytest.mark.parametrize("build", [
    lambda: TraceConfig(controller_kind="nope"),
    lambda: TraceConfig(duration=0.0),
    lambda: DynamicConfig(controller_kinds=("dynamic", "nope")),
    lambda: DynamicConfig(change_time=-2.0, duration=-1.0),
    lambda: InteractiveConfig(controller_kinds=("nope",)),
    lambda: InteractiveConfig(duration=-1.0),
    lambda: FriendlinessConfig(controller_kinds=("nope",)),
    lambda: FriendlinessConfig(circuit_start=-2.0, duration=-1.0),
    lambda: CdfConfig(payload_bytes=0),
    lambda: CdfConfig(kinds=("with", "nope")),
    lambda: CdfConfig(max_sim_time=0.0),
    lambda: get_experiment("netscale").spec_type(clusters=0),
    lambda: get_experiment("netscale").spec_type(clusters=50),
    lambda: get_experiment("netscale").spec_type(kinds=("nope", "without")),
    lambda: get_experiment("scenario").spec_type(kinds=("nope",)),
    lambda: get_experiment("scenario").spec_type(max_sim_time=float("nan")),
    lambda: TraceConfig(duration=float("nan")),
    lambda: CdfConfig(max_sim_time=float("nan")),
    lambda: UtilizationProbe(interval=float("nan")),
    lambda: TraceConfig(duration=float("inf")),
    lambda: FriendlinessConfig(circuit_start=float("nan")),
    lambda: CdfConfig(start_jitter=float("nan")),
    lambda: CdfConfig(max_sim_time=float("inf")),
    lambda: get_experiment("netscale").spec_type(start_window=float("nan")),
    # A study spec is judged by building every point it will run.
    lambda: get_experiment("churn-study").spec_type(rates=(1.0,), circuit_count=0),
    lambda: get_experiment("churn-study").spec_type(bulk_fraction=2.0),
    lambda: get_experiment("churn-study").spec_type(bulk_payload_bytes=0),
    lambda: get_experiment("adversity-study").spec_type(circuit_count=0),
    lambda: get_experiment("adversity-study").spec_type(bulk_fraction=2.0),
    lambda: get_experiment("adversity-study").spec_type(transport_profile="default"),
])
def test_spec_that_cannot_run_does_not_build(build):
    """Each of these built fine and failed inside the run (the planner,
    the controller factory, the simulator clock); validity is the
    spec's to decide, so ``repro batch --dry-run`` and the CLI see it."""
    with pytest.raises(ValueError):
        build()


def test_run_context_is_two_validated_knobs():
    assert [f.name for f in dataclasses.fields(RunContext)] == [
        "workers", "checkpoint_dir",
    ]
    assert RunContext() == RunContext(1, None)
    with pytest.raises(ValueError, match="workers"):
        RunContext(workers=0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        RunContext().workers = 2


def test_knobs_are_declared_per_experiment():
    declared = {e.name: e.knobs for e in iter_experiments() if e.knobs}
    assert declared == {
        "churn-study": ("workers",),
        "adversity-study": ("workers", "checkpoint_dir"),
    }
    for knobs in declared.values():
        assert set(knobs) <= set(KNOB_FLAGS)
    assert get_experiment("netscale").knobs == ()


@pytest.mark.parametrize("name", EXPECTED_NAMES)
def test_spec_is_plain_frozen_data(name):
    """`vars(spec)` is the dataclass fields, CLI execution flags or not."""
    experiment = get_experiment(name)
    spec = experiment.default_spec()
    field_names = {f.name for f in dataclasses.fields(spec)}
    assert set(vars(spec)) == field_names
    flags = [flag for knob in experiment.knobs for flag in KNOB_FLAGS[knob]]
    parser = build_parser()
    argv = [name] + (["--link", "50:12"] if name == "optimal" else [])
    plain = experiment.spec_from_cli(parser.parse_args(argv))
    flagged = experiment.spec_from_cli(parser.parse_args(argv + flags))
    assert isinstance(flagged, experiment.spec_type)
    assert set(vars(flagged)) == field_names
    assert json.dumps(encode(flagged), sort_keys=True) == json.dumps(
        encode(plain), sort_keys=True
    )


def test_undeclared_knob_is_refused_before_anything_runs():
    # A sweep's jobs run under the default context: no per-job channel.
    assert "ctx" not in inspect.signature(run_batch).parameters
    with pytest.raises(SpecError, match="checkpoint_dir"):
        get_experiment("churn-study").run(
            get_experiment("churn-study").default_spec(),
            RunContext(checkpoint_dir="somewhere"),
        )


# ----------------------------------------------------------------------
# Spec serialization
# ----------------------------------------------------------------------


@pytest.mark.parametrize("name", EXPECTED_NAMES)
def test_default_spec_json_round_trip(name):
    experiment = get_experiment(name)
    spec = experiment.default_spec()
    data = json.loads(json.dumps(spec.to_dict()))
    assert experiment.spec_type.from_dict(data) == spec


@pytest.mark.parametrize("name", EXPECTED_NAMES)
def test_fast_spec_json_round_trip(name):
    spec = fast_spec(name)
    experiment = get_experiment(name)
    data = json.loads(json.dumps(spec.to_dict()))
    back = experiment.spec_type.from_dict(data)
    assert back == spec
    # A second encode of the decoded spec is byte-stable.
    assert json.dumps(back.to_dict(), sort_keys=True) == json.dumps(
        spec.to_dict(), sort_keys=True
    )


def test_non_default_nested_fields_round_trip():
    spec = TraceConfig(
        bottleneck_distance=2,
        transport=TraceConfig().transport.with_(gamma=8.0, compensation="halve"),
    )
    back = TraceConfig.from_dict(json.loads(json.dumps(spec.to_dict())))
    assert back == spec
    assert back.transport.gamma == 8.0
    assert back.bottleneck_rate == spec.bottleneck_rate  # Rate round-trips


def test_from_dict_missing_required_field_raises():
    from repro.experiments.runner import BatchItem

    with pytest.raises(SpecError, match="missing required field"):
        BatchItem.from_dict({"index": 0})


def test_from_dict_unknown_field_rejected():
    # A typo'd spec field must not silently fall back to the default.
    with pytest.raises(SpecError, match="bottleneck_distanse"):
        TraceConfig.from_dict({"bottleneck_distanse": 3})


# ----------------------------------------------------------------------
# Result serialization (full runs at reduced scale)
# ----------------------------------------------------------------------


@pytest.mark.parametrize("name", EXPECTED_NAMES)
def test_result_json_round_trip(name):
    experiment = get_experiment(name)
    result = experiment.run(fast_spec(name))
    assert isinstance(result, experiment.result_type)
    data = json.loads(json.dumps(result.to_dict()))
    back = experiment.result_type.from_dict(data)
    assert back == result
    assert json.dumps(back.to_dict(), sort_keys=True) == json.dumps(
        result.to_dict(), sort_keys=True
    )


def test_encode_decode_helpers_cover_plain_values():
    assert encode({"a": (1, 2.5), "b": None}) == {"a": [1, 2.5], "b": None}
    assert decode(tuple, [1, 2]) == (1, 2)
    with pytest.raises(TypeError):
        encode(object())


# ----------------------------------------------------------------------
# Batch runner
# ----------------------------------------------------------------------


def _batch_jobs():
    return [
        BatchJob("trace", fast_spec("trace"), label="near"),
        BatchJob("trace", fast_trace_config(bottleneck_distance=3),
                 label="far"),
        BatchJob("optimal"),
    ]


def test_run_batch_parallel_matches_serial_byte_identically():
    serial = run_batch(_batch_jobs(), workers=1)
    parallel = run_batch(_batch_jobs(), workers=2)
    assert json.dumps(serial.to_dict(), sort_keys=True) == json.dumps(
        parallel.to_dict(), sort_keys=True
    )
    assert len(serial) == 3
    assert [item.index for item in serial.items] == [0, 1, 2]
    assert [item.label for item in serial.items] == ["near", "far", None]


def test_run_batch_items_decode_back_to_typed_objects():
    batch = run_batch(_batch_jobs()[:1])
    item = batch.items[0]
    assert TraceConfig.from_dict(item.spec) == fast_spec("trace")
    result = item.result_object()
    assert result.final_cwnd_cells > 0


def test_run_batch_accepts_tuples_dicts_and_names():
    batch = run_batch([
        ("optimal", OptimalConfig()),
        {"experiment": "optimal"},
        "optimal",
    ])
    assert [item.experiment for item in batch.items] == ["optimal"] * 3
    # All three forms resolve to the default spec here.
    assert batch.items[0].spec == batch.items[1].spec == batch.items[2].spec


def test_run_batch_base_seed_is_deterministic_and_per_job():
    jobs = [BatchJob("cdf", fast_spec("cdf")), BatchJob("cdf", fast_spec("cdf"))]
    one = run_batch(jobs, base_seed=99)
    two = run_batch(jobs, base_seed=99)
    assert json.dumps(one.to_dict()) == json.dumps(two.to_dict())
    seeds = [item.spec["seed"] for item in one.items]
    assert seeds[0] != seeds[1]  # per-job derivation
    assert seeds != [fast_spec("cdf").seed] * 2  # actually re-seeded
