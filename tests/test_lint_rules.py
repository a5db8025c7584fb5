"""Teeth tests for ``repro lint`` (repro.lint).

Every rule gets a planted violation in a temporary ``repro/``-rooted
tree and must fire on it — and must go silent when deselected, which is
what makes the repo-wide CI gate meaningful (a disabled rule fails
these tests, not just the gate).  The framework half covers parse
failures, path collection, and report serialization.
"""

from __future__ import annotations

import pytest

from repro.lint import (
    ALL_RULES,
    LintReport,
    PARSE_RULE_ID,
    collect_files,
    run_lint,
    rules_by_id,
)
from repro.lint.framework import package_relpath
from repro.serialize import decode, encode


def write_module(root, relpath, source):
    """Write *source* at ``<root>/repro/<relpath>`` and return its path."""
    path = root / "repro" / relpath
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(source)
    return path


def lint_tree(root, rules=ALL_RULES):
    return run_lint([str(root)], list(rules))


def findings_by_rule(report):
    by_rule = {}
    for finding in report.findings:
        by_rule.setdefault(finding.rule, []).append(finding)
    return by_rule


# ----------------------------------------------------------------------
# One planted violation per rule; silence when the rule is deselected
# ----------------------------------------------------------------------

#: rule id -> (module path under repro/, source with exactly one seeded
#: violation of that rule).
PLANTED = {
    "DET001": (
        "sweep.py",
        "import random\n"
        "jitter = random.random()\n",
    ),
    "DET002": (
        "sim/clock.py",
        "import time\n"
        "started = time.time()\n",
    ),
    "DET003": (
        "scenario/plan.py",
        "names = {'a', 'b'}\n"
        "for name in names:\n"
        "    print(name)\n",
    ),
    "SER001": (
        "parts.py",
        "from dataclasses import dataclass\n"
        "from repro.scenario.parts import register_part\n"
        "@register_part\n"
        "@dataclass(frozen=True)\n"
        "class Widget:\n"
        "    spokes: Missing\n",
    ),
    "SER002": (
        "scenario/cache.py",
        "import json\n"
        "def save(path, data):\n"
        "    with open(path) as handle:\n"
        "        return json.load(handle)\n",
    ),
    "ARCH001": (
        "net/uplink.py",
        "from repro.scenario import spec\n",
    ),
}


@pytest.mark.parametrize("rule_id", sorted(PLANTED))
def test_planted_violation_fires(tmp_path, rule_id):
    relpath, source = PLANTED[rule_id]
    write_module(tmp_path, relpath, source)
    report = lint_tree(tmp_path)
    fired = findings_by_rule(report)
    assert rule_id in fired, (
        "planted %s violation not caught; findings: %r"
        % (rule_id, report.findings)
    )
    assert all(rule == rule_id for rule in fired), (
        "planted %s violation tripped other rules too: %r"
        % (rule_id, sorted(fired))
    )


@pytest.mark.parametrize("rule_id", sorted(PLANTED))
def test_deselecting_the_rule_goes_silent(tmp_path, rule_id):
    # The CI gate runs the full pack; this is the "teeth" half — with
    # the rule disabled, the planted violation must pass, proving the
    # gate's signal comes from this rule and nothing else.
    relpath, source = PLANTED[rule_id]
    write_module(tmp_path, relpath, source)
    without = [rule for rule in ALL_RULES if rule.id != rule_id]
    report = lint_tree(tmp_path, without)
    assert report.ok, report.findings


def test_clean_module_has_no_findings(tmp_path):
    write_module(
        tmp_path, "scenario/tidy.py",
        "import os\n"
        "def keys(mapping):\n"
        "    return sorted(set(mapping))\n",
    )
    report = lint_tree(tmp_path)
    assert report.ok
    assert report.modules_checked == 1


# ----------------------------------------------------------------------
# Rule-specific edges
# ----------------------------------------------------------------------


def test_det001_seeded_random_is_fine(tmp_path):
    write_module(
        tmp_path, "gen.py",
        "import random\n"
        "rng = random.Random(42)\n"
        "value = rng.random()\n",
    )
    assert lint_tree(tmp_path).ok


def test_det001_catches_from_import_and_system_random(tmp_path):
    write_module(
        tmp_path, "gen.py",
        "from random import Random, SystemRandom\n"
        "a = Random()\n"
        "b = SystemRandom()\n",
    )
    report = lint_tree(tmp_path)
    assert len(findings_by_rule(report).get("DET001", [])) == 2


def test_det002_only_applies_to_simulated_packages(tmp_path):
    source = "import time\nstarted = time.time()\n"
    write_module(tmp_path, "analysis/clock.py", source)
    assert lint_tree(tmp_path).ok  # analysis/ is host-facing
    write_module(tmp_path, "transport/clock.py", source)
    report = lint_tree(tmp_path)
    assert [f.rule for f in report.findings] == ["DET002"]
    assert "transport/clock.py" in report.findings[0].path


def test_det003_sorted_iteration_is_fine(tmp_path):
    write_module(
        tmp_path, "scenario/plan.py",
        "names = {'a', 'b'}\n"
        "for name in sorted(names):\n"
        "    print(name)\n",
    )
    assert lint_tree(tmp_path).ok


def test_det003_catches_comprehensions_and_set_calls(tmp_path):
    write_module(
        tmp_path, "storage.py",
        "labels = [x for x in set(('b', 'a'))]\n",
    )
    report = lint_tree(tmp_path)
    assert [f.rule for f in report.findings] == ["DET003"]


def test_ser001_attributes_findings_to_the_defining_module(tmp_path):
    # The experiment registers in one module; its spec dataclass (with
    # the bad field) lives in another.  The finding must carry the
    # *defining* module's path.
    write_module(
        tmp_path, "experiments/speed.py",
        "from repro.experiments.registry import register_experiment\n"
        "from repro.experiments.speed_spec import SpeedSpec\n"
        "@register_experiment\n"
        "class SpeedExperiment:\n"
        "    spec_type = SpeedSpec\n",
    )
    write_module(
        tmp_path, "experiments/speed_spec.py",
        "from dataclasses import dataclass\n"
        "@dataclass(frozen=True)\n"
        "class SpeedSpec:\n"
        "    knob: Frobnicator\n",
    )
    report = lint_tree(tmp_path)
    findings = findings_by_rule(report).get("SER001", [])
    assert len(findings) == 1
    assert "speed_spec.py" in findings[0].path


def test_ser001_accepts_the_serializers_whole_hint_grammar(tmp_path):
    write_module(
        tmp_path, "experiments/good_spec.py",
        "from dataclasses import dataclass, field\n"
        "from typing import ClassVar, Dict, List, Optional, Tuple\n"
        "from repro.scenario.parts import register_part\n"
        "@register_part\n"
        "@dataclass(frozen=True)\n"
        "class GoodSpec:\n"
        "    a: int = 0\n"
        "    b: Optional[float] = None\n"
        "    c: List[str] = field(default_factory=list)\n"
        "    d: Dict[str, Tuple[int, int]] = field(default_factory=dict)\n"
        "    e: ClassVar[object] = object()\n"
        "    f: tuple = ()\n",
    )
    assert lint_tree(tmp_path).ok


def test_ser001_rejects_multi_arm_unions_and_bad_dict_keys(tmp_path):
    write_module(
        tmp_path, "experiments/bad_spec.py",
        "from dataclasses import dataclass\n"
        "from typing import Dict, Union\n"
        "from repro.scenario.parts import register_part\n"
        "@register_part\n"
        "@dataclass(frozen=True)\n"
        "class BadSpec:\n"
        "    a: Union[int, str, float]\n"
        "    b: Dict[float, int]\n",
    )
    report = lint_tree(tmp_path)
    assert len(findings_by_rule(report).get("SER001", [])) == 2


def test_ser002_scopes_to_the_persistence_modules(tmp_path):
    # The same raw json elsewhere is not SER002's business.
    write_module(
        tmp_path, "report.py",
        "import json\n"
        "def render(data):\n"
        "    return json.dumps(data)\n",
    )
    assert lint_tree(tmp_path).ok


def test_ser002_catches_write_mode_open(tmp_path):
    write_module(
        tmp_path, "jobs/store.py",
        "def publish(path, blob):\n"
        "    with open(path, mode='wb') as handle:\n"
        "        handle.write(blob)\n",
    )
    report = lint_tree(tmp_path)
    assert [f.rule for f in report.findings] == ["SER002"]


def test_arch001_relative_imports_resolve_through_the_package(tmp_path):
    write_module(
        tmp_path, "net/leaky.py",
        "from ..scenario import spec\n",
    )
    report = lint_tree(tmp_path)
    assert [f.rule for f in report.findings] == ["ARCH001"]


def test_arch001_nothing_imports_cli(tmp_path):
    write_module(tmp_path, "jobs/shell.py", "from repro import cli\n")
    report = lint_tree(tmp_path)
    findings = findings_by_rule(report).get("ARCH001", [])
    assert len(findings) == 1
    assert "cli" in findings[0].message


def test_arch001_check_may_import_anything_but_not_cli(tmp_path):
    write_module(
        tmp_path, "check/model.py",
        "from repro.scenario import spec\n"
        "from repro.jobs import store\n",
    )
    assert lint_tree(tmp_path).ok
    write_module(tmp_path, "check/shell.py", "import repro.cli\n")
    assert not lint_tree(tmp_path).ok


def test_arch001_same_layer_and_downward_imports_are_fine(tmp_path):
    write_module(
        tmp_path, "scenario/engine.py",
        "from repro.sim import simulator\n"
        "from repro.net import link\n"
        "from repro.tor import hosts\n",
    )
    write_module(
        tmp_path, "transport/hop2.py",
        "from repro.tor import cells\n",  # layer 2 -> layer 2
    )
    assert lint_tree(tmp_path).ok


# ----------------------------------------------------------------------
# Framework mechanics
# ----------------------------------------------------------------------


def test_parse_failure_is_a_finding(tmp_path):
    write_module(tmp_path, "broken.py", "def nope(:\n")
    report = lint_tree(tmp_path)
    assert [f.rule for f in report.findings] == [PARSE_RULE_ID]
    assert report.modules_checked == 0


def test_collect_files_rejects_missing_paths():
    with pytest.raises(FileNotFoundError):
        collect_files(["/no/such/tree"])


def test_collect_files_walks_sorted_and_deduplicated(tmp_path):
    b = write_module(tmp_path, "b.py", "x = 1\n")
    a = write_module(tmp_path, "a.py", "x = 1\n")
    (tmp_path / "repro" / "__pycache__").mkdir()
    (tmp_path / "repro" / "__pycache__" / "a.py").write_text("x = 1\n")
    files = collect_files([str(tmp_path), str(a)])
    assert files == sorted([str(a), str(b)])


def test_package_relpath_scopes_to_the_innermost_repro_dir(tmp_path):
    path = write_module(tmp_path, "scenario/cache.py", "x = 1\n")
    assert package_relpath(str(path)) == "scenario/cache.py"
    loose = tmp_path / "loose.py"
    loose.write_text("x = 1\n")
    assert package_relpath(str(loose)) == "loose.py"


def test_findings_are_sorted_and_deduplicated(tmp_path):
    write_module(
        tmp_path, "sim/b.py",
        "import time\nx = time.time()\ny = time.monotonic()\n",
    )
    write_module(tmp_path, "sim/a.py", "import time\nz = time.time()\n")
    report = lint_tree(tmp_path)
    keys = [(f.path, f.line, f.rule) for f in report.findings]
    assert keys == sorted(keys)
    assert len(keys) == len(set(keys))


def test_report_round_trips_through_serialize(tmp_path):
    relpath, source = PLANTED["DET001"]
    write_module(tmp_path, relpath, source)
    report = lint_tree(tmp_path)
    back = decode(LintReport, encode(report))
    assert back.findings == report.findings
    assert back.rules == report.rules
    assert not back.ok


def test_rule_catalog_is_complete_and_unique():
    ids = [rule.id for rule in ALL_RULES]
    assert len(ids) == len(set(ids))
    assert set(rules_by_id()) == set(ids)
    for rule in ALL_RULES:
        assert rule.title and rule.scope
