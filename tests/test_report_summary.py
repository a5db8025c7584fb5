"""Tests for the one-shot reproduction report and its CLI command."""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.experiments import get_experiment
from repro.report.summary import generate_report, report_sections


@pytest.fixture(scope="module")
def report_text():
    return generate_report(full=False)


def test_report_has_all_sections(report_text):
    for heading in (
        "# CircuitStart reproduction report",
        "## Figure 1 (upper): source cwnd traces",
        "## Figure 1 (lower): download-time CDF",
        "## Ablations (A1-A4)",
        "## Extensions",
    ):
        assert heading in report_text


def test_report_contains_both_distances(report_text):
    assert "distance to bottleneck: 1 hop(s)" in report_text
    assert "distance to bottleneck: 3 hop(s)" in report_text


def test_report_contains_ablation_tables(report_text):
    for title in ("A1 - gamma", "A2 - compensation", "A3 - initial window",
                  "A4 - backpropagation"):
        assert title in report_text


def test_report_contains_extension_tables(report_text):
    assert "Future work" in report_text
    assert "Friendliness" in report_text
    assert "Interactive latency" in report_text


def test_report_headline_numbers(report_text):
    assert "median improvement" in report_text.lower()
    assert "max CDF gap" in report_text


def test_report_shows_exactly_what_each_verb_prints(report_text):
    """The point of the report: under each heading stands the text the
    verb itself prints for that spec, not a second rendering of it."""
    sections = [row for row in report_sections(full=False) if row[1]]
    assert [name for __, name, __ in sections] == [
        "trace", "trace", "cdf", "ablations",
        "dynamic", "friendliness", "interactive",
    ]
    for heading, name, spec in sections:
        experiment = get_experiment(name)
        rendering = experiment.render(experiment.run(spec))
        assert "%s\n\n```\n%s\n```\n" % (heading, rendering) in report_text


def test_cli_report_json_needs_a_checkpoint_dir(capsys):
    """``--json`` belongs to ``repro report DIR``; without DIR it was
    ignored and the ten-second markdown report ran instead."""
    code = main(["report", "--json"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and "DIR" in captured.err


def test_cli_report_to_file(tmp_path, capsys):
    out = tmp_path / "report.md"
    code = main(["report", "--out", str(out)])
    assert code == 0
    assert "wrote" in capsys.readouterr().out
    assert out.read_text().startswith("# CircuitStart reproduction report")


def test_cli_interactive_command(capsys):
    code = main(["interactive"])
    out = capsys.readouterr().out
    assert code == 0
    assert "Interactive latency" in out
