"""Tests for the ``repro check`` CLI subcommand."""

from __future__ import annotations

import glob
import json
import os

from repro.cli import main


def test_check_small_instance_passes(capsys):
    code = main(["check", "--hops", "1", "--cells", "2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "exhaustive enumeration" in out
    assert "VERDICT: PASS" in out
    assert "conservation" in out and "deadlock-freedom" in out


def test_check_reliable_with_replay(capsys):
    code = main(["check", "--hops", "1", "--cells", "2", "--reliable",
                 "--replay", "5"])
    out = capsys.readouterr().out
    assert code == 0
    assert "Engine replay:" in out
    assert "VERDICT: PASS" in out


def test_check_bounded_run_is_flagged(capsys):
    code = main(["check", "--hops", "2", "--cells", "2", "--reliable",
                 "--max-states", "200", "--replay", "0"])
    out = capsys.readouterr().out
    assert code == 0  # bounded, but no violations
    assert "BOUNDED" in out


def test_check_json_output(capsys):
    code = main(["check", "--hops", "1", "--cells", "2", "--json"])
    data = json.loads(capsys.readouterr().out)
    assert code == 0
    assert data["ok"] is True
    assert data["stats"]["states"] > 0
    assert data["violations"] == []


def test_check_no_por_flag(capsys):
    code = main(["check", "--hops", "1", "--cells", "2", "--no-por",
                 "--json"])
    data = json.loads(capsys.readouterr().out)
    assert code == 0
    assert data["stats"]["por"] is False


def test_check_emit_schedules(tmp_path, capsys):
    out_dir = str(tmp_path / "schedules")
    code = main(["check", "--hops", "1", "--cells", "2", "--reliable",
                 "--replay", "4", "--emit-schedules", out_dir])
    capsys.readouterr()
    assert code == 0
    files = glob.glob(os.path.join(out_dir, "schedule-*.json"))
    assert files
    with open(files[0]) as f:
        payload = json.load(f)
    assert payload["config"]["hops"] == 1
    assert payload["steps"]


def test_check_refuses_an_emit_dir_it_cannot_create_before_exploring(
        tmp_path, capsys, monkeypatch):
    import repro.check

    def explore(*args, **kwargs):
        raise AssertionError("explored before the directory was made")

    monkeypatch.setattr(repro.check, "explore", explore)
    blocker = tmp_path / "file"
    blocker.write_text("")
    code = main(["check", "--hops", "1", "--cells", "1",
                 "--emit-schedules", str(blocker / "schedules")])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    [line] = captured.err.splitlines()
    assert line.startswith("check: --emit-schedules: ")
    assert str(blocker) in line


def test_check_rejects_bad_config(capsys):
    for argv in (
        ["--hops", "0"],
        # Bounds under which nothing would be checked: exploration
        # would stop at the initial state and pass.
        ["--max-states", "0"],
        ["--max-states", "-3"],
        ["--max-depth", "-1"],
        ["--replay", "-1"],
    ):
        code = main(["check", "--hops", "1", "--cells", "1", *argv])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, ""), argv
        [line] = captured.err.splitlines()
        assert line.startswith("check: "), argv


def test_check_close_and_double_modes(capsys):
    code = main(["check", "--hops", "1", "--cells", "2", "--close",
                 "--window-mode", "double", "--json"])
    data = json.loads(capsys.readouterr().out)
    assert code == 0
    assert data["config"]["allow_close"] is True
    assert data["config"]["window_mode"] == "double"
