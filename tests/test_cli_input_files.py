"""A JSON input file the CLI cannot read ends in one line, never a traceback.

``repro batch`` / ``serve`` read a job file and ``repro scenario run
--spec`` a scenario file, through one reader: whatever stops the file
from becoming a JSON document — it cannot be opened, it is not UTF-8,
it is not JSON, or it nests deeper than the parser recurses — the
command exits 2 with one stderr line that names the file.
"""

from __future__ import annotations

import pytest

from repro.cli import main


def deep_file(tmp_path, depth=100_000):
    path = tmp_path / "deep.json"
    path.write_text("[" * depth + "]" * depth)
    return path


def binary_file(tmp_path):
    path = tmp_path / "bin.json"
    path.write_bytes(b"\xff\xfe[1]")
    return path


def deep_spec_file(tmp_path, depth=50_000):
    path = tmp_path / "deepspec.json"
    path.write_text('{"circuit_count": ' + "[" * depth + "]" * depth + "}")
    return path


def assert_one_line_naming(capsys, code, path, words):
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert code == 2, captured.err
    assert len(lines) == 1, captured.err
    assert str(path) in lines[0] and words in lines[0]
    assert "Traceback" not in captured.err + captured.out


def test_batch_dry_run_on_a_deeply_nested_file(tmp_path, capsys):
    path = deep_file(tmp_path)
    code = main(["batch", str(path), "--dry-run"])
    assert_one_line_naming(capsys, code, path, "nested too deeply")


def test_serve_on_a_deeply_nested_file(tmp_path, capsys):
    path = deep_file(tmp_path)
    code = main(["serve", str(path), "--checkpoint", str(tmp_path / "ckpt")])
    assert_one_line_naming(capsys, code, path, "nested too deeply")


def test_batch_dry_run_on_a_file_that_is_not_utf8(tmp_path, capsys):
    path = binary_file(tmp_path)
    code = main(["batch", str(path), "--dry-run"])
    assert_one_line_naming(capsys, code, path, "not valid JSON")


def test_scenario_run_on_a_deeply_nested_spec(tmp_path, capsys):
    path = deep_spec_file(tmp_path)
    code = main(["scenario", "run", "--spec", str(path)])
    assert_one_line_naming(capsys, code, path, "nested too deeply")


def test_scenario_run_on_a_spec_that_is_not_utf8(tmp_path, capsys):
    path = binary_file(tmp_path)
    code = main(["scenario", "run", "--spec", str(path)])
    assert_one_line_naming(capsys, code, path, "not valid JSON")


@pytest.mark.parametrize(
    "argv",
    [["batch", "{path}", "--dry-run"], ["scenario", "run", "--spec", "{path}"]],
    ids=["batch", "scenario"],
)
def test_a_file_that_cannot_be_opened_is_named(tmp_path, capsys, argv):
    for path in (tmp_path / "missing.json", tmp_path):
        code = main([arg.format(path=path) for arg in argv])
        assert_one_line_naming(capsys, code, path, "cannot read")
