"""The pin ledger, ``tests/pins.json``, checked against the test files.

Every sha256 tier-1 pins lives in the ledger and nowhere else, every
group in it is read by a test, and every group names a teeth test that
exists.  The test files are read as source (an AST scan), never run, so
``-k`` and ``-x`` cannot change what these checks see.
"""

from __future__ import annotations

import ast
import os
import re

import pytest
from helpers import pin_ledger

TESTS = os.path.dirname(os.path.abspath(__file__))
LEDGER = pin_ledger()

DIGEST = re.compile(r"[0-9a-f]{64}")


def _test_files():
    return sorted(name for name in os.listdir(TESTS) if name.endswith(".py"))


def _source(name):
    with open(os.path.join(TESTS, name)) as handle:
        return handle.read()


def _tree(name):
    return ast.parse(_source(name), filename=name)


def _groups_read(tree):
    """The literal group names of every ``pins("<group>")`` call in *tree*."""
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "pins"
            and len(node.args) == 1
            and isinstance(node.args[0], ast.Constant)
        ):
            yield node.args[0].value


def test_no_digest_literal_is_left_in_a_test_file():
    found = [
        "%s:%d" % (name, number)
        for name in _test_files()
        for number, line in enumerate(_source(name).splitlines(), 1)
        if DIGEST.search(line)
    ]
    assert found == []


def test_every_group_is_read_and_every_read_names_a_group():
    read = {group for name in _test_files() for group in _groups_read(_tree(name))}
    assert read == set(LEDGER)


@pytest.mark.parametrize("group", sorted(LEDGER))
def test_teeth_name_a_test_that_exists(group):
    name, __, test = LEDGER[group]["teeth"].partition("::")
    defined = {
        node.name for node in _tree(name).body
        if isinstance(node, ast.FunctionDef) and node.name.startswith("test_")
    }
    assert test in defined


@pytest.mark.parametrize("group", sorted(LEDGER))
def test_every_digest_is_64_lowercase_hex(group):
    entry = LEDGER[group]
    assert set(entry) == {"covers", "teeth", "sha256"} and entry["covers"]
    assert entry["sha256"]
    for key, digest in entry["sha256"].items():
        assert DIGEST.fullmatch(digest), (key, digest)
