"""The READMEs name only what exists.

Every backticked repository path (``src/…``, ``tests/…``,
``perfbench/…``, ``examples/…``) in ``README.md`` and
``perfbench/README.md`` must exist, and every backticked dotted
``repro.x.y`` name must import and resolve.  A ``:N`` line suffix is
dropped; globs and ``<placeholder>`` paths are skipped, and so are the
run-output directories the repository's ``.gitignore`` lists.  Fenced
blocks are not read for names: they hold commands and sample output.

Every ``repro …`` command in ``README.md``'s shell fences (``sh``,
``bash`` and ``console``) must parse against the real argument parser.
None of them is run.  Every ``--option`` in a backticked span of
``README.md``'s prose must be an option of some ``repro`` subcommand.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import os
import re
import shlex
from typing import Iterator, List, Tuple

import pytest

from repro.cli import build_parser

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DOCS = ("README.md", os.path.join("perfbench", "README.md"))

_SPAN = re.compile(r"`([^`\n]+)`")
_PATH = re.compile(r"^(?:src|tests|perfbench|examples)/\S*$")
_NAME = re.compile(r"(?<![\w./])repro(?:\.\w+)+")
_LINE_SUFFIX = re.compile(r":\d+(?:-\d+)?$")


def _ignored_dirs() -> List[str]:
    """``.gitignore`` entries that name one directory of the tree."""
    with open(os.path.join(ROOT, ".gitignore")) as handle:
        return [
            line.strip() for line in handle
            if line.strip().endswith("/") and "/" in line.strip()[:-1]
        ]


def _resolves(name: str) -> bool:
    parts = name.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attribute in parts[cut:]:
            if not hasattr(target, attribute):
                return False
            target = getattr(target, attribute)
        return True
    return False


def prose_spans(path: str) -> Iterator[Tuple[int, str]]:
    """``(line, span)`` of each backticked span outside *path*'s fences."""
    fenced = False
    with open(path, encoding="utf-8") as handle:
        for number, line in enumerate(handle, 1):
            if line.lstrip().startswith("```"):
                fenced = not fenced
                continue
            if not fenced:
                for span in _SPAN.findall(line):
                    yield number, span


def stale_references(path: str) -> List[str]:
    """``"<doc>:<line>: <reference> ..."`` for each stale reference in *path*."""
    ignored = _ignored_dirs()
    stale = []
    for number, span in prose_spans(path):
        for token in span.split():
            token = _LINE_SUFFIX.sub("", token)
            if (
                not _PATH.match(token)
                or any(mark in token for mark in "*?[<")
                or any(token.startswith(prefix) for prefix in ignored)
            ):
                continue
            if not os.path.exists(os.path.join(ROOT, token)):
                stale.append("%s:%d: %s does not exist" % (path, number, token))
        for name in _NAME.findall(span):
            if not _resolves(name):
                stale.append("%s:%d: %s does not resolve" % (path, number, name))
    return stale


@pytest.mark.parametrize("doc", DOCS)
def test_readme_names_only_what_exists(doc):
    assert stale_references(os.path.join(ROOT, doc)) == []


def test_a_stale_name_or_path_is_reported_with_its_line(tmp_path):
    doc = tmp_path / "README.md"
    doc.write_text(
        "Plans go through `repro.scenario.cache.DiskPlanCache`.\n"
        "```\n`repro.not.read.inside.a.fence`\n```\n"
        "Racers used to call `repro.scenario.cache.DiskPlanCache.acquire`.\n"
        "See `src/repro/scenario/cache.py:12`, `tests/golden/*.json` and\n"
        "`python3 perfbench/gone.py --smoke`.\n"
    )
    assert stale_references(str(doc)) == [
        "%s:5: repro.scenario.cache.DiskPlanCache.acquire does not resolve" % doc,
        "%s:7: perfbench/gone.py does not exist" % doc,
    ]


_SHELL_FENCES = ("```sh", "```bash", "```console")
#: Where a command's own words end: a redirection, pipe or chain.
_COMMAND_END = re.compile(r"^(?:[0-9]?>|\||&&|;)")


def repro_commands(path: str) -> List[Tuple[int, List[str]]]:
    """``(line, argv)`` of each ``repro`` command in *path*'s shell fences.

    A console block's ``$ `` prompt and a trailing ``\\`` continuation
    are handled; comments, redirections and pipes end the command.
    """
    commands = []
    fence = None
    pending, start = "", 0
    with open(path, encoding="utf-8") as handle:
        for number, line in enumerate(handle, 1):
            stripped = line.strip()
            if stripped.startswith("```"):
                fence = None if fence else stripped
                continue
            if fence not in _SHELL_FENCES:
                continue
            if not pending:
                start = number
                stripped = stripped[2:] if stripped.startswith("$ ") else stripped
            if stripped.endswith("\\"):
                pending += stripped[:-1] + " "
                continue
            words, pending = shlex.split(pending + stripped, comments=True), ""
            while words and "=" in words[0]:  # VAR=value prefixes
                words.pop(0)
            if words[:3] == ["python", "-m", "repro"]:
                words = ["repro"] + words[3:]
            if words[:1] != ["repro"]:
                continue
            argv = []
            for word in words[1:]:
                if _COMMAND_END.match(word):
                    break
                argv.append(word)
            commands.append((start, argv))
    return commands


def unparsable_commands(path: str) -> List[str]:
    """``"<doc>:<line>: repro <args>: <parser error>"`` for each command
    the parser refuses."""
    bad = []
    for number, argv in repro_commands(path):
        errors = io.StringIO()
        try:
            with contextlib.redirect_stderr(errors), \
                    contextlib.redirect_stdout(io.StringIO()):
                build_parser().parse_args(argv)
        except SystemExit as stop:
            if stop.code:
                message = errors.getvalue().strip().splitlines()[-1]
                bad.append("%s:%d: repro %s: %s"
                           % (path, number, " ".join(argv), message))
    return bad


def test_readme_commands_parse():
    path = os.path.join(ROOT, "README.md")
    assert repro_commands(path)
    assert unparsable_commands(path) == []


def test_a_misspelled_flag_is_reported_with_its_line(tmp_path):
    doc = tmp_path / "README.md"
    doc.write_text(
        "```sh\n"
        "repro trace --distance 3 --json    # fine\n"
        "PYTHONPATH=src python -m repro check --hops 2 \\\n"
        "    --replay-count 25\n"
        "```\n"
        "```python\nrepro trace --not-read\n```\n"
        "```console\n$ repro lint --jsn > lint.json\n```\n"
    )
    assert [number for number, __ in repro_commands(str(doc))] == [2, 3, 10]
    bad = unparsable_commands(str(doc))
    assert [line.split(": repro ")[0] for line in bad] == [
        "%s:3" % doc, "%s:10" % doc,
    ]
    assert "unrecognized arguments: --replay-count 25" in bad[0]
    assert "unrecognized arguments: --jsn" in bad[1]


_OPTION = re.compile(r"(?<![\w-])--[a-z][\w-]*")
#: Backticked ``--options`` that name no ``repro`` option on purpose:
#: ``--flag`` is prose for "any flag", and ``--shards`` names a flag
#: the README says was deleted.
_NOT_REPRO_OPTIONS = {"--flag", "--shards"}


def _is_perfbench_span(span: str) -> bool:
    """A span about ``perfbench/run.py``, whose flags are its own."""
    return "perfbench/run.py" in span or span == "--trace 1"


def unknown_options(path: str) -> List[str]:
    """``"<doc>:<line>: <option>"`` for each backticked ``--option`` in
    *path*'s prose that no subcommand of ``build_parser()`` has."""
    subcommands = next(
        action for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    known = {
        string
        for command in subcommands.choices.values()
        for action in command._actions
        for string in action.option_strings
    } | _NOT_REPRO_OPTIONS
    return [
        "%s:%d: %s" % (path, number, option)
        for number, span in prose_spans(path)
        if not _is_perfbench_span(span)
        for option in _OPTION.findall(span) if option not in known
    ]


def test_readme_prose_names_only_real_options():
    assert unknown_options(os.path.join(ROOT, "README.md")) == []


def test_an_unknown_option_in_prose_is_reported_with_its_line(tmp_path):
    doc = tmp_path / "README.md"
    doc.write_text(
        "Budgets are off (`--losses 0`); see `repro check --loss-budget 1`.\n"
        "```sh\nrepro check `--not-prose`\n```\n"
        "Time it with `perfbench/run.py --smoke` or `--trace 1`, and\n"
        "`repro adversity-study --resume` a sweep.\n"
    )
    assert unknown_options(str(doc)) == [
        "%s:1: --losses" % doc, "%s:6: --resume" % doc,
    ]
