"""The READMEs name only what exists.

Every backticked repository path (``src/…``, ``tests/…``,
``perfbench/…``, ``examples/…``) in ``README.md`` and
``perfbench/README.md`` must exist, and every backticked dotted
``repro.x.y`` name must import and resolve.  A ``:N`` line suffix is
dropped; globs and ``<placeholder>`` paths are skipped, and so are the
run-output directories the repository's ``.gitignore`` lists.  Fenced
blocks are not read: they hold commands and sample output.
"""

from __future__ import annotations

import importlib
import os
import re
from typing import List

import pytest

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


def stale_references(path: str) -> List[str]:
    """``"<doc>:<line>: <reference> ..."`` for each stale reference in *path*."""
    ignored = _ignored_dirs()
    stale = []
    fenced = False
    with open(path, encoding="utf-8") as handle:
        for number, line in enumerate(handle, 1):
            if line.lstrip().startswith("```"):
                fenced = not fenced
                continue
            if fenced:
                continue
            for span in _SPAN.findall(line):
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
