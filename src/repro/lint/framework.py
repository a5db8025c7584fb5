"""The rule framework behind ``repro lint``.

A static-analysis pass over the package's own source enforcing the
contracts the golden pins only sample: determinism (all randomness from
injected substreams, no wall clocks in simulated paths), serialization
round-trippability of registered specs, envelope discipline for on-disk
artifacts, and import layering.  The concrete rules live in
:mod:`repro.lint.rules`; this module provides the machinery:

* :class:`ModuleInfo` — one parsed source file (path, package-relative
  path, source lines, AST);
* :class:`Project` — every module of one lint run, for cross-module
  rules (SER001 resolves type names project-wide, ARCH001 maps import
  targets to layers);
* :class:`Rule` — the per-rule base: an id, a one-line title, a
  path-scope predicate (:meth:`Rule.applies_to`) and a checker
  yielding ``(line, message)`` pairs;
* :func:`run_lint` — the driver: collect files, parse, and run the
  selected rules.

There are no inline suppressions: a justified exception is made by a
rule's scope (:meth:`Rule.applies_to`).  Files that fail to parse are
reported under :data:`PARSE_RULE_ID`.
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from ..serialize import Serializable

__all__ = [
    "Finding",
    "LintReport",
    "ModuleInfo",
    "PARSE_RULE_ID",
    "Project",
    "Rule",
    "collect_files",
    "run_lint",
]

#: Meta rule id for files the parser rejects.
PARSE_RULE_ID = "LINT002"


@dataclass(frozen=True)
class Finding(Serializable):
    """One rule violation at one source line."""

    rule: str
    path: str
    line: int
    message: str

    def render(self) -> str:
        return "%s:%d: %s %s" % (self.path, self.line, self.rule, self.message)


class ModuleInfo:
    """One parsed source file of a lint run.

    ``pkgpath`` is the path relative to the innermost enclosing
    ``repro`` package directory (``scenario/cache.py``,
    ``serialize.py``), which is what rules scope on — so a temporary
    tree laid out as ``<tmp>/repro/<subpackage>/…`` (the teeth tests)
    scopes identically to the installed package.  Files outside any
    ``repro`` directory fall back to their basename.
    """

    def __init__(self, path: str, display: str, source: str,
                 tree: ast.Module) -> None:
        self.path = path
        self.display = display
        self.source = source
        self.tree = tree
        self.pkgpath = package_relpath(path)

    @property
    def package(self) -> str:
        """The first-level subpackage (``"scenario"``), or ``""`` for
        top-level modules (``cli.py``, ``serialize.py``)."""
        head, sep, __ = self.pkgpath.partition("/")
        return head if sep else ""


def package_relpath(path: str) -> str:
    """*path* relative to the innermost ``repro`` directory above it."""
    parts = os.path.normpath(os.path.abspath(path)).split(os.sep)
    tail = parts[:-1]
    for index in range(len(tail) - 1, -1, -1):
        if tail[index] == "repro":
            return "/".join(parts[index + 1:])
    return parts[-1]


class Project:
    """Every module of one lint run, indexed for cross-module rules."""

    def __init__(self, modules: Sequence[ModuleInfo]) -> None:
        self.modules = list(modules)
        self.by_pkgpath: Dict[str, ModuleInfo] = {
            module.pkgpath: module for module in self.modules
        }
        self._class_names: Optional[
            Dict[str, List[Tuple[ModuleInfo, ast.ClassDef]]]
        ] = None

    def class_defs(self, name: str) -> List[Tuple[ModuleInfo, ast.ClassDef]]:
        """Every ``(module, class definition)`` pair named *name*."""
        if self._class_names is None:
            index: Dict[str, List[Tuple[ModuleInfo, ast.ClassDef]]] = {}
            for module in self.modules:
                for node in ast.walk(module.tree):
                    if isinstance(node, ast.ClassDef):
                        index.setdefault(node.name, []).append(
                            (module, node)
                        )
            self._class_names = index
        return self._class_names.get(name, [])


class Rule:
    """Base class for one lint rule.

    Subclasses set :attr:`id`, :attr:`title` and :attr:`scope` (the
    human-readable applicability, shown by ``repro lint --rules list``),
    override :meth:`applies_to` to scope by package path, and implement
    :meth:`check` to yield ``(line, message)`` pairs.
    """

    id: str = ""
    title: str = ""
    scope: str = "every module"

    def applies_to(self, module: ModuleInfo) -> bool:
        return True

    def check(self, module: ModuleInfo,
              project: Project) -> Iterator[Tuple[int, str]]:
        """Yield ``(line, message)`` findings for *module*.

        A cross-module rule may instead yield ``(other_module, line,
        message)`` to attribute a finding to a different file (SER001
        reports a bad field where the dataclass is *defined*, which
        need not be where it is registered).
        """
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<Rule %s: %s>" % (self.id, self.title)


@dataclass
class LintReport(Serializable):
    """Outcome of one lint run."""

    findings: List[Finding] = field(default_factory=list)
    modules_checked: int = 0
    rules: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.findings


def collect_files(paths: Iterable[str]) -> List[str]:
    """Every ``.py`` file under *paths* (files kept as-is), sorted.

    Raises :class:`FileNotFoundError` for a path that does not exist —
    a mistyped path must not silently lint nothing.
    """
    files: List[str] = []
    for path in paths:
        if os.path.isfile(path):
            files.append(os.path.abspath(path))
        elif os.path.isdir(path):
            for root, dirs, names in os.walk(path):
                dirs[:] = sorted(
                    d for d in dirs
                    if d != "__pycache__" and not d.startswith(".")
                )
                files.extend(
                    os.path.abspath(os.path.join(root, name))
                    for name in sorted(names) if name.endswith(".py")
                )
        else:
            raise FileNotFoundError("no such file or directory: %s" % path)
    # De-duplicate while keeping deterministic order.
    seen = set()
    unique = []
    for path in sorted(files):
        if path not in seen:
            seen.add(path)
            unique.append(path)
    return unique


def _display_path(path: str) -> str:
    """*path* relative to the working directory when it is beneath it."""
    relative = os.path.relpath(path)
    return path if relative.startswith("..") else relative


def run_lint(
    paths: Iterable[str],
    rules: Sequence[Rule],
) -> LintReport:
    """Run *rules* over every Python file under *paths*.

    Findings are sorted by ``(path, line, rule)``.
    """
    findings: List[Finding] = []
    modules: List[ModuleInfo] = []
    for path in collect_files(paths):
        display = _display_path(path)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                source = handle.read()
            tree = ast.parse(source, filename=path)
        except (OSError, SyntaxError, ValueError) as error:
            line = getattr(error, "lineno", None) or 1
            findings.append(Finding(
                rule=PARSE_RULE_ID, path=display, line=line,
                message="cannot parse: %s" % error,
            ))
            continue
        modules.append(ModuleInfo(path, display, source, tree))

    project = Project(modules)
    seen_findings = set()
    for module in modules:
        for rule in rules:
            if not rule.applies_to(module):
                continue
            for item in rule.check(module, project):
                if len(item) == 3:
                    target, line, message = item
                else:
                    line, message = item
                    target = module
                key = (rule.id, target.path, line, message)
                if key in seen_findings:
                    continue
                seen_findings.add(key)
                findings.append(Finding(
                    rule=rule.id, path=target.display, line=line,
                    message=message,
                ))
    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    return LintReport(
        findings=findings,
        modules_checked=len(modules),
        rules=sorted(rule.id for rule in rules),
    )
