"""The first rule pack: the contracts the reproduction actually relies on.

Determinism
-----------
**DET001** — no module-level ``random`` calls, no unseeded
``random.Random()`` (and never ``random.SystemRandom``), anywhere in
the package.  Byte-identical reruns at any worker count rest on
every draw flowing through an injected, seed-derived substream
(:class:`repro.sim.rand.RandomStreams` / ``derive_seed``); one global
draw makes output depend on import order and process history.

**DET002** — no wall-clock reads (``time.time``, ``time.monotonic``,
``time.perf_counter``, ``datetime.now`` and friends) in the simulated
paths: ``sim``, ``net``, ``transport``, ``tor``, ``scenario``.
Simulated time is ``sim.now``; a wall-clock read in these packages is
either a bug or host-facing bookkeeping, which belongs in a module
outside the rule's scope.

**DET003** — no direct iteration over unordered set values in the
planning and serialization modules (``scenario/``, ``serialize.py``,
``storage.py``): set order varies across processes (PYTHONHASHSEED),
so anything derived from the iteration — draw order, JSON layout —
would too.  Wrap in ``sorted()``.

Serialization
-------------
**SER001** — every field of a ``@register_part`` dataclass, and of the
``spec_type``/``result_type`` dataclasses named by a
``@register_experiment`` class, must carry a type hint
:mod:`repro.serialize` can round-trip: scalars, ``Rate``,
``TraceRecorder``, nested dataclasses, ``Optional``/single-arm
``Union``, ``List``/``Tuple``/``Sequence``, and ``Dict`` with ``str``
or ``int`` keys.  A hint the decoder cannot resolve fails at *decode*
time — on the cache-hit or resume path, long after the write appeared
to succeed.

**SER002** — the persistence modules (``scenario/cache.py``,
``jobs/store.py``) must route every artifact through
``repro.storage`` (``EntryDir`` records, or an envelope file): no raw
``json.dump``/``json.load`` and no write-mode ``open``.  The header is
what carries the format version, key echo, code fingerprint and
payload digest that make cached entries misses instead of stale or
damaged answers.

Architecture
------------
**ARCH001** — import layering: ``sim`` (0) < ``net`` (1) <
``transport``/``tor`` (2) < ``scenario`` (3) < ``experiments``/``jobs``
(4).  A package may import its own layer or below; ``check`` may
import anything (it models the whole stack); nothing imports ``cli``
(the CLI is the outermost shell).  Unlayered utility modules
(``serialize``, ``storage``, ``units``, ``analysis``, ``report``,
``core``, ``lint``) are free as sources and as targets — except for
the universal ``cli`` ban.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from .framework import ModuleInfo, Project, Rule

__all__ = [
    "ALL_RULES",
    "ArchLayeringRule",
    "EnvelopeDisciplineRule",
    "GlobalRandomRule",
    "RegisteredFieldHintsRule",
    "SetIterationRule",
    "WallClockRule",
    "rules_by_id",
]


def _imported_names(
    tree: ast.Module,
) -> Tuple[Dict[str, str], Dict[str, Tuple[str, str]]]:
    """``(modules, names)``: local name -> imported module, and local
    name -> ``(module, original_name)`` for ``from`` imports."""
    modules: Dict[str, str] = {}
    names: Dict[str, Tuple[str, str]] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.partition(".")[0]
                modules[local] = alias.name
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            for alias in node.names:
                names[alias.asname or alias.name] = (
                    node.module or "", alias.name
                )
    return modules, names


# ----------------------------------------------------------------------
# DET001 — global randomness
# ----------------------------------------------------------------------


class GlobalRandomRule(Rule):
    id = "DET001"
    title = "randomness must come from injected seeded substreams"
    scope = "every module"

    def check(self, module: ModuleInfo,
              project: Project) -> Iterator[Tuple[int, str]]:
        modules, names = _imported_names(module.tree)
        random_aliases = {
            local for local, target in modules.items() if target == "random"
        }
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if (isinstance(func, ast.Attribute)
                    and isinstance(func.value, ast.Name)
                    and func.value.id in random_aliases):
                attr = func.attr
                if attr == "Random":
                    if not node.args and not node.keywords:
                        yield (node.lineno,
                               "unseeded random.Random(); seed it from "
                               "repro.sim.rand.derive_seed or take an "
                               "injected RNG")
                elif attr == "SystemRandom":
                    yield (node.lineno,
                           "random.SystemRandom is never reproducible; "
                           "use an injected seeded substream")
                else:
                    yield (node.lineno,
                           "module-level random.%s() draws from the "
                           "global RNG; use an injected seeded "
                           "substream (repro.sim.rand)" % attr)
            elif isinstance(func, ast.Name) and func.id in names:
                origin_module, origin_name = names[func.id]
                if origin_module != "random":
                    continue
                if origin_name == "Random":
                    if not node.args and not node.keywords:
                        yield (node.lineno,
                               "unseeded Random(); seed it from "
                               "repro.sim.rand.derive_seed or take an "
                               "injected RNG")
                elif origin_name == "SystemRandom":
                    yield (node.lineno,
                           "random.SystemRandom is never reproducible; "
                           "use an injected seeded substream")
                else:
                    yield (node.lineno,
                           "module-level random.%s() draws from the "
                           "global RNG; use an injected seeded "
                           "substream (repro.sim.rand)" % origin_name)


# ----------------------------------------------------------------------
# DET002 — wall clocks in simulated paths
# ----------------------------------------------------------------------

_CLOCK_READS = frozenset((
    "time", "monotonic", "perf_counter", "process_time",
    "time_ns", "monotonic_ns", "perf_counter_ns", "process_time_ns",
))
_DATETIME_READS = frozenset(("now", "utcnow", "today"))
_DET002_PACKAGES = frozenset(("sim", "net", "transport", "tor", "scenario"))


class WallClockRule(Rule):
    id = "DET002"
    title = "no wall-clock reads in simulated paths"
    scope = "sim/, net/, transport/, tor/, scenario/"

    def applies_to(self, module: ModuleInfo) -> bool:
        return module.package in _DET002_PACKAGES

    def check(self, module: ModuleInfo,
              project: Project) -> Iterator[Tuple[int, str]]:
        modules, names = _imported_names(module.tree)
        time_aliases = {
            local for local, target in modules.items() if target == "time"
        }
        datetime_aliases = {
            local for local, target in modules.items() if target == "datetime"
        }
        # ``from datetime import datetime/date`` class aliases.
        datetime_classes = {
            local for local, (mod, name) in names.items()
            if mod == "datetime" and name in ("datetime", "date")
        }
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Attribute):
                value = func.value
                if (isinstance(value, ast.Name)
                        and value.id in time_aliases
                        and func.attr in _CLOCK_READS):
                    yield (node.lineno,
                           "time.%s() reads the wall clock in a "
                           "simulated path; use sim.now" % func.attr)
                elif func.attr in _DATETIME_READS:
                    if (isinstance(value, ast.Name)
                            and value.id in datetime_classes):
                        yield (node.lineno,
                               "datetime.%s() reads the wall clock in "
                               "a simulated path; use sim.now"
                               % func.attr)
                    elif (isinstance(value, ast.Attribute)
                            and isinstance(value.value, ast.Name)
                            and value.value.id in datetime_aliases):
                        yield (node.lineno,
                               "datetime.%s.%s() reads the wall clock "
                               "in a simulated path; use sim.now"
                               % (value.attr, func.attr))
            elif isinstance(func, ast.Name) and func.id in names:
                origin_module, origin_name = names[func.id]
                if origin_module == "time" and origin_name in _CLOCK_READS:
                    yield (node.lineno,
                           "time.%s() reads the wall clock in a "
                           "simulated path; use sim.now" % origin_name)


# ----------------------------------------------------------------------
# DET003 — iteration over unordered sets
# ----------------------------------------------------------------------

_DET003_MODULES = frozenset(("serialize.py", "storage.py"))
_SET_BINOPS = (ast.BitOr, ast.BitAnd, ast.BitXor, ast.Sub)


def _is_setish(node: ast.AST, set_names: Set[str]) -> bool:
    """Whether *node* statically evaluates to a ``set``/``frozenset``."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in ("set", "frozenset")):
        return True
    if isinstance(node, ast.Name):
        return node.id in set_names
    if isinstance(node, ast.BinOp) and isinstance(node.op, _SET_BINOPS):
        return (_is_setish(node.left, set_names)
                or _is_setish(node.right, set_names))
    return False


class SetIterationRule(Rule):
    id = "DET003"
    title = "iteration over unordered sets in planning/serialization"
    scope = "scenario/, serialize.py, storage.py"

    def applies_to(self, module: ModuleInfo) -> bool:
        return (module.package == "scenario"
                or module.pkgpath in _DET003_MODULES)

    def check(self, module: ModuleInfo,
              project: Project) -> Iterator[Tuple[int, str]]:
        # One pass per lexical scope: names assigned exactly set-ish
        # values in a scope count as sets; a later non-set assignment
        # clears them (conservative, no cross-scope flow).
        scopes = [module.tree] + [
            node for node in ast.walk(module.tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        for scope in scopes:
            yield from self._check_scope(scope)

    @classmethod
    def _scope_nodes(cls, root: ast.AST) -> Iterator[ast.AST]:
        """Source-order nodes of *root*'s scope, not descending into
        nested function or class scopes (each is checked separately)."""
        for child in ast.iter_child_nodes(root):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.Lambda, ast.ClassDef)):
                continue
            yield child
            yield from cls._scope_nodes(child)

    def _check_scope(self, scope: ast.AST) -> Iterator[Tuple[int, str]]:
        set_names: Set[str] = set()
        for node in self._scope_nodes(scope):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        if _is_setish(node.value, set_names):
                            set_names.add(target.id)
                        else:
                            set_names.discard(target.id)
            elif isinstance(node, ast.For):
                if _is_setish(node.iter, set_names):
                    yield (node.iter.lineno,
                           "iterating an unordered set; wrap in "
                           "sorted() so downstream order is "
                           "process-independent")
            elif isinstance(node, (ast.ListComp, ast.SetComp,
                                   ast.GeneratorExp, ast.DictComp)):
                for generator in node.generators:
                    if _is_setish(generator.iter, set_names):
                        yield (generator.iter.lineno,
                               "comprehension over an unordered set; "
                               "wrap in sorted() so downstream order "
                               "is process-independent")


# ----------------------------------------------------------------------
# SER001 — registered dataclass fields must be round-trippable
# ----------------------------------------------------------------------

_SCALAR_HINTS = frozenset((
    "int", "float", "str", "bool", "bytes", "None", "Any",
    "Rate", "TraceRecorder",
))
#: Unparameterized builtin containers the decoder handles directly
#: (``target_type is tuple`` / ``is list`` / ``is dict`` branches).
_BARE_CONTAINER_HINTS = frozenset(("tuple", "list", "dict"))
_SEQUENCE_HINTS = frozenset(("List", "list", "Sequence", "Tuple", "tuple"))
_DICT_HINTS = frozenset(("Dict", "dict"))
_DICT_KEY_HINTS = frozenset(("str", "int"))
_REGISTER_DECORATORS = frozenset(("register_part", "register_experiment"))


def _decorator_name(node: ast.expr) -> str:
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return ""


def _subscript_base(node: ast.Subscript) -> str:
    value = node.value
    if isinstance(value, ast.Name):
        return value.id
    if isinstance(value, ast.Attribute):
        return value.attr
    return ""


def _subscript_args(node: ast.Subscript) -> List[ast.expr]:
    inner = node.slice
    # py3.9+: the slice is the expression itself (Index is gone).
    if isinstance(inner, ast.Tuple):
        return list(inner.elts)
    return [inner]


class RegisteredFieldHintsRule(Rule):
    id = "SER001"
    title = "registered dataclass fields must be serializer-round-trippable"
    scope = "every module (registered parts/experiments)"

    def check(self, module: ModuleInfo, project: Project):
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            decorators = {_decorator_name(d) for d in node.decorator_list}
            if "register_part" in decorators:
                yield from self._check_dataclass(node, module, project)
            if "register_experiment" in decorators:
                yield from self._check_experiment(node, module, project)

    def _check_experiment(self, node: ast.ClassDef, module: ModuleInfo,
                          project: Project):
        """Resolve ``spec_type = X`` / ``result_type = Y`` and check the
        named dataclasses wherever they are defined in the project —
        findings are attributed to the defining module."""
        for statement in node.body:
            targets: List[ast.expr] = []
            value: Optional[ast.expr] = None
            if isinstance(statement, ast.Assign):
                targets, value = statement.targets, statement.value
            elif isinstance(statement, ast.AnnAssign) and statement.value:
                targets, value = [statement.target], statement.value
            for target in targets:
                if not (isinstance(target, ast.Name)
                        and target.id in ("spec_type", "result_type")):
                    continue
                if not isinstance(value, ast.Name):
                    continue
                for owner, class_def in project.class_defs(value.id):
                    for line, message in self._check_dataclass(
                        class_def, owner, project
                    ):
                        yield (owner, line, message)

    def _check_dataclass(self, node: ast.ClassDef, module: ModuleInfo,
                         project: Project) -> Iterator[Tuple[int, str]]:
        for statement in node.body:
            if not isinstance(statement, ast.AnnAssign):
                continue
            if not isinstance(statement.target, ast.Name):
                continue
            field_name = statement.target.id
            for line, problem in self._annotation_problems(
                statement.annotation, module, project
            ):
                yield (line, "field %r of %s: %s"
                       % (field_name, node.name, problem))

    def _annotation_problems(
        self, annotation: ast.expr, module: ModuleInfo, project: Project
    ) -> Iterator[Tuple[int, str]]:
        line = annotation.lineno
        if isinstance(annotation, ast.Constant):
            value = annotation.value
            if value is None or value is Ellipsis:
                return
            if isinstance(value, str):
                # Forward reference: resolvable iff the name is known.
                if not self._resolvable(value, module, project):
                    yield (line, "forward reference %r resolves to "
                                 "nothing the serializer can "
                                 "reconstruct" % value)
                return
            yield (line, "literal %r is not a type hint" % (value,))
        elif isinstance(annotation, (ast.Name, ast.Attribute)):
            name = (annotation.id if isinstance(annotation, ast.Name)
                    else annotation.attr)
            if name in _SCALAR_HINTS or name in _BARE_CONTAINER_HINTS:
                return
            if not self._resolvable(name, module, project):
                yield (line, "type %r resolves to nothing the "
                             "serializer can reconstruct" % name)
        elif isinstance(annotation, ast.Subscript):
            base = _subscript_base(annotation)
            args = _subscript_args(annotation)
            if base == "ClassVar":
                return  # not a dataclass field
            if base in ("Optional", "Union"):
                arms = [
                    arg for arg in args
                    if not (isinstance(arg, ast.Constant)
                            and arg.value is None)
                ]
                if base == "Union" and len(arms) > 1:
                    yield (line, "the serializer decodes only "
                                 "single-arm Optional unions, not "
                                 "Union[%d arms]" % len(arms))
                    return
                for arm in arms:
                    yield from self._annotation_problems(
                        arm, module, project
                    )
            elif base in _SEQUENCE_HINTS:
                for arg in args:
                    yield from self._annotation_problems(
                        arg, module, project
                    )
            elif base in _DICT_HINTS:
                if args and not (
                    isinstance(args[0], ast.Name)
                    and args[0].id in _DICT_KEY_HINTS
                ):
                    yield (line, "the serializer only round-trips "
                                 "str/int dict keys")
                for arg in args[1:]:
                    yield from self._annotation_problems(
                        arg, module, project
                    )
            else:
                yield (line, "%s[...] is not serializer-"
                             "round-trippable" % (base or "<expr>"))
        # Anything else (BinOp unions via `X | Y` etc.) — the package
        # targets 3.9, so PEP 604 unions would crash get_type_hints.
        elif isinstance(annotation, ast.BinOp):
            yield (line, "PEP 604 unions (X | Y) break "
                         "get_type_hints on the supported 3.9 "
                         "baseline; use Optional/Union")

    def _resolvable(self, name: str, module: ModuleInfo,
                    project: Project) -> bool:
        head = name.partition(".")[0].partition("[")[0]
        if head in _SCALAR_HINTS:
            return True
        modules, names = _imported_names(module.tree)
        if head in modules or head in names:
            return True
        if project.class_defs(head):
            return True
        # Defined at some level of this module (class or assignment).
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ClassDef) and node.name == head:
                return True
            if (isinstance(node, ast.Assign)
                    and any(isinstance(t, ast.Name) and t.id == head
                            for t in node.targets)):
                return True
        return False


# ----------------------------------------------------------------------
# SER002 — envelope discipline in the persistence modules
# ----------------------------------------------------------------------

_SER002_MODULES = frozenset(("scenario/cache.py", "jobs/store.py"))
_WRITE_MODE_CHARS = frozenset("wax+")


class EnvelopeDisciplineRule(Rule):
    id = "SER002"
    title = "cache/checkpoint artifacts must use the storage envelope"
    scope = "scenario/cache.py, jobs/store.py"

    def applies_to(self, module: ModuleInfo) -> bool:
        return module.pkgpath in _SER002_MODULES

    def check(self, module: ModuleInfo,
              project: Project) -> Iterator[Tuple[int, str]]:
        modules, __ = _imported_names(module.tree)
        json_aliases = {
            local for local, target in modules.items() if target == "json"
        }
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if (isinstance(func, ast.Attribute)
                    and isinstance(func.value, ast.Name)
                    and func.value.id in json_aliases
                    and func.attr in ("dump", "dumps", "load", "loads")):
                yield (node.lineno,
                       "raw json.%s in a persistence module; route "
                       "artifacts through repro.storage.EntryDir"
                       % func.attr)
            elif isinstance(func, ast.Name) and func.id == "open":
                mode = self._open_mode(node)
                if mode is not None and _WRITE_MODE_CHARS & set(mode):
                    yield (node.lineno,
                           "write-mode open(%r) in a persistence "
                           "module; artifacts must go through "
                           "repro.storage.EntryDir" % mode)

    @staticmethod
    def _open_mode(node: ast.Call) -> Optional[str]:
        if len(node.args) >= 2 and isinstance(node.args[1], ast.Constant) \
                and isinstance(node.args[1].value, str):
            return node.args[1].value
        for keyword in node.keywords:
            if keyword.arg == "mode" and isinstance(keyword.value,
                                                    ast.Constant) \
                    and isinstance(keyword.value.value, str):
                return keyword.value.value
        return None


# ----------------------------------------------------------------------
# ARCH001 — import layering
# ----------------------------------------------------------------------

_LAYERS = {
    "sim": 0,
    "net": 1,
    "transport": 2,
    "tor": 2,
    "scenario": 3,
    "experiments": 4,
    "jobs": 4,
}
#: Sources exempt from the layer ordering (but not from the cli ban).
_LAYER_EXEMPT_SOURCES = frozenset(("check",))
#: Modules allowed to import repro.cli.
_CLI_IMPORTERS = frozenset(("__main__.py", "cli.py"))


class ArchLayeringRule(Rule):
    id = "ARCH001"
    title = "import layering: sim < net < transport/tor < scenario < experiments/jobs; nothing imports cli"
    scope = "every module"

    def check(self, module: ModuleInfo,
              project: Project) -> Iterator[Tuple[int, str]]:
        source_package = module.package
        package_parts = module.pkgpath.split("/")[:-1]
        for node in ast.walk(module.tree):
            targets: List[Tuple[int, List[str]]] = []
            if isinstance(node, ast.Import):
                for alias in node.names:
                    parts = alias.name.split(".")
                    if parts[0] == "repro":
                        targets.append((node.lineno, parts[1:]))
            elif isinstance(node, ast.ImportFrom):
                if node.level == 0:
                    parts = (node.module or "").split(".")
                    if parts and parts[0] == "repro":
                        if len(parts) == 1:
                            # ``from repro import x``: one target per name.
                            targets.extend(
                                (node.lineno, [alias.name])
                                for alias in node.names
                            )
                        else:
                            targets.append((node.lineno, parts[1:]))
                else:
                    hop = node.level - 1
                    if hop > len(package_parts):
                        continue  # beyond the package root: not ours
                    base = package_parts[:len(package_parts) - hop] \
                        if hop else list(package_parts)
                    if node.module:
                        targets.append(
                            (node.lineno, base + node.module.split("."))
                        )
                    else:
                        targets.extend(
                            (node.lineno, base + [alias.name])
                            for alias in node.names
                        )
            for line, target_parts in targets:
                if not target_parts:
                    continue
                head = target_parts[0]
                if (head == "cli"
                        and module.pkgpath not in _CLI_IMPORTERS):
                    yield (line,
                           "imports repro.cli: the CLI is the "
                           "outermost shell, nothing imports it")
                    continue
                if source_package in _LAYER_EXEMPT_SOURCES:
                    continue
                source_layer = _LAYERS.get(source_package)
                target_layer = _LAYERS.get(head)
                if (source_layer is not None and target_layer is not None
                        and target_layer > source_layer):
                    yield (line,
                           "layer violation: %s (layer %d) imports "
                           "repro.%s (layer %d); dependencies must "
                           "point down the stack"
                           % (source_package, source_layer, head,
                              target_layer))


#: The registry, in documentation order.
ALL_RULES: Tuple[Rule, ...] = (
    GlobalRandomRule(),
    WallClockRule(),
    SetIterationRule(),
    RegisteredFieldHintsRule(),
    EnvelopeDisciplineRule(),
    ArchLayeringRule(),
)


def rules_by_id() -> Dict[str, Rule]:
    return {rule.id: rule for rule in ALL_RULES}
