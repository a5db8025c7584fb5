"""Static analysis for the package's own contracts (``repro lint``).

The framework (rules, the driver) lives in
:mod:`repro.lint.framework`; the rule pack in :mod:`repro.lint.rules`.
"""

from typing import Any

from .._lazy import bind_all

__all__ = [
    "ALL_RULES",
    "Finding",
    "LintReport",
    "ModuleInfo",
    "PARSE_RULE_ID",
    "Project",
    "Rule",
    "collect_files",
    "run_lint",
    "rules_by_id",
]


def __getattr__(name: str) -> Any:
    """Load the submodules and bind ``__all__`` on first use (PEP 562)."""
    return bind_all(globals(), ("framework", "rules"), name)
