"""Static analysis for the package's own contracts (``repro lint``).

The framework (rules, the driver) lives in
:mod:`repro.lint.framework`; the rule pack in :mod:`repro.lint.rules`.
"""

from .framework import (
    Finding,
    LintReport,
    ModuleInfo,
    PARSE_RULE_ID,
    Project,
    Rule,
    collect_files,
    run_lint,
)
from .rules import ALL_RULES, rules_by_id

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
