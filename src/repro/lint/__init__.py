"""repro.lint — static enforcement of the repo's runtime invariants.

The correctness story of this codebase rests on conventions that tests
can only probe dynamically: SeedSequence-only randomness, cache-key
purity of registered stages, allocation-free fused kernels, non-blocking
serving coroutines, lock-guarded cross-thread state, and stage code
that never changes behind its cache keys.  This package encodes them
as AST rules over the source tree, with a pluggable rule registry
(mirroring the scenario/stage registries) and justified inline
suppressions — ``# repro: allow(<rule>): <why>`` is the one way to
excuse a finding.  Interprocedural key purity is left to the dynamic
guard (``tests/runtime/test_stages.py::TestKeyDerivation``), which plans
every stage in two differently-configured processes and diffs the keys.

Entry points::

    repro lint                      # CLI: exit 0 clean / 1 findings / 2 usage
    from repro.lint import run_lint # library: LintReport

Importing this package registers the built-in rules.
"""

from .callgraph import ProgramIndex, program_index_for_root
from .context import SourceModule, load_module
from .engine import (
    REPORT_VERSION,
    LintReport,
    collect_files,
    default_root,
    run_lint,
)
from .fingerprint import (
    FINGERPRINT_FILENAME,
    check_fingerprints,
    compute_fingerprints,
    discover_fingerprints,
    load_fingerprints,
    save_fingerprints,
)
from .findings import SEVERITIES, Finding
from .rules import LINT_RULES, LintRule, LintRuleRegistry, register_rule

from . import checks  # noqa: F401  (registers the built-in rules)

__all__ = [
    "FINGERPRINT_FILENAME",
    "Finding",
    "LINT_RULES",
    "LintReport",
    "LintRule",
    "LintRuleRegistry",
    "ProgramIndex",
    "REPORT_VERSION",
    "SEVERITIES",
    "SourceModule",
    "check_fingerprints",
    "collect_files",
    "compute_fingerprints",
    "default_root",
    "discover_fingerprints",
    "load_fingerprints",
    "load_module",
    "program_index_for_root",
    "register_rule",
    "run_lint",
    "save_fingerprints",
]
