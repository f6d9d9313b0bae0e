"""The repo itself must lint clean — this is the acceptance gate.

`repro lint` at HEAD exits 0: every finding in the tree is either
fixed or carries a justified inline suppression.  Running it inside
tier-1 makes the linter a test any PR must keep green, exactly like the
golden bit-identity gates.
"""

import pytest

from repro.lint import (
    LINT_RULES,
    check_fingerprints,
    default_root,
    discover_fingerprints,
    run_lint,
)
from repro.lint.callgraph import program_index_for_root


@pytest.fixture(scope="module")
def report():
    """One whole-package lint run, shared by the assertions below."""
    return run_lint()


def test_repo_lints_clean_at_head(report):
    details = "\n".join(f.format() for f in report.findings)
    assert report.exit_code == 0, f"lint findings:\n{details}"


def test_every_suppression_in_tree_is_justified(report):
    # Structural guarantee (a bare allow is a pragma finding), restated
    # here as a direct assertion over every suppression in the package.
    for finding, excuse in report.suppressed:
        assert excuse.justification.strip(), finding.format()


def test_the_required_rules_are_registered():
    names = set(LINT_RULES.names())
    assert {
        "determinism", "stage-purity", "hot-loop-alloc",
        "async-blocking", "lock-discipline",
        "stage-fingerprint",
    } <= names


@pytest.mark.parametrize(
    "stage, callee",
    [
        ("_stage_pretrain", "repro.core.pretrain:pretrain"),
        ("_stage_bundle", "repro.datasets.windows:windows_from_trace"),
    ],
)
def test_stage_closures_follow_instance_calls(stage, callee):
    # Bundles are re-windowed on every read and the training stages
    # reach their trainers through ``experiment.*`` calls, so these pins
    # must cover that code for a behaviour edit there to drift them.
    index = program_index_for_root(default_root().parent)  # scopes as repro/...
    assert callee in index.transitive_callees(f"repro.runtime.stages:{stage}")


def test_committed_fingerprints_match_head():
    # The pin file is part of the tree's identity: any stage-body or
    # callee-closure edit must land together with a re-pin (and a
    # Stage.version bump when behaviour changed), never on its own.
    findings, pin_path, current = check_fingerprints([default_root()])
    details = "\n".join(f.format() for f in findings)
    assert findings == [], f"stage fingerprint drift:\n{details}"
    assert pin_path is not None
    assert pin_path.name == "stage-fingerprints.json"
    assert len(current) >= 10  # every registered stage is pinned


def test_fingerprint_discovery_finds_the_committed_file():
    pins = discover_fingerprints([default_root()])
    assert pins is not None
    assert pins.name == "stage-fingerprints.json"

