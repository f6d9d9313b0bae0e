"""Each rule catches exactly its known-bad fixture and stays silent on
the clean mirror — rule regressions surface without depending on repo
code staying buggy."""

from pathlib import Path

import pytest

from repro.lint import run_lint

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture(scope="module")
def bad_report():
    return run_lint([FIXTURES / "bad"])


@pytest.fixture(scope="module")
def clean_report():
    return run_lint([FIXTURES / "clean"])


def _locations(report, path):
    return [
        (f.rule, f.line) for f in report.findings if f.path == path
    ]


class TestBadFixtures:
    def test_determinism_findings(self, bad_report):
        assert _locations(bad_report, "netsim/bad_determinism.py") == [
            ("determinism", 3),   # import random
            ("determinism", 11),  # np.random.seed
            ("determinism", 12),  # np.random.random
            ("determinism", 13),  # random.gauss
            ("determinism", 18),  # time.time
            ("determinism", 19),  # datetime.now
            ("determinism", 24),  # set(...) feeding stable_hash
        ]

    def test_stage_purity_findings(self, bad_report):
        assert _locations(bad_report, "runtime/bad_stage_purity.py") == [
            ("stage-purity", 18),  # os.environ
            ("stage-purity", 19),  # module-global mutation
            ("stage-purity", 20),  # open()
            ("stage-purity", 22),  # shutil.rmtree
            ("stage-purity", 28),  # global statement
        ]

    def test_hot_loop_alloc_findings(self, bad_report):
        assert _locations(bad_report, "nn/bad_hot_loop.py") == [
            ("hot-loop-alloc", 9),   # np.zeros
            ("hot-loop-alloc", 10),  # np.sqrt without out=
            ("hot-loop-alloc", 11),  # operator-form temporary
        ]

    def test_async_blocking_findings(self, bad_report):
        assert _locations(bad_report, "serve/bad_async.py") == [
            ("async-blocking", 9),   # time.sleep
            ("async-blocking", 10),  # open()
            ("async-blocking", 12),  # socket.create_connection
            ("async-blocking", 13),  # path.read_text
        ]

    def test_lock_discipline_findings(self, bad_report):
        assert _locations(bad_report, "serve/bad_locks.py") == [
            ("lock-discipline", 14),  # unguarded write in start()
            ("lock-discipline", 18),  # unguarded write in _run()
        ]

    def test_lock_discipline_reaches_helper_methods(self, bad_report):
        # The write in _step is only reachable through _run (the thread
        # entry); the call-graph closure must still attribute it to the
        # spawned thread and flag both racing writes.
        locations = _locations(bad_report, "serve/bad_lock_helper.py")
        assert locations == [
            ("lock-discipline", 15),  # unguarded write in start()
            ("lock-discipline", 22),  # unguarded write in helper _step()
        ]
        helper = [
            f for f in bad_report.findings
            if f.path == "serve/bad_lock_helper.py" and f.line == 22
        ][0]
        assert "reached from the entry point" in helper.message

    def test_pragma_findings(self, bad_report):
        assert _locations(bad_report, "obs/bad_pragma.py") == [
            ("pragma", 3),  # bare allow, no justification
            ("pragma", 4),  # unknown rule name
            ("pragma", 5),  # unknown verb
        ]

    def test_no_unexpected_findings(self, bad_report):
        expected_paths = {
            "netsim/bad_determinism.py",
            "runtime/bad_stage_purity.py",
            "nn/bad_hot_loop.py",
            "serve/bad_async.py",
            "serve/bad_locks.py",
            "serve/bad_lock_helper.py",
            "obs/bad_pragma.py",
        }
        assert {f.path for f in bad_report.findings} == expected_paths
        assert bad_report.exit_code == 1

    def test_severities(self, bad_report):
        by_rule = {f.rule: f.severity for f in bad_report.findings}
        assert by_rule["hot-loop-alloc"] == "warning"
        for rule in (
            "determinism", "stage-purity", "async-blocking",
            "lock-discipline", "pragma",
        ):
            assert by_rule[rule] == "error"


class TestCleanFixtures:
    def test_zero_false_positives(self, clean_report):
        assert clean_report.findings == []
        assert clean_report.exit_code == 0

    def test_justified_suppression_is_counted_not_reported(self, clean_report):
        # clean/nn/clean_hot_loop.py carries one justified pool-miss allow.
        assert len(clean_report.suppressed) == 1
        finding, excuse = clean_report.suppressed[0]
        assert finding.rule == "hot-loop-alloc"
        assert "pool miss" in excuse.justification


def test_rule_subset_restricts_findings():
    report = run_lint(
        [FIXTURES / "bad"], rule_names=["determinism"]
    )
    assert report.findings
    assert {f.rule for f in report.findings} == {"determinism"}


def test_unknown_rule_name_raises():
    with pytest.raises(ValueError, match="unknown lint rule"):
        run_lint([FIXTURES / "bad"], rule_names=["nope"])


def test_syntax_error_becomes_parse_finding(tmp_path):
    broken = tmp_path / "broken.py"
    broken.write_text("def f(:\n", encoding="utf-8")
    report = run_lint([tmp_path])
    assert [f.rule for f in report.findings] == ["parse"]
    assert report.exit_code == 1
