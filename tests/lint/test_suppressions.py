"""Suppression-comment parsing: grammar, required justifications, and
how far an `allow` reaches (trailing vs standalone, compound blocks)."""

import ast
import textwrap

from repro.lint import LINT_RULES, run_lint
from repro.lint.pragmas import parse_pragmas

KNOWN = tuple(LINT_RULES.names())


def _parse(source):
    source = textwrap.dedent(source)
    return parse_pragmas(source, ast.parse(source), KNOWN)


class TestGrammar:
    def test_justified_allow_parses(self):
        allows, _, errors = _parse(
            "x = 1  # repro: allow(determinism): fixture reason\n"
        )
        assert errors == []
        assert len(allows) == 1
        assert allows[0].rule == "determinism"
        assert allows[0].justification == "fixture reason"

    def test_bare_allow_is_rejected(self):
        allows, _, errors = _parse("x = 1  # repro: allow(determinism)\n")
        assert allows == []
        assert len(errors) == 1
        assert "requires a justification" in errors[0].message

    def test_allow_with_empty_justification_is_rejected(self):
        allows, _, errors = _parse("x = 1  # repro: allow(determinism):   \n")
        assert allows == []
        assert "requires a justification" in errors[0].message

    def test_unknown_rule_is_rejected(self):
        allows, _, errors = _parse("x = 1  # repro: allow(bogus): because\n")
        assert allows == []
        assert "unknown rule 'bogus'" in errors[0].message

    def test_unknown_verb_is_rejected(self):
        _, _, errors = _parse("x = 1  # repro: warm\n")
        assert "unrecognized pragma" in errors[0].message

    def test_pragma_inside_string_is_ignored(self):
        allows, hot, errors = _parse('x = "# repro: frobnicate"\n')
        assert (allows, hot, errors) == ([], [], [])


class TestCoverage:
    def test_trailing_comment_covers_one_statement(self):
        allows, _, _ = _parse(
            """\
            a = 1  # repro: allow(determinism): here only
            b = 2
            """
        )
        (allow,) = allows
        assert allow.covers(1)
        assert not allow.covers(2)

    def test_trailing_comment_on_compound_covers_the_block(self):
        allows, _, _ = _parse(
            """\
            if flag:  # repro: allow(determinism): whole escape hatch
                a = 1
                b = 2
            c = 3
            """
        )
        (allow,) = allows
        assert allow.covers(1) and allow.covers(2) and allow.covers(3)
        assert not allow.covers(4)

    def test_standalone_comment_attaches_to_next_statement(self):
        allows, _, _ = _parse(
            """\
            a = 1
            # repro: allow(determinism): next statement only
            b = 2
            c = 3
            """
        )
        (allow,) = allows
        assert not allow.covers(1)
        assert allow.covers(3)
        assert not allow.covers(4)


class TestHotPragma:
    def test_hot_on_def_line_marks_the_function(self):
        _, hot, _ = _parse(
            """\
            def f():  # repro: hot
                return 1


            def g():
                return 2
            """
        )
        (region,) = hot
        assert region.covers(1) and region.covers(2)
        assert not region.covers(5)

    def test_standalone_hot_before_def_marks_the_function(self):
        _, hot, _ = _parse(
            """\
            # repro: hot
            def f():
                return 1


            x = 2
            """
        )
        (region,) = hot
        assert region.covers(2) and region.covers(3)
        assert not region.covers(6)

    def test_standalone_hot_elsewhere_marks_the_module(self):
        _, hot, _ = _parse(
            """\
            # repro: hot

            import numpy as np


            def f():
                return np.zeros(3)
            """
        )
        (region,) = hot
        assert region.covers(1) and region.covers(7)


class TestEndToEnd:
    def test_suppressed_finding_is_not_active(self, tmp_path):
        target = tmp_path / "netsim"
        target.mkdir()
        (target / "mod.py").write_text(
            "import time\n"
            "\n"
            "def stamp():\n"
            "    return time.time()  # repro: allow(determinism): fixture\n",
            encoding="utf-8",
        )
        report = run_lint([tmp_path])
        assert report.findings == []
        assert len(report.suppressed) == 1
        assert report.exit_code == 0

    def test_suppression_for_other_rule_does_not_apply(self, tmp_path):
        target = tmp_path / "netsim"
        target.mkdir()
        (target / "mod.py").write_text(
            "import time\n"
            "\n"
            "def stamp():\n"
            "    return time.time()  # repro: allow(pragma): wrong rule\n",
            encoding="utf-8",
        )
        report = run_lint([tmp_path])
        assert [f.rule for f in report.findings] == ["determinism"]
        assert report.exit_code == 1
