"""The `repro lint` CLI contract: exit codes, JSON schema, flags."""

import json
from pathlib import Path

import pytest

from repro.cli import main

FIXTURES = Path(__file__).parent / "fixtures"

FINDING_KEYS = {
    "rule", "severity", "path", "line", "col", "message", "snippet",
}


class TestExitCodes:
    def test_clean_tree_exits_zero(self, capsys):
        assert main(["lint", str(FIXTURES / "clean")]) == 0
        assert "0 findings" in capsys.readouterr().out

    def test_findings_exit_one(self, capsys):
        assert main(["lint", str(FIXTURES / "bad")]) == 1
        out = capsys.readouterr().out
        assert "determinism" in out
        assert "findings" in out

    def test_usage_error_exits_two(self, capsys):
        assert main(["lint", "--rule", "nope"]) == 2
        assert "unknown lint rule" in capsys.readouterr().err

    def test_missing_path_exits_two(self, capsys):
        assert main(["lint", "/nonexistent/path"]) == 2
        assert "no such file or directory" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag", ["--baseline=x.json", "--no-baseline", "--baseline-update", "--changed"]
    )
    def test_removed_options_are_usage_errors(self, flag, capsys):
        # Inline allow pragmas are the one suppression path; no option
        # may quietly narrow or excuse what a run reports.
        with pytest.raises(SystemExit) as exit_info:
            main(["lint", str(FIXTURES / "bad"), flag])
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestJsonFormat:
    def test_schema(self, capsys):
        code = main([
            "lint", str(FIXTURES / "bad"), "--format", "json",
        ])
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["version"] == 3
        assert set(payload) == {"version", "roots", "rules", "findings", "counts"}
        assert set(payload["counts"]) == {"active", "suppressed"}
        assert payload["counts"]["active"] == len(payload["findings"])
        for finding in payload["findings"]:
            assert set(finding) == FINDING_KEYS
            assert finding["severity"] in ("error", "warning")
            assert finding["line"] >= 1
        rule_names = {rule["name"] for rule in payload["rules"]}
        assert {
            "determinism", "stage-purity", "hot-loop-alloc",
            "async-blocking", "lock-discipline", "pragma",
            "stage-fingerprint",
        } <= rule_names

    def test_clean_json_has_empty_findings(self, capsys):
        code = main([
            "lint", str(FIXTURES / "clean"), "--format", "json",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["findings"] == []
        assert payload["counts"]["suppressed"] == 1  # the justified pool miss


class TestFlags:
    def test_rule_filter_comma_and_repeat(self, capsys):
        code = main([
            "lint", str(FIXTURES / "bad"), "--format", "json",
            "--rule", "async-blocking,lock-discipline", "--rule", "pragma",
        ])
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert {f["rule"] for f in payload["findings"]} == {
            "async-blocking", "lock-discipline", "pragma",
        }

    def test_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        assert "determinism" in out
        assert "serve/" in out
