"""Tests for COQL minimization and the command-line interface."""

import json

import pytest

from repro.cli import main, _parse_schema
from repro.errors import ReproError
from repro.coql import minimize_coql, weakly_equivalent, parse_coql
from repro.coql.ast import Select

SCHEMA = {"r": ("a", "b"), "s": ("k", "b")}
NESTED_QUERY = (
    "select [a: x.a, kids: select [b: y.b] from y in s where y.k = x.a]"
    " from x in r"
)


class TestMinimize:
    def test_drops_redundant_generator(self):
        query = "select [v: x.a] from x in r, y in r"
        minimized = minimize_coql(query, SCHEMA)
        assert isinstance(minimized, Select)
        assert len(minimized.generators) == 1
        assert weakly_equivalent(minimized, parse_coql(query), SCHEMA)

    def test_keeps_necessary_generator(self):
        query = "select [v: x.a] from x in r, y in s where x.a = y.k"
        minimized = minimize_coql(query, SCHEMA)
        assert len(minimized.generators) == 2

    def test_drops_redundant_condition(self):
        query = "select [v: x.a] from x in r, y in r where y.a = y.a"
        minimized = minimize_coql(query, SCHEMA)
        assert len(minimized.conditions) == 0
        assert len(minimized.generators) == 1

    def test_minimizes_nested_subquery(self):
        query = (
            "select [a: x.a, kids: select [b: y.b] from y in s, z in s"
            " where y.k = x.a] from x in r"
        )
        minimized = minimize_coql(query, SCHEMA)
        inner = minimized.head["kids"]
        assert len(inner.generators) == 1

    def test_already_minimal_unchanged(self):
        query = "select [v: x.a] from x in r"
        minimized = minimize_coql(query, SCHEMA)
        assert minimized == parse_coql(query)

    def test_result_is_weakly_equivalent(self):
        query = (
            "select [a: x.a, kids: select [b: y.b] from y in s where y.k = x.a]"
            " from x in r, w in r"
        )
        minimized = minimize_coql(query, SCHEMA)
        assert weakly_equivalent(minimized, parse_coql(query), SCHEMA)


class TestCli:
    def test_parse_schema(self):
        assert _parse_schema("r:a,b;s:k") == {"r": ("a", "b"), "s": ("k",)}
        with pytest.raises(ReproError):
            _parse_schema("  ")

    def test_contain_positive(self, capsys):
        code = main(
            [
                "contain",
                "--schema",
                "r:a,b",
                "select [v: x.a] from x in r",
                "select [v: x.a] from x in r, y in r where y.a = x.a",
            ]
        )
        assert code == 0
        assert "contained" in capsys.readouterr().out

    def test_contain_negative(self, capsys):
        code = main(
            [
                "contain",
                "--schema",
                "r:a,b;s:k,b",
                "select [v: x.a] from x in r, y in s where x.a = y.k",
                "select [v: x.a] from x in r",
            ]
        )
        assert code == 1
        assert "NOT contained" in capsys.readouterr().out

    def test_equiv_weak(self, capsys):
        code = main(
            [
                "equiv",
                "--weak",
                "--schema",
                "r:a,b",
                "select [v: x.a] from x in r",
                "select [v: z.a] from z in r",
            ]
        )
        assert code == 0

    def test_equiv_strict_decides_unions(self, capsys):
        code = main(
            [
                "equiv",
                "--schema",
                "r:a,b;s:k,b",
                "select [v: x.a] from x in r union select [v: y.k] from y in s",
                "select [v: y.k] from y in s union select [v: x.a] from x in r",
            ]
        )
        assert code == 0
        assert capsys.readouterr().out.strip() == "equivalent"

    def test_equiv_strict_refuses_union_with_nested_branches(self, capsys):
        wide = (
            "select [a: x.a, k: select [b: y.b] from y in r"
            " where y.a = x.a] from x in r"
        )
        narrow = (
            "select [a: x.a, k: select [b: y.b] from y in r"
            " where y.a = x.a and y.b = x.b] from x in r"
        )
        both = "(%s) union (%s)" % (narrow, wide)
        assert main(["equiv", "--schema", "r:a,b", both, wide]) == 2
        assert "flat branches" in capsys.readouterr().err
        assert main(["equiv", "--weak", "--schema", "r:a,b", both, wide]) == 0

    def test_equiv_strict_raises_on_open_case(self, capsys):
        code = main(
            [
                "equiv",
                "--schema",
                "r:a,b;s:k,b",
                "select [a: x.a, kids: select [b: y.b] from y in s where y.k = x.a] from x in r",
                "select [a: x.a, kids: select [b: y.b] from y in s where y.k = x.a] from x in r",
            ]
        )
        assert code == 2  # UnsupportedQueryError -> error exit

    def test_eval(self, tmp_path, capsys):
        data = tmp_path / "db.json"
        data.write_text(json.dumps({"r": [{"a": 1, "b": 2}]}))
        code = main(
            ["eval", "--data", str(data), "select [v: x.a] from x in r"]
        )
        assert code == 0
        assert "[v: 1]" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "tables",
        [{"r": [{"a": 1, "b": 2}], "s": []}, {"r": [{"a": 1, "b": 2}]}],
        ids=["empty-relation", "missing-relation"],
    )
    def test_eval_types_the_database_by_schema(self, tmp_path, capsys,
                                                tables):
        data = tmp_path / "db.json"
        data.write_text(json.dumps(tables))
        code = main(["eval", "--schema", "r:a,b;s:k,b", "--data", str(data),
                     NESTED_QUERY])
        assert code == 0
        assert capsys.readouterr().out == "[a: 1, kids: {}]\n"

    def test_analyze_data_types_empty_relations_by_schema(self, tmp_path,
                                                          capsys):
        data = tmp_path / "db.json"
        data.write_text(json.dumps({"r": [{"a": 1, "b": 2}], "s": []}))
        code = main(["analyze", "--schema", "r:a,b;s:k,b", "--data",
                     str(data), "--format", "json", NESTED_QUERY])
        assert code == 0
        (entry,) = json.loads(capsys.readouterr().out)["targets"]
        assert entry["certificate"]["fanout"] == {"$.head.kids": 0}
        assert entry["certificate"]["output_cardinality"] == {"lo": 1,
                                                              "hi": 1}

    def test_minimize(self, capsys):
        code = main(
            [
                "minimize",
                "--schema",
                "r:a,b",
                "select [v: x.a] from x in r, y in r",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "y in r" not in out

    def test_cq_contain(self, capsys):
        code = main(
            ["cq-contain", "q(X) :- r(X, Y)", "q(X) :- r(X, Y), s(Y)"]
        )
        assert code == 0

    def test_bad_schema_reports_error(self, capsys):
        code = main(
            ["contain", "--schema", "", "select [v: x.a] from x in r",
             "select [v: x.a] from x in r"]
        )
        assert code == 2
        assert "error" in capsys.readouterr().err


class TestCliExitCodes:
    """The documented convention: 0 positive verdict, 1 negative verdict
    or error-severity findings, 2 usage/parse error (3: UNDECIDED)."""

    CONTAINED = [
        "contain", "--schema", "r:a,b",
        "select [v: x.a] from x in r",
        "select [v: x.a] from x in r where x.b = 1",
    ]

    def test_contain_parse_error_is_usage_error(self, capsys):
        code = main(
            ["contain", "--schema", "r:a,b", "select from x in",
             "select [v: x.a] from x in r"]
        )
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_equiv_negative_is_one(self, capsys):
        code = main(
            ["equiv", "--weak", "--schema", "r:a,b",
             "select [v: x.a] from x in r",
             "select [v: x.a] from x in r where x.b = 1"]
        )
        assert code == 1

    def test_matrix_fully_decided_is_zero(self, capsys):
        code = main(
            ["matrix", "--schema", "r:a,b", "--jobs", "1",
             "select [v: x.a] from x in r",
             "select [v: x.a] from x in r where x.b = 1"]
        )
        assert code == 0

    def test_matrix_incomparable_cell_is_one(self, capsys):
        code = main(
            ["matrix", "--schema", "r:a,b", "--jobs", "1",
             "select [v: x.a] from x in r",
             "select [w: x.a] from x in r"]
        )
        assert code == 1
        assert "!" in capsys.readouterr().out

    def test_lint_clean_is_zero(self, capsys):
        code = main(
            ["lint", "--schema", "r:a,b", "select [v: x.a] from x in r"]
        )
        assert code == 0
        assert "ok" in capsys.readouterr().out

    def test_lint_warnings_only_is_zero(self, capsys):
        code = main(
            ["lint", "--schema", "r:a,b", "--no-minimize",
             "select [v: x.a] from x in r, y in r"]
        )
        assert code == 0
        assert "COQL003" in capsys.readouterr().out

    def test_lint_error_findings_are_one(self, capsys):
        code = main(
            ["lint", "--schema", "r:a,b",
             "select [v: x.a] from x in r where x.a = 1 and x.a = 2"]
        )
        assert code == 1
        assert "COQL002" in capsys.readouterr().out

    def test_lint_parse_error_is_a_finding_not_usage_error(self, capsys):
        code = main(["lint", "--schema", "r:a,b", "select from x in"])
        assert code == 1
        assert "COQL000" in capsys.readouterr().out

    def test_lint_unknown_rule_code_is_usage_error(self, capsys):
        code = main(
            ["lint", "--schema", "r:a,b", "--select", "COQL999",
             "select [v: x.a] from x in r"]
        )
        assert code == 2

    def test_lint_missing_schema_is_usage_error(self, capsys):
        code = main(["lint", "select [v: x.a] from x in r"])
        assert code == 2
        assert "no schema" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["contain", "--method", "canonical"],
        ["matrix", "--method", "canonical", "--jobs", "1"],
        ["equiv", "--method", "canonical"],
        ["analyze", "--witnesses", "2"],
    ], ids=["contain", "matrix", "equiv", "analyze"])
    def test_removed_decision_flags_are_usage_errors(self, argv, capsys):
        query = "select [v: x.a] from x in r"
        with pytest.raises(SystemExit) as info:
            main(argv + ["--schema", "r:a,b", query, query])
        assert info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestCliLint:
    def test_json_format_is_schema_stable(self, capsys):
        code = main(
            ["lint", "--schema", "r:a,b", "--format", "json",
             "--no-minimize", "select [v: x.a] from x in r, y in r"]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["version"] == 1
        assert set(report["summary"]) == {
            "targets", "errors", "warnings", "infos"}
        assert report["summary"]["targets"] == 1
        assert report["summary"]["warnings"] >= 1
        (entry,) = report["targets"]
        for diagnostic in entry["diagnostics"]:
            assert set(diagnostic) == {
                "code", "severity", "message", "rule", "path", "line",
                "col", "paper",
            }

    def test_coql_file_with_schema_directive(self, tmp_path, capsys):
        target = tmp_path / "query.coql"
        target.write_text(
            "# a comment\n"
            "# schema: person:name,dept\n"
            "select [who: p.name]\n"
            "from p in person, q in person\n"
        )
        code = main(["lint", "--no-minimize", str(target)])
        assert code == 0
        out = capsys.readouterr().out
        assert "COQL003" in out
        # Line numbers refer to the file (comments are blanked, not
        # removed): the select starts on line 3.
        assert "3:1" in out

    def test_select_filter(self, capsys):
        code = main(
            ["lint", "--schema", "r:a,b", "--select", "COQL002",
             "select [v: x.a] from x in r, y in r"]
        )
        assert code == 0
        assert "ok" in capsys.readouterr().out

    def test_repo_examples_lint_clean_of_errors(self, capsys):
        import glob
        import os

        here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        targets = sorted(glob.glob(os.path.join(here, "examples", "*.coql")))
        assert targets, "examples/*.coql missing"
        code = main(["lint", "--format", "json"] + targets)
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["summary"]["errors"] == 0
        assert report["summary"]["warnings"] >= 1


class TestCliTraceExport:
    POSITIVE = [
        "contain", "--schema", "r:a,b",
        "select [v: x.a] from x in r",
        "select [v: x.a] from x in r, y in r where y.a = x.a",
    ]

    def test_trace_out_writes_chrome_trace(self, tmp_path, capsys):
        path = tmp_path / "trace.json"
        code = main(self.POSITIVE + ["--trace-out", str(path)])
        assert code == 0
        assert "trace written" in capsys.readouterr().err
        payload = json.loads(path.read_text())
        events = payload["traceEvents"]
        assert events
        names = {event["name"] for event in events}
        assert "check" in names and "prepare" in names
        for event in events:
            assert event["ph"] == "X"
            assert event["dur"] >= 0.0

    def test_stats_prints_per_stage_breakdown(self, capsys):
        code = main(self.POSITIVE + ["--stats"])
        assert code == 0
        err = capsys.readouterr().err
        assert "per-stage breakdown" in err
        assert "prepare" in err and "miss" in err

    def test_equiv_trace_out(self, tmp_path, capsys):
        path = tmp_path / "equiv-trace.json"
        code = main([
            "equiv", "--weak", "--schema", "r:a,b",
            "--trace-out", str(path),
            "select [v: x.a] from x in r",
            "select [v: x.a] from x in r",
        ])
        assert code == 0
        assert json.loads(path.read_text())["traceEvents"]


class TestCliExitCodeRegression:
    """The exit-code contract of the decision subcommands is stable:
    0 positive, 1 negative, 2 usage error, 3 UNDECIDED timeout."""

    def test_zero_on_positive_verdict(self, capsys):
        code = main([
            "contain", "--schema", "r:a,b",
            "select [v: x.a] from x in r",
            "select [v: x.a] from x in r, y in r where y.a = x.a",
        ])
        assert code == 0

    def test_one_on_negative_verdict(self, capsys):
        code = main([
            "contain", "--schema", "r:a,b;s:k,b",
            "select [v: x.a] from x in r, y in s where x.a = y.k",
            "select [v: x.a] from x in r",
        ])
        assert code == 1

    def test_two_on_usage_error(self, capsys):
        code = main([
            "contain", "--schema", "r:a,b",
            "select [v: x.a] from x in r",
            "this does not parse",
        ])
        assert code == 2

    def test_three_on_undecided_timeout(self, monkeypatch, capsys):
        from repro.errors import ContainmentTimeout
        import repro.engine.parallel as parallel

        def _always_times_out(engine, kind, pair, schema, constraints,
                              timeout_s):
            return ("timeout", ContainmentTimeout("simulated timeout"))

        monkeypatch.setattr(parallel, "_decide_one", _always_times_out)
        code = main([
            "contain", "--schema", "r:a,b", "--timeout-s", "0.5",
            "select [v: x.a] from x in r",
            "select [v: x.a] from x in r",
        ])
        assert code == 3
        assert "UNDECIDED" in capsys.readouterr().out
