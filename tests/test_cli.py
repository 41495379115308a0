import json
import os
import pathlib
import re
import subprocess
import sys

import pytest

import fnclass
from fnclass.cli import main


# where earlier versions cached the P_2^2 imp report
OLD_REPORT_NAME = "classify_imp_k2n2_v1.json"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAnalyze:
    def test_expression_report(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "--expr", "x1*x2 + x1^0*x3")
        assert code == 0
        assert "imp                 28" in out
        assert "sub                 11" in out
        assert "sep                 6" in out

    def test_table_route_matches_expression_route(self, capsys):
        code, out1, _ = run_cli(capsys, "analyze", "--expr", "x1*x2 + x1^0*x3",
                                "--format", "json")
        code2, out2, _ = run_cli(capsys, "analyze", "--table", "d8", "--k", "2",
                                 "--n", "3", "--format", "json")
        assert code == code2 == 0
        assert json.loads(out1) == json.loads(out2)

    def test_constant(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "--expr", "0", "--format", "json")
        payload = json.loads(out)
        assert code == 0
        assert payload["essential"] == []
        assert payload["imp"] == 1

    def test_set_query(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "--expr", "x1*x2 + x1^0*x3",
                               "--set", "2,3", "--format", "json")
        payload = json.loads(out)
        assert payload["separable"] is False
        assert payload["distributive_sets"] == [[1]]
        assert payload["s_systems"] == [[1]]

    def test_parse_error_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "analyze", "--expr", "x1 + + x2")
        assert code == 2
        assert "error" in err

    def test_lattice_budget_exit_code(self, capsys):
        # 9 ternary essential variables: a 4^9 x 3^9 lattice, refused unbuilt
        import tracemalloc
        expr = " + ".join(f"x{i}" for i in range(1, 10))
        tracemalloc.start()
        try:
            code, _, err = run_cli(capsys, "analyze", "--k", "3", "--n", "9",
                                   "--expr", expr)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 3
        assert "budget" in err.lower()
        assert peak < 64 << 20

    def test_requires_exactly_one_source(self, capsys):
        code, _, err = run_cli(capsys, "analyze")
        assert code == 2

    def test_hex_prefix_is_usage_error(self, capsys):
        # four characters would otherwise read as the 4-variable table 00d8
        code, out, err = run_cli(capsys, "analyze", "--table", "0xd8")
        assert code == 2 and not out
        assert "0xd8" in err


class TestDiagram:
    def test_dot_output_and_stats(self, capsys, tmp_path):
        out_file = tmp_path / "g.dot"
        code, _, err = run_cli(capsys, "diagram", "--table", "d8",
                               "--ordering", "1,2,3", "--out", str(out_file))
        assert code == 0
        assert "depth 3" in err and "paths 4" in err
        assert "digraph" in out_file.read_text()

    def test_f_stats(self, capsys):
        code, out, err = run_cli(capsys, "diagram", "--table", "28",
                                 "--ordering", "1,2,3")
        assert code == 0
        assert "depth 4" in err and "paths 5" in err

    def test_bad_ordering(self, capsys):
        code, _, err = run_cli(capsys, "diagram", "--table", "d8",
                               "--ordering", "1,1,3")
        assert code == 2


class TestClassify:
    def test_sep_csv(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "classify", "--k", "2", "--n", "3",
                                 "--relation", "sep",
                                 "--cache-dir", str(tmp_path))
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("class,")
        assert len(lines) == 6  # header + five classes
        assert "5 classes over 256 functions" in err

    def test_resume_uses_cache(self, capsys, tmp_path):
        args = ("classify", "--k", "2", "--n", "2", "--relation", "imp",
                "--cache-dir", str(tmp_path), "--resume")
        code1, out1, _ = run_cli(capsys, *args)
        code2, out2, _ = run_cli(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_cache_flags_write_nothing(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("FNCLASS_CACHE", str(tmp_path))
        args = ("classify", "--k", "2", "--n", "2", "--relation", "imp",
                "--format", "json")
        code1, fresh, _ = run_cli(capsys, *args)
        code2, out, _ = run_cli(capsys, *args, "--resume", "--jobs", "2",
                                "--cache-dir", str(tmp_path))
        assert code1 == code2 == 0
        assert out == fresh
        assert list(tmp_path.iterdir()) == []

    def test_resume_recomputes_damaged_cache(self, capsys, tmp_path):
        args = ("classify", "--k", "2", "--n", "2", "--relation", "imp",
                "--format", "json")
        code1, fresh, _ = run_cli(capsys, *args)
        path = tmp_path / OLD_REPORT_NAME
        path.write_text(fresh[:len(fresh) // 2])  # a torn write
        code2, out, _ = run_cli(capsys, *args, "--cache-dir", str(tmp_path),
                                "--resume")
        assert code1 == code2 == 0
        assert out == fresh
        assert path.read_text() == fresh[:len(fresh) // 2]

    @pytest.mark.parametrize("cached", [
        {},
        {"relation": "imp", "k": 2, "n": 2, "total": 16,  # a record lacks key
         "classes": [{"index": 1, "size": 16, "representative": "0"}]},
        ("imp", 2, 1),  # another space's report
        ("sub", 2, 2),  # another relation's report
    ], ids=["empty", "record-without-key", "other-space", "other-relation"])
    def test_resume_recomputes_undecodable_or_foreign_cache(
            self, capsys, tmp_path, cached):
        # a report that earlier versions would have served is not read
        from fnclass.classify import classify_space
        args = ("classify", "--k", "2", "--n", "2", "--relation", "imp",
                "--format", "json")
        code1, fresh, _ = run_cli(capsys, *args)
        if isinstance(cached, tuple):
            cached = classify_space(*cached[1:], cached[0]).to_json_dict()
        path = tmp_path / OLD_REPORT_NAME
        path.write_text(json.dumps(cached))
        code2, out, _ = run_cli(capsys, *args, "--cache-dir", str(tmp_path),
                                "--resume")
        assert code1 == code2 == 0
        assert out == fresh
        assert path.read_text() == json.dumps(cached)

    def test_json_is_the_dumps_text(self, capsys, tmp_path):
        # the report is streamed with json.dump, not built as one string;
        # stdout and --out both get json.dumps' text and one newline
        from fnclass.classify import classify_space
        args = ("classify", "--k", "2", "--n", "2", "--group", "g",
                "--format", "json")
        text = json.dumps(classify_space(2, 2, "g").to_json_dict(),
                          indent=1, sort_keys=True) + "\n"
        assert run_cli(capsys, *args) == (0, text, "6 classes over 16 "
                                          "functions\n")
        path = tmp_path / "report.json"
        assert run_cli(capsys, *args, "--out", str(path))[:2] == (0, "")
        assert path.read_text() == text

    def test_group_relation(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "classify", "--k", "2", "--n", "2",
                                 "--relation", "ge",
                                 "--cache-dir", str(tmp_path))
        assert code == 0
        assert "4 classes" in err

    def test_budget_exit_code(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "classify", "--k", "2", "--n", "4",
                               "--relation", "sep", "--budget", "100",
                               "--cache-dir", str(tmp_path))
        assert code == 3
        assert "budget" in err.lower()

    def test_join_budget_exit_code(self, capsys, monkeypatch):
        import fnclass.scan5 as scan5

        def no_join(n):
            raise AssertionError("the join ran over budget")
        monkeypatch.setattr(scan5, "_sep_join", no_join)
        code, out, err = run_cli(capsys, "classify", "--k", "2", "--n", "5",
                                 "--relation", "sep", "--budget", "100")
        assert code == 3
        assert out == ""
        assert "budget" in err.lower()

    @pytest.mark.parametrize("k,n,relation", [(50, 3, "--relation sep"),
                                              (256, 3, "--group s"),
                                              (16, 2, "--relation imp")])
    def test_huge_space_is_a_budget_error_named_by_its_space(
            self, capsys, k, n, relation):
        # k^(k^n) runs to 40 million digits at k = 256: never written out
        code, out, err = run_cli(capsys, "classify", "--k", str(k), "--n",
                                 str(n), *relation.split())
        assert code == 3
        assert err.startswith("budget exceeded") and f"P_{k}^{n}" in err
        assert not re.search(r"\d{21}", out + err)


class TestTables:
    def test_table1_diff_clean(self, capsys):
        code, out, err = run_cli(capsys, "tables", "--name", "table1", "--diff")
        assert code == 0
        assert "all 4 rows match" in err

    def test_json_format(self, capsys):
        code, out, _ = run_cli(capsys, "tables", "--name", "table1",
                               "--format", "json")
        payload = json.loads(out)
        assert payload["ok"] is True

    def test_module_entry_point_figure4_diff(self):
        # `python -m fnclass` runs the CLI in a fresh interpreter; Figure 4
        # counts the orbits of eight groups on P_2^3 and P_2^4
        src = str(pathlib.Path(fnclass.__file__).parents[1])
        path = [src, os.environ.get("PYTHONPATH", "")]
        proc = subprocess.run(
            [sys.executable, "-m", "fnclass", "tables", "--name", "figure4",
             "--diff"], capture_output=True, text=True, timeout=600,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))})
        assert proc.returncode == 0, proc.stderr
        assert "figure4: all 8 rows match" in proc.stderr
        assert proc.stdout.splitlines()[-1] == "g,22,402"

    def test_cache_dir_writes_nothing(self, capsys, tmp_path):
        args = ("tables", "--name", "table1", "--format", "json")
        code1, fresh, _ = run_cli(capsys, *args)
        code2, out, _ = run_cli(capsys, *args, "--jobs", "2",
                                "--cache-dir", str(tmp_path))
        assert code1 == code2 == 0
        assert out == fresh
        assert list(tmp_path.iterdir()) == []


class TestVerify:
    def test_default_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--n", "3", "--samples", "0")
        assert code == 0
        assert "FAIL" not in out

    def test_mutant_negative_control(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--n", "2",
                               "--n-exhaustive", "2", "--samples", "0",
                               "--mutant", "no-remove-rule")
        assert code == 1
        assert any("FAIL" in line and "label-lemma" in line
                   for line in out.splitlines())

    def test_json_format(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--n", "2",
                               "--n-exhaustive", "2", "--samples", "0",
                               "--format", "json")
        payload = json.loads(out)
        assert payload["ok"] is True

    def test_exhaustive_pool_limit_exit_code(self, capsys):
        # P_3^3 has 3^27 functions: refused before any is listed
        import tracemalloc
        tracemalloc.start()
        try:
            code, _, err = run_cli(capsys, "verify", "--k", "3")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 3
        assert "budget" in err.lower()
        assert peak < 16 << 20

    def test_radix_above_a_byte_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--k", "300")
        assert code == 2
        assert out == ""
        assert "table cells are bytes" in err


class TestParse:
    def test_round_trip_fields(self, capsys):
        code, out, _ = run_cli(capsys, "parse", "--expr", "x1 + x2 + x3",
                               "--format", "json")
        payload = json.loads(out)
        assert code == 0
        assert payload["table"] == "96"
        assert payload["essential"] == [1, 2, 3]

    def test_syntax_error(self, capsys):
        code, _, err = run_cli(capsys, "parse", "--expr", "5", "--k", "2")
        assert code == 2
        assert "position" in err

    def test_radix_above_a_byte_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "parse", "--expr", "x1", "--k", "300")
        assert code == 2
        assert out == ""
        assert "table cells are bytes" in err
