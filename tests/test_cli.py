import contextlib
import csv
import io
import itertools
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gibbsfactor import build_pipeline, fixtures, g_limit, parse_system, parse_system_dict
from gibbsfactor.cli import INTERNAL_ERROR, main
from gibbsfactor.errors import ValidationError
from gibbsfactor.sysio import emit_system


@pytest.fixture()
def example2_file(tmp_path):
    path = tmp_path / "example2.json"
    path.write_text(json.dumps(emit_system(fixtures.example2())))
    return str(path)


@pytest.fixture()
def rate_demo_file(tmp_path):
    path = tmp_path / "rate_demo.json"
    path.write_text(json.dumps(emit_system(fixtures.rate_demo())))
    return str(path)


def long_name_doc():
    """Depth 2 over the symbols a, bc and d, every transition allowed but
    d -> d, each word weighted 1 + the sum of its symbol indices, a and bc
    mapped to x and d to y."""
    names = ("a", "bc", "d")
    words = [w for w in itertools.product(range(3), repeat=3) if (2, 2) not in (w[:2], w[1:])]
    return {
        "schema_version": 1,
        "alphabet": list(names),
        "adjacency": [[1, 1, 1], [1, 1, 1], [1, 1, 0]],
        "potential": {"depth": 2, "mode": "weight",
                      "table": {",".join(names[s] for s in w): str(1 + sum(w)) for w in words}},
        "factor": {"image_alphabet": ["x", "y"], "map": {"a": "x", "bc": "x", "d": "y"}},
    }


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip().startswith("{") else out


class TestParseEmit:
    def test_round_trip(self):
        for desc in (fixtures.example2(), fixtures.rate_demo(),
                     fixtures.full_shift_iid(), fixtures.golden_mean()):
            assert parse_system_dict(emit_system(desc)) == desc

    def test_parse_file(self, example2_file):
        desc = parse_system(example2_file)
        assert desc == fixtures.example2()

    def test_negative_weight_rejected(self):
        doc = emit_system(fixtures.example2())
        doc["potential"]["table"]["0,0"] = "-1/2"
        with pytest.raises(ValidationError, match="non-positive weight"):
            parse_system_dict(doc)

    def test_undeclared_factor_symbol_rejected(self):
        doc = emit_system(fixtures.example2())
        doc["factor"]["map"]["9"] = "0"
        with pytest.raises(ValidationError, match="unknown symbol"):
            parse_system_dict(doc)

    def test_missing_factor_symbol_rejected(self):
        doc = emit_system(fixtures.example2())
        del doc["factor"]["map"]["3"]
        with pytest.raises(ValidationError, match="unmapped symbol"):
            parse_system_dict(doc)

    def test_unknown_field_rejected(self):
        doc = emit_system(fixtures.example2())
        doc["surprise"] = 1
        with pytest.raises(ValidationError, match="unknown field"):
            parse_system_dict(doc)

    def test_bad_schema_version(self):
        doc = emit_system(fixtures.example2())
        doc["schema_version"] = 99
        with pytest.raises(ValidationError, match="schema_version"):
            parse_system_dict(doc)

    @pytest.mark.parametrize("mode, value", [
        ("weight", True),
        ("weight", float("nan")),
        ("weight", float("inf")),
        ("phi", float("nan")),
        ("phi", float("inf")),
        ("phi", float("-inf")),
    ])
    def test_bool_and_non_finite_values_rejected(self, capsys, tmp_path, mode, value):
        doc = emit_system(fixtures.example2())
        table = doc["potential"]["table"]
        if mode == "phi":
            doc["potential"]["mode"] = "phi"
            table.update((key, 0.0) for key in table)
        table["0,0"] = value
        with pytest.raises(ValidationError, match="potential.table"):
            parse_system_dict(doc)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main(["validate", str(path)]) == 2

    @pytest.mark.parametrize("section, key, value, field", [
        (None, "adjacency", [[1], [1, 1]], "adjacency"),
        ("potential", "depth", True, "potential.depth"),
        ("table", "0,0", "1e400", "potential.table['0,0']"),
        ("table", "0,0", 10**400, "potential.table['0,0']"),
        ("table", "0,0", "1e-400", "potential.table['0,0']"),
        # "01" names the word of the key "0,1" (the alphabet is single-character)
        ("table", "01", "7", "potential.table: keys '0,1' and '01' name the same word"),
    ])
    def test_rejected_at_parse_time(self, capsys, tmp_path, section, key, value, field):
        doc = emit_system(fixtures.example2())
        target = {None: doc, "potential": doc["potential"],
                  "table": doc["potential"]["table"]}[section]
        target[key] = value
        with pytest.raises(ValidationError, match=re.escape(field)):
            parse_system_dict(doc)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main(["validate", str(path)]) == 2

    @pytest.mark.parametrize("field", ["alphabet", "factor.image_alphabet"])
    def test_symbol_name_with_a_comma_rejected(self, capsys, tmp_path, field):
        # a comma separates the names of a word, so no key or --word could name it
        doc = emit_system(fixtures.example2())
        if field == "alphabet":
            doc["alphabet"] = ["0", "1", "2", "3,4"]
            doc["factor"]["map"] = {"0": "0", "1": "0", "2": "1", "3,4": "1"}
        else:
            doc["factor"]["image_alphabet"] = ["0", "1,2"]
        name = "'3,4'" if field == "alphabet" else "'1,2'"
        with pytest.raises(ValidationError, match=f"^{re.escape(field)}: symbol name {name}"):
            parse_system_dict(doc)
        path = tmp_path / "comma.json"
        path.write_text(json.dumps(doc))
        assert main(["validate", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.strip().splitlines()) == 1

    def test_over_long_integer_literal_is_a_parse_error(self, tmp_path):
        path = tmp_path / "long.json"
        path.write_text('{"schema_version": ' + "1" * 5000 + "}")
        with pytest.raises(ValidationError, match="parse error"):
            parse_system(str(path))

    def test_parse_error_carries_position(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{\n  broken\n}")
        with pytest.raises(ValidationError, match="line 2"):
            parse_system(str(path))


class TestCommands:
    def test_validate(self, capsys, example2_file):
        code, report = run(capsys, "validate", example2_file)
        assert code == 0
        assert report["results"]["valid"] is True
        assert report["results"]["mixing_index"] == 2

    def test_perron_exact(self, capsys, example2_file):
        code, report = run(capsys, "perron", example2_file, "--exact")
        assert code == 0
        res = report["results"]
        assert res["lambda"] == "3"
        assert res["h"] == ["1", "1", "1", "1"]
        assert res["nu"] == ["1/6", "1/3", "1/3", "1/6"]

    def test_measure(self, capsys, example2_file):
        code, report = run(capsys, "measure", example2_file, "--word", "0,0", "--exact")
        assert code == 0
        assert report["results"]["exact"] == "1/18"

    def test_measure_inadmissible(self, capsys, example2_file):
        code, report = run(capsys, "measure", example2_file, "--word", "10")
        assert code == 0
        assert report["results"]["log_measure"] == "-inf"
        assert report["results"]["measure"] == 0.0

    def test_project_with_oracle(self, capsys, example2_file):
        code, report = run(capsys, "project", example2_file,
                           "--word", "0,0", "--oracle", "--exact")
        assert code == 0
        assert report["results"]["exact"] == "2/9"
        assert report["results"]["match"] is True

    def test_project_verify(self, capsys, example2_file):
        code, report = run(capsys, "project-verify", example2_file, "--max-len", "5")
        assert code == 0
        assert report["results"]["passed"] is True
        assert report["results"]["checked_words"] == sum(2**n for n in range(1, 6))

    @pytest.mark.parametrize("mode", [[], ["--exact"]], ids=["float", "exact"])
    def test_project_verify_fails_on_misnormalised_oracle(self, capsys, example2_file,
                                                          misnormalised_oracle, mode):
        code, report = run(capsys, "project-verify", example2_file, "--max-len", "4", *mode)
        assert code == 1
        assert report["results"]["passed"] is False
        assert report["results"]["checked_words"] == sum(2**n for n in range(1, 5))
        assert report["results"]["failures"]

    def test_fwm_not_found_with_zero_run_witness(self, capsys, example2_file):
        code, report = run(capsys, "fwm", example2_file, "--max-N", "4")
        assert code == 0
        res = report["results"]
        assert res["found"] is None and res["fiber_wise_mixing"] is False
        last = res["reports"][-1]
        assert last["witnesses"][0]["word"] == "0,0,0,0,0"

    def test_fwm_found(self, capsys, tmp_path):
        path = tmp_path / "collapse.json"
        path.write_text(json.dumps(emit_system(fixtures.three_to_two_collapse())))
        code, report = run(capsys, "fwm", str(path), "--max-N", "4")
        assert report["results"]["found"] == 1

    def test_fwm_names_witness_blocks_by_their_symbols(self, capsys, tmp_path):
        # a block's symbol names are concatenated, or joined by "," when one
        # of them is longer than one character
        path = tmp_path / "long_name.json"
        path.write_text(json.dumps(long_name_doc()))
        code, report = run(capsys, "fwm", str(path), "--max-N", "2")
        assert code == 0 and report["results"]["found"] == 2
        witnesses = report["results"]["reports"][0]["witnesses"]
        assert witnesses[0] == {"first": "aa", "last": "bc,a", "word": "x,x,x"}
        assert [(w["first"], w["last"]) for w in witnesses[8:]] == [("aa", "bc,d"), ("a,bc", "ad")]

    def test_gfun(self, capsys, example2_file):
        code, report = run(capsys, "gfun", example2_file, "--word", "00", "--exact")
        assert code == 0
        assert report["results"]["exact"] == "4/9"

    def test_gfun_limit(self, capsys, example2_file):
        code, report = run(capsys, "gfun-limit", example2_file,
                           "--tail", "0", "--jmax", "14")
        assert code == 0
        assert abs(report["results"]["value"] - 1 / 3) < 1e-6

    def test_gfun_limit_with_prefix(self, capsys, example2_file):
        code, report = run(capsys, "gfun-limit", example2_file,
                           "--prefix", "0,0,0,0", "--tail", "1", "--jmax", "14")
        assert code == 0
        # g(0^4 1-run) = (4+1)/(3*4)
        assert abs(report["results"]["value"] - 5 / 12) < 1e-6

    def test_gfun_limit_large_jmax(self, capsys, rate_demo_file):
        pipe = build_pipeline(fixtures.rate_demo(), exact=False)
        expected = g_limit(pipe.factor, pipe.pd, (), (0,), jmax=12).value
        code, report = run(capsys, "gfun-limit", rate_demo_file, "--tail", "a", "--jmax", "60")
        assert code == 0
        assert abs(report["results"]["value"] - expected) <= 1e-12

    def test_gfun_limit_ends_at_the_last_positive_stage(self, capsys, example2_file):
        # from --jmax 540 on, the renormalised cycle power underflows; the
        # report is the one of --jmax 539, whose stages are all positive
        _, want = run(capsys, "gfun-limit", example2_file, "--tail", "0", "--jmax", "539")
        code, report = run(capsys, "gfun-limit", example2_file, "--tail", "0", "--jmax", "540")
        assert code == 0 and report["results"] == want["results"]

    def test_gfun_limit_exact_stages_past_the_digit_limit(self, capsys, example2_file):
        # the late exact stages hold integers longer than Python's default
        # int -> str limit of 4300 digits (no limit before Python 3.10.7)
        pipe = build_pipeline(fixtures.example2(), exact=True)
        expected = g_limit(pipe.factor, pipe.pd, (1,), (0, 1), jmax=16).exact_stages
        get_limit = getattr(sys, "get_int_max_str_digits", lambda: 0)
        set_limit = getattr(sys, "set_int_max_str_digits", lambda _: None)
        limit = get_limit()
        code, report = run(capsys, "gfun-limit", example2_file, "--prefix", "1",
                           "--tail", "0,1", "--exact")
        assert code == 0
        assert get_limit() == limit  # restored after the report
        stages = report["results"]["exact_stages"]
        assert max(len(s) for s in stages) > 2 * 4300
        set_limit(0)
        try:
            assert [Fraction(s) for s in stages] == list(expected)
        finally:
            set_limit(limit)

    def test_exact_measure_long_word_log_survives_underflow(self, capsys, example2_file):
        word = ",".join(["0"] * 700)
        code, report = run(capsys, "measure", example2_file, "--word", word, "--exact")
        assert code == 0
        assert report["results"]["measure"] == 0.0  # decimal underflows
        log = report["results"]["log_measure"]
        assert -771 < log < -768  # log stays finite and correct

    def test_variation_and_fit(self, capsys, example2_file):
        code, report = run(capsys, "fit", example2_file, "--m", "12", "--n0", "2")
        assert code == 0
        assert report["results"]["classification"] == "polynomial"

    def test_fit_reports_its_window(self, capsys, rate_demo_file):
        code, report = run(capsys, "fit", rate_demo_file, "--m", "12")
        assert code == 0
        assert report["results"]["window"] == [2, 4]
        assert report["results"]["points"] == 3

    def test_eta_explicit_sigma(self, capsys, rate_demo_file):
        code, report = run(capsys, "eta", rate_demo_file,
                           "--theta", "0.5", "--sigma", "0.75")
        assert code == 0
        assert 0 < report["results"]["eta"] < 1

    def test_eta_optimize(self, capsys, rate_demo_file):
        code, report = run(capsys, "eta", rate_demo_file, "--theta", "0.5", "--optimize")
        assert code == 0
        assert 0 < report["results"]["eta"] < 1

    def test_contraction(self, capsys, rate_demo_file):
        code, report = run(capsys, "contraction", rate_demo_file, "--N", "1")
        assert code == 0
        assert report["results"]["infinite_words"] == 0
        assert report["results"]["max_tau"] < 1

    def test_example2_builtin(self, capsys):
        code, report = run(capsys, "example2")
        assert code == 0
        res = report["results"]
        assert res["lambda"] == "3"
        assert res["nu"] == ["1/6", "1/3", "1/3", "1/6"]
        assert abs(res["g_zero_run_limit"] - 1 / 3) < 1e-6
        assert res["fiber_wise_mixing"] is False

    def test_example2_honours_small_jmax(self, capsys):
        pipe = build_pipeline(fixtures.example2(), exact=True)
        expected = g_limit(pipe.factor, pipe.pd, (), (0,), jmax=5).value
        code, report = run(capsys, "example2", "--jmax", "5")
        assert code == 0
        assert report["results"]["g_zero_run_limit"] == expected


class TestReportDiscipline:
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_ignored_entries_warn_after_the_report(self, capsys, tmp_path, fmt):
        doc = emit_system(fixtures.example2())
        doc["potential"]["table"].update({"0,3": "1", "3,0": "1"})  # inadmissible words
        path = tmp_path / "strays.json"
        path.write_text(json.dumps(doc))
        assert main(["validate", str(path), "--format", fmt]) == 0
        out, err = capsys.readouterr()
        assert err == ("warning: ignoring entry for inadmissible word (0, 3)\n"
                       "warning: ignoring entry for inadmissible word (3, 0)\n")
        if fmt == "json":
            assert json.loads(out)["results"]["valid"] is True
        else:
            assert "results.valid,True" in out.splitlines()

    def test_byte_identical_reports(self, capsys, example2_file):
        main(["project", example2_file, "--word", "0,1", "--oracle"])
        first = capsys.readouterr().out
        main(["project", example2_file, "--word", "0,1", "--oracle"])
        second = capsys.readouterr().out
        assert first == second

    def test_csv_format(self, capsys, example2_file):
        code = main(["perron", example2_file, "--exact", "--format", "csv"])
        out = capsys.readouterr().out
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "key,value"
        assert any(line.startswith("results.lambda,3") for line in lines)

    @pytest.mark.parametrize("argv", [("measure", "--word", "0,1"), ("fwm", "--max-N", "3")])
    def test_csv_rows_have_two_fields(self, capsys, example2_file, argv):
        assert main([argv[0], example2_file, *argv[1:], "--format", "csv"]) == 0
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert len(rows) > 5 and all(len(row) == 2 for row in rows)
        assert any(key.endswith("word") and value.startswith("0,") for key, value in rows)

    def test_digest_stable(self, capsys, example2_file):
        _, r1 = run(capsys, "validate", example2_file)
        _, r2 = run(capsys, "perron", example2_file)
        assert r1["inputs_digest"] == r2["inputs_digest"]


class TestExitCodes:
    def test_usage_error_missing_file(self, capsys):
        assert main(["validate", "/nonexistent/file.json"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_usage_error_bad_word(self, capsys, example2_file):
        assert main(["measure", example2_file, "--word", "0,9"]) == 2

    def test_usage_error_factorless_project(self, capsys, tmp_path):
        path = tmp_path / "nofactor.json"
        path.write_text(json.dumps(emit_system(fixtures.golden_mean())))
        assert main(["project", str(path), "--word", "0"]) == 2

    @pytest.mark.parametrize("mode", [[], ["--exact"]], ids=["float", "exact"])
    def test_gfun_inadmissible_word_is_usage_error(self, capsys, tmp_path,
                                                   skewed_golden_doc, mode):
        # 11 is forbidden while its suffix 1 is not
        path = tmp_path / "skewed_golden.json"
        path.write_text(json.dumps(skewed_golden_doc))
        assert main(["gfun", str(path), "--word", "11"] + mode) == 2
        assert "not admissible" in capsys.readouterr().err
        assert main(["gfun", str(path), "--word", "01"] + mode) == 0

    def test_property_violation_exit_one(self, capsys, example2_file, monkeypatch):
        # force a mismatch: corrupt the oracle result
        import gibbsfactor.cli as cli

        real = cli.projected_measure_bruteforce

        def skewed(fs, pd, word, budget):
            return real(fs, pd, word, budget) + 1e-3

        monkeypatch.setattr(cli, "projected_measure_bruteforce", skewed)
        assert main(["project", example2_file, "--word", "0,0", "--oracle"]) == 1

    def test_unexpected_exception_has_its_own_exit_code(self, capsys, monkeypatch,
                                                        example2_file):
        import gibbsfactor.cli as cli

        def broken(args, pipe):
            raise RuntimeError("a bug in a command")

        monkeypatch.setattr(cli, "cmd_validate", broken)
        assert INTERNAL_ERROR not in (0, 1, 2)
        assert main(["validate", example2_file]) == INTERNAL_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: internal error: RuntimeError: a bug in a command\n"

    @pytest.mark.parametrize("command", ["validate", "perron"])
    @pytest.mark.parametrize("everywhere, single", [(800.0, None), (0.0, 710.0), (0.0, -800.0)])
    def test_phi_outside_weight_range_is_input_error(self, capsys, tmp_path, command,
                                                     everywhere, single):
        # exp(phi) must be a positive float: no overflow, no silently lost transition
        doc = emit_system(fixtures.example2())
        doc["potential"]["mode"] = "phi"
        table = doc["potential"]["table"]
        table.update((key, everywhere) for key in table)
        if single is not None:
            table["0,0"] = single
        path = tmp_path / "extreme.json"
        path.write_text(json.dumps(doc))
        assert main([command, str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: potential.table['0,0']: exp(phi) outside")
        assert len(captured.err.strip().splitlines()) == 1

    def test_exact_mode_unavailable(self, capsys, tmp_path):
        path = tmp_path / "golden.json"
        path.write_text(json.dumps(emit_system(fixtures.golden_mean())))
        assert main(["perron", str(path), "--exact"]) == 2
        assert "rational" in capsys.readouterr().err


@pytest.mark.parametrize("command, flag, value", [
    ("project-verify", "--tol", "-1"),
    ("project-verify", "--tol", "0"),
    ("project-verify", "--tol", "nan"),
    ("project-verify", "--tol", "inf"),
    ("project-verify", "--max-len", "0"),
    ("project-verify", "--max-len", "-2"),
    ("project-verify", "--budget", "0"),
    ("fwm", "--budget", "-5"),
    ("fit", "--n0", "0"),
])
def test_bad_numeric_flags_rejected_before_work(capsys, example2_file, command, flag, value):
    assert main([command, example2_file, flag, value]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {flag} must be")
    assert len(captured.err.strip().splitlines()) == 1


# Each command with quick arguments on the Example 2 file, and the common
# flags its computation reads (--format aside, which every command takes).
FLAG_SETS = {
    "validate": ([], ()),
    "eta": (["--optimize"], ()),
    "perron": ([], ("--exact",)),
    "measure": (["--word", "0,0"], ("--exact",)),
    "gfun": (["--word", "00"], ("--exact",)),
    "gfun-limit": (["--tail", "0", "--jmax", "6"], ("--exact", "--tol")),
    "project": (["--word", "0,1", "--oracle"], ("--exact", "--tol", "--budget")),
    "project-verify": (["--max-len", "3"], ("--exact", "--tol", "--budget")),
    "fwm": (["--max-N", "2"], ("--budget",)),
    "variation": (["--m", "6"], ("--budget",)),
    "fit": (["--m", "12"], ("--budget",)),
    "contraction": (["--N", "1"], ("--budget",)),
    "example2": (["--jmax", "5"], ("--budget",)),
}
FLAG_VALUES = {"--exact": [], "--tol": ["1e-6"], "--budget": ["100000"]}


def command_argv(command, example2_file):
    args, _ = FLAG_SETS[command]
    return [command] + ([] if command == "example2" else [example2_file]) + args


@pytest.mark.parametrize("command, flag", [
    (command, flag) for command, (_, taken) in FLAG_SETS.items()
    for flag in FLAG_VALUES if flag not in taken])
def test_flag_a_command_does_not_read_is_a_usage_error(capsys, example2_file, command, flag):
    with pytest.raises(SystemExit) as exc:
        main(command_argv(command, example2_file) + [flag, *FLAG_VALUES[flag]])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage: gibbsfactor {command} ")
    assert f"unrecognized arguments: {flag}" in err


@pytest.mark.parametrize("command", FLAG_SETS)
def test_diagnostics_echo_the_flags_a_command_takes(capsys, example2_file, command):
    taken = FLAG_SETS[command][1]
    values = [v for flag in taken for v in (flag, *FLAG_VALUES[flag])]
    code, report = run(capsys, *command_argv(command, example2_file), *values)
    assert code == 0
    assert sorted(report["diagnostics"]) == sorted(flag[2:] for flag in taken)


@pytest.mark.parametrize("rate", [["--sigma", "0.9", "--optimize"], []],
                         ids=["both", "neither"])
def test_eta_takes_exactly_one_of_sigma_and_optimize(capsys, example2_file, rate):
    with pytest.raises(SystemExit) as exc:
        main(["eta", example2_file, *rate])
    assert exc.value.code == 2
    assert "--sigma" in capsys.readouterr().err


def test_closed_stdout_keeps_exit_code_contract(example2_file):
    # stdout is a pipe whose read end is already closed, so the report's
    # write fails with EPIPE whenever it happens
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = run_cli_process("validate", example2_file, stdout=write_end, timeout=120)
    finally:
        os.close(write_end)
    assert proc.returncode != 1
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error:")
    assert len(proc.stderr.strip().splitlines()) == 1


def run_cli_process(*argv, stdout=subprocess.PIPE, timeout, python_flags=()):
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *python_flags, "-m", "gibbsfactor", *argv],
                          stdout=stdout, stderr=subprocess.PIPE, text=True, env=env,
                          timeout=timeout)


@pytest.mark.parametrize("literal", ["1e30000000", "1e-30000000"])
def test_huge_exponent_is_refused_without_stalling(tmp_path, literal):
    # the parser must not build 10**30000000 exactly: that runs past the timeout
    doc = emit_system(fixtures.example2())
    doc["potential"]["table"]["0,0"] = literal
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    proc = run_cli_process("validate", str(path), timeout=10)
    assert proc.returncode == 2
    assert "value outside the float range" in proc.stderr


def test_underflowing_perron_iterate_is_an_input_error(tmp_path, spread_phi):
    # phi over U(-300, 300): a Noda step underflows an entry of h to zero
    path = tmp_path / "spread.json"
    path.write_text(json.dumps(emit_system(spread_phi(4, 300))))
    proc = run_cli_process("perron", str(path), timeout=120,
                           python_flags=("-W", "error::RuntimeWarning"))
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:")
    assert len(proc.stderr.strip().splitlines()) == 1


def test_eta_with_a_long_span_stays_finite(example2_file):
    # lambda = 3: W^700 overflows a float, so the log of ||L^N 1|| is carried scaled
    proc = run_cli_process("eta", example2_file, "--sigma", "0.9", "--N", "700", timeout=60,
                           python_flags=("-W", "error::RuntimeWarning"))
    assert proc.returncode == 0
    assert proc.stderr == ""
    results = json.loads(proc.stdout)["results"]
    assert math.isfinite(results["m_const"]) and math.isfinite(results["prefactor"])


# Generated system documents for the input contract: a well-formed skeleton
# with at most one kind of fault, in the matrix, the depth, the mode or the
# table values.
NAMES = ("0", "1", "2")
MATRIX_ENTRIES = st.one_of(st.integers(-1, 2), st.booleans(), st.text(max_size=2), st.none(),
                           st.floats(), st.lists(st.integers(0, 1), max_size=2))
BAD_MATRICES = st.one_of(
    st.lists(st.lists(MATRIX_ENTRIES, max_size=4), max_size=4),  # ragged, bool, str, null
    st.lists(st.lists(st.lists(st.integers(0, 1), max_size=2), max_size=2), max_size=2),
    st.none(), st.booleans(), st.text(max_size=3), st.integers(),
)
BAD_DEPTHS = st.one_of(st.booleans(), st.integers(-3, -1), st.none(), st.floats(0, 2),
                       st.text(max_size=2))
RATIONAL_LITERALS = st.one_of(
    st.fractions().map(str),
    st.builds("{}e{}".format, st.integers(-9, 9), st.integers(-1200, 1200)),  # huge, tiny
    st.sampled_from(["1e400", "1e-400", "1/0", "1//2", "nan", "inf", "", " 1/2 ", "0x10",
                     "1_0", "1" * 5000, "-0", "2/-3"]),
    st.text(max_size=6),
)
TABLE_VALUES = st.one_of(
    st.integers(), st.sampled_from([10**400, -10**400, 2**1100]), st.floats(),
    st.floats(-1000, 1000), st.floats(min_value=1e-320, max_value=1e-300), st.booleans(),
    st.none(), RATIONAL_LITERALS, st.lists(st.integers(), max_size=2),
)
GOOD_VALUES = {"weight": st.sampled_from([1, 3, "1/2", "7/3", 2.5]),
               "phi": st.sampled_from([0, -1, 0.5, 2.25])}


@st.composite
def system_documents(draw):
    fault = draw(st.sampled_from(["none", "adjacency", "depth", "mode", "value"]))
    size = draw(st.integers(1, 3))
    names = list(NAMES[:size])
    adjacency = draw(BAD_MATRICES if fault == "adjacency" else st.one_of(
        st.just([[1] * size for _ in range(size)]),
        st.lists(st.lists(st.integers(0, 1), min_size=size, max_size=size),
                 min_size=size, max_size=size)))
    depth = draw(BAD_DEPTHS if fault == "depth" else st.integers(0, 2))
    mode = draw(st.sampled_from(["weight", "phi"]))
    length = depth + 1 if type(depth) is int and depth >= 0 else 1
    keys = [",".join(w) for w in itertools.product(names, repeat=length)]
    table = {key: draw(GOOD_VALUES[mode]) for key in keys}
    if fault == "value":
        table.update(draw(st.dictionaries(st.sampled_from(keys), TABLE_VALUES, min_size=1)))
    if fault == "mode":
        mode = draw(st.text(max_size=6))
    doc = {"schema_version": 1, "alphabet": names, "adjacency": adjacency,
           "potential": {"depth": depth, "mode": mode, "table": table}}
    if draw(st.booleans()):
        doc["factor"] = {"image_alphabet": ["a", "b"],
                         "map": {n: draw(st.sampled_from(["a", "b"])) for n in names}}
    return doc


class TestInputContract:
    @given(system_documents())
    @settings(max_examples=200, deadline=None)
    def test_parse_returns_or_raises_validation_error(self, doc):
        try:
            parse_system_dict(doc)
        except ValidationError:
            pass

    @given(system_documents())
    @settings(max_examples=80, deadline=None)
    def test_validate_exit_codes(self, doc):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "system.json"
            path.write_text(json.dumps(doc))
            out, err = io.StringIO(), io.StringIO()
            with (contextlib.redirect_stdout(out), contextlib.redirect_stderr(err),
                  warnings.catch_warnings(record=True) as escaped):
                warnings.simplefilter("always")
                code = main(["validate", str(path)])
        assert not escaped  # the CLI prints its own warnings, after the report
        assert code in (0, 2)
        if code:
            assert out.getvalue() == ""
            assert err.getvalue().startswith("error:")
            assert len(err.getvalue().strip().splitlines()) == 1
