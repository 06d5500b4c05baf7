import json

import pytest

from gibbsfactor import fixtures, parse_system, parse_system_dict
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


class TestReportDiscipline:
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

    def test_unexpected_exception_has_its_own_exit_code(self, capsys, tmp_path):
        # exp(800) overflows a float while the potential is built
        doc = emit_system(fixtures.example2())
        doc["potential"]["mode"] = "phi"
        table = doc["potential"]["table"]
        table.update((key, 0.0) for key in table)
        table["0,0"] = 800.0
        path = tmp_path / "overflow.json"
        path.write_text(json.dumps(doc))
        assert INTERNAL_ERROR not in (0, 1, 2)
        assert main(["validate", str(path)]) == INTERNAL_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")
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
])
def test_bad_numeric_flags_rejected_before_work(capsys, example2_file, command, flag, value):
    assert main([command, example2_file, flag, value]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {flag} must be")
    assert len(captured.err.strip().splitlines()) == 1
