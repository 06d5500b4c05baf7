"""The bundled scripts run end to end on small settings."""

import dataclasses
import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_script(argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
                          capture_output=True, text=True, env=env, timeout=300)


@pytest.mark.parametrize("argv", [
    ["example2_report.py"],
    ["oracle_sweep.py", "--systems", "1", "--max-len", "4"],
    ["rate_experiment.py", "--m", "8", "--n-max", "6"],
], ids=lambda argv: argv[0])
def test_script_exits_zero(argv):
    proc = run_script(argv)
    assert proc.returncode == 0, proc.stderr


def test_oracle_sweep_reports_perron_data():
    proc = run_script(["oracle_sweep.py", "--systems", "2", "--depth", "2", "--max-len", "3"])
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    for seed, line in zip((0, 1), lines):
        match = re.fullmatch(rf"seed {seed}: .* failures; Perron residual (\S+), (\d+) iterations",
                             line)
        assert match and float(match[1]) <= 1e-12 and int(match[2]) >= 1, line
    assert re.fullmatch(r"sweep worst Perron residual: \S+", lines[-1])


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_oracle_sweep_exits_one_on_a_large_perron_residual(monkeypatch, capsys):
    sweep = load_script("oracle_sweep")
    real = sweep.gf.build_pipeline

    def build_pipeline(desc):
        pipe = real(desc)
        return dataclasses.replace(pipe, pd=dataclasses.replace(pipe.pd, residual=2e-12))

    monkeypatch.setattr(sweep.gf, "build_pipeline", build_pipeline)
    monkeypatch.setattr(sys, "argv", ["oracle_sweep.py", "--systems", "1", "--max-len", "3"])
    with pytest.raises(SystemExit) as exit_info:
        sweep.main()
    assert exit_info.value.code == 1
    assert "Perron residual 2.000e-12" in capsys.readouterr().out


@pytest.mark.parametrize("route", ["projected_measure", "projected_measure_bruteforce"])
def test_oracle_sweep_exits_one_on_a_per_word_mismatch(monkeypatch, capsys, route):
    sweep = load_script("oracle_sweep")
    real = getattr(sweep.gf, route)
    calls = []

    def skewed(fs, pd, word):  # the 50th call is off by 1e-6
        calls.append(word)
        value = real(fs, pd, word)
        return value + 1e-6 if len(calls) == 50 else value

    monkeypatch.setattr(sweep.gf, route, skewed)
    monkeypatch.setattr(sys, "argv", ["oracle_sweep.py", "--systems", "1", "--max-len", "3"])
    with pytest.raises(SystemExit) as exit_info:
        sweep.main()
    assert exit_info.value.code == 1
    assert len(calls) > 50
    assert "sweep per-word mismatches: 1" in capsys.readouterr().out


def test_bench_pairs_summary_on_canned_pairs():
    bench = load_script("bench_pairs")
    run_s = [(1.0, 0.6), (1.2, 0.7), (0.9, 0.95), (1.1, 1.1), (1.0, 0.5)]
    pairs = [{"parent": {"run_s": p, "setup_s": 0.25, "peak_rss_mb": 37.5 + i},
              "change": {"run_s": c, "setup_s": 0.25, "peak_rss_mb": 37.0 + i}}
             for i, (p, c) in enumerate(run_s)]
    summary = bench.summarize(pairs)
    run = summary["run_s"]
    # parent 0.9, 1.0, 1.0, 1.1, 1.2: inclusive quartiles 1.0 and 1.1
    assert run["parent"] == {"median": 1.0, "iqr": pytest.approx(0.1)}
    # change 0.5, 0.6, 0.7, 0.95, 1.1: quartiles 0.6 and 0.95
    assert run["change"] == {"median": 0.7, "iqr": pytest.approx(0.35)}
    assert (run["pairs"], run["change_won"], run["parent_won"]) == (5, 3, 1)  # one tie
    assert run["gain_beyond_parent_iqr"]
    setup = summary["setup_s"]
    assert (setup["change_won"], setup["parent_won"]) == (0, 0)
    assert not setup["gain_beyond_parent_iqr"]
    rss = summary["peak_rss_mb"]
    assert rss["change_won"] == 5 and rss["parent"]["iqr"] == 2.0
    assert not rss["gain_beyond_parent_iqr"]  # 0.5 MB apart, parent IQR 2 MB
    assert bench.spread([3.0]) == {"median": 3.0, "iqr": 0.0}
