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


def test_oracle_sweep_exits_one_on_a_large_perron_residual(monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location("oracle_sweep",
                                                  ROOT / "scripts" / "oracle_sweep.py")
    sweep = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sweep)
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
