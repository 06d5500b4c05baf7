"""Paired benchmark runs of two checkouts, written to a BENCH_<n>.json record.

    python scripts/bench_pairs.py --parent ../parent --change . --workload verify_ex2 \
        --pairs 10 --seconds 8 --seed 1 --out BENCH_26.json

Runs `perfbench/run.py --workload W --seed S --seconds T` in each checkout,
once per side per pair, alternating which side goes first (the parent on
even pairs, the change on odd ones).  Each run is a fresh process started
in its checkout, which imports the library from that checkout's src/.

`--compile` sets where a run's bytecode comes from.  `cached` (the
default) gives each side its own PYTHONPYCACHEPREFIX, under the
checkout's .bench_build/, filled once with `compileall` before the first
pair (the checkout's src/ and perfbench/, the standard library and
numpy); runs read it and write no bytecode, so `setup_s` and
`peak_rss_mb` measure the library, not its compilation.  `each-run` runs
with PYTHONDONTWRITEBYTECODE=1 and no prefix, so every process compiles
the library source again, as a checkout without bytecode does.

The record holds, per workload: the commit and machine line of each side
(from the benchmark's `record` line), the date, the seed, the run length,
the compile mode, every pair's end-to-end metrics, and per side the median
and the interquartile range of each metric, with the number of pairs the
change won (lower is better for every end-to-end metric; ties count for
neither side).  An existing record is updated in place, one entry per
workload, seed and compile mode ("verify_ex2/seed1/cached"), so several
invocations build one file.  Exits 1 when a run fails an output check.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import shutil
import statistics
import subprocess
import sys
import sysconfig
from pathlib import Path

import numpy

END_TO_END = ("run_s", "setup_s", "peak_rss_mb")
COMPILE_MODES = ("cached", "each-run")


def side_env(checkout: Path, mode: str) -> dict:
    """The environment of one side's runs.  In `cached` mode its bytecode
    prefix is emptied and filled by `compileall` here, once: the checkout's
    src/ and perfbench/, the standard library (without its tests) and
    numpy."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env.pop("PYTHONPYCACHEPREFIX", None)
    if mode == "cached":
        prefix = checkout / ".bench_build" / "pycache"
        shutil.rmtree(prefix, ignore_errors=True)
        env["PYTHONPYCACHEPREFIX"] = str(prefix)
        trees = ((None, [checkout / "src", checkout / "perfbench"]),
                 ("/(test|tests|idlelib|lib2to3|tkinter|site-packages)/",
                  [sysconfig.get_paths()["stdlib"]]),
                 ("/tests/", [Path(numpy.__file__).parent]))
        for skip, paths in trees:
            subprocess.run([sys.executable, "-m", "compileall", "-q",
                            *(["-x", skip] if skip else []), *map(str, paths)],
                           env=env, stdout=subprocess.DEVNULL, check=False)
    return env


def run_once(checkout: Path, workload: str, seed: int, seconds: float, env: dict) -> dict:
    """One benchmark run in `checkout`: its end-to-end metrics, whether every
    op passed its check, and the fields of its `record` line that identify
    the run."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds)],
        cwd=checkout, env=env, capture_output=True, text=True, check=True, timeout=900)
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    record = json.loads(next(line for line in lines if line.startswith("record "))[7:])
    return {
        "metrics": {name: result["metrics"][name]["value"] for name in END_TO_END},
        "correct": result["correct"],
        "failed": result["failed"],
        "attempted": result["attempted"],
        "record": {key: record[key] for key in ("commit", "python", "numpy", "nproc",
                                                "machine", "blas_threads")},
    }


def spread(values: list[float]) -> dict:
    """Median and interquartile range (inclusive quartiles; 0 for one value)."""
    if len(values) < 2:
        return {"median": values[0], "iqr": 0.0}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "iqr": q3 - q1}


def summarize(pairs: list[dict]) -> dict:
    """Per end-to-end metric: each side's median and IQR, the pairs the
    change won, and whether the medians differ by more than the parent's
    IQR in the change's favour."""
    out = {}
    for name in END_TO_END:
        parent = [p["parent"][name] for p in pairs]
        change = [p["change"][name] for p in pairs]
        sides = {"parent": spread(parent), "change": spread(change)}
        gain = sides["parent"]["median"] - sides["change"]["median"]
        out[name] = {
            **sides,
            "pairs": len(pairs),
            "change_won": sum(c < p for p, c in zip(parent, change)),
            "parent_won": sum(p < c for p, c in zip(parent, change)),
            "gain_beyond_parent_iqr": gain > sides["parent"]["iqr"],
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="parent checkout")
    parser.add_argument("--change", type=Path, required=True, help="changed checkout")
    parser.add_argument("--workload", required=True,
                        choices=["verify_ex2", "sweep_float", "build_ladder", "cli_session"])
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=8.0)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--compile", choices=COMPILE_MODES, default="cached",
                        help="bytecode from a per-side cache filled once, or compiled every run")
    parser.add_argument("--out", type=Path, required=True, help="BENCH_<n>.json to write")
    args = parser.parse_args(argv)

    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    envs = {side: side_env(checkout, args.compile) for side, checkout in sides.items()}
    pairs, runs, correct = [], {"parent": [], "change": []}, True
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        pair = {"first": order[0]}
        for side in order:
            run = run_once(sides[side], args.workload, args.seed, args.seconds, envs[side])
            runs[side].append(run)
            pair[side] = run["metrics"]
            correct = correct and run["correct"]
        pairs.append(pair)
        print(f"pair {i + 1}/{args.pairs}: " + ", ".join(
            f"{side} run_s {pair[side]['run_s']:.4f}" for side in ("parent", "change")))

    doc = json.loads(args.out.read_text()) if args.out.exists() else {"workloads": {}}
    key = f"{args.workload}/seed{args.seed}/{args.compile}"
    doc["workloads"][key] = {
        "date": datetime.date.today().isoformat(),
        "seed": args.seed,
        "seconds": args.seconds,
        "compile": args.compile,
        "sides": {side: runs[side][0]["record"] for side in sides},
        "failed_ops": {side: sum(r["failed"] for r in runs[side]) for side in sides},
        "attempted_ops": {side: sum(r["attempted"] for r in runs[side]) for side in sides},
        "pairs": pairs,
        "summary": summarize(pairs),
    }
    args.out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    for name, s in doc["workloads"][key]["summary"].items():
        print(f"{name:12s} parent {s['parent']['median']:.6g} (IQR {s['parent']['iqr']:.3g}) "
              f"change {s['change']['median']:.6g} (IQR {s['change']['iqr']:.3g}) "
              f"change won {s['change_won']}/{s['pairs']}")
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
