#!/usr/bin/env python3
"""Benchmark of the gibbsfactor library and CLI.

    python3 perfbench/run.py --workload verify_ex2 --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run from the repository root.  The library is imported from ./src of the
checkout this file lives in; without it the benchmark exits with code 2.
One run repeats the workload's fixed pass of work until --seconds have
passed, timing a fresh set-up after every pass, and prints the end-to-end
metrics (--trace 0) or, from a separate traced run, the per-layer metrics
(--trace 1).  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  `--workload all` runs every
workload in a fresh process of its own and prints a table.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# Single-threaded BLAS: the workloads are single-process with no threads.
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import layers  # noqa: E402
import workloads as wl  # noqa: E402
from spans import Tracer  # noqa: E402

# A seed no measurement in this repository was tuned on; later claims are
# checked once on it.
HELD_OUT_SEED = 20171017
LIB_MODULES = ("sysio", "sft", "potential", "factor", "cone", "ganalysis", "cli")
END_TO_END = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
# Tail percentiles in per mille, highest first.
TAIL_PERMILLE = (999, 990, 950, 900, 750, 500)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def load_library():
    """Import the library from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import gibbsfactor  # noqa: F401

    where = Path(gibbsfactor.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise ImportError(f"gibbsfactor imported from {where}, not from {SRC}")
    return types.SimpleNamespace(**{
        m: importlib.import_module(f"gibbsfactor.{m}") for m in LIB_MODULES})


def import_seconds() -> float:
    """Wall time of a fresh interpreter importing the CLI module, which
    imports every layer and numpy."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import gibbsfactor.cli"], env=child_env(),
                   cwd=ROOT, check=True, capture_output=True, timeout=120)
    return time.perf_counter() - start


def tail_percentile(values) -> tuple[float, float] | None:
    """Highest listed percentile with at least ten samples above it and the
    nearest-rank value there; None with fewer than twenty samples."""
    ordered = sorted(values)
    n = len(ordered)
    for permille in TAIL_PERMILLE:
        rank = -(-permille * n // 1000)
        if n - rank >= 10:
            return permille / 10, ordered[rank - 1]
    return None


def per_op(passes: list[dict[str, float]]) -> dict[str, float]:
    """Each op's median time over the passes of the run."""
    samples: dict[str, list[float]] = {}
    for p in passes:
        for key, seconds in p.items():
            samples.setdefault(key, []).append(seconds)
    return {key: statistics.median(v) for key, v in samples.items()}


def peak_rss_mb(children: bool) -> float:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        peak = max(peak, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024.0


def git_commit() -> str:
    """Commit of the checkout, read from .git without running git; the
    benchmark may run in a checkout that is not a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_record(workload, seed, seconds, trace, digests, samples) -> dict:
    import numpy

    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:
        usable = os.cpu_count()
    return {
        "workload": workload.name, "seed": seed, "held_out_seed": HELD_OUT_SEED,
        "seconds": seconds, "trace": trace, "commit": git_commit(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "blas_threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "nproc": usable, "machine": platform.machine(),
        "systems": dict(sorted(digests.items())),
        "samples": samples,
    }


def timed_setup(workload, lib, seed: int, reference: wl.Reference):
    """Set the workload up once; returns the state and the import and
    set-up times in reference seconds (import timed in a fresh interpreter)."""
    before = reference.sample()
    import_s = import_seconds()
    start = time.perf_counter()
    state = workload.setup(lib, seed)
    took = time.perf_counter() - start
    after = reference.sample()
    state["digests"] = {k: lib.sysio.system_digest(d) for k, d in state["systems"].items()}
    return state, reference.scale(import_s, before, after), reference.scale(took, before, after)


def measure(workload, lib, seed: int, seconds: float):
    """Untraced run: end-to-end metrics.  Passes repeat until `seconds`
    have passed; a fresh set-up is timed after every pass, so set-up
    samples are spread over the run like the pass samples."""
    deadline = time.perf_counter() + seconds
    log = wl.OpLog()
    state, import_s, took = timed_setup(workload, lib, seed, log.reference)
    imports, setups = [import_s], [import_s + took]
    rss = None
    try:
        while True:
            log.begin_pass()
            workload.run_pass(lib, state, log)
            if rss is None:
                rss = peak_rss_mb(workload.rss_children)
            extra, import_s, took = timed_setup(workload, lib, seed, log.reference)
            workload.teardown(extra)
            imports.append(import_s)
            setups.append(import_s + took)
            if time.perf_counter() >= deadline:
                break
    finally:
        workload.teardown(state)
    ops = per_op(log.passes)
    run_s = sum(ops.values())
    metrics = {
        "run_s": run_s,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": rss,
    }
    passes = len(log.passes)
    samples = {"run_s": passes, "setup_s": len(setups), "peak_rss_mb": 1,
               "op_p50_ms": log.attempted, "reference": len(log.reference.samples)}
    extra = {
        "op_p50_ms": 1e3 * statistics.median(ops.values()),
        "cli.import_s": statistics.median(imports),
        "failed_frac": len(log.failures) / log.attempted,
        "run_wall_s": sum(per_op(log.wall).values()),
        "reference_ms": 1e3 * statistics.median(log.reference.samples),
    }
    words = workload.words_per_pass()
    if words:
        extra["words_per_s"] = words / run_s
    tail = tail_percentile(ops.values())
    if tail is not None:
        extra[f"op_tail_ms@p{tail[0]:g}"] = 1e3 * tail[1]
        samples["op_tail_ms"] = len(ops)
    record = run_record(workload, seed, seconds, 0, state["digests"], samples)
    return log, metrics, extra, record


def traced(workload, lib, seed: int, seconds: float):
    """Traced run: per-layer metrics from spans.  Set-up runs traced once;
    then untraced and traced passes alternate until `seconds` have passed,
    so the tracing overhead is measured on neighbouring passes."""
    deadline = time.perf_counter() + seconds
    tracer = Tracer("gibbsfactor", layers.TRACED)
    reference = wl.Reference()
    tracer.install()
    try:
        state, import_s, _ = timed_setup(workload, lib, seed, reference)
    finally:
        tracer.uninstall()
    sub = wl.OpLog(reference=reference)
    plain = wl.OpLog(reference=reference)
    tlog = wl.OpLog(tracer, reference)
    try:
        if isinstance(workload, wl.CliSession):
            sub.begin_pass()
            workload.run_pass(lib, state, sub)
        while True:
            plain.begin_pass()
            workload.traced_pass(lib, state, plain)
            tracer.install()
            try:
                tlog.begin_pass()
                workload.traced_pass(lib, state, tlog)
            finally:
                tracer.uninstall()
            if time.perf_counter() >= deadline:
                break
    finally:
        workload.teardown(state)
    untraced_s = sum(per_op(plain.passes).values())
    traced_s = sum(per_op(tlog.passes).values())
    failures = {("subprocess",) + k: why for k, why in sub.failures.items()}
    failures.update(plain.failures)
    failures.update({("traced",) + k: why for k, why in tlog.failures.items()})
    command_s = sub.passes[0] if sub.passes else {}
    cli_failures = len({key[-1] for key in failures}) if isinstance(workload, wl.CliSession) else 0
    metrics = layers.per_layer(
        tracer.spans, len(tlog.passes), {"validate_malformed"}, import_s, command_s,
        cli_failures, 100.0 * (traced_s / untraced_s - 1.0))
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"trace-{workload.name}-seed{seed}.jsonl")
    samples = {"traced_passes": len(tlog.passes), "untraced_passes": len(plain.passes),
               "spans": len(tracer.spans), "import_s": 1}
    record = run_record(workload, seed, seconds, 1, state["digests"], samples)
    record["untraced_pass_s"] = untraced_s
    record["traced_pass_s"] = traced_s
    merged = wl.OpLog()
    merged.passes = sub.passes + plain.passes + tlog.passes
    merged.failures = failures
    return merged, metrics, {}, record


def run_one(args) -> int:
    try:
        lib = load_library()
    except ImportError as e:
        print(f"error: cannot import the library from {SRC}: {e}", file=sys.stderr)
        return 2
    workload = wl.all_workloads(ROOT, child_env())[args.workload]
    run = traced if args.trace else measure
    log, metrics, extra, record = run(workload, lib, args.seed, args.seconds)
    units = layers.metric_units() if args.trace else END_TO_END
    failed = len(log.failures)
    print(f"workload {workload.name}: seed {args.seed}, {len(log.passes)} passes, "
          f"{log.attempted} ops, {failed} failed")
    for (p, key), why in list(log.failures.items())[:20]:
        print(f"  FAILED pass {p} {key}: {why}")
    for name, value in metrics.items():
        print(f"  {name:45s} {value:14.6g} {units[name]}")
    for name, value in extra.items():
        print(f"  {name:45s} {value:14.6g}")
    print("record " + json.dumps(record, sort_keys=True))
    result = {
        "correct": failed == 0,
        "attempted": log.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in a fresh process of its own, then one table."""
    rows = {}
    for name in wl.all_workloads(ROOT, {}):
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, cwd=ROOT, timeout=900)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        rows[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(f"\n{'workload':14s} {'metric':45s} {'value':>14s} unit")
    for name, result in rows.items():
        for metric, m in result["metrics"].items():
            print(f"{name:14s} {metric:45s} {m['value']:14.6g} {m['unit']}")
        print(f"{name:14s} {'failed/attempted':45s} {result['failed']:>8d}/{result['attempted']}")
    return 0 if all(r["correct"] for r in rows.values()) else 1


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["all", "verify_ex2", "sweep_float", "build_ladder",
                                 "cli_session"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "gibbsfactor" / "__init__.py").is_file():
        print(f"error: no library source at {SRC}/gibbsfactor", file=sys.stderr)
        return 2
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
