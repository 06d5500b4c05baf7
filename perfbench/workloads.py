"""The four benchmark workloads.

Each workload builds its inputs from the seed in `setup` (the library only
ever receives the generated system documents), then `run_pass` performs one
fixed pass of work, timing every call into the library as one op and
checking its output.  A pass does the same work on every seed; the seed only
changes the numbers in the random systems.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

import gen

FLOAT_TOL = 1e-10

REFERENCE_ITERATIONS = 20_000
# Reported times are scaled to a host on which the reference loop takes
# this long.
REFERENCE_SECONDS = 0.002
REFERENCE_INTERVAL = 0.05


def reference_loop() -> int:
    total = 0
    for i in range(REFERENCE_ITERATIONS):
        total += i * i % 7
    return total


class Reference:
    """Host speed, sampled by timing a fixed pure-Python loop at most once
    every REFERENCE_INTERVAL seconds.

    On the shared 2-core x86_64 virtual machine the benchmark was tuned on,
    the host switches between a steady slow state and bursts up to about 1.6x
    faster, for seconds to minutes at a time, so raw times of the same work
    moved by 10-40% between runs.  Dividing each time by the
    reference loop's duration next to it cancels that drift; times are
    reported as seconds on a host where the loop takes REFERENCE_SECONDS.
    """

    def __init__(self):
        self.samples: list[float] = []
        self._taken_at = -math.inf

    def sample(self) -> float:
        """Latest reference duration, refreshed when older than the interval."""
        if time.perf_counter() - self._taken_at >= REFERENCE_INTERVAL:
            start = time.perf_counter()
            reference_loop()
            self._taken_at = time.perf_counter()
            self.samples.append(self._taken_at - start)
        return self.samples[-1]

    @staticmethod
    def scale(seconds: float, before: float, after: float) -> float:
        """`seconds` measured between two reference samples, in reference
        seconds."""
        return seconds * REFERENCE_SECONDS / ((before + after) / 2)


class OpLog:
    """Timed ops of one run, grouped by pass, with the failures found by the
    output checks.  `passes` holds reference seconds, `wall` the raw times."""

    def __init__(self, tracer=None, reference: Reference | None = None):
        self.tracer = tracer
        self.reference = reference or Reference()
        self.passes: list[dict[str, float]] = []
        self.wall: list[dict[str, float]] = []
        self.failures: dict[tuple[int, str], str] = {}

    def begin_pass(self) -> None:
        self.passes.append({})
        self.wall.append({})

    def call(self, key: str, fn, *args, **kwargs):
        """Time fn(*args, **kwargs) as op `key`; returns (ok, result).  An
        exception is an op failure: it is recorded, not raised."""
        if self.tracer is not None:
            self.tracer.op = (len(self.passes), key)
        before = self.reference.sample()
        ok, result = True, None
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception as e:  # every failure is counted, the run goes on
            ok = False
            self.fail(key, f"{type(e).__name__}: {e}")
        elapsed = time.perf_counter() - start
        self.wall[-1][key] = elapsed
        self.passes[-1][key] = Reference.scale(elapsed, before, self.reference.sample())
        return ok, result

    def check(self, key: str, ok: bool, why: str) -> None:
        if not ok:
            self.fail(key, why)

    def fail(self, key: str, why: str) -> None:
        self.failures.setdefault((len(self.passes), key), why)

    @property
    def attempted(self) -> int:
        return sum(len(p) for p in self.passes)


def pair_counts(q: int, length: int, n_max: int) -> tuple[int, ...]:
    """Prefix-class pair counts of a variation profile over the full
    q-shift: q**n classes of q**(length-n) words each."""
    return tuple(q**n * math.comb(q ** (length - n), 2) for n in range(1, n_max + 1))


def nonincreasing(values) -> bool:
    return all(b <= a for a, b in zip(values, values[1:]))


class Workload:
    name = ""
    why = ""
    # peak memory of the CLI child processes belongs to the workload
    rss_children = False

    def setup(self, lib, seed: int) -> dict:
        raise NotImplementedError

    def run_pass(self, lib, state: dict, log: OpLog) -> None:
        raise NotImplementedError

    def traced_pass(self, lib, state: dict, log: OpLog) -> None:
        """The pass the traced run records spans on."""
        self.run_pass(lib, state, log)

    def words_per_pass(self) -> int | None:
        return None

    def teardown(self, state: dict) -> None:
        pass


class VerifyEx2(Workload):
    """The paper's two-route check on Example 2 in exact and float mode."""

    name = "verify_ex2"
    why = ("Example 2, both arithmetic modes: every image word of length 1..8 "
           "through the product formula and the brute-force oracle, plus g_limit")
    max_len = 8
    jmax = 20
    fwm_max_n = 8

    def setup(self, lib, seed):
        desc = lib.sysio.parse_system_dict(gen.example2())
        pipes = {mode: lib.sysio.build_pipeline(desc, exact=mode == "exact")
                 for mode in ("exact", "float")}
        return {"systems": {"example2": desc}, "pipes": pipes}

    def words_per_pass(self):
        return 2 * sum(2**n for n in range(1, self.max_len + 1))

    def run_pass(self, lib, state, log):
        for mode, pipe in state["pipes"].items():
            fs, pd = pipe.factor, pipe.pd
            for n in range(1, self.max_len + 1):
                key = f"{mode}/enumerate/{n}"
                ok, words = log.call(key, lambda: lib.factor.enumerate_image_words(fs, n))
                if not ok:
                    continue
                log.check(key, len(words) == 2**n, f"{len(words)} image words")
                for word in words:
                    key = f"{mode}/{''.join(map(str, word))}"
                    ok, pair = log.call(key, lambda: (
                        lib.factor.projected_measure(fs, pd, word),
                        lib.factor.projected_measure_bruteforce(fs, pd, word),
                    ))
                    if ok:
                        log.check(key, routes_agree(*pair, pd.exact),
                                  f"product {pair[0]} != oracle {pair[1]}")
            key = f"{mode}/g_limit"
            ok, lim = log.call(key, lambda: lib.ganalysis.g_limit(fs, pd, (), (0,),
                                                                    jmax=self.jmax))
            if ok:
                log.check(key, lim.converged and abs(lim.value - 1 / 3) <= 1e-6,
                          f"g(0^inf) = {lim.value}, converged={lim.converged}")
            key = f"{mode}/fwm_search"
            ok, search = log.call(key, lambda: lib.factor.fwm_search(fs, self.fwm_max_n))
            if ok:
                log.check(key, search.found is None, f"span {search.found} found")


def routes_agree(a, b, exact: bool) -> bool:
    if exact:
        return a == b
    if a == -math.inf or b == -math.inf:
        return a == b
    return abs(math.expm1(a - b)) <= FLOAT_TOL


class SweepFloat(Workload):
    """Float g-regularity analysis: the depth-first image-word walkers."""

    name = "sweep_float"
    why = ("float g-regularity sweeps (fwm, variation, contraction) on rate_demo "
           "and a seeded 16-symbol depth-2 system; walker-bound, no exact arithmetic")
    rate_m, rate_n_max = 12, 10
    rate_fwm_n, rate_contraction_n = 8, 8
    random_shape = (16, 2, 6, 8)  # symbols, depth, image size, out-degree
    random_m, random_n_max = 5, 4
    random_fwm_n, random_contraction_n = 3, 2

    def setup(self, lib, seed):
        rng = np.random.default_rng(seed)
        docs = {"rate_demo": gen.rate_demo(),
                "random_16_2": gen.random_float_system(rng, *self.random_shape)}
        systems = {k: lib.sysio.parse_system_dict(d) for k, d in docs.items()}
        pipes = {k: lib.sysio.build_pipeline(d) for k, d in systems.items()}
        envelope = lib.potential.holder_envelope(pipes["rate_demo"].potential, 0.5)
        return {"systems": systems, "pipes": pipes, "envelope": envelope}

    def words_per_pass(self):
        q = self.random_shape[2]
        sweeps = 2 ** (self.rate_m + 1) + 2**self.rate_m
        sweeps += q ** (self.random_m + 1) + q**self.random_m
        fwm = 2**2 + sum(q ** (n + 2) for n in range(1, self.random_fwm_n + 1))
        contraction = 2 ** (self.rate_contraction_n + 1) + q ** (self.random_contraction_n + 2)
        return sweeps + fwm + contraction

    def run_pass(self, lib, state, log):
        pipe = state["pipes"]["rate_demo"]
        fs, pd = pipe.factor, pipe.pd
        ok, search = log.call("rate_demo/fwm_search", lib.factor.fwm_search, fs, self.rate_fwm_n)
        if ok:
            log.check("rate_demo/fwm_search", search.found == 1,
                      f"fiber-wise mixing span {search.found}, expected 1")
        profile = self._profile(lib, log, "rate_demo", fs, pd, 2, self.rate_m, self.rate_n_max)
        if profile is not None:
            key = "rate_demo/decay_fit"
            ok, fit = log.call(key, lib.ganalysis.decay_fit, profile)
            if ok:
                log.check(key, fit.classification == "exponential",
                          f"classification {fit.classification}")
        key = "rate_demo/contraction_profile"
        ok, cp = log.call(key, lib.cone.contraction_profile, fs, self.rate_contraction_n)
        if ok:
            log.check(key, len(cp.per_word) == 2 ** (self.rate_contraction_n + 1)
                      and cp.infinite_words == 0 and cp.max_tau < 1,
                      f"{len(cp.per_word)} words, {cp.infinite_words} infinite")
        env = state["envelope"]
        key = "rate_demo/eta_optimize"
        ok, bound = log.call(key, lib.ganalysis.eta_optimize, env.theta, env.holder_constant,
                             full_shift=True)
        if ok:
            log.check(key, 0 < bound.eta < 1, f"eta {bound.eta}")

        pipe = state["pipes"]["random_16_2"]
        fs, pd = pipe.factor, pipe.pd
        q = self.random_shape[2]
        self._profile(lib, log, "random_16_2", fs, pd, q, self.random_m, self.random_n_max)
        key = "random_16_2/fwm_search"
        ok, search = log.call(key, lib.factor.fwm_search, fs, self.random_fwm_n)
        if ok:
            counts = [r.words_checked for r in search.reports]
            log.check(key, search.found is None and
                      counts == [q ** (n + 2) for n in range(1, self.random_fwm_n + 1)],
                      f"span {search.found}, words checked {counts}")
        key = "random_16_2/contraction_profile"
        ok, cp = log.call(key, lib.cone.contraction_profile, fs, self.random_contraction_n)
        if ok:
            log.check(key, len(cp.per_word) == q ** (self.random_contraction_n + 2),
                      f"{len(cp.per_word)} words")

    @staticmethod
    def _profile(lib, log, system, fs, pd, q, m, n_max):
        key = f"{system}/variation_profile"
        ok, profile = log.call(key, lib.ganalysis.variation_profile, fs, pd, m, n_max)
        if not ok:
            return None
        log.check(key, nonincreasing(profile.var_hat), f"var_hat {profile.var_hat}")
        log.check(key, profile.pair_counts == pair_counts(q, m + 1, n_max),
                  f"pair counts {profile.pair_counts}")
        return profile


class BuildLadder(Workload):
    """Pipeline construction: recode, transfer matrix, Perron, factor."""

    name = "build_ladder"
    why = ("pipeline builds: seeded random float systems up to 576 blocks, "
           "small-gap Perron systems and exact row-stochastic systems; no sweeps")
    # (symbols, depth, image size, out-degree): 128, 432 and 576 blocks
    float_rungs = ((16, 2, 6, 8), (12, 3, 4, 6), (16, 3, 4, 6))
    gaps = (1e-2, 3e-3, 1e-3)
    # exact rungs: 8, 24 and 28 blocks
    exact_rungs = ((8, 1, 4, 5), (6, 2, 3, 4), (7, 2, 3, 4))

    def setup(self, lib, seed):
        rng = np.random.default_rng(seed)
        rungs = {}
        for n, depth, image, degree in self.float_rungs:
            doc = gen.random_float_system(rng, n, depth, image, degree)
            rungs[f"float_{n}_{depth}"] = (doc, False, n * degree ** max(depth - 1, 0), None)
        for eps in self.gaps:
            rungs[f"gap_{eps:g}"] = (gen.small_gap(eps), False, 2, eps)
        for n, depth, image, degree in self.exact_rungs:
            doc = gen.random_stochastic_system(rng, n, depth, image, degree)
            rungs[f"exact_{n}_{depth}"] = (doc, True, n * degree ** max(depth - 1, 0), None)
        systems = {k: lib.sysio.parse_system_dict(doc) for k, (doc, *_) in rungs.items()}
        return {"systems": systems, "rungs": rungs}

    def run_pass(self, lib, state, log):
        for key, (doc, exact, dim, eps) in state["rungs"].items():
            ok, built = log.call(key, build, lib, doc, exact)
            if not ok:
                continue
            tm, pd, fs = built
            log.check(key, tm.dimension == dim, f"block dimension {tm.dimension} != {dim}")
            if exact:
                log.check(key, pd.lam == 1 and exact_eigen(tm.exact_weights, pd),
                          f"lambda {pd.lam} fails the exact eigen-equations")
            else:
                log.check(key, pd.residual <= FLOAT_TOL, f"Perron residual {pd.residual}")
            if eps is not None:
                log.check(key, lambda_matches(pd.lam, eps),
                          f"lambda {pd.lam!r} vs closed form {gen.small_gap_lambda(eps)!r}")


def build(lib, doc: dict, exact: bool):
    """One pipeline build, layer by layer."""
    desc = lib.sysio.parse_system_dict(doc)
    shift, potential = lib.sysio.build_system(desc)
    tm = lib.potential.transfer_matrix(shift, potential)
    pd = lib.potential.perron_exact(tm) if exact else lib.potential.perron(tm)
    fs = lib.factor.build_factor(tm, desc.factor_map, lib.sft.Alphabet(desc.image_alphabet))
    return tm, pd, fs


def lambda_matches(lam: float, eps: float, rel: float = 1e-12) -> bool:
    """Small-gap Perron root within `rel` of 1 + eps (1 + sqrt 5) / 2."""
    want = gen.small_gap_lambda(eps)
    return abs(lam - want) <= rel * want


def exact_eigen(weights, pd) -> bool:
    """W h == lambda h and nu W == lambda nu in exact arithmetic."""
    d = len(weights)
    lam = Fraction(pd.lam)
    right = all(sum((weights[i][j] * pd.h[j] for j in range(d)), Fraction(0)) == lam * pd.h[i]
                for i in range(d))
    left = all(sum((pd.nu[i] * weights[i][j] for i in range(d)), Fraction(0)) == lam * pd.nu[j]
               for j in range(d))
    return right and left


class CliSession(Workload):
    """Every CLI command once, each a fresh `python -m gibbsfactor`."""

    name = "cli_session"
    why = ("every CLI command once as a fresh subprocess on example2 and rate_demo "
           "files plus one malformed file; interpreter and import start-up dominate")
    rss_children = True

    def __init__(self, root, env):
        self.root = root
        self.env = env

    def setup(self, lib, seed):
        (self.root / ".perfbench").mkdir(exist_ok=True)
        workdir = Path(tempfile.mkdtemp(prefix="cli-", dir=self.root / ".perfbench"))
        files = {"example2": gen.example2(), "rate_demo": gen.rate_demo()}
        systems = {}
        for name, doc in files.items():
            (workdir / f"{name}.json").write_text(json.dumps(doc), encoding="utf-8")
            systems[name] = lib.sysio.parse_system_dict(doc)
        (workdir / "malformed.json").write_text('{"schema_version": 1, "alphabet": ["0"',
                                                encoding="utf-8")
        ex2, rate, bad = (str(workdir / f) for f in
                          ("example2.json", "rate_demo.json", "malformed.json"))
        digests = {k: lib.sysio.system_digest(d) for k, d in systems.items()}
        ex2_digest, rate_digest = digests["example2"], digests["rate_demo"]
        commands = [
            # (label, argv, expected exit code, expected digest, results check)
            ("example2", ["example2"], 0, None,
             lambda r: r["lambda"] == "3" and abs(r["g_zero_run_limit"] - 1 / 3) < 1e-6),
            ("validate", ["validate", ex2], 0, ex2_digest, lambda r: r["valid"]),
            ("perron", ["perron", ex2, "--exact"], 0, ex2_digest,
             lambda r: r["lambda"] == "3"),
            ("measure", ["measure", ex2, "--word", "0,0", "--exact"], 0, ex2_digest,
             lambda r: Fraction(r["exact"]) > 0),
            ("project", ["project", ex2, "--word", "0,1", "--oracle", "--exact"], 0,
             ex2_digest, lambda r: r["match"]),
            ("project-verify", ["project-verify", ex2, "--max-len", "8"], 0, ex2_digest,
             lambda r: r["passed"] and r["checked_words"] == 510),
            ("fwm", ["fwm", ex2, "--max-N", "8"], 0, ex2_digest,
             lambda r: not r["fiber_wise_mixing"]),
            ("gfun", ["gfun", ex2, "--word", "00"], 0, ex2_digest,
             lambda r: 0 < r["value"] <= 1),
            ("gfun-limit", ["gfun-limit", ex2, "--tail", "0", "--jmax", "14"], 0,
             ex2_digest, lambda r: abs(r["value"] - 1 / 3) < 1e-6),
            ("variation", ["variation", rate, "--m", "10"], 0, rate_digest,
             lambda r: nonincreasing(r["var_hat"])),
            ("fit", ["fit", rate, "--m", "10", "--n-max", "8"], 0, rate_digest,
             lambda r: r["classification"] == "exponential"),
            ("eta", ["eta", rate, "--theta", "0.5", "--optimize"], 0, rate_digest,
             lambda r: 0 < r["eta"] < 1),
            ("contraction", ["contraction", rate, "--N", "1"], 0, rate_digest,
             lambda r: r["infinite_words"] == 0),
            ("validate_malformed", ["validate", bad], 2, None, None),
        ]
        return {"systems": systems, "workdir": workdir, "commands": commands}

    def teardown(self, state):
        shutil.rmtree(state["workdir"], ignore_errors=True)

    def run_pass(self, lib, state, log):
        for label, argv, code, digest, check in state["commands"]:
            ok, proc = log.call(label, subprocess.run,
                                [sys.executable, "-m", "gibbsfactor", *argv],
                                capture_output=True, text=True, timeout=120,
                                env=self.env, cwd=self.root)
            if ok:
                self._check(log, label, (proc.returncode, proc.stdout, proc.stderr),
                            argv[0], code, digest, check)

    def traced_pass(self, lib, state, log):
        """The same commands in-process through cli.main, so that the spans
        of every layer under each command are recorded."""
        for label, argv, code, digest, check in state["commands"]:
            ok, outcome = log.call(label, run_in_process, lib, argv)
            if ok:
                self._check(log, label, outcome, argv[0], code, digest, check)

    @staticmethod
    def _check(log, label, outcome, command, code, digest, check):
        returncode, stdout, stderr = outcome
        if returncode != code:
            log.fail(label, f"exit {returncode}, expected {code}: {stderr.strip()[-200:]}")
            return
        if code != 0:
            log.check(label, stdout == "" and stderr.startswith("error:"),
                      "rejection must print only an error line")
            return
        try:
            report = json.loads(stdout)
        except json.JSONDecodeError as e:
            log.fail(label, f"report does not parse: {e}")
            return
        log.check(label, report.get("command") == command, "wrong command in report")
        if digest is not None:
            log.check(label, report.get("inputs_digest") == digest, "inputs digest differs")
        log.check(label, check(report["results"]), f"results {report['results']}")


def run_in_process(lib, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = lib.cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def all_workloads(root, env) -> dict[str, Workload]:
    return {w.name: w for w in (VerifyEx2(), SweepFloat(), BuildLadder(), CliSession(root, env))}
