"""Command-line surface: parse a system file, run one computation, emit a
machine-readable report.

Reports are deterministic given inputs and flags: JSON with sorted keys
(default) or flat key,value CSV.  Measures are reported as natural-log
values plus a decimal rendering, with an exact "p/q" field in exact mode.
Each command takes --format and, of --exact, --tol and --budget, only the
flags it reads, which its report's diagnostics echo; any other flag is
refused with the command's own usage.  Each subparser names its handler:
:func:`main` builds the command's pipeline once (:func:`_pipeline`) and
hands it to the handler, which returns the results and the exit code.
Exit codes: 0 success, 1 a checked mathematical property failed (never a
usage problem), 2 usage or input errors, 3 an unexpected internal error
(reported as one "error:" line, never a traceback).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import warnings
from fractions import Fraction

import numpy as np

from . import fixtures
from .cone import contraction_profile
from .errors import (
    ConvergenceError,
    EnumerationLimitError,
    ExactModeError,
    NotMixingError,
    ValidationError,
)
from .factor import (
    fwm_search,
    projected_measure,
    projected_measure_bruteforce,
    route_error,
    verify_projection,
)
from .ganalysis import (
    decay_fit,
    eta_general,
    eta_optimize,
    g_approx,
    g_limit,
    variation_profile,
)
from .potential import cylinder_measure, holder_envelope, log_ln1_sup_norm
from .sft import DEFAULT_MAX_WORDS, mixing_index
from .sysio import (
    Pipeline,
    build_pipeline,
    format_word,
    parse_system,
    parse_word,
    system_digest,
)

USAGE_ERROR = 2
PROPERTY_VIOLATION = 1
INTERNAL_ERROR = 3


def _sanitize(value):
    """Make results JSON-friendly and deterministic."""
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, (np.floating, np.integer)):
        value = value.item()
    if isinstance(value, float):
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        if math.isnan(value):
            return "nan"
        return value
    if isinstance(value, dict):
        return {str(k): _sanitize(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_sanitize(v) for v in value]
    if isinstance(value, np.ndarray):
        return [_sanitize(v) for v in value.tolist()]
    return value


def _flatten(prefix: str, value, rows: list):
    if isinstance(value, dict):
        for k in sorted(value):
            _flatten(f"{prefix}.{k}" if prefix else str(k), value[k], rows)
    elif isinstance(value, list):
        for i, v in enumerate(value):
            _flatten(f"{prefix}[{i}]", v, rows)
    else:
        rows.append((prefix, value))


def emit_report(report: dict, fmt: str):
    if fmt == "json":
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        rows: list = [("key", "value")]
        _flatten("", report, rows)
        # values holding a comma (words such as 0,1) or a quote get quoted
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerows((key, str(value)) for key, value in rows)
    sys.stdout.flush()  # a closed pipe fails here, inside the caller's error handling


def _measure_fields(value, exact: bool) -> dict:
    """Uniform rendering of a measure: log, decimal, and p/q when exact."""
    if exact:
        fr = value
        out = {"exact": str(fr), "measure": float(fr)}
        # numerator/denominator logs stay finite where float(fr) underflows
        out["log_measure"] = (
            math.log(fr.numerator) - math.log(fr.denominator) if fr > 0 else -math.inf
        )
        return out
    return {"log_measure": value,
            "measure": math.exp(value) if value != -math.inf else 0.0}


def cmd_validate(args, pipe):
    desc = pipe.desc
    results = {
        "valid": True,
        "alphabet_size": len(desc.alphabet),
        "mixing_index": mixing_index(pipe.sft),
        "block_length": pipe.tm.recoding.block_length,
        "block_count": pipe.tm.dimension,
        "has_factor": desc.has_factor,
    }
    if desc.has_factor:
        results["image_alphabet_size"] = len(desc.image_alphabet)
    return results, 0


def cmd_perron(args, pipe):
    pd = pipe.pd
    results = {"lambda": pd.lam, "h": pd.h, "nu": pd.nu, "residual": pd.residual,
               "iterations": pd.iterations, "exact": pd.exact}
    return results, 0


def cmd_measure(args, pipe):
    word = parse_word(args.word, pipe.sft.alphabet)
    value = cylinder_measure(pipe.pd, word)
    results = {"word": format_word(word, pipe.sft.alphabet)}
    results.update(_measure_fields(value, pipe.pd.exact))
    return results, 0


def cmd_project(args, pipe):
    fs = pipe.factor
    word = parse_word(args.word, fs.image_alphabet)
    value = projected_measure(fs, pipe.pd, word)
    results = {"word": format_word(word, fs.image_alphabet)}
    results.update(_measure_fields(value, pipe.pd.exact))
    code = 0
    if args.oracle:
        oracle = projected_measure_bruteforce(fs, pipe.pd, word, args.budget)
        results["oracle"] = _measure_fields(oracle, pipe.pd.exact)
        match = route_error(value, oracle, pipe.pd.exact) <= args.tol
        results["match"] = match
        code = 0 if match else PROPERTY_VIOLATION
    return results, code


def cmd_project_verify(args, pipe):
    fs = pipe.factor
    check = verify_projection(fs, pipe.pd, args.max_len, args.tol, args.budget)
    results = {
        "checked_words": check.checked_words,
        "max_len": args.max_len,
        "max_relative_error": check.max_relative_error,
        "failures": [format_word(w, fs.image_alphabet) for w in check.failures[:20]],
        "passed": check.passed,
    }
    return results, 0 if check.passed else PROPERTY_VIOLATION


def _block_name(pipe, block: int) -> str:
    """A domain block's symbol names, concatenated, or joined by "," when
    one of them is longer than one character."""
    names = [pipe.sft.alphabet.name(s) for s in pipe.tm.recoding.block_array[block]]
    return ("," if any(len(n) > 1 for n in names) else "").join(names)


def cmd_fwm(args, pipe):
    fs = pipe.factor
    result = fwm_search(fs, args.max_N, args.budget)
    reports = []
    for rep in result.reports:
        witnesses = [
            {
                "word": format_word(w, fs.image_alphabet),
                "first": _block_name(pipe, a0),
                "last": _block_name(pipe, aN),
            }
            for (w, a0, aN) in rep.witnesses[:10]
        ]
        reports.append({"N": rep.n, "holds": rep.holds,
                        "words_checked": rep.words_checked,
                        "witnesses": witnesses})
    results = {
        "found": result.found,
        "fiber_wise_mixing": result.found is not None,
        "max_N": args.max_N,
        "recoded_coordinates": fs.block_length > 1,
        "reports": reports,
    }
    return results, 0


def cmd_gfun(args, pipe):
    fs = pipe.factor
    word = parse_word(args.word, fs.image_alphabet)
    approx = g_approx(fs, pipe.pd, word)
    results = {
        "word": format_word(word, fs.image_alphabet),
        "n": approx.n,
        "value": float(approx.value),
    }
    if pipe.pd.exact:
        results["exact"] = str(approx.value)
    return results, 0


def cmd_gfun_limit(args, pipe):
    fs = pipe.factor
    prefix = parse_word(args.prefix, fs.image_alphabet) if args.prefix else ()
    tail = parse_word(args.tail, fs.image_alphabet)
    res = g_limit(fs, pipe.pd, prefix, tail, jmax=args.jmax, tol=args.tol)
    results = {
        "prefix": format_word(prefix, fs.image_alphabet),
        "tail": format_word(tail, fs.image_alphabet),
        "value": res.value,
        "error_estimate": res.error_estimate,
        "converged": res.converged,
        "stages": [{"n": n, "value": v} for n, v in res.stages],
    }
    if res.exact_stages is not None:
        # late stages hold integers past the int -> str digit limit (4300
        # digits by default; none before Python 3.10.7), lifted for these
        # conversions only
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if limit:
            sys.set_int_max_str_digits(0)
        try:
            results["exact_stages"] = [str(x) for x in res.exact_stages]
        finally:
            if limit:
                sys.set_int_max_str_digits(limit)
    return results, 0


def _profile(args, pipe):
    """Variation profile of variation and fit; the default fit window is the
    first third of m, keeping truncation bias subdominant."""
    n_max = max(2, args.m // 3) if args.n_max is None else args.n_max
    return variation_profile(pipe.factor, pipe.pd, args.m, n_max, args.budget)


def cmd_variation(args, pipe):
    profile = _profile(args, pipe)
    results = {
        "m": profile.m,
        "n": list(profile.n_values),
        "var_hat": list(profile.var_hat),
        "pair_counts": list(profile.pair_counts),
    }
    return results, 0


def cmd_fit(args, pipe):
    profile = _profile(args, pipe)
    fit = decay_fit(profile, n0=args.n0)
    results = {
        "m": profile.m,
        "n0": args.n0,
        "window": fit.window,
        "points": fit.points,
        "var_hat": list(profile.var_hat),
        "classification": fit.classification,
        "exp_rate": fit.exp_rate,
        "poly_exponent": fit.poly_exponent,
        "r_squared_exp": fit.r_squared_exp,
        "r_squared_poly": fit.r_squared_poly,
    }
    return results, 0


def cmd_eta(args, pipe):
    env = holder_envelope(pipe.potential, args.theta)
    log_ln1 = log_ln1_sup_norm(pipe.tm, args.N)
    if args.optimize:
        bound = eta_optimize(args.theta, env.holder_constant, n_steps=args.N,
                             sup_norm=env.sup_norm, log_ln1_sup_norm=log_ln1,
                             grid_size=args.grid)
    else:
        bound = eta_general(args.theta, env.holder_constant, env.sup_norm,
                            log_ln1, args.N, args.sigma)
    results = {
        "theta": bound.theta,
        "sigma": bound.sigma,
        "N": bound.n_steps,
        "holder_constant": env.holder_constant,
        "sup_norm": env.sup_norm,
        "cone_constant": bound.cone_constant,
        "m_const": bound.m_const,
        "eta": bound.eta,
        "prefactor": bound.prefactor,
        "rate_per_symbol": bound.eta ** (1.0 / bound.n_steps),
    }
    if bound.full_shift_eta is not None:
        results["full_shift_eta"] = bound.full_shift_eta
    return results, 0


def cmd_contraction(args, pipe):
    profile = contraction_profile(pipe.factor, args.N, args.budget)
    results = {
        "N": profile.n,
        "words": len(profile.per_word),
        "max_delta": profile.max_delta,
        "max_tau": profile.max_tau,
        "infinite_words": profile.infinite_words,
    }
    return results, 0


def cmd_example2(args, pipe):
    fs = pipe.factor
    limit = g_limit(fs, pipe.pd, (), (0,), jmax=args.jmax, tol=1e-9)
    fwm = fwm_search(fs, 8, args.budget)
    results = {
        "lambda": pipe.pd.lam,
        "h": pipe.pd.h,
        "nu": pipe.pd.nu,
        "g_zero_run_limit": limit.value,
        "fiber_wise_mixing": fwm.found is not None,
        "fwm_search_max_N": 8,
    }
    return results, 0


class _CommandParser(argparse.ArgumentParser):
    """A command's parser.  It refuses leftover arguments itself, so the error
    shows the command's usage; argparse would hand them to the top-level
    parser, whose usage names neither the command nor its flags."""

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras


def build_parser() -> argparse.ArgumentParser:
    # one parent per common flag, given only to the commands that read it
    flag = {name: argparse.ArgumentParser(add_help=False)
            for name in ("exact", "tol", "budget", "format")}
    flag["exact"].add_argument("--exact", action="store_true",
                               help="exact rational arithmetic (weight-mode rational tables)")
    flag["tol"].add_argument("--tol", type=float, default=1e-10,
                             help="route tolerance of project --oracle and project-verify; "
                                  "stage-convergence tolerance of gfun-limit")
    flag["budget"].add_argument("--budget", type=int, default=DEFAULT_MAX_WORDS,
                                help="enumeration budget: nodes visited by a word sweep, or "
                                     "preimage prefixes visited by the brute-force oracle "
                                     "(per word for project, per word length for "
                                     "project-verify), counting every prefix and not only "
                                     "finished words")
    flag["format"].add_argument("--format", choices=("json", "csv"), default="json")

    parser = argparse.ArgumentParser(
        prog="gibbsfactor",
        description="Gibbs states of locally constant potentials, their 1-block "
                    "factor projections, and the regularity of the projected "
                    "g-function.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_CommandParser)

    def add(name, handler, flags=(), projects=True, needs_file=True, **kwargs):
        p = sub.add_parser(name, parents=[flag[f] for f in (*flags, "format")], **kwargs)
        p.set_defaults(handler=handler, projects=projects)
        if needs_file:
            p.add_argument("system", help="system description JSON file")
        return p

    add("validate", cmd_validate, projects=False, help="parse and validate a system file")
    add("perron", cmd_perron, ("exact",), projects=False,
        help="leading eigendata of the transfer matrix")
    p = add("measure", cmd_measure, ("exact",), projects=False,
            help="Gibbs measure of a domain cylinder")
    p.add_argument("--word", required=True)
    p = add("project", cmd_project, ("exact", "tol", "budget"),
            help="projected measure of an image cylinder")
    p.add_argument("--word", required=True)
    p.add_argument("--oracle", action="store_true",
                   help="also run the brute-force oracle and compare")
    p = add("project-verify", cmd_project_verify, ("exact", "tol", "budget"),
            help="oracle comparison over all image words")
    p.add_argument("--max-len", type=int, default=8)
    p = add("fwm", cmd_fwm, ("budget",), help="fiber-wise mixing search")
    p.add_argument("--max-N", type=int, default=8)
    p = add("gfun", cmd_gfun, ("exact",), help="g-function approximant at an image word")
    p.add_argument("--word", required=True)
    p = add("gfun-limit", cmd_gfun_limit, ("exact", "tol"),
            help="g at an eventually periodic image point")
    p.add_argument("--prefix", default="")
    p.add_argument("--tail", required=True)
    p.add_argument("--jmax", type=int, default=16)
    p = add("variation", cmd_variation, ("budget",),
            help="variation profile of log g at truncation m")
    p.add_argument("--m", type=int, default=14)
    p.add_argument("--n-max", type=int, default=None)
    p = add("fit", cmd_fit, ("budget",), help="variation profile plus decay classification")
    p.add_argument("--m", type=int, default=14)
    p.add_argument("--n-max", type=int, default=None)
    p.add_argument("--n0", type=int, default=2)
    p = add("eta", cmd_eta, projects=False, help="theoretical contraction-rate bound")
    p.add_argument("--theta", type=float, default=0.5)
    rate = p.add_mutually_exclusive_group(required=True)
    rate.add_argument("--sigma", type=float)
    rate.add_argument("--optimize", action="store_true")
    p.add_argument("--N", type=int, default=1)
    p.add_argument("--grid", type=int, default=64)
    p = add("contraction", cmd_contraction, ("budget",),
            help="projective diameters of span-N block products")
    p.add_argument("--N", type=int, default=1)
    p = add("example2", cmd_example2, ("budget",), needs_file=False,
            help="run the built-in four-symbol example end to end")
    p.add_argument("--jmax", type=int, default=14)
    return parser


def _check_numeric_flags(args) -> None:
    """Reject flag values no command can honour, before any work is done."""
    tol = getattr(args, "tol", 1.0)
    if not (math.isfinite(tol) and tol > 0):
        raise ValidationError(f"--tol must be finite and > 0, got {tol}")
    for name in ("budget", "max_len", "n0"):
        value = getattr(args, name, 1)
        if value < 1:
            raise ValidationError(f"--{name.replace('_', '-')} must be >= 1, got {value}")


def _pipeline(args) -> Pipeline:
    """The command's pipeline: its system file in the arithmetic of --exact
    (float for a command without it), or Example 2 in exact mode for the
    command that takes no file; a command that projects needs a factor map."""
    if "system" not in args:
        return build_pipeline(fixtures.example2(), exact=True)
    pipe = build_pipeline(parse_system(args.system), exact=getattr(args, "exact", False))
    if args.projects and pipe.factor is None:
        raise ValidationError("this command needs a factor map in the system file")
    return pipe


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # warnings (an ignored table entry) are held back: a rejection prints
    # only its error line, a success one "warning:" line per warning
    with warnings.catch_warnings(record=True) as caught:
        try:
            _check_numeric_flags(args)
            pipe = _pipeline(args)
            results, code = args.handler(args, pipe)
            report = {
                "schema_version": 1,
                "command": args.command,
                "inputs_digest": system_digest(pipe.desc),
                "results": _sanitize(results),
                "diagnostics": {k: getattr(args, k) for k in ("exact", "tol", "budget")
                                if hasattr(args, k)},
            }
            emit_report(report, args.format)
        except BrokenPipeError as e:
            # stdout was closed early; point it at devnull so that the
            # interpreter's flush at exit stays quiet
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            print(f"error: {e}", file=sys.stderr)
            return USAGE_ERROR
        except (ValidationError, ExactModeError, NotMixingError, ConvergenceError,
                EnumerationLimitError, OSError) as e:
            print(f"error: {e}", file=sys.stderr)
            return USAGE_ERROR
        except Exception as e:
            print(f"error: internal error: {type(e).__name__}: {e}", file=sys.stderr)
            return INTERNAL_ERROR
    for w in caught:
        print(f"warning: {w.message}", file=sys.stderr)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
