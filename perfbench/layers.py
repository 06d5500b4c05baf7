"""Which library functions the traced run wraps, and how their spans become
the per-layer metrics.

Busy times are in seconds of one pass of the workload plus its set-up;
counts repeat exactly from run to run.  A layer the workload does not
exercise reads 0.  Nothing in the library queues or runs in parallel, so
there is no per-layer waiting time to report.
"""

from __future__ import annotations

import statistics

from spans import Span, outermost, self_times


def _mode(args, kwargs, result):
    pd = args[1] if len(args) > 1 else kwargs["pd"]
    return ("exact" if pd.exact else "float"), None


def _size(args, kwargs, result):
    return None, len(result)


# "<module>.<function>" -> probe returning (tag, work count), or None
TRACED = {
    "sysio.parse_system": None,
    "sysio.parse_system_dict": None,
    "sysio.build_system": None,
    "sysio.build_pipeline": None,
    "sft.higher_block_recode": lambda a, k, r: (None, r.size),
    "sft.mixing_index": None,
    "potential.transfer_matrix": None,
    "potential.perron": lambda a, k, r: (None, r.iterations),
    "potential.perron_exact": None,
    "potential.cylinder_measure": None,
    "factor.build_factor": None,
    "factor.enumerate_image_words": _size,
    "factor.projected_measure": _mode,
    "factor.projected_measure_bruteforce": _mode,
    "factor.fwm_search": lambda a, k, r: (None, sum(x.words_checked for x in r.reports)),
    "cone.contraction_profile": lambda a, k, r: (None, len(r.per_word)),
    "cone.projective_diameter": None,
    "ganalysis.image_log_measure_map": _size,
    "ganalysis.variation_profile": None,
    "ganalysis.g_limit": lambda a, k, r: (None, len(r.stages)),
    "ganalysis.decay_fit": None,
    "ganalysis.eta_optimize": None,
}

MODULES = ("sysio", "sft", "potential", "factor", "cone", "ganalysis", "cli")

# Busy-time metrics: name -> functions whose outermost spans it sums.
BUSY = {
    "sysio.parse_s": ("sysio.parse_system", "sysio.parse_system_dict"),
    "sysio.build_pipeline_s": ("sysio.build_pipeline",),
    "sft.higher_block_recode_s": ("sft.higher_block_recode",),
    "sft.mixing_index_s": ("sft.mixing_index",),
    "potential.transfer_matrix_s": ("potential.transfer_matrix",),
    "potential.perron_s": ("potential.perron",),
    "potential.perron_exact_s": ("potential.perron_exact",),
    "potential.cylinder_measure_s": ("potential.cylinder_measure",),
    "factor.build_factor_s": ("factor.build_factor",),
    "factor.enumerate_image_words_s": ("factor.enumerate_image_words",),
    "factor.fwm_search_s": ("factor.fwm_search",),
    "cone.contraction_profile_s": ("cone.contraction_profile",),
    "cone.projective_diameter_s": ("cone.projective_diameter",),
    "ganalysis.image_log_measure_map_s": ("ganalysis.image_log_measure_map",),
    "ganalysis.variation_profile_s": ("ganalysis.variation_profile",),
    "ganalysis.g_limit_s": ("ganalysis.g_limit",),
    "ganalysis.decay_fit_s": ("ganalysis.decay_fit",),
    "ganalysis.eta_optimize_s": ("ganalysis.eta_optimize",),
}

# Self-time metrics for functions that call other traced functions.
SELF = {
    "sysio.build_pipeline_self_s": "sysio.build_pipeline",
    "potential.transfer_matrix_self_s": "potential.transfer_matrix",
    "potential.perron_self_s": "potential.perron",
    "potential.perron_exact_self_s": "potential.perron_exact",
    "cone.contraction_profile_self_s": "cone.contraction_profile",
    "ganalysis.variation_profile_self_s": "ganalysis.variation_profile",
}

CALLS = {
    "sft.mixing_index_calls": "sft.mixing_index",
    "potential.cylinder_measure_calls": "potential.cylinder_measure",
}

# Work counts summed from probe counts.
COUNTS = {
    "potential.perron_iterations": "potential.perron",
    "factor.image_words": "factor.enumerate_image_words",
    "factor.fwm_words_checked": "factor.fwm_search",
    "cone.contraction_words": "cone.contraction_profile",
    "ganalysis.sweep_words": "ganalysis.image_log_measure_map",
    "ganalysis.g_limit_stages": "ganalysis.g_limit",
}

# Microseconds per unit of work: name -> (busy metric, count metric).
RATES = {
    "potential.perron_us_per_iter": ("potential.perron_self_s",
                                     "potential.perron_iterations"),
    "factor.fwm_us_per_word": ("factor.fwm_search_s", "factor.fwm_words_checked"),
    "ganalysis.sweep_us_per_word": ("ganalysis.image_log_measure_map_s",
                                    "ganalysis.sweep_words"),
}

# Per-call microseconds of the two projection routes, split by arithmetic.
PER_WORD = {
    "factor.projected_measure_us_per_word": "factor.projected_measure",
    "factor.oracle_us_per_word": "factor.projected_measure_bruteforce",
}
MODES = ("exact", "float")

CLI_COMMANDS = (
    "example2", "validate", "perron", "measure", "project", "project-verify",
    "fwm", "gfun", "gfun-limit", "variation", "fit", "eta", "contraction",
    "validate_malformed",
)


def metric_units() -> dict[str, str]:
    """Every per-layer metric with its unit, in report order."""
    units = {}
    for name in BUSY:
        units[name] = "s"
    units["sft.block_dim"] = "count"
    for name in SELF:
        units[name] = "s"
    for name in CALLS:
        units[name] = "count"
    for name in COUNTS:
        units[name] = "count"
    for name in RATES:
        units[name] = "us"
    for name in PER_WORD:
        for mode in MODES:
            units[f"{name}.{mode}"] = "us"
    units["cli.import_s"] = "s"
    for cmd in CLI_COMMANDS:
        units[f"cli.command_ms.{cmd}"] = "ms"
    for module in MODULES:
        units[f"{module}.errors"] = "count"
    units["trace.overhead_pct"] = "%"
    units["trace.spans"] = "count"
    return units


def per_layer(spans: list[Span], passes: int, expected_errors: set,
              import_s: float, command_s: dict[str, float], cli_failures: int,
              overhead_pct: float) -> dict[str, float]:
    """Per-layer metrics from the spans of one traced set-up and `passes`
    traced passes: set-up spans count once, pass spans are averaged per
    pass.  `expected_errors` lists op keys that are meant to fail (the
    malformed CLI input), whose exceptions are not layer errors; the CLI's
    own errors are its commands that failed their checks, `cli_failures`."""
    weights = [1.0 if s.op[0] == "setup" else 1.0 / passes for s in spans]
    own = self_times(spans)
    out: dict[str, float] = {}
    for name, functions in BUSY.items():
        out[name] = sum(spans[i].duration * weights[i]
                        for i in outermost(spans, set(functions)))
    dims = [s.count for s in spans if s.name == "sft.higher_block_recode" and s.count]
    out["sft.block_dim"] = max(dims, default=0)
    for name, fn in SELF.items():
        out[name] = sum(own[i] * weights[i] for i, s in enumerate(spans) if s.name == fn)
    for name, fn in CALLS.items():
        out[name] = round(sum(w for s, w in zip(spans, weights) if s.name == fn))
    for name, fn in COUNTS.items():
        out[name] = round(sum((s.count or 0) * w for s, w in zip(spans, weights)
                              if s.name == fn))
    for name, (busy, count) in RATES.items():
        out[name] = 1e6 * out[busy] / out[count] if out[count] else 0.0
    for name, fn in PER_WORD.items():
        for mode in MODES:
            chosen = [s.duration for s in spans if s.name == fn and s.tag == mode]
            out[f"{name}.{mode}"] = 1e6 * statistics.fmean(chosen) if chosen else 0.0
    out["cli.import_s"] = import_s
    for cmd in CLI_COMMANDS:
        out[f"cli.command_ms.{cmd}"] = 1e3 * command_s.get(cmd, 0.0)
    for module in MODULES[:-1]:
        out[f"{module}.errors"] = round(sum(
            w for s, w in zip(spans, weights)
            if s.error and s.name.startswith(module + ".") and s.op[1] not in expected_errors))
    out["cli.errors"] = cli_failures
    out["trace.overhead_pct"] = overhead_pct
    out["trace.spans"] = round(sum(weights))
    return out
