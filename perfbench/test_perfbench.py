"""Self-tests of the benchmark's own helpers.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

import gen
import layers
import run
import spans
import workloads as wl

LIB = run.load_library()


@pytest.fixture
def workdir(request):
    """A directory inside the checkout's ignored output directory."""
    path = run.OUT / f"selftest-{request.node.name}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail_percentile(range(1000)) == (99.0, 989)
    assert run.tail_percentile(range(999))[0] == 95.0
    assert run.tail_percentile(range(20)) == (50.0, 9)
    assert run.tail_percentile(range(19)) is None
    for n in (20, 57, 100, 101, 4092):
        p, value = run.tail_percentile(range(n))
        assert sum(1 for x in range(n) if x > value) >= 10
        assert (p, value) == run.tail_percentile(list(range(n))[::-1])


def test_reference_scaling_cancels_host_speed():
    slow, fast = 2 * wl.REFERENCE_SECONDS, wl.REFERENCE_SECONDS / 2
    assert wl.Reference.scale(0.5, slow, slow) == pytest.approx(0.25)
    assert wl.Reference.scale(0.5 / 4, fast, fast) == pytest.approx(0.25)
    assert wl.Reference.scale(0.3, slow, fast) == pytest.approx(0.3 / 1.25)


def test_reference_samples_at_most_once_per_interval(monkeypatch):
    monkeypatch.setattr(wl, "REFERENCE_INTERVAL", 3600.0)
    ref = wl.Reference()
    first = ref.sample()
    assert ref.sample() == first and len(ref.samples) == 1


def _span(name, start, end, parent, op=(1, "k")):
    return spans.Span(name, start, end, parent, op, None, None, None)


def test_self_time_subtracts_direct_children_only():
    tree = [
        _span("a", 0.0, 10.0, None),
        _span("b", 1.0, 3.0, 0),
        _span("c", 4.0, 8.0, 0),
        _span("d", 5.0, 6.0, 2),
    ]
    assert spans.self_times(tree) == pytest.approx([4.0, 2.0, 3.0, 1.0])


def test_outermost_counts_nested_calls_of_one_metric_once():
    tree = [
        _span("parse_file", 0.0, 5.0, None),
        _span("parse_dict", 1.0, 4.0, 0),
        _span("other", 6.0, 9.0, None),
        _span("parse_dict", 7.0, 8.0, 2),
    ]
    assert spans.outermost(tree, {"parse_file", "parse_dict"}) == [0, 3]


def test_per_layer_weights_setup_once_and_passes_per_pass():
    tree = [
        _span("sysio.parse_system_dict", 0.0, 1.0, None, ("setup", "")),
        _span("sysio.parse_system_dict", 2.0, 4.0, None, (1, "x")),
        _span("sysio.parse_system_dict", 5.0, 9.0, None, (2, "x")),
    ]
    out = layers.per_layer(tree, 2, set(), 0.3, {}, 0, 1.0)
    assert out["sysio.parse_s"] == pytest.approx(1.0 + (2.0 + 4.0) / 2)
    assert set(out) == set(layers.metric_units())


@pytest.mark.parametrize("eps", [1e-2, 3e-3, 1e-3, 3e-4])
def test_small_gap_closed_form(eps):
    m = np.array([[1.0, eps], [eps, 1.0 + eps]])
    lam = max(np.linalg.eigvals(m).real)
    assert wl.lambda_matches(lam, eps)
    assert wl.lambda_matches(gen.small_gap_lambda(eps), eps)
    assert not wl.lambda_matches(lam * (1 + 1e-10), eps)


def test_small_gap_perron_meets_closed_form():
    tm, pd, _ = wl.build(LIB, gen.small_gap(1e-2), exact=False)
    assert wl.lambda_matches(pd.lam, 1e-2)


def test_generated_inputs_depend_only_on_the_seed():
    def doc(seed):
        return gen.random_float_system(np.random.default_rng(seed), 16, 2, 6, 8)

    assert doc(3) == doc(3)
    assert doc(3) != doc(4)
    adj = np.array(doc(3)["adjacency"])
    assert (adj.sum(axis=1) == 8).all()
    assert gen.mixing_index(adj) == 3


def test_random_system_work_does_not_depend_on_the_seed():
    for seed in (1, 2):
        rng = np.random.default_rng(seed)
        tm, pd, fs = wl.build(LIB, gen.random_float_system(rng, 12, 2, 4, 6), exact=False)
        assert tm.dimension == 12 * 6
        assert len(LIB.factor.enumerate_image_words(fs, 4)) == 4**4
        assert LIB.factor.fwm_search(fs, 2).found is None


class _Probe(wl.Workload):
    """Records, during each pass, whether any traced function is wrapped."""

    name = "probe"

    def __init__(self):
        self.seen = []

    def setup(self, lib, seed):
        return {"systems": {}}

    def run_pass(self, lib, state, log):
        log.call("noop", lambda: None)
        self.seen.append(any(
            spans.is_wrapped(getattr(getattr(lib, q.split(".")[0]), q.split(".")[1]))
            for q in layers.TRACED))


def test_untraced_run_installs_no_wrapper(monkeypatch):
    def refuse(self):
        raise AssertionError("untraced run installed wrappers")

    monkeypatch.setattr(spans.Tracer, "install", refuse)
    probe = _Probe()
    run.measure(probe, LIB, 1, 0.0)
    assert probe.seen == [False]


def test_traced_run_wraps_then_restores(monkeypatch, workdir):
    monkeypatch.setattr(run, "OUT", workdir)
    original = LIB.potential.mixing_index
    probe = _Probe()
    run.traced(probe, LIB, 1, 0.0)
    assert probe.seen == [False, True]
    assert LIB.potential.mixing_index is original
    assert LIB.sft.mixing_index is original


def test_tracer_wraps_names_imported_across_modules():
    tracer = spans.Tracer("gibbsfactor", layers.TRACED)
    tracer.install()
    try:
        assert spans.is_wrapped(LIB.potential.mixing_index)
        assert spans.is_wrapped(LIB.sft.mixing_index)
        assert spans.is_wrapped(LIB.cli.g_limit)
        LIB.sft.mixing_index(LIB.sysio.build_system(
            LIB.sysio.parse_system_dict(gen.example2()))[0])
    finally:
        tracer.uninstall()
    assert not spans.is_wrapped(LIB.potential.mixing_index)
    assert [s.name for s in tracer.spans] == [
        "sysio.parse_system_dict", "sysio.build_system", "sft.mixing_index"]


def test_benchmark_json_matches_emitted_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.metric_units()
    assert {w["name"] for w in spec["workloads"]} == set(wl.all_workloads(run.ROOT, {}))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


def test_refuses_to_run_without_the_library(workdir):
    shutil.copytree(run.ROOT / "perfbench", workdir / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", workdir)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify_ex2", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=workdir, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""
