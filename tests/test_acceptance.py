"""Acceptance suite: one test per exit criterion, each printing a pass line
with its runtime (visible with `pytest -s` or `-v`).

Run with:  pytest tests/test_acceptance.py -v -s
"""

import time
from fractions import Fraction

import numpy as np
import pytest

import gibbsfactor as gf
from gibbsfactor import fixtures
from gibbsfactor.sft import word_matrix


def _report(number, label, t0, budget):
    elapsed = time.monotonic() - t0
    assert elapsed < budget, f"criterion {number} exceeded its {budget}s budget"
    print(f"ACCEPTANCE {number} ({label}): PASS ({elapsed:.2f} s)")


def test_criterion_1_exact_perron_data(ex2_exact):
    """Exact-mode Perron data of the built-in example."""
    t0 = time.monotonic()
    pipe = gf.build_pipeline(fixtures.example2(), exact=True)
    assert pipe.pd.lam == Fraction(3)
    h = pipe.pd.h
    assert all(x == h[0] for x in h)  # proportional to (1,1,1,1)
    assert pipe.pd.nu == (Fraction(1, 6), Fraction(1, 3), Fraction(1, 3), Fraction(1, 6))
    assert pipe.pd.h == (Fraction(1),) * 4  # with <h,nu> = 1 the scale is pinned
    _report(1, "exact Perron data: lambda=3, h~(1,1,1,1), nu=(1,2,2,1)/6", t0, 1.0)


@pytest.fixture(scope="module")
def criterion_2_pipelines(ex2_exact):
    """Example 2 in float mode, three seeded random float systems, and
    Example 2 in exact mode (last, so that a failing float check stops
    before the slowest system)."""
    randomized = [
        fixtures.random_mixing_system(101, 5, 1, 3, density=0.5),
        fixtures.random_mixing_system(202, 4, 2, 2, density=0.5),
        fixtures.random_mixing_system(303, 6, 1, 3, density=0.35),
    ]
    return ([gf.build_pipeline(fixtures.example2(), exact=False)]
            + [gf.build_pipeline(desc) for desc in randomized] + [ex2_exact])


def check_projection_oracle_equivalence(pipelines):
    """Both routes on every admissible image word of length 1..10, one whole
    length at a time: exactly equal in exact mode, within 1e-10 relative in
    float mode, with -inf matching only -inf."""
    for pipe in pipelines:
        fs, pd = pipe.factor, pipe.pd
        check = gf.verify_projection(fs, pd, 10, 1e-10)
        assert check.passed, check.failures[:5]
        assert check.checked_words == sum(len(gf.enumerate_image_words(fs, n))
                                          for n in range(1, 11))
        if pd.exact:
            assert check.max_relative_error == 0.0
            assert check.checked_words == 2046  # full binary image


def test_criterion_2_projection_oracle_equivalence(criterion_2_pipelines):
    """Block-operator projection equals the brute-force preimage sum on all
    image words of length <= 10: exactly for the built-in example (exact
    mode), to 1e-10 relative for Example 2 in float mode and randomized
    float systems."""
    t0 = time.monotonic()
    check_projection_oracle_equivalence(criterion_2_pipelines)
    _report(2, "projection formula == brute-force oracle, words up to length 10",
            t0, 30.0)


def test_criterion_2_fails_on_misnormalised_oracle(criterion_2_pipelines,
                                                   misnormalised_oracle):
    with pytest.raises(AssertionError):
        check_projection_oracle_equivalence(criterion_2_pipelines)


def test_criterion_3_g_function_of_example(ex2_exact, ex2_float):
    """g at the zero-run point, the 1/(3m) gap law, and the polynomial
    variation decay reproducing the non-Hölder conclusion."""
    t0 = time.monotonic()
    fs, pd = ex2_exact.factor, ex2_exact.pd
    limit = gf.g_limit(fs, pd, (), (0,), jmax=14, tol=1e-9)
    assert abs(limit.value - 1 / 3) < 1e-6

    for m in (16, 32, 64):
        res = gf.g_limit(fs, pd, (0,) * m, (1,), jmax=14, tol=1e-10)
        gap = m * abs(limit.value - res.value)
        assert 0.30 <= gap <= 0.37

    prof = gf.variation_profile(ex2_float.factor, ex2_float.pd, 14, 4)
    fit = gf.decay_fit(prof, n0=2)
    assert fit.classification == "polynomial"
    assert 0.8 <= fit.poly_exponent <= 1.2
    _report(3, "g(0-run)=1/3, gap law m*|dg|->1/3, polynomial variation decay",
            t0, 60.0)


def test_criterion_4_fiber_wise_mixing(ex2_exact, full2_exact, rate_demo_float):
    """Mixing search: NotFound with a zero-run witness on the example;
    span 1 on full-shift fixtures."""
    t0 = time.monotonic()
    res = gf.fwm_search(ex2_exact.factor, 8)
    assert res.found is None
    last = res.reports[-1]
    assert last.n == 8 and not last.holds
    word, a0, aN = last.witnesses[0]
    assert word == (0,) * 9 and a0 == 1 and aN == 0

    assert gf.fwm_search(full2_exact.factor, 3).found == 1
    collapse = gf.build_pipeline(fixtures.three_to_two_collapse(), exact=True)
    assert gf.fwm_search(collapse.factor, 3).found == 1
    assert gf.fwm_search(rate_demo_float.factor, 3).found == 1
    _report(4, "fwm: NotFound(zero-run witness) on example, N=1 on full shifts",
            t0, 10.0)


def test_criterion_5_birkhoff_contraction_suite():
    """1000 seeded random positive instances satisfy the contraction
    inequality with zero violations."""
    t0 = time.monotonic()
    rng = np.random.default_rng(20240801)
    violations = 0
    for _ in range(1000):
        dim = int(rng.integers(2, 7))
        m = rng.random((dim, dim)) + 1e-3
        u = rng.random(dim) + 1e-3
        v = rng.random(dim) + 1e-3
        lhs = gf.hilbert_distance(m @ u, m @ v)
        rhs = gf.birkhoff_coefficient(m) * gf.hilbert_distance(u, v)
        if lhs > rhs + 1e-9:
            violations += 1
    assert violations == 0
    _report(5, "Birkhoff inequality on 1000 random instances, zero violations",
            t0, 5.0)


def test_criterion_6_dual_cone_formula():
    """Coordinate-functional supremum reproduces the closed form on 500
    seeded pairs; 10000 sampled dual pairs never exceed it."""
    t0 = time.monotonic()
    rng = np.random.default_rng(77)
    sampled_total = 0
    for _ in range(500):
        dim = int(rng.integers(2, 9))
        x = rng.random(dim) + 1e-3
        y = rng.random(dim) + 1e-3
        rep = gf.dual_formula_check(x, y, sample_count=20,
                                    seed=int(rng.integers(1 << 31)))
        assert abs(rep.coordinate_sup - rep.closed_form) <= 1e-12
        assert rep.sampled_max <= rep.closed_form + 1e-12
        sampled_total += rep.samples
    assert sampled_total == 10_000
    _report(6, "dual-functional formula: coordinate sup == closed form", t0, 5.0)


def test_criterion_7_rate_identity():
    """eta(theta, 0, sigma) == sigma to 1e-12; the general bound rejects
    sigma <= theta^N."""
    t0 = time.monotonic()
    rng = np.random.default_rng(7)
    for _ in range(100):
        sigma = float(rng.uniform(0.05, 0.95))
        theta = float(rng.uniform(0.01, 0.99)) * sigma
        assert abs(gf.eta_full_shift(theta, 0.0, sigma) - sigma) <= 1e-12
    for sigma in (0.25, 0.2, 0.1):
        with pytest.raises(gf.ValidationError):
            gf.eta_general(0.5, 1.0, 0.3, 2.0, 2, sigma)
    _report(7, "eta identity at constant potential; sigma constraint enforced",
            t0, 1.0)


def test_criterion_8_rate_bound_end_to_end(rate_demo_float):
    """Fiber-wise mixing fixture: exponential variation decay with a clean
    fit, and the observed rate is within the optimized theoretical bound."""
    t0 = time.monotonic()
    pipe = rate_demo_float
    assert gf.fwm_search(pipe.factor, 3).found == 1
    prof = gf.variation_profile(pipe.factor, pipe.pd, 12, 10)
    fit = gf.decay_fit(prof, n0=2)
    assert fit.classification == "exponential"
    assert fit.r_squared_exp >= 0.98
    env = gf.holder_envelope(pipe.potential, 0.5)
    assert env.variations[0] == pytest.approx(0.4, abs=1e-12)
    bound = gf.eta_optimize(env.theta, env.holder_constant, n_steps=1,
                            full_shift=True, grid_size=64)
    verdict = gf.rate_compare(fit, bound)
    assert verdict.satisfied
    assert verdict.empirical_rate <= verdict.theoretical_rate + 0.02
    _report(8, f"exponential decay rho={fit.exp_rate:.3f} within bound "
               f"eta={bound.eta:.3f}", t0, 60.0)


def _float_consistency(pipe, max_len):
    """Vectorized additivity, shift-consistency, and total mass to 1e-12."""
    pd = pipe.pd
    k = pd.tm.recoding.block_length
    d = pipe.sft.size
    levels = {}
    for n in range(k, max_len + 1):
        levels[n] = gf.level_log_measures(pd, n)
    for n in range(k, max_len + 1):
        words, logs = levels[n]
        assert abs(np.exp(logs).sum() - 1.0) <= 1e-12
    powers = d ** np.arange(max_len, -1, -1, dtype=np.int64)

    def codes(words):
        return words @ powers[-words.shape[1]:]

    for n in range(k, max_len):
        words_n, logs_n = levels[n]
        words_c, logs_c = levels[n + 1]
        codes_n = codes(words_n)
        order = np.argsort(codes_n)
        # additivity: children grouped by their length-n prefix
        parent = np.searchsorted(codes_n, codes(words_c[:, :-1]), sorter=order)
        parent = order[parent]
        ratios = np.exp(logs_c - logs_n[parent])
        sums = np.bincount(parent, weights=ratios, minlength=len(words_n))
        assert np.abs(sums - 1.0).max() <= 1e-12
        # shift-consistency: children grouped by their length-n suffix
        suffix = np.searchsorted(codes_n, codes(words_c[:, 1:]), sorter=order)
        suffix = order[suffix]
        ratios = np.exp(logs_c - logs_n[suffix])
        sums = np.bincount(suffix, weights=ratios, minlength=len(words_n))
        assert np.abs(sums - 1.0).max() <= 1e-12


def _exact_consistency(pipe, exhaustive_len, sampled_len, samples, seed):
    pd = pipe.pd
    d = pipe.sft.size
    level = {(): Fraction(1)}
    for n in range(1, exhaustive_len + 1):
        nxt = {}
        for w in gf.enumerate_words(pipe.sft, n):
            nxt[w] = gf.cylinder_measure(pd, w)
        if n == 1:
            assert sum(nxt.values()) == 1
        for w, mv in level.items():
            if n > 1:
                assert sum(nxt.get(w + (b,), Fraction(0)) for b in range(d)) == mv
                assert sum(nxt.get((a,) + w, Fraction(0)) for a in range(d)) == mv
        level = nxt
    rng = np.random.default_rng(seed)
    pool = word_matrix(pipe.sft, sampled_len)
    idx = rng.choice(len(pool), size=min(samples, len(pool)), replace=False)
    for w in pool[idx].tolist():
        w = tuple(w)
        mv = gf.cylinder_measure(pd, w)
        assert sum(gf.cylinder_measure(pd, w + (b,)) for b in range(d)) == mv
        assert sum(gf.cylinder_measure(pd, (a,) + w) for a in range(d)) == mv


def test_criterion_9_gibbs_consistency(ex2_exact, full2_exact, markov_exact,
                                       ex2_float, golden_float, rate_demo_float,
                                       block_shift):
    """Cylinder additivity, shift-consistency, and total mass on all
    fixtures up to word length 12 (1e-12 float, exact equality on the exact
    fixtures); Gibbs ratio bounds stabilize across lengths."""
    t0 = time.monotonic()
    for pipe in (ex2_float, golden_float, rate_demo_float,
                 gf.build_pipeline(fixtures.full_shift_iid(), exact=False),
                 gf.build_pipeline(fixtures.markov_chain_2x2(), exact=False)):
        _float_consistency(pipe, 12)
    for pipe in (ex2_exact, full2_exact, markov_exact):
        _exact_consistency(pipe, exhaustive_len=9, sampled_len=12,
                           samples=500, seed=99)
    for pipe in (ex2_float, golden_float, rate_demo_float):
        # bounds stabilize once every (start, end) pair is reachable, i.e.
        # at block length + mixing index
        k = pipe.tm.recoding.block_length
        p = gf.mixing_index(block_shift(pipe.tm.recoding))
        b1 = gf.gibbs_ratio_bounds(pipe.pd, pipe.potential, k + p)
        b2 = gf.gibbs_ratio_bounds(pipe.pd, pipe.potential, k + p + 2)
        assert b1 == pytest.approx(b2, abs=1e-12)
    _report(9, "Gibbs additivity/shift/mass to length 12; ratio bounds stable",
            t0, 10.0)
