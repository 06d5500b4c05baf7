import math
from fractions import Fraction

import numpy as np
import pytest

from gibbsfactor import (
    Alphabet,
    ValidationError,
    build_factor,
    build_potential,
    build_sft,
    enumerate_words,
    fixtures,
    perron,
    perron_exact,
    transfer_matrix,
    VariationProfile,
    decay_fit,
    enumerate_image_words,
    eta_full_shift,
    eta_general,
    eta_optimize,
    g_approx,
    g_limit,
    image_admissible,
    projected_measure,
    rate_compare,
    variation_profile,
)
from gibbsfactor.ganalysis import image_log_measure_map
from gibbsfactor.potential import measure_ratio
from gibbsfactor.sysio import build_pipeline, parse_system_dict


@pytest.fixture(scope="module", params=[True, False], ids=["exact", "float"])
def skewed_golden(request, skewed_golden_doc):
    return build_pipeline(parse_system_dict(skewed_golden_doc), exact=request.param)


class TestGApprox:
    def test_zero_run_family(self, ex2_exact):
        # exact ratio (n+3) / (3 (n+2)) for the zero run
        fs = ex2_exact.factor
        for n in range(1, 8):
            approx = g_approx(fs, ex2_exact.pd, (0,) * (n + 1))
            assert approx.value == Fraction(n + 3, 3 * (n + 2))
        assert g_approx(fs, ex2_exact.pd, (0, 0)).value == Fraction(4, 9)

    def test_iid_identity_factor_constant(self, full2_exact):
        fs = full2_exact.factor
        for word in [(0, 1), (1, 1, 0), (0, 0, 0, 1)]:
            assert g_approx(fs, full2_exact.pd, word).value == Fraction(1, 2)

    def test_value_in_unit_interval(self, ex2_float):
        fs = ex2_float.factor
        for word in enumerate_image_words(fs, 5):
            v = g_approx(fs, ex2_float.pd, word).value
            assert 0 < v <= 1

    def test_first_symbol_normalization(self, ex2_float):
        # summing over admissible first symbols gives 1
        fs = ex2_float.factor
        for suffix in enumerate_image_words(fs, 4):
            total = sum(
                g_approx(fs, ex2_float.pd, (b,) + suffix).value
                for b in range(2)
                if projected_measure(fs, ex2_float.pd, (b,) + suffix) != -math.inf
            )
            assert total == pytest.approx(1.0, abs=1e-10)

    def test_too_short_rejected(self, ex2_exact):
        with pytest.raises(ValidationError):
            g_approx(ex2_exact.factor, ex2_exact.pd, (0,))


    def test_inadmissible_word_with_admissible_suffix_rejected(self, skewed_golden):
        # 11 is forbidden but 1 is not: both arithmetics refuse the ratio
        fs, pd = skewed_golden.factor, skewed_golden.pd
        assert image_admissible(fs, (1,)) and not image_admissible(fs, (1, 1))
        with pytest.raises(ValidationError, match="not admissible"):
            g_approx(fs, pd, (1, 1))
        # 1 is always preceded by 0
        assert g_approx(fs, pd, (0, 1)).value == pytest.approx(1)


class TestMeasureRatio:
    def test_exact_quotient_and_zero(self, ex2_exact):
        pd = ex2_exact.pd
        assert measure_ratio(Fraction(1, 3), Fraction(1, 2), pd) == Fraction(2, 3)
        assert measure_ratio(Fraction(0), Fraction(1, 2), pd) is None
        assert measure_ratio(Fraction(1, 2), Fraction(0), pd) is None

    def test_float_log_difference_and_zero(self, ex2_float):
        pd = ex2_float.pd
        assert measure_ratio(math.log(0.25), math.log(0.5), pd) == pytest.approx(0.5)
        assert measure_ratio(-math.inf, 0.0, pd) is None
        assert measure_ratio(0.0, -math.inf, pd) is None


class TestGLimit:
    def test_zero_run_limit_third(self, ex2_exact):
        res = g_limit(ex2_exact.factor, ex2_exact.pd, (), (0,), jmax=14, tol=1e-9)
        assert res.value == pytest.approx(1 / 3, abs=1e-6)

    def test_exact_stage_values_closed_form(self, ex2_exact):
        res = g_limit(ex2_exact.factor, ex2_exact.pd, (), (0,), jmax=10)
        for (n, _), exact in zip(res.stages, res.exact_stages):
            assert exact == Fraction(n + 3, 3 * (n + 2))

    def test_zero_then_ones_family(self, ex2_exact):
        # g at 0^m 1^inf is (m+1) / (3m): the gap to 1/3 is exactly 1/(3m)
        fs = ex2_exact.factor
        for m in (4, 16, 64):
            res = g_limit(fs, ex2_exact.pd, (0,) * m, (1,), jmax=14, tol=1e-10)
            assert res.value == pytest.approx((m + 1) / (3 * m), abs=1e-8)

    def test_two_stages_give_no_extrapolant(self, ex2_exact):
        # stages j = 2, 3 only: no Aitken triple, so the last stage is the
        # value, unconverged, with an infinite error
        res = g_limit(ex2_exact.factor, ex2_exact.pd, (), (0,), jmax=3)
        assert res.exact_stages == (Fraction(2, 5), Fraction(10, 27))
        assert res.stages == ((3, 0.4), (7, 10 / 27))
        assert res.value == 10 / 27
        assert not res.converged and res.error_estimate == math.inf

    def test_iid_constant_point(self, full2_exact):
        res = g_limit(full2_exact.factor, full2_exact.pd, (), (0,), jmax=8, tol=1e-12)
        assert res.value == pytest.approx(0.5, abs=1e-12)
        assert res.converged

    def test_period_two_tail(self, ex2_exact):
        # alternating tail: stages must agree with direct cylinder ratios
        fs = ex2_exact.factor
        res = g_limit(fs, ex2_exact.pd, (0,), (0, 1), jmax=8)
        for n, value in res.stages[:3]:
            word = ((0,) + (0, 1) * ((n + 1) // 2))[: n + 1]
            direct = g_approx(fs, ex2_exact.pd, word).value
            assert value == pytest.approx(float(direct), rel=1e-12)

    def test_period_two_tail_from_origin(self, ex2_exact):
        # empty prefix with a longer period exercises the rotated suffix
        fs = ex2_exact.factor
        res = g_limit(fs, ex2_exact.pd, (), (0, 1), jmax=10)
        for n, value in res.stages[:3]:
            word = ((0, 1) * ((n + 2) // 2))[: n + 1]
            direct = g_approx(fs, ex2_exact.pd, word).value
            assert value == pytest.approx(float(direct), rel=1e-12)
        assert res.converged

    def test_inadmissible_point_rejected(self, golden_float):
        from gibbsfactor import Alphabet, build_factor

        fs = build_factor(golden_float.tm, (0, 1), Alphabet(("0", "1")))
        with pytest.raises(ValidationError):
            g_limit(fs, golden_float.pd, (), (1,), jmax=6)  # 11 forbidden

    @pytest.mark.parametrize("prefix, tail", [((), (1,)), ((1, 1), (0,)), ((0,), (0, 1, 1))])
    def test_inadmissible_point_rejected_in_both_modes(self, skewed_golden, prefix, tail):
        with pytest.raises(ValidationError, match="not admissible"):
            g_limit(skewed_golden.factor, skewed_golden.pd, prefix, tail, jmax=6)

    @pytest.mark.parametrize("exact", [False, True], ids=["float", "exact"])
    @pytest.mark.parametrize("chain", [3, 7])
    def test_point_inadmissible_past_the_first_stage(self, exact, chain):
        # z -> z | x1 -> ... -> x_chain -> z with z -> b and x_i -> a: b a^m
        # lifts only for m <= chain; stage j is b a^(2^j), so with chain 3
        # stage 2 (b a^4) is the first that does not lift, and with chain 7
        # stage 3 (b a^8), which only the support squared at stage 2 tells
        names = ("z", *(f"x{i}" for i in range(1, chain + 1)))
        adjacency = np.roll(np.eye(chain + 1, dtype=int), 1, axis=1)
        adjacency[0, 0] = 1
        sft = build_sft(Alphabet(names), adjacency.tolist())
        table = {w: Fraction(1, 2 if w[0] == 0 else 1) for w in enumerate_words(sft, 2)}
        tm = transfer_matrix(sft, build_potential(sft, 1, "weight", table))
        fs = build_factor(tm, (1,) + (0,) * chain, Alphabet(("a", "b")))
        assert image_admissible(fs, (1,) + (0,) * chain)
        assert not image_admissible(fs, (1,) + (0,) * (chain + 1))
        with pytest.raises(ValidationError, match="not admissible"):
            g_limit(fs, perron_exact(tm) if exact else perron(tm), (1,), (0,), jmax=6)

    def test_underflowed_stage_ends_the_stages(self, ex2_float):
        # the renormalised power of the cycle block [[1, 1], [0, 1]] is
        # [[2^-j, 1], [0, 2^-j]]; its square underflows to [[0, 1], [0, 0]]
        # past 2^-1074, so from jmax 540 on the stages end at the last
        # positive one, that of jmax 539
        fs, pd = ex2_float.factor, ex2_float.pd
        last = g_limit(fs, pd, (), (0,), jmax=539)
        assert len(last.stages) == 538 and last.converged
        for jmax in (540, 600):
            assert g_limit(fs, pd, (), (0,), jmax=jmax) == last

    def test_rate_demo_converges(self, rate_demo_float):
        fs = rate_demo_float.factor
        res = g_limit(fs, rate_demo_float.pd, (), (0,), jmax=12, tol=1e-9)
        assert res.converged
        assert res.error_estimate < 1e-9

    def test_row_vanishing_alone_rejected(self):
        # the word's row dies while its suffix's row lives: no stage of 0.0
        pipe = build_pipeline(fixtures.random_mixing_system(0, 6, 1, 3, density=0.3),
                              exact=False)
        with pytest.raises(ValidationError, match="not admissible"):
            g_limit(pipe.factor, pipe.pd, (2, 2), (2, 0), jmax=4)

    @pytest.mark.parametrize("system", ["example2", "markov_chain_2x2"])
    def test_float_stages_match_exact(self, system):
        desc = getattr(fixtures, system)()
        exact, approx = (g_limit(pipe.factor, pipe.pd, (), (0,), jmax=16)
                         for pipe in (build_pipeline(desc, exact=True),
                                      build_pipeline(desc, exact=False)))
        assert [n for n, _ in approx.stages] == [n for n, _ in exact.stages]
        for (_, value), ratio in zip(approx.stages, exact.exact_stages):
            assert value == pytest.approx(float(ratio), rel=1e-13, abs=0)

    def test_float_large_jmax_keeps_value(self, rate_demo_float):
        # 2^60 tail copies: no log-measure of size 2^j log(lambda) to cancel
        fs, pd = rate_demo_float.factor, rate_demo_float.pd
        short = g_limit(fs, pd, (), (0,), jmax=12)
        long = g_limit(fs, pd, (), (0,), jmax=60)
        assert long.value == pytest.approx(short.value, rel=0, abs=1e-12)


class TestImageMeasureMap:
    def test_matches_per_word_projection(self, ex2_float):
        fs = ex2_float.factor
        table = image_log_measure_map(fs, ex2_float.pd, 6)
        assert len(table) == 64
        for word in list(table)[::7]:
            direct = projected_measure(fs, ex2_float.pd, word)
            assert table[word] == pytest.approx(direct, abs=1e-12)


class TestVariationProfile:
    def test_iid_identity_factor_flat(self, full2_exact):
        import gibbsfactor

        pipe_float = gibbsfactor.build_pipeline(
            gibbsfactor.fixtures.full_shift_iid(), exact=False)
        prof = variation_profile(pipe_float.factor, pipe_float.pd, 8, 5)
        assert all(v <= 1e-13 for v in prof.var_hat)

    def test_nonincreasing(self, ex2_float, rate_demo_float):
        for pipe in (ex2_float, rate_demo_float):
            prof = variation_profile(pipe.factor, pipe.pd, 10, 8)
            assert all(a >= b - 1e-15 for a, b in zip(prof.var_hat, prof.var_hat[1:]))

    def test_example_polynomial_window(self, ex2_float):
        prof = variation_profile(ex2_float.factor, ex2_float.pd, 14, 4)
        fit = decay_fit(prof, n0=2)
        assert fit.classification == "polynomial"
        assert 0.8 <= fit.poly_exponent <= 1.2

    def test_rate_demo_geometric(self, rate_demo_float):
        prof = variation_profile(rate_demo_float.factor, rate_demo_float.pd, 12, 10)
        ratios = [b / a for a, b in zip(prof.var_hat, prof.var_hat[1:])]
        assert max(ratios) < 0.35  # decays geometrically, rate ~0.15

    def test_bad_window_rejected(self, ex2_float):
        with pytest.raises(ValidationError):
            variation_profile(ex2_float.factor, ex2_float.pd, 6, 6)

    def test_truncation_consistency_on_mixing_fixture(self, rate_demo_float):
        # deepening the truncation moves var_hat by at most the Cauchy tail
        # bound 2 C eta^m of the contracting fixture (checked loosely)
        fs, pd = rate_demo_float.factor, rate_demo_float.pd
        small = variation_profile(fs, pd, 10, 8)
        large = variation_profile(fs, pd, 13, 8)
        bound = eta_optimize(0.5, 0.8, full_shift=True)
        slack = 2 * bound.prefactor * bound.eta**10
        for a, b in zip(small.var_hat, large.var_hat):
            assert b <= a + slack


class TestDecayFit:
    def test_synthetic_exponential(self):
        n = tuple(range(1, 11))
        prof = VariationProfile(m=12, n_values=n,
                                var_hat=tuple(0.5**k for k in n),
                                pair_counts=(1,) * 10)
        fit = decay_fit(prof, n0=2)
        assert fit.classification == "exponential"
        assert fit.exp_rate == pytest.approx(0.5, abs=1e-6)

    def test_synthetic_polynomial(self):
        n = tuple(range(1, 11))
        prof = VariationProfile(m=12, n_values=n,
                                var_hat=tuple(1.0 / k for k in n),
                                pair_counts=(1,) * 10)
        fit = decay_fit(prof, n0=2)
        assert fit.classification == "polynomial"
        assert fit.poly_exponent == pytest.approx(1.0, abs=1e-6)

    def test_all_zero_is_constant(self):
        prof = VariationProfile(m=8, n_values=(1, 2, 3), var_hat=(0.0, 0.0, 0.0),
                                pair_counts=(1, 1, 1))
        assert decay_fit(prof).classification == "constant"

    def test_increasing_profile_is_inconclusive(self):
        # log var grows linearly: the exponential fit is exact but rho > 1
        prof = VariationProfile(m=8, n_values=(1, 2, 3, 4), var_hat=(0.1, 0.2, 0.4, 0.8),
                                pair_counts=(1,) * 4)
        fit = decay_fit(prof, n0=1)
        assert fit.classification == "inconclusive"
        assert fit.exp_rate == pytest.approx(2.0) and fit.r_squared_exp == pytest.approx(1.0)

    def test_insufficient_points(self):
        prof = VariationProfile(m=8, n_values=(1, 2, 3), var_hat=(0.5, 0.2, 0.0),
                                pair_counts=(1, 1, 1))
        with pytest.raises(ValidationError, match="insufficient"):
            decay_fit(prof, n0=2)


class TestEtaFullShift:
    def test_constant_potential_gives_sigma(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            sigma = float(rng.uniform(0.05, 0.95))
            theta = float(rng.uniform(0.01, sigma * 0.99))
            assert eta_full_shift(theta, 0.0, sigma) == pytest.approx(sigma, abs=1e-12)

    def test_explicit_value(self):
        # theta 0.5, constant 1, sigma 0.75: tanh((log 7 + 1.5)/2)
        expected = math.tanh((math.log(7) + 1.5) / 2)
        assert eta_full_shift(0.5, 1.0, 0.75) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.93822, abs=5e-6)

    def test_blowup_near_theta(self):
        values = [eta_full_shift(0.5, 1.0, s) for s in (0.52, 0.51, 0.505)]
        assert values[0] < values[1] < values[2]
        assert values[2] > 0.999

    def test_ordering_enforced(self):
        with pytest.raises(ValidationError):
            eta_full_shift(0.6, 1.0, 0.5)


class TestEtaGeneral:
    def test_constant_potential_full_q_shift(self):
        # K = 0; M = 2 log 3 + 2 log q at sigma 1/2
        for q in (2, 3, 5):
            bound = eta_general(0.25, 0.0, 0.0, math.log(q), 1, 0.5)
            assert bound.m_const == pytest.approx(2 * math.log(3) + 2 * math.log(q), abs=1e-12)
            assert bound.eta == pytest.approx(math.tanh(bound.m_const / 4), abs=1e-15)

    def test_cone_constant_formula(self):
        bound = eta_general(0.5, 1.0, 0.3, 2.0, 2, 0.5)
        # K = C/(sigma - theta^2) * (theta + theta^2)
        assert bound.cone_constant == pytest.approx((1.0 / 0.25) * 0.75, abs=1e-12)

    def test_sigma_constraint(self):
        with pytest.raises(ValidationError):
            eta_general(0.5, 1.0, 0.3, 2.0, 2, 0.25)  # sigma == theta^N
        with pytest.raises(ValidationError):
            eta_general(0.5, 1.0, 0.3, 2.0, 2, 0.2)

    def test_prefactor(self):
        bound = eta_general(0.3, 0.5, 0.2, 3.0, 1, 0.6)
        assert bound.prefactor == pytest.approx(bound.m_const / bound.eta**2, abs=1e-12)

    def test_full_shift_reference_reported_at_n1(self):
        bound = eta_general(0.3, 0.5, 0.2, 3.0, 1, 0.6)
        assert bound.full_shift_eta == pytest.approx(eta_full_shift(0.3, 0.5, 0.6), abs=1e-15)
        assert eta_general(0.3, 0.5, 0.2, 3.0, 2, 0.6).full_shift_eta is None

    @pytest.mark.parametrize("theta", [0.1, 0.5, 0.9, 0.999, 0.999999, 1 - 2**-40])
    def test_geometric_sum_matches_termwise_sum(self, theta):
        for n in (1, 2, 3, 10, 100, 1000):
            sigma = (1 + theta**n) / 2
            got = eta_general(theta, 1.0, 0.0, 0.0, n, sigma).cone_constant
            want = 1.0 / (sigma - theta**n) * math.fsum(theta**i for i in range(1, n + 1))
            assert abs(got - want) <= 1e-15 * want, n


class TestEtaOptimize:
    def test_constant_potential_takes_smallest_sigma(self):
        bound = eta_optimize(0.5, 0.0, full_shift=True, grid_size=64)
        # eta = sigma is increasing, so the grid minimum is the first point
        assert bound.eta == pytest.approx(bound.sigma, abs=1e-12)
        assert bound.sigma < 0.51

    def test_interior_minimum(self):
        bound = eta_optimize(0.5, 1.0, full_shift=True, grid_size=128)
        assert 0.55 < bound.sigma < 0.95
        for s in (bound.sigma * 0.9, min(0.999, bound.sigma * 1.1)):
            if 0.5 < s < 1:
                assert bound.eta <= eta_full_shift(0.5, 1.0, s) + 1e-9

    def test_grid_size_two(self):
        bound = eta_optimize(0.5, 0.0, full_shift=True, grid_size=2)
        assert 0.5 < bound.sigma < 1

    def test_general_mode(self):
        bound = eta_optimize(0.5, 0.8, n_steps=1, sup_norm=0.4, log_ln1_sup_norm=math.log(3.65),
                             grid_size=64)
        assert 0 < bound.eta < 1

    def test_long_span_returns(self):
        # the sum over the span is one closed form, not N terms per grid point
        bound = eta_optimize(0.5, 1.0, n_steps=10**7, sup_norm=0.4, log_ln1_sup_norm=1e7,
                             grid_size=64)
        assert bound.n_steps == 10**7 and math.isfinite(bound.m_const)


class TestRateCompare:
    def test_satisfied(self):
        n = tuple(range(1, 11))
        prof = VariationProfile(m=12, n_values=n, var_hat=tuple(0.3**k for k in n),
                                pair_counts=(1,) * 10)
        fit = decay_fit(prof, n0=2)
        bound = eta_optimize(0.5, 0.8, full_shift=True)
        verdict = rate_compare(fit, bound)
        assert verdict.satisfied
        assert verdict.empirical_rate == pytest.approx(0.3, abs=1e-6)

    def test_violation_flagged(self):
        n = tuple(range(1, 11))
        prof = VariationProfile(m=12, n_values=n, var_hat=tuple(0.95**k for k in n),
                                pair_counts=(1,) * 10)
        fit = decay_fit(prof, n0=2)
        bound = eta_optimize(0.5, 0.0, full_shift=True, grid_size=4)
        verdict = rate_compare(fit, bound)
        assert verdict.theoretical_rate < 0.9
        assert not verdict.satisfied

    def test_constant_profile_vacuous(self):
        prof = VariationProfile(m=8, n_values=(1, 2, 3), var_hat=(0.0, 0.0, 0.0),
                                pair_counts=(1, 1, 1))
        fit = decay_fit(prof)
        bound = eta_optimize(0.5, 0.0, full_shift=True)
        assert rate_compare(fit, bound).satisfied

    def test_wrong_classification_rejected(self):
        n = tuple(range(1, 11))
        prof = VariationProfile(m=12, n_values=n, var_hat=tuple(1 / k for k in n),
                                pair_counts=(1,) * 10)
        fit = decay_fit(prof, n0=2)
        bound = eta_optimize(0.5, 0.0, full_shift=True)
        with pytest.raises(ValidationError):
            rate_compare(fit, bound)
