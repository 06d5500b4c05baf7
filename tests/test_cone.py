import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gibbsfactor import (
    ValidationError,
    birkhoff_coefficient,
    contraction_check,
    contraction_profile,
    dual_formula_check,
    hilbert_alpha_beta,
    hilbert_distance,
    projective_diameter,
)


class TestAlphaBeta:
    def test_coordinate_ratios(self):
        alpha, beta = hilbert_alpha_beta((1, 2), (2, 1))
        assert alpha == pytest.approx(0.5)
        assert beta == pytest.approx(2.0)

    def test_equal_points(self):
        assert hilbert_alpha_beta((3, 1), (3, 1)) == (1.0, 1.0)

    def test_support_mismatch_beta_infinite(self):
        alpha, beta = hilbert_alpha_beta((1, 0), (1, 1))
        assert beta == math.inf

    def test_support_mismatch_alpha_zero(self):
        alpha, beta = hilbert_alpha_beta((1, 1), (1, 0))
        assert alpha == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            hilbert_alpha_beta((1, 2), (1, 2, 3))


class TestHilbertDistance:
    def test_log4(self):
        assert hilbert_distance((1, 2), (2, 1)) == pytest.approx(math.log(4))

    def test_proportional_is_zero(self):
        assert hilbert_distance((3, 6), (1, 2)) == 0.0

    def test_disjoint_supports_infinite(self):
        assert hilbert_distance((1, 0), (0, 1)) == math.inf

    def test_projectivity(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            x = rng.random(4) + 0.1
            y = rng.random(4) + 0.1
            a, b = rng.uniform(0.1, 10, size=2)
            assert hilbert_distance(a * x, b * y) == pytest.approx(
                hilbert_distance(x, y), abs=1e-12)


class TestDualFormula:
    def test_closed_form_reproduced(self):
        rep = dual_formula_check((1, 2), (2, 1), sample_count=2000, seed=5)
        assert rep.closed_form == pytest.approx(math.log(4), abs=1e-12)
        assert rep.coordinate_sup == pytest.approx(rep.closed_form, abs=1e-12)
        assert rep.sampled_max <= rep.closed_form + 1e-12

    def test_equal_points_zero(self):
        rep = dual_formula_check((1, 1, 2), (1, 1, 2), sample_count=500, seed=1)
        assert rep.closed_form == 0.0
        assert rep.coordinate_sup == 0.0
        assert rep.sampled_max <= 1e-12

    def test_infinite_distance_rejected(self):
        with pytest.raises(ValidationError):
            dual_formula_check((1, 0), (1, 1))

    def test_random_positive_pairs(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            dim = int(rng.integers(2, 9))
            x = rng.random(dim) + 0.05
            y = rng.random(dim) + 0.05
            rep = dual_formula_check(x, y, sample_count=400, seed=int(rng.integers(1 << 30)))
            assert rep.coordinate_sup == pytest.approx(rep.closed_form, abs=1e-12)
            assert rep.sampled_max <= rep.closed_form + 1e-12


class TestProjectiveDiameter:
    def test_2x2_cross_ratio(self):
        assert projective_diameter([[2, 1], [1, 1]]) == pytest.approx(math.log(2))

    def test_identical_columns(self):
        assert projective_diameter([[1, 1], [2, 2]]) == 0.0

    def test_disjoint_column_supports(self):
        assert projective_diameter([[1, 0], [0, 1]]) == math.inf

    def test_zero_column_rejected(self):
        with pytest.raises(ValidationError, match="zero column"):
            projective_diameter([[1, 0], [1, 0]])

    def test_dominates_column_pairs(self):
        rng = np.random.default_rng(9)
        m = rng.random((4, 4)) + 0.05
        diam = projective_diameter(m)
        best = 0.0
        for i in range(4):
            for j in range(i + 1, 4):
                d = hilbert_distance(m[:, i], m[:, j])
                assert d <= diam + 1e-12
                best = max(best, d)
        assert best == pytest.approx(diam, abs=1e-12)

    def test_transpose_invariant(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            m = rng.random((3, 3)) + 0.05
            assert projective_diameter(m) == pytest.approx(
                projective_diameter(m.T), abs=1e-10)


class TestBirkhoffCoefficient:
    def test_2x2_value(self):
        tau = birkhoff_coefficient([[2, 1], [1, 1]])
        assert tau == pytest.approx(math.tanh(math.log(2) / 4), abs=1e-12)
        # classical closed form (sqrt(2)-1)/(sqrt(2)+1) for this cross-ratio
        assert tau == pytest.approx((math.sqrt(2) - 1) / (math.sqrt(2) + 1), abs=1e-12)

    def test_rank_one_is_zero(self):
        assert birkhoff_coefficient([[1, 2], [2, 4]]) == 0.0

    def test_split_supports_is_one(self):
        assert birkhoff_coefficient([[1, 0], [0, 1]]) == 1.0

    def test_zero_column_is_one(self):
        assert birkhoff_coefficient([[1, 0], [1, 0]]) == 1.0

    @pytest.mark.parametrize("m, message", [
        ([[1, -1], [1, 1]], "matrix must be nonnegative"),
        ([[0, 0], [0, 0]], "matrix must be nonzero"),
        ([1, 2], "matrix expected"),
    ], ids=["negative", "zero", "one-dimensional"])
    def test_refusals(self, m, message):
        with pytest.raises(ValidationError, match=message):
            birkhoff_coefficient(m)


class TestContractionCheck:
    def test_explicit_instance(self):
        m = [[2, 1], [1, 1]]
        assert contraction_check(m, (1, 2), (2, 1))
        lhs = hilbert_distance(np.array(m) @ [1, 2], np.array(m) @ [2, 1])
        assert lhs <= birkhoff_coefficient(m) * math.log(4) + 1e-9

    def test_equal_arguments(self):
        assert contraction_check([[2, 1], [1, 1]], (1, 1), (2, 2))

    def test_thousand_random_instances(self):
        rng = np.random.default_rng(123)
        for _ in range(1000):
            dim = int(rng.integers(2, 7))
            m = rng.random((dim, dim)) + 1e-3
            u = rng.random(dim) + 1e-3
            v = rng.random(dim) + 1e-3
            assert contraction_check(m, u, v)


class TestContractionProfile:
    def test_example_has_infinite_deltas(self, ex2_float):
        prof = contraction_profile(ex2_float.factor, 2)
        assert prof.infinite_words > 0
        assert prof.max_tau == 1.0
        assert math.isinf(prof.per_word[(0, 0, 0)])

    def test_rate_demo_all_finite(self, rate_demo_float):
        prof = contraction_profile(rate_demo_float.factor, 1)
        assert prof.infinite_words == 0
        assert prof.max_tau < 1.0
        assert prof.max_delta < math.inf

    def test_identity_factor_deltas_zero(self, full2_exact):
        prof = contraction_profile(full2_exact.factor, 1)
        assert prof.max_delta == 0.0
        assert prof.max_tau == 0.0

    def test_word_count(self, rate_demo_float):
        prof = contraction_profile(rate_demo_float.factor, 2)
        assert len(prof.per_word) == 8  # full binary image, words of length 3


finite_vectors = st.lists(
    st.floats(min_value=0.01, max_value=100, allow_nan=False), min_size=2, max_size=6
)


class TestMetricProperties:
    @given(finite_vectors, st.floats(min_value=0.01, max_value=50),
           st.floats(min_value=0.01, max_value=50))
    @settings(max_examples=60, deadline=None)
    def test_projective_scaling(self, xs, a, b):
        x = np.array(xs)
        assert hilbert_distance(a * x, b * x) == pytest.approx(0.0, abs=1e-12)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_symmetry_and_triangle(self, data):
        dim = data.draw(st.integers(2, 5))
        vec = st.lists(st.floats(min_value=0.01, max_value=100), min_size=dim, max_size=dim)
        x = np.array(data.draw(vec))
        y = np.array(data.draw(vec))
        z = np.array(data.draw(vec))
        dxy = hilbert_distance(x, y)
        assert dxy == pytest.approx(hilbert_distance(y, x), abs=1e-12)
        assert dxy <= hilbert_distance(x, z) + hilbert_distance(z, y) + 1e-12

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_birkhoff_inequality(self, data):
        dim = data.draw(st.integers(2, 5))
        vec = st.lists(st.floats(min_value=0.01, max_value=10), min_size=dim, max_size=dim)
        mat = st.lists(vec, min_size=dim, max_size=dim)
        m = np.array(data.draw(mat))
        u = np.array(data.draw(vec))
        v = np.array(data.draw(vec))
        assert contraction_check(m, u, v)
