import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from gibbsfactor import (
    ValidationError,
    birkhoff_coefficient,
    build_pipeline,
    contraction_check,
    contraction_profile,
    dual_formula_check,
    fixtures,
    hilbert_alpha_beta,
    hilbert_distance,
    projective_diameter,
)
from gibbsfactor.cone import stacked_diameters
from gibbsfactor.factor import (
    reduce_products,
    rescale_product,
    rescale_single,
    walk_image_words,
)
from gibbsfactor.sft import DEFAULT_MAX_WORDS


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

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_ratios_beyond_float_range(self):
        # y_0 / x_0 = 1e600 overflows a float; the log ratios do not
        x, y = [1e-300, 1], [1e300, 1]
        expected = 600 * math.log(10)
        assert hilbert_distance(x, y) == pytest.approx(expected, rel=1e-12)
        assert hilbert_distance(y, x) == pytest.approx(expected, rel=1e-12)
        assert hilbert_distance([5e-324, 1], [1, 5e-324]) < math.inf
        # entries of one point spanning more than the float range
        assert hilbert_distance([1e-200, 1e200], [1e-200, 1e200]) == 0.0
        assert hilbert_distance([1e-200, 1e200], [2e-200, 1e200]) == pytest.approx(math.log(2))
        assert hilbert_alpha_beta(x, y) == (1.0, math.inf)  # the quotient overflows, quietly

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

    def test_ratios_beyond_float_range(self):
        # y_0 / x_0 = 1e600 overflows as a quotient; the supremum does not divide
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rep = dual_formula_check([1e-300, 1], [1e300, 1], sample_count=200)
        assert rep.closed_form == pytest.approx(600 * math.log(10), rel=1e-15)
        assert rep.coordinate_sup == pytest.approx(rep.closed_form, rel=1e-15)
        assert rep.sampled_max <= rep.closed_form

    def test_pairings_that_underflow(self):
        # <x, phi> underflows to 0.0 on functionals that miss the second
        # coordinate, while <y, phi> does not; both share one support
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rep = dual_formula_check([5e-324, 1], [1.7e308, 1])
        assert rep.closed_form == pytest.approx(1454.1669088146095, rel=1e-15)
        assert rep.coordinate_sup == pytest.approx(rep.closed_form, rel=1e-15)
        assert 0 < rep.sampled_max <= rep.closed_form

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

    def test_column_quotient_beyond_float_range(self):
        # the columns' quotient 1e300 / 1e-300 overflows; its log does not
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            diam = projective_diameter([[1e-300, 1e300], [1, 1]])
        assert diam == pytest.approx(600 * math.log(10), rel=1e-15)

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


def short_axis_diameters(x, real):
    """:func:`stacked_diameters` with every all/max/min over a matrix's own
    rows, on the (R, rows, cols) stack as given: the reference for the
    transposed layout."""
    pos = x > 0
    with np.errstate(divide="ignore"):
        logs = np.log(x)
    diam = np.zeros(len(x))
    with np.errstate(invalid="ignore"):
        for i in range(x.shape[2]):
            for j in range(i + 1, x.shape[2]):
                same = (pos[:, :, i] == pos[:, :, j]).all(axis=1)
                ratio = logs[:, :, j] - logs[:, :, i]
                beta = np.where(pos[:, :, i], ratio, -np.inf).max(axis=1)
                alpha = np.where(pos[:, :, i], ratio, np.inf).min(axis=1)
                d = np.where(same, beta - alpha, np.inf)
                diam = np.where(real[:, i] & real[:, j], np.fmax(diam, d), diam)
    diam[(real & ~pos.any(axis=1)).any(axis=1)] = np.inf
    return diam


def quotient_diameters(x, real):
    """Diameters from column quotients, log(max ratio) - log(min ratio):
    the form before ratios became log differences, for entries whose
    quotients stay inside the float range."""
    pos = x > 0
    diam = np.zeros(len(x))
    with np.errstate(divide="ignore", invalid="ignore"):
        for i in range(x.shape[2]):
            for j in range(i + 1, x.shape[2]):
                same = (pos[:, :, i] == pos[:, :, j]).all(axis=1)
                ratio = x[:, :, j] / x[:, :, i]
                beta = np.where(pos[:, :, i], ratio, -np.inf).max(axis=1)
                alpha = np.where(pos[:, :, i], ratio, np.inf).min(axis=1)
                d = np.where(same, np.log(beta) - np.log(alpha), np.inf)
                diam = np.where(real[:, i] & real[:, j], np.fmax(diam, d), diam)
    diam[(real & ~pos.any(axis=1)).any(axis=1)] = np.inf
    return diam


def short_axis_rescale(x, scale):
    """:func:`rescale_product` on a stack with numpy's reductions over each
    product's own axes: the reference for the reductions along the stack."""
    axes = tuple(range(np.ndim(scale), x.ndim))
    if x.dtype != float:
        return x, scale, (x != 0).any(axis=axes)
    top = x.max(axis=axes)
    alive = top > 0
    top = top + ~alive
    return x / np.reshape(top, np.shape(top) + (1,) * len(axes)), scale + np.log(top), alive


@st.composite
def padded_stacks(draw):
    """A sweep-layout stack: 0-50 products, F = 1-7, each a vector or an
    F x F matrix zero-padded past its fibers' sizes, with entries drawn so
    that zero products, zero columns and mismatched supports are common;
    returns (stack, real columns)."""
    width = draw(st.integers(1, 7))
    count = draw(st.integers(0, 50))
    shape = (count,) + (width,) * draw(st.integers(1, 2))
    values = st.sampled_from([0.0, 0.0, 0.0, 1.0, 0.5, 2.0, 3.7, 1e-200, 1e100])
    x = draw(arrays(float, shape, elements=values))
    sizes = draw(arrays(np.intp, (2, count), elements=st.integers(1, width)))
    rows, real = np.arange(width) < sizes[..., None]
    if x.ndim == 3:
        x *= rows[:, :, None]
    x *= real.reshape((count,) + (1,) * (x.ndim - 2) + (width,))
    return x, real


def same_bytes(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestStackAxisReductions:
    """Reductions along the stack axis give the bits of the short-axis forms."""

    @given(padded_stacks())
    @settings(max_examples=200, deadline=None)
    def test_stacked_diameters_match_short_axis_loop(self, stack):
        x, real = stack
        if x.ndim == 2:
            x = x[:, None, :]
        assert same_bytes(stacked_diameters(x, real), short_axis_diameters(x, real))

    @given(padded_stacks())
    @settings(max_examples=200, deadline=None)
    def test_reduce_products_match_short_axis_reductions(self, stack):
        x, _ = stack
        axes = tuple(range(1, x.ndim))
        assert same_bytes(reduce_products(np.maximum, x), x.max(axis=axes))
        assert same_bytes(reduce_products(np.minimum, x), x.min(axis=axes))
        assert same_bytes(reduce_products(np.logical_or, x != 0), (x != 0).any(axis=axes))
        assert same_bytes(reduce_products(np.logical_and, x != 0), (x != 0).all(axis=axes))
        nested = x[:, None]  # two stack axes
        assert same_bytes(reduce_products(np.maximum, nested, 2), x.max(axis=axes)[:, None])

    @given(padded_stacks(), st.sampled_from([float, bool, object]))
    @settings(max_examples=200, deadline=None)
    def test_rescale_product_matches_short_axis_rescale(self, stack, dtype):
        x, _ = stack
        x = x.astype(dtype) if dtype is not object else (x > 1).astype(int).astype(object)
        scales = np.linspace(-1.0, 1.0, len(x))
        got, want = rescale_product(x, scales), short_axis_rescale(x, scales)
        for a, b in zip(got, want):
            assert same_bytes(a, b) if dtype is not object else np.array_equal(a, b)
        for product in x[:3]:  # a scalar scale is the single-product rule
            one, scale, alive = rescale_product(product, 0.0)
            single = rescale_single(product, 0.0)
            assert np.array_equal(one, single[0]) and (scale, alive) == single[1:]


DIAMETER_SYSTEMS = {
    "example2": fixtures.example2(), "rate_demo": fixtures.rate_demo(),
    "full_shift": fixtures.full_shift_iid(), "markov": fixtures.markov_chain_2x2(),
    "collapse": fixtures.three_to_two_collapse(),
    "random_1_6_3": fixtures.random_mixing_system(1, 6, 3, 3),
    "random_2_8_2": fixtures.random_mixing_system(2, 8, 2, 4),
    "random_3_5_1": fixtures.random_mixing_system(3, 5, 1, 3),
}


def assert_near_quotient_form(x, real):
    got, want = stacked_diameters(x, real), quotient_diameters(x, real)
    assert np.array_equal(np.isinf(got), np.isinf(want))
    finite = np.isfinite(want)
    assert np.abs(got[finite] - want[finite]).max(initial=0.0) <= 1e-12


class TestLogRatioDiameters:
    """Log differences move only the low bits of the quotient form's diameters."""

    @pytest.mark.parametrize("name", list(DIAMETER_SYSTEMS))
    def test_fixture_diameters_match_quotient_form(self, name):
        fs = build_pipeline(DIAMETER_SYSTEMS[name]).factor
        w = fs.tm.weights
        assert_near_quotient_form(np.stack([w, w @ w]), np.ones((2, len(w)), dtype=bool))
        for n in (1, 2, 3):
            for rows in walk_image_words(fs, fs.eye(float), n, DEFAULT_MAX_WORDS):
                assert_near_quotient_form(rows.products, fs.fiber_mask[rows.blocks])

    @given(padded_stacks())
    @settings(max_examples=200, deadline=None)
    def test_stacks_match_quotient_form(self, stack):
        x, real = stack
        if x.ndim == 2:
            x = x[:, None, :]
        assert_near_quotient_form(x, real)
