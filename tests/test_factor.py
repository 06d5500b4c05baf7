import dataclasses
import itertools
import math
import os
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gibbsfactor import (
    Alphabet,
    EnumerationLimitError,
    ExactModeError,
    ValidationError,
    block_product,
    build_factor,
    build_pipeline,
    build_potential,
    build_sft,
    build_system,
    cylinder_measure,
    enumerate_image_words,
    enumerate_words,
    fixtures,
    fwm_check,
    fwm_search,
    g_approx,
    g_limit,
    image_admissible,
    parse_system_dict,
    perron,
    projected_measure,
    projected_measure_bruteforce,
    transfer_matrix,
)
from gibbsfactor import factor as factor_module
from gibbsfactor.cone import contraction_profile, projective_diameter
from gibbsfactor.factor import (
    FwmSearchResult,
    carry_product,
    image_block_word,
    level_measures,
    preimage_measures,
    rescale_product,
    sorted_runs,
    verify_projection,
)
from gibbsfactor.ganalysis import image_log_measure_map
from gibbsfactor.potential import count_visited, domain_path, domain_rows, perron_exact
from gibbsfactor.sft import DEFAULT_MAX_WORDS, word_matrix

U = np.array([[1.0, 1.0], [0.0, 1.0]])
L = np.array([[1.0, 0.0], [1.0, 1.0]])


class TestBuildFactor:
    def test_example_fibers_and_blocks(self, ex2_exact):
        fs = ex2_exact.factor
        assert fs.fibers == ((0, 1), (2, 3))
        assert set(fs.blocks) == {(0, 0), (0, 1), (1, 0), (1, 1)}
        assert np.array_equal(fs.blocks[(0, 0)], U)
        assert np.array_equal(fs.blocks[(0, 1)], L)
        assert np.array_equal(fs.blocks[(1, 0)], U)
        assert np.array_equal(fs.blocks[(1, 1)], L)

    def test_reassembly_recovers_transfer_matrix(self, ex2_exact):
        fs = ex2_exact.factor
        tm = fs.tm
        rebuilt = np.zeros_like(tm.weights)
        for (b0, b1), m in fs.blocks.items():
            for p, i in enumerate(fs.fibers[b0]):
                for q, j in enumerate(fs.fibers[b1]):
                    rebuilt[i, j] = m[p, q]
        assert np.array_equal(rebuilt, tm.weights)

    def test_identity_factor_singleton_fibers(self, full2_exact):
        fs = full2_exact.factor
        assert fs.fibers == ((0,), (1,))
        assert all(m.shape == (1, 1) for m in fs.blocks.values())

    def test_unmapped_symbol_rejected(self, ex2_exact):
        tm = ex2_exact.tm
        with pytest.raises(ValidationError, match="symbol map covers"):
            build_factor(tm, (0, 0, 1), Alphabet(("0", "1")))

    def test_empty_fiber_rejected(self, ex2_exact):
        tm = ex2_exact.tm
        with pytest.raises(ValidationError, match="empty fiber"):
            build_factor(tm, (0, 0, 0, 0), Alphabet(("0", "1")))

    @pytest.mark.parametrize("name", ["example2", "rate_demo", "random_0_2", "rational_1_3"])
    def test_builds_no_block_table(self, name):
        desc = GROUPING_SYSTEMS[name]
        tm = build_pipeline(desc).tm
        fs = build_factor(tm, desc.factor_map, Alphabet(desc.image_alphabet))
        assert not BLOCK_TABLES & vars(fs).keys()


BLOCK_TABLES = {"blocks", "exact_blocks", "_stacks"}
"""The names under which a factor system caches the blocks it cuts."""


def grouped_per_block(tm, symbol_map):
    """build_factor's grouping one block at a time: (image block words, their
    index, fibers, float blocks, exact blocks or None), the image words a
    sorted set of per-block tuples, the keys in order of first appearance."""
    rec = tm.recoding
    symbol_map = symbol_map.tolist()
    image_words = sorted({tuple(symbol_map[s] for s in bw) for bw in rec.block_words})
    index = {w: i for i, w in enumerate(image_words)}
    bsm = [index[tuple(symbol_map[s] for s in bw)] for bw in rec.block_words]
    fibers = [[] for _ in image_words]
    for dom, img in enumerate(bsm):
        fibers[img].append(dom)
    rows, cols = np.nonzero(rec.block_sft.adjacency)
    keys = dict.fromkeys((bsm[i], bsm[j]) for i, j in zip(rows.tolist(), cols.tolist()))

    def sliced(matrix):
        return {(a, b): matrix[np.ix_(fibers[a], fibers[b])] for a, b in keys}

    exact = None if tm.int_weights is None else sliced(tm.int_weights)
    return tuple(image_words), index, tuple(map(tuple, fibers)), sliced(tm.weights), exact


def rational(desc):
    """The description with its float weights rounded to quarters, exact."""
    values = tuple(Fraction(max(1, round(4 * v)), 4) for v in desc.values.tolist())
    return dataclasses.replace(desc, values=values)


GROUPING_SYSTEMS = {
    "example2": fixtures.example2(), "rate_demo": fixtures.rate_demo(),
    "full_shift": fixtures.full_shift_iid(), "markov": fixtures.markov_chain_2x2(),
    "collapse": fixtures.three_to_two_collapse(),
}
for _seed, _depth in itertools.product(range(3), range(4)):
    _desc = fixtures.random_mixing_system(_seed, 4 + _seed, _depth, 2 + _seed % 2)
    GROUPING_SYSTEMS[f"random_{_seed}_{_depth}"] = _desc
    GROUPING_SYSTEMS[f"rational_{_seed}_{_depth}"] = rational(_desc)


class TestFactorGrouping:
    """build_factor's array grouping against the per-block grouping."""

    @pytest.mark.parametrize("name", list(GROUPING_SYSTEMS))
    def test_matches_per_block_grouping(self, name):
        pipe = build_pipeline(GROUPING_SYSTEMS[name])
        fs = pipe.factor
        words, index, fibers, blocks, exact = grouped_per_block(pipe.tm, fs.symbol_map)
        assert list(map(tuple, fs.words.tolist())) == list(words)
        assert fs.image_block_index == index
        assert fs.fibers == fibers
        flat = [*itertools.chain(*fs.fibers, *fs.image_block_index, *fs.blocks),
                *fs.image_block_index.values()]
        assert all(type(i) is int for i in flat)
        assert list(fs.blocks) == sorted(blocks)
        # the walks' tables against their per-block forms
        sizes = [len(f) for f in fibers]
        width = max(sizes)
        pairs = sorted(blocks)
        follows = np.zeros((len(words), len(words)), dtype=bool)
        index_of = np.zeros((len(words), len(words)), dtype=np.intp)
        for i, (a, b) in enumerate(pairs):
            follows[a, b], index_of[a, b] = True, i
        tables = [
            (fs.symbol_map, np.array(GROUPING_SYSTEMS[name].factor_map, dtype=np.intp)),
            (fs.words, np.array(words, dtype=np.intp)),
            (fs.last_symbols, np.array([w[-1] for w in words], dtype=np.intp)),
            (fs.fiber_sizes, np.array(sizes, dtype=np.intp)),
            (fs.fiber_index, np.array([list(f) + [0] * (width - len(f)) for f in fibers],
                                      dtype=np.intp)),
            (fs.fiber_mask, np.array([[j < n for j in range(width)] for n in sizes])),
            (fs.follows, follows),
            (fs.pairs, np.array(pairs, dtype=np.intp)),
            (fs.index, index_of),
            (fs.degree, follows.sum(axis=1)),
        ]
        for table, want in tables:
            assert table.dtype == want.dtype and np.array_equal(table, want)
            assert not table.flags.writeable
        if exact is None:
            with pytest.raises(ExactModeError):
                fs.operators(True)
        # every per-word block is its slice of W (or M), contiguous and read-only
        for mode, want in ((False, blocks), (True, exact)):
            if want is None:
                continue
            got = fs.operators(mode)
            assert got is (fs.exact_blocks if mode else fs.blocks)
            assert got.keys() == want.keys()
            for key, m in want.items():
                assert got[key].dtype == m.dtype and got[key].shape == m.shape
                assert got[key].flags.c_contiguous and not got[key].flags.writeable
                if m.dtype == object:
                    assert got[key].tolist() == m.tolist()
                    assert all(type(v) is int for v in got[key].flat)
                else:
                    assert got[key].tobytes() == m.tobytes()


def test_example2_pipeline_does_not_import_numpy_ma():
    # numpy.ma (loaded by np.unique in numpy 2.4) costs about 1 MB resident
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = ("import sys; from gibbsfactor import build_pipeline, fixtures; "
            "build_pipeline(fixtures.example2()); print('numpy.ma' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                         timeout=120, check=True)
    assert out.stdout.strip() == "False"


class TestImageAdmissible:
    def test_word_10_lifts(self, ex2_exact):
        # the domain forbids 1->0 but the image word (1,0) lifts through 2->0
        assert image_admissible(ex2_exact.factor, (1, 0))

    def test_zero_runs(self, ex2_exact):
        for n in (1, 3, 9):
            assert image_admissible(ex2_exact.factor, (0,) * n)

    def test_empty(self, ex2_exact):
        assert image_admissible(ex2_exact.factor, ())

    def test_full_image(self, ex2_exact):
        # the image of this system is the full 2-shift
        for n in range(1, 6):
            assert len(enumerate_image_words(ex2_exact.factor, n)) == 2**n


class TestBlockProduct:
    def test_single_factor(self, ex2_exact):
        m, scale = block_product(ex2_exact.factor, (0, 0), exact=True)
        assert [[int(x) for x in row] for row in m] == [[1, 1], [0, 1]]
        assert scale == 0.0

    def test_square_doubles_path_count(self, ex2_exact):
        m, _ = block_product(ex2_exact.factor, (0, 0, 0), exact=True)
        assert [[int(x) for x in row] for row in m] == [[1, 2], [0, 1]]

    def test_float_mode_scaling(self, ex2_float):
        m, scale = block_product(ex2_float.factor, (0, 0, 0), exact=False)
        restored = np.asarray(m) * math.exp(scale)
        assert np.allclose(restored, U @ U)

    def test_too_short(self, ex2_exact):
        with pytest.raises(ValidationError):
            block_product(ex2_exact.factor, (0,), exact=True)

    def test_mode_comes_from_caller(self, ex2_float):
        # a float pipeline of a rational system still has both block tables
        fs = ex2_float.factor
        m, scale = block_product(fs, (0, 0, 0), exact=False)
        assert m.dtype == float and scale == pytest.approx(math.log(2))
        m, scale = block_product(fs, (0, 0, 0), exact=True)
        assert m.dtype == object and scale == 0.0

    def test_exact_needs_rational_weights(self, rate_demo_float):
        with pytest.raises(ExactModeError):
            block_product(rate_demo_float.factor, (0, 0), exact=True)


class TestProjectedMeasure:
    def test_length_one(self, ex2_exact):
        fs = ex2_exact.factor
        assert projected_measure(fs, ex2_exact.pd, (0,)) == Fraction(1, 2)
        assert projected_measure(fs, ex2_exact.pd, (1,)) == Fraction(1, 2)

    def test_two_symbol_words(self, ex2_exact):
        fs = ex2_exact.factor
        assert projected_measure(fs, ex2_exact.pd, (0, 0)) == Fraction(2, 9)
        assert projected_measure(fs, ex2_exact.pd, (0, 1)) == Fraction(5, 18)

    def test_zero_run_closed_form(self, ex2_exact):
        # lambda^{-n} (n+3)/6 for the n+1 fold zero run
        fs = ex2_exact.factor
        for n in range(8):
            value = projected_measure(fs, ex2_exact.pd, (0,) * (n + 1))
            assert value == Fraction(n + 3, 6) / 3**n

    def test_mass_one(self, ex2_exact):
        fs = ex2_exact.factor
        total = sum(projected_measure(fs, ex2_exact.pd, (b,)) for b in range(2))
        assert total == 1

    def test_extension_consistency_exact(self, ex2_exact):
        fs = ex2_exact.factor
        for word in [(0,), (1,), (0, 1), (1, 1, 0)]:
            ext = sum(projected_measure(fs, ex2_exact.pd, word + (b,))
                      for b in range(2))
            assert ext == projected_measure(fs, ex2_exact.pd, word)

    def test_float_matches_exact(self, ex2_exact, ex2_float):
        for word in [(0,), (0, 0), (1, 0, 1), (0, 0, 1, 1, 0)]:
            exact = projected_measure(ex2_exact.factor, ex2_exact.pd, word)
            logv = projected_measure(ex2_float.factor, ex2_float.pd, word)
            assert logv == pytest.approx(math.log(exact), abs=1e-12)


class TestBruteForceOracle:
    def test_explicit_preimage_sums(self, ex2_exact):
        fs = ex2_exact.factor
        # preimages of (0,0): 00, 01, 11 (10 is forbidden upstairs)
        assert projected_measure_bruteforce(fs, ex2_exact.pd, (0, 0)) == Fraction(2, 9)
        # preimages of (0,1): 02, 12, 13 (03 is forbidden upstairs)
        assert projected_measure_bruteforce(fs, ex2_exact.pd, (0, 1)) == Fraction(5, 18)

    def test_inadmissible_is_zero(self, golden_float):
        # golden mean with identity-like factor has no (1,1) image word
        pipe = build_pipeline(fixtures.golden_mean(), exact=False)
        sft = pipe.sft
        fs = build_factor(pipe.tm, (0, 1), Alphabet(("0", "1")))
        assert projected_measure_bruteforce(fs, pipe.pd, (1, 1)) == -math.inf
        assert projected_measure(fs, pipe.pd, (1, 1)) == -math.inf

    def test_oracle_equivalence_exact_exhaustive(self, ex2_exact):
        fs = ex2_exact.factor
        for length in range(1, 7):
            for word in enumerate_image_words(fs, length):
                a = projected_measure(fs, ex2_exact.pd, word)
                b = projected_measure_bruteforce(fs, ex2_exact.pd, word)
                assert a == b, word

    def test_oracle_equivalence_float(self, ex2_float):
        fs = ex2_float.factor
        for length in range(1, 7):
            for word in enumerate_image_words(fs, length):
                a = projected_measure(fs, ex2_float.pd, word)
                b = projected_measure_bruteforce(fs, ex2_float.pd, word)
                assert abs(math.expm1(a - b)) <= 1e-10


EX2_ADJ = [[1, 1, 1, 0], [0, 1, 1, 1], [1, 1, 1, 0], [0, 1, 1, 1]]


@pytest.fixture(scope="module")
def stochastic_depth2():
    """Example 2's shift with depth-2 row-stochastic rational weights
    (block length 2, lambda = 1), exact mode, Example 2's factor map."""
    sft = build_sft(Alphabet(("0", "1", "2", "3")), EX2_ADJ)
    rng = np.random.default_rng(7)
    by_prefix: dict = {}
    for w in enumerate_words(sft, 3):
        by_prefix.setdefault(w[:2], []).append(w)
    table = {}
    for words in by_prefix.values():
        raw = [int(r) for r in rng.integers(1, 6, len(words))]
        table.update({w: Fraction(r, sum(raw)) for w, r in zip(words, raw)})
    pd = perron_exact(transfer_matrix(sft, build_potential(sft, 2, "weight", table)))
    return build_factor(pd.tm, (0, 0, 1, 1), Alphabet(("0", "1"))), pd


@pytest.fixture(scope="module")
def ex2_system(ex2_exact):
    return ex2_exact.factor, ex2_exact.pd


@pytest.fixture(scope="module")
def seed101():
    pipe = build_pipeline(fixtures.random_mixing_system(101, 5, 1, 3, density=0.5))
    return pipe.factor, pipe.pd


@pytest.fixture(scope="module")
def seed202():
    pipe = build_pipeline(fixtures.random_mixing_system(202, 4, 2, 2, density=0.5))
    return pipe.factor, pipe.pd


@pytest.fixture(scope="module")
def seed303():
    pipe = build_pipeline(fixtures.random_mixing_system(303, 6, 1, 3, density=0.35))
    return pipe.factor, pipe.pd


def _logsumexp(logs):
    top = max(logs)
    return top + math.log(sum(math.exp(x - top) for x in logs))


class TestOracleExpansion:
    """The oracle sums the rows of one domain_rows expansion that map to the
    image word, and reads nothing of the product route."""

    def test_independent_of_fiber_blocks(self, ex2_system, seed202):
        """A fresh system, whose words are enumerated on another one, answers
        every oracle call and level to length 6 without cutting a block."""
        for fs, pd in (ex2_system, seed202):
            fresh = build_factor(fs.tm, fs.symbol_map, fs.image_alphabet)
            for length in range(1, 7):
                for word in enumerate_image_words(fs, length):
                    assert (projected_measure_bruteforce(fresh, pd, word)
                            == projected_measure_bruteforce(fs, pd, word))
            for length in range(1, 7):
                got = preimage_measures(fresh, pd, length, DEFAULT_MAX_WORDS)
                want = preimage_measures(fs, pd, length, DEFAULT_MAX_WORDS)
                assert got[0].tobytes() == want[0].tobytes() and got[1] == want[1]
            assert not BLOCK_TABLES & vars(fresh).keys()

    @pytest.mark.parametrize("system", ["ex2_system", "stochastic_depth2", "seed202"])
    def test_masked_equals_grouped_unrestricted_rows(self, request, system):
        fs, pd = request.getfixturevalue(system)
        smap = np.array(fs.symbol_map)
        for length in range(1, 9):  # includes words shorter than the block
            words, values, steps = domain_rows(pd, length, DEFAULT_MAX_WORDS, pd.exact)
            groups: dict = {}
            for y, v in zip(map(tuple, smap[words].tolist()), values.tolist()):
                groups.setdefault(y, []).append(v)
            assert sorted(groups) == enumerate_image_words(fs, length)
            for y, vals in groups.items():
                got = projected_measure_bruteforce(fs, pd, y)
                if pd.exact:
                    # integer values nu~ . prod M . h~, one division per group
                    assert all(type(v) is int for v in vals)
                    assert got == Fraction(sum(vals), pd.int_pairing * pd.int_lam**steps)
                else:
                    want = _logsumexp(vals) - steps * pd.log_lam
                    assert got == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("system", ["ex2_system", "stochastic_depth2"])
    @pytest.mark.parametrize("word", [(0,), (1, 0), (0, 0, 1), (1, 0, 0, 1, 1, 0)])
    def test_budget_counts_visited_prefixes(self, request, system, word):
        fs, pd = request.getfixturevalue(system)
        rec, smap = pd.tm.recoding, fs.symbol_map

        def image(u):
            return tuple(smap[s] for s in u)

        k = rec.block_length
        if len(word) < k:  # one row per block over the word
            visited = sum(image(bw[:len(word)]) == word for bw in rec.block_words)
        else:  # every admissible preimage prefix of k or more symbols
            visited = sum(image(u) == word[:t] for t in range(k, len(word) + 1)
                          for u in enumerate_words(pd.tm.sft, t))
        with pytest.raises(EnumerationLimitError):
            projected_measure_bruteforce(fs, pd, word, visited - 1)
        assert (projected_measure_bruteforce(fs, pd, word, visited)
                == projected_measure_bruteforce(fs, pd, word))

    @pytest.mark.parametrize("system", ["ex2_exact", "ex2_float", "stochastic_depth2",
                                        "seed202"])
    def test_tables_are_read_only_and_equal_their_per_call_forms(self, request, system):
        pipe = request.getfixturevalue(system)
        fs, pd = (pipe.factor, pipe.pd) if hasattr(pipe, "factor") else pipe
        tm, rec = pd.tm, pd.tm.recoding
        tables = [
            (rec.block_array, np.array(rec.block_words, dtype=np.intp)),
            (tm.last_symbols, np.array(rec.block_words, dtype=np.intp)[:, -1]),
            (tm.follows, rec.block_sft.adjacency.astype(bool)),
            (fs.fiber_sizes, np.array([len(f) for f in fs.fibers])),
        ]
        tables += zip(pd.log_vectors, (np.log(np.asarray(v, dtype=float))
                                       for v in (pd.nu, pd.h)))
        assert len(fs.image_moves) == fs.image_alphabet.size
        tables += [(moves, tm.follows & (fs.symbol_map[tm.last_symbols] == y))
                   for y, moves in enumerate(fs.image_moves)]
        for table, per_call in tables:
            assert table.dtype == per_call.dtype
            assert np.array_equal(table, per_call)
            first = (0,) * table.ndim
            with pytest.raises(ValueError, match="read-only"):
                table[first] = table[first]
        # computed once per object
        assert tm.last_symbols is tm.last_symbols and pd.log_vectors is pd.log_vectors
        assert tm.follows is tm.follows and fs.image_moves is fs.image_moves


@st.composite
def symbol_rows(draw):
    """0-60 rows of 1-40 symbols drawn from at most 8 values up to 300 or up
    to 2**40, so that symbols past one byte are common and rows often need
    several int64 keys.  The rows are copies of a base row, each with at
    most one symbol changed, or rows drawn whole, so that equal rows and
    rows that differ in a single column of any key are common."""
    cols = draw(st.integers(1, 40))
    top = draw(st.sampled_from([300, 2**40]))
    symbols = st.sampled_from(draw(st.lists(st.integers(0, top), min_size=1, max_size=8)))
    row = st.lists(symbols, min_size=cols, max_size=cols)
    base = draw(row)
    edits = st.tuples(st.integers(0, cols - 1), symbols).map(
        lambda e: base[:e[0]] + [e[1]] + base[e[0] + 1:])
    rows = draw(st.lists(st.one_of(edits, row), max_size=60))
    return np.array(rows, dtype=np.intp).reshape(len(rows), cols)


@given(symbol_rows())
@example(np.array([[256], [1], [256]]))
@example(np.zeros((5, 3), dtype=np.intp))  # q = 1
@example(np.zeros((0, 40), dtype=np.intp))
@example(np.array([[2**40] * 40, [2**40] * 39 + [0], [2**40] * 40, [0] * 40]))
@example(np.array([[249] * 8, [0] * 8]))  # 250^8 lies between 2^63 and 2^64
@settings(max_examples=200, deadline=None)
def test_sorted_runs_matches_sorted(rows):
    listed = [tuple(r) for r in rows.tolist()]
    order = sorted(range(len(listed)), key=listed.__getitem__)  # stable
    ranked = [listed[i] for i in order]
    starts = [i for i in range(len(ranked)) if i == 0 or ranked[i] != ranked[i - 1]]
    got_order, got_starts = sorted_runs(rows)
    assert got_order.tolist() == order
    assert got_starts.tolist() == starts


class TestBatchedRoutes:
    """verify_projection's two level-batched routes against the per-word
    routes they replace."""

    @pytest.mark.parametrize("system", ["ex2_system", "stochastic_depth2", "seed101",
                                        "seed202", "seed303"])
    def test_levels_equal_per_word_routes(self, request, system):
        fs, pd = request.getfixturevalue(system)
        assert pd.exact == (system in ("ex2_system", "stochastic_depth2"))
        for length in range(1, 9):  # includes words shorter than the block
            expected = enumerate_image_words(fs, length)
            words, values = level_measures(fs, pd, length, DEFAULT_MAX_WORDS, pd.exact)
            images, measures = preimage_measures(fs, pd, length, DEFAULT_MAX_WORDS)
            assert list(map(tuple, words.tolist())) == expected
            assert list(map(tuple, images.tolist())) == expected
            for word, product, oracle in zip(expected, values.tolist(), measures):
                if pd.exact:
                    assert product == projected_measure(fs, pd, word)
                    assert oracle == projected_measure_bruteforce(fs, pd, word)
                else:
                    assert product == pytest.approx(projected_measure(fs, pd, word),
                                                    abs=1e-12)
                    assert oracle == projected_measure_bruteforce(fs, pd, word)

    @pytest.mark.parametrize("system", ["ex2_system", "seed202"])
    def test_misnormalised_oracle_fails(self, request, system, misnormalised_oracle):
        fs, pd = request.getfixturevalue(system)
        check = verify_projection(fs, pd, 4, 1e-10)
        assert not check.passed
        assert check.checked_words == sum(len(enumerate_image_words(fs, n))
                                          for n in range(1, 5))
        assert check.max_relative_error > 1e-4

    def test_word_missing_from_one_route_fails(self, ex2_system, monkeypatch):
        fs, pd = ex2_system
        real = factor_module.preimage_measures

        def drop_first(fs, pd, n, max_words):
            images, measures = real(fs, pd, n, max_words)
            return images[1:], measures[1:]

        monkeypatch.setattr(factor_module, "preimage_measures", drop_first)
        check = verify_projection(fs, pd, 3, 1e-10)
        assert check.checked_words == 2 + 4 + 8
        assert check.failures == ((0,), (0, 0), (0, 0, 0))
        assert check.max_relative_error == math.inf


@pytest.fixture(scope="module")
def depth2():
    sft = build_sft(Alphabet(("0", "1", "2", "3")),
                    [[1, 1, 1, 0], [0, 1, 1, 1], [1, 1, 1, 0], [0, 1, 1, 1]])
    rng = np.random.default_rng(11)
    table = {w: float(rng.uniform(0.5, 2.0)) for w in enumerate_words(sft, 3)}
    pot = build_potential(sft, 2, "weight", table)
    tm = transfer_matrix(sft, pot)
    pd = perron(tm)
    fs = build_factor(tm, (0, 0, 1, 1), Alphabet(("0", "1")))
    return fs, pd


class TestDepth2Pipeline:
    def test_blocks_are_image_2_words(self, depth2):
        fs, _ = depth2
        assert fs.block_length == 2
        assert fs.words.shape == (len(fs.fibers), 2)

    def test_short_word_consistency(self, depth2):
        fs, pd = depth2
        one = projected_measure(fs, pd, (0,))
        ext = [projected_measure(fs, pd, (0, b)) for b in range(2)]
        total = sum(math.exp(x) for x in ext if x != -math.inf)
        assert total == pytest.approx(math.exp(one), rel=1e-12)

    def test_oracle_equivalence(self, depth2):
        fs, pd = depth2
        for length in range(1, 7):
            for word in enumerate_image_words(fs, length):
                a = projected_measure(fs, pd, word)
                b = projected_measure_bruteforce(fs, pd, word)
                assert abs(math.expm1(a - b)) <= 1e-10

    def test_mass_one(self, depth2):
        fs, pd = depth2
        total = sum(math.exp(projected_measure(fs, pd, (b,))) for b in range(2))
        assert total == pytest.approx(1.0, rel=1e-12)


@pytest.fixture(scope="module")
def both_depths():
    sft = build_sft(Alphabet(("0", "1", "2", "3")),
                    [[1, 1, 1, 0], [0, 1, 1, 1], [1, 1, 1, 0], [0, 1, 1, 1]])
    from gibbsfactor import perron_exact

    pds = []
    for depth in (1, 2):
        table = {w: Fraction(1) for w in enumerate_words(sft, depth + 1)}
        pot = build_potential(sft, depth, "weight", table)
        pds.append(perron_exact(transfer_matrix(sft, pot)))
    fss = [build_factor(pd.tm, (0, 0, 1, 1), Alphabet(("0", "1")))
           for pd in pds]
    return pds, fss


@pytest.fixture(scope="module")
def stochastic_depths():
    """Row-stochastic rational potentials of depth 2 and 3 (lambda = 1) on
    the shift of `both_depths`: {depth: (pd, fs)}, block lengths 2 and 3."""
    sft = build_sft(Alphabet(("0", "1", "2", "3")),
                    [[1, 1, 1, 0], [0, 1, 1, 1], [1, 1, 1, 0], [0, 1, 1, 1]])
    from gibbsfactor import perron_exact

    out = {}
    for depth in (2, 3):
        raw = {w: Fraction(1 + (sum(w[:-1]) + 2 * w[-1]) % 3)
               for w in enumerate_words(sft, depth + 1)}
        rows = {}
        for w, v in raw.items():
            rows[w[:-1]] = rows.get(w[:-1], 0) + v
        table = {w: v / rows[w[:-1]] for w, v in raw.items()}
        pd = perron_exact(transfer_matrix(sft, build_potential(sft, depth, "weight", table)))
        out[depth] = pd, build_factor(pd.tm, (0, 0, 1, 1), Alphabet(("0", "1")))
    return out


class TestCrossDepthConsistency:
    """The same potential presented at a deeper block recoding must define
    the identical measure through every code path."""

    def test_cylinder_measures_identical(self, both_depths):
        (pd1, pd2), _ = both_depths
        from gibbsfactor import cylinder_measure

        for n in range(1, 6):
            for w in enumerate_words(pd1.tm.sft, n):
                assert cylinder_measure(pd1, w) == cylinder_measure(pd2, w)

    def test_projected_measures_identical(self, both_depths):
        (pd1, pd2), (fs1, fs2) = both_depths
        for n in range(1, 6):
            for y in enumerate_image_words(fs1, n):
                assert projected_measure(fs1, pd1, y) == projected_measure(fs2, pd2, y)

    def test_g_limit_on_recoded_system(self, both_depths):
        from gibbsfactor import g_limit

        (pd1, pd2), (fs1, fs2) = both_depths
        r2 = g_limit(fs2, pd2, (), (0,), jmax=12)
        assert r2.value == pytest.approx(1 / 3, abs=1e-6)
        # stage rationals obey the same closed form as the depth-1 run
        for (n, _), exact in zip(r2.stages, r2.exact_stages):
            assert exact == Fraction(n + 3, 3 * (n + 2))

    @pytest.mark.parametrize("presentation", [("uniform", 1), ("uniform", 2),
                                              ("stochastic", 2), ("stochastic", 3)],
                             ids=["1", "2", "stochastic-2", "stochastic-3"])
    @pytest.mark.parametrize("prefix, tail", [((), (0,)), ((1,), (0,)), ((), (0, 1)),
                                              ((1,), (1, 0)), ((0, 1), (1, 0, 0)),
                                              ((), (0, 1, 1))])
    def test_g_limit_stages_are_direct_ratios(self, both_depths, stochastic_depths,
                                              presentation, prefix, tail):
        # tails of length 2 and 3 leave a partial cycle at block lengths 1-3
        kind, depth = presentation
        if kind == "uniform":
            pds, fss = both_depths
            pd, fs = pds[depth - 1], fss[depth - 1]
        else:
            pd, fs = stochastic_depths[depth]
        res = g_limit(fs, pd, prefix, tail, jmax=6)
        assert len(res.exact_stages) == len(res.stages) >= 4
        for (n, value), exact in zip(res.stages, res.exact_stages):
            reps, rest = divmod(n + 1 - len(prefix), len(tail))
            assert rest == 0
            assert exact == g_approx(fs, pd, prefix + tail * reps).value
            assert value == float(exact)

    def test_fwm_not_found_on_recoding(self, both_depths):
        _, (_, fs2) = both_depths
        res = fwm_search(fs2, 5)
        assert res.found is None
        assert res.reports[0].recoded


class TestFwm:
    def test_example_fails_every_n(self, ex2_exact):
        fs = ex2_exact.factor
        for n in (1, 2, 5, 8):
            rep = fwm_check(fs, n)
            assert not rep.holds
            # the zero run witnesses the failure: starting at domain symbol 1
            # the only lift of the zero run stays at 1, never reaching 0
            assert rep.witnesses[0] == ((0,) * (n + 1), 1, 0)

    def test_example_search_not_found(self, ex2_exact):
        res = fwm_search(ex2_exact.factor, 8)
        assert res.found is None
        assert len(res.reports) == 8
        assert all(not r.holds for r in res.reports)

    def test_full_shift_collapse_n1(self):
        pipe = build_pipeline(fixtures.three_to_two_collapse(), exact=True)
        res = fwm_search(pipe.factor, 4)
        assert res.found == 1

    def test_identity_factor_n1(self, full2_exact):
        assert fwm_search(full2_exact.factor, 3).found == 1

    def test_rate_demo_n1(self, rate_demo_float):
        assert fwm_search(rate_demo_float.factor, 3).found == 1

    def test_words_checked_counts_admissible(self, ex2_exact):
        rep = fwm_check(ex2_exact.factor, 3)
        assert rep.words_checked == len(enumerate_image_words(ex2_exact.factor, 4))

    def test_witness_cap(self, ex2_exact):
        # at N=8 exactly four (word, pair) failures exist: the all-0 and
        # all-1 step patterns from either starting letter
        full = fwm_check(ex2_exact.factor, 8)
        assert len(full.witnesses) == 4
        capped = fwm_check(ex2_exact.factor, 8, witness_cap=3)
        assert len(capped.witnesses) == 3


@pytest.fixture(scope="module")
def even_shift():
    """Three-state presentation whose binary image is the even shift
    (0-runs between 1s have even length): a sofic, non-Markov image."""
    sft = build_sft(Alphabet(("s1", "s2", "s3")),
                    [[1, 1, 0], [0, 0, 1], [1, 1, 0]])
    table = {w: Fraction(1) for w in enumerate_words(sft, 2)}
    pot = build_potential(sft, 1, "weight", table)
    tm = transfer_matrix(sft, pot)
    fs = build_factor(tm, (1, 0, 0), Alphabet(("0", "1")))
    return fs, perron(tm)


class TestSoficImage:
    def test_odd_zero_runs_rejected(self, even_shift):
        fs, _ = even_shift
        assert not image_admissible(fs, (1, 0, 1))
        assert not image_admissible(fs, (1, 0, 0, 0, 1))
        assert image_admissible(fs, (1, 0, 0, 1))
        assert image_admissible(fs, (1, 0, 0, 0, 0, 1))

    def test_unfinished_runs_accepted(self, even_shift):
        # without a closing 1 the run parity is not yet determined
        fs, _ = even_shift
        assert image_admissible(fs, (0, 0, 0, 1))
        assert image_admissible(fs, (1, 0, 0, 0))

    def test_image_needs_unbounded_memory(self, even_shift):
        # no finite-step adjacency reproduces this language: the word sets
        # of each length differ from the full shift but every letter pair
        # occurs, so a 1-step presentation would accept (1,0,1)
        fs, _ = even_shift
        pairs = {w for w in enumerate_image_words(fs, 2)}
        assert pairs == {(0, 0), (0, 1), (1, 0), (1, 1)}
        assert (1, 0, 1) not in set(enumerate_image_words(fs, 3))

    def test_not_fiber_wise_mixing(self, even_shift):
        # zero-run lifts alternate deterministically between the two
        # zero-emitting states, so end symbols cannot be prescribed
        fs, _ = even_shift
        res = fwm_search(fs, 6)
        assert res.found is None
        word, a0, aN = res.reports[-1].witnesses[0]
        assert word == (0,) * 7

    def test_oracle_equivalence(self, even_shift):
        fs, pd = even_shift
        for length in range(1, 9):
            for word in enumerate_image_words(fs, length):
                a = projected_measure(fs, pd, word)
                b = projected_measure_bruteforce(fs, pd, word)
                assert abs(math.expm1(a - b)) <= 1e-10

    def test_projected_mass_one(self, even_shift):
        fs, pd = even_shift
        total = sum(math.exp(projected_measure(fs, pd, (b,))) for b in range(2))
        assert total == pytest.approx(1.0, rel=1e-12)


class TestMarkovIdentityFactor:
    def test_g_depends_on_two_symbols_only(self, golden_float):
        # identity factor of a depth-1 system: g(x) is a function of
        # (x_0, x_1), so variations vanish from n = 2 on
        from gibbsfactor import variation_profile

        fs = build_factor(golden_float.tm, (0, 1), Alphabet(("0", "1")))
        prof = variation_profile(fs, golden_float.pd, 10, 6)
        assert prof.var_hat[0] > 0.1
        assert all(v <= 1e-12 for v in prof.var_hat[1:])


@st.composite
def random_factored_systems(draw):
    n = draw(st.integers(min_value=3, max_value=5))
    adj = np.zeros((n, n), dtype=int)
    for i in range(n):
        adj[i][(i + 1) % n] = 1
    adj[0][0] = 1
    for i, j in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                              max_size=8)):
        adj[i][j] = 1
    sft = build_sft(Alphabet(tuple(str(i) for i in range(n))), adj.tolist())
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    table = {w: float(rng.uniform(0.5, 2.0)) for w in enumerate_words(sft, 2)}
    pot = build_potential(sft, 1, "weight", table)
    tm = transfer_matrix(sft, pot)
    image_size = draw(st.integers(min_value=2, max_value=min(3, n)))
    smap = [i if i < image_size else draw(st.integers(0, image_size - 1))
            for i in range(n)]
    fs = build_factor(tm, smap, Alphabet(tuple(chr(97 + b) for b in range(image_size))))
    return fs, perron(tm)


class TestRandomizedOracle:
    @given(random_factored_systems())
    @settings(max_examples=20, deadline=None)
    def test_projection_routes_agree(self, sys):
        fs, pd = sys
        for length in (1, 2, 4):
            for word in enumerate_image_words(fs, length):
                a = projected_measure(fs, pd, word)
                b = projected_measure_bruteforce(fs, pd, word)
                assert abs(math.expm1(a - b)) <= 1e-10

    @given(random_factored_systems())
    @settings(max_examples=20, deadline=None)
    def test_projected_mass_and_consistency(self, sys):
        fs, pd = sys
        q = fs.image_alphabet.size
        total = sum(math.exp(projected_measure(fs, pd, (b,))) for b in range(q))
        assert total == pytest.approx(1.0, rel=1e-11)
        for word in enumerate_image_words(fs, 2):
            parent = projected_measure(fs, pd, word)
            ext = [projected_measure(fs, pd, word + (b,)) for b in range(q)]
            total = sum(math.exp(x) for x in ext if x != -math.inf)
            assert total == pytest.approx(math.exp(parent), rel=1e-11)


# Every image-word sweep at four block transitions on Example 2.
SWEEPS = {
    "enumerate_image_words": lambda pipe, budget: enumerate_image_words(pipe.factor, 5, budget),
    "fwm_check": lambda pipe, budget: fwm_check(pipe.factor, 4, budget),
    "contraction_profile": lambda pipe, budget: contraction_profile(pipe.factor, 4, budget),
    "image_log_measure_map": lambda pipe, budget: image_log_measure_map(
        pipe.factor, pipe.pd, 5, budget),
}


@pytest.mark.parametrize("sweep", sorted(SWEEPS))
def test_sweep_budget_counts_visited_nodes(ex2_float, sweep):
    # the image is the full 2-shift and no branch dies, so four transitions
    # visit 2 + 4 + 8 + 16 + 32 nodes: every prefix, not only the 32 words
    nodes = sum(2**t for t in range(1, 6))
    with pytest.raises(EnumerationLimitError):
        SWEEPS[sweep](ex2_float, nodes - 1)
    SWEEPS[sweep](ex2_float, nodes)


def test_exact_results_are_fractions(ex2_exact, stochastic_depth2, skewed_golden_doc):
    """Exact results are Fractions, never bare ints (the CLI reads their
    numerator and denominator), zero measures and the empty word included."""
    golden = build_pipeline(parse_system_dict(skewed_golden_doc), exact=True)
    systems = [(ex2_exact.factor, ex2_exact.pd), stochastic_depth2, (golden.factor, golden.pd)]
    # the empty cylinder, an inadmissible domain word, an image word shorter
    # than the block and a measure-zero image word
    assert cylinder_measure(ex2_exact.pd, ()) == 1
    assert cylinder_measure(ex2_exact.pd, (1, 0)) == 0
    assert stochastic_depth2[0].block_length == 2
    assert projected_measure(golden.factor, golden.pd, (1, 1)) == 0
    for fs, pd in systems:
        k, size = fs.block_length, pd.tm.sft.size
        values = [cylinder_measure(pd, w) for n in range(k + 3)
                  for w in itertools.product(range(size), repeat=n)]
        image_words = [y for n in range(1, k + 3)
                       for y in itertools.product(range(fs.image_alphabet.size), repeat=n)]
        for y in image_words:
            values += [projected_measure(fs, pd, y), projected_measure_bruteforce(fs, pd, y)]
            if len(y) > k and values[-1]:
                values.append(g_approx(fs, pd, y).value)
                values.extend(np.ravel(block_product(fs, y, exact=True)[0]))
        for n in range(1, k + 3):
            values.extend(level_measures(fs, pd, n, DEFAULT_MAX_WORDS, True)[1])
            values += preimage_measures(fs, pd, n, DEFAULT_MAX_WORDS)[1]
        res = g_limit(fs, pd, (), (0,), jmax=6)
        assert res.exact_stages
        values += res.exact_stages
        assert 0 in values and 1 in values
        assert all(type(x) is Fraction for x in values)


# Word-by-word routes that never call the sweep walker.
def all_image_words(fs, length):
    return [w for w in itertools.product(range(fs.image_alphabet.size), repeat=length)
            if image_admissible(fs, w)]


def bool_block_product(fs, word):
    blocks = image_block_word(fs, word)
    mat = np.eye(len(fs.fibers[blocks[0]]), dtype=bool)
    for a, b in zip(blocks, blocks[1:]):
        mat = (mat.astype(int) @ (fs.blocks[(a, b)] > 0)) > 0
    return blocks, mat


def carried_block_product(fs, word):
    """The per-word boolean route: (blocks, product), the product
    carry_product's from the identity on the first fiber over the per-word
    blocks, all False when it vanished."""
    blocks = image_block_word(fs, word)
    first, last = (len(fs.fibers[b]) for b in (blocks[0], blocks[-1]))
    carried = carry_product(fs.blocks, blocks, np.eye(first, dtype=bool))
    return blocks, np.zeros((first, last), dtype=bool) if carried is None else carried[0]


def fwm_word_by_word(fs, n, witness_cap=100, product=bool_block_product):
    words = all_image_words(fs, n + fs.block_length)
    witnesses = []
    holds = True
    for word in words:
        blocks, mat = product(fs, word)
        if mat.all():
            continue
        holds = False
        for i, j in zip(*np.nonzero(~mat)):
            if len(witnesses) < witness_cap:
                witnesses.append((word, fs.fibers[blocks[0]][i], fs.fibers[blocks[-1]][j]))
    return holds, len(words), witnesses


def check_sweeps_word_by_word(fs, pd, max_len):
    k = fs.block_length
    for length in range(k, max_len + 1):
        words = all_image_words(fs, length)
        assert enumerate_image_words(fs, length) == words
        logs = image_log_measure_map(fs, pd, length)
        assert list(logs) == words
        for word in words:
            assert logs[word] == pytest.approx(projected_measure(fs, pd, word), abs=1e-10)
    for n in range(1, max_len - k + 1):
        words = all_image_words(fs, n + k)
        per_word = contraction_profile(fs, n).per_word
        assert list(per_word) == words
        for word in words:
            mat, _ = block_product(fs, word, exact=pd.exact)
            want = math.inf if not (mat > 0).any(axis=0).all() else projective_diameter(mat)
            assert per_word[word] == pytest.approx(want, rel=1e-9, abs=1e-12)
        rep = fwm_check(fs, n)
        assert (rep.holds, rep.words_checked, list(rep.witnesses)) == fwm_word_by_word(fs, n)


class TestSweepsWordByWord:
    @given(random_factored_systems())
    @settings(max_examples=15, deadline=None)
    def test_random_factored_systems(self, sys):
        fs, pd = sys
        check_sweeps_word_by_word(fs, pd, 5)

    @pytest.mark.parametrize("seed", [0, 3])
    def test_block_length_two_uneven_fibers(self, seed):
        pipe = build_pipeline(fixtures.random_mixing_system(seed, 6, 2, 3, density=0.4))
        assert pipe.factor.block_length == 2
        check_sweeps_word_by_word(pipe.factor, pipe.pd, 5)


def sweep_nodes(fs, length):
    # every admissible prefix of at least one block is a visited node
    return sum(len(enumerate_image_words(fs, t)) for t in range(fs.block_length, length + 1))


@pytest.mark.parametrize("system", ["example2", "mixing_3"])
def test_sweeps_chunked_at_row_cap(monkeypatch, system):
    desc = (fixtures.example2() if system == "example2"
            else fixtures.random_mixing_system(3, 6, 2, 3, density=0.4))
    pipe = build_pipeline(desc)
    fs, pd = pipe.factor, pipe.pd
    length = 5 + fs.block_length
    n = length - fs.block_length
    sweeps = {
        "enumerate_image_words": lambda budget: enumerate_image_words(fs, length, budget),
        "fwm_check": lambda budget: fwm_check(fs, n, budget),
        "contraction_profile": lambda budget: contraction_profile(fs, n, budget).per_word,
        "image_log_measure_map": lambda budget: image_log_measure_map(fs, pd, length, budget),
    }
    nodes = sweep_nodes(fs, length)
    whole = {name: sweep(nodes) for name, sweep in sweeps.items()}
    monkeypatch.setattr(factor_module, "SWEEP_ROW_CAP", 3)
    for name, sweep in sweeps.items():
        with pytest.raises(EnumerationLimitError):
            sweep(nodes - 1)
        chunked = sweep(nodes)
        if isinstance(chunked, dict):
            assert list(chunked) == list(whole[name])
            assert list(chunked.values()) == pytest.approx(list(whole[name].values()),
                                                           rel=1e-12, abs=1e-14)
        else:
            assert chunked == whole[name]


def row_stochastic(desc, rng):
    """The description with exact row-stochastic weights (lambda 1): random
    integers 1-5 over each table prefix's sum."""
    prefixes = list(map(tuple, desc.words[:, :-1].tolist()))
    raw = rng.integers(1, 6, len(prefixes)).tolist()
    sums: dict = {}
    for p, r in zip(prefixes, raw):
        sums[p] = sums.get(p, 0) + r
    return dataclasses.replace(desc, values=tuple(Fraction(r, sums[p])
                                                  for p, r in zip(prefixes, raw)))


@st.composite
def folded_systems(draw):
    """(fs, pd, n): a seeded random_mixing_system of 3-5 symbols at depth 0-3
    over 2-3 image letters (uneven fibers) and a word length n up to three
    blocks past the block length.  Its weights are the generator's floats
    in [0.5, 2], or at depth >= 1 either exact row-stochastic rationals or
    those floats times a coboundary that spreads them over about
    10^-150 .. 10^150 (a diagonal similarity of W, so Perron still
    converges, at the default cap)."""
    seed, depth = draw(st.integers(0, 2**16)), draw(st.integers(0, 3))
    size = draw(st.integers(3, 5))
    desc = fixtures.random_mixing_system(seed, size, depth, draw(st.integers(2, 3)))
    form = draw(st.sampled_from(["float", "exact", "spread"] if depth else ["float"]))
    rng = np.random.default_rng(seed)
    if form == "exact":
        desc = row_stochastic(desc, rng)
    elif form == "spread":
        g = rng.uniform(-75, 75, (size,) * depth) * math.log(10)
        w = desc.words
        phi = np.log(desc.values) + g[tuple(w[:, :-1].T)] - g[tuple(w[:, 1:].T)]
        desc = dataclasses.replace(desc, mode="phi", values=phi)
    tm = transfer_matrix(*build_system(desc))
    pd = perron_exact(tm) if form == "exact" else perron(tm)
    fs = build_factor(tm, desc.factor_map, Alphabet(desc.image_alphabet))
    return fs, pd, draw(st.integers(1, fs.block_length + 3))


@given(folded_systems())
@settings(max_examples=100, deadline=None)
def test_folded_levels_equal_per_word_products(system):
    """level_measures folds h into the last block; per word it matches the
    product formula of projected_measure (exactly in exact mode), and its
    budget still counts every visited prefix, the last level included."""
    fs, pd, n = system
    words, values = level_measures(fs, pd, n, DEFAULT_MAX_WORDS, pd.exact)
    expected = enumerate_image_words(fs, n)
    assert list(map(tuple, words.tolist())) == expected
    for word, value in zip(expected, values.tolist()):
        want = projected_measure(fs, pd, word)
        if pd.exact:
            assert type(value) is Fraction and value == want
        else:
            assert abs(value - want) <= 1e-12
    k = fs.block_length
    if n >= k:
        visited = sweep_nodes(fs, n)
        with pytest.raises(EnumerationLimitError):
            level_measures(fs, pd, n, visited - 1, pd.exact)
        assert level_measures(fs, pd, n, visited, pd.exact)[0].tolist() == words.tolist()


def path_state_bytes(state):
    parent, rows, values, visited = state
    return (None if parent is None else parent.tobytes(), rows.tobytes(),
            values.dtype.str, repr(values.tolist()) if values.dtype == object
            else values.tobytes(), visited)


@given(folded_systems(), st.data())
@settings(max_examples=60, deadline=None)
def test_domain_path_extends_from_any_split(system, data):
    """domain_rows gives the admissible words of every length 1..k+2 (k the
    block length; below k the first symbols of every block), and a
    domain_path extended from any split point of a path equals the fresh
    path state by state, leaves the states it extends untouched, and raises
    at the same budgets as the fresh path, with its message."""
    fs, pd, _ = system
    tm, k = pd.tm, fs.block_length
    for n in range(1, k + 3):
        words, values, steps = domain_rows(pd, n, DEFAULT_MAX_WORDS, pd.exact)
        want = word_matrix(tm.sft, n)
        if n < k:
            assert words.tolist() == tm.recoding.block_array[:, :n].tolist()
            words = np.unique(words, axis=0)
        assert words.tolist() == want.tolist() and len(values) >= len(want)
        assert steps == max(n - k, 0)
    tables = data.draw(st.lists(st.sampled_from([tm.follows, *fs.image_moves]), max_size=k + 3))
    rows = np.arange(tm.dimension)
    head = (None, rows, (pd.int_nu if pd.exact else pd.log_vectors[0])[rows], len(rows))
    fresh = domain_path(pd, [head], tables, DEFAULT_MAX_WORDS, pd.exact)
    assert len(fresh) == len(tables) + 1
    split = data.draw(st.integers(0, len(tables)))
    kept = list(map(path_state_bytes, fresh[:split + 1]))
    extended = domain_path(pd, fresh[:split + 1], tables[split:], DEFAULT_MAX_WORDS, pd.exact)
    assert list(map(path_state_bytes, extended)) == list(map(path_state_bytes, fresh))
    assert list(map(path_state_bytes, fresh[:split + 1])) == kept

    def outcome(states, moves, budget):
        try:
            count_visited(states[-1][3], budget)
            return domain_path(pd, states, moves, budget, pd.exact)[-1][3]
        except EnumerationLimitError as e:
            return str(e)

    for budget in {b for state in fresh for b in (state[3] - 1, state[3])}:
        assert (outcome(fresh[:split + 1], tables[split:], budget)
                == outcome([head], tables, budget))


def test_stacks_are_shared_by_every_arithmetic():
    """One factor system walked in exact, float and boolean arithmetic gives
    what a fresh system gives for each walk; its padded block stacks are
    built on the first walk, not by build_factor, once per arithmetic, are
    read-only, hold every block and are zero in their padding; the packed
    boolean table ORs the packed 0/1 support rows of the bits of each byte."""
    desc = row_stochastic(fixtures.random_mixing_system(5, 5, 2, 3), np.random.default_rng(5))
    pipe = build_pipeline(desc, exact=True)

    def fresh():
        return build_factor(pipe.tm, desc.factor_map, Alphabet(desc.image_alphabet))

    walks = [lambda fs: level_measures(fs, pipe.pd, 5, DEFAULT_MAX_WORDS, True),
             lambda fs: level_measures(fs, pipe.pd, 5, DEFAULT_MAX_WORDS, False),
             lambda fs: enumerate_image_words(fs, 5),
             lambda fs: fwm_check(fs, 2)]
    shared = fresh()
    assert not BLOCK_TABLES & vars(shared).keys()
    for walk in walks:
        got, want = walk(shared), walk(fresh())
        if isinstance(got, tuple) and isinstance(got[0], np.ndarray):
            assert got[0].tobytes() == want[0].tobytes()
            assert got[1].dtype == want[1].dtype and got[1].tolist() == want[1].tolist()
        else:
            assert got == want
    dtypes = (object, float, np.uint8)
    stacks = [shared.stack(dtype) for dtype in dtypes]
    assert all(a is b for a, b in zip(stacks, [shared.stack(d) for d in dtypes]))
    assert not any(a.flags.writeable for a in stacks)
    exact, floats, table = stacks
    assert exact.dtype == object and floats.dtype == float
    assert table.dtype == np.uint8 and table.shape == (len(floats), 1, 256, 1)
    # entry [p, 0, v]: the OR of the packed support rows b of block p over the bits b of v
    packed = np.packbits(floats != 0, axis=-1, bitorder="little")[..., 0]
    for v in range(256):
        rows = [b for b in range(floats.shape[1]) if v >> b & 1]
        assert table[:, 0, v, 0].tolist() == np.bitwise_or.reduce(packed[:, rows], axis=1,
                                                                 initial=0).tolist()
    sizes = shared.fiber_sizes
    for stack, blocks in ((exact, shared.exact_blocks), (floats, shared.blocks)):
        assert len(stack) == len(blocks)
        for i, (a, b) in enumerate(shared.pairs.tolist()):
            assert stack[i, :sizes[a], :sizes[b]].tolist() == blocks[a, b].tolist()
            padding = stack[i].copy()
            padding[:sizes[a], :sizes[b]] = 0
            assert not padding.any()


class TestExactForm:
    @pytest.mark.parametrize("which", ["example2", "depth2", "stochastic"])
    def test_exact_blocks_are_slices_of_exact_weights(self, request, which):
        if which == "example2":
            pipe = request.getfixturevalue("ex2_exact")
            tm, fs = pipe.tm, pipe.factor
        elif which == "depth2":
            (_, pd), (_, fs) = request.getfixturevalue("both_depths")
            tm = pd.tm
        else:  # rational weights with D > 1
            fs, _ = request.getfixturevalue("stochastic_depth2")
            tm = fs.tm
            assert tm.denominator > 1
        ints, den, w = tm.int_weights, tm.denominator, tm.exact_weights
        for m in (ints, w):
            assert isinstance(m, np.ndarray) and m.dtype == object
            assert m.shape == (tm.dimension, tm.dimension)
            assert not m.flags.writeable
        assert all(type(x) is int for x in ints.ravel())
        assert all(type(x) is Fraction for x in w.ravel())
        assert type(den) is int and den >= 1
        assert all(Fraction(x, den) == y for x, y in zip(ints.ravel(), w.ravel()))
        assert set(fs.exact_blocks) == set(fs.blocks)
        for (a, b), m in fs.exact_blocks.items():
            ref = ints[np.ix_(fs.fibers[a], fs.fibers[b])]
            assert m.dtype == object and m.shape == ref.shape
            assert all(type(x) is int for x in m.ravel())
            assert (m == ref).all()


class TestCarryProduct:
    @pytest.mark.parametrize("dtype", [bool, float])
    def test_missing_transition_and_vanished_product(self, dtype):
        mats = {(0, 1): np.array([[1, 0], [0, 0]], dtype=dtype),
                (1, 0): np.array([[0, 0], [0, 1]], dtype=dtype),
                (1, 1): np.array([[1, 1], [0, 1]], dtype=dtype)}
        assert carry_product(mats, [0, 0]) is None
        assert carry_product(mats, [0, 1, 2]) is None
        assert carry_product(mats, [0, 1, 0]) is None
        assert carry_product(mats, [1, 1, 0], np.array([1, 0], dtype=dtype)) is not None
        assert carry_product(mats, [1, 0], np.array([1, 0], dtype=dtype)) is None
        x, scale = carry_product(mats, [0, 1, 1])
        assert x.dtype == dtype and (x == np.array([[1, 1], [0, 0]], dtype=dtype)).all()
        assert scale == 0.0

    def test_short_word_returns_start(self):
        start = np.ones(2)
        assert carry_product({}, [3], start) == (start, 0.0)
        assert carry_product({}, [], None) == (None, 0.0)

    @pytest.mark.parametrize("system", ["ex2_float", "rate_demo_float", "seed202", "seed303",
                                        "depth2"])
    def test_float_steps_equal_stacked_rescale(self, request, system):
        """Each step of a single float product renormalises with the same bits
        as the stacked rule the walker uses."""
        fixture = request.getfixturevalue(system)  # a pipeline or an (fs, pd) pair
        fs, pd = (fixture.factor, fixture.pd) if hasattr(fixture, "factor") else fixture
        k = fs.block_length
        for length in range(k + 1, 9):
            for word in enumerate_image_words(fs, length):
                blocks = image_block_word(fs, word)
                for start in (None, fs.fiber_nu(pd, blocks[0])):
                    x, scale = start, 0.0
                    for a, b in zip(blocks, blocks[1:]):
                        m = fs.blocks[(a, b)]
                        # a stack of one product, so the stacked rule runs
                        x, scale, alive = rescale_product((m if x is None else x @ m)[None],
                                                          np.array([scale]))
                        x, scale = x[0], scale[0]
                        assert alive[0]
                    got, got_scale = carry_product(fs.blocks, blocks, start)
                    assert np.array_equal(got, x) and got_scale == scale


def test_boolean_walks_ignore_weight_size():
    """Boolean walks multiply the blocks' 0/1 support: weights near the float
    limit give the same words, report and verdict as weight 1, and no
    overflow warning."""
    sft = build_sft(Alphabet(("0", "1", "2")), [[1, 1, 1]] * 3)

    def outcomes(weight):
        pot = build_potential(sft, 1, "weight", dict.fromkeys(enumerate_words(sft, 2), weight))
        fs = build_factor(transfer_matrix(sft, pot), (0, 0, 1), Alphabet(("0", "1")))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            return (enumerate_image_words(fs, 4), fwm_check(fs, 2),
                    image_admissible(fs, (0, 0, 1, 0)))

    assert outcomes(1e308) == outcomes(1.0)


@st.composite
def word_call_sequences(draw):
    """(tm, factor args, Perron data pair, calls): a seeded random_mixing_system
    of 3-5 symbols at depth 0-3 over 2-3 image letters (uneven fibers), its
    two Perron data and a sequence of (route, Perron data index, image
    word) calls.  At depth >= 1 the weights are exact row-stochastic
    rationals and the pair is the float and the exact Perron data; at depth
    0 (no row-stochastic table) the pair is two float runs, equal in value
    but distinct objects.  The words mix
    admissible words, random words (some inadmissible, some shorter than
    the block length), repeats, one-symbol extensions of the previous word
    and g_approx's alternation of a word and its suffix w[1:].  They also
    share a prefix with the previous word and then differ: by an
    out-of-range symbol, by a window that is no image block (block length
    k >= 2), or only inside their last k - 1 symbols; the previous word is
    called again after each of the first two."""
    seed, depth = draw(st.integers(0, 2**16)), draw(st.integers(0, 3))
    desc = fixtures.random_mixing_system(seed, draw(st.integers(3, 5)), depth,
                                         draw(st.integers(2, 3)))
    if depth:
        desc = row_stochastic(desc, np.random.default_rng(seed))
    tm = transfer_matrix(*build_system(desc))
    args = (desc.factor_map, Alphabet(desc.image_alphabet))
    fs = build_factor(tm, *args)
    k, q = fs.block_length, len(desc.image_alphabet)
    admissible = [w for n in range(1, k + 4) for w in enumerate_image_words(fs, n)]
    unrealized = [w for w in itertools.product(range(q), repeat=k)
                  if w not in fs.image_block_index]
    words = [draw(st.sampled_from(admissible))]
    for kind in draw(st.lists(st.sampled_from(["admissible", "random", "repeat", "extend",
                                                "suffix", "bad symbol", "bad window",
                                                "last symbols"]), max_size=24)):
        last = words[-1]
        cut = draw(st.integers(0, len(last)))
        if kind == "bad symbol":
            words += [last[:cut] + (draw(st.sampled_from([-1, q, q + 2])),), last]
        elif kind == "bad window" and unrealized:
            words += [last[:cut] + draw(st.sampled_from(unrealized)), last]
        elif kind == "last symbols" and k > 1 and len(last) >= k:
            j = draw(st.integers(1, k - 1))
            words.append(last[:-j] + tuple(draw(st.lists(st.integers(0, q - 1),
                                                         min_size=j, max_size=j))))
        elif kind == "admissible":
            words.append(draw(st.sampled_from(admissible)))
        elif kind == "random":
            words.append(tuple(draw(st.lists(st.integers(0, q - 1), min_size=1,
                                             max_size=k + 3))))
        elif kind == "repeat":
            words.append(last)
        elif kind == "extend":
            words.append(last + (draw(st.integers(0, q - 1)),))
        elif len(last) > 1:  # g_approx's pair: the word, then its suffix
            words += [last[1:], last]
    calls = [(draw(st.sampled_from(["product", "oracle"])), draw(st.integers(0, 1)), w)
             for w in words]
    return tm, args, (perron(tm), perron_exact(tm) if depth else perron(tm)), calls


@given(word_call_sequences())
@settings(max_examples=60, deadline=None)
def test_per_word_routes_do_not_depend_on_call_order(system):
    """Both per-word routes resume the last path of their factor system;
    every result equals, bit for bit, the same call on a fresh factor
    system built from the same transfer matrix, whatever came before it,
    with one system paired in turn with float and exact Perron data, and
    a word with an out-of-range symbol raises the fresh call's
    ValidationError."""
    tm, args, pds, calls = system
    fs = build_factor(tm, *args)
    routes = {"product": projected_measure, "oracle": projected_measure_bruteforce}

    def outcome(route, fs, pd, word):
        try:
            return routes[route](fs, pd, word)
        except ValidationError as exc:
            return str(exc)

    for route, which, word in calls:
        pd = pds[which]
        got = outcome(route, fs, pd, word)
        want = outcome(route, build_factor(tm, *args), pd, word)
        assert type(got) is type(want) and got == want, (route, which, word)


def visited_prefixes(fs, pd, word):
    """The preimage prefixes a fresh oracle call on `word` visits."""
    smap = fs.symbol_map
    k = pd.tm.recoding.block_length

    def image(u):
        return tuple(smap[s] for s in u)

    if len(word) < k:
        return sum(image(bw[:len(word)]) == word for bw in pd.tm.recoding.block_words)
    return sum(image(u) == word[:t] for t in range(k, len(word) + 1)
               for u in enumerate_words(pd.tm.sft, t))


@pytest.mark.parametrize("system", ["ex2_system", "stochastic_depth2", "seed202"])
def test_resumed_oracle_keeps_the_budget(request, system):
    """A resumed oracle call raises at exactly the budgets where a fresh call
    raises, with its message: budget visited - 1 raises and visited passes,
    after a large-budget call on the same path and after a raise, and the
    call after a raise is still right."""
    fs, pd = request.getfixturevalue(system)
    for word in [(0,), (1, 0), (0, 0, 1), (1, 0, 0, 1, 1, 0), (0, 1, 1, 0, 1, 0, 0)]:
        visited = visited_prefixes(fs, pd, word)
        fresh = dataclasses.replace(fs)  # a new instance: no last paths
        with pytest.raises(EnumerationLimitError) as raised:
            projected_measure_bruteforce(fresh, pd, word, visited - 1)
        want = projected_measure_bruteforce(fresh, pd, word, visited)
        for before in (word, word[:-1], word[:1], word + (0,)):
            if before:
                projected_measure_bruteforce(fs, pd, before)  # a large budget
            with pytest.raises(EnumerationLimitError) as again:
                projected_measure_bruteforce(fs, pd, word, visited - 1)
            assert str(again.value) == str(raised.value)
            # after the raise: the same path, the smallest budget that passes
            assert projected_measure_bruteforce(fs, pd, word, visited) == want
            with pytest.raises(EnumerationLimitError):
                projected_measure_bruteforce(fs, pd, word, visited - 1)
            assert projected_measure_bruteforce(fs, pd, word) == want


def test_last_paths_hold_one_path_per_route(ex2_system, ex2_float):
    """Each route keeps one path: the last word, its Perron data (the same
    object, so another PerronData replaces the slot) and one state per
    level, and the product route its image blocks and the fiber vectors it
    read once for the path; stored states are never changed by a later
    call."""
    fs, pd = ex2_system
    fs = dataclasses.replace(fs)
    word = (0, 1, 1, 0, 1)
    projected_measure(fs, pd, word)
    projected_measure_bruteforce(fs, pd, word)
    paths = fs.last_paths
    product, (oracle_pd, oracle_word, rows) = paths.product, paths.oracle
    product_pd, product_word, blocks, states, (nus, hs) = product
    assert product_pd is pd and oracle_pd is pd and product_word == oracle_word == word
    assert len(states) == len(blocks) == len(word) and len(rows) == len(word)
    assert len(nus) == len(hs) == len(fs.fibers)
    kept = [x.copy() for x, _ in states]
    projected_measure(fs, pd, word[:3] + (0, 0))
    assert all(np.array_equal(x, y) for (x, _), y in zip(states, kept))
    assert paths.product[3][:3] == states[:3]  # the shared prefix is reused, not recomputed
    assert paths.product[4][0] is nus  # the fiber vectors are read once per path
    float_pd = dataclasses.replace(ex2_float.pd)
    projected_measure(fs, float_pd, word)
    assert paths.product[0] is float_pd and paths.product[3][0] is not states[0]
    assert paths.product[4][0] is not nus


@st.composite
def fwm_search_cases(draw):
    """(fs, max_n): a seeded random_mixing_system of 3-5 symbols at depth 0-3
    over 2-3 image letters (uneven fibers), edge density 0.3-0.7, and a
    span bound of 1-6."""
    seed, depth = draw(st.integers(0, 2**16)), draw(st.integers(0, 3))
    desc = fixtures.random_mixing_system(seed, draw(st.integers(3, 5)), depth,
                                         draw(st.integers(2, 3)),
                                         density=draw(st.sampled_from([0.3, 0.5, 0.7])))
    fs = build_factor(transfer_matrix(*build_system(desc)), desc.factor_map,
                      Alphabet(desc.image_alphabet))
    return fs, draw(st.integers(1, 6))


def fwm_outcome(search):
    """The search's result, or the message of its EnumerationLimitError."""
    try:
        return search()
    except EnumerationLimitError as exc:
        return str(exc)


def fwm_per_span(fs, max_n, budget):
    """Independent fwm_check calls for N = 1, 2, ... until the first pass."""
    reports = []
    for n in range(1, max_n + 1):
        reports.append(fwm_check(fs, n, budget))
        if reports[-1].holds:
            return FwmSearchResult(found=n, reports=tuple(reports))
    return FwmSearchResult(found=None, reports=tuple(reports))


@given(fwm_search_cases())
@settings(max_examples=40, deadline=None)
def test_fwm_search_equals_per_span_checks(case):
    """fwm_search extends one walk per span where it can, and its reports
    and budget raises equal those of independent fwm_check calls run in
    turn until the first pass: at budgets on both sides of every span's
    raise point (its visited nodes), and under a row cap of 8, so that
    both extended walks and fresh walks from the roots run."""
    fs, max_n = case
    budgets = {DEFAULT_MAX_WORDS}
    for n in range(1, max_n + 1):
        nodes = sweep_nodes(fs, n + fs.block_length)
        budgets |= {nodes - 1, nodes}
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(factor_module, "SWEEP_ROW_CAP", 8)
        for budget in sorted(budgets):
            got = fwm_outcome(lambda: fwm_search(fs, max_n, budget))
            assert got == fwm_outcome(lambda: fwm_per_span(fs, max_n, budget)), budget


def test_fwm_search_extends_one_chunk_spans(monkeypatch, ex2_exact):
    """On Example 2 (2^(N+1) words at span N) under a row cap of 8, spans 2
    and 3 extend the walk of the span before, whose full-length rows came
    in one chunk, and spans 4-6 walk from the roots; the result equals the
    per-span checks."""
    fs = ex2_exact.factor
    monkeypatch.setattr(factor_module, "SWEEP_ROW_CAP", 8)
    walk, extended = factor_module.walk_image_words, []

    def spy(fs, start, n_steps, max_words, ends=None, visited=0):
        extended.append(isinstance(start, factor_module.SweepRows))
        return walk(fs, start, n_steps, max_words, ends, visited)

    monkeypatch.setattr(factor_module, "walk_image_words", spy)
    result = fwm_search(fs, 6)
    assert extended == [False, True, True, False, False, False]
    assert result == fwm_per_span(fs, 6, DEFAULT_MAX_WORDS)


def boolean_walk_system(spec):
    """The factor system of a spec drawn by :func:`boolean_walk_specs`."""
    if spec[0] == "mixing":
        _, seed, size, depth, image_size, density = spec
        desc = fixtures.random_mixing_system(seed, size, depth, image_size, density=density)
        return build_factor(transfer_matrix(*build_system(desc)), desc.factor_map,
                            Alphabet(desc.image_alphabet))
    _, seed, sizes, density = spec
    n = sum(sizes)
    rng = np.random.default_rng(seed)
    adj = (rng.random((n, n)) < density) | np.roll(np.eye(n, dtype=bool), 1, axis=1)
    sft = build_sft(Alphabet(tuple(map(str, range(n)))), adj.astype(int).tolist())
    pot = build_potential(sft, 1, "weight",
                          {w: float(rng.uniform(0.5, 2.0)) for w in enumerate_words(sft, 2)})
    smap = [b for b, size in enumerate(sizes) for _ in range(size)]
    rng.shuffle(smap)
    return build_factor(transfer_matrix(sft, pot), smap,
                        Alphabet(tuple(chr(97 + b) for b in range(len(sizes)))))


@st.composite
def boolean_walk_specs(draw):
    """A seeded random_mixing_system of 3-5 symbols at depth 0-3 over 2-3
    image letters (uneven fibers), or a depth-1 system whose widest fiber
    has 8, 9 or 17 symbols, so its packed rows take 1, 2 or 3 bytes, beside
    one or two fibers of 1-3 symbols; edge density 0.3-0.8."""
    seed, density = draw(st.integers(0, 2**16)), draw(st.sampled_from([0.3, 0.5, 0.8]))
    if draw(st.booleans()):
        return ("mixing", seed, draw(st.integers(3, 5)), draw(st.integers(0, 3)),
                draw(st.integers(2, 3)), density)
    sizes = (draw(st.sampled_from([8, 9, 17])),
             *draw(st.lists(st.integers(1, 3), min_size=1, max_size=2)))
    return ("wide", seed, sizes, density)


@given(boolean_walk_specs())
@example(("wide", 1, (8, 2), 0.5))
@example(("wide", 2, (9, 3, 1), 0.8))
@example(("wide", 3, (17, 2), 0.3))
@example(("wide", 4, (17, 1), 0.8))
@settings(max_examples=40, deadline=None)
def test_packed_walks_equal_per_word_boolean_products(spec):
    """The walker's packed boolean rows give the per-word boolean route's
    words and fiber-wise mixing reports: enumerate_image_words equals the
    words image_admissible keeps, and fwm_check's verdict, witnesses and
    word count equal those of carry_product's boolean products, at spans
    1-3, whole and under a row cap of 3.  The wide fibers put entries in
    every bit of a packed byte and in a second and third byte."""
    fs = boolean_walk_system(spec)
    k = fs.block_length
    words = {length: all_image_words(fs, length) for length in range(k, k + 4)}
    reports = {n: fwm_word_by_word(fs, n, product=carried_block_product) for n in range(1, 4)}
    for cap in (factor_module.SWEEP_ROW_CAP, 3):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(factor_module, "SWEEP_ROW_CAP", cap)
            for length, want in words.items():
                assert enumerate_image_words(fs, length) == want
            for n, want in reports.items():
                rep = fwm_check(fs, n)
                assert (rep.holds, rep.words_checked, list(rep.witnesses)) == want


def test_boolean_walks_build_no_float_stack():
    """fwm_search, fwm_check and enumerate_image_words on a fresh factor
    system build the packed boolean table and nothing else: no float block
    stack and no per-word block table."""
    fs = boolean_walk_system(("mixing", 3, 6, 2, 3, 0.4))
    fwm_search(fs, 3)
    fwm_check(fs, 2)
    enumerate_image_words(fs, 4)
    assert [stack.dtype for stack in fs._stacks.values()] == [np.uint8]
    assert not {"blocks", "exact_blocks"} & vars(fs).keys()
