import dataclasses
import itertools
import math
import random
import re
import time
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gibbsfactor import (
    Alphabet,
    ConvergenceError,
    ExactModeError,
    NotMixingError,
    ValidationError,
    birkhoff_sum,
    build_pipeline,
    build_potential,
    build_sft,
    build_system,
    cylinder_measure,
    emit_system,
    enumerate_words,
    fixtures,
    gibbs_ratio_bounds,
    higher_block_recode,
    holder_envelope,
    level_log_measures,
    ln1_sup_norm,
    mixing_index,
    parse_system_dict,
    perron,
    perron_exact,
    transfer_matrix,
    variations,
)

EX2_ADJ = [[1, 1, 1, 0], [0, 1, 1, 1], [1, 1, 1, 0], [0, 1, 1, 1]]


def make_sft(adj):
    return build_sft(Alphabet(tuple(str(i) for i in range(len(adj)))), adj)


def as_dict(words, values):
    """A table held as arrays, as a dict: word tuple -> value."""
    listed = values if isinstance(values, tuple) else values.tolist()
    return dict(zip(map(tuple, words.tolist()), listed))


def constant_potential(sft, depth=1):
    table = {w: Fraction(1) for w in enumerate_words(sft, depth + 1)}
    return build_potential(sft, depth, "weight", table)


@pytest.fixture(scope="module")
def ex2_sft():
    return make_sft(EX2_ADJ)


class TestBuildPotential:
    def test_constant_weights(self, ex2_sft):
        pot = constant_potential(ex2_sft)
        assert (pot.phi == 0.0).all()
        assert pot.exact_weights is not None

    def test_depth0_iid(self):
        sft = make_sft([[1, 1], [1, 1]])
        pot = build_potential(sft, 0, "phi",
                              {(0,): math.log(0.3), (1,): math.log(0.7)})
        assert as_dict(pot.words, pot.weights)[(0,)] == pytest.approx(0.3)

    def test_missing_entry(self, ex2_sft):
        table = {w: 1 for w in enumerate_words(ex2_sft, 2)}
        del table[(0, 0)]
        with pytest.raises(ValidationError, match="missing table entry"):
            build_potential(ex2_sft, 1, "weight", table)

    def test_non_positive_weight(self, ex2_sft):
        table = {w: Fraction(1) for w in enumerate_words(ex2_sft, 2)}
        table[(0, 0)] = Fraction(-1, 2)
        with pytest.raises(ValidationError, match="non-positive"):
            build_potential(ex2_sft, 1, "weight", table)

    def test_inadmissible_entry_warns_and_is_ignored(self, ex2_sft):
        table = {w: Fraction(1) for w in enumerate_words(ex2_sft, 2)}
        table[(1, 0)] = Fraction(5)
        with pytest.warns(UserWarning, match="inadmissible"):
            pot = build_potential(ex2_sft, 1, "weight", table)
        assert (1, 0) not in as_dict(pot.words, pot.weights)

    def test_arrays_are_its_own_and_read_only(self):
        desc = fixtures.random_mixing_system(3, 3, 1, 2)
        values = np.array(desc.values)  # a writable array, as a hand-built description may hold
        pot = build_system(dataclasses.replace(desc, values=values))[1]
        before = pot.weights.tobytes()
        values[0] = 7.0
        assert pot.weights.tobytes() == before
        for table in (pot.words, pot.values, pot.phi, pot.weights):
            with pytest.raises(ValueError, match="read-only"):
                table[0] = table[0]

    def test_float_weights_disable_exact(self, ex2_sft):
        table = {w: 1.5 for w in enumerate_words(ex2_sft, 2)}
        pot = build_potential(ex2_sft, 1, "weight", table)
        assert pot.exact_weights is None

    def test_non_finite_phi_rejected(self, ex2_sft):
        table = {w: 0.0 for w in enumerate_words(ex2_sft, 2)}
        table[(0, 0)] = math.inf
        with pytest.raises(ValidationError, match="non-finite"):
            build_potential(ex2_sft, 1, "phi", table)


class TestOneValueRule:
    """build_potential applies the file parser's rule to Python tables."""

    @pytest.mark.parametrize("value, reason", [
        (True, "bad value type"),
        (math.nan, "non-finite"),
        (math.inf, "non-finite"),
        ("1/0", "bad rational literal"),
        ("abc", "bad rational literal"),
        (Fraction(10**400), "outside the float range"),
        ("1e2000000", "outside the float range"),
    ])
    def test_bad_weight_names_the_word(self, value, reason):
        sft = make_sft([[1, 1], [1, 1]])
        table = dict.fromkeys(enumerate_words(sft, 2), Fraction(1))
        table[(0, 1)] = value
        start = time.perf_counter()
        with pytest.raises(ValidationError, match=rf"word \(0, 1\): .*{reason}"):
            build_potential(sft, 1, "weight", table)
        assert time.perf_counter() - start < 0.5

    @pytest.mark.parametrize("key", [5, None, 1.5, "01", (0, "1")])
    def test_key_that_is_not_a_word(self, key):
        sft = make_sft([[1, 1], [1, 1]])
        with pytest.raises(ValidationError, match=rf"key {re.escape(repr(key))} is not a word"):
            build_potential(sft, 1, "weight", {key: 1})

    def test_entry_order_does_not_matter(self):
        sft = make_sft([[1, 1], [1, 1]])
        entries = [((0, 0), 0.25), ((0, 1), "1/2"), ((1, 0), 3), ((1, 1), Fraction(3, 4))]
        built = [build_potential(sft, 1, "weight", dict(order))
                 for order in (entries, entries[::-1])]
        for pot in built:
            assert pot.exact_weights is None
            assert as_dict(pot.words, pot.weights) == {
                (0, 0): 0.25, (0, 1): 0.5, (1, 0): 3.0, (1, 1): 0.75}
        assert built[0].phi.tobytes() == built[1].phi.tobytes()

    @pytest.mark.parametrize("depth, mode, field", [
        (True, "weight", "potential.depth"),
        (1.5, "weight", "potential.depth"),
        (-1, "weight", "potential.depth"),
        (1, "log", "potential.mode"),
    ])
    def test_bad_header(self, depth, mode, field):
        sft = make_sft([[1, 1], [1, 1]])
        table = dict.fromkeys(enumerate_words(sft, 2), 1)
        with pytest.raises(ValidationError, match=re.escape(field)):
            build_potential(sft, depth, mode, table)


TABLE_VALUES = st.one_of(
    st.booleans(),
    st.integers(-10**400, 10**400),
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.fractions(),
    st.sampled_from(["1/0", "abc", "1e400", "1e-400", "1e2000000", "-1e2000000", "1e-320",
                     "1/2", "-1/2", "0", "0e5", "nan", "inf", " 7/3 ", "2.5e3", ""]),
    st.text(max_size=6),
    st.none(),
)


@settings(max_examples=300, deadline=None)
@given(mode=st.sampled_from(["weight", "phi"]), value=TABLE_VALUES)
def test_file_and_table_share_one_value_rule(mode, value):
    # Example 2 with the entry for the word 0,0 replaced
    doc = emit_system(fixtures.example2())
    table = doc["potential"]["table"]
    if mode == "phi":
        doc["potential"]["mode"] = "phi"
        table.update((key, 0.0) for key in table)
    table["0,0"] = value
    words = {tuple(int(s) for s in key.split(",")): v for key, v in table.items()}

    def outcome(build):
        try:
            return build()
        except ValidationError:
            return None

    desc = outcome(lambda: parse_system_dict(doc))
    pot = outcome(lambda: build_potential(make_sft(EX2_ADJ), 1, mode, words))
    assert (desc is None) == (pot is None)
    if desc is not None:
        stored = as_dict(desc.words, desc.values)[(0, 0)]
        built = as_dict(pot.words, pot.phi if mode == "phi" else pot.exact_weights or pot.weights)
        assert type(built[(0, 0)]) is type(stored) and built[(0, 0)] == stored
        from_file = build_system(desc)[1]
        assert from_file.phi.tobytes() == pot.phi.tobytes()
        assert from_file.weights.tobytes() == pot.weights.tobytes()
        assert from_file.exact_weights == pot.exact_weights


class TestVariations:
    def test_constant_is_zero(self, ex2_sft):
        assert variations(constant_potential(ex2_sft)) == [0.0]

    def test_depth1_example(self):
        sft = make_sft([[1, 1], [1, 1]])
        pot = build_potential(sft, 1, "phi",
                              {(0, 0): 0.0, (0, 1): 1.0, (1, 0): 0.0, (1, 1): 0.0})
        assert variations(pot) == [1.0]

    def test_depth0_empty(self):
        sft = make_sft([[1, 1], [1, 1]])
        pot = build_potential(sft, 0, "phi", {(0,): 1.0, (1,): -1.0})
        assert variations(pot) == []

    def test_nonincreasing_depth2(self):
        sft = make_sft([[1, 1], [1, 1]])
        words = enumerate_words(sft, 3)
        rng = np.random.default_rng(7)
        pot = build_potential(sft, 2, "phi",
                              {w: float(rng.normal()) for w in words})
        v = variations(pot)
        assert len(v) == 2 and v[0] >= v[1]


class TestHolderEnvelope:
    def test_constant(self, ex2_sft):
        env = holder_envelope(constant_potential(ex2_sft), 0.5)
        assert env.holder_constant == 0.0 and env.sup_norm == 0.0

    def test_var1_over_theta(self):
        sft = make_sft([[1, 1], [1, 1]])
        pot = build_potential(sft, 1, "phi",
                              {(0, 0): 0.0, (0, 1): 1.0, (1, 0): 0.0, (1, 1): 0.0})
        assert holder_envelope(pot, 0.5).holder_constant == pytest.approx(2.0)

    def test_componentwise_max(self):
        # var profile (0.4, 0.1) at theta 0.5 -> max(0.8, 0.4) = 0.8
        sft = make_sft([[1, 1], [1, 1]])
        table = {w: 0.4 * (w[1] == 1) + 0.1 * (w == (0, 0, 0))
                 for w in enumerate_words(sft, 3)}
        pot = build_potential(sft, 2, "phi", table)
        assert variations(pot) == [pytest.approx(0.4), pytest.approx(0.1)]
        assert holder_envelope(pot, 0.5).holder_constant == pytest.approx(0.8)

    def test_theta_out_of_range(self, ex2_sft):
        with pytest.raises(ValidationError):
            holder_envelope(constant_potential(ex2_sft), 1.0)

    def test_envelope_dominates_variations(self, ex2_sft):
        pot = constant_potential(ex2_sft)
        env = holder_envelope(pot, 0.3)
        for n, v in enumerate(env.variations, start=1):
            assert v <= env.holder_constant * env.theta**n + 1e-15


class TestBirkhoffSum:
    def test_constant_zero(self, ex2_sft):
        assert birkhoff_sum(constant_potential(ex2_sft), (0, 1, 2, 2)) == 0.0

    def test_counts_pattern_occurrences(self):
        sft = make_sft([[1, 1], [1, 1]])
        pot = build_potential(sft, 1, "phi",
                              {(0, 0): 0.0, (0, 1): 1.0, (1, 0): 0.0, (1, 1): 0.0})
        assert birkhoff_sum(pot, (0, 1, 0, 1)) == pytest.approx(2.0)

    def test_depth0_linear(self):
        sft = make_sft([[1, 1], [1, 1]])
        pot = build_potential(sft, 0, "phi", {(0,): 0.25, (1,): 0.25})
        assert birkhoff_sum(pot, (0, 1, 1, 0, 1)) == pytest.approx(5 * 0.25)

    def test_too_short(self, ex2_sft):
        with pytest.raises(ValidationError, match="too short"):
            birkhoff_sum(constant_potential(ex2_sft), (0,))

    def test_inadmissible(self, ex2_sft):
        with pytest.raises(ValidationError, match="not admissible"):
            birkhoff_sum(constant_potential(ex2_sft), (1, 0))


class TestTransferMatrix:
    def test_example_pattern_is_adjacency(self, ex2_sft):
        tm = transfer_matrix(ex2_sft, constant_potential(ex2_sft))
        assert np.array_equal(tm.weights, np.array(EX2_ADJ, dtype=float))

    def test_depth0_row_scaling(self):
        sft = make_sft([[1, 1], [1, 1]])
        pot = build_potential(sft, 0, "weight", {(0,): Fraction(1, 3), (1,): Fraction(2, 3)})
        tm = transfer_matrix(sft, pot)
        assert np.allclose(tm.weights, [[1 / 3, 1 / 3], [2 / 3, 2 / 3]])
        assert tm.exact_weights[0][0] == Fraction(1, 3)

    def test_rational_entries_exact(self, ex2_sft):
        tm = transfer_matrix(ex2_sft, constant_potential(ex2_sft))
        assert tm.exact_weights[0][0] == Fraction(1)
        assert tm.exact_weights[1][0] == Fraction(0)

    def test_depth2_blocks(self, ex2_sft):
        words = enumerate_words(ex2_sft, 3)
        pot = build_potential(ex2_sft, 2, "phi", {w: 0.1 for w in words})
        tm = transfer_matrix(ex2_sft, pot)
        assert tm.dimension == 12
        # each allowed block step carries weight e^{0.1}
        nz = tm.weights[tm.weights > 0]
        assert np.allclose(nz, math.exp(0.1))


def per_entry_potential(sft, depth, mode, table):
    """The per-entry construction the ordered pass replaced, kept as the
    reference: (phi, weights, exact_weights) of a canonical table."""
    needed = set(enumerate_words(sft, depth + 1))
    values = {w: v for w, v in table.items() if w in needed}
    if mode == "phi":
        phi, weights = values, {w: math.exp(v) for w, v in values.items()}
    else:
        weights = {w: float(v) for w, v in values.items()}
        phi = {w: math.log(v) for w, v in weights.items()}
    exact = values if all(isinstance(v, Fraction) for v in values.values()) else None
    return phi, weights, exact


def per_entry_transfer(tm):
    """W, log W, M and D by the per-row double loop over the block words
    that the one-assignment fill replaced, kept as the reference."""
    rec, potential = tm.recoding, tm.potential
    d, window = rec.size, potential.depth + 1
    weights = as_dict(potential.words, potential.weights)
    exact_weights = (None if potential.exact_weights is None
                     else as_dict(potential.words, potential.exact_weights))
    w = np.zeros((d, d))
    exact = None if exact_weights is None else np.full((d, d), Fraction(0), dtype=object)
    for i, u in enumerate(rec.block_words):
        for j in np.flatnonzero(rec.block_sft.adjacency[i]):
            key = (u + (rec.block_words[j][-1],))[:window]
            w[i, j] = weights[key]
            if exact is not None:
                exact[i, j] = exact_weights[key]
    ints = den = None
    if exact is not None:
        den = math.lcm(*(v.denominator for v in exact.flat))
        ints = np.array([v.numerator * (den // v.denominator) for v in exact.flat],
                        dtype=object).reshape(d, d)
    with np.errstate(divide="ignore"):
        return w, np.log(w), ints, den


def assert_same_as_per_entry(desc):
    sft, pot = build_system(desc)
    table = as_dict(desc.words, desc.values)
    phi, weights, exact = per_entry_potential(sft, desc.depth, desc.mode, table)
    assert as_dict(pot.words, pot.phi) == phi and list(phi) == list(as_dict(pot.words, pot.phi))
    assert pot.phi.tobytes() == np.array(list(phi.values())).tobytes()
    assert pot.weights.tobytes() == np.array(list(weights.values())).tobytes()
    assert (None if exact is None else tuple(exact.values())) == pot.exact_weights
    assert list(map(tuple, pot.words.tolist())) == enumerate_words(sft, desc.depth + 1)
    tm = transfer_matrix(sft, pot)
    w, logw, ints, den = per_entry_transfer(tm)
    for got, want in ((tm.weights, w), (tm.log_weights, logw)):
        assert got.dtype == want.dtype == np.float64
        assert np.array_equal(got, want) and got.tobytes() == want.tobytes()
    assert tm.denominator == den
    if ints is None:
        assert tm.int_weights is None
    else:
        assert tm.int_weights.dtype == ints.dtype == object
        assert (tm.int_weights == ints).all()
        assert all(type(v) is int for v in tm.int_weights.flat)
    # a Python table in another order is lined up with the same word order
    shuffled = build_potential(sft, desc.depth, desc.mode, dict(reversed(table.items())))
    assert shuffled.words.tobytes() == pot.words.tobytes()
    assert shuffled.phi.tobytes() == pot.phi.tobytes()
    again = transfer_matrix(sft, shuffled)
    assert again.weights.tobytes() == tm.weights.tobytes()
    assert ints is None or (again.int_weights == ints).all()


FILL_FIXTURES = {
    "example2": fixtures.example2(),
    "rate_demo": fixtures.rate_demo(),
    "golden_mean": fixtures.golden_mean(),
    "markov_chain_2x2": fixtures.markov_chain_2x2(),
    "three_to_two_collapse": fixtures.three_to_two_collapse(),
    "full_shift_iid": fixtures.full_shift_iid(("1/3", "1/6", "1/2")),
    "full_shift_iid_float": fixtures.full_shift_iid((0.25, 0.75)),
}


def pairwise_variations(potential):
    """var_n by brute force: the largest |phi(u) - phi(v)| over every pair of
    admissible (k+1)-words that agree in their first n symbols."""
    words = enumerate_words(potential.sft, potential.depth + 1)
    phi = as_dict(potential.words, potential.phi)
    return [max(abs(phi[u] - phi[v]) for u in words for v in words if u[:n] == v[:n])
            for n in range(1, potential.depth + 1)]


VARIATION_SYSTEMS = {**FILL_FIXTURES, **{
    f"random_{seed}": fixtures.random_mixing_system(seed, 2 + seed % 3, seed % 4, 2)
    for seed in range(20)}}


class TestVariationRuns:
    """variations() reads max - min over the runs of the word matrix; the
    pairwise maximum gives the same floats, bit for bit."""

    @pytest.mark.parametrize("name", list(VARIATION_SYSTEMS))
    def test_matches_pairwise_reference(self, name):
        desc = VARIATION_SYSTEMS[name]
        variants = [desc]
        if desc.mode == "weight":  # and a phi table of other values
            values = np.array([math.log(float(v)) * 1.7 - 0.2 for v in desc.values])
            variants.append(dataclasses.replace(desc, mode="phi", values=values))
        for desc in variants:
            pot = build_system(desc)[1]
            got, want = variations(pot), pairwise_variations(pot)
            assert len(got) == desc.depth
            assert [v.hex() for v in got] == [v.hex() for v in want]


class TestOneWordOrder:
    """The potential's mappings, W, log W, M and D built in the shared word
    order equal, bit for bit, their per-entry constructions."""

    @pytest.mark.parametrize("name", list(FILL_FIXTURES))
    def test_fixtures(self, name):
        assert_same_as_per_entry(FILL_FIXTURES[name])

    @given(seed=st.integers(0, 2**16), n=st.integers(2, 6), depth=st.integers(0, 3),
           kind=st.sampled_from(["float weights", "rational weights", "phi"]))
    @settings(max_examples=40, deadline=None)
    def test_random_mixing_systems(self, seed, n, depth, kind):
        desc = fixtures.random_mixing_system(seed, n, depth, 2)
        if kind == "rational weights":
            values = tuple(Fraction(round(16 * v), 16) for v in desc.values.tolist())
            desc = dataclasses.replace(desc, values=values)
        elif kind == "phi":
            values = np.array([math.log(v) - 0.3 for v in desc.values.tolist()])
            desc = dataclasses.replace(desc, mode="phi", values=values)
        assert_same_as_per_entry(desc)


def ex2_table():
    return dict.fromkeys(enumerate_words(make_sft(EX2_ADJ), 2), Fraction(1))


def with_table(desc, table):
    """The description with its table replaced by a dict of words of its
    length, word tuple -> value."""
    words = sorted(table)
    return dataclasses.replace(desc, words=np.array(words).reshape(len(words), desc.depth + 1),
                               values=tuple(table[w] for w in words))


def without(*words):
    desc = fixtures.example2()
    table = as_dict(desc.words, desc.values)
    return with_table(desc, {w: v for w, v in table.items() if w not in words})


def with_entries(table, entries):
    return {**table, **entries}


def doc_with(section, key, value):
    doc = emit_system(fixtures.example2())
    {"table": doc["potential"]["table"], "map": doc["factor"]["map"]}[section][key] = value
    return doc


# every message is the one the per-entry table path gave
TABLE_PATH_MESSAGES = {
    "missing entry": (
        lambda: build_potential(make_sft(EX2_ADJ), 1, "weight",
                                {w: v for w, v in ex2_table().items()
                                 if w not in ((1, 1), (0, 2))}),
        "missing table entry for admissible word (0, 2)", []),
    "missing entry in a description": (
        lambda: build_system(without((1, 1), (0, 2))),
        "missing table entry for admissible word (0, 2)", []),
    "inadmissible entries": (
        lambda: build_potential(make_sft(EX2_ADJ), 1, "weight",
                                with_entries(ex2_table(), {(3, 0): 2, (1, 0): 5})),
        None, ["ignoring entry for inadmissible word (3, 0)",
               "ignoring entry for inadmissible word (1, 0)"]),
    "inadmissible entries in a description": (
        lambda: build_system(with_table(fixtures.example2(), {
            **as_dict(fixtures.example2().words, fixtures.example2().values),
            (1, 0): Fraction(5), (3, 0): Fraction(2)})),
        None, ["ignoring entry for inadmissible word (1, 0)",
               "ignoring entry for inadmissible word (3, 0)"]),
    "inadmissible entries and strays, in word order": (
        lambda: build_potential(make_sft(EX2_ADJ), 1, "weight",
                                with_entries(ex2_table(), {(3, 0): 2, (2,): 1, (1, 0): 5,
                                                           (0, 0, 0): 1})),
        None, ["ignoring entry for inadmissible word (0, 0, 0)",
               "ignoring entry for inadmissible word (1, 0)",
               "ignoring entry for inadmissible word (2,)",
               "ignoring entry for inadmissible word (3, 0)"]),
    # (1, 4) has the search key of (2, 0), which keeps its own value
    "symbols outside the alphabet in a description": (
        lambda: build_system(with_table(fixtures.example2(), {
            **as_dict(fixtures.example2().words, fixtures.example2().values),
            (1, 4): Fraction(5), (0, -1): Fraction(3)})),
        None, ["ignoring entry for inadmissible word (0, -1)",
               "ignoring entry for inadmissible word (1, 4)"]),
    "repeated word in a description": (
        lambda: build_system(dataclasses.replace(
            fixtures.example2(),
            words=np.concatenate([fixtures.example2().words, [[2, 0]]]),
            values=(*fixtures.example2().values, Fraction(5)))),
        "repeated table entry for word (2, 0)", []),
    "key that is not a word": (
        lambda: build_potential(make_sft(EX2_ADJ), 1, "weight",
                                with_entries(ex2_table(), {5: 1})),
        "potential table key 5 is not a word", []),
    "bad value": (
        lambda: build_potential(make_sft(EX2_ADJ), 1, "weight",
                                with_entries(ex2_table(), {(0, 1): "-1/2"})),
        "potential value for word (0, 1): non-positive weight", []),
    "bad value in a file": (
        lambda: parse_system_dict(doc_with("table", "0,1", "-1/2")),
        "potential.table['0,1']: non-positive weight", []),
    "unknown symbol in a key": (
        lambda: parse_system_dict(doc_with("table", "0,9", "1")),
        "unknown symbol '9'", []),
    "unhashable image symbol": (
        lambda: parse_system_dict(doc_with("map", "0", [1])),
        "unknown symbol [1]", []),
    "empty row": (lambda: make_sft([[1, 1], [0, 0]]),
                  "empty row: symbol '1' has no successor", []),
    "empty column": (lambda: make_sft([[1, 0], [1, 0]]),
                     "empty column: symbol '1' has no predecessor", []),
    "first stranded symbol by column": (
        lambda: make_sft([[1, 0, 1], [1, 0, 1], [0, 0, 0]]),
        "empty column: symbol '1' has no predecessor", []),
    "row named before column": (
        lambda: make_sft([[0, 0, 0], [0, 1, 1], [0, 1, 1]]),
        "empty row: symbol '0' has no successor", []),
}


@pytest.mark.parametrize("case", list(TABLE_PATH_MESSAGES))
def test_table_path_errors_and_warnings(case):
    build, error, warned = TABLE_PATH_MESSAGES[case]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        if error is None:
            build()
        else:
            with pytest.raises(ValidationError) as info:
                build()
            assert str(info.value) == error
    assert [str(w.message) for w in caught] == warned
    assert all(w.category is UserWarning for w in caught)


class TestPerron:
    def test_example_eigendata_float(self, ex2_sft):
        tm = transfer_matrix(ex2_sft, constant_potential(ex2_sft))
        pd = perron(tm)
        assert pd.lam == pytest.approx(3.0, abs=1e-12)
        assert np.allclose(pd.h, np.ones(4), atol=1e-10)
        assert np.allclose(pd.nu, np.array([1, 2, 2, 1]) / 6, atol=1e-10)

    def test_example_eigendata_exact(self, ex2_sft):
        tm = transfer_matrix(ex2_sft, constant_potential(ex2_sft))
        pd = perron_exact(tm)
        assert pd.lam == Fraction(3)
        assert pd.h == (Fraction(1),) * 4
        assert pd.nu == (Fraction(1, 6), Fraction(1, 3), Fraction(1, 3), Fraction(1, 6))

    def test_full_2_shift(self):
        sft = make_sft([[1, 1], [1, 1]])
        pd = perron(transfer_matrix(sft, constant_potential(sft)))
        assert pd.lam == pytest.approx(2.0, abs=1e-12)
        assert np.allclose(pd.h, [1, 1]) and np.allclose(pd.nu, [0.5, 0.5])

    def test_golden_mean_irrational(self):
        sft = make_sft([[1, 1], [1, 0]])
        table = {w: Fraction(1) for w in enumerate_words(sft, 2)}
        tm = transfer_matrix(sft, build_potential(sft, 1, "weight", table))
        pd = perron(tm)
        assert pd.lam == pytest.approx((1 + math.sqrt(5)) / 2, abs=1e-12)
        with pytest.raises(ExactModeError):
            perron_exact(tm)

    def test_residual_bound(self, ex2_sft):
        tm = transfer_matrix(ex2_sft, constant_potential(ex2_sft))
        pd = perron(tm, tol=1e-14)
        w = tm.weights
        assert np.abs(w @ pd.h - pd.lam * pd.h).max() <= 1e-13 * np.abs(pd.h).max()
        assert np.abs(pd.nu @ w - pd.lam * pd.nu).max() <= 1e-13

    def test_normalization(self, ex2_sft):
        tm = transfer_matrix(ex2_sft, constant_potential(ex2_sft))
        pd = perron(tm)
        assert float(np.sum(pd.nu)) == pytest.approx(1.0, abs=1e-14)
        assert float(pd.h @ pd.nu) == pytest.approx(1.0, abs=1e-14)

    def test_non_mixing_rejected(self):
        sft = make_sft([[0, 1], [1, 0]])
        tm = transfer_matrix(sft, constant_potential(sft))
        with pytest.raises(NotMixingError):
            perron(tm)


NOT_MIXING_SHAPES = {
    "3-cycle": [[0, 1, 0], [0, 0, 1], [1, 0, 0]],
    "bipartite": [[0, 0, 1, 1], [0, 0, 1, 0], [1, 1, 0, 0], [0, 1, 0, 0]],
    "reducible": [[1, 1, 1, 0], [1, 1, 0, 0], [0, 0, 1, 1], [0, 0, 1, 1]],
}


def random_sft(seed):
    """Seeded 2-5 symbol SFT: a permutation (so no symbol is stranded) plus
    random edges; mixing or not."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 6))
    adj = (rng.random((n, n)) < 0.3) | np.eye(n, dtype=bool)[rng.permutation(n)]
    return make_sft(adj.astype(int).tolist())


class TestMixingOnBaseShift:
    """perron tests mixing on the base shift: a k-block presentation is
    conjugate to it, so the verdicts agree."""

    SFTS = {**{f"random_{seed}": random_sft(seed) for seed in range(40)},
            **{name: make_sft(adj) for name, adj in NOT_MIXING_SHAPES.items()}}

    def test_random_sample_holds_both_verdicts(self):
        verdicts = [mixing_index(sft) is None for name, sft in self.SFTS.items()
                    if name.startswith("random")]
        assert set(verdicts) == {True, False}

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("name", list(SFTS))
    def test_block_shift_verdict_matches(self, name, k):
        sft = self.SFTS[name]
        block_sft = higher_block_recode(sft, k).block_sft
        assert (mixing_index(sft) is None) == (mixing_index(block_sft) is None)

    @pytest.mark.parametrize("depth", [1, 2])
    @pytest.mark.parametrize("name", list(NOT_MIXING_SHAPES))
    def test_perron_refuses_not_mixing(self, name, depth):
        sft = make_sft(NOT_MIXING_SHAPES[name])
        tm = transfer_matrix(sft, constant_potential(sft, depth))
        with pytest.raises(NotMixingError):
            perron(tm)


def two_state(w00, w01, w10, w11):
    sft = make_sft([[1, 1], [1, 1]])
    table = {(0, 0): w00, (0, 1): w01, (1, 0): w10, (1, 1): w11}
    return transfer_matrix(sft, build_potential(sft, 1, "weight", table))


class TestNodaIteration:
    @pytest.mark.parametrize("eps", [1e-2, 3e-3, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8])
    def test_small_gap_closed_form(self, eps):
        # spectral gap eps * sqrt(5): power iteration needs ~1/eps steps
        pd = perron(two_state(1.0, eps, eps, 1.0 + eps))
        want = 1 + eps * (1 + math.sqrt(5)) / 2
        assert abs(pd.lam - want) <= 1e-12 * want
        assert pd.residual <= 1e-13

    def test_near_reducible_float_and_exact(self):
        pd = perron(two_state(1.0, 1e-5, 1e-5, 1.0 + 1e-5))
        assert pd.residual <= 1e-13
        assert pd.lam == pytest.approx(1 + 1e-5 * (1 + math.sqrt(5)) / 2, rel=1e-12)
        tm = two_state("1", "1/100000", "1/100000", "100001/100000")
        with pytest.raises(ExactModeError):  # lambda is irrational
            perron_exact(tm)

    def test_gap_below_resolution_never_warns(self):
        tm = two_state(1.0, 1e-300, 1e-300, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                pd = perron(tm)
            except ConvergenceError:
                return
        assert pd.lam == 1.0

    @pytest.mark.parametrize("scale", [1e-300, 1e300])
    def test_uniform_rescale(self, scale):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pd = perron(two_state(scale, scale, scale, 2 * scale))
        assert pd.lam == pytest.approx(scale * (3 + math.sqrt(5)) / 2, rel=1e-12)
        assert np.allclose(pd.nu, [(3 - math.sqrt(5)) / 2, (math.sqrt(5) - 1) / 2])

    @pytest.mark.parametrize("scale", [1e-300, 1e300])
    def test_residual_is_relative(self, scale):
        # {1, 1; 1, 2} times scale: the residual must not scale with the weights
        pd = perron(two_state(scale, scale, scale, 2 * scale))
        assert pd.residual <= 1e-13

    def test_overflowing_row_sum_is_convergence_error(self):
        tm = two_state(1e308, 1e308, 1.0, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConvergenceError, match="overflowed"):
                perron(tm)

    def test_underflowed_root_is_convergence_error(self):
        # exp(-800) is 0.0 in floats: build_potential refuses such a phi, and
        # perron still refuses a transfer matrix whose weights vanished
        sft = make_sft([[1, 1], [1, 1]])
        table = {w: -800.0 for w in enumerate_words(sft, 2)}
        with pytest.raises(ValidationError, match="outside the float range"):
            build_potential(sft, 1, "phi", table)
        tm = transfer_matrix(sft, build_potential(sft, 1, "phi", dict.fromkeys(table, 0.0)))
        vanished = dataclasses.replace(tm, weights=np.zeros_like(tm.weights))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConvergenceError, match="underflowed"):
                perron(vanished)

    def test_max_iter_caps_steps(self, ex2_sft):
        tm = transfer_matrix(ex2_sft, constant_potential(ex2_sft))
        steps = perron(tm).iterations
        assert 1 <= steps <= 8
        assert perron(tm, max_iter=steps).iterations == steps
        with pytest.raises(ConvergenceError, match=f"in {steps - 1} steps"):
            perron(tm, max_iter=steps - 1)

    @pytest.mark.parametrize("broken", ["singular", "nan"])
    def test_failed_solve_is_convergence_error(self, monkeypatch, broken):
        calls = []

        def solve(a, b):
            calls.append(1)
            if broken == "singular":
                raise np.linalg.LinAlgError("Singular matrix")
            return np.full(len(b), np.nan)

        # power steps stall on the small gap, so the run reaches a solve
        tm = two_state(1.0, 1e-3, 1e-3, 1.0 + 1e-3)
        monkeypatch.setattr(np.linalg, "solve", solve)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConvergenceError):
                perron(tm)
        assert calls

    def test_wide_gap_takes_at_most_two_solves(self, monkeypatch):
        tm = build_pipeline(fixtures.random_mixing_system(3, 6, 2, 3)).tm
        calls = []
        real = np.linalg.solve
        monkeypatch.setattr(np.linalg, "solve", lambda a, b: calls.append(1) or real(a, b))
        pd = perron(tm)
        assert pd.residual <= 1e-13
        assert len(calls) <= 2

    def test_wide_gap_large_system_takes_no_solve(self, monkeypatch):
        # |lambda_2| / lambda about 0.3: the power steps left after the
        # bracket falls below sqrt(tol) cost less than one LU of W
        tm = transfer_matrix(*build_system(fixtures.random_mixing_system(0, 12, 3, 4)))
        assert tm.dimension >= 400
        calls = []
        real = np.linalg.solve
        monkeypatch.setattr(np.linalg, "solve", lambda a, b: calls.append(1) or real(a, b))
        pd = perron(tm)
        assert pd.residual <= 1e-13
        assert pd.iterations <= 100
        assert not calls

    @pytest.mark.parametrize("spread, seed", [(300, 0), (300, 1), (300, 2), (300, 4), (300, 10),
                                              (300, 79), (700, 0), (700, 1), (700, 4), (700, 52)])
    def test_spread_phi_converges_or_raises_without_warning(self, spread_phi, spread, seed):
        # most of these underflow an entry of a normalised Noda iterate
        tm = transfer_matrix(*build_system(spread_phi(seed, spread)))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            try:
                pd = perron(tm)
            except ConvergenceError:
                return
        assert pd.residual <= 1e-12

    @pytest.mark.parametrize("seed", range(50))
    def test_spread_weights_converge_or_raise(self, seed):
        # weights over 10^-50 .. 10^50: the run either meets the tolerance or
        # says it did not, never returns a wrong triple
        desc = fixtures.random_mixing_system(seed, 6, 2, 3)
        rng = np.random.default_rng(1000 + seed)
        values = np.array([10.0**x for x in rng.uniform(-50, 50, len(desc.values)).tolist()])
        tm = transfer_matrix(*build_system(dataclasses.replace(desc, values=values)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                pd = perron(tm)
            except ConvergenceError:
                return
        assert pd.residual <= 1e-12

    def test_exact_runs_mixing_test_once(self, ex2_sft, monkeypatch):
        from gibbsfactor import potential

        calls = []
        real = potential.mixing_index
        monkeypatch.setattr(potential, "mixing_index",
                            lambda sft: calls.append(sft) or real(sft))
        tm = transfer_matrix(ex2_sft, constant_potential(ex2_sft))
        perron_exact(tm)
        assert len(calls) == 1

    @pytest.mark.parametrize("kwargs", [
        {"tol": 0.0}, {"tol": -1e-14}, {"tol": math.nan}, {"tol": math.inf},
        {"tol": 1.0}, {"tol": 1.5}, {"tol": True}, {"tol": "1e-14"}, {"tol": None},
        {"max_iter": -1}, {"max_iter": 2.5}, {"max_iter": True}, {"max_iter": "5"},
        {"max_iter": None},
    ], ids=repr)
    def test_bad_arguments_are_validation_errors(self, rate_demo_float, monkeypatch, kwargs):
        def solve(a, b):
            raise AssertionError("perron solved before checking its arguments")

        monkeypatch.setattr(np.linalg, "solve", solve)
        with pytest.raises(ValidationError, match=next(iter(kwargs))):
            perron(rate_demo_float.tm, **kwargs)

    def test_argument_checks_accept_numpy_and_edge_values(self, rate_demo_float):
        tm = rate_demo_float.tm
        assert perron(tm, tol=np.float64(0.5), max_iter=np.int64(100)).residual < 0.5
        full = two_state(1.0, 1.0, 1.0, 1.0)  # the all-ones start is exact
        assert perron(full, tol=Fraction(1, 10**14), max_iter=0).iterations == 0


NU_ROUTE_SYSTEMS = {"rate_demo": fixtures.rate_demo(), "example2": fixtures.example2()}
for seed in range(1, 11):
    for shape in ((5, 1, 3), (6, 2, 3)):
        NU_ROUTE_SYSTEMS[f"random_{seed}_{shape}"] = fixtures.random_mixing_system(seed, *shape)


class TestNuSecondRoute:
    """The left Perron vector against a run that does not read h's bound.

    The two-route projection check feeds one PerronData to both routes, so
    a wrong nu would not show there."""

    @pytest.mark.parametrize("name", list(NU_ROUTE_SYSTEMS))
    def test_capped_nu_matches_uncapped_run(self, name):
        from gibbsfactor import potential

        tol = 1e-14
        pd = perron(build_pipeline(NU_ROUTE_SYSTEMS[name]).tm, tol=tol)
        w = pd.tm.weights
        free, _, _ = potential._noda(w.T, tol, 100)
        free = free / free.sum()
        assert (np.abs(pd.nu - free) / free).max() <= 1e-11
        ratios = (pd.nu @ w) / pd.nu  # Collatz-Wielandt bracket under W^T
        assert ratios.max() - ratios.min() <= tol * pd.lam

    def test_nu_takes_at_most_two_solves_past_h(self, monkeypatch):
        from gibbsfactor import potential

        tm = build_pipeline(fixtures.random_mixing_system(3, 6, 2, 3)).tm
        steps_h = potential._noda(tm.weights, 1e-14, 100)[1]
        calls = []
        real = np.linalg.solve
        monkeypatch.setattr(np.linalg, "solve", lambda a, b: calls.append(1) or real(a, b))
        perron(tm)
        assert steps_h >= 1 and len(calls) <= steps_h + 2

    def test_cap_at_the_root_is_dropped_after_a_singular_solve(self, monkeypatch):
        from gibbsfactor import potential

        # h's bound is lambda to working precision here, so the nu run's
        # first solve, shifted at that bound, finds an exact zero pivot
        sft = make_sft([[1, 1], [1, 0]])
        table = {(0, 0): 0.6537415007360388, (0, 1): 1.6385234518833416,
                 (1, 0): 1.3135982656922154}
        tm = transfer_matrix(sft, build_potential(sft, 1, "weight", table))
        assert perron(tm).residual <= 1e-13
        w = tm.weights
        bound = potential._noda(w, 1e-14, 100)[2]
        free = potential._noda(w.T, 1e-14, 100)[0]
        calls = []
        real = np.linalg.solve

        def solve(a, b):  # the first solve of the capped run is singular on any LAPACK
            calls.append(1)
            if len(calls) == 1:
                raise np.linalg.LinAlgError("Singular matrix")
            return real(a, b)

        monkeypatch.setattr(np.linalg, "solve", solve)
        nu = potential._noda(w.T, 1e-14, 100, cap=bound)[0]
        assert len(calls) >= 2
        assert np.abs(nu / nu.sum() - free / free.sum()).max() <= 1e-14

    def test_example2_float_takes_one_step(self, ex2_float):
        assert ex2_float.pd.iterations == 1


EIG_ROUTE_SYSTEMS = {f"gap_{eps:g}": two_state(1.0, eps, eps, 1.0 + eps)
                     for eps in (1e-2, 1e-3, 1e-5)}
# (seed, symbols, depth): 22 to 122 blocks
for seed, n, depth in ((1, 6, 2), (2, 8, 2), (3, 10, 2), (4, 5, 3), (5, 6, 3),
                       (6, 6, 2), (7, 8, 2), (8, 10, 2), (9, 8, 3), (10, 6, 3)):
    desc = fixtures.random_mixing_system(seed, n, depth, 3)
    EIG_ROUTE_SYSTEMS[f"random_{seed}_{n}_{depth}"] = transfer_matrix(*build_system(desc))
# 423 blocks: the run ends in power steps, without a solve
EIG_ROUTE_SYSTEMS["random_0_12_3"] = transfer_matrix(
    *build_system(fixtures.random_mixing_system(0, 12, 3, 4)))


class TestPerronSecondRoute:
    """The Perron triple against a dense eigensolver.

    The two-route projection check feeds one PerronData to both routes, so
    a wrong h or nu would not show there."""

    @pytest.mark.parametrize("name", list(EIG_ROUTE_SYSTEMS))
    def test_matches_dense_eigensolver(self, name):
        tm = EIG_ROUTE_SYSTEMS[name]
        pd = perron(tm)
        values, right = np.linalg.eig(tm.weights)
        lam = values.real.max()
        h = right[:, values.real.argmax()].real
        values, left = np.linalg.eig(tm.weights.T)
        nu = left[:, values.real.argmax()].real
        nu = nu / nu.sum()
        h = h / (h @ nu)
        assert abs(pd.lam - lam) <= 1e-12 * lam
        assert (np.abs(pd.h - h) / h).max() <= 1e-10
        assert (np.abs(pd.nu - nu) / nu).max() <= 1e-10


class TestCylinderMeasure:
    def test_example_exact_values(self, ex2_exact):
        pd = ex2_exact.pd
        assert cylinder_measure(pd, (0,)) == Fraction(1, 6)
        assert cylinder_measure(pd, (0, 0)) == Fraction(1, 18)
        assert cylinder_measure(pd, (1, 0)) == Fraction(0)

    def test_full_shift_uniform(self, full2_exact):
        pd = full2_exact.pd
        for word in [(0,), (1, 1), (0, 1, 0)]:
            assert cylinder_measure(pd, word) == Fraction(1, 2**len(word))

    def test_float_matches_exact(self, ex2_exact, ex2_float):
        for word in [(0,), (2, 1), (0, 1, 2, 2), (3, 2, 0, 0, 1)]:
            exact = cylinder_measure(ex2_exact.pd, word)
            logv = cylinder_measure(ex2_float.pd, word)
            assert logv == pytest.approx(math.log(exact), abs=1e-12)

    def test_inadmissible_float_is_neg_inf(self, ex2_float):
        assert cylinder_measure(ex2_float.pd, (1, 0)) == -math.inf

    def test_depth2_short_word_sums_extensions(self, ex2_sft):
        words = enumerate_words(ex2_sft, 3)
        pot = build_potential(ex2_sft, 2, "weight", {w: Fraction(1) for w in words})
        tm = transfer_matrix(ex2_sft, pot)
        pd = perron_exact(tm)
        one = cylinder_measure(pd, (0,))
        two = sum(cylinder_measure(pd, (0, b)) for b in range(4))
        assert one == two

    def test_total_mass_exact(self, ex2_exact):
        assert sum(cylinder_measure(ex2_exact.pd, (a,)) for a in range(4)) == 1

    def test_additivity_exact(self, ex2_exact):
        pd = ex2_exact.pd
        for word in [(0,), (2,), (0, 1), (3, 2, 2)]:
            ext = sum(cylinder_measure(pd, word + (b,)) for b in range(4))
            assert ext == cylinder_measure(pd, word)

    def test_shift_invariance_exact(self, ex2_exact):
        pd = ex2_exact.pd
        for word in [(0,), (1,), (2, 2), (0, 1, 1)]:
            pre = sum(cylinder_measure(pd, (a,) + word) for a in range(4))
            assert pre == cylinder_measure(pd, word)


class TestLevelMeasures:
    def test_matches_per_word_calls(self, ex2_float):
        words, logs = level_log_measures(ex2_float.pd, 4)
        for i in range(0, len(words), 7):
            w = tuple(words[i])
            assert logs[i] == pytest.approx(cylinder_measure(ex2_float.pd, w), abs=1e-12)

    def test_level_mass_is_one(self, ex2_float, golden_float):
        for pipe in (ex2_float, golden_float):
            for n in (1, 3, 6):
                _, logs = level_log_measures(pipe.pd, n)
                assert np.exp(logs).sum() == pytest.approx(1.0, abs=1e-12)

    def test_exact_perron_data_give_float_logs(self, ex2_exact, ex2_float):
        words, logs = level_log_measures(ex2_exact.pd, 5)
        float_words, float_logs = level_log_measures(ex2_float.pd, 5)
        assert logs.dtype == float
        assert np.array_equal(words, float_words)
        assert np.abs(logs - float_logs).max() <= 1e-12
        for i in range(0, len(words), 11):
            exact = cylinder_measure(ex2_exact.pd, tuple(words[i]))
            assert logs[i] == pytest.approx(math.log(exact), abs=1e-12)

    def test_depth2_blocks_path(self, ex2_sft):
        words3 = enumerate_words(ex2_sft, 3)
        pot = build_potential(ex2_sft, 2, "weight", {w: Fraction(1) for w in words3})
        pd = perron(transfer_matrix(ex2_sft, pot))
        words, logs = level_log_measures(pd, 4)
        assert np.exp(logs).sum() == pytest.approx(1.0, abs=1e-12)
        w0 = tuple(words[0])
        assert logs[0] == pytest.approx(cylinder_measure(pd, w0), abs=1e-12)


class TestGibbsRatioBounds:
    def test_example_bounds(self, ex2_exact):
        pot = ex2_exact.potential
        lo, hi = gibbs_ratio_bounds(ex2_exact.pd, pot, 4)
        assert lo == pytest.approx(1 / 6, abs=1e-12)
        assert hi == pytest.approx(1 / 3, abs=1e-12)

    def test_full_shift_constant(self):
        sft = make_sft([[1, 1], [1, 1]])
        pot = constant_potential(sft)
        pd = perron_exact(transfer_matrix(sft, pot))
        lo, hi = gibbs_ratio_bounds(pd, pot, 4)
        assert lo == pytest.approx(0.5, abs=1e-12)
        assert hi == pytest.approx(0.5, abs=1e-12)

    def test_stabilizes_in_max_len(self, golden_float):
        pot = golden_float.potential
        b3 = gibbs_ratio_bounds(golden_float.pd, pot, 3)
        b5 = gibbs_ratio_bounds(golden_float.pd, pot, 5)
        assert b3 == pytest.approx(b5, abs=1e-12)


def per_word_ratio_bounds(pd, potential, max_len):
    """gibbs_ratio_bounds word by word, each Birkhoff sum a Python sum of
    phi over the word's windows."""
    phi, k1 = as_dict(potential.words, potential.phi), potential.depth + 1
    lo, hi = math.inf, -math.inf
    for n in range(pd.tm.recoding.block_length + 1, max_len + 1):
        words, logs = level_log_measures(pd, n)
        for w, logmu in zip(words.tolist(), logs.tolist()):
            total = sum(phi[tuple(w[i:i + k1])] for i in range(n - k1 + 1))
            ratio = math.exp(logmu + (n - 1) * pd.log_lam - total)
            lo, hi = min(lo, ratio), max(hi, ratio)
    return lo, hi


class TestWholeLevelSums:
    """gibbs_ratio_bounds sums phi for a whole word length at once; the
    bounds and every Birkhoff sum equal the word-by-word ones, bit for bit."""

    @pytest.mark.parametrize("name", list(VARIATION_SYSTEMS))
    def test_matches_per_word_reference(self, name):
        p = build_pipeline(VARIATION_SYSTEMS[name])
        pot, k = p.potential, p.tm.recoding.block_length
        got = gibbs_ratio_bounds(p.pd, pot, k + 2)
        assert [b.hex() for b in got] == [b.hex() for b in per_word_ratio_bounds(p.pd, pot, k + 2)]
        phi, k1 = as_dict(pot.words, pot.phi), pot.depth + 1
        for w in enumerate_words(pot.sft, k + 3)[::7]:
            want = sum(phi[w[i:i + k1]] for i in range(len(w) - k1 + 1))
            assert birkhoff_sum(pot, w).hex() == float(want).hex()


class TestLn1SupNorm:
    def test_full_shift_q(self):
        for q in (2, 3, 5):
            sft = make_sft([[1] * q for _ in range(q)])
            tm = transfer_matrix(sft, constant_potential(sft))
            assert ln1_sup_norm(tm, 1) == pytest.approx(q)
            assert ln1_sup_norm(tm, 3) == pytest.approx(q**3)


@st.composite
def random_weighted_shifts(draw):
    n = draw(st.integers(min_value=2, max_value=4))
    adj = np.zeros((n, n), dtype=int)
    for i in range(n):
        adj[i][(i + 1) % n] = 1
    adj[0][0] = 1
    for i, j in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                              max_size=6)):
        adj[i][j] = 1
    sft = make_sft(adj.tolist())
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    table = {w: float(rng.uniform(0.5, 2.0)) for w in enumerate_words(sft, 2)}
    return sft, build_potential(sft, 1, "weight", table)


class TestMeasureProperties:
    @given(random_weighted_shifts())
    @settings(max_examples=25, deadline=None)
    def test_additivity_and_mass(self, sys):
        sft, pot = sys
        pd = perron(transfer_matrix(sft, pot))
        total = sum(math.exp(cylinder_measure(pd, (a,))) for a in range(sft.size))
        assert total == pytest.approx(1.0, rel=1e-11)
        for word in enumerate_words(sft, 2):
            parent = cylinder_measure(pd, word)
            ext = [cylinder_measure(pd, word + (b,)) for b in range(sft.size)]
            total = sum(math.exp(x) for x in ext if x != -math.inf)
            assert total == pytest.approx(math.exp(parent), rel=1e-11)


STOCHASTIC_DENOMINATORS = (7, 16, 97, 1000003, 10**9 + 7)


def composition(rng, total, parts):
    """`parts` positive integers summing to `total`, uniformly cut."""
    cuts = sorted(rng.sample(range(1, total), parts - 1))
    return [b - a for a, b in zip([0] + cuts, cuts + [total])]


def rational_system(seed, kind):
    """Seeded random mixing SFT of 2-4 symbols with a depth-1 or depth-2
    rational table: row-stochastic (per source block denominators),
    column-stochastic (per target block denominators) or small integers
    times a random rational scale."""
    rng = random.Random(seed)
    n, depth = rng.randint(2, 4), rng.randint(1, 2)
    adj = np.zeros((n, n), dtype=int)
    for i in range(n):
        adj[i][(i + 1) % n] = 1
    adj[0][0] = 1
    for _ in range(rng.randint(0, 6)):
        adj[rng.randrange(n)][rng.randrange(n)] = 1
    sft = make_sft(adj.tolist())
    if kind == "scaled":
        scale = Fraction(rng.randint(1, 50), rng.randint(1, 50))
        table = {w: rng.randint(1, 4) * scale for w in enumerate_words(sft, depth + 1)}
    else:
        table = {}
        for block in enumerate_words(sft, depth):
            if kind == "rows":
                keys = [block + (int(c),) for c in np.flatnonzero(adj[block[-1]])]
            else:
                keys = [(int(a),) + block for a in np.flatnonzero(adj[:, block[0]])]
            den = rng.choice(STOCHASTIC_DENOMINATORS)
            for key, part in zip(keys, composition(rng, den, len(keys))):
                table[key] = Fraction(part, den)
    return transfer_matrix(sft, build_potential(sft, depth, "weight", table))


def assert_exact_perron(pd):
    w = pd.tm.exact_weights
    h, nu = np.array(pd.h, dtype=object), np.array(pd.nu, dtype=object)
    assert pd.lam > 0 and all(v > 0 for v in pd.h + pd.nu)
    assert (w @ h == pd.lam * h).all() and (nu @ w == pd.lam * nu).all()
    assert sum(nu) == 1 and h @ nu == 1


class TestExactCertification:
    @given(st.integers(0, 2**32), st.sampled_from(["rows", "columns", "scaled"]))
    @settings(max_examples=60, deadline=None)
    def test_certified_or_refused(self, seed, kind):
        tm = rational_system(seed, kind)
        try:
            pd = perron_exact(tm)
        except ExactModeError:
            assert kind == "scaled"
            return
        assert_exact_perron(pd)
        assert kind == "scaled" or pd.lam == 1

    @pytest.mark.parametrize("den", [10**9 + 1, 10**10 + 1])
    def test_example2_with_large_denominator(self, ex2_sft, den):
        table = {w: Fraction(1, den) for w in enumerate_words(ex2_sft, 2)}
        pd = perron_exact(transfer_matrix(ex2_sft, build_potential(ex2_sft, 1, "weight",
                                                                   table)))
        assert pd.lam == Fraction(3, den)
        assert pd.h == (Fraction(1),) * 4
        assert pd.nu == (Fraction(1, 6), Fraction(1, 3), Fraction(1, 3), Fraction(1, 6))

    def test_wide_bracket_column_stochastic(self, ex2_sft, monkeypatch):
        # D is about 1e24, so D * lambda is past float precision
        from gibbsfactor import potential

        dens = (1000003, 1000033, 1000037, 1000039)
        table = {}
        for j, den in enumerate(dens):
            preds = np.flatnonzero(np.array(EX2_ADJ)[:, j])
            parts = list(range(1, len(preds))) + [den - sum(range(1, len(preds)))]
            table.update({(int(a), j): Fraction(p, den) for a, p in zip(preds, parts)})
        tm = transfer_matrix(ex2_sft, build_potential(ex2_sft, 1, "weight", table))
        calls = []
        real = potential._simplest_between
        monkeypatch.setattr(potential, "_simplest_between",
                            lambda lo, hi: calls.append((lo, hi)) or real(lo, hi))
        pd = perron_exact(tm)
        assert calls
        assert pd.lam == 1 and pd.nu == (Fraction(1, 4),) * 4
        assert_exact_perron(pd)


def reference_measures(tm, pd, smap):
    """Plain-Fraction references built only from W = tm.exact_weights and
    the public pd.h, pd.nu and pd.lam: (cylinder, projected, product), the
    Gibbs mass of a domain word, the projected mass of an image word (the
    masses of its preimages, summed block by block), and the product of W
    restricted to the fibers along an image word."""
    w, h, nu, lam = tm.exact_weights, pd.h, pd.nu, pd.lam
    blocks = tm.recoding.block_words
    k, index = len(blocks[0]), {b: i for i, b in enumerate(blocks)}
    images = [tuple(smap[s] for s in b) for b in blocks]

    def cylinder(x):
        if len(x) < k:
            return sum((nu[i] * h[i] for i, b in enumerate(blocks) if b[:len(x)] == x),
                       Fraction(0))
        path = [index.get(x[t:t + k]) for t in range(len(x) - k + 1)]
        if None in path:
            return Fraction(0)
        mass = nu[path[0]] * h[path[-1]]
        for a, b in zip(path, path[1:]):
            mass *= w[a, b]
        return mass / lam ** (len(path) - 1)

    def projected(y):
        if len(y) < k:
            return sum((nu[i] * h[i] for i, b in enumerate(images) if b[:len(y)] == y),
                       Fraction(0))
        mass = [nu[i] if images[i] == y[:k] else Fraction(0) for i in range(len(blocks))]
        for t in range(k, len(y)):
            mass = [sum((mass[i] * w[i, j] for i in range(len(blocks))), Fraction(0))
                    if images[j] == y[t - k + 1:t + 1] else Fraction(0)
                    for j in range(len(blocks))]
        return sum(m * x for m, x in zip(mass, h)) / lam ** (len(y) - k)

    def product(y):
        fibers = [[i for i, b in enumerate(images) if b == y[t:t + k]]
                  for t in range(len(y) - k + 1)]
        out = w[np.ix_(fibers[0], fibers[1])]
        for a, b in zip(fibers[1:], fibers[2:]):
            out = out @ w[np.ix_(a, b)]
        return out

    return cylinder, projected, product


class TestExactMeasuresAgainstFractions:
    """Every exact measure of a certified rational system (denominators
    D > 1 included) equals its plain-Fraction reference."""

    @given(st.integers(0, 2**32), st.sampled_from(["rows", "columns", "scaled"]))
    @settings(max_examples=30, deadline=None)
    def test_exact_outputs_match_reference(self, seed, kind):
        from gibbsfactor import (
            block_product,
            build_factor,
            g_approx,
            g_limit,
            projected_measure,
            projected_measure_bruteforce,
        )
        from gibbsfactor.factor import level_measures, preimage_measures, verify_projection
        from gibbsfactor.sft import DEFAULT_MAX_WORDS

        tm = rational_system(seed, kind)
        try:
            pd = perron_exact(tm)
        except ExactModeError:
            return
        n = tm.sft.size
        size = random.Random(seed).randint(1, n)
        smap = [min(s, size - 1) for s in range(n)]
        fs = build_factor(tm, smap, Alphabet(tuple(str(b) for b in range(size))))
        cylinder, projected, product = reference_measures(tm, pd, smap)
        k = fs.block_length

        def same(got, want):
            return type(got) is Fraction and got == want

        for length in range(4):
            for x in itertools.product(range(n), repeat=length):
                assert same(cylinder_measure(pd, x), cylinder(x))
        for length in range(1, 5):
            image = list(itertools.product(range(size), repeat=length))
            want = {y: projected(y) for y in image}
            for y in image:
                assert same(projected_measure(fs, pd, y), want[y])
                assert same(projected_measure_bruteforce(fs, pd, y), want[y])
                if len(y) > k and want[y]:
                    assert same(g_approx(fs, pd, y).value, want[y] / projected(y[1:]))
                    got, scale = block_product(fs, y, exact=True)
                    assert scale == 0.0 and all(type(v) is Fraction for v in got.ravel())
                    assert (got == product(y)).all()
            positive = {y: m for y, m in want.items() if m}
            words, values = level_measures(fs, pd, length, DEFAULT_MAX_WORDS, True)
            assert dict(zip(map(tuple, words.tolist()), values.tolist())) == positive
            allowed = np.ones((length, n), dtype=bool)
            words, values = preimage_measures(fs, pd, allowed, DEFAULT_MAX_WORDS)
            assert dict(zip(map(tuple, words.tolist()), values)) == positive
            assert all(type(v) is Fraction for v in values)
        # 0 -> 0 and n-1 -> 0 are always allowed, so both points are admissible
        for prefix in ((), (smap[n - 1],)):
            tail = (smap[0],)
            res = g_limit(fs, pd, prefix, tail, jmax=4)
            for (m, _), stage in zip(res.stages, res.exact_stages):
                word = (prefix + tail * (m + 1))[:m + 1]
                assert same(stage, projected(word) / projected(word[1:]))
        assert verify_projection(fs, pd, 6, 0.0).passed
