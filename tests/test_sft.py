import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gibbsfactor import (
    Alphabet,
    EnumerationLimitError,
    ValidationError,
    build_sft,
    enumerate_words,
    higher_block_recode,
    is_admissible,
    mixing_index,
)
from gibbsfactor.sft import block_word, find_rows, wielandt_cap, word_matrix

EX2_ADJ = [[1, 1, 1, 0], [0, 1, 1, 1], [1, 1, 1, 0], [0, 1, 1, 1]]


def make(adj, names=None):
    n = len(adj)
    names = names or tuple(str(i) for i in range(n))
    return build_sft(Alphabet(tuple(names)), adj)


def full_shift(q):
    return make([[1] * q for _ in range(q)])


def bool_product(power, base):
    """Boolean (OR/AND) matrix product through a d^3 temporary."""
    return (power[:, :, None] & base[None, :, :]).any(axis=1)


class TestBuildSft:
    def test_example_matrix_valid(self):
        sft = make(EX2_ADJ)
        assert sft.size == 4

    def test_full_2_shift(self):
        assert full_shift(2).adjacency.sum() == 4

    def test_empty_row_rejected(self):
        with pytest.raises(ValidationError, match="empty row"):
            make([[1, 1], [0, 0]])

    def test_empty_column_rejected(self):
        with pytest.raises(ValidationError, match="empty column"):
            make([[1, 0], [1, 0]])

    def test_non_binary_rejected(self):
        with pytest.raises(ValidationError, match="0 or 1"):
            make([[1, 2], [1, 1]])

    @pytest.mark.parametrize("adj", [
        [["a", "1"], ["1", "1"]],
        [["0", "1"], ["1", "1"]],
        np.array([[b"0", b"1"], [b"1", b"1"]]),
        np.array([[None, 1], [1, 1]], dtype=object),
        [[1j, 1], [1, 1]],
        [[np.nan, 1], [1, 1]],
        [[2, 1], [1, 1]],
        [[-1, 1], [1, 1]],
        [[0.5, 1], [1, 1]],
    ], ids=["str", "digit-str", "bytes", "object", "complex", "nan", "two", "minus-one", "half"])
    def test_entries_other_than_zero_and_one_refused(self, adj):
        with pytest.raises(ValidationError, match="^adjacency entries must be 0 or 1$"):
            make(adj)

    @pytest.mark.parametrize("adj", [
        [[True, False], [True, True]],
        np.array([[1, 0], [1, 1]], dtype=np.uint8),
        [[1.0, 0.0], [1.0, 1.0]],
        np.array([[1, 0], [1, True]], dtype=object),
    ], ids=["bool", "uint8", "float", "object-int"])
    def test_zero_one_entries_of_any_numeric_type_accepted(self, adj):
        a = make(adj).adjacency
        assert a.dtype == np.uint8 and a.tolist() == [[1, 0], [1, 1]]

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            build_sft(Alphabet(("a", "b", "c")), [[1, 1], [1, 1]])

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValidationError):
            Alphabet(("a", "a"))


class TestMixingIndex:
    def test_example_matrix_is_2(self):
        # A has zeros but the boolean square is all-positive
        assert mixing_index(make(EX2_ADJ)) == 2

    def test_full_shift_is_1(self):
        assert mixing_index(full_shift(2)) == 1

    def test_identity_not_mixing(self):
        sft = make([[1, 0], [0, 1]])
        assert mixing_index(sft) is None
        assert mixing_index(sft, cap=50) is None

    def test_period_two_not_mixing(self):
        assert mixing_index(make([[0, 1], [1, 0]])) is None

    def test_once_positive_stays_positive(self):
        sft = make(EX2_ADJ)
        p = mixing_index(sft)
        base = sft.adjacency.astype(bool)
        power = base.copy()
        for _ in range(p - 1):
            power = bool_product(power, base)
        for _ in range(5):
            assert power.all()
            power = bool_product(power, base)


def wielandt_matrix(d):
    """The d-cycle 0 -> 1 -> ... -> d-1 -> 0 plus the chord d-1 -> 1: the
    primitive matrix whose exponent attains Wielandt's bound."""
    adj = [[0] * d for _ in range(d)]
    for i in range(d):
        adj[i][(i + 1) % d] = 1
    adj[d - 1][1] = 1
    return make(adj)


def reference_mixing_index(sft, cap=None):
    """Smallest all-positive power by :func:`bool_product` steps."""
    if cap is None:
        cap = wielandt_cap(sft.size)
    base = sft.adjacency.astype(bool)
    power = base.copy()
    for p in range(1, cap + 1):
        if power.all():
            return p
        power = bool_product(power, base)
    return None


class TestWielandtBound:
    @pytest.mark.parametrize("d", range(3, 13))
    def test_index_attains_cap(self, d):
        sft = wielandt_matrix(d)
        assert mixing_index(sft) == wielandt_cap(d)
        assert mixing_index(sft, cap=wielandt_cap(d) - 1) is None


class TestAdmissibility:
    def test_forbidden_transition(self):
        assert not is_admissible(make(EX2_ADJ), (1, 0))

    def test_allowed_path(self):
        assert is_admissible(make(EX2_ADJ), (0, 1, 2))

    def test_empty_and_single(self):
        sft = make(EX2_ADJ)
        assert is_admissible(sft, ())
        assert is_admissible(sft, (3,))

    def test_out_of_bounds(self):
        with pytest.raises(ValidationError):
            is_admissible(make(EX2_ADJ), (0, 7))


class TestEnumerateWords:
    def test_example_pair_count_is_edge_count(self):
        sft = make(EX2_ADJ)
        assert len(enumerate_words(sft, 2)) == int(np.sum(EX2_ADJ))

    def test_full_2_shift_n3(self):
        assert len(enumerate_words(full_shift(2), 3)) == 8

    def test_length_one_is_alphabet(self):
        assert enumerate_words(make(EX2_ADJ), 1) == [(0,), (1,), (2,), (3,)]

    def test_length_zero(self):
        assert enumerate_words(make(EX2_ADJ), 0) == [()]

    def test_lexicographic_no_duplicates(self):
        words = enumerate_words(make(EX2_ADJ), 4)
        assert words == sorted(set(words))

    def test_cap_enforced(self):
        with pytest.raises(EnumerationLimitError):
            enumerate_words(full_shift(4), 10, max_words=100)

    @pytest.mark.parametrize("n", [2, 5])
    def test_cap_counts_the_largest_level(self, n):
        # the budget counts the words of the largest level, not visited prefixes
        sft = make(EX2_ADJ)
        count = len(word_matrix(sft, n))
        assert count > len(word_matrix(sft, n - 1))
        assert np.array_equal(word_matrix(sft, n, max_words=count), word_matrix(sft, n))
        message = f"enumeration would produce {count} words, exceeding the cap of {count - 1}"
        with pytest.raises(EnumerationLimitError, match=f"^{message}$"):
            word_matrix(sft, n, max_words=count - 1)

    def test_cap_counts_the_first_level(self):
        message = "enumeration would produce 4 words, exceeding the cap of 1"
        with pytest.raises(EnumerationLimitError, match=f"^{message}$"):
            enumerate_words(full_shift(4), 1, max_words=1)
        assert enumerate_words(full_shift(4), 1, max_words=4) == [(0,), (1,), (2,), (3,)]

    def test_matches_admissibility(self):
        sft = make(EX2_ADJ)
        import itertools

        expected = [w for w in itertools.product(range(4), repeat=3)
                    if is_admissible(sft, w)]
        assert enumerate_words(sft, 3) == expected


class TestHigherBlockRecode:
    def test_k1_is_isomorphic_copy(self):
        sft = make(EX2_ADJ)
        rec = higher_block_recode(sft, 1)
        assert np.array_equal(rec.block_sft.adjacency, sft.adjacency)
        assert rec.block_words == ((0,), (1,), (2,), (3,))

    def test_full_2_shift_k2(self):
        rec = higher_block_recode(full_shift(2), 2)
        assert rec.size == 4
        assert int(rec.block_sft.adjacency.sum()) == 8

    def test_example_k2_block_count(self):
        rec = higher_block_recode(make(EX2_ADJ), 2)
        assert rec.size == 12

    @pytest.mark.parametrize("k, count", [(1, 16), (2, 64)])
    def test_cap_counts_the_longer_words(self, k, count):
        # the (k+1)-words that define the transitions are counted too
        sft = full_shift(4)
        message = f"enumeration would produce {count} words, exceeding the cap of {count - 1}"
        with pytest.raises(EnumerationLimitError, match=f"^{message}$"):
            higher_block_recode(sft, k, max_words=count - 1)
        rec = higher_block_recode(sft, k, max_words=count)
        assert int(rec.block_sft.adjacency.sum()) == count
        with pytest.raises(EnumerationLimitError, match="produce 4 words"):
            higher_block_recode(sft, k, max_words=1)

    def test_block_transition_rule(self):
        sft = make(EX2_ADJ)
        rec = higher_block_recode(sft, 2)
        for i, u in enumerate(rec.block_words):
            for j, v in enumerate(rec.block_words):
                allowed = u[1:] == v[:-1] and is_admissible(sft, u + (v[-1],))
                assert bool(rec.block_sft.adjacency[i, j]) == allowed

    def test_block_word_translation(self):
        sft = make(EX2_ADJ)
        rec = higher_block_recode(sft, 2)
        bw = block_word(rec, (0, 1, 2))
        assert [rec.block_words[b] for b in bw] == [(0, 1), (1, 2)]

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_word_count_consistency(self, k):
        # length-n base words correspond to length-(n-k+1) block words
        sft = make(EX2_ADJ)
        rec = higher_block_recode(sft, k)
        for n in range(k, k + 4):
            assert len(enumerate_words(sft, n)) == len(
                enumerate_words(rec.block_sft, n - k + 1)
            )


@st.composite
def primitive_sfts(draw):
    """Cycle + self-loop + random edges: always primitive, never stranded."""
    n = draw(st.integers(min_value=2, max_value=5))
    adj = np.zeros((n, n), dtype=int)
    for i in range(n):
        adj[i][(i + 1) % n] = 1
    adj[0][0] = 1
    extra = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=8))
    for i, j in extra:
        adj[i][j] = 1
    return make(adj.tolist())


@st.composite
def periodic_sfts(draw):
    """Symbols in p cyclic classes (i mod p), edges only from class c to
    c + 1: every power keeps zeros, so the shift is never mixing."""
    p = draw(st.integers(min_value=2, max_value=3))
    n = p * draw(st.integers(min_value=1, max_value=3))
    adj = np.zeros((n, n), dtype=int)
    for i in range(n):
        adj[i][(i + 1) % n] = 1
    extra = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=8))
    for i, j in extra:
        if j % p == (i + 1) % p:
            adj[i][j] = 1
    return make(adj.tolist())


class TestProperties:
    @given(st.one_of(primitive_sfts(), periodic_sfts()))
    @settings(max_examples=60, deadline=None)
    def test_mixing_index_matches_boolean_reference(self, sft):
        assert mixing_index(sft) == reference_mixing_index(sft)


    @given(primitive_sfts())
    @settings(max_examples=40, deadline=None)
    def test_mixing_index_exists_and_monotone(self, sft):
        p = mixing_index(sft)
        assert p is not None
        base = sft.adjacency.astype(bool)
        power = base.copy()
        seen_positive = False
        for step in range(1, p + 3):
            if power.all():
                seen_positive = True
                assert step >= p
            elif seen_positive:
                pytest.fail("positivity lost after being reached")
            power = bool_product(power, base)

    @given(primitive_sfts(), st.integers(min_value=0, max_value=4))
    @settings(max_examples=40, deadline=None)
    def test_enumeration_matches_admissibility(self, sft, n):
        words = enumerate_words(sft, n)
        assert words == sorted(set(words))
        import itertools

        brute = [w for w in itertools.product(range(sft.size), repeat=n)
                 if is_admissible(sft, w)]
        assert words == brute

    @given(primitive_sfts(), st.integers(min_value=1, max_value=3))
    @settings(max_examples=30, deadline=None)
    def test_recode_word_counts(self, sft, k):
        rec = higher_block_recode(sft, k)
        for n in range(k, k + 3):
            assert len(enumerate_words(sft, n)) == len(
                enumerate_words(rec.block_sft, n - k + 1)
            )
        assert rec.block_words == tuple(enumerate_words(sft, k))
        for i, u in enumerate(rec.block_words):
            for j, v in enumerate(rec.block_words):
                allowed = u[1:] == v[:-1] and is_admissible(sft, u + (v[-1],))
                assert bool(rec.block_sft.adjacency[i, j]) == allowed

    @given(primitive_sfts(), st.integers(min_value=1, max_value=3))
    @settings(max_examples=30, deadline=None)
    def test_transitions_share_the_word_order(self, sft, k):
        # transition t is the t-th admissible (k+1)-word, from its prefix
        # block to its suffix block, in the row-major order of the adjacency
        rec = higher_block_recode(sft, k)
        words = [tuple(w) for w in rec.transitions.tolist()]
        assert words == enumerate_words(sft, k + 1)
        assert [rec.block_words[i] for i in rec.sources] == [w[:-1] for w in words]
        assert [rec.block_words[j] for j in rec.targets] == [w[1:] for w in words]
        rows, cols = np.nonzero(rec.block_sft.adjacency)
        assert np.array_equal(rows, rec.sources) and np.array_equal(cols, rec.targets)
        assert rec.block_array.dtype == np.intp
        assert rec.block_array.tolist() == [list(b) for b in rec.block_words]
        for table in (rec.transitions, rec.sources, rec.targets, rec.block_array):
            with pytest.raises(ValueError, match="read-only"):
                table[0] = table[0]


def test_block_names_join_with_commas_only_around_long_names():
    rec = higher_block_recode(make([[1, 1, 1]] * 3, names=("a", "bc", "d")), 2)
    assert rec.block_sft.alphabet.symbols == (
        "aa", "a,bc", "ad", "bc,a", "bc,bc", "bc,d", "da", "d,bc", "dd")


@pytest.mark.parametrize("q, n", [(4, 3), (16, 15), (3, 45), (2, 70), (1, 200)])
def test_find_rows_matches_a_dict(q, n):
    # long words too, whose base-q numerals would overflow int64 (3^45, 2^70)
    rng = np.random.default_rng(q * n)
    table = np.array(sorted(set(map(tuple, rng.integers(0, q, size=(200, n)).tolist()))))
    words = np.concatenate([
        table[rng.integers(0, len(table), size=100)],  # present, some more than once
        rng.integers(0, q, size=(100, n)),             # mostly absent
        rng.integers(-1, q + 2, size=(100, n)),        # symbols outside [0, q) too
    ])
    words[-1, -1], words[-2, 0] = q, -1
    row_of = {w: i for i, w in enumerate(map(tuple, table.tolist()))}
    want = [row_of.get(w, -1) for w in map(tuple, words.tolist())]
    assert find_rows(table, words, q).tolist() == want
