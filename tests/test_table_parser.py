"""The batched potential-table parser against the per-key loop it replaced.

`reference_word`, `reference_table` and `reference_build` are that loop
and the per-word check of the old `canonical_potential`, kept here as the
oracle: every key split on its own and every value read by `table_value`
in document order, the table a sorted tuple of (word, value) pairs.  On generated documents
(shuffled keys, both key spellings, and faults placed at random) the
parser must give the same table, digest and emitted document, the same
first ValidationError and the same warnings.
"""

import hashlib
import json
import math
import time
import warnings
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gibbsfactor import fixtures
from gibbsfactor.errors import ValidationError
from gibbsfactor.potential import birkhoff_sum, build_potential, table_value
from gibbsfactor.sft import Alphabet, build_sft, enumerate_words
from gibbsfactor.sysio import (
    build_system,
    emit_system,
    format_word,
    parse_system_dict,
    parse_word,
    system_digest,
)


def reference_word(text, alphabet):
    """One key's word: comma-separated names, or bare concatenation when all
    alphabet names are single characters."""
    if text == "":
        return ()
    if "," in text:
        names = text.split(",")
    elif all(len(s) == 1 for s in alphabet.symbols):
        names = list(text)
    else:
        names = [text]
    try:
        return tuple(map(alphabet.positions.__getitem__, names))
    except KeyError as e:
        raise ValidationError(f"unknown symbol {e.args[0]!r}") from None


def reference_table(doc):
    """The table of a document by the per-key loop: sorted (word, value)
    pairs, or its first ValidationError."""
    alphabet = Alphabet(tuple(doc["alphabet"]))
    mode = doc["potential"]["mode"]
    keys, values = {}, []  # word -> its key; canonical values in key order
    for key, value in doc["potential"]["table"].items():
        first = keys.setdefault(reference_word(key, alphabet), key)
        if first != key:
            raise ValidationError(
                f"potential.table: keys {first!r} and {key!r} name the same word")
        try:
            values.append(table_value(mode, value))
        except ValidationError as e:
            raise ValidationError(f"potential.table[{key!r}]: {e}") from None
    return tuple(sorted(zip(keys, values)))


def reference_build(doc, table):
    """The per-word check of a parsed table against the admissible words:
    a warning for every entry that is not one, then the first missing word's
    ValidationError."""
    sft = build_sft(Alphabet(tuple(doc["alphabet"])), doc["adjacency"])
    words = enumerate_words(sft, doc["potential"]["depth"] + 1)
    admissible, values = set(words), dict(table)
    for w in values:
        if w not in admissible:
            warnings.warn(f"ignoring entry for inadmissible word {w}")
    missing = next((w for w in words if w not in values), None)
    if missing is not None:
        raise ValidationError(f"missing table entry for admissible word {missing}")


def reference_emitted(doc, table):
    alphabet = Alphabet(tuple(doc["alphabet"]))
    return {format_word(w, alphabet): str(v) if isinstance(v, Fraction) else v
            for w, v in table}


def entries(desc):
    """A description's table as sorted (word, value) pairs."""
    values = desc.values if isinstance(desc.values, tuple) else desc.values.tolist()
    return tuple(sorted([*zip(map(tuple, desc.words.tolist()), values), *desc.strays]))


def typed(pairs):
    return [(w, type(v), repr(v)) for w, v in pairs]


def run(step):
    """(result or the ValidationError message, warning messages) of a step."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = step()
        except ValidationError as e:
            result = ValidationError(str(e))
    return result, [str(w.message) for w in caught]


def same_outcome(got, want):
    if isinstance(got, ValidationError) or isinstance(want, ValidationError):
        return (isinstance(got, ValidationError) and isinstance(want, ValidationError)
                and str(got) == str(want))
    return True


VALUE_FAULTS = {
    "weight": [True, False, math.nan, math.inf, -math.inf, 0.0, -1.5, "-1/2", "0", "1e400",
               "1e-400", 10**400, "abc", None, [1]],
    "phi": [True, math.nan, math.inf, "1/2", "0.5", 709.9, -746.0, 800.0, 10**400, None],
}
# values that are valid but miss the batched float check
VALUE_EDGES = {"weight": [3, "7/4", Fraction(5, 3), 1e-310], "phi": [709.7, -745.0, 2, 0]}


@st.composite
def table_documents(draw):
    seed = draw(st.integers(0, 2**16))
    n = draw(st.integers(2, 5))
    depth = draw(st.integers(0, 2))
    mode = draw(st.sampled_from(["weight", "phi"]))
    long_names = draw(st.booleans())
    desc = fixtures.random_mixing_system(seed, n, depth, 2)
    names = [f"s{i}" if long_names else str(i) for i in range(n)]
    sft = build_sft(Alphabet(tuple(names)), [list(r) for r in desc.adjacency])
    words = enumerate_words(sft, depth + 1)

    def key(word):
        if not long_names and len(word) > 1 and draw(st.booleans()):
            return "".join(names[s] for s in word)  # bare concatenation
        return ",".join(names[s] for s in word)

    def value():
        if mode == "weight":
            return draw(st.one_of(st.floats(0.25, 4.0),
                                  st.sampled_from(["1", "1/3", "5/2", "2e-1"]),
                                  st.sampled_from(VALUE_EDGES["weight"])))
        return draw(st.one_of(st.floats(-3.0, 3.0), st.sampled_from(VALUE_EDGES["phi"])))

    table = [(key(w), value()) for w in words]
    some_word = st.lists(st.integers(0, n - 1), min_size=1, max_size=depth + 3).map(tuple)
    for _ in range(draw(st.integers(0, 4))):
        fault = draw(st.sampled_from(["duplicate", "unknown", "wrong length", "empty key",
                                      "inadmissible", "missing", "value"]))
        at = draw(st.integers(0, len(table)))
        if fault == "duplicate" and not long_names and depth > 0:
            word = draw(st.sampled_from(words))
            table.insert(at, ("".join(names[s] for s in word), value()))
            table.insert(at, (",".join(names[s] for s in word), value()))
        elif fault == "unknown":
            table.insert(at, (draw(st.sampled_from(["9", "x", "s9", "0,,1", ","])), value()))
        elif fault == "wrong length":
            word = draw(some_word.filter(lambda w: len(w) != depth + 1))
            table.insert(at, (",".join(names[s] for s in word), value()))
        elif fault == "empty key":
            table.insert(at, ("", value()))
        elif fault == "inadmissible":
            word = draw(st.lists(st.integers(0, n - 1), min_size=depth + 1,
                                 max_size=depth + 1).map(tuple))
            table.insert(at, (",".join(names[s] for s in word), value()))
        elif fault == "missing" and table:
            del table[min(at, len(table) - 1)]
        elif fault == "value" and table:
            i = min(at, len(table) - 1)
            table[i] = (table[i][0], draw(st.sampled_from(VALUE_FAULTS[mode])))
    table = draw(st.permutations(table))
    doc = emit_system(desc)
    doc["alphabet"] = names
    doc["factor"]["map"] = {names[int(k)]: v for k, v in doc["factor"]["map"].items()}
    doc["potential"] = {"depth": depth, "mode": mode, "table": dict(table)}
    return doc


@settings(max_examples=300, deadline=None)
@given(doc=table_documents())
def test_batched_parser_matches_the_per_key_loop(doc):
    alphabet = Alphabet(tuple(doc["alphabet"]))
    for key in doc["potential"]["table"]:  # parse_word, as --word reads it
        word, _ = run(lambda: parse_word(key, alphabet))
        reference, _ = run(lambda: reference_word(key, alphabet))
        assert same_outcome(word, reference)
        assert isinstance(word, ValidationError) or word == reference
    desc, parse_warned = run(lambda: parse_system_dict(doc))
    table, _ = run(lambda: reference_table(doc))
    assert parse_warned == []
    assert same_outcome(desc, table)
    if isinstance(desc, ValidationError):
        return
    assert typed(entries(desc)) == typed(table)
    emitted = emit_system(desc)["potential"]["table"]
    assert list(emitted.items()) == list(reference_emitted(doc, table).items())
    assert [type(v) for v in emitted.values()] == [
        type(v) for v in reference_emitted(doc, table).values()]
    reference_doc = {**emit_system(desc)}
    reference_doc["potential"] = {**reference_doc["potential"],
                                  "table": reference_emitted(doc, table)}
    blob = json.dumps(reference_doc, sort_keys=True).encode()
    assert system_digest(desc) == hashlib.sha256(blob).hexdigest()
    assert parse_system_dict(emit_system(desc)) == desc

    built, warned = run(lambda: build_system(desc))
    reference, reference_warned = run(lambda: reference_build(doc, table))
    assert same_outcome(built, reference)
    assert warned == reference_warned


@pytest.mark.parametrize("key, value, message", [
    ("1,1", "-1", "potential.table['1,1']: non-positive weight"),  # bad value, then repeat
    ("2", "1", "unknown symbol '2'"),
    ("01", "1", "potential.table: keys '0,1' and '01' name the same word"),
])
def test_first_fault_in_document_order_wins(key, value, message):
    doc = emit_system(fixtures.golden_mean())
    doc["potential"]["table"] = {"0,0": "1", "0,1": "1", key: value, "00": "2", "1,0": "1"}
    with pytest.raises(ValidationError) as info:
        parse_system_dict(doc)
    assert str(info.value) == message


@pytest.mark.parametrize("mode, value", [
    (mode, value) for mode in VALUE_FAULTS for value in VALUE_FAULTS[mode] + VALUE_EDGES[mode]])
def test_each_value_kind_as_the_per_key_loop(mode, value):
    doc = emit_system(fixtures.rate_demo())
    table = doc["potential"]["table"]
    if mode == "weight":
        doc["potential"]["mode"] = "weight"
        table.update((key, 1.5) for key in table)
    table["0,1"] = value
    desc, _ = run(lambda: parse_system_dict(doc))
    reference, _ = run(lambda: reference_table(doc))
    assert same_outcome(desc, reference)
    if not isinstance(desc, ValidationError):
        assert typed(entries(desc)) == typed(reference)


def test_long_words():
    # ten symbols on a cycle with one self-loop: few words of length 20, whose
    # base-10 numerals (up to 10^20) would not fit in int64
    names = [str(i) for i in range(10)]
    adjacency = [[int(j == (i + 1) % 10 or i == j == 0) for j in range(10)] for i in range(10)]
    words = enumerate_words(build_sft(Alphabet(tuple(names)), adjacency), 20)
    table = {",".join(names[s] for s in w): 1 + i % 7 / 8 for i, w in enumerate(words)}
    doc = {"schema_version": 1, "alphabet": names, "adjacency": adjacency,
           "potential": {"depth": 19, "mode": "phi", "table": dict(reversed(table.items()))}}
    desc = parse_system_dict(doc)
    assert list(map(tuple, desc.words.tolist())) == words
    sft, pot = build_system(desc)
    assert list(pot.phi) == [table[",".join(names[s] for s in w)] for w in words]
    by_word = {w: table[",".join(names[s] for s in w)] for w in reversed(words)}
    by_word[(1,) * 20] = 0.0  # not admissible: 1 -> 1 is forbidden
    with pytest.warns(UserWarning, match=r"inadmissible word \(1, 1,"):
        assert build_potential(sft, 19, "phi", by_word).phi.tobytes() == pot.phi.tobytes()
    path = enumerate_words(sft, 23)[-1]
    windows = [path[i:i + 20] for i in range(4)]
    assert birkhoff_sum(pot, path) == sum(pot.phi[words.index(w)] for w in windows)
    doc["potential"]["table"]["0" * 20] = 5.0  # the bare spelling of a word already there
    with pytest.raises(ValidationError, match="name the same word"):
        parse_system_dict(doc)


def test_huge_depth_parses_at_once():
    doc = emit_system(fixtures.golden_mean())
    doc["potential"]["depth"] = 10**5  # every key is then a word of another length
    start = time.perf_counter()
    desc = parse_system_dict(doc)
    assert time.perf_counter() - start < 1.0
    assert desc.words.shape == (0, 10**5 + 1) and len(desc.strays) == 3
