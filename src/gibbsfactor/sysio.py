"""File format for system descriptions and the builders that turn them into
live objects.

A system description is a single JSON document:

    {
      "schema_version": 1,
      "alphabet": ["0", "1", "2", "3"],
      "adjacency": [[1, 1, 1, 0], ...],
      "potential": {"depth": 1, "mode": "weight", "table": {"0,0": "1", ...}},
      "factor": {"image_alphabet": ["0", "1"],
                 "map": {"0": "0", "1": "0", "2": "1", "3": "1"}}
    }

Unknown fields are rejected.  Table keys are words: comma-separated symbol
names (so no name may contain ','), or bare concatenation when every name
is a single character; two keys that name one word are refused.  The header
and every table value go through the one rule that
:func:`gibbsfactor.potential.build_potential` applies to Python tables
(:func:`~gibbsfactor.potential.check_header`, :func:`~gibbsfactor.potential.table_values`).

The table is read in one pass, not key by key: every key is split once and
its names are looked up in one sweep, repeated words are found as equal
neighbours in one lexicographic sort of the word matrix, and plain float
values are checked as one array.  The first bad entry in document order is
the error, as a key-by-key loop would find it.  The description keeps the
table as arrays in the lexicographic word order that the potential and the
transfer matrix share: a word matrix and a value array.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, fields
from fractions import Fraction
from itertools import repeat

import numpy as np

from .errors import ValidationError
from .factor import FactorSystem, build_factor
from .potential import (
    PerronData,
    Potential,
    TransferMatrix,
    canonical_potential,
    check_header,
    perron,
    perron_exact,
    table_values,
    take_values,
    transfer_matrix,
    value_list,
)
from .sft import Alphabet, Sft, Word, build_sft

SCHEMA_VERSION = 1


def parse_word(text: str, alphabet: Alphabet) -> Word:
    """Word from text by the rule for table keys (:func:`_key_symbols`)."""
    symbols, _, names = _key_symbols([text], alphabet)
    unknown = np.flatnonzero(symbols < 0)[:1]
    if unknown.size:
        raise ValidationError(f"unknown symbol {names[unknown[0]]!r}")
    return tuple(symbols.tolist())


def format_word(word: Word, alphabet: Alphabet) -> str:
    return ",".join(alphabet.name(s) for s in word)


@dataclass(frozen=True, eq=False)
class SystemDescription:
    """Validated, canonical form of a system input file.

    The potential table is held as arrays: `words` is a read-only
    (m, depth + 1) int matrix of the keys' words in lexicographic order, and
    `values` their canonical values in that order, a read-only float array,
    or a tuple (of Fractions, and floats) when some weight is exact.
    `strays` holds the (word, value) entries whose word has another length,
    sorted by word; building the potential ignores them with a warning.
    """

    alphabet: tuple[str, ...]
    adjacency: tuple[tuple[int, ...], ...]
    depth: int
    mode: str
    words: np.ndarray
    values: np.ndarray | tuple
    image_alphabet: tuple[str, ...] | None
    factor_map: tuple[int, ...] | None
    strays: tuple = ()
    schema_version: int = SCHEMA_VERSION

    @property
    def has_factor(self) -> bool:
        return self.factor_map is not None

    def __eq__(self, other):
        if not isinstance(other, SystemDescription):
            return NotImplemented
        pairs = ((getattr(self, f.name), getattr(other, f.name)) for f in fields(self))
        return all(np.array_equal(a, b) if isinstance(a, np.ndarray) or isinstance(b, np.ndarray)
                   else a == b for a, b in pairs)


def _expect_keys(obj: dict, allowed: set, where: str):
    unknown = set(obj) - allowed
    if unknown:
        raise ValidationError(f"unknown field {sorted(unknown)[0]!r} in {where}")


def _alphabet(names, field: str) -> Alphabet:
    """A declared alphabet: a list of strings, none with the word separator ','."""
    if not isinstance(names, list) or not all(isinstance(s, str) for s in names):
        raise ValidationError(f"{field} must be a list of strings")
    for name in names:
        if "," in name:
            raise ValidationError(f"{field}: symbol name {name!r} contains ','")
    return Alphabet(tuple(names))


def parse_system_dict(doc: dict) -> SystemDescription:
    """Validate a system document into its canonical description, or raise
    ValidationError naming the field.  Table values are canonicalised by
    :func:`~gibbsfactor.potential.table_value` (a rejection reads
    ``potential.table['0,0']: <reason>``), so a phi whose weight exp(phi)
    leaves the float range is refused here, before anything is built."""
    if not isinstance(doc, dict):
        raise ValidationError("top-level document must be a JSON object")
    _expect_keys(doc, {"schema_version", "alphabet", "adjacency", "potential", "factor"},
                 "top level")
    version = doc.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ValidationError(f"unsupported schema_version {version!r}")
    alphabet = _alphabet(doc.get("alphabet"), "alphabet")
    adjacency = doc.get("adjacency")
    if not (isinstance(adjacency, list) and adjacency
            and all(isinstance(row, list) and len(row) == len(adjacency[0])
                    for row in adjacency)):
        raise ValidationError("adjacency must be a matrix: a list of equal-length rows")
    if any(isinstance(x, bool) or x not in (0, 1) for row in adjacency for x in row):
        raise ValidationError("adjacency entries must be 0 or 1")
    sft = build_sft(alphabet, adjacency)

    pot = doc.get("potential")
    if not isinstance(pot, dict):
        raise ValidationError("potential section is required")
    _expect_keys(pot, {"depth", "mode", "table"}, "potential")
    depth = pot.get("depth")
    mode = pot.get("mode")
    check_header(depth, mode)
    raw_table = pot.get("table")
    if not isinstance(raw_table, dict):
        raise ValidationError("potential.table must be an object")
    words, values, strays = _parse_table(raw_table, alphabet, depth, mode)

    image_alphabet = factor_map = None
    fac = doc.get("factor")
    if fac is not None:
        if not isinstance(fac, dict):
            raise ValidationError("factor must be an object")
        _expect_keys(fac, {"image_alphabet", "map"}, "factor")
        image = _alphabet(fac.get("image_alphabet"), "factor.image_alphabet")
        mapping = fac.get("map")
        if not isinstance(mapping, dict):
            raise ValidationError("factor.map must be an object")
        out = [None] * alphabet.size
        for dom, img in mapping.items():
            out[alphabet.index(dom)] = image.index(img)
        missing = [alphabet.name(i) for i, v in enumerate(out) if v is None]
        if missing:
            raise ValidationError(f"factor.map: unmapped symbol {missing[0]!r}")
        image_alphabet = image.symbols
        factor_map = tuple(out)

    return SystemDescription(
        alphabet=alphabet.symbols,
        adjacency=tuple(tuple(int(x) for x in row) for row in sft.adjacency.tolist()),
        depth=depth,
        mode=mode,
        words=words,
        values=values,
        image_alphabet=image_alphabet,
        factor_map=factor_map,
        strays=strays,
    )


def _key_symbols(keys: list, alphabet: Alphabet) -> tuple[np.ndarray, np.ndarray, list]:
    """Every key split into symbol names in one pass: comma-separated names,
    or bare concatenation when all alphabet names are single characters;
    "" is the empty word.  Returns the names' symbol indices (-1 for an
    unknown name) flat in key order, each key's number of names, and the
    names."""
    if all(len(s) == 1 for s in alphabet.symbols):  # a bare key spells a name per character
        keys = [k if "," in k else ",".join(k) for k in keys]
    lengths = (np.fromiter(map(str.count, keys, repeat(",")), np.intp, len(keys))
               + np.fromiter(map(bool, keys), np.intp, len(keys)))
    names = ",".join(filter(None, keys)).split(",") if lengths.any() else []
    symbols = np.fromiter(map(alphabet.positions.get, names, repeat(-1)), np.intp, len(names))
    return symbols, lengths, names


def _parse_table(raw_table: dict, alphabet: Alphabet, depth: int, mode: str):
    """(words, values, strays) of a potential table, the parts of a
    :class:`SystemDescription`, or the ValidationError of the first bad
    entry in document order: in one entry an unknown symbol comes before a
    repeated word, and that before a bad value."""
    keys, n = list(raw_table), depth + 1
    symbols, lengths, names = _key_symbols(keys, alphabet)
    ends = np.cumsum(lengths)
    unknown = np.flatnonzero(symbols < 0)[:1]
    errors = [(int(np.searchsorted(ends, unknown[0], side="right")),
               f"unknown symbol {names[unknown[0]]!r}")] if unknown.size else []
    known = errors[0][0] if errors else len(keys)  # the keys before hold known names only
    fits = lengths[:known] == n
    rows, others = np.flatnonzero(fits), np.flatnonzero(~fits)  # keys of n names, the rest
    words = symbols[(ends[rows] - n)[:, None] + np.arange(n)]
    # a repeated word is a row equal to its neighbour in the stable
    # lexicographic sort, so the pair is (the earlier key, the later one)
    order = np.lexsort(words.T[::-1])
    words = words[order]
    repeats = np.flatnonzero((words[1:] == words[:-1]).all(axis=1)) + 1
    pairs = [(rows[order[p - 1]], rows[order[p]]) for p in repeats.tolist()]
    seen = {}  # word -> its keys, for the few keys of another length
    for i in others.tolist():
        seen.setdefault(tuple(symbols[ends[i] - lengths[i]:ends[i]].tolist()), []).append(i)
    pairs += [tuple(group[:2]) for group in seen.values() if len(group) > 1]
    errors += [(int(second), f"potential.table: keys {keys[first]!r} and {keys[second]!r} "
                             "name the same word") for first, second in pairs]
    first_bad = min(errors, default=(len(keys), None))
    values = table_values(mode, list(raw_table.values())[:first_bad[0]],
                          lambda i: f"potential.table[{keys[i]!r}]")
    if first_bad[1] is not None:
        raise ValidationError(first_bad[1])
    words.setflags(write=False)
    listed = value_list(values)
    strays = tuple(sorted((w, listed[group[0]]) for w, group in seen.items()))
    return words, take_values(values, rows[order]), strays


def parse_system(path) -> SystemDescription:
    """Parse and validate a system description file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as e:
        raise ValidationError(f"parse error at line {e.lineno}, column {e.colno}: {e.msg}") from None
    except ValueError as e:  # bytes that are not UTF-8, or an over-long integer literal
        raise ValidationError(f"parse error: {e}") from None
    return parse_system_dict(doc)


def emit_system(desc: SystemDescription) -> dict:
    """Canonical JSON document for a description; parse(emit(d)) == d."""
    alphabet = Alphabet(desc.alphabet)
    entries = sorted([*zip(map(tuple, desc.words.tolist()), value_list(desc.values)),
                      *desc.strays])
    table = {format_word(w, alphabet): str(v) if isinstance(v, Fraction) else v
             for w, v in entries}
    doc = {
        "schema_version": desc.schema_version,
        "alphabet": list(desc.alphabet),
        "adjacency": [list(row) for row in desc.adjacency],
        "potential": {"depth": desc.depth, "mode": desc.mode, "table": table},
    }
    if desc.has_factor:
        doc["factor"] = {
            "image_alphabet": list(desc.image_alphabet),
            "map": {
                desc.alphabet[i]: desc.image_alphabet[b]
                for i, b in enumerate(desc.factor_map)
            },
        }
    return doc


def system_digest(desc: SystemDescription) -> str:
    blob = json.dumps(emit_system(desc), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


@dataclass(frozen=True, eq=False)
class Pipeline:
    """Everything built from one description: shift, potential, transfer
    matrix, Perron data, and (when a factor is declared) the factor system."""

    desc: SystemDescription
    sft: Sft
    potential: Potential
    tm: TransferMatrix
    pd: PerronData
    factor: FactorSystem | None


def build_system(desc: SystemDescription) -> tuple[Sft, Potential]:
    """Shift and potential of a canonical description (values not re-checked)."""
    sft = build_sft(Alphabet(desc.alphabet), [list(r) for r in desc.adjacency])
    return sft, canonical_potential(sft, desc.depth, desc.mode, desc.words, desc.values,
                                    desc.strays)


def build_pipeline(desc: SystemDescription, exact: bool = False) -> Pipeline:
    sft, potential = build_system(desc)
    tm = transfer_matrix(sft, potential)
    pd = perron_exact(tm) if exact else perron(tm)
    fs = None
    if desc.has_factor:
        fs = build_factor(tm, desc.factor_map, Alphabet(desc.image_alphabet))
    return Pipeline(desc=desc, sft=sft, potential=potential, tm=tm, pd=pd, factor=fs)
