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
names, with bare concatenation accepted when every name is a single
character.  The potential header and every table value go through the one
rule that :func:`gibbsfactor.potential.build_potential` applies to Python
tables (:func:`~gibbsfactor.potential.check_header`,
:func:`~gibbsfactor.potential.table_value`).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from fractions import Fraction

from .errors import ValidationError
from .factor import FactorSystem, build_factor
from .potential import (
    PerronData,
    Potential,
    TransferMatrix,
    build_potential,
    check_header,
    perron,
    perron_exact,
    table_value,
    transfer_matrix,
)
from .sft import Alphabet, Sft, Word, build_sft

SCHEMA_VERSION = 1


def parse_word(text: str, alphabet: Alphabet) -> Word:
    """Word from text: comma-separated names, or bare concatenation when all
    alphabet names are single characters."""
    if text == "":
        return ()
    if "," in text:
        names = text.split(",")
    elif all(len(s) == 1 for s in alphabet.symbols):
        names = list(text)
    else:
        names = [text]
    return tuple(alphabet.index(n) for n in names)


def format_word(word: Word, alphabet: Alphabet) -> str:
    return ",".join(alphabet.name(s) for s in word)


@dataclass(frozen=True)
class SystemDescription:
    """Validated, canonical form of a system input file."""

    alphabet: tuple[str, ...]
    adjacency: tuple[tuple[int, ...], ...]
    depth: int
    mode: str
    table: tuple  # sorted ((word, value) ...), values Fraction or float
    image_alphabet: tuple[str, ...] | None
    factor_map: tuple[int, ...] | None
    schema_version: int = SCHEMA_VERSION

    @property
    def has_factor(self) -> bool:
        return self.factor_map is not None


def _expect_keys(obj: dict, allowed: set, where: str):
    unknown = set(obj) - allowed
    if unknown:
        raise ValidationError(f"unknown field {sorted(unknown)[0]!r} in {where}")


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
    names = doc.get("alphabet")
    if not isinstance(names, list) or not all(isinstance(s, str) for s in names):
        raise ValidationError("alphabet must be a list of strings")
    alphabet = Alphabet(tuple(names))
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
    table = {}
    for key, value in raw_table.items():
        word = parse_word(key, alphabet)
        try:
            table[word] = table_value(mode, value)
        except ValidationError as e:
            raise ValidationError(f"potential.table[{key!r}]: {e}") from None

    image_alphabet = None
    factor_map = None
    fac = doc.get("factor")
    if fac is not None:
        if not isinstance(fac, dict):
            raise ValidationError("factor must be an object")
        _expect_keys(fac, {"image_alphabet", "map"}, "factor")
        inames = fac.get("image_alphabet")
        if not isinstance(inames, list) or not all(isinstance(s, str) for s in inames):
            raise ValidationError("factor.image_alphabet must be a list of strings")
        image = Alphabet(tuple(inames))
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
        table=tuple(sorted(table.items())),
        image_alphabet=image_alphabet,
        factor_map=factor_map,
    )


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
    table = {}
    for word, value in desc.table:
        key = format_word(word, alphabet)
        table[key] = str(value) if isinstance(value, Fraction) else value
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
    alphabet = Alphabet(desc.alphabet)
    sft = build_sft(alphabet, [list(r) for r in desc.adjacency])
    potential = build_potential(sft, desc.depth, desc.mode, dict(desc.table))
    return sft, potential


def build_pipeline(desc: SystemDescription, exact: bool = False) -> Pipeline:
    sft, potential = build_system(desc)
    tm = transfer_matrix(sft, potential)
    pd = perron_exact(tm) if exact else perron(tm)
    fs = None
    if desc.has_factor:
        fs = build_factor(tm, desc.factor_map, Alphabet(desc.image_alphabet))
    return Pipeline(desc=desc, sft=sft, potential=potential, tm=tm, pd=pd, factor=fs)
