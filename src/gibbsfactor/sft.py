"""Shifts of finite type: validation, admissibility, word enumeration, mixing,
and higher-block recoding.

Symbols are dense integer indices internally; names appear only at the I/O
boundary.  A shift of finite type (SFT) is given by a 0/1 adjacency matrix A,
where the transition i -> j is allowed iff A[i, j] == 1.  Words are tuples of
symbol indices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EnumerationLimitError, ValidationError

DEFAULT_MAX_WORDS = 5_000_000

Word = tuple[int, ...]


@dataclass(frozen=True)
class Alphabet:
    """Ordered finite alphabet of distinct, non-empty symbol names."""

    symbols: tuple[str, ...]

    def __post_init__(self):
        if len(self.symbols) == 0:
            raise ValidationError("alphabet must be non-empty")
        if any(not isinstance(s, str) or s == "" for s in self.symbols):
            raise ValidationError("symbol names must be non-empty strings")
        # name -> index, the dict that index() and sysio.parse_word look names up in
        object.__setattr__(self, "positions", {s: i for i, s in enumerate(self.symbols)})
        if len(self.positions) != len(self.symbols):
            raise ValidationError("symbol names must be pairwise distinct")

    @property
    def size(self) -> int:
        return len(self.symbols)

    def index(self, name: str) -> int:
        try:
            return self.positions[name]
        except (KeyError, TypeError):  # TypeError: an unhashable name
            raise ValidationError(f"unknown symbol {name!r}") from None

    def name(self, i: int) -> str:
        return self.symbols[i]


@dataclass(frozen=True, eq=False)
class Sft:
    """One-sided shift of finite type over `alphabet` with 0/1 adjacency."""

    alphabet: Alphabet
    adjacency: np.ndarray  # shape (d, d), dtype uint8, entries in {0, 1}

    @property
    def size(self) -> int:
        return self.alphabet.size


def build_sft(alphabet: Alphabet, adjacency) -> Sft:
    """Validate and freeze an SFT.

    Rejects non-square or non-binary matrices and stranded symbols (an empty
    row or column).  Does not require mixing; see :func:`mixing_index`.
    """
    a = np.asarray(adjacency)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValidationError(f"adjacency must be square, got shape {a.shape}")
    if a.shape[0] != alphabet.size:
        raise ValidationError(
            f"adjacency dimension {a.shape[0]} != alphabet size {alphabet.size}"
        )
    if not ((a == 0) | (a == 1)).all():
        raise ValidationError("adjacency entries must be 0 or 1")
    a = a.astype(np.uint8)
    no_successor, no_predecessor = ~a.any(axis=1), ~a.any(axis=0)
    for i in np.flatnonzero(no_successor | no_predecessor)[:1]:  # the first stranded symbol
        if no_successor[i]:
            raise ValidationError(f"empty row: symbol {alphabet.name(i)!r} has no successor")
        raise ValidationError(f"empty column: symbol {alphabet.name(i)!r} has no predecessor")
    a.setflags(write=False)
    return Sft(alphabet=alphabet, adjacency=a)


def wielandt_cap(d: int) -> int:
    """Primitivity exponent bound: a primitive d x d matrix has A^p > 0 for
    p = d^2 - 2d + 2, so checking up to this cap is conclusive."""
    return max(1, d * d - 2 * d + 2)


def mixing_index(sft: Sft, cap: int | None = None) -> int | None:
    """Smallest p <= cap with all entries of A^p positive, else None.

    Powers saturate to 0/1 after every step: each step is one float32 BLAS
    product of 0/1 matrices, whose entries count paths, are at most d and so
    are exact (float32 holds every integer below 2^24), then clipped back to
    0/1.  Memory stays at a few d x d arrays.  None means "not mixing within
    cap"; with the default (Wielandt) cap that is conclusive.
    """
    if cap is None:
        cap = wielandt_cap(sft.size)
    if cap < 1:
        raise ValidationError("cap must be >= 1")
    base = sft.adjacency.astype(np.float32)
    power = base
    for p in range(1, cap + 1):
        if power.all():
            return p
        power = (power @ base > 0).astype(np.float32)
    return None


def is_admissible(sft: Sft, word) -> bool:
    """True iff every consecutive pair of `word` is an allowed transition.

    Length-0 and length-1 words are admissible (build_sft already rejected
    stranded symbols, so no special case is needed).
    """
    w = tuple(word)
    d = sft.size
    for s in w:
        if not 0 <= s < d:
            raise ValidationError(f"symbol index {s} out of bounds for alphabet size {d}")
    return all(sft.adjacency[a, b] for a, b in zip(w, w[1:]))


def word_matrix(sft: Sft, n: int, max_words: int = DEFAULT_MAX_WORDS) -> np.ndarray:
    """All admissible words of length n as a (count, n) int array in
    lexicographic order, grown one level at a time from the empty word by
    ``np.nonzero`` of the adjacency rows of the last symbols.  Internal bulk
    form of :func:`enumerate_words`.  The budget caps every level."""
    if n < 0:
        raise ValidationError("word length must be >= 0")
    adjacency = sft.adjacency.astype(bool)
    level = np.empty((1, 0), dtype=np.int64)
    for length in range(n):
        # every symbol follows the empty word
        follows = adjacency[level[:, -1]] if length else np.ones((1, sft.size), dtype=bool)
        total = int(np.count_nonzero(follows))
        if total > max_words:
            raise EnumerationLimitError(
                f"enumeration would produce {total} words, exceeding the cap of {max_words}"
            )
        parent, child = np.nonzero(follows)
        level = np.column_stack([level[parent], child])
    return level


def find_rows(table: np.ndarray, words: np.ndarray, q: int) -> np.ndarray:
    """The row of `table`, a lexicographically sorted matrix of distinct
    words over q symbols, equal to each row of `words`, or -1 where none is.
    One searchsorted per column, within the run of table rows that share
    the word's prefix so far: the key run * q + symbol increases down the
    table.  Any symbol values may be looked up."""
    at = np.zeros(len(words), dtype=np.intp)
    run = np.zeros(len(table), dtype=np.int64)  # each row's run of equal prefixes
    for j in range(table.shape[1]):
        keys = run * q + table[:, j]
        at = np.searchsorted(keys, run[at] * q + words[:, j]).clip(max=len(table) - 1)
        run = np.cumsum(np.r_[0, keys[1:] != keys[:-1]])
    return np.where((table[at] == words).all(axis=1), at, -1)


def enumerate_words(sft: Sft, n: int, max_words: int = DEFAULT_MAX_WORDS) -> list[Word]:
    """All admissible words of length n, lexicographic, no duplicates."""
    return [tuple(row) for row in word_matrix(sft, n, max_words).tolist()]


@dataclass(frozen=True, eq=False)
class Recoding:
    """Higher-block presentation: symbols of `block_sft` are the admissible
    k-words of the base SFT, with transitions given by (k-1)-overlap.  Block
    transition t is the (k+1)-word ``transitions[t]``; transitions are in the
    row-major order of the block adjacency, as blocks and words are sorted."""

    block_length: int
    block_words: tuple[Word, ...]  # lexicographic admissible k-words
    block_array: np.ndarray        # the block words as a read-only (d, k) intp array
    block_sft: Sft
    to_block: dict  # Word -> block symbol index
    transitions: np.ndarray  # (m, k+1) int, the admissible (k+1)-words, lexicographic
    sources: np.ndarray      # (m,) block index of each transition's k-prefix
    targets: np.ndarray      # (m,) block index of each transition's k-suffix

    @property
    def size(self) -> int:
        return len(self.block_words)


def _dense_ranks(rows: np.ndarray) -> np.ndarray:
    """Rank of each row of a sorted int matrix among its distinct rows."""
    return np.cumsum(np.r_[True, (rows[1:] != rows[:-1]).any(axis=1)]) - 1


def higher_block_recode(sft: Sft, k: int, max_words: int = DEFAULT_MAX_WORDS) -> Recoding:
    """Recode to blocks of length k, so depth-k potentials become depth-1.

    Block transition u -> v is allowed iff u[1:] == v[:-1] and the final base
    transition u[-1] -> v[-1] is allowed, i.e. iff (w[:-1], w[1:]) = (u, v)
    for an admissible (k+1)-word w; the budget caps the (k+1)-words too.
    No symbol is stranded, so every k-word is a prefix and a suffix of some
    (k+1)-word, and its rank among either is its block index.  k = 1 yields
    an isomorphic copy.
    """
    if k < 1:
        raise ValidationError("block length must be >= 1")
    longer = word_matrix(sft, k + 1, max_words)  # the admissible (k+1)-words
    sources, targets = _dense_ranks(longer[:, :-1]), np.empty(len(longer), dtype=np.intp)
    by_suffix = np.lexsort(longer[:, :0:-1].T)  # columns 1..k, column 1 the primary key
    targets[by_suffix] = _dense_ranks(longer[by_suffix, 1:])
    blocks = longer[np.diff(sources, prepend=-1) > 0, :-1]  # each block's first transition
    block_words = tuple(map(tuple, blocks.tolist()))
    adj = np.zeros((len(block_words), len(block_words)), dtype=np.uint8)
    adj[sources, targets] = 1
    symbols = sft.alphabet.symbols  # a block's names are joined by ',' if one is longer than 1
    long_names = np.array([len(s) > 1 for s in symbols])[blocks].any(axis=1)
    names = tuple(("," if long else "").join(map(symbols.__getitem__, w))
                  for w, long in zip(block_words, long_names.tolist()))
    block_sft = build_sft(Alphabet(names), adj)
    for a in (longer, sources, targets, blocks):
        a.setflags(write=False)
    return Recoding(
        block_length=k,
        block_words=block_words,
        block_array=blocks,
        block_sft=block_sft,
        to_block={w: i for i, w in enumerate(block_words)},
        transitions=longer,
        sources=sources,
        targets=targets,
    )


def block_word(recoding: Recoding, word) -> tuple[int, ...]:
    """Translate a base word of length >= k into its block-symbol word."""
    w = tuple(word)
    k = recoding.block_length
    if len(w) < k:
        raise ValidationError(f"word shorter than block length {k}")
    try:
        return tuple(recoding.to_block[w[t:t + k]] for t in range(len(w) - k + 1))
    except KeyError as e:
        raise ValidationError(f"word contains inadmissible block {e.args[0]}") from None
