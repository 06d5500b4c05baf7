"""1-block factor maps: fiber decompositions, block operators, projected
cylinder measures (two independent routes), and the fiber-wise mixing test.

A 1-block factor map sends each domain symbol to an image symbol; its image
is a sofic shift.  On the block recoding the map acts letterwise, grouping
domain block symbols into fibers over image block words.  For an image
transition b -> b' the block operator is the sub-matrix of the transfer
matrix with rows in fiber(b) and columns in fiber(b') (source-row
orientation, matching the transfer matrix).  Projected cylinder masses are

    proj[b_0 ... b_n] = lambda^{-n} * nu_{b_0}^T  L_{b_0 b_1} ... L_{b_{n-1} b_n}  h_{b_n}

with nu_b, h_b the fiber restrictions of the Perron vectors.  The brute-force
route sums the Gibbs masses of all admissible preimage words and serves as
the independent oracle for the product formula; it reads only the transfer
matrix, the Perron data and the symbol map, never the fiber blocks.

Both routes also come one whole word length at a time: :func:`level_measures`
sweeps the product formula over every image word of a length, and
:func:`preimage_measures` groups one domain-word expansion of that length by
image word.  :func:`verify_projection` compares the two level by level under
the one comparison rule :func:`route_error`; the single-word oracle
:func:`projected_measure_bruteforce` is the same grouped finish under one
word's fiber mask.

Image-word admissibility always goes through boolean block products (never a
plain block adjacency): the image is sofic, so a word is admissible iff some
lift exists, i.e. iff the product is nonzero.  Boolean products carry a
boolean start through the float blocks, cast back to bool at every step:
exact, since every weight is a positive finite float.

Every product of blocks along image words is carried one way.  The walker
:func:`walk_image_words` is the single traversal of the image language.  It
is level-synchronous: the frontier of one word length is a stack of rows
(the word as a row of an int matrix, its first and last image block, its
product zero-padded on every axis to the widest fiber F, and its log scale).
A level grows by the step of every level-by-level word expansion here
(:func:`~gibbsfactor.potential.domain_rows`, :func:`~gibbsfactor.sft.word_matrix`),
``parent, blocks = np.nonzero(follows[rows.blocks])``, then one batched
matmul with the blocks gathered from one stack; ``np.nonzero`` is row-major
and targets ascend, so rows stay lexicographic without sorting.  A level that
would exceed ``SWEEP_ROW_CAP`` rows is expanded in contiguous lexicographic
chunks, depth first, so a sweep holds at most one capped chunk per word
length, however large its budget (which counts visited nodes).  The walker
yields the full-length chunks, and each sweep folds them in a plain loop.
Single image words go through :func:`carry_product`, the one loop for the
product along one word.
Exact blocks are slices of the integer matrix M = D W of the transfer
matrix, numpy ``object`` arrays of int, so exact and float products share
the same ``@`` code and exact products carry Python integers from the
integer Perron vector nu~ to h~.  :func:`rescale_product` and
:func:`~gibbsfactor.potential.finish_measure` (in the potential module) are
the only places where the two arithmetics differ (float products are
renormalised by their largest entry and finished in log space, exact ones
are kept whole and turned into a Fraction by one division per measure), and
:func:`rescale_product` serves single products and stacked rows alike.
Which of the two block tables a product reads is decided in one place,
:meth:`FactorSystem.operators`, from the caller's mode (the Perron data's
for measures).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import EnumerationLimitError, ExactModeError, ValidationError
from .potential import PerronData, TransferMatrix, domain_rows, finish_measure
from .sft import DEFAULT_MAX_WORDS, Alphabet, Word


@dataclass(frozen=True, eq=False)
class FactorSystem:
    """A factor map bundled with its fiber decomposition and block operators.

    fibers[b] lists the domain block symbols over image block word b; blocks
    holds the nonzero operators keyed by image block transitions.  For
    depth >= 2 potentials everything lives on the block recoding and image
    block words are sliding windows of image symbol words.
    """

    tm: TransferMatrix
    image_alphabet: Alphabet
    symbol_map: tuple[int, ...]              # domain symbol -> image symbol
    image_block_words: tuple[Word, ...]      # realized image k-words, lexicographic
    image_block_index: dict                  # image k-word -> index
    block_symbol_map: tuple[int, ...]        # domain block -> image block
    fibers: tuple[tuple[int, ...], ...]      # per image block, domain block indices
    blocks: dict                             # (b, b') -> float ndarray
    exact_blocks: dict | None                # (b, b') -> int object ndarray, slice of M = D W

    @property
    def block_length(self) -> int:
        return self.tm.recoding.block_length

    @property
    def fiber_sizes(self) -> np.ndarray:
        return np.array([len(f) for f in self.fibers])

    def fiber_h(self, pd: PerronData, b: int) -> np.ndarray:
        """h on fiber b in the Perron data's arithmetic (:attr:`PerronData.vectors`)."""
        return pd.vectors[1][list(self.fibers[b])]

    def fiber_nu(self, pd: PerronData, b: int) -> np.ndarray:
        """nu on fiber b in the Perron data's arithmetic (:attr:`PerronData.vectors`)."""
        return pd.vectors[0][list(self.fibers[b])]

    def operators(self, exact: bool) -> dict:
        """The block table of one arithmetic: the integer blocks of M = D W
        in exact mode, the float blocks otherwise."""
        if not exact:
            return self.blocks
        if self.exact_blocks is None:
            raise ExactModeError("exact blocks need a potential with rational weights")
        return self.exact_blocks


def build_factor(tm: TransferMatrix, symbol_map, image_alphabet: Alphabet) -> FactorSystem:
    """Group the transfer matrix into fiber blocks under a 1-block map.

    `symbol_map` gives the image symbol index of every domain symbol.
    Raises on unmapped domain symbols and on image symbols with empty fiber.
    """
    sft = tm.sft
    d = sft.size
    smap = list(symbol_map)
    if len(smap) != d:
        raise ValidationError(f"symbol map covers {len(smap)} of {d} domain symbols")
    for i, b in enumerate(smap):
        if not 0 <= b < image_alphabet.size:
            raise ValidationError(
                f"symbol {sft.alphabet.name(i)!r} maps to out-of-range image index {b}"
            )
    for b in range(image_alphabet.size):
        if b not in smap:
            raise ValidationError(
                f"empty fiber: image symbol {image_alphabet.name(b)!r} has no preimage"
            )
    rec = tm.recoding
    image_words = sorted({tuple(smap[s] for s in bw) for bw in rec.block_words})
    index = {w: i for i, w in enumerate(image_words)}
    bsm = tuple(index[tuple(smap[s] for s in bw)] for bw in rec.block_words)
    fibers: list[list[int]] = [[] for _ in image_words]
    for dom, img in enumerate(bsm):
        fibers[img].append(dom)
    rows, cols = np.nonzero(rec.block_sft.adjacency)
    keys = dict.fromkeys((bsm[i], bsm[j]) for i, j in zip(rows.tolist(), cols.tolist()))

    def sliced(matrix) -> dict:
        out = {(a, b): matrix[np.ix_(fibers[a], fibers[b])] for a, b in keys}
        for m in out.values():
            m.setflags(write=False)
        return out

    blocks = sliced(tm.weights)
    exact_blocks = None if tm.int_weights is None else sliced(tm.int_weights)
    return FactorSystem(
        tm=tm,
        image_alphabet=image_alphabet,
        symbol_map=tuple(smap),
        image_block_words=tuple(image_words),
        image_block_index=index,
        block_symbol_map=bsm,
        fibers=tuple(tuple(f) for f in fibers),
        blocks=blocks,
        exact_blocks=exact_blocks,
    )


def image_block_word(fs: FactorSystem, yword: Word) -> list[int] | None:
    """Sliding-window translation of an image symbol word to image block
    indices; None when some window is not a realized image block."""
    k = fs.block_length
    out = []
    for t in range(len(yword) - k + 1):
        idx = fs.image_block_index.get(tuple(yword[t:t + k]))
        if idx is None:
            return None
        out.append(idx)
    return out


def _check_image_word(fs: FactorSystem, yword) -> Word:
    w = tuple(yword)
    for s in w:
        if not 0 <= s < fs.image_alphabet.size:
            raise ValidationError(f"image symbol index {s} out of bounds")
    return w


def image_admissible(fs: FactorSystem, yword) -> bool:
    """True iff the image word has an admissible lift (nonzero boolean
    block product); the image language is sofic, so this is the criterion."""
    w = _check_image_word(fs, yword)
    k = fs.block_length
    if len(w) < k:
        return any(bw[:len(w)] == w for bw in fs.image_block_words)
    blocks = image_block_word(fs, w)
    return blocks is not None and carry_product(
        fs.blocks, blocks, np.ones(len(fs.fibers[blocks[0]]), dtype=bool)) is not None


def rescale_product(x: np.ndarray, scale):
    """One step of the products carried along image words.

    `x` holds one product per entry of `scale`, its log scale: a single
    product with a scalar scale, or a stack of products along the leading
    axes with an array of scales.  A float product is divided by its largest
    entry, whose log is added to its scale; boolean and exact (int object)
    products are kept whole.  Returns (products, scales, alive),
    alive flagging the nonzero products; a zero product comes back unchanged
    and is the caller's to drop.
    """
    axes = tuple(range(np.ndim(scale), x.ndim))
    if x.dtype != float:
        return x, scale, (x != 0).any(axis=axes)
    top = x.max(axis=axes)
    alive = top > 0
    top = top + ~alive  # 1 for a zero product, which stays as it is
    return x / np.reshape(top, np.shape(top) + (1,) * len(axes)), scale + np.log(top), alive


def carry_product(mats: dict, blocks, x=None):
    """Carry a product of block operators along the image block word
    `blocks`: x . mats[(b_0, b_1)] ... mats[(b_{n-1}, b_n)], starting from
    the first operator when x is None, with every step through
    :func:`rescale_product`.  Returns (product, log scale), or None when a
    transition has no block or the product vanished; with fewer than two
    blocks (x, 0.0) comes back.  Every step is cast back to the dtype of x,
    so a boolean start keeps boolean products."""
    scale = 0.0
    for a, b in zip(blocks, blocks[1:]):
        m = mats.get((a, b))
        if m is None:
            return None
        x = m if x is None else (x @ m).astype(x.dtype, copy=False)
        x, scale, alive = rescale_product(x, scale)
        if not alive:
            return None
    return x, scale


def block_product(fs: FactorSystem, yword, exact: bool):
    """Product of block operators along an admissible image word of length
    >= 2 (in block coordinates), in the caller's arithmetic.

    Float mode (exact False) returns (matrix, log_scale) with the product
    renormalized by its maximum entry at every step; exact mode returns the
    raw Fraction matrix (log_scale 0), the integer product of M = D W divided
    once by D^steps, and needs rational weights.
    """
    w = _check_image_word(fs, yword)
    k = fs.block_length
    if len(w) < k + 1:
        raise ValidationError("block products need at least two block symbols")
    blocks = image_block_word(fs, w)
    carried = None if blocks is None else carry_product(fs.operators(exact), blocks)
    if carried is None:
        raise ValidationError("image word is not admissible")
    prod, scale = carried
    if exact:
        prod = prod * Fraction(1, fs.tm.denominator ** (len(blocks) - 1))
    return prod, float(scale)


def projected_measure(fs: FactorSystem, pd: PerronData, yword):
    """Projected cylinder mass via the block-operator product formula.

    Float mode returns the natural log (-inf for measure zero); exact mode
    returns the Fraction, the integer nu~ . (product of M) . h~ finished by
    one division.  Image words shorter than the block length are summed over
    their realized block extensions.
    """
    w = _check_image_word(fs, yword)
    if len(w) == 0:
        raise ValidationError("projected measure needs a nonempty image word")
    k = fs.block_length
    if len(w) < k:
        matching = [b for b, bw in enumerate(fs.image_block_words) if bw[:len(w)] == w]
        total = sum(fs.fiber_nu(pd, b) @ fs.fiber_h(pd, b) for b in matching)
        return finish_measure(total, 0.0, 0, pd)
    blocks = image_block_word(fs, w)
    carried = None if blocks is None else carry_product(fs.operators(pd.exact), blocks,
                                                        fs.fiber_nu(pd, blocks[0]))
    if carried is None:
        return finish_measure(0, 0.0, 0, pd)
    vec, scale = carried
    return finish_measure(vec @ fs.fiber_h(pd, blocks[-1]), scale, len(blocks) - 1, pd)


def projected_measure_bruteforce(fs: FactorSystem, pd: PerronData, yword,
                                 max_words: int = DEFAULT_MAX_WORDS):
    """Projected cylinder mass as a plain sum of Gibbs cylinder masses over
    every admissible preimage word; the independent oracle for
    :func:`projected_measure`.

    The grouped finish of :func:`preimage_measures` under the mask of the
    word's fibers: one group, or none for measure zero.  The budget counts
    visited preimage prefixes.
    """
    w = _check_image_word(fs, yword)
    if len(w) == 0:
        raise ValidationError("projected measure needs a nonempty image word")
    allowed = np.array(fs.symbol_map) == np.array(w)[:, None]
    _, measures = preimage_measures(fs, pd, allowed, max_words)
    return measures[0] if measures else finish_measure(0, 0.0, 0, pd)


def _run_starts(rows: np.ndarray) -> np.ndarray:
    """Indices of the first row of every run of equal rows in a stack of
    sorted rows (for ``reduceat``)."""
    new = np.ones(len(rows), dtype=bool)
    new[1:] = (rows[1:] != rows[:-1]).any(axis=1)
    return np.flatnonzero(new)


def log_sum_runs(logs: np.ndarray, starts: np.ndarray):
    """Log-sum-exp of every run of a stack of float logs, the runs beginning
    at `starts` (for ``reduceat``): (totals, scales), run i summing to
    totals[i] e^scales[i], with scales[i] the run's largest log."""
    scales = np.maximum.reduceat(logs, starts)
    sizes = np.diff(np.append(starts, len(logs)))
    return np.add.reduceat(np.exp(logs - np.repeat(scales, sizes)), starts), scales


def preimage_measures(fs: FactorSystem, pd: PerronData, allowed: np.ndarray,
                      max_words: int):
    """Brute-force projected measures of the image words of length
    len(allowed) with a preimage under the (n, d) symbol mask: (words,
    measures), the words as int rows, lexicographic, and a list.

    One :func:`~gibbsfactor.potential.domain_rows` expansion in the Perron
    data's arithmetic, grouped by image word (symbol map, lexicographic
    sort, ``reduceat`` of an integer sum in exact mode or
    :func:`log_sum_runs`), each group through
    :func:`~gibbsfactor.potential.finish_measure`.  The budget counts
    visited preimage prefixes.
    """
    words, values, steps = domain_rows(pd, allowed, max_words, pd.exact)
    images = np.asarray(fs.symbol_map, dtype=np.intp)[words]
    order = np.lexsort(images.T[::-1])
    images, values = images[order], values[order]
    starts = _run_starts(images)
    if pd.exact:
        totals, scales = np.add.reduceat(values, starts), np.zeros(len(starts))
    else:
        totals, scales = log_sum_runs(values, starts)
    return images[starts], [finish_measure(t, s, steps, pd)
                            for t, s in zip(totals.tolist(), scales.tolist())]


def route_error(got, oracle, exact: bool) -> float:
    """Relative disagreement of the product formula and the brute-force
    oracle: |exp(got - oracle) - 1| for float log measures, otherwise 0.0
    when the two are equal (exact measures, or both float measures zero)
    and inf when they differ."""
    if exact or got == -math.inf or oracle == -math.inf:
        return 0.0 if got == oracle else math.inf
    return abs(math.expm1(got - oracle))


@dataclass(frozen=True)
class ProjectionCheck:
    """Result of :func:`verify_projection`: words compared, the largest
    :func:`route_error`, and the failing words in length-lexicographic order."""

    checked_words: int
    max_relative_error: float
    failures: tuple[Word, ...]

    @property
    def passed(self) -> bool:
        return not self.failures


def verify_projection(fs: FactorSystem, pd: PerronData, max_len: int, tol: float,
                      max_words: int = DEFAULT_MAX_WORDS) -> ProjectionCheck:
    """The two-route check on every admissible image word of length
    1..max_len, a whole length at a time: :func:`level_measures` against the
    unmasked :func:`preimage_measures`, in the Perron data's arithmetic.

    A word fails when its :func:`route_error` exceeds `tol` (in exact mode:
    unless equal); a word only one route produces is compared with measure
    zero.  The budget caps each length's sweep and expansion separately.
    """
    zero = finish_measure(0, 0.0, 0, pd)
    checked, worst, failures = 0, 0.0, []
    for n in range(1, max_len + 1):
        words, values = level_measures(fs, pd, n, max_words, pd.exact)
        product = dict(zip(map(tuple, words.tolist()), values.tolist()))
        allowed = np.ones((n, fs.tm.sft.size), dtype=bool)
        images, measures = preimage_measures(fs, pd, allowed, max_words)
        oracle = dict(zip(map(tuple, images.tolist()), measures))
        for word in sorted(product.keys() | oracle.keys()):
            err = route_error(product.get(word, zero), oracle.get(word, zero), pd.exact)
            worst = max(worst, err)
            if err > tol:
                failures.append(word)
            checked += 1
    return ProjectionCheck(checked_words=checked, max_relative_error=worst,
                           failures=tuple(failures))


SWEEP_ROW_CAP = 4096
"""Most rows a sweep creates in one expansion step (or the children of one
parent, if more); a larger level is expanded in contiguous lexicographic
chunks, depth first."""


@dataclass(frozen=True)
class SweepRows:
    """A stack of image words of one length, lexicographic, with the block
    products carried along them.

    words[i] holds the image symbols of word i, roots[i] and blocks[i] its
    first and last image block, products[i] its product zero-padded on every
    axis to the widest fiber, and scales[i] its log scale (0 unless float
    products were renormalised).
    """

    words: np.ndarray
    roots: np.ndarray
    blocks: np.ndarray
    products: np.ndarray
    scales: np.ndarray

    def __len__(self) -> int:
        return len(self.blocks)

    def take(self, index) -> SweepRows:
        return SweepRows(self.words[index], self.roots[index], self.blocks[index],
                         self.products[index], self.scales[index])


def fiber_mask(fs: FactorSystem, blocks: np.ndarray) -> np.ndarray:
    """(len(blocks), F) mask of the entries inside each block's fiber; the
    rest of a sweep row's axis is zero padding."""
    sizes = fs.fiber_sizes
    return np.arange(sizes.max()) < sizes[blocks][:, None]


def padded(fs: FactorSystem, x) -> np.ndarray:
    """x zero-padded on every axis to the widest fiber (the sweep layout)."""
    x = np.asarray(x)
    out = np.zeros((fs.fiber_sizes.max(),) * x.ndim, dtype=x.dtype)
    out[tuple(slice(0, n) for n in x.shape)] = x
    return out


def walk_image_words(fs: FactorSystem, mats: dict, n_steps: int, start, max_words: int):
    """Level-synchronous walk over the admissible image words of n_steps + 1
    block symbols, carrying a product of blocks; yields the full-length words
    as :class:`SweepRows`, chunk by chunk in lexicographic order.

    Each root image block b starts from the array start(b), and every level
    is cast back to its dtype, so a boolean start walks boolean products
    through the float blocks.  The blocks of `mats` (float or exact) are
    stacked once, and all are zero-padded on every axis to the widest fiber
    F.  A level grows by
    ``parent, blocks = np.nonzero(follows[rows.blocks])`` and one batched
    matmul of each parent's product with its gathered block, which keeps the
    rows lexicographic.  Every new row goes through :func:`rescale_product`,
    and rows whose product vanished are pruned.  A level that would exceed
    SWEEP_ROW_CAP rows is expanded in contiguous lexicographic chunks, depth
    first.  The budget counts nodes visited, i.e. every prefix and not only
    finished words; exceeding it raises EnumerationLimitError.
    """
    sizes = fs.fiber_sizes
    n_blocks, width = len(sizes), int(sizes.max())
    stack = np.zeros((len(mats), width, width), dtype=next(iter(mats.values())).dtype)
    follows = np.zeros((n_blocks, n_blocks), dtype=bool)
    index = np.zeros((n_blocks, n_blocks), dtype=np.intp)
    for i, (a, b) in enumerate(sorted(mats)):
        stack[i, :sizes[a], :sizes[b]] = mats[(a, b)]
        follows[a, b], index[a, b] = True, i
    degree = follows.sum(axis=1)
    symbols = np.array([w[-1] for w in fs.image_block_words])

    roots = np.arange(n_blocks)
    x, scales, alive = rescale_product(np.stack([padded(fs, start(b)) for b in roots]),
                                       np.zeros(n_blocks))
    shape, dtype = x.shape[1:], x.dtype
    rows = SweepRows(np.array(fs.image_block_words, dtype=np.intp), roots, roots,
                     x, scales).take(alive)
    visited = 0
    # depth-first stack of (frontier, steps left, next parent, child-count prefix sums)
    frontiers = [(rows, n_steps, 0, np.cumsum(degree[rows.blocks]))]
    while frontiers:
        rows, remaining, pos, ends = frontiers.pop()
        if pos == 0:  # a frontier is counted when it is first reached
            visited += len(rows)
            if visited > max_words:
                raise EnumerationLimitError(
                    f"image word sweep exceeded its budget of {max_words} visited nodes")
        if remaining == 0:
            yield rows
            continue
        if pos == len(rows):
            continue
        done = ends[pos - 1] if pos else 0
        stop = max(pos + 1, int(np.searchsorted(ends, done + SWEEP_ROW_CAP, side="right")))
        frontiers.append((rows, remaining, stop, ends))
        chunk = rows.take(slice(pos, stop))
        parent, blocks = np.nonzero(follows[chunk.blocks])
        x = chunk.products[parent]
        # a row's product, vector or matrix, viewed as (-1, F) times its block
        x = x.reshape(len(x), -1, width) @ stack[index[chunk.blocks[parent], blocks]]
        x, scales, alive = rescale_product(x.reshape((-1,) + shape).astype(dtype, copy=False),
                                           chunk.scales[parent])
        children = SweepRows(np.column_stack([chunk.words[parent], symbols[blocks]]),
                             chunk.roots[parent], blocks, x, scales)
        if not alive.all():
            children = children.take(alive)
        if len(children):
            frontiers.append((children, remaining - 1, 0, np.cumsum(degree[children.blocks])))


def enumerate_image_words(fs: FactorSystem, n: int,
                          max_words: int = DEFAULT_MAX_WORDS) -> list[Word]:
    """All admissible image words of length n, lexicographic.  Enumeration
    runs over image blocks carrying the reachable domain-block set, so only
    sofic-admissible words appear and dead branches are pruned early.  The
    budget counts nodes visited (every prefix, not only finished words)."""
    if n < 0:
        raise ValidationError("length must be >= 0")
    if n == 0:
        return [()]
    k = fs.block_length
    if n < k:
        return sorted({bw[:n] for bw in fs.image_block_words})
    walk = walk_image_words(fs, fs.blocks, n - k,
                            lambda b: np.ones(len(fs.fibers[b]), dtype=bool), max_words)
    return [tuple(word) for rows in walk for word in rows.words.tolist()]


def level_measures(fs: FactorSystem, pd: PerronData, n: int, max_words: int,
                   exact: bool):
    """Projected measures of every admissible image word of length n >= 1,
    the batched :func:`projected_measure`: (words, values), the words as int
    rows, lexicographic, and an array of Fractions when `exact` (which needs
    exact Perron data), else of float logs.

    One :func:`walk_image_words` sweep through the blocks of that arithmetic
    (:meth:`FactorSystem.operators`), from nu on the first fiber, finished
    by h on the last and lambda^-steps (in exact mode from the integer nu~
    to h~, each total through :func:`finish_measure`); words shorter than
    the block length sum nu . h over the image blocks they begin.  The
    budget counts the sweep's visited nodes.
    """
    if n < 1:
        raise ValidationError("length must be >= 1")
    k = fs.block_length
    nu, h = ((pd.int_nu, pd.int_h) if exact
             else (np.asarray(v, dtype=float) for v in (pd.nu, pd.h)))
    fibers = [list(f) for f in fs.fibers]

    def finish(totals, scales, steps):
        if exact:
            return np.array([finish_measure(t, 0.0, steps, pd) for t in totals.tolist()],
                            dtype=object)
        return np.log(totals) + scales - steps * pd.log_lam

    if n < k:
        prefixes = np.array(fs.image_block_words, dtype=np.intp)[:, :n]
        starts = _run_starts(prefixes)
        totals = np.array([nu[f] @ h[f] for f in fibers], dtype=h.dtype)
        totals = np.add.reduceat(totals, starts)
        return prefixes[starts], finish(totals, 0.0, 0)
    steps = n - k
    h_rows = np.stack([padded(fs, h[f]) for f in fibers])
    words = [np.zeros((0, n), dtype=np.intp)]
    values = [np.zeros(0, dtype=h.dtype)]
    for rows in walk_image_words(fs, fs.operators(exact), steps, lambda b: nu[fibers[b]],
                                 max_words):
        words.append(rows.words)
        totals = np.einsum("ij,ij->i", rows.products, h_rows[rows.blocks])
        values.append(finish(totals, rows.scales, steps))
    return np.concatenate(words), np.concatenate(values)


@dataclass(frozen=True)
class FwmReport:
    """Result of the fiber-wise mixing test at a single N (in block
    coordinates when the system was recoded)."""

    n: int
    holds: bool
    witnesses: tuple
    words_checked: int
    recoded: bool


def fwm_check(fs: FactorSystem, n: int, max_words: int = DEFAULT_MAX_WORDS,
              witness_cap: int = 100) -> FwmReport:
    """Test fiber-wise mixing at span N.

    For every admissible image word of N+1 block symbols the boolean block
    product (rows fiber of the first block, columns fiber of the last) must
    be all-positive: every prescribed pair of end symbols lifts.  Witnesses
    list failing (image word, first symbol, last symbol) triples, capped.
    The budget counts nodes visited (every prefix, not only finished words).
    """
    if n < 1:
        raise ValidationError("fiber-wise mixing span must be >= 1")
    k = fs.block_length
    witnesses: list = []
    checked = 0
    holds = True
    for rows in walk_image_words(fs, fs.blocks, n,
                                 lambda b: np.eye(len(fs.fibers[b]), dtype=bool), max_words):
        checked += len(rows)
        gaps = (fiber_mask(fs, rows.roots)[:, :, None] & fiber_mask(fs, rows.blocks)[:, None, :]
                & ~rows.products)
        failing = np.flatnonzero(gaps.any(axis=(1, 2)))
        holds = holds and not failing.size
        for r in failing:
            if len(witnesses) >= witness_cap:
                break
            word = tuple(rows.words[r].tolist())
            first, last = fs.fibers[rows.roots[r]], fs.fibers[rows.blocks[r]]
            for i, j in zip(*np.nonzero(gaps[r])):
                if len(witnesses) >= witness_cap:
                    break
                witnesses.append((word, first[int(i)], last[int(j)]))
    return FwmReport(n=n, holds=holds, witnesses=tuple(witnesses),
                     words_checked=checked, recoded=k > 1)


@dataclass(frozen=True)
class FwmSearchResult:
    found: int | None            # smallest passing N, or None
    reports: tuple[FwmReport, ...]


def fwm_search(fs: FactorSystem, max_n: int,
               max_words: int = DEFAULT_MAX_WORDS) -> FwmSearchResult:
    """Try N = 1..max_n independently (no monotonicity assumed) and return
    the first N at which fiber-wise mixing holds, with all per-N reports."""
    if max_n < 1:
        raise ValidationError("max_n must be >= 1")
    reports = []
    for n in range(1, max_n + 1):
        rep = fwm_check(fs, n, max_words)
        reports.append(rep)
        if rep.holds:
            return FwmSearchResult(found=n, reports=tuple(reports))
    return FwmSearchResult(found=None, reports=tuple(reports))
