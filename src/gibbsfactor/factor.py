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
:func:`preimage_measures` groups the domain words of that length
(:func:`~gibbsfactor.potential.domain_rows`) by image word, one stable
sort of integer keys (:func:`sorted_runs`).
:func:`verify_projection` compares the two level by level under the one
comparison rule :func:`route_error`.  The single-word oracle
:func:`projected_measure_bruteforce` runs the same level loop,
:func:`~gibbsfactor.potential.domain_path`, from the blocks over the word's
head with one table of moves per later image symbol; every row it keeps is
a preimage of that word, so it sums the row values directly and never
builds the words.

The product of a word is the product of its prefix times one more block,
and the preimages of a word are those of its prefix grown by one level, so
a per-word call costs only the steps past the longest prefix it shares with
the previous call of its route on the same factor system and Perron data.
The system keeps one path per route (:class:`LastPaths`): the word and the
state after every level, at most one fiber vector per block for the product
route and the preimage rows one fresh call visits for the oracle.  A call
replays the same steps a fresh call takes, so its results are bit-identical
to a fresh call's, and the oracle's budget raises where a fresh call raises.
Past those steps a call pays little else: it compares and range-checks
symbols only past the shared prefix, the product route translates only the
new windows into image blocks and reads nu_b and h_b from fiber vectors
read once per path, and the oracle finishes its one run of row values
directly instead of grouping it by image word as :func:`preimage_measures`
does.

Image-word admissibility always goes through boolean block products (never a
plain block adjacency): the image is sofic, so a word is admissible iff some
lift exists, i.e. iff the product is nonzero.  Boolean products carry a
boolean start through the blocks' 0/1 support (every weight is positive),
so they never touch the weights' magnitudes.

Every product of blocks along image words is carried one way.  The walker
:func:`walk_image_words` is the single traversal of the image language.  It
is level-synchronous: the frontier of one word length is a stack of rows
(the word as a row of an int matrix, its first and last image block, its
product zero-padded on every axis to the widest fiber F, a boolean one as
packed bits, and its log scale).  :func:`build_factor` keeps the tables of
the padded layout on the :class:`FactorSystem`: the transition table
``follows`` with each transition's place in the stack, and a fiber index
and mask through which a walk's start is one gather.  The blocks are cut on
first use, each arithmetic's table on its first walk
(:meth:`FactorSystem.stack`: a zero-padded stack, one gather of W or M
through the fiber index, or the byte table of the packed 0/1 support
rows), and the per-word tables on the first per-word call.  A level grows
by the step of every level-by-level word expansion here
(:func:`~gibbsfactor.potential.domain_path`,
:func:`~gibbsfactor.sft.word_matrix`),
``parent, blocks = np.nonzero(follows[rows.blocks])``, then one batched
matmul with the blocks gathered from the stack (W gathers from the byte
table for packed rows); ``np.nonzero`` is row-major and targets ascend, so
rows stay lexicographic without sorting.  A measure walk ends in a dot
product: :func:`level_measures` folds h into the last block, so the last
step of a word takes F multiply-adds, not F^2.  Per-word reductions run
along the stack axis, not over each product's own F or F^2 entries:
:func:`reduce_products` takes the alive test and a vector product's
largest entry in :func:`rescale_product`, :func:`fwm_check` counts the
bits set in each packed matrix product, and
:func:`~gibbsfactor.cone.stacked_diameters` copies its stack into a
transposed layout.  Parents and blocks are gathered with ``ndarray.take``.
Only exact operations are reordered (max, min, or/and, counts and
gathers), so the bits of a carried product do not change; the one
exception is the last level of a float measure walk, whose folded sums run
in another order than a vector-matrix product followed by a dot with h, so
its logs may move in the last bits.  A level that would exceed
``SWEEP_ROW_CAP`` rows is expanded in contiguous lexicographic chunks,
depth first, so a sweep holds at most one capped chunk per word length,
however large its budget (which counts visited nodes).  The walker yields
the full-length chunks, and each sweep folds them in a plain loop.  A walk
may start from a frontier, one whole level of an earlier walk with that
walk's visited count, and it returns its own count, so :func:`fwm_search`
extends one walk from span to span while a span's full-length rows come in
one chunk.
Single image words go through :func:`carry_path`, the one loop for the
product along one word, which extends a path of products
(:func:`carry_product` is the last state of a fresh path).
Exact blocks are slices of the integer matrix M = D W of the transfer
matrix, numpy ``object`` arrays of int, so exact and float products share
the same ``@`` code and exact products carry Python integers from the
integer Perron vector nu~ to h~.  Within a product the two arithmetics
differ only in the renormalisation rule (float products are divided by
their largest entry, exact ones are kept whole), and a measure is finished
by :func:`~gibbsfactor.potential.finish_measure` (in the potential module:
log space for float, one division into a Fraction for exact).  The
routines that choose a product's inputs or combine its results still
branch on the arithmetic: :func:`level_measures` and :func:`block_product`
(the Perron vectors and the final division), :func:`preimage_measures`
(integer sums or log-sum-exp), :func:`route_error` (equality or relative
error), :func:`~gibbsfactor.potential.domain_path` (integer products or log
sums) and :func:`~gibbsfactor.ganalysis.g_limit` (Fraction or float stage
ratios).  The rule has two forms with the same bits: :func:`rescale_single`,
a scalar step for one product (:func:`carry_path` and the squaring in
:func:`~gibbsfactor.ganalysis.g_limit`), and :func:`rescale_product` for the
walker's stacked rows.
Which of the two block tables a product reads is decided from the
caller's mode (the Perron data's for measures) by
:meth:`FactorSystem.operators`; a walk's table, :meth:`FactorSystem.stack`,
from the dtype of its rows (uint8 for packed boolean rows).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, reduce

import numpy as np

from .errors import ExactModeError, ValidationError
from .potential import (
    PerronData,
    TransferMatrix,
    count_visited,
    domain_end,
    domain_path,
    domain_rows,
    finish_measure,
)
from .sft import DEFAULT_MAX_WORDS, Alphabet, Word


@dataclass(frozen=True, eq=False)
class FactorSystem:
    """A factor map bundled with its fiber decomposition and block operators.

    fibers[b] lists the domain block symbols over image block word b.  For
    depth >= 2 potentials everything lives on the block recoding and image
    block words are sliding windows of image symbol words.  Every array is
    read-only and built once by :func:`build_factor`; the walks pad each
    fiber to the widest one, F: `fiber_index` and `fiber_mask` hold the
    (blocks, F) domain indices of each fiber (0 in the padding) and the mask
    of its entries.  The transitions b -> b' are the entries of `follows`,
    listed in sorted order in `pairs`; `index` holds each one's row in
    `pairs` and `degree` counts those leaving each block.  The blocks
    themselves are cut from the transfer matrix on first use: the tables of
    a walk by :meth:`stack`, the per-word tables by :attr:`blocks` and
    :attr:`exact_blocks`.
    """

    tm: TransferMatrix
    image_alphabet: Alphabet
    symbol_map: np.ndarray                   # domain symbol -> image symbol
    words: np.ndarray                        # (blocks, k) image block words, lexicographic
    last_symbols: np.ndarray                 # each image block word's last symbol
    image_block_index: dict                  # image k-word -> index
    fibers: tuple[tuple[int, ...], ...]      # per image block, domain block indices
    fiber_sizes: np.ndarray
    fiber_index: np.ndarray
    fiber_mask: np.ndarray
    follows: np.ndarray
    pairs: np.ndarray
    index: np.ndarray
    degree: np.ndarray

    @property
    def block_length(self) -> int:
        return self.tm.recoding.block_length

    @cached_property
    def image_moves(self) -> tuple[np.ndarray, ...]:
        """One read-only (blocks, blocks) boolean table per image symbol y:
        entry [i, j] holds when block j may follow block i and its last
        symbol maps to y, the moves of a preimage under y."""
        images = self.symbol_map[self.tm.last_symbols]
        moves = self.tm.follows & (images == np.arange(self.image_alphabet.size)[:, None, None])
        moves.setflags(write=False)
        return tuple(moves)

    @cached_property
    def blocks(self) -> dict:
        """The float blocks of the per-word routes, (b, b') -> the slice of
        W with rows in fiber(b) and columns in fiber(b')."""
        return self._sliced(self._weights(False))

    @cached_property
    def exact_blocks(self) -> dict:
        """The exact blocks of the per-word routes, slices of the integer
        matrix M = D W (``object`` arrays of int)."""
        return self._sliced(self._weights(True))

    def _weights(self, exact: bool) -> np.ndarray:
        if not exact:
            return self.tm.weights
        if self.tm.int_weights is None:
            raise ExactModeError("exact blocks need a potential with rational weights")
        return self.tm.int_weights

    def _sliced(self, matrix: np.ndarray) -> dict:
        fibers = [np.array(f, dtype=np.intp) for f in self.fibers]
        out = {}
        for a, b in self.pairs.tolist():
            out[a, b] = m = matrix[fibers[a][:, None], fibers[b]]
            m.setflags(write=False)
        return out

    @cached_property
    def _stacks(self) -> dict:
        return {}

    def stack(self, dtype) -> np.ndarray:
        """The per-transition table a walk carrying rows of `dtype` steps
        through, built on its first use.  Float and ``object`` rows multiply
        the (pairs, F, F) zero-padded stack of blocks, one gather of W or of
        M = D W through the fiber index.  ``uint8`` rows are boolean products
        packed into W bytes (:class:`SweepRows`); they step through the
        (pairs, W, 256, W) table whose entry [p, w, v] ORs the packed rows
        8w + b of transition p's 0/1 support (``tm.follows``: every weight
        is positive) over the bits b set in v, filled in 8 doubling steps:
        W^2 * 256 bytes per transition, for F >= 4 at most the 16 F^2 bytes
        of a float F x F block and its 0/1 float copy."""
        kind = np.dtype(dtype).kind
        if kind not in self._stacks:
            a, b = self.pairs.T
            rows, cols = self.fiber_index[a][:, :, None], self.fiber_index[b][:, None, :]
            mask = self.fiber_mask[a][:, :, None] & self.fiber_mask[b][:, None, :]
            if kind == "u":
                nbytes = -(-mask.shape[1] // 8)
                support = np.zeros((len(a), 8 * nbytes, nbytes), dtype=np.uint8)  # row 8w + b
                support[:, :mask.shape[1]] = np.packbits(self.tm.follows[rows, cols] & mask,
                                                         axis=-1, bitorder="little")
                stack = np.zeros((len(a), nbytes, 256, nbytes), dtype=np.uint8)
                for i in range(8):  # the bytes whose top bit is i: a byte below 2^i OR row i
                    stack[:, :, 1 << i:2 << i] = stack[:, :, :1 << i] | support[:, i::8, None]
            else:
                stack = self._weights(kind == "O")[rows, cols]
                stack[~mask] = 0
            stack.setflags(write=False)
            self._stacks[kind] = stack
        return self._stacks[kind]

    def gather(self, v: np.ndarray) -> np.ndarray:
        """The domain vector v restricted to every fiber: a (blocks, F)
        start, one gather through `fiber_index`, zero in the padding."""
        return np.where(self.fiber_mask, v[self.fiber_index], 0)

    def eye(self, dtype) -> np.ndarray:
        """The identity on every fiber: a (blocks, F, F) start, zero in the
        padding."""
        return np.eye(self.fiber_mask.shape[1], dtype=dtype) * self.fiber_mask[:, :, None]

    @cached_property
    def last_paths(self) -> LastPaths:
        """The last path of each per-word route (:class:`LastPaths`), which
        the next call on this system resumes from."""
        return LastPaths()

    def fiber_h(self, pd: PerronData, b: int) -> np.ndarray:
        """h on fiber b in the Perron data's arithmetic (:attr:`PerronData.vectors`)."""
        return pd.vectors[1][list(self.fibers[b])]

    def fiber_nu(self, pd: PerronData, b: int) -> np.ndarray:
        """nu on fiber b in the Perron data's arithmetic (:attr:`PerronData.vectors`)."""
        return pd.vectors[0][list(self.fibers[b])]

    def operators(self, exact: bool) -> dict:
        """The block table of one arithmetic: the integer blocks of M = D W
        in exact mode (ExactModeError without rational weights), the float
        blocks otherwise."""
        return self.exact_blocks if exact else self.blocks


class LastPaths:
    """The last path of each per-word route of one factor system:
    :func:`projected_measure` in `product`, :func:`projected_measure_bruteforce`
    in `oracle`.  A slot is None or a tuple that begins (Perron data, word):
    the product slot goes on with the word's image blocks, its states and
    the path's fiber vectors (one nu_b and one h_b per image block, read
    once per path), the oracle slot with its domain-path states; the states
    list holds the route's state after every level of the word.  A call
    keeps the states of the longest prefix it shares with the slot's word
    under the same Perron data (compared with ``is``, and held, so a
    recycled id cannot match), extends a new list from there and stores it.  Stored
    states are never changed in place.  What is kept is one path per route:
    at most one fiber vector per block of the last word, and nu_b and h_b
    for every image block, for the product route, and the rows of every
    level of the last word's preimage expansion for the oracle, the rows
    one fresh call visits."""

    def __init__(self):
        self.product = None
        self.oracle = None

    @staticmethod
    def resume(fs: FactorSystem, slot, pd: PerronData, yword) -> tuple[Word, int, tuple | None]:
        """(word, shared, slot): the image word as a tuple, the length of
        the longest prefix it shares with the slot's word, and the slot;
        (word, 0, None) for an empty slot or other Perron data.  Only the
        symbols past the shared prefix are range-checked; the slot's word
        passed the same check, so a bad symbol raises the ValidationError
        of a fresh call."""
        w = tuple(yword)
        if slot is not None and slot[0] is not pd:
            slot = None
        n = 0
        for a, b in zip(slot[1] if slot else (), w):
            if a != b:
                break
            n += 1
        _check_symbols(fs, w[n:])
        return w, n, slot


def build_factor(tm: TransferMatrix, symbol_map, image_alphabet: Alphabet) -> FactorSystem:
    """Group the transfer matrix into fiber blocks under a 1-block map.

    `symbol_map` gives the image symbol index of every domain symbol.
    Raises on unmapped domain symbols and on image symbols with empty fiber.
    The map is applied to the whole block word array at once, and
    :func:`sorted_runs` groups the blocks' image words: its runs are the
    fibers (ascending block indices) and its run heads the lexicographic
    image block words.  The image block transitions are the entries of a
    boolean table filled at the image blocks of the recoding's block
    transitions.  No block is cut here (see :class:`FactorSystem`).
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
    smap = np.array(smap, dtype=np.intp)
    images = smap[rec.block_array]  # every block's image word
    order, starts = sorted_runs(images)
    words = images[order[starts]]
    sizes = np.diff(starts, append=len(order))
    bsm = np.empty(len(order), dtype=np.intp)  # block -> its image block
    bsm[order] = np.repeat(np.arange(len(starts)), sizes)
    follows = np.zeros((len(starts), len(starts)), dtype=bool)
    follows[bsm[rec.sources], bsm[rec.targets]] = True
    pairs = np.argwhere(follows)
    index = np.zeros(follows.shape, dtype=np.intp)
    index[follows] = np.arange(len(pairs))
    fiber_mask = np.arange(sizes.max()) < sizes[:, None]
    fiber_index = np.zeros(fiber_mask.shape, dtype=np.intp)
    fiber_index[fiber_mask] = order  # the stable sort keeps each fiber ascending
    tables = dict(symbol_map=smap, words=words, last_symbols=words[:, -1].copy(),
                  fiber_sizes=sizes, fiber_index=fiber_index, fiber_mask=fiber_mask,
                  follows=follows, pairs=pairs, index=index, degree=follows.sum(axis=1))
    for a in tables.values():
        a.setflags(write=False)
    return FactorSystem(
        tm=tm,
        image_alphabet=image_alphabet,
        image_block_index={w: i for i, w in enumerate(map(tuple, words.tolist()))},
        fibers=tuple(tuple(f.tolist()) for f in np.split(order, starts[1:])),
        **tables,
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


def _check_symbols(fs: FactorSystem, symbols) -> None:
    size = fs.image_alphabet.size
    for s in symbols:
        if not 0 <= s < size:
            raise ValidationError(f"image symbol index {s} out of bounds")


def _check_image_word(fs: FactorSystem, yword) -> Word:
    w = tuple(yword)
    _check_symbols(fs, w)
    return w


def image_admissible(fs: FactorSystem, yword) -> bool:
    """True iff the image word has an admissible lift (nonzero boolean
    block product); the image language is sofic, so this is the criterion."""
    w = _check_image_word(fs, yword)
    k = fs.block_length
    if len(w) < k:
        return bool((fs.words[:, :len(w)] == w).all(axis=1).any())
    blocks = image_block_word(fs, w)
    return blocks is not None and carry_product(
        fs.blocks, blocks, np.ones(len(fs.fibers[blocks[0]]), dtype=bool)) is not None


def reduce_products(ufunc: np.ufunc, x: np.ndarray, stack_ndim: int = 1) -> np.ndarray:
    """``ufunc.reduce`` of every product in the stack `x` over all of the
    product's own axes (those after the leading `stack_ndim`), run along the
    stack axis.  One transposed contiguous copy holds each product entry as
    a row across the stack, so the ufunc combines whole rows instead of
    running one short reduction per product (F or F^2 entries, each costing
    about as much as a long one).  Only for exact reductions (max, min,
    logical or/and): the result does not depend on the order, so its bits
    equal ``ufunc.reduce(x, axis=axes)``."""
    stack = x.shape[:stack_ndim]
    rows = np.ascontiguousarray(x.reshape(math.prod(stack), math.prod(x.shape[stack_ndim:])).T)
    return ufunc.reduce(rows, axis=0).reshape(stack)


def rescale_product(x: np.ndarray, scale):
    """One step of the products carried along image words.

    `x` holds one product per entry of `scale`, its log scale: a stack of
    products along the leading axes with an array of scales (a single
    product with a scalar scale goes to :func:`rescale_single`).  A float
    product is divided by its largest entry, whose log is added to its
    scale; boolean and exact (int object) products are kept whole.  Returns
    (products, scales, alive), alive flagging the nonzero products; a zero
    product comes back unchanged and is the caller's to drop.  The alive
    test and the largest entry of a vector product run along the stack
    (:func:`reduce_products`); a matrix product keeps numpy's own max over
    its F^2 entries, which beats the transposed copy on chunks of 4096
    products.  Both are exact, so the bits do not depend on the route.
    """
    stack_ndim = np.ndim(scale)
    if stack_ndim == 0:
        return rescale_single(x, scale)
    if x.dtype != float:
        return x, scale, reduce_products(np.logical_or, x.astype(bool, copy=False), stack_ndim)
    if x.ndim == stack_ndim + 1:
        top = reduce_products(np.maximum, x, stack_ndim)
    else:
        top = x.max(axis=tuple(range(stack_ndim, x.ndim)))
    alive = top > 0
    top = top + ~alive  # 1 for a zero product, which stays as it is
    return x / np.reshape(top, top.shape + (1,) * (x.ndim - stack_ndim)), scale + np.log(top), alive


def rescale_single(x: np.ndarray, scale):
    """:func:`rescale_product` for a single product with a scalar log
    scale: (product, scale, alive), with the same bits, minus the stack's
    axis bookkeeping and the ufunc calls.  An exact or boolean product is
    alive when ``any(x.flat)``.  A float vector's largest entry is Python's
    ``max`` of its list, a float matrix's ``x.max()``.  The two differ only
    on a NaN that is not the first entry, which cannot reach a vector here:
    its entries come from ``x @ m`` with x in [0, 1] or NaN and m finite
    and positive, so a NaN arises only as inf / inf after an overflowing
    step, and once x holds one, every entry of x @ m is NaN, where both
    give NaN, a dead product.  ``x / top`` and ``np.log(top)`` give the
    same bits for a Python float as for a numpy one."""
    if x.dtype != float:
        return x, scale, any(x.flat)
    top = max(x.tolist()) if x.ndim == 1 else x.max()
    if not top > 0:
        return x, scale, False
    return x / top, scale + np.log(top), True


def carry_path(mats: dict, blocks, states: list) -> list:
    """Extend a path of products of block operators along the image block
    word `blocks` and return it: states[i] is the product along
    blocks[:i + 1], (x . mats[(b_0, b_1)] ... mats[(b_{i-1}, b_i)], log
    scale), or None once a transition has no block or the product vanished
    (the path then ends there).  The list, which the caller passes with at
    least its first state, is appended to up to len(blocks) states; every
    step is ``x @ m`` through :func:`rescale_single`, the first from the
    operator itself when the start x is None.  A boolean x multiplies the
    blocks' 0/1 support, so it carries boolean products.  This is the one
    loop for the product along a single word: :func:`carry_product` and
    :func:`projected_measure` (resuming its last path) read it."""
    if states[-1] is None:
        return states
    x, scale = states[-1]
    support = x is not None and x.dtype == bool
    for a, b in zip(blocks[len(states) - 1:], blocks[len(states):]):
        m = mats.get((a, b))
        if m is None:
            states.append(None)
            break
        if support:
            m = m != 0
        x, scale, alive = rescale_single(m if x is None else x @ m, scale)
        states.append((x, scale) if alive else None)
        if not alive:
            break
    return states


def carry_product(mats: dict, blocks, x=None):
    """The product of block operators along the image block word `blocks`,
    x . mats[(b_0, b_1)] ... mats[(b_{n-1}, b_n)] (from the first operator
    when x is None): the last state of a fresh :func:`carry_path`, (product,
    log scale), or None when a transition has no block or the product
    vanished; with fewer than two blocks (x, 0.0) comes back."""
    return carry_path(mats, blocks, [(x, 0.0)])[-1]


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

    The product nu_{b_0} L_{b_0 b_1} ... of a word is the product of its
    prefix times one more block, so a call resumes the system's last
    product path (:attr:`FactorSystem.last_paths`).  It compares the word
    with the path's word symbol by symbol under the same Perron data: with
    s shared symbols the first s - k + 1 image blocks are shared (k the
    block length), so it range-checks only the symbols past s, translates
    only the windows past the shared blocks and takes only the steps past
    them (:func:`carry_path`), and reads nu_b and h_b from the fiber vectors
    the path read once.  The kept path is one fiber vector per block of the
    last word; the steps are the ones a fresh call takes, so the results
    are bit-identical to it.  A word shorter than k or with an unrealized
    window leaves the path as it was.
    """
    paths = fs.last_paths
    w, shared, last = paths.resume(fs, paths.product, pd, yword)
    if len(w) == 0:
        raise ValidationError("projected measure needs a nonempty image word")
    k = fs.block_length
    if len(w) < k:
        matching = np.flatnonzero((fs.words[:, :len(w)] == w).all(axis=1)).tolist()
        total = sum(fs.fiber_nu(pd, b) @ fs.fiber_h(pd, b) for b in matching)
        return finish_measure(total, 0.0, 0, pd)
    kept = max(shared - k + 1, 0)
    blocks = image_block_word(fs, w[kept:])
    if blocks is None:
        return finish_measure(0, 0.0, 0, pd)
    vectors = last[4] if last else tuple([v[list(f)] for f in fs.fibers] for v in pd.vectors)
    if kept:
        blocks, states = last[2][:kept] + blocks, last[3][:kept]
    else:
        states = [(vectors[0][blocks[0]], 0.0)]
    states = carry_path(fs.operators(pd.exact), blocks, states)
    paths.product = (pd, w, blocks, states, vectors)
    if states[-1] is None:
        return finish_measure(0, 0.0, 0, pd)
    vec, scale = states[-1]
    return finish_measure(vec @ vectors[1][blocks[-1]], scale, len(blocks) - 1, pd)


def projected_measure_bruteforce(fs: FactorSystem, pd: PerronData, yword,
                                 max_words: int = DEFAULT_MAX_WORDS):
    """Projected cylinder mass as a plain sum of Gibbs cylinder masses over
    every admissible preimage word; the independent oracle for
    :func:`projected_measure`.

    The rows start from the blocks whose first min(n, k) symbols map to
    the word's (k the block length) and grow by one
    :func:`~gibbsfactor.potential.domain_path` level per later symbol y
    under ``image_moves[y]``, so every row is a preimage of the word and
    the row values are summed directly, without building the preimage
    words (no rows: measure zero).  The one run is finished here: the
    integer sum in exact mode, else the largest log and ``np.add.reduceat``
    of the exponentials over the run, whose summation order (and so its
    bits) is that of :func:`preimage_measures`' runs.  The budget counts
    visited preimage prefixes.

    The preimages of a word are those of its prefix, each grown by one
    level, so a call resumes the system's last oracle path
    (:attr:`FactorSystem.last_paths`): the path's state after every
    position of the last word, under the same Perron data.  Only the
    symbols past the prefix shared with the last word are range-checked.
    The head rows depend on the first min(n, k) symbols (k the block
    length), so a path is reused only when the head length and symbols
    agree; then the call takes the levels past the shared prefix.
    The visited count only grows along a path, so checking the last reused
    state and every new level raises EnumerationLimitError at the budgets
    where a fresh call raises, with its message.  The kept path is the rows
    one fresh call visits; the results are bit-identical to a fresh call.
    """
    paths = fs.last_paths
    w, shared, last = paths.resume(fs, paths.oracle, pd, yword)
    if len(w) == 0:
        raise ValidationError("projected measure needs a nonempty image word")
    n, k = len(w), fs.block_length
    head = min(n, k)
    if shared >= head and min(len(last[1]), k) == head:
        states = last[2][:shared - head + 1]
        count_visited(states[-1][3], max_words)
    else:
        heads = fs.symbol_map[pd.tm.recoding.block_array[:, :head]]
        rows = np.flatnonzero((heads == w[:head]).all(axis=1))
        states = [(None, rows, (pd.int_nu if pd.exact else pd.log_vectors[0])[rows],
                   count_visited(len(rows), max_words))]
    moves = map(fs.image_moves.__getitem__, w[head + len(states) - 1:])
    states = domain_path(pd, states, moves, max_words, pd.exact)
    paths.oracle = (pd, w, states)
    _, rows, values, _ = states[-1]
    if not len(rows):
        return finish_measure(0, 0.0, 0, pd)
    values = domain_end(pd, rows, values, pd.exact)
    steps = max(n - k, 0)
    if pd.exact:
        return finish_measure(sum(values.tolist()), 0.0, steps, pd)
    scale = max(values.tolist())
    return finish_measure(np.add.reduceat(np.exp(values - scale), [0])[0], scale, steps, pd)


def sorted_runs(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Group the equal rows of an (r, c) matrix of nonnegative int64 symbols,
    c >= 1: (order, starts), `order` the stable permutation that sorts the
    rows lexicographically and `starts` the position in rows[order] of the
    first row of every run of equal rows (for ``reduceat``).  Each sort key
    reads as many columns as stay below 2^63 as the digits of one int64 in
    base max + 1, so a stable ``np.lexsort`` of the fewest keys sorts rows."""
    rows = np.asarray(rows, dtype=np.int64)
    q, c = int(rows.max(initial=0)) + 1, rows.shape[1]
    per = max(m for m in range(1, c + 1) if q**m <= 2**63)
    powers = np.array([q**i for i in range(per - 1, -1, -1)], dtype=np.int64)
    keys = [rows[:, j:j + per] @ powers[max(j + per - c, 0):] for j in range(0, c, per)]
    order = np.lexsort(keys[::-1])
    new = np.ones(len(order), dtype=bool)
    new[1:] = np.diff(np.stack(keys)[:, order], axis=1).any(axis=0)  # where any key changes
    return order, np.flatnonzero(new)


def log_sum_runs(logs: np.ndarray, starts: np.ndarray):
    """Log-sum-exp of every run of a stack of float logs, the runs beginning
    at `starts` (for ``reduceat``): (totals, scales), run i summing to
    totals[i] e^scales[i], with scales[i] the run's largest log."""
    scales = np.maximum.reduceat(logs, starts)
    sizes = np.diff(np.append(starts, len(logs)))
    return np.add.reduceat(np.exp(logs - np.repeat(scales, sizes)), starts), scales


def preimage_measures(fs: FactorSystem, pd: PerronData, n: int, max_words: int):
    """Brute-force projected measures of the admissible image words of
    length n: (words, measures), the words as int rows, lexicographic, and a
    list.

    One :func:`~gibbsfactor.potential.domain_rows` expansion in the Perron
    data's arithmetic, its preimage words grouped by image word (symbol
    map, :func:`sorted_runs`), and each group's row values summed: integer
    sums in exact mode, else :func:`log_sum_runs`, then finish_measure.
    The budget counts visited preimage prefixes.
    """
    words, values, steps = domain_rows(pd, n, max_words, pd.exact)
    images = fs.symbol_map[words]
    order, starts = sorted_runs(images)
    values = values[order]
    if pd.exact:
        totals, scales = np.add.reduceat(values, starts), np.zeros(len(starts))
    else:
        totals, scales = log_sum_runs(values, starts)
    measures = [finish_measure(t, s, steps, pd) for t, s in zip(totals.tolist(), scales.tolist())]
    return images[order[starts]], measures


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
    1..max_len, a whole length at a time: :func:`level_measures` against
    :func:`preimage_measures`, in the Perron data's arithmetic.

    A word fails when its :func:`route_error` exceeds `tol` (in exact mode:
    unless equal); a word only one route produces is compared with measure
    zero.  The budget caps each length's sweep and expansion separately.
    """
    zero = finish_measure(0, 0.0, 0, pd)
    checked, worst, failures = 0, 0.0, []
    for n in range(1, max_len + 1):
        words, values = level_measures(fs, pd, n, max_words, pd.exact)
        product = dict(zip(map(tuple, words.tolist()), values.tolist()))
        images, measures = preimage_measures(fs, pd, n, max_words)
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
    axis to the widest fiber F (in a walk with an end stack, the total that
    closes it), and scales[i] its log scale (0 unless float products were
    renormalised).  A boolean product is packed along its last axis into
    W = ceil(F / 8) uint8 bytes (``np.packbits``, little bit order: bit b of
    byte w is entry 8w + b).
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


def walk_image_words(fs: FactorSystem, start, n_steps: int, max_words: int,
                     ends=None, visited: int = 0):
    """Level-synchronous walk over the admissible image words of n_steps + 1
    block symbols, carrying a product of blocks; yields the full-length words
    as :class:`SweepRows`, chunk by chunk in lexicographic order, and
    returns (as the generator's value) its count of visited nodes.

    `start` stacks one product per image block in the system's padded
    layout (a fiber vector or matrix zero-padded to the widest fiber F, as
    :meth:`FactorSystem.gather` and :meth:`FactorSystem.eye` build it, or a
    scalar for a walk of no steps), and every level is cast back to its
    dtype, which also picks the blocks (:meth:`FactorSystem.stack`): an
    ``object`` start walks the exact blocks, a float start the float blocks,
    and a boolean start, packed into uint8 rows (:class:`SweepRows`), their
    0/1 support.  A walk may also start from a frontier: `start` is then the
    :class:`SweepRows` of one whole level of an earlier walk, already
    counted in `visited`, the earlier walk's count, and the walk takes
    n_steps more steps from it.  A level grows by
    ``parent, blocks = np.nonzero(follows[rows.blocks])`` and one batched
    matmul of each parent's product with its gathered block (a packed row x
    steps to the OR over its bytes w of the table rows [pair, w, x[w]]),
    which keeps the rows lexicographic, and every new row goes through
    :func:`rescale_product`.  `ends`, when given, is a pair (vectors, log
    scales) with one vector per transition: the last step then dots each
    parent's vector product with its transition's vector instead, and adds
    that vector's log scale, so the full-length rows carry their totals.
    Rows whose product vanished are pruned.  A level that would exceed
    SWEEP_ROW_CAP rows is expanded in contiguous lexicographic chunks, depth
    first; a level that fits is expanded whole.  The budget counts nodes
    visited, i.e. every prefix and not only finished words, each level when
    it is reached; exceeding it raises EnumerationLimitError.
    """
    if isinstance(start, SweepRows):
        rows = start
    else:
        roots = np.arange(len(start))
        start = np.packbits(start, axis=-1, bitorder="little") if start.dtype == bool else start
        x, scales, alive = rescale_product(start, np.zeros(len(start)))
        rows = SweepRows(fs.words, roots, roots, x, scales).take(alive)
        visited = count_visited(visited + len(rows), max_words, "image word sweep")
    shape, dtype = rows.products.shape[1:], rows.products.dtype
    stack, width, follows, degree = (fs.stack(dtype), fs.fiber_mask.shape[1],
                                     fs.follows, fs.degree)
    # depth-first stack of (frontier, steps left, next parent, child-count prefix sums)
    frontiers = [(rows, n_steps, 0, None if n_steps == 0 else np.cumsum(degree[rows.blocks]))]
    while frontiers:
        rows, remaining, pos, ends_at = frontiers.pop()
        if remaining == 0:
            yield rows
            continue
        if not len(rows):  # an empty start
            continue
        done = ends_at[pos - 1] if pos else 0
        if ends_at[-1] - done <= SWEEP_ROW_CAP:  # the rest of the level is one chunk
            chunk = rows if pos == 0 else rows.take(slice(pos, None))
        else:
            stop = max(pos + 1, int(np.searchsorted(ends_at, done + SWEEP_ROW_CAP, side="right")))
            if stop < len(rows):
                frontiers.append((rows, remaining, stop, ends_at))
            chunk = rows.take(slice(pos, stop))
        parent, blocks = np.nonzero(follows[chunk.blocks])
        pair = fs.index[chunk.blocks[parent], blocks]
        x = chunk.products.take(parent, axis=0)
        if ends is not None and remaining == 1:
            x = np.einsum("ij,ij->i", x, ends[0].take(pair, axis=0))
            scales, alive = chunk.scales[parent] + ends[1][pair], x != 0
        else:
            if dtype == np.uint8:  # packed rows: OR_w T[pair, w, x[..., w]], W gathers
                at = (pair * 256 * shape[-1]).reshape((-1,) + (1,) * (x.ndim - 2))
                flat, packed = stack.reshape(-1, shape[-1]), x  # (p, w, v) at 256 (p W + w) + v
                x = reduce(np.bitwise_or, (flat.take(at + 256 * w + packed[..., w], axis=0)
                                           for w in range(shape[-1])))
            else:  # a row's product, vector or matrix, viewed as (-1, F) times its block
                x = x.reshape(len(x), -1, width) @ stack.take(pair, axis=0)
            x, scales, alive = rescale_product(x.reshape((-1,) + shape).astype(dtype, copy=False),
                                               chunk.scales[parent])
        words = np.concatenate([chunk.words.take(parent, axis=0),
                                fs.last_symbols.take(blocks)[:, None]], axis=1)
        children = SweepRows(words, chunk.roots[parent], blocks, x, scales)
        if not alive.all():
            children = children.take(alive)
        if len(children):
            visited = count_visited(visited + len(children), max_words, "image word sweep")
            frontiers.append((children, remaining - 1, 0,
                              None if remaining == 1 else np.cumsum(degree[children.blocks])))
    return visited


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
        return sorted(set(map(tuple, fs.words[:, :n].tolist())))
    walk = walk_image_words(fs, fs.fiber_mask, n - k, max_words)
    return [tuple(word) for rows in walk for word in rows.words.tolist()]


def level_measures(fs: FactorSystem, pd: PerronData, n: int, max_words: int,
                   exact: bool):
    """Projected measures of every admissible image word of length n >= 1,
    the batched :func:`projected_measure`: (words, values), the words as int
    rows, lexicographic, and an array of Fractions when `exact` (which needs
    exact Perron data), else of float logs.

    One :func:`walk_image_words` sweep through the blocks of that arithmetic
    (:meth:`FactorSystem.operators`), from nu on the first fiber, with h
    folded into the last block: the walk's end stack holds c_p = B_p h_b'
    for every transition p = (b, b'), so a word's last step is one dot
    product of F terms instead of a vector-matrix product of F^2.  In float
    mode each c_p is divided by its largest entry, whose log joins the
    word's scale (as a renormalised step would), so the last level's sums
    run in another order than :func:`projected_measure`'s and their bits may
    differ; exact mode runs the same fold in integers, from nu~ to h~, and
    its results do not change.  Totals are finished by lambda^-steps (each
    exact total through :func:`finish_measure`).  Words of one block start
    from their whole total nu_b . h_b; words shorter than the block length
    sum nu . h over the image blocks they begin.  The budget counts the
    sweep's visited nodes.
    """
    if n < 1:
        raise ValidationError("length must be >= 1")
    k = fs.block_length
    nu, h = ((pd.int_nu, pd.int_h) if exact
             else (np.asarray(v, dtype=float) for v in (pd.nu, pd.h)))

    def finish(totals, scales, steps):
        if exact:
            return np.array([finish_measure(t, 0.0, steps, pd) for t in totals.tolist()],
                            dtype=object)
        return np.log(totals) + scales - steps * pd.log_lam

    nu_rows, h_rows = fs.gather(nu), fs.gather(h)
    block_totals = np.einsum("ij,ij->i", nu_rows, h_rows)  # nu_b . h_b
    if n < k:
        prefixes = fs.words[:, :n]
        order, starts = sorted_runs(prefixes)
        totals = np.add.reduceat(block_totals[order], starts)
        return prefixes[order[starts]], finish(totals, 0.0, 0)
    steps = n - k
    if steps:
        c = (fs.stack(h.dtype) @ h_rows[fs.pairs[:, 1], :, None])[:, :, 0]
        start, ends = nu_rows, rescale_product(c, np.zeros(len(c)))[:2]
    else:
        start, ends = block_totals, None
    words = [np.zeros((0, n), dtype=np.intp)]
    values = [np.zeros(0, dtype=h.dtype)]
    for rows in walk_image_words(fs, start, steps, max_words, ends):
        words.append(rows.words)
        values.append(finish(rows.products, rows.scales, steps))
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
    walk = walk_image_words(fs, fs.eye(bool), n, max_words)
    return fwm_span(fs, n, walk, witness_cap)[0]


POPCOUNT = np.array([bin(v).count("1") for v in range(256)])  # the bits set in each byte


def fwm_span(fs: FactorSystem, n: int, walk, witness_cap: int = 100):
    """The fiber-wise mixing report of span N from the full-length chunks of
    a boolean :func:`walk_image_words` walk, with the walk's frontier:
    (report, frontier), the frontier (full-length rows, visited count) when
    those rows came in one chunk, from which span N + 1 is one more step,
    else None."""
    witnesses: list = []
    checked = chunks = 0
    holds = True
    while True:
        try:
            rows = next(walk)
        except StopIteration as stop:
            visited = stop.value
            break
        checked += len(rows)
        chunks += 1
        # padding is zero: a product is all-positive iff it counts every entry of its fibers
        positive = POPCOUNT.take(rows.products.reshape(len(rows), -1)).sum(axis=1)
        sizes = fs.fiber_sizes
        failing = np.flatnonzero(positive < sizes[rows.roots] * sizes[rows.blocks])
        holds = holds and not failing.size
        for r in failing:
            if len(witnesses) >= witness_cap:
                break
            word = tuple(rows.words[r].tolist())
            root, block = rows.roots[r], rows.blocks[r]
            product = np.unpackbits(rows.products[r], axis=-1, count=fs.fiber_mask.shape[1],
                                    bitorder="little").astype(bool)
            gaps = fs.fiber_mask[root][:, None] & fs.fiber_mask[block] & ~product
            first, last = fs.fibers[root], fs.fibers[block]
            for i, j in zip(*np.nonzero(gaps)):
                if len(witnesses) >= witness_cap:
                    break
                witnesses.append((word, first[int(i)], last[int(j)]))
    report = FwmReport(n=n, holds=holds, witnesses=tuple(witnesses),
                       words_checked=checked, recoded=fs.block_length > 1)
    return report, (rows, visited) if chunks == 1 else None


@dataclass(frozen=True)
class FwmSearchResult:
    found: int | None            # smallest passing N, or None
    reports: tuple[FwmReport, ...]


def fwm_search(fs: FactorSystem, max_n: int,
               max_words: int = DEFAULT_MAX_WORDS) -> FwmSearchResult:
    """Try N = 1..max_n independently (no monotonicity assumed) and return
    the first N at which fiber-wise mixing holds, with all per-N reports.

    The reports, and the budgets at which EnumerationLimitError is raised,
    are those of :func:`fwm_check` called for N = 1, 2, ... until the first
    pass.  The walks extend one another: span N's levels 0..N are span N's
    walk, so when its full-length rows came in one chunk, span N + 1 is one
    more step from them, counting on from N's visited count (the same count
    a fresh walk reaches, so the same raise points); otherwise span N + 1
    walks from the roots.  The budget caps each span's walk, as it does
    each :func:`fwm_check`.
    """
    if max_n < 1:
        raise ValidationError("max_n must be >= 1")
    start = fs.eye(bool)
    reports, frontier = [], None
    for n in range(1, max_n + 1):
        walk = (walk_image_words(fs, start, n, max_words) if frontier is None
                else walk_image_words(fs, frontier[0], 1, max_words, visited=frontier[1]))
        rep, frontier = fwm_span(fs, n, walk)
        reports.append(rep)
        if rep.holds:
            return FwmSearchResult(found=n, reports=tuple(reports))
    return FwmSearchResult(found=None, reports=tuple(reports))
