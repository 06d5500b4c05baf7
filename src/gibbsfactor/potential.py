"""Locally constant potentials, transfer matrices, Perron data, and Gibbs
cylinder measures.

A depth-k potential assigns a real value phi(w) to every admissible
(k+1)-word w (phi(x) depends on x_0..x_k).  The system is recoded to blocks
of length max(k, 1), on which the transfer operator is a nonnegative matrix

    W[i, j] = exp(phi(word_i . last(word_j)))   when block transition i -> j
              is allowed, 0 otherwise,

i.e. rows are indexed by source blocks and columns by target blocks.  The
table, the recoding's block transitions and W share one word order, the
lexicographic order of the admissible (k+1)-words, which is the row-major
order of the allowed entries of W.  A :class:`Potential` holds its table in
that order as arrays, a word matrix and phi and weight vectors, so its
weights are the allowed entries of W as they stand: :class:`TransferMatrix`
stores W as that edge list and builds a dense view only for a reader that
needs one.  With W h = lambda h and nu^T W = lambda nu^T, sum(nu) = 1,
<h, nu> = 1, the Gibbs state of phi has cylinder masses

    mu[w_0 ... w_n] = lambda^{-m} (prod of W along the block word)
                      * nu[first block] * h[last block],

where m is the number of block transitions.  This is exactly the operator
representation of the measure; additivity, shift-invariance and total mass
follow from the eigen-equations.

Float Perron data come from one loop of two kinds of step, run until the
Collatz-Wielandt bracket [min, max] of (W x)/x of the Perron root is within
the tolerance.  Power steps x <- W x, one product on the edge list of W
(the recoding's transitions) each, come first: W contracts the Hilbert
metric (Birkhoff), so they shrink the bracket geometrically while the
spectral gap is wide.  Each step estimates from the last two brackets how
many power steps are still needed; while that is at most d/3 products,
about the cost of one LU factorisation of the d x d matrix in dense
products (so conservative for edge-list ones), power steps finish the run.
Otherwise, once the bracket is below the square root of the tolerance or
stops shrinking fast, Noda's inverse iteration takes over: each step shifts
by the upper bound max (W x)/x and solves one linear system.  It converges
quadratically near the Perron vector, so one or two solves usually finish a
run, and a tiny spectral gap costs a few solves rather than the 1/gap steps
of power iteration.  Exact Perron data certify an integer eigenvalue of the
denominator-cleared weights by fraction-free elimination and an exact check
of both eigen-equations (:func:`perron_exact`).

Float-mode measures are computed in log space (long words underflow raw
products).  Exact mode is available when the potential was given as a table
of rational weights, and it runs in Python integers from build to finish.
:func:`transfer_matrix` clears the denominators once: M = D W is an integer
matrix (a numpy ``object`` array of int, so both modes share the same ``@``
code) and D the lcm of the weights' denominators.  :func:`perron_exact`
certifies the integer eigenvalue Lambda = D lambda of M with primitive
integer kernel vectors h~ and nu~.  Since W^m / lambda^m = M^m / Lambda^m, D
cancels and every exact measure is

    nu~[first] (prod of M along the block word) h~[last] / (<nu~, h~> Lambda^m),

an integer total turned into a Fraction by one division.
:func:`finish_measure` (with :func:`measure_ratio` for quotients of
measures) lives here, next to :class:`PerronData`: the Gibbs cylinder
measures here and the projected measures of the factor module both finish
through it.

Measures of many domain words come from one loop over domain-word levels,
:func:`domain_path`: it extends a path of level states (each row's parent,
last block and value, and the visited count) by one level per boolean
block table.  :func:`domain_rows` runs it from every block under the block
adjacency and builds the words from the states, which gives
:func:`level_log_measures` and, grouped by image word, the brute-force
oracle of the factor module for a whole word length; that oracle for one
word runs it from the blocks over the word's head, one table of moves per
image symbol, and never builds the words.  The tables it reads on every
call are computed once on the objects that own their data: the block words
on the recoding, their last symbols and the boolean block adjacency on
:class:`TransferMatrix`, and the float log Perron vectors on
:class:`PerronData`.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .errors import (
    ConvergenceError,
    EnumerationLimitError,
    ExactModeError,
    NotMixingError,
    ValidationError,
)
from .sft import (
    DEFAULT_MAX_WORDS,
    Recoding,
    Sft,
    block_word,
    find_rows,
    higher_block_recode,
    is_admissible,
    mixing_index,
    word_matrix,
)

PHI_MODE = "phi"
WEIGHT_MODE = "weight"


@dataclass(frozen=True, eq=False)
class Potential:
    """Depth-k locally constant potential on an SFT, as arrays over the
    admissible (k+1)-words.

    `words` holds those words as the rows of a read-only int matrix in
    lexicographic order (:func:`~gibbsfactor.sft.word_matrix`), and `values`
    their table values in the same order: phi in phi mode, the weights e^phi
    in weight mode.  `phi` and `weights` are both read-only float arrays in
    that order; the one the table did not give is computed when first read.
    `exact_weights` is a tuple of the weights as Fractions when the input was
    a table of positive rationals (weight mode), enabling exact arithmetic
    downstream, and None otherwise.
    """

    sft: Sft
    depth: int
    mode: str
    words: np.ndarray
    values: np.ndarray
    exact_weights: tuple | None

    @cached_property
    def phi(self) -> np.ndarray:
        return self.values if self.mode == PHI_MODE else _mapped(math.log, self.values.tolist())

    @cached_property
    def weights(self) -> np.ndarray:
        return self.values if self.mode == WEIGHT_MODE else _mapped(math.exp, self.values.tolist())


def _mapped(f, values) -> np.ndarray:
    """f of every value of a sequence, one by one (math.exp and math.log, as
    the per-entry tables took them, bit for bit), as a read-only array."""
    out = np.fromiter(map(f, values), float, len(values))
    out.setflags(write=False)
    return out


def check_header(depth, mode) -> None:
    """The rule for a potential table's header: `depth` a non-boolean int
    >= 0 and `mode` one of PHI_MODE and WEIGHT_MODE."""
    if isinstance(depth, bool) or not isinstance(depth, int) or depth < 0:
        raise ValidationError("potential.depth must be a nonnegative integer")
    if mode not in (PHI_MODE, WEIGHT_MODE):
        raise ValidationError(f"potential.mode must be {PHI_MODE!r} or {WEIGHT_MODE!r}")


def table_value(mode: str, value) -> Fraction | float:
    """The canonical form of one potential-table value, the one rule for
    files and Python tables alike; raises ValidationError with the reason.

    Phi mode takes numbers (int, float, Fraction) and returns a float.
    Weight mode also takes rational literals "p/q", and returns a float for
    a float and the exact Fraction otherwise; the weight must be positive.
    Booleans and non-finite numbers are refused, and so is a value whose
    weight (the value, or exp(phi)) is not a positive finite float.
    """
    numbers = (int, float, Fraction, str) if mode == WEIGHT_MODE else (int, float, Fraction)
    if isinstance(value, bool) or not isinstance(value, numbers):
        raise ValidationError("bad value type")
    if isinstance(value, float) and not math.isfinite(value):
        raise ValidationError(f"non-finite value {value!r}")
    if isinstance(value, str):
        # Fraction builds 10**exp exactly (seconds for "1e10000000"), so a side
        # whose float overflows or underflows is refused first
        for side in value.split("/"):
            try:
                magnitude = float(side)
            except ValueError:
                break  # Fraction refuses the literal below
            if math.isinf(magnitude) or (magnitude == 0 and "e" in side.lower()):
                raise ValidationError("value outside the float range")
        try:
            value = Fraction(value)
        except (ValueError, ZeroDivisionError):
            raise ValidationError(f"bad rational literal {value!r}") from None
    if mode == WEIGHT_MODE:
        value = value if isinstance(value, (float, Fraction)) else Fraction(value)
        if value <= 0:
            raise ValidationError("non-positive weight")
    try:
        approx = float(value)
        weight = approx if mode == WEIGHT_MODE else math.exp(approx)
    except OverflowError:
        weight = math.inf
    if not 0.0 < weight < math.inf:
        raise ValidationError("value outside the float range" if mode == WEIGHT_MODE
                              else "exp(phi) outside the float range")
    return value if mode == WEIGHT_MODE else approx


def table_values(mode: str, values: list, where) -> np.ndarray | tuple:
    """The canonical forms of a table's values, as :func:`table_value` gives
    them one by one: a read-only float array, or a tuple when some weight is
    an exact Fraction.

    Floats are checked as one array: finite and positive in weight mode,
    |phi| <= 700 in phi mode (exp(phi) is then well inside the float range).
    Every other value, and a float that fails that check, goes through
    :func:`table_value`, so the first bad value raises its ValidationError,
    prefixed by ``where(i)`` for its position i.
    """
    floats = np.fromiter((v if type(v) is float else math.nan for v in values), float,
                         len(values))
    plain = (floats > 0) & (floats < math.inf) if mode == WEIGHT_MODE else np.abs(floats) <= 700
    others = {}
    for i in np.flatnonzero(~plain).tolist():
        try:
            others[i] = table_value(mode, values[i])
        except ValidationError as e:
            raise ValidationError(f"{where(i)}: {e}") from None
    if any(isinstance(v, Fraction) for v in others.values()):
        out = floats.tolist()
        for i, v in others.items():
            out[i] = v
        return tuple(out)
    floats[list(others)] = list(others.values())
    floats.setflags(write=False)
    return floats


def value_list(values: np.ndarray | tuple) -> list:
    """Table values in either form as a list of Python numbers."""
    return list(values) if isinstance(values, tuple) else values.tolist()


def take_values(values: np.ndarray | tuple, index: np.ndarray) -> np.ndarray | tuple:
    """The table values at the given positions, in the form they came in."""
    if isinstance(values, tuple):
        return tuple(map(values.__getitem__, index.tolist()))
    out = values[index]
    out.setflags(write=False)
    return out


def build_potential(sft: Sft, depth: int, mode: str, table: dict) -> Potential:
    """Validate a Python potential table, word tuple -> value: the header by
    :func:`check_header`, the values by :func:`table_values` (an error names
    the word), then the words by :func:`canonical_potential`.  A key must be
    a sequence of symbol indices; the first key or value that is not is the
    error.
    """
    check_header(depth, mode)
    keys, words = list(table), []
    for key in keys:
        try:
            word = tuple(key)
        except TypeError:
            break
        if not all(isinstance(s, (int, np.integer)) for s in word):
            break
        words.append(word)
    values = table_values(mode, list(table.values())[:len(words)],
                          lambda i: f"potential value for word {words[i]}")
    if len(words) < len(keys):
        raise ValidationError(f"potential table key {keys[len(words)]!r} is not a word")
    fits = np.array([len(w) == depth + 1 and all(0 <= s < sft.size for s in w) for w in words],
                    dtype=bool)
    rows, others = np.flatnonzero(fits), np.flatnonzero(~fits)
    matrix = np.array([words[i] for i in rows.tolist()], dtype=np.intp).reshape(-1, depth + 1)
    strays = tuple(zip([words[i] for i in others.tolist()], take_values(values, others)))
    return canonical_potential(sft, depth, mode, matrix, take_values(values, rows), strays)


def canonical_potential(sft: Sft, depth: int, mode: str, words: np.ndarray,
                        values: np.ndarray | tuple, strays: tuple = ()) -> Potential:
    """The potential of a table whose values are canonical already (as
    :func:`table_values` gives them): `words` an (m, depth + 1) int matrix
    of words, `values` theirs in row order, and `strays` the (word, value)
    entries of words of any other length.  An admissible word given twice
    is refused; a float value array is copied, so the potential's arrays
    are its own.

    The table must cover every admissible (depth+1)-word; the other entries,
    rows with a symbol outside the alphabet among them, are ignored with a
    warning each: in row order, or all in word order when there are strays.
    A table whose rows are the admissible words in lexicographic order, as
    files give them, is taken as it is.  Exact arithmetic is available when
    every weight is exact (weight mode with no float entries).
    """
    admissible = word_matrix(sft, depth + 1)
    if strays or not np.array_equal(words, admissible):
        at = find_rows(admissible, words, sft.size)
        found = at >= 0
        repeated = np.flatnonzero(np.bincount(at[found], minlength=len(admissible)) > 1)
        if repeated.size:
            word = tuple(admissible[repeated[0]].tolist())
            raise ValidationError(f"repeated table entry for word {word}")
        ignored = list(map(tuple, words[~found].tolist()))
        if strays:
            ignored = sorted([*ignored, *(w for w, _ in strays)])
        for w in ignored:
            warnings.warn(f"ignoring entry for inadmissible word {w}", stacklevel=3)
        source = np.full(len(admissible), -1)
        source[at[found]] = np.flatnonzero(found)
        missing = np.flatnonzero(source < 0)
        if missing.size:
            word = tuple(admissible[missing[0]].tolist())
            raise ValidationError(f"missing table entry for admissible word {word}")
        values = take_values(values, source)
    exact = None
    if isinstance(values, tuple):
        if all(isinstance(v, Fraction) for v in values):
            exact = values
        values = _mapped(float, values)
    else:
        values = np.array(values, dtype=float)
        values.setflags(write=False)
    admissible.setflags(write=False)
    return Potential(sft=sft, depth=depth, mode=mode, words=admissible, values=values,
                     exact_weights=exact)


def variations(potential: Potential) -> list[float]:
    """var_n(phi) for n = 1..k: max |phi(u) - phi(v)| over admissible
    (k+1)-word pairs agreeing in coordinates 0..n-1.  Those pairs are the
    contiguous runs of the lexicographic word matrix that share their first
    n columns, so var_n is the largest max - min of phi over such a run.
    Empty for depth 0 (var_n = 0 for all n beyond the depth, by locality)."""
    words, phi = potential.words, potential.phi
    out = []
    for n in range(1, potential.depth + 1):
        starts = np.flatnonzero(np.r_[True, (words[1:, :n] != words[:-1, :n]).any(axis=1)])
        spread = np.maximum.reduceat(phi, starts) - np.minimum.reduceat(phi, starts)
        out.append(float(spread.max()))
    return out


@dataclass(frozen=True)
class HolderEnvelope:
    """Hölder data of a potential at a chosen theta: the smallest constant
    with var_n <= holder_constant * theta^n for all n."""

    theta: float
    holder_constant: float
    sup_norm: float
    variations: tuple[float, ...]


def holder_envelope(potential: Potential, theta: float) -> HolderEnvelope:
    if not 0 < theta < 1:
        raise ValidationError("theta must lie in (0, 1)")
    var = variations(potential)
    const = max((v / theta**n for n, v in enumerate(var, start=1)), default=0.0)
    sup = float(np.abs(potential.phi).max())
    return HolderEnvelope(theta=theta, holder_constant=const, sup_norm=sup,
                          variations=tuple(var))


def birkhoff_sum(potential: Potential, word) -> float:
    """Sum of phi over the sliding (k+1)-windows of an admissible word, in
    window order; the word determines this Birkhoff sum exactly."""
    w = tuple(word)
    k = potential.depth
    if len(w) < k + 1:
        raise ValidationError(f"word of length {len(w)} too short for depth {k}")
    if not is_admissible(potential.sft, w):
        raise ValidationError("word is not admissible")
    return float(birkhoff_sums(potential, np.array([w], dtype=np.intp))[0])


def birkhoff_sums(potential: Potential, words: np.ndarray) -> np.ndarray:
    """:func:`birkhoff_sum` of every row of an (N, n) matrix of admissible
    words, n > depth, unchecked: the rows of all their windows are found in
    the table at once (:func:`~gibbsfactor.sft.find_rows`), and the sums are
    taken window by window, left to right, as a Python sum would."""
    k1 = potential.depth + 1
    windows = np.lib.stride_tricks.sliding_window_view(words, k1, axis=1)
    rows = find_rows(potential.words, windows.reshape(-1, k1), potential.sft.size)
    rows = rows.reshape(windows.shape[:2])
    terms = potential.phi[rows]
    total = terms[:, 0].copy()
    for column in terms.T[1:]:
        total += column
    return total


@dataclass(frozen=True, eq=False)
class TransferMatrix:
    """Weighted adjacency of the block recoding, W[i, j] = weight of the
    block transition i -> j (source-row orientation), kept as its edge list
    in the recoding's transition order, the row-major order of W:
    `edge_weights` and `edge_ints`, the entries of M = D W (ints, None
    without rational weights), read-only.  Dense (d, d) views are built
    when first read: W by a Noda solve and :func:`log_ln1_sup_norm`, M by
    :func:`perron_exact` and the exact measures, log W by the float ones,
    the 0/1 `follows` by the oracles."""

    sft: Sft
    potential: Potential
    recoding: Recoding
    edge_weights: np.ndarray
    edge_ints: np.ndarray | None
    denominator: int | None        # D, lcm of the rational weights' denominators

    @property
    def dimension(self) -> int:
        return self.recoding.size

    def _dense(self, values: np.ndarray, fill) -> np.ndarray:
        """The edge values scattered over a read-only (d, d) array of `fill`."""
        rec = self.recoding
        out = np.full((rec.size, rec.size), fill, dtype=values.dtype)
        out[rec.sources, rec.targets] = values
        out.setflags(write=False)
        return out

    @cached_property
    def weights(self) -> np.ndarray:
        return self._dense(self.edge_weights, 0.0)

    @cached_property
    def log_weights(self) -> np.ndarray:
        """log W, -inf where a transition is forbidden."""
        return self._dense(np.log(self.edge_weights), -np.inf)

    @cached_property
    def int_weights(self) -> np.ndarray | None:
        return None if self.edge_ints is None else self._dense(self.edge_ints, 0)

    @cached_property
    def exact_weights(self) -> np.ndarray | None:
        """W = M / D as Fractions, or None without rational weights."""
        if self.edge_ints is None:
            return None
        return self._dense(self.edge_ints * Fraction(1, self.denominator), Fraction(0))

    @cached_property
    def last_symbols(self) -> np.ndarray:
        """The last base symbol of every block, read-only."""
        return self.recoding.block_array[:, -1]

    @cached_property
    def follows(self) -> np.ndarray:
        """Read-only boolean block adjacency, follows[i, j] iff block j may
        follow block i: the recoding's edge list scattered over a (d, d)
        table when first read, by the oracles' move tables."""
        return self._dense(np.ones(len(self.edge_weights), dtype=bool), False)


def transfer_matrix(sft: Sft, potential: Potential,
                    max_words: int = DEFAULT_MAX_WORDS) -> TransferMatrix:
    """Build the block transfer matrix of a potential.

    Depth-k systems are recoded to blocks of length max(k, 1); the entry for
    the block transition i -> j, the (k+1)-word word_i . last(word_j), is the
    weight of that word (of its first symbol for depth 0), read in the
    potential's word order.
    """
    if potential.sft is not sft:
        raise ValidationError("potential was built for a different SFT")
    rec = higher_block_recode(sft, max(potential.depth, 1), max_words)
    pick = rec.transitions[:, 0] if potential.depth == 0 else slice(None)  # depth 0: 1st symbol
    values, ints, den = take_values(potential.weights, pick), None, None
    if potential.exact_weights is not None:
        numerators, den = _clear_denominators(potential.exact_weights)
        ints = take_values(numerators, pick)
    return TransferMatrix(sft=sft, potential=potential, recoding=rec, edge_weights=values,
                          edge_ints=ints, denominator=den)


@dataclass(frozen=True, eq=False)
class PerronData:
    """Leading eigendata of a transfer matrix.

    h is the right eigenvector (W h = lambda h), nu the left one
    (nu^T W = lambda nu^T), normalized so sum(nu) = 1 and <h, nu> = 1.
    `residual` is relative, the larger of |W h - lambda h| / (lambda max h)
    and |nu^T W - lambda nu^T| / (lambda max nu) in the maximum norm.  In
    exact mode all three are Fractions and residual is exactly zero, and the
    integer form the exact measures read is kept alongside.
    `iterations` counts the steps of :func:`perron`, power and Noda steps
    alike, the larger count of its runs for h and nu.
    """

    tm: TransferMatrix
    lam: float | Fraction
    h: np.ndarray | tuple
    nu: np.ndarray | tuple
    residual: float
    iterations: int
    exact: bool
    int_lam: int | None = None          # Lambda = D lambda, eigenvalue of M
    int_h: np.ndarray | None = None     # h~ (int object array): M h~ = Lambda h~
    int_nu: np.ndarray | None = None    # nu~: nu~^T M = Lambda nu~^T
    int_pairing: int | None = None      # <nu~, h~>; h = h~ sum(nu~) / <nu~, h~>

    @property
    def log_lam(self) -> float:
        return math.log(float(self.lam))

    @property
    def vectors(self) -> tuple[np.ndarray, np.ndarray]:
        """(nu, h) as the measures read them: the integer vectors nu~, h~ in
        exact mode, the float Perron vectors otherwise."""
        return (self.int_nu, self.int_h) if self.exact else (self.nu, self.h)

    @cached_property
    def log_vectors(self) -> tuple[np.ndarray, np.ndarray]:
        """(log nu, log h) of the Perron vectors as floats, read-only."""
        logs = tuple(np.log(np.asarray(v, dtype=float)) for v in (self.nu, self.h))
        for v in logs:
            v.setflags(write=False)
        return logs


def _edge_products(tm: TransferMatrix) -> tuple:
    """The products of the runs for h and nu on the edge list of W, the
    recoding's transitions with :attr:`TransferMatrix.edge_weights`: a
    triple (x -> W x, log x -> log W x, () -> W) and a triple (x -> W^T x,
    log x -> log W^T x, () -> W^T), each product O(edges), the last the
    dense view, which only a Noda solve reads.  A product is one
    ``np.bincount`` of the edge terms by source (target) block, summing a
    row's terms in edge order; a log
    product is one log-sum-exp, the edge terms' largest by block from
    ``np.maximum.at`` and the sum of their exponentials below it from one
    ``np.bincount``."""
    values, rec, d = tm.edge_weights, tm.recoding, tm.dimension

    def log_product(into, terms_of):
        def product(lx):
            with np.errstate(divide="ignore", invalid="ignore"):  # a zero row gives NaN
                terms = np.log(values) + lx[terms_of]
                top = np.full(d, -np.inf)
                np.maximum.at(top, into, terms)
                return top + np.log(np.bincount(into, np.exp(terms - top[into]), d))
        return product

    return ((lambda x: np.bincount(rec.sources, values * x[rec.targets], d),
             log_product(rec.sources, rec.targets), lambda: tm.weights),
            (lambda x: np.bincount(rec.targets, values * x[rec.sources], d),
             log_product(rec.targets, rec.sources), lambda: tm.weights.T))


LOG_START_BRACKET = 20.0
"""Width of the log Collatz-Wielandt bracket log(sigma / min) above which a
Perron run starts with log-domain power steps (:func:`_log_start`)."""

LOG_START_STEPS = 10
"""Most log-domain power steps a Perron run starts with."""


def _log_start(products, d: int, max_steps: int) -> tuple[np.ndarray, int]:
    """The start (x, steps) of a Perron run: the ones vector, or, while the
    log Collatz-Wielandt bracket log(sigma / min) of the iterate exceeds
    LOG_START_BRACKET, log-domain power steps from it, at most `max_steps`.

    A coboundary g(prefix) - g(suffix) added to phi conjugates W by the
    diagonal D = diag(e^g): the same root, h and nu rescaled.  A power run
    on D^-1 W D from the ones vector is the run on W from D 1, so a spread
    coboundary only moves the start, but it can move it so far (weights
    over 10^+-150) that the ratios (W x) / x span many orders of magnitude:
    the relative bracket then saturates near 1, and :func:`_noda`'s power
    rules cannot see the contraction the power steps make in the Hilbert
    metric.  Power steps in the log domain (log-sum-exp over the edge list,
    so nothing overflows or underflows inside a step) bring such a start
    into range.  The first bracket is read from one float product W 1,
    O(edges), so an unspread run pays no log step; the later brackets come
    from the log products.  A step whose
    normalised iterate is not positive (an entry underflowed, or a row of W
    vanished) is refused."""
    product, log_product, _ = products
    x, steps = np.ones(d), 0
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        y = product(x)
        first = np.log(y.max() / y.min())
    if not first > LOG_START_BRACKET:  # NaN: every row sum overflowed or vanished
        return x, steps
    lx = np.zeros(d)
    ly = log_product(lx)
    while steps < max_steps:
        ly -= ly.max()
        with np.errstate(under="ignore"):
            y = np.exp(ly)
        if not (y > 0).all():
            break
        x, lx, steps = y, ly, steps + 1
        ly = log_product(lx)
        ratios = ly - lx
        if ratios.max() - ratios.min() <= LOG_START_BRACKET:
            break
    return x, steps


def _noda(products, d: int, tol: float, max_iter: int,
          cap: float = np.inf) -> tuple[np.ndarray, int, float]:
    """Right Perron vector of a nonnegative primitive matrix from the
    start of :func:`_log_start`, by power steps while they are the cheaper
    way to the tolerance and Noda's inverse iteration otherwise; returns
    (x, steps, sigma) with x normalised to max 1 and sigma the last upper
    bound.  `products`, a triple of :func:`_edge_products`, takes x to W x
    and log x to log W x in O(edges) and gives W, read (so built) only by
    a Noda step.  The start's log-domain power steps count among the steps,
    so `max_iter` caps them too; they make the run see D^-1 W D, D a
    positive diagonal, as it sees W, up to its start vector.

    Each step takes the Collatz-Wielandt bounds min and max of (W x)/x,
    which bracket the Perron root, and the run stops once the bracket is
    within tol * sigma, sigma the upper bound.  A power step sets
    x <- W x / max(W x), the product already taken for the bounds: W
    contracts the Hilbert metric (Birkhoff), so the bracket shrinks about
    |lambda_2| / lambda per step.  The power steps still needed are
    estimated from the contraction of the bracket over the last two steps
    (two, so the wobble of a complex lambda_2 is ridden out).  Power steps
    are taken while that estimate is at most d/3 and fits in the steps
    `max_iter` leaves; or else while the bracket is above sqrt(tol) * sigma
    and shrank at least fourfold over the last two steps.  d/3 dense
    products cost about one LU factorisation; an edge-list product costs
    far less on a sparse W, so the rule is conservative, and it is kept so
    that step and solve counts stay as they were.  A power step is also
    refused when the new iterate is not positive.  Every later step is
    Noda's: it shifts by the smaller of sigma and `cap` (an upper bound on
    the same root) raised one ulp (so sigma I - W is nonsingular with a
    positive inverse), and sets x <- |(sigma I - W)^-1 x|.  The solve runs on
    the diagonal similarity B = D^-1 W D, D = diag(x), as
    x * (I - B / sigma)^-1 1: B has row sums (W x)/x and a Perron vector
    near all-ones, so small entries of x keep their relative accuracy, and
    dividing by sigma keeps the solution finite however small or large the
    weights.  Noda converges quadratically, so from the sqrt(tol) handover
    one solve usually finishes the run.  A solve that is singular at the cap
    (which then equals the root to working precision) is repeated in the
    next step with the cap dropped.  Any other singular or non-finite solve,
    or a normalised iterate with an entry that underflowed to zero, raises
    ConvergenceError.
    """
    product = products[0]
    x, start = _log_start(products, d, min(LOG_START_STEPS, max_iter))
    b = None  # B, then I - B / sigma from the first Noda step; C order, so reshape is a view
    handover = math.sqrt(tol)
    two_back = one_back = math.inf  # the relative brackets of the last two steps
    for steps in range(start, max_iter + 1):
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            y = product(x)  # an overflow shows as sigma = inf
            ratios = y / x
        sigma = ratios.max()
        if not np.isfinite(sigma):
            raise ConvergenceError("Noda iteration overflowed")
        if sigma - ratios.min() <= tol * sigma:
            return x, steps, sigma
        if steps == max_iter:
            break
        bracket = (sigma - ratios.min()) / sigma
        # power steps still needed to reach tol at the last two steps' contraction
        left = (2 * math.log(tol / bracket) / math.log(bracket / two_back)
                if bracket < two_back < math.inf else math.inf)
        cheap = left <= min(d / 3, max_iter - steps)
        contracting = 4 * bracket <= two_back
        two_back, one_back = one_back, bracket
        if b is None and (cheap or (bracket > handover and contracting)):
            y /= y.max()
            if (y > 0).all():
                x = y
                continue
        if b is None:
            w, b = products[2](), np.empty((d, d))
        with np.errstate(over="ignore"):
            np.multiply(w, x, out=b)
            b /= x[:, None]
        b /= -np.nextafter(min(sigma, cap), np.inf)
        b.reshape(-1)[:: d + 1] += 1.0
        try:
            z = np.linalg.solve(b, np.ones(d))
        except np.linalg.LinAlgError:
            if cap < sigma:  # the cap is the root to working precision: shift by sigma
                cap = np.inf
                continue
            raise ConvergenceError("Noda iteration hit a singular shifted matrix") from None
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            x = np.abs(z) * x
            x /= x.max()
        if not (x > 0).all():  # a zero, infinite or NaN entry
            raise ConvergenceError("Noda iteration lost a positive finite iterate")
    raise ConvergenceError(f"Noda iteration did not converge in {max_iter} steps")


def perron(tm: TransferMatrix, tol: float = 1e-14, max_iter: int = 100) -> PerronData:
    """Perron eigendata by power steps and Noda's inverse iteration with
    Collatz-Wielandt shifts (Noda, Numer. Math. 17 (1971)), run on W for h
    and on W^T for nu (see :func:`_noda`).

    A power step is one product with W (or W^T) on its edge list, the
    recoding's transitions: O(edges), not O(d^2).  Each run stops when the
    Collatz-Wielandt bracket of the Perron root is within tol, in (0, 1),
    times its upper end.  Power steps run to the end while the steps still
    needed, estimated from the bracket's recent contraction, are at most
    d/3, about one LU of the d x d matrix in dense products (conservative
    for edge-list products, and kept so that step counts do not move);
    otherwise they shrink the bracket to about sqrt(tol) while they contract
    fast, and Noda's quadratic convergence finishes the run, usually in one
    solve.  A tiny spectral gap stalls the power steps and costs a few
    solves.  The Noda steps of the run for nu shift by at most the bound h's
    run converged to (W^T has the same root).  A run whose first
    Collatz-Wielandt bracket is very wide starts with log-domain power
    steps (:func:`_log_start`), so a coboundary added to phi, a diagonal
    similarity of W, does not stall it.  `max_iter`, an int >= 0, caps
    each run's steps of every kind; `iterations` is the larger count.
    The base shift is tested for mixing: its block presentation is
    conjugate to it, so W is primitive exactly when it is mixing, and then
    both Perron vectors exist and are positive.
    """
    if isinstance(tol, bool) or not isinstance(tol, (int, float, Fraction)) or not 0 < tol < 1:
        raise ValidationError(f"tol must be a number in (0, 1), got {tol!r}")
    if isinstance(max_iter, bool) or not isinstance(max_iter, (int, np.integer)) or max_iter < 0:
        raise ValidationError(f"max_iter must be an int >= 0, got {max_iter!r}")
    if mixing_index(tm.sft) is None:
        raise NotMixingError("shift is not topologically mixing; Perron data undefined")
    # mixing: every block has a successor and a predecessor, so every row of
    # W and of W^T has an edge, and the edge products keep x positive
    right, left = _edge_products(tm)
    h, steps_h, bound = _noda(right, tm.dimension, tol, max_iter)
    nu, steps_nu, _ = _noda(left, tm.dimension, tol, max_iter, cap=bound)
    wh, nuw = right[0](h), left[0](nu)
    lam = float(nuw @ h) / float(nu @ h)
    if not lam > 0:
        raise ConvergenceError("Perron root underflowed to zero: weights below float range")
    # the residual is relative, so it is taken before normalising
    residual = max(
        float(np.abs(wh - lam * h).max() / lam / h.max()),
        float(np.abs(nuw - lam * nu).max() / lam / nu.max()),
    )
    nu = nu / nu.sum()
    h = h / float(h @ nu)
    h.setflags(write=False)
    nu.setflags(write=False)
    return PerronData(tm=tm, lam=lam, h=h, nu=nu, residual=residual,
                      iterations=max(steps_h, steps_nu), exact=False)


def _clear_denominators(values) -> tuple[np.ndarray, int]:
    """Integers n_i (an object array) and the lcm D of the denominators of
    the rationals or floats v_i, with v_i = n_i / D."""
    ratios = [v.as_integer_ratio() for v in values]
    den = math.lcm(*(q for _, q in ratios))
    return np.array([p * (den // q) for p, q in ratios], dtype=object), den


def _simplest_between(lo: Fraction, hi: Fraction) -> Fraction:
    """The rational of least denominator in [lo, hi], 0 < lo <= hi, by
    continued fractions."""
    whole = math.ceil(lo)
    if whole <= hi:
        return Fraction(whole)
    whole -= 1  # whole < lo <= hi < whole + 1
    return whole + 1 / _simplest_between(1 / (hi - whole), 1 / (lo - whole))


def _positive_kernel(a: np.ndarray) -> np.ndarray | None:
    """Primitive integer vector (coprime entries) spanning the nullspace of
    the square integer object matrix `a` when that nullspace is a line
    through a positive vector, else None.

    One forward fraction-free elimination (Bareiss, Math. Comp. 22 (1968))
    to echelon form, on the active submatrix only: a pivot step sets each
    entry right of the pivot column in a lower row to (pivot * entry -
    row[c] * pivot row entry) / previous pivot, an exact division, so every
    entry is a minor of `a` and the last pivot p is the determinant of the
    pivot rows on the pivot columns.  With one free column f the kernel
    vector with x[f] = p is an integer vector by Cramer's rule, so
    back-substitution from the last echelon row up, x[c] = -(row . x right
    of c) / row[c], divides exactly too.
    """
    a = np.array(a, dtype=object)
    d, p = len(a), 1
    pivots, free = [], []  # the pivot column of each echelon row, the free columns
    for c in range(d):
        r = len(pivots)
        nonzero = np.flatnonzero(a[r:, c])
        if not nonzero.size:
            free.append(c)
            if len(free) > 1:
                return None
            continue
        if nonzero[0]:
            a[[r, r + nonzero[0]]] = a[[r + nonzero[0], r]]
        row = a[r]
        a[r + 1:, c + 1:] = (row[c] * a[r + 1:, c + 1:] - np.outer(a[r + 1:, c], row[c + 1:])) // p
        pivots.append(c)
        p = row[c]
    if not free:
        return None
    v = np.zeros(d, dtype=object)
    v[free[0]] = p
    for r in reversed(range(len(pivots))):
        c = pivots[r]
        v[c] = -(a[r, c + 1:] @ v[c + 1:]) // a[r, c]
    v = -v if v[0] < 0 else v
    return v // math.gcd(*v) if (v > 0).all() else None


def perron_exact(tm: TransferMatrix) -> PerronData:
    """Exact Perron data over Fractions, certified in integer arithmetic.

    With D the lcm of the weights' denominators, lambda = Lambda / D for an
    eigenvalue Lambda of the integer matrix M = D W (both stored on the
    transfer matrix), and a rational Lambda
    is an integer (the characteristic polynomial is monic).  Exact
    Collatz-Wielandt bounds (Wielandt, Math. Z. 52 (1950)) on the float
    Perron vector of :func:`perron` bracket Lambda; a bracket holding more
    than two integers (D lambda beyond float precision) offers only D times
    the simplest rational in bracket / D.  A candidate is certified when
    M - Lambda I and its transpose have kernels spanned by positive vectors,
    which by Perron-Frobenius only the spectral radius has, so no float
    value is trusted.  The kernel vectors h~, nu~ found by elimination are
    then checked on their own: M h~ = Lambda h~ and nu~^T M = Lambda nu~^T
    exactly, d^2 integer products, so the certificate does not rest on the
    elimination's bookkeeping.  Lambda and the primitive kernel vectors
    are kept with their pairing <nu~, h~> for the exact measures; the
    public lambda, h and nu are the normalised Fractions.  Raises
    ExactModeError when none certifies or the check fails.
    """
    if tm.int_weights is None:
        raise ExactModeError(
            "exact mode needs a weight-mode potential with rational entries"
        )
    approx = perron(tm)  # runs the mixing test
    d, m, den = tm.dimension, tm.int_weights, tm.denominator
    x = _clear_denominators(approx.h)[0]
    ratios = [Fraction(a, b) for a, b in zip(m @ x, x)]
    lo, hi = min(ratios), max(ratios)
    candidates = range(math.ceil(lo), math.floor(hi) + 1)
    if len(candidates) > 2:
        simplest = _simplest_between(lo / den, hi / den) * den
        candidates = [simplest.numerator] if simplest.denominator == 1 else []
    for big in candidates:
        shifted = m - big * np.eye(d, dtype=object)
        h = _positive_kernel(shifted)
        if h is not None and (nu := _positive_kernel(shifted.T)) is not None:
            break
    else:
        raise ExactModeError(
            "leading eigenvalue does not certify as a rational number; "
            "exact mode is unavailable for this system"
        )
    if not ((m @ h == big * h).all() and (nu @ m == big * nu).all()):
        raise ExactModeError("exact Perron vectors fail the eigen-equations")
    total, pairing = sum(nu), h @ nu
    h.setflags(write=False)
    nu.setflags(write=False)
    return PerronData(tm=tm, lam=Fraction(big, den),
                      h=tuple(Fraction(v * total, pairing) for v in h),
                      nu=tuple(Fraction(v, total) for v in nu), residual=0.0,
                      iterations=approx.iterations, exact=True, int_lam=big,
                      int_h=h, int_nu=nu, int_pairing=pairing)


def finish_measure(total, scale: float, n_steps: int, pd: PerronData):
    """Measure from total = nu . (product) . h, with the product's log scale
    and its number of block transitions.  Exact mode takes the integer total
    nu~ . (product of M) . h~ and returns the Fraction total / (<nu~, h~>
    Lambda^n), its one division; float mode returns the log of total e^scale
    / lambda^n (-inf for a zero total)."""
    if pd.exact:
        return Fraction(total, pd.int_pairing * pd.int_lam**n_steps)
    if total <= 0:
        return -math.inf
    return float(math.log(total) + scale - n_steps * pd.log_lam)


def measure_ratio(num, den, pd: PerronData):
    """Quotient of two measures as :func:`finish_measure` returns them: the
    Fraction num / den in exact mode, exp(num - den) of the logs in float
    mode, and None when either measure is zero."""
    if pd.exact:
        return num / den if num and den else None
    if num == -math.inf or den == -math.inf:
        return None
    return math.exp(num - den)


def cylinder_measure(pd: PerronData, word):
    """Gibbs measure of the cylinder [word].

    Returns the natural log of the measure in float mode (-inf for an
    inadmissible word) and the exact Fraction in exact mode (0 for an
    inadmissible word).  Words shorter than the block length are summed
    over their admissible block extensions.
    """
    w = tuple(word)
    tm = pd.tm
    rec = tm.recoding
    if not is_admissible(tm.sft, w):
        return finish_measure(0, 0.0, 0, pd)
    if not w:
        return Fraction(1) if pd.exact else 0.0
    nu, h = pd.vectors
    if len(w) < rec.block_length:
        extensions = np.flatnonzero((rec.block_array[:, :len(w)] == w).all(axis=1))
        total = sum(nu[i] * h[i] for i in extensions)
        return finish_measure(total, 0.0, 0, pd)
    blocks = block_word(rec, w)
    steps = list(zip(blocks, blocks[1:]))
    if pd.exact:
        total = nu[blocks[0]] * h[blocks[-1]]
        for a, b in steps:
            total *= tm.int_weights[a, b]
        return finish_measure(total, 0.0, len(steps), pd)
    scale = math.log(pd.h[blocks[-1]]) + sum(tm.log_weights[a, b] for a, b in steps)
    return finish_measure(pd.nu[blocks[0]], scale, len(steps), pd)


def domain_path(pd: PerronData, states: list, moves, max_words: int) -> list:
    """Extend a path of domain-word levels by one level per (blocks, blocks)
    boolean table in `moves`, and return it.

    A state (parent, rows, values, visited) holds a level's rows (their
    last blocks), each row's parent row in the level before (None at the
    first level) and value from its prefix (an integer, in an ``object``
    array, in exact mode, a log otherwise), and the count of rows visited
    so far.  A level grows every row by the blocks its last block may move
    to under the table, in row-major order, so rows stay lexicographic; the
    last state's values set the arithmetic, and a child's value is its
    parent's times the transition's integer weight of M in exact mode, plus
    its log weight otherwise.  The list, passed with at least its first
    state, is appended to; exceeding the budget raises EnumerationLimitError
    (:func:`count_visited`).  This is the one loop over domain-word levels:
    :func:`domain_rows` and the factor module's single-word oracle extend
    their paths with it."""
    tm = pd.tm
    _, rows, values, visited = states[-1]
    exact = values.dtype == object
    for table in moves:
        parent, child = table[rows].nonzero()
        if exact:
            values = values[parent] * tm.int_weights[rows[parent], child]
        else:
            values = values[parent] + tm.log_weights[rows[parent], child]
        rows, visited = child, count_visited(visited + len(child), max_words)
        states.append((parent, rows, values, visited))
    return states


def domain_end(pd: PerronData, rows: np.ndarray, values: np.ndarray):
    """The last level's values closed by h on each row's last block: times
    h~ in exact mode (``object`` values), plus log h otherwise."""
    if values.dtype == object:
        return values * pd.int_h[rows]
    return values + pd.log_vectors[1][rows]


def count_visited(visited: int, max_words: int, walk: str = "domain word expansion") -> int:
    """The visited-node count of a walk, checked against its budget: raises
    EnumerationLimitError, naming the walk, once it is exceeded."""
    if visited > max_words:
        raise EnumerationLimitError(f"{walk} exceeded its budget of {max_words} visited nodes")
    return visited


def domain_rows(pd: PerronData, n: int, max_words: int, exact: bool):
    """Level-synchronous expansion of the admissible base words of length
    n >= 1: (words, values, steps), the words as int rows, lexicographic.

    One :func:`domain_path` from every block, stepped n - min(n, k) times
    under the block adjacency (k the block length); for n < k each block
    gives the row of its first n symbols, so a word appears once per block
    it begins.  Each row carries its value from its prefix: the integer
    nu~[first] . prod M . h~[last] in exact mode (which needs exact Perron
    data), the log of nu[first] . prod W . h[last] otherwise, the measure of
    a row being its value finished by :func:`finish_measure` with `steps`
    block transitions.  The words are built from the path's (parent, rows)
    levels.  The budget counts visited rows, every prefix; exceeding it
    raises EnumerationLimitError (:func:`count_visited`).
    """
    tm = pd.tm
    k = tm.recoding.block_length
    head = min(n, k)
    rows = np.arange(tm.dimension)
    states = [(None, rows, (pd.int_nu if exact else pd.log_vectors[0])[rows],
               count_visited(len(rows), max_words))]
    states = domain_path(pd, states, [tm.follows] * (n - head), max_words)
    words = tm.recoding.block_array[rows, :head]
    for parent, rows, _, _ in states[1:]:
        words = np.concatenate([words[parent], tm.last_symbols[rows, None]], axis=1)
    _, rows, values, _ = states[-1]
    return words, domain_end(pd, rows, values), max(n - k, 0)


def level_log_measures(pd: PerronData, n: int,
                       max_words: int = DEFAULT_MAX_WORDS):
    """Bulk form of cylinder_measure: (words, float log measures) for all
    admissible base words of length n >= the block length, lexicographic,
    from one :func:`domain_rows` expansion (the budget counts its visited
    rows).  Used by the consistency test suites."""
    k = pd.tm.recoding.block_length
    if n < k:
        raise ValidationError(f"bulk measures need length >= block length {k}")
    words, logs, steps = domain_rows(pd, n, max_words, exact=False)
    return words, logs - steps * pd.log_lam


def gibbs_ratio_bounds(pd: PerronData, potential: Potential, max_len: int,
                       max_words: int = DEFAULT_MAX_WORDS) -> tuple[float, float]:
    """Observed Gibbs constants: min and max of mu[w] * lambda^n * e^{-S phi(w)}
    over all admissible words of each length up to max_len.

    The ratio equals nu[first block] * h[last block], so the bounds stabilize
    as soon as max_len exceeds the block length."""
    k = pd.tm.recoding.block_length
    if max_len < k + 1:
        raise ValidationError(f"max_len must be at least block length + 1 = {k + 1}")
    lo, hi = math.inf, -math.inf
    log_lam = pd.log_lam
    for n in range(k + 1, max_len + 1):
        words, logs = level_log_measures(pd, n, max_words)
        exponents = logs + (n - 1) * log_lam - birkhoff_sums(potential, words)
        ratios = list(map(math.exp, exponents.tolist()))
        lo, hi = min([lo, *ratios]), max([hi, *ratios])
    return lo, hi


def log_ln1_sup_norm(tm: TransferMatrix, n: int) -> float:
    """Log of the sup norm of the n-th transfer iterate applied to the
    constant one function: the log of the largest column sum of W^n.

    W^n is taken by repeated squaring, each product divided by its largest
    entry with that entry's log carried (the rule of the factor module's
    ``rescale_single``), so no power overflows however large n is; at
    n = 1 the column sums of W are read as they are."""
    if n < 1:
        raise ValidationError("n must be >= 1")

    def rescaled(x, scale):
        top = x.max()
        return x / top, scale + math.log(top)

    product, power = None, (tm.weights, 0.0)  # (matrix, log scale): W^n so far, W^(2^i)
    while True:
        if n & 1:
            product = power if product is None else rescaled(product[0] @ power[0],
                                                             product[1] + power[1])
        n >>= 1
        if not n:
            break
        power = rescaled(power[0] @ power[0], 2 * power[1])
    matrix, scale = product
    return scale + math.log(float(matrix.sum(axis=0).max()))
