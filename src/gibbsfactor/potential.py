"""Locally constant potentials, transfer matrices, Perron data, and Gibbs
cylinder measures.

A depth-k potential assigns a real value phi(w) to every admissible
(k+1)-word w (phi(x) depends on x_0..x_k).  The system is recoded to blocks
of length max(k, 1), on which the transfer operator is a nonnegative matrix

    W[i, j] = exp(phi(word_i . last(word_j)))   when block transition i -> j
              is allowed, 0 otherwise,

i.e. rows are indexed by source blocks and columns by target blocks.  With
W h = lambda h and nu^T W = lambda nu^T, sum(nu) = 1, <h, nu> = 1, the Gibbs
state of phi has cylinder masses

    mu[w_0 ... w_n] = lambda^{-m} (prod of W along the block word)
                      * nu[first block] * h[last block],

where m is the number of block transitions.  This is exactly the operator
representation of the measure; additivity, shift-invariance and total mass
follow from the eigen-equations.

Float Perron data come from Noda's inverse iteration: each step shifts by
the Collatz-Wielandt upper bound max (W x)/x of the Perron root and solves
one linear system, and the iteration stops when the Collatz-Wielandt
bracket [min, max] of (W x)/x is within the tolerance.  It converges
quadratically near the Perron vector, so a tiny spectral gap costs a few
steps rather than the 1/gap steps of power iteration.  Exact Perron data
certify an integer eigenvalue of the denominator-cleared weights by
fraction-free elimination (:func:`perron_exact`).

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

Measures of many domain words come from one level-synchronous expansion
under a per-position symbol mask, :func:`domain_rows`: unmasked it gives
:func:`level_log_measures` and, grouped by image word, the brute-force
oracle of the factor module for a whole word length; masked by one image
word's fibers it is that oracle for one word.
"""

from __future__ import annotations

import math
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
    Word,
    block_word,
    enumerate_words,
    higher_block_recode,
    is_admissible,
    mixing_index,
)

PHI_MODE = "phi"
WEIGHT_MODE = "weight"


@dataclass(frozen=True, eq=False)
class Potential:
    """Depth-k locally constant potential on an SFT.

    `phi` maps every admissible (k+1)-word to its potential value; `weights`
    holds e^phi.  `exact_weights` is present when the input was a table of
    positive rationals (weight mode), enabling exact arithmetic downstream.
    """

    sft: Sft
    depth: int
    mode: str
    phi: dict
    weights: dict
    exact_weights: dict | None

    @property
    def support_words(self) -> list[Word]:
        return sorted(self.phi.keys())


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
        value = value if isinstance(value, float) else Fraction(value)
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


def build_potential(sft: Sft, depth: int, mode: str, table: dict) -> Potential:
    """Validate a potential table: the header by :func:`check_header`, every
    value by :func:`table_value` (an error names the word).

    The table must cover every admissible (depth+1)-word.  Entries for other
    words are ignored with a warning.  Exact arithmetic is available when
    every weight is exact (weight mode with no float entries).
    """
    import warnings

    check_header(depth, mode)
    needed = enumerate_words(sft, depth + 1)
    needed_set = set(needed)
    values: dict = {}
    for key, raw in table.items():
        w = tuple(key)
        try:
            value = table_value(mode, raw)
        except ValidationError as e:
            raise ValidationError(f"potential value for word {w}: {e}") from None
        if w in needed_set:
            values[w] = value
        else:
            warnings.warn(f"ignoring entry for inadmissible word {w}", stacklevel=2)
    missing = [w for w in needed if w not in values]
    if missing:
        raise ValidationError(f"missing table entry for admissible word {missing[0]}")
    if mode == PHI_MODE:
        phi, weights = values, {w: math.exp(v) for w, v in values.items()}
    else:
        weights = {w: float(v) for w, v in values.items()}
        phi = {w: math.log(v) for w, v in weights.items()}
    exact = values if all(isinstance(v, Fraction) for v in values.values()) else None
    return Potential(sft=sft, depth=depth, mode=mode, phi=phi, weights=weights,
                     exact_weights=exact)


def variations(potential: Potential) -> list[float]:
    """var_n(phi) for n = 1..k: max |phi(u) - phi(v)| over admissible
    (k+1)-word pairs agreeing in coordinates 0..n-1.  Empty for depth 0
    (var_n = 0 for all n beyond the depth, by locality)."""
    k = potential.depth
    out = []
    words = potential.support_words
    for n in range(1, k + 1):
        groups: dict = {}
        for w in words:
            lo, hi = groups.get(w[:n], (math.inf, -math.inf))
            v = potential.phi[w]
            groups[w[:n]] = (min(lo, v), max(hi, v))
        out.append(max((hi - lo for lo, hi in groups.values()), default=0.0))
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
    sup = max((abs(v) for v in potential.phi.values()), default=0.0)
    return HolderEnvelope(theta=theta, holder_constant=const, sup_norm=sup,
                          variations=tuple(var))


def birkhoff_sum(potential: Potential, word) -> float:
    """Sum of phi over the sliding (k+1)-windows of an admissible word;
    the word determines this Birkhoff sum exactly."""
    w = tuple(word)
    k = potential.depth
    if len(w) < k + 1:
        raise ValidationError(f"word of length {len(w)} too short for depth {k}")
    if not is_admissible(potential.sft, w):
        raise ValidationError("word is not admissible")
    return sum(potential.phi[w[i:i + k + 1]] for i in range(len(w) - k))


@dataclass(frozen=True, eq=False)
class TransferMatrix:
    """Weighted adjacency of the block recoding: W[i, j] = weight of the
    block transition i -> j (source-row orientation)."""

    sft: Sft
    potential: Potential
    recoding: Recoding
    weights: np.ndarray            # (d, d) float
    log_weights: np.ndarray        # log W, -inf where forbidden
    int_weights: np.ndarray | None  # M = D W, (d, d) int object array, or None
    denominator: int | None        # D, lcm of the rational weights' denominators

    @property
    def dimension(self) -> int:
        return self.weights.shape[0]

    @cached_property
    def exact_weights(self) -> np.ndarray | None:
        """W = M / D as a read-only (d, d) object array of Fraction, or None
        without rational weights."""
        if self.int_weights is None:
            return None
        w = self.int_weights * Fraction(1, self.denominator)
        w.setflags(write=False)
        return w


def transfer_matrix(sft: Sft, potential: Potential,
                    max_words: int = DEFAULT_MAX_WORDS) -> TransferMatrix:
    """Build the block transfer matrix of a potential.

    Depth-k systems are recoded to blocks of length max(k, 1); the entry for
    an allowed block transition i -> j is the weight of the (k+1)-word
    word_i . last(word_j) (truncated to the depth window for depth 0).
    """
    if potential.sft is not sft:
        raise ValidationError("potential was built for a different SFT")
    k = max(potential.depth, 1)
    rec = higher_block_recode(sft, k, max_words)
    d = rec.size
    w = np.zeros((d, d))
    exact = ints = den = None
    if potential.exact_weights is not None:
        exact = np.full((d, d), Fraction(0), dtype=object)
    window = potential.depth + 1
    adj = rec.block_sft.adjacency
    for i, u in enumerate(rec.block_words):
        for j in np.flatnonzero(adj[i]):
            full = u + (rec.block_words[j][-1],)
            key = full[:window]
            w[i, j] = potential.weights[key]
            if exact is not None:
                exact[i, j] = potential.exact_weights[key]
    if exact is not None:
        ints, den = _clear_denominators(exact.flat)
        ints = ints.reshape(d, d)
    with np.errstate(divide="ignore"):
        logw = np.log(w)
    for m in (w, logw, ints):
        if m is not None:
            m.setflags(write=False)
    return TransferMatrix(sft=sft, potential=potential, recoding=rec, weights=w,
                          log_weights=logw, int_weights=ints, denominator=den)


@dataclass(frozen=True, eq=False)
class PerronData:
    """Leading eigendata of a transfer matrix.

    h is the right eigenvector (W h = lambda h), nu the left one
    (nu^T W = lambda nu^T), normalized so sum(nu) = 1 and <h, nu> = 1.
    `residual` is relative, the larger of |W h - lambda h| / (lambda max h)
    and |nu^T W - lambda nu^T| / (lambda max nu) in the maximum norm.  In
    exact mode all three are Fractions and residual is exactly zero, and the
    integer form the exact measures read is kept alongside.
    `iterations` counts the inverse-iteration steps of :func:`perron`.
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


def _noda(w: np.ndarray, tol: float, max_iter: int) -> tuple[np.ndarray, int]:
    """Right Perron vector of a nonnegative irreducible matrix by Noda's
    inverse iteration, from the all-ones vector; returns (x, steps) with x
    normalised to max 1.

    Each step takes the Collatz-Wielandt bounds min and max of (W x)/x,
    which bracket the Perron root, shifts by sigma = the upper bound raised
    one ulp (so sigma I - W is nonsingular with a positive inverse), and
    sets x <- |(sigma I - W)^-1 x|.  The solve runs on the diagonal
    similarity B = D^-1 W D, D = diag(x), as x * (I - B / sigma)^-1 1: B
    has row sums (W x)/x and a Perron vector near all-ones, so small entries
    of x keep their relative accuracy, and dividing by sigma keeps the
    solution finite however small or large the weights.  It stops once the
    bracket is within tol * sigma.  A singular or non-finite solve, or an
    entry that underflows to zero, raises ConvergenceError.
    """
    d = len(w)
    x = np.ones(d)
    eye = np.eye(d)
    for steps in range(max_iter + 1):
        with np.errstate(over="ignore"):  # an overflow shows as sigma = inf
            b = w * x / x[:, None]
            ratios = b.sum(axis=1)
        sigma = ratios.max()
        if not np.isfinite(sigma):
            raise ConvergenceError("Noda iteration overflowed")
        if sigma - ratios.min() <= tol * sigma:
            return x, steps
        if steps == max_iter:
            break
        try:
            z = np.linalg.solve(eye - b / np.nextafter(sigma, np.inf), np.ones(d))
        except np.linalg.LinAlgError:
            raise ConvergenceError("Noda iteration hit a singular shifted matrix") from None
        y = np.abs(z) * x
        top = y.max()
        if not np.isfinite(top) or not (y > 0).all():
            raise ConvergenceError("Noda iteration lost a positive finite iterate")
        x = y / top
    raise ConvergenceError(f"Noda iteration did not converge in {max_iter} steps")


def perron(tm: TransferMatrix, tol: float = 1e-14, max_iter: int = 100) -> PerronData:
    """Perron eigendata by Noda's inverse iteration with Collatz-Wielandt
    shifts (Noda, Numer. Math. 17 (1971)), run on W for h and on W^T for nu.

    Each run stops when the Collatz-Wielandt bracket of the Perron root is
    within tol times its upper end.  Near the Perron vector the convergence
    is quadratic, so a few steps suffice even for a tiny spectral gap; from
    the all-ones start on weights spanning many decades the upper bound
    first falls about twofold per step.  `max_iter` caps the steps
    of each run, and `iterations` reports the larger of the two step counts
    (one step is one shifted linear solve).  Mixing of the block shift makes
    W primitive, so both Perron vectors exist and are positive.
    """
    if tol <= 0:
        raise ValidationError("tol must be positive")
    if mixing_index(tm.recoding.block_sft) is None:
        raise NotMixingError("block shift is not topologically mixing; Perron data undefined")
    w = tm.weights
    h, steps_h = _noda(w, tol, max_iter)
    nu, steps_nu = _noda(w.T, tol, max_iter)
    lam = float(nu @ w @ h) / float(nu @ h)
    if not lam > 0:
        raise ConvergenceError("Perron root underflowed to zero: weights below float range")
    nu = nu / nu.sum()
    h = h / float(h @ nu)
    residual = max(
        float(np.abs(w @ h - lam * h).max() / lam / h.max()),
        float(np.abs(nu @ w - lam * nu).max() / lam / nu.max()),
    )
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

    Fraction-free Gauss-Jordan elimination (Bareiss, Math. Comp. 22 (1968)):
    a pivot step sets each other row to (pivot * row - row[c] * pivot row)
    / previous pivot, an exact division, so every pivot ends equal to the
    last one, p.  The kernel vector is then p at the free column f and
    -a[r, f] at the pivot column of row r.
    """
    d, p = len(a), 1
    pivots: dict = {}  # pivot column -> its row
    for c in range(d):
        rows = [r for r in np.flatnonzero(a[:, c]) if r not in pivots.values()]
        if rows:
            row = a[rows[0]]
            a = (row[c] * a - np.outer(a[:, c], row)) // p
            a[rows[0]] = row
            pivots[c], p = rows[0], row[c]
    free = [c for c in range(d) if c not in pivots]
    if len(free) != 1:
        return None
    v = np.array([p if c == free[0] else -a[pivots[c], free[0]] for c in range(d)],
                 dtype=object)
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
    value is trusted.  Lambda and the primitive kernel vectors h~, nu~ are
    kept with their pairing <nu~, h~> for the exact measures; the public
    lambda, h and nu are the normalised Fractions.  Raises ExactModeError
    when none certifies.
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


def _short_word_blocks(rec: Recoding, word: Word) -> list[int]:
    """Block symbols whose base word extends a too-short cylinder word."""
    n = len(word)
    return [i for i, bw in enumerate(rec.block_words) if bw[:n] == word]


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
        total = sum(nu[i] * h[i] for i in _short_word_blocks(rec, w))
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


def domain_rows(pd: PerronData, allowed: np.ndarray, max_words: int, exact: bool):
    """Level-synchronous expansion of the admissible base words whose symbol
    at position t is allowed by the (n, d) boolean mask `allowed`.

    Rows start from the blocks whose first min(n, k) symbols are allowed (k
    the block length; for n < k one row per block) and grow by the allowed
    block successors of their last block, so they stay lexicographic.  Each
    row carries its value from its prefix: the integer nu~[first] . prod M .
    h~[last] in exact mode (which needs exact Perron data), the log of
    nu[first] . prod W . h[last] otherwise.  Returns (words, values, steps),
    the measure of a row being its value finished by :func:`finish_measure`
    with `steps` block transitions.  The budget
    counts visited rows, every prefix; exceeding it raises
    EnumerationLimitError.
    """
    tm = pd.tm
    rec = tm.recoding
    n, k = len(allowed), rec.block_length
    combine = np.multiply if exact else np.add
    weights = tm.int_weights if exact else tm.log_weights
    nu, h = ((pd.int_nu, pd.int_h) if exact
             else (np.log(np.asarray(v, dtype=float)) for v in (pd.nu, pd.h)))
    block_words = np.array(rec.block_words, dtype=np.intp)
    head = min(n, k)
    rows = np.flatnonzero(allowed[np.arange(head), block_words[:, :head]].all(axis=1))
    words, values = block_words[rows, :head], nu[rows]
    adjacency = rec.block_sft.adjacency.astype(bool)
    last = block_words[:, -1]
    visited = 0
    for t in range(head, n + 1):
        visited += len(rows)
        if visited > max_words:
            raise EnumerationLimitError(
                f"domain word expansion exceeded its budget of {max_words} visited nodes")
        if t == n:
            break
        parent, child = np.nonzero(adjacency[rows] & allowed[t][last])
        values = combine(values[parent], weights[rows[parent], child])
        words = np.column_stack([words[parent], last[child]])
        rows = child
    return words, combine(values, h[rows]), max(n - k, 0)


def level_log_measures(pd: PerronData, n: int,
                       max_words: int = DEFAULT_MAX_WORDS):
    """Bulk form of cylinder_measure: (words, float log measures) for all
    admissible base words of length n >= the block length, lexicographic,
    from the unmasked :func:`domain_rows` expansion (the budget counts its
    visited rows).  Used by the consistency test suites."""
    k = pd.tm.recoding.block_length
    if n < k:
        raise ValidationError(f"bulk measures need length >= block length {k}")
    allowed = np.ones((n, pd.tm.sft.size), dtype=bool)
    words, logs, steps = domain_rows(pd, allowed, max_words, exact=False)
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
        for w, logmu in zip(words.tolist(), logs.tolist()):
            ratio = math.exp(logmu + (n - 1) * log_lam - birkhoff_sum(potential, w))
            lo = min(lo, ratio)
            hi = max(hi, ratio)
    return lo, hi


def ln1_sup_norm(tm: TransferMatrix, n: int) -> float:
    """Sup norm of the n-th transfer iterate applied to the constant one
    function: the largest column sum of W^n."""
    if n < 1:
        raise ValidationError("n must be >= 1")
    p = np.linalg.matrix_power(tm.weights, n)
    return float(p.sum(axis=0).max())
