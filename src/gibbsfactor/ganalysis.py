"""Regularity analysis of the projected measure's g-function.

The g-function of the projected measure is the limit of the one-step
conditional probabilities

    g_n(y_0 ... y_n) = proj[y_0 ... y_n] / proj[y_1 ... y_n],

evaluated here at cylinder approximants (fixed truncation) and along
eventually periodic points.  There the word and its suffix share every
image block but the first, so each stage is one ratio of two rows carried
through the same product; the rows gain 2^j tail cycles from stage j to
j+1 by one product with a repeatedly squared cycle power, and the stage
values are Aitken-extrapolated.  Variation profiles measure how fast
log g_n varies across words sharing a prefix, a least-squares fit
classifies the decay as exponential or polynomial, and the explicit
Birkhoff-contraction rate bound provides the theoretical comparison line.
The log measures of whole word lengths come from the factor module's
:func:`~gibbsfactor.factor.level_measures` in float arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ValidationError
from .factor import (
    FactorSystem,
    carry_product,
    image_block_word,
    level_measures,
    projected_measure,
    rescale_single,
    sorted_runs,
    sum_runs,
)
from .potential import PerronData, measure_ratio
from .sft import DEFAULT_MAX_WORDS, Word


@dataclass(frozen=True)
class GApproximant:
    """One-step conditional probability at a finite word; value in (0, 1]."""

    word: Word
    value: float | Fraction
    n: int


def g_approx(fs: FactorSystem, pd: PerronData, yword) -> GApproximant:
    """Ratio of projected measures of a word and its first-symbol-dropped
    suffix.  The word must be admissible with length >= block length + 1."""
    w = tuple(yword)
    if len(w) < fs.block_length + 1:
        raise ValidationError("g approximant needs at least two block symbols")
    value = measure_ratio(projected_measure(fs, pd, w), projected_measure(fs, pd, w[1:]), pd)
    if value is None:
        raise ValidationError("image word is not admissible")
    return GApproximant(word=w, value=value, n=len(w) - 1)


@dataclass(frozen=True)
class GLimitResult:
    value: float
    error_estimate: float
    converged: bool
    stages: tuple          # (n, float value) per stage
    exact_stages: tuple | None  # Fractions in exact mode


def g_limit(fs: FactorSystem, pd: PerronData, prefix, tail,
            jmax: int = 16, tol: float = 1e-9) -> GLimitResult:
    """g at the eventually periodic point prefix . tail^infinity.

    Stage j evaluates the cylinder ratio of the word w = prefix . tail^(2^j)
    (an empty prefix reads as one tail copy followed by 2^j - 1 more) and its
    suffix w[1:], from the first j at which the tail part covers a block and
    the suffix spans two blocks.  The suffix's image blocks are the word's
    minus the first, so from the second block on both measures are one
    product: the rows [nu_{b_0} L_{b_0 b_1}, nu_{b_1}] carried along the
    word, and

        g_j = (row_0 . h) / (row_1 . h) / lambda,

    with h on the last block's fiber.  The rows share one rescaling, so the
    ratio needs no log scale or power of lambda.  In exact mode the rows are
    integer (nu~ and the blocks of M = D W, the transfer matrix's integer
    form) and a stage is the one division Fraction(row_0 . h~, (row_1 . h~)
    Lambda), Lambda = D lambda.  From stage j to j+1 the word grows by 2^j
    full tail cycles: the rows take one product with P^(2^j), P the
    one-cycle product from the block the word ends in, which is then
    squared.  The rows and P step through the padded block table of their
    arithmetic (:meth:`~gibbsfactor.factor.FactorSystem.stack`), from the
    fiber vectors of :meth:`~gibbsfactor.factor.FactorSystem.gather`.
    Admissibility is decided on the 0/1 supports, carried beside, so a
    float stage that underflows to zero (a renormalised power of a
    non-primitive cycle product loses its small entries) ends the stages
    there.  Aitken delta-squared acceleration is applied to the last three
    stages.  Convergence is reported, never raised: slow sequences (e.g. 1/n
    gaps) still return their best value.
    """
    prefix = tuple(prefix)
    tail = tuple(tail)
    if not tail:
        raise ValidationError("periodic tail must be nonempty")
    k, c = fs.block_length, len(tail)
    word, shift = (prefix, 0) if prefix else (tail, 1)
    j0 = 0
    while c * (2**j0 - shift) < k or len(word) + c * (2**j0 - shift) < k + 2:
        j0 += 1
    # the stage-j0 word, then one more cycle for the cycle product
    blocks = image_block_word(fs, word + tail * (2**j0 - shift + 1))
    if blocks is None or not fs.follows[blocks[0], blocks[1]]:
        raise ValidationError("point is not admissible")
    n = len(blocks) - c
    nu, h = map(fs.gather, pd.vectors)
    stack = fs.stack(nu.dtype)
    rows = np.stack([nu[blocks[0]] @ stack[fs.index[blocks[0], blocks[1]]], nu[blocks[1]]])
    eye = fs.eye(nu.dtype)[blocks[n - 1]]
    carried = [carry_product(fs, blocks[1:n], rows), carry_product(fs, blocks[n - 1:], eye)]
    if None in carried:
        raise ValidationError("point is not admissible")
    (rows, _), (power, _) = carried
    if j0 > jmax:
        raise ValidationError("jmax too small for this point's block structure")
    h = h[blocks[n - 1]]

    def times(x, m):
        return rescale_single(x @ m, 0.0)[0]

    # the 0/1 supports of the rows and the power, carried in boolean
    # arithmetic, which cannot underflow: a stage word lifts iff no row of
    # its support is empty
    live, cycle = rows != 0, power != 0
    for _ in range(j0):
        power, cycle = times(power, power), cycle @ cycle
    stages = []
    ratios = []
    for j in range(j0, jmax + 1):
        if j > j0:
            rows, live = times(rows, power), live @ cycle
            if j < jmax:
                power, cycle = times(power, power), cycle @ cycle
        num, den = rows @ h
        if not (num > 0 and den > 0):
            if not live.any(axis=1).all():
                raise ValidationError("point is not admissible")
            break  # the float stage underflowed: report the stages before it
        ratios.append(Fraction(num, den * pd.int_lam) if pd.exact else num / den / pd.lam)
        stages.append((len(word) + c * (2**j - shift) - 1, float(ratios[-1])))
    values = [v for _, v in stages]
    # Aitken delta-squared on successive stage triples
    extrapolants = []
    for t in range(2, len(values)):
        x0, x1, x2 = values[t - 2], values[t - 1], values[t]
        d2 = x2 - 2 * x1 + x0
        if d2 == 0:
            extrapolants.append(x2)
        else:
            extrapolants.append(x0 - (x1 - x0) ** 2 / d2)
    if len(extrapolants) >= 2:
        err = abs(extrapolants[-1] - extrapolants[-2])
        value = extrapolants[-1]
        converged = err < tol
    elif extrapolants:
        value, err, converged = extrapolants[-1], math.inf, False
    else:
        value, err, converged = values[-1], math.inf, False
        if len(values) > 1 and values[-1] == values[-2]:
            err, converged = 0.0, True
    return GLimitResult(value=value, error_estimate=err, converged=converged,
                        stages=tuple(stages),
                        exact_stages=tuple(ratios) if pd.exact else None)


def image_log_measure_map(fs: FactorSystem, pd: PerronData, length: int,
                          max_words: int = DEFAULT_MAX_WORDS) -> dict:
    """log projected measure for every admissible image word of `length`,
    from one :func:`~gibbsfactor.factor.level_measures` sweep carrying the
    renormalized float row vectors.  The budget counts nodes visited (every
    prefix, not only finished words)."""
    words, logs = level_measures(fs, pd, length, max_words, exact=False)
    return dict(zip(map(tuple, words.tolist()), logs.tolist()))


@dataclass(frozen=True)
class VariationProfile:
    """Estimated variations of log g at truncation m: var_hat[n-1] is the
    largest spread of log g_m over image words agreeing in coordinates
    0..n-1.  Nonincreasing in n by construction."""

    m: int
    n_values: tuple[int, ...]
    var_hat: tuple[float, ...]
    pair_counts: tuple[int, ...]


def variation_profile(fs: FactorSystem, pd: PerronData, m: int, n_max: int,
                      max_words: int = DEFAULT_MAX_WORDS) -> VariationProfile:
    """Empirical variation decay of the g approximants at truncation m.

    Evaluates log g_m on every admissible image word of length m+1, from one
    level of measures (each suffix's measure is the sum over the words
    extending it by one symbol on the left), then for each n takes the
    maximal spread within prefix classes of depth n.  The words come
    lexicographic, so each prefix class is a contiguous run.
    """
    k = fs.block_length
    if m < k + 1:
        raise ValidationError(f"m must be at least block length + 1 = {k + 1}")
    if not 2 <= n_max < m:
        raise ValidationError("need 2 <= n_max < m")
    words, logs = level_measures(fs, pd, m + 1, max_words, exact=False)
    # shift invariance: the suffix y_1..y_m has measure sum_a proj[a y_1..y_m]
    order, starts = sorted_runs(words[:, 1:])
    totals, scales = sum_runs(logs[order], starts)
    suffix_logs = np.empty_like(logs)
    suffix_logs[order] = np.repeat(np.log(totals) + scales, np.diff(starts, append=len(logs)))
    ghat = logs - suffix_logs
    # coordinate at which each word first differs from the one before it
    first_diff = (words[1:] != words[:-1]).argmax(axis=1)
    n_values = tuple(range(1, n_max + 1))
    var_hat = []
    pair_counts = []
    for n in n_values:
        # a class starts at the first word and wherever a word leaves the prefix
        starts = np.flatnonzero(np.concatenate(([len(words) > 0], first_diff < n)))
        spread = np.maximum.reduceat(ghat, starts) - np.minimum.reduceat(ghat, starts)
        sizes = np.diff(np.append(starts, len(words)))
        var_hat.append(float(spread.max(initial=0.0)))
        pair_counts.append(int((sizes * (sizes - 1) // 2).sum()))
    return VariationProfile(m=m, n_values=n_values, var_hat=tuple(var_hat),
                            pair_counts=tuple(pair_counts))


@dataclass(frozen=True)
class DecayFit:
    """Least-squares classification of a variation profile's decay regime."""

    exp_rate: float          # rho in var_n ~ rho^n
    poly_exponent: float     # p in var_n ~ n^-p
    r_squared_exp: float
    r_squared_poly: float
    classification: str      # exponential | polynomial | inconclusive | constant
    window: tuple[int, int]
    points: int


def _linfit(x: np.ndarray, y: np.ndarray) -> tuple[float, float, float]:
    slope, intercept = np.polyfit(x, y, 1)
    pred = slope * x + intercept
    ss_res = float(((y - pred) ** 2).sum())
    ss_tot = float(((y - y.mean()) ** 2).sum())
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return float(slope), float(intercept), r2


def decay_fit(profile: VariationProfile, n0: int = 2) -> DecayFit:
    """Fit both log var_n ~ a + n log(rho) and log var_n ~ a - p log(n) on
    the window n >= n0 (zero entries excluded) and classify by fit quality.
    An all-zero profile is the Hölder-trivial case, classified 'constant'."""
    pts = [(n, v) for n, v in zip(profile.n_values, profile.var_hat)
           if n >= n0 and v > 0]
    if all(v == 0 for v in profile.var_hat):
        return DecayFit(exp_rate=0.0, poly_exponent=math.inf, r_squared_exp=1.0,
                        r_squared_poly=1.0, classification="constant",
                        window=(n0, profile.n_values[-1]), points=0)
    if len(pts) < 3:
        raise ValidationError("insufficient positive points for a decay fit")
    n = np.array([p[0] for p in pts], dtype=float)
    logv = np.log(np.array([p[1] for p in pts]))
    slope_exp, _, r2_exp = _linfit(n, logv)
    slope_poly, _, r2_poly = _linfit(np.log(n), logv)
    rho = math.exp(slope_exp)
    p = -slope_poly
    if r2_exp >= r2_poly and rho < 1:
        cls = "exponential"
    elif r2_poly > r2_exp and p > 0:
        cls = "polynomial"
    else:
        cls = "inconclusive"
    return DecayFit(exp_rate=rho, poly_exponent=p, r_squared_exp=r2_exp,
                    r_squared_poly=r2_poly, classification=cls,
                    window=(int(n[0]), int(n[-1])), points=len(pts))


def eta_full_shift(theta: float, holder_constant: float, sigma: float) -> float:
    """Explicit contraction rate for full-shift factors:
    tanh((log((1+sigma)/(1-sigma)) + sigma*C*theta/(sigma-theta)) / 2).
    Equals sigma exactly when the potential is constant (C = 0)."""
    if not 0 < theta < sigma < 1:
        raise ValidationError("need 0 < theta < sigma < 1")
    inner = math.log((1 + sigma) / (1 - sigma))
    inner += sigma * holder_constant * theta / (sigma - theta)
    return math.tanh(inner / 2.0)


@dataclass(frozen=True)
class EtaBound:
    """Theoretical contraction-rate bound for the projected g-function.

    m_const bounds the projective diameter of every admissible span-N block
    product on the invariant cone; eta = tanh(m_const/4) is the per-span
    contraction factor, so var_n(log g) = O(eta^(n/N)) with prefactor
    m_const * eta^(-2).  full_shift_eta carries the sharper full-shift value
    when N = 1 (the general bound keeps extra operator-norm terms)."""

    theta: float
    sigma: float
    n_steps: int
    cone_constant: float     # K of the invariant cone
    m_const: float
    eta: float
    prefactor: float
    full_shift_eta: float | None


def eta_general(theta: float, holder_constant: float, sup_norm: float,
                log_ln1_sup_norm: float, n_steps: int, sigma: float) -> EtaBound:
    """General rate bound for a fiber-wise mixing factor with span N.

    K = C/(sigma - theta^N) * sum_{i=1}^{N} theta^i picks the invariant cone;
    the diameter bound is
        M = 2 log((1+sigma)/(1-sigma)) + 2 N ||phi||_inf + 2 theta K
            + 2 log ||L^N 1||_inf
    and eta = tanh(M/4), with log ||L^N 1||_inf given as `log_ln1_sup_norm`
    (:func:`~gibbsfactor.potential.log_ln1_sup_norm`).  Requires
    theta^N < sigma < 1.
    """
    if n_steps < 1:
        raise ValidationError("n_steps must be >= 1")
    if not 0 < theta < 1:
        raise ValidationError("theta must lie in (0, 1)")
    if not theta**n_steps < sigma < 1:
        raise ValidationError("need theta^N < sigma < 1")
    if not math.isfinite(log_ln1_sup_norm):
        raise ValidationError("log_ln1_sup_norm must be finite")
    # sum_{i=1}^{N} theta^i in closed form; expm1 keeps it accurate near theta = 1
    geo = theta * -math.expm1(n_steps * math.log(theta)) / (1 - theta)
    cone_k = holder_constant / (sigma - theta**n_steps) * geo
    m_const = (
        2 * math.log((1 + sigma) / (1 - sigma))
        + 2 * n_steps * sup_norm
        + 2 * theta * cone_k
        + 2 * log_ln1_sup_norm
    )
    eta = math.tanh(m_const / 4.0)
    fse = eta_full_shift(theta, holder_constant, sigma) if n_steps == 1 else None
    return EtaBound(theta=theta, sigma=sigma, n_steps=n_steps,
                    cone_constant=cone_k, m_const=m_const, eta=eta,
                    prefactor=m_const / eta**2, full_shift_eta=fse)


def _full_shift_bound(theta: float, holder_constant: float, sigma: float) -> EtaBound:
    cone_k = holder_constant * theta / (sigma - theta)
    m_const = 2 * math.log((1 + sigma) / (1 - sigma)) + 2 * sigma * cone_k
    eta = eta_full_shift(theta, holder_constant, sigma)  # tanh(m_const / 4)
    return EtaBound(theta=theta, sigma=sigma, n_steps=1, cone_constant=cone_k,
                    m_const=m_const, eta=eta, prefactor=m_const / eta**2 if eta > 0 else math.inf,
                    full_shift_eta=eta)


def eta_optimize(theta: float, holder_constant: float, n_steps: int = 1,
                 sup_norm: float | None = None, log_ln1_sup_norm: float | None = None,
                 grid_size: int = 64, full_shift: bool = False) -> EtaBound:
    """Minimize the rate bound over sigma on a geometric grid in
    (theta^N, 1); ties break toward smaller sigma.  With full_shift=True the
    sharper full-shift formula is used (requires N = 1)."""
    if grid_size < 2:
        raise ValidationError("grid_size must be >= 2")
    if full_shift and n_steps != 1:
        raise ValidationError("full-shift formula applies only at N = 1")
    if not full_shift and (sup_norm is None or log_ln1_sup_norm is None):
        raise ValidationError("general bound needs sup_norm and log_ln1_sup_norm")
    lo = theta**n_steps
    offsets = np.geomspace(1e-4, 1 - 1e-9, grid_size)
    best: EtaBound | None = None
    for g in offsets:
        sigma = lo + (1 - lo) * float(g)
        if not lo < sigma < 1:
            continue
        if full_shift:
            bound = _full_shift_bound(theta, holder_constant, sigma)
        else:
            bound = eta_general(theta, holder_constant, sup_norm, log_ln1_sup_norm,
                                n_steps, sigma)
        if best is None or bound.eta < best.eta:
            best = bound
    if best is None:
        raise ValidationError("empty sigma grid")
    return best


@dataclass(frozen=True)
class RateVerdict:
    empirical_rate: float
    theoretical_rate: float
    satisfied: bool


def rate_compare(fit: DecayFit, bound: EtaBound, slack: float = 0.02) -> RateVerdict:
    """Check the empirical decay rate against the theoretical bound
    eta^(1/N).  Constant (all-zero) profiles are vacuously within bound."""
    theoretical = bound.eta ** (1.0 / bound.n_steps)
    if fit.classification == "constant":
        return RateVerdict(empirical_rate=0.0, theoretical_rate=theoretical,
                           satisfied=True)
    if fit.classification != "exponential":
        raise ValidationError(
            f"rate comparison needs an exponential fit, got {fit.classification!r}"
        )
    return RateVerdict(empirical_rate=fit.exp_rate, theoretical_rate=theoretical,
                       satisfied=fit.exp_rate <= theoretical + slack)
