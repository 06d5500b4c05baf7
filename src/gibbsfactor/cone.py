"""Hilbert projective metric on the nonnegative orthant, projective
diameters, and Birkhoff contraction coefficients.

For x, y in the orthant, alpha(x, y) = sup{t > 0 : y - t x >= 0} and
beta(x, y) = inf{t > 0 : t x - y >= 0}; the projective distance is
Theta(x, y) = log(beta / alpha), infinite exactly when the supports differ.
A nonnegative matrix M contracts Theta by tanh(diam/4), where diam is the
projective diameter of its column set.  Locally constant functions collapse
the relevant function cones to the orthant, so this module is the finite
dimensional home of all the contraction arguments used elsewhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .factor import fiber_mask, walk_image_words
from .sft import DEFAULT_MAX_WORDS


def _as_cone_vector(x) -> np.ndarray:
    v = np.asarray(x, dtype=float)
    if v.ndim != 1:
        raise ValidationError("cone points must be 1-d vectors")
    if (v < 0).any():
        raise ValidationError("cone points must be nonnegative")
    if not (v > 0).any():
        raise ValidationError("cone points must have at least one positive entry")
    return v


def _cone_pair(x, y) -> tuple[np.ndarray, np.ndarray]:
    xv = _as_cone_vector(x)
    yv = _as_cone_vector(y)
    if xv.shape != yv.shape:
        raise ValidationError("dimension mismatch")
    return xv, yv


def hilbert_alpha_beta(x, y) -> tuple[float, float]:
    """Extremal order comparisons of two orthant points.

    alpha = min over the support of x of y_i/x_i (0 when y vanishes there),
    beta = max over the support of y of y_i/x_i (inf when x vanishes there).
    These are float quotients: a ratio above the float range reads as inf
    and one below it as 0, without a warning, so they can look like a
    support mismatch; :func:`hilbert_distance` takes logs instead.
    """
    xv, yv = _cone_pair(x, y)
    sx = xv > 0
    sy = yv > 0
    with np.errstate(over="ignore", under="ignore"):
        alpha = float((yv[sx] / xv[sx]).min())
        beta = math.inf if (sy & ~sx).any() else float((yv[sy] / xv[sy]).max())
    return alpha, beta


def hilbert_distance(x, y) -> float:
    """Theta(x, y) = log(beta/alpha); infinite iff the supports differ.
    Projective: scaling either argument by a positive constant is invisible.
    log beta - log alpha is the largest minus the smallest log ratio over
    the shared support, the log of y_i / x_i where that quotient is a normal
    float and log y_i - log x_i where it is not, so points whose ratios
    leave the float range keep a finite distance."""
    xv, yv = _cone_pair(x, y)
    support = xv > 0
    if (support != (yv > 0)).any():
        return math.inf
    with np.errstate(over="ignore", under="ignore"):
        ratios = yv[support] / xv[support]
    normal = (ratios >= np.finfo(float).tiny) & (ratios < math.inf)
    logs = np.log(ratios, where=normal, out=np.log(yv[support]) - np.log(xv[support]))
    return float(logs.max() - logs.min())


@dataclass(frozen=True)
class DualFormulaReport:
    """Cross-check of the dual-functional formula for the Hilbert metric."""

    closed_form: float
    coordinate_sup: float
    sampled_max: float
    samples: int
    seed: int


def dual_formula_check(x, y, sample_count: int = 10_000, seed: int = 0) -> DualFormulaReport:
    """Check that Theta(x, y) equals the supremum of
    log(<x, phi><y, psi> / (<y, phi><x, psi>)) over nonnegative dual pairs.

    On the orthant the supremum is attained at coordinate functionals, so
    the coordinate supremum must reproduce the closed form; random sampled
    duals can never exceed it.  Also asserts the zero-pairing equivalence
    <x, phi> = 0 iff <y, phi> = 0 on every sample.
    """
    xv = _as_cone_vector(x)
    yv = _as_cone_vector(y)
    closed = hilbert_distance(xv, yv)
    if closed == math.inf:
        raise ValidationError("dual formula check needs finite distance")
    support = xv > 0
    ratios = yv[support] / xv[support]
    coordinate_sup = math.log(ratios.max()) - math.log(ratios.min())
    rng = np.random.default_rng(seed)
    sampled = 0.0
    dim = xv.shape[0]
    for i in range(sample_count):
        phi = rng.random(dim)
        psi = rng.random(dim)
        if i % 4 == 0:
            # sparse functionals exercise the zero-pairing equivalence
            mask = rng.random(dim) < 0.5
            phi = phi * mask
        xphi, yphi = float(xv @ phi), float(yv @ phi)
        if (xphi == 0) != (yphi == 0):
            raise AssertionError("zero-pairing equivalence violated on a sample")
        xpsi, ypsi = float(xv @ psi), float(yv @ psi)
        if yphi == 0 or xpsi == 0:
            continue
        val = math.log(xphi * ypsi) - math.log(yphi * xpsi)
        sampled = max(sampled, val)
    return DualFormulaReport(closed_form=closed, coordinate_sup=coordinate_sup,
                             sampled_max=sampled, samples=sample_count, seed=seed)


def projective_diameter(m) -> float:
    """Projective diameter of the image of the orthant under a nonnegative
    matrix: the largest Hilbert distance between two columns.  Infinite when
    two columns have different supports; zero columns are rejected."""
    a = np.asarray(m, dtype=float)
    if a.ndim != 2:
        raise ValidationError("matrix expected")
    if (a < 0).any():
        raise ValidationError("matrix must be nonnegative")
    for j, c in enumerate(a.T):
        if not (c > 0).any():
            raise ValidationError(f"zero column {j}")
    return float(stacked_diameters(a[None], np.ones((1, a.shape[1]), dtype=bool))[0])


def stacked_diameters(x: np.ndarray, real: np.ndarray) -> np.ndarray:
    """Projective diameter of every matrix in the stack x (R, rows, cols),
    over the columns flagged in real (R, cols); other columns are padding.
    A real column with no positive entry, or two real columns with different
    supports, make the diameter infinite.  Loops over column pairs, each
    vectorised across the stack: the stack is copied once into a transposed
    (cols, rows, R) layout, so every all/max/min over a column's rows runs
    along the stack.  Column ratios are differences of one log of that copy
    (a zero entry logs to -inf), so a pair's diameter is beta - alpha, the
    largest minus the smallest log ratio over the rows where the first column
    is positive; entries that span more than the float range give a finite
    diameter, where a quotient would overflow."""
    xt = np.ascontiguousarray(x.transpose(2, 1, 0))
    pos = xt > 0
    with np.errstate(divide="ignore"):
        logs = np.log(xt)
    real = real.T
    diam = np.zeros(len(x))
    with np.errstate(invalid="ignore"):
        for i in range(len(xt)):
            for j in range(i + 1, len(xt)):
                same = (pos[i] == pos[j]).all(axis=0)
                ratio = logs[j] - logs[i]
                beta = np.where(pos[i], ratio, -np.inf).max(axis=0)
                alpha = np.where(pos[i], ratio, np.inf).min(axis=0)
                d = np.where(same, beta - alpha, np.inf)
                diam = np.where(real[i] & real[j], np.fmax(diam, d), diam)
    diam[(real & ~pos.any(axis=1)).any(axis=0)] = np.inf
    return diam


def birkhoff_coefficient(m) -> float:
    """Contraction coefficient tanh(diam/4) of a nonnegative matrix; 1 when
    the diameter is infinite (including matrices with a zero column)."""
    a = np.asarray(m, dtype=float)
    if a.ndim != 2:
        raise ValidationError("matrix expected")
    if (a < 0).any():
        raise ValidationError("matrix must be nonnegative")
    if not a.any():
        raise ValidationError("matrix must be nonzero")
    diam = stacked_diameters(a[None], np.ones((1, a.shape[1]), dtype=bool))[0]
    return 1.0 if diam == math.inf else math.tanh(diam / 4.0)


def contraction_check(m, u, v, tol: float = 1e-9) -> bool:
    """True iff Theta(Mu, Mv) <= tanh(diam(M)/4) * Theta(u, v) + tol."""
    a = np.asarray(m, dtype=float)
    uv = _as_cone_vector(u)
    vv = _as_cone_vector(v)
    mu = a @ uv
    mv = a @ vv
    if not (mu > 0).any() or not (mv > 0).any():
        raise ValidationError("degenerate image: M maps an argument to zero")
    lhs = hilbert_distance(mu, mv)
    rhs = birkhoff_coefficient(a) * hilbert_distance(uv, vv)
    if math.isinf(rhs):
        return True
    return lhs <= rhs + tol


@dataclass(frozen=True)
class ContractionProfile:
    """Projective diameters of fiber-block products over all admissible
    image words of a fixed span."""

    n: int
    per_word: dict
    max_delta: float
    max_tau: float
    infinite_words: int


def contraction_profile(fs, n: int, max_words: int = DEFAULT_MAX_WORDS) -> ContractionProfile:
    """Diameter delta of the block product for every admissible image word
    of N+1 block symbols; max_tau = tanh(max_delta/4) is the empirical
    contraction rate.  Infinite deltas flag words whose restricted product
    is not strictly positive (fiber-wise mixing fails there).  The budget
    counts nodes visited (every prefix, not only finished words)."""
    if n < 1:
        raise ValidationError("span must be >= 1")
    per_word: dict = {}
    deltas = [np.zeros(0)]
    for rows in walk_image_words(fs, fs.blocks, n, lambda b: np.eye(len(fs.fibers[b])),
                                 max_words):
        # a dead column means the image cone touches the boundary: infinite
        delta = stacked_diameters(rows.products, fiber_mask(fs, rows.blocks))
        per_word.update(zip(map(tuple, rows.words.tolist()), delta.tolist()))
        deltas.append(delta)
    delta = np.concatenate(deltas)
    max_delta = float(delta.max(initial=0.0))
    max_tau = 1.0 if math.isinf(max_delta) else math.tanh(max_delta / 4.0)
    infinite = int(np.isinf(delta).sum())
    return ContractionProfile(n=n, per_word=per_word, max_delta=max_delta,
                              max_tau=max_tau, infinite_words=infinite)
