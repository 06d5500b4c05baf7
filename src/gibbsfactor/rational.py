"""Small exact linear-algebra kernel over fractions.Fraction.

Matrices are lists of lists of Fraction, vectors are lists of Fraction.
Only what the exact Perron path needs: matrix-vector products, transpose,
RREF nullspace.
"""

from __future__ import annotations

from fractions import Fraction


def fvec(xs) -> list[Fraction]:
    return [Fraction(x) for x in xs]


def mat_vec(m, x):
    return [sum((row[j] * x[j] for j in range(len(x))), Fraction(0)) for row in m]


def vec_mat(x, m):
    n = len(m[0])
    return [sum((x[i] * m[i][j] for i in range(len(x))), Fraction(0)) for j in range(n)]


def transpose(m):
    return [list(col) for col in zip(*m)]


def dot(x, y):
    return sum((a * b for a, b in zip(x, y)), Fraction(0))


def nullspace(m) -> list[list[Fraction]]:
    """Basis of the right nullspace of m, via fraction-exact RREF."""
    rows = [list(r) for r in m]
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        pv = rows[r][c]
        rows[r] = [x / pv for x in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for ri, pc in enumerate(pivots):
            v[pc] = -rows[ri][fc]
        basis.append(v)
    return basis
