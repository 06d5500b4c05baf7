"""Seeded system documents for the benchmark workloads.

Every document is a plain JSON-ready dict in the library's system file
format; the library only ever sees these documents.  The generators here use
numpy's seeded generator and nothing from the library, so a change to the
library cannot change the inputs.

The random systems are built so that the amount of work does not depend on
the seed, only the numbers do:

- every symbol has the same out-degree r, so a depth-k system always recodes
  to exactly n * r**(k-1) blocks;
- fibers have fixed sizes and every symbol has a successor in every fiber
  (through a non-designated member), so the image is the full shift and the
  number of image words of length L is exactly (image size)**L;
- one designated symbol has no successor in one fiber, so fiber-wise mixing
  fails at every span and a span search always runs to its limit;
- the base mixing index is fixed by rejection sampling, so the boolean power
  loop of the mixing test runs the same number of steps on every seed.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

MAX_TRIES = 10_000


def example2() -> dict:
    """The paper's four-symbol example: constant potential, {0,1} -> 0 and
    {2,3} -> 1.  Exact Perron data lambda = 3, nu = (1,2,2,1)/6."""
    adjacency = [[1, 1, 1, 0], [0, 1, 1, 1], [1, 1, 1, 0], [0, 1, 1, 1]]
    table = {f"{i},{j}": "1" for i in range(4) for j in range(4) if adjacency[i][j]}
    return _doc([str(i) for i in range(4)], adjacency, 1, "weight", table,
                ["0", "1"], {"0": "0", "1": "0", "2": "1", "3": "1"})


RATE_DEMO_PHI = ((0.4, 0.0, 0.1), (0.0, 0.2, 0.05), (0.1, 0.3, 0.0))


def rate_demo() -> dict:
    """Full 3-shift, depth-1 phi table, {0,1} -> a and 2 -> b: fiber-wise
    mixing with span 1 and geometric variation decay."""
    table = {f"{i},{j}": RATE_DEMO_PHI[i][j] for i in range(3) for j in range(3)}
    return _doc(["0", "1", "2"], [[1, 1, 1]] * 3, 1, "phi", table,
                ["a", "b"], {"0": "a", "1": "a", "2": "b"})


def small_gap(eps: float) -> dict:
    """Two-state float system {00: 1, 01: eps, 10: eps, 11: 1 + eps}; its
    Perron root is 1 + eps * (1 + sqrt 5) / 2 and the gap shrinks with eps."""
    table = {"0,0": 1.0, "0,1": float(eps), "1,0": float(eps), "1,1": 1.0 + eps}
    return _doc(["0", "1"], [[1, 1], [1, 1]], 1, "weight", table,
                ["0", "1"], {"0": "0", "1": "1"})


def small_gap_lambda(eps: float) -> float:
    """Closed-form Perron root of :func:`small_gap`."""
    return 1.0 + eps * (1.0 + 5.0 ** 0.5) / 2.0


def random_float_system(rng: np.random.Generator, n: int, depth: int,
                        image_size: int, out_degree: int,
                        mixing: int = 3) -> dict:
    """Float weights uniform in [0.5, 2] on every admissible (depth+1)-word."""
    adj, fmap = random_shift(rng, n, image_size, out_degree, mixing)
    table = {_key(w): float(rng.uniform(0.5, 2.0)) for w in words(adj, depth + 1)}
    return _random_doc(adj, fmap, depth, table)


def random_stochastic_system(rng: np.random.Generator, n: int, depth: int,
                             image_size: int, out_degree: int,
                             denominator: int = 16, mixing: int = 3) -> dict:
    """Rational weights, row-stochastic on the depth-block recoding: for each
    admissible depth-word u the weights of u.c over successors c are a random
    composition of `denominator`, so the Perron root is exactly 1."""
    adj, fmap = random_shift(rng, n, image_size, out_degree, mixing)
    table = {}
    for u in words(adj, depth):
        succ = np.flatnonzero(adj[u[-1]])
        cuts = np.sort(rng.choice(np.arange(1, denominator), len(succ) - 1,
                                  replace=False))
        parts = np.diff(np.concatenate(([0], cuts, [denominator])))
        for c, part in zip(succ, parts):
            table[_key(u + (int(c),))] = str(Fraction(int(part), denominator))
    return _random_doc(adj, fmap, depth, table)


def fiber_sizes(n: int, image_size: int) -> list[int]:
    """Fiber sizes as even as possible, larger fibers first."""
    base, extra = divmod(n, image_size)
    return [base + (1 if b < extra else 0) for b in range(image_size)]


def random_shift(rng: np.random.Generator, n: int, image_size: int,
                 out_degree: int, mixing: int) -> tuple[np.ndarray, list[int]]:
    """Adjacency with every out-degree equal to `out_degree`, mixing index
    exactly `mixing`, and a factor map with fixed fiber sizes (see module
    docstring for why)."""
    sizes = fiber_sizes(n, image_size)
    if min(sizes) < 2:
        raise ValueError("every fiber needs at least two symbols")
    for _ in range(MAX_TRIES):
        perm = rng.permutation(n)
        fmap = [0] * n
        fibers = []
        start = 0
        for b, size in enumerate(sizes):
            members = sorted(int(s) for s in perm[start:start + size])
            for s in members:
                fmap[s] = b
            fibers.append(members)
            start += size
        adj = np.zeros((n, n), dtype=np.int64)
        for i in range(n):
            adj[i, (i + 1) % n] = 1
        adj[0, 0] = 1
        designated = int(rng.integers(n))
        kept = {fmap[(designated + 1) % n]} | ({fmap[0]} if designated == 0 else set())
        missing = int(rng.choice([b for b in range(image_size) if b not in kept]))
        for i in range(n):
            for b, members in enumerate(fibers):
                if i == designated and b == missing:
                    continue
                plain = [s for s in members if s != designated]
                if not adj[i, plain].any():
                    adj[i, int(rng.choice(plain))] = 1
            free = [s for s in range(n) if not adj[i, s]
                    and not (i == designated and fmap[s] == missing)]
            need = out_degree - int(adj[i].sum())
            if need < 0 or need > len(free):
                break
            if need:
                adj[i, rng.choice(free, need, replace=False)] = 1
        else:
            if mixing_index(adj) == mixing:
                return adj, fmap
    raise ValueError(f"no shift with out-degree {out_degree} and mixing index {mixing}")


def mixing_index(adj: np.ndarray, cap: int = 64) -> int | None:
    """Smallest p with adj**p all positive (boolean powers), else None."""
    base = adj.astype(bool)
    power = base
    for p in range(1, cap + 1):
        if power.all():
            return p
        power = (power.astype(np.int64) @ base.astype(np.int64)) > 0
    return None


def words(adj: np.ndarray, length: int) -> list[tuple[int, ...]]:
    """Admissible words of `length` in lexicographic order."""
    out = [(i,) for i in range(adj.shape[0])]
    for _ in range(length - 1):
        out = [w + (int(j),) for w in out for j in np.flatnonzero(adj[w[-1]])]
    return out


def _key(word) -> str:
    return ",".join(str(s) for s in word)


def _random_doc(adj: np.ndarray, fmap: list[int], depth: int, table: dict) -> dict:
    n = adj.shape[0]
    names = [str(i) for i in range(n)]
    image = [f"y{b}" for b in range(max(fmap) + 1)]
    return _doc(names, adj.tolist(), depth, "weight", table, image,
                {names[i]: image[fmap[i]] for i in range(n)})


def _doc(alphabet, adjacency, depth, mode, table, image, fmap) -> dict:
    return {
        "schema_version": 1,
        "alphabet": list(alphabet),
        "adjacency": [list(r) for r in adjacency],
        "potential": {"depth": depth, "mode": mode, "table": table},
        "factor": {"image_alphabet": list(image), "map": dict(fmap)},
    }

