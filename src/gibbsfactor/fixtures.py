"""Built-in systems used by the CLI, the test suite, and the scripts."""

from __future__ import annotations

import numpy as np

from .errors import ValidationError
from .sft import Alphabet, build_sft, enumerate_words, mixing_index
from .sysio import SystemDescription, parse_system_dict


def _desc(alphabet, adjacency, depth, mode, table, image=None, fmap=None):
    doc = {
        "schema_version": 1,
        "alphabet": list(alphabet),
        "adjacency": [list(r) for r in adjacency],
        "potential": {"depth": depth, "mode": mode, "table": table},
    }
    if image is not None:
        doc["factor"] = {"image_alphabet": list(image), "map": dict(fmap)}
    return parse_system_dict(doc)


def example2() -> SystemDescription:
    """Four-symbol mixing shift with constant potential and the two-to-one
    symbol collapse whose projected measure has a non-Hölder g-function.

    Exact-mode capable: all weights are 1, the leading eigenvalue is 3 with
    eigenvectors (1,1,1,1) and (1,2,2,1)/6.
    """
    adjacency = [[1, 1, 1, 0], [0, 1, 1, 1], [1, 1, 1, 0], [0, 1, 1, 1]]
    table = {f"{i}{j}": "1" for i in range(4) for j in range(4) if adjacency[i][j]}
    return _desc("0123", adjacency, 1, "weight", table,
                 image="01", fmap={"0": "0", "1": "0", "2": "1", "3": "1"})


def full_shift_iid(weights=("1/2", "1/2"), identity_factor: bool = True) -> SystemDescription:
    """Full shift with a depth-0 potential: the i.i.d. measure with the given
    symbol weights (rational strings keep exact mode available when the
    weights sum to one)."""
    q = len(weights)
    names = [str(i) for i in range(q)]
    adjacency = [[1] * q for _ in range(q)]
    table = {names[i]: weights[i] for i in range(q)}
    image = names if identity_factor else None
    fmap = {n: n for n in names} if identity_factor else None
    return _desc(names, adjacency, 0, "weight", table, image=image, fmap=fmap)


def golden_mean() -> SystemDescription:
    """Two symbols, transition 1 -> 1 forbidden, constant potential.  The
    leading eigenvalue is the golden ratio (irrational, so no exact mode)."""
    adjacency = [[1, 1], [1, 0]]
    table = {"00": "1", "01": "1", "10": "1"}
    return _desc("01", adjacency, 1, "weight", table)


RATE_DEMO_PHI = (
    (0.4, 0.0, 0.1),
    (0.0, 0.2, 0.05),
    (0.1, 0.3, 0.0),
)


def rate_demo() -> SystemDescription:
    """Full 3-shift with symbols 0,1 collapsed to one image letter and a
    depth-1 potential with var_1 = 0.4.

    Fiber-wise mixing with span 1, so the projected g-function is Hölder and
    its variation profile decays geometrically; used to compare the observed
    rate against the theoretical contraction bound.
    """
    adjacency = [[1, 1, 1]] * 3
    table = {f"{i}{j}": RATE_DEMO_PHI[i][j] for i in range(3) for j in range(3)}
    return _desc("012", adjacency, 1, "phi", table,
                 image="ab", fmap={"0": "a", "1": "a", "2": "b"})


def three_to_two_collapse() -> SystemDescription:
    """Full 3-shift, constant potential, symbols 0,1 collapsed: the simplest
    fiber-wise mixing fixture (span 1)."""
    adjacency = [[1, 1, 1]] * 3
    table = {f"{i}{j}": "1" for i in range(3) for j in range(3)}
    return _desc("012", adjacency, 1, "weight", table,
                 image="ab", fmap={"0": "a", "1": "a", "2": "b"})


def markov_chain_2x2() -> SystemDescription:
    """Row-stochastic rational weights on the full 2-shift: exact mode with a
    non-constant potential (leading eigenvalue exactly 1)."""
    adjacency = [[1, 1], [1, 1]]
    table = {"00": "1/2", "01": "1/2", "10": "1/4", "11": "3/4"}
    return _desc("01", adjacency, 1, "weight", table,
                 image="01", fmap={"0": "0", "1": "1"})


def random_mixing_system(seed: int, n_symbols: int, depth: int,
                         image_size: int, density: float = 0.5,
                         max_tries: int = 200) -> SystemDescription:
    """Seeded random mixing SFT with float weights and a surjective 1-block
    factor map; deterministic given the seed.

    The adjacency is a cyclic permutation plus a self-loop plus random extra
    edges, which is always primitive; weights are uniform in [0.5, 2.0].
    """
    if image_size > n_symbols:
        raise ValidationError("image alphabet cannot exceed the domain alphabet")
    rng = np.random.default_rng(seed)
    for _ in range(max_tries):
        adj = (rng.random((n_symbols, n_symbols)) < density).astype(int)
        adj |= np.roll(np.eye(n_symbols, dtype=int), 1, axis=1)  # the cycle i -> i + 1
        adj[0][0] = 1
        names = [str(i) for i in range(n_symbols)]
        sft = build_sft(Alphabet(tuple(names)), adj)
        if mixing_index(sft) is None:
            continue
        words = enumerate_words(sft, depth + 1)
        table = {",".join(names[s] for s in w): float(rng.uniform(0.5, 2.0))
                 for w in words}
        fmap = {n: str(i) if i < image_size else str(int(rng.integers(image_size)))
                for i, n in enumerate(names)}
        image = [str(b) for b in range(image_size)]
        return _desc(names, adj.tolist(), depth, "weight", table,
                     image=image, fmap=fmap)
    raise ValidationError("could not generate a mixing system")
