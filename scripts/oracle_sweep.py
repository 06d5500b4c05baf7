"""Randomized sweep of the projection oracle equivalence.

Generates seeded random mixing systems with 1-block factor maps and checks
the block-operator product formula against the brute-force preimage sum on
every admissible image word up to a given length, one whole word length at
a time (`gibbsfactor.factor.verify_projection`).  Both routes read the same
Perron data, so each system's Perron residual (the eigen-equations of h and
nu) and step count are printed as well.  Exits 1 when any word's relative
disagreement exceeds 1e-10 or any Perron residual exceeds 1e-12.
"""

import argparse

import gibbsfactor as gf
from gibbsfactor import fixtures

TOL = 1e-10
PERRON_TOL = 1e-12


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--systems", type=int, default=5)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--size", type=int, default=5)
    parser.add_argument("--depth", type=int, default=1)
    parser.add_argument("--image-size", type=int, default=3)
    parser.add_argument("--max-len", type=int, default=8)
    parser.add_argument("--density", type=float, default=0.5)
    args = parser.parse_args()

    worst_overall = worst_residual = 0.0
    failed = False
    for i in range(args.systems):
        seed = args.seed + i
        desc = fixtures.random_mixing_system(seed, args.size, args.depth,
                                             args.image_size, density=args.density)
        pipe = gf.build_pipeline(desc)
        check = gf.verify_projection(pipe.factor, pipe.pd, args.max_len, TOL)
        print(f"seed {seed}: {check.checked_words} image words, worst relative error "
              f"{check.max_relative_error:.3e}, {len(check.failures)} failures; "
              f"Perron residual {pipe.pd.residual:.3e}, {pipe.pd.iterations} iterations")
        worst_overall = max(worst_overall, check.max_relative_error)
        worst_residual = max(worst_residual, pipe.pd.residual)
        failed = failed or not check.passed or not pipe.pd.residual <= PERRON_TOL
    print(f"sweep worst relative error: {worst_overall:.3e}")
    print(f"sweep worst Perron residual: {worst_residual:.3e}")
    if failed:
        raise SystemExit(1)


if __name__ == "__main__":
    main()
