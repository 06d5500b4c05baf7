"""Randomized sweep of the projection oracle equivalence.

Generates seeded random mixing systems with 1-block factor maps and checks
the block-operator product formula against the brute-force preimage sum on
every admissible image word up to a given length, one whole word length at
a time (`gibbsfactor.factor.verify_projection`).  Both routes read the same
Perron data, so each system's Perron residual (the eigen-equations of h and
nu) and step count are printed as well.  Every checked word then goes
through the per-word routes (`projected_measure` and
`projected_measure_bruteforce`) on one factor system, first in
length-lexicographic order and then in a seeded shuffle, and each result is
compared with its batched value (`level_measures`, `preimage_measures`):
equal in exact mode, within 1e-10 relative in float mode.  Each system's
line also gives each route's microseconds per word in each order.  The
per-word routes resume the path of the previous call, so the shuffle checks
that the order of the calls does not matter.  Exits 1 when any word's relative
disagreement exceeds 1e-10, any per-word result disagrees with its batched
value, or any Perron residual exceeds 1e-12.
"""

import argparse
import random
import time

import gibbsfactor as gf
from gibbsfactor import fixtures
from gibbsfactor.factor import level_measures, preimage_measures, route_error
from gibbsfactor.potential import finish_measure
from gibbsfactor.sft import DEFAULT_MAX_WORDS

TOL = 1e-10
PERRON_TOL = 1e-12
ROUTES = ("projected_measure", "projected_measure_bruteforce")  # per-word routes, in gf


def per_word_mismatches(fs, pd, max_len: int, seed: int) -> tuple[int, dict]:
    """Mismatches and timings of the per-word routes on words of length
    1..max_len: (mismatches, timings).  Each route runs over every word in
    length-lexicographic order and then in a shuffle seeded by `seed`;
    a mismatch is a (word, route, order) whose result differs from the
    batched value of its route (a word one batched route lacks has measure
    zero), and timings[route, order] is the route's microseconds per word
    in that order."""
    zero = finish_measure(0, 0.0, 0, pd)
    batched = {}
    for n in range(1, max_len + 1):
        words, values = level_measures(fs, pd, n, DEFAULT_MAX_WORDS, pd.exact)
        images, measures = preimage_measures(fs, pd, n, DEFAULT_MAX_WORDS)
        product = dict(zip(map(tuple, words.tolist()), values.tolist()))
        oracle = dict(zip(map(tuple, images.tolist()), measures))
        for word in sorted(product.keys() | oracle.keys()):
            batched[word] = (product.get(word, zero), oracle.get(word, zero))
    words = list(batched)
    shuffled = words[:]
    random.Random(seed).shuffle(shuffled)
    mismatches, timings = 0, {}
    for order, sequence in (("lexicographic", words), ("shuffled", shuffled)):
        for slot, route in enumerate(ROUTES):
            measure = getattr(gf, route)
            start = time.perf_counter()
            got = [measure(fs, pd, word) for word in sequence]
            timings[route, order] = (time.perf_counter() - start) / len(sequence) * 1e6
            mismatches += sum(route_error(value, batched[word][slot], pd.exact) > TOL
                              for value, word in zip(got, sequence))
    return mismatches, timings


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
    mismatched = 0
    failed = False
    for i in range(args.systems):
        seed = args.seed + i
        desc = fixtures.random_mixing_system(seed, args.size, args.depth,
                                             args.image_size, density=args.density)
        pipe = gf.build_pipeline(desc)
        check = gf.verify_projection(pipe.factor, pipe.pd, args.max_len, TOL)
        mismatches, timings = per_word_mismatches(pipe.factor, pipe.pd, args.max_len, seed)
        per_word = ", ".join(
            f"{route} " + "/".join(f"{timings[route, order]:.1f}"
                                   for order in ("lexicographic", "shuffled"))
            for route in ROUTES)
        print(f"seed {seed}: {check.checked_words} image words, worst relative error "
              f"{check.max_relative_error:.3e}, {mismatches} per-word mismatches "
              f"(us per word, lexicographic/shuffled: {per_word}), "
              f"{len(check.failures)} failures; "
              f"Perron residual {pipe.pd.residual:.3e}, {pipe.pd.iterations} iterations")
        worst_overall = max(worst_overall, check.max_relative_error)
        worst_residual = max(worst_residual, pipe.pd.residual)
        mismatched += mismatches
        failed = (failed or not check.passed or mismatches
                  or not pipe.pd.residual <= PERRON_TOL)
    print(f"sweep per-word mismatches: {mismatched}")
    print(f"sweep worst relative error: {worst_overall:.3e}")
    print(f"sweep worst Perron residual: {worst_residual:.3e}")
    if failed:
        raise SystemExit(1)


if __name__ == "__main__":
    main()
