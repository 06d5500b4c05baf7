import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

from gibbsfactor import build_pipeline, factor, fixtures


@pytest.fixture(scope="session")
def ex2_exact():
    return build_pipeline(fixtures.example2(), exact=True)


@pytest.fixture(scope="session")
def ex2_float():
    return build_pipeline(fixtures.example2(), exact=False)


@pytest.fixture(scope="session")
def full2_exact():
    return build_pipeline(fixtures.full_shift_iid(), exact=True)


@pytest.fixture(scope="session")
def golden_float():
    return build_pipeline(fixtures.golden_mean(), exact=False)


@pytest.fixture(scope="session")
def rate_demo_float():
    return build_pipeline(fixtures.rate_demo(), exact=False)


@pytest.fixture(scope="session")
def markov_exact():
    return build_pipeline(fixtures.markov_chain_2x2(), exact=True)


def spread_phi_system(seed, spread):
    """A seeded small random system (2-4 symbols, depth 0-2, 2 image
    letters) in phi mode with phi drawn from U(-spread, spread): for spreads
    of a few hundred its weights span most of the float range, and some of
    its Perron vectors underflow."""
    desc = fixtures.random_mixing_system(seed, 2 + seed % 3, seed % 3, 2)
    rng = np.random.default_rng(seed)
    values = rng.uniform(-spread, spread, len(desc.values))
    return dataclasses.replace(desc, mode="phi", values=values)


@pytest.fixture(scope="session")
def spread_phi():
    return spread_phi_system


@pytest.fixture(scope="session")
def skewed_golden_doc():
    """Golden-mean shift with weights 00: 1, 01: 2, 10: 1 (lambda = 2) and
    the identity factor: exact mode is available and the image word 11 is
    inadmissible while its suffix 1 is not."""
    return {
        "schema_version": 1,
        "alphabet": ["0", "1"],
        "adjacency": [[1, 1], [1, 0]],
        "potential": {"depth": 1, "mode": "weight",
                      "table": {"0,0": "1", "0,1": "2", "1,0": "1"}},
        "factor": {"image_alphabet": ["0", "1"], "map": {"0": "0", "1": "1"}},
    }


@pytest.fixture(params=["lambda_step", "shifted_values"])
def misnormalised_oracle(request, monkeypatch):
    """The brute-force oracle with a deliberate normalisation fault in its
    preimage expansion: one division by lambda too many, or every preimage
    value off by a factor 1 + 1e-3 (a log shift of about 1e-3 in float)."""
    expand = factor.domain_rows

    def faulty(pd, allowed, max_words, exact):
        values, steps, trail = expand(pd, allowed, max_words, exact)
        if request.param == "lambda_step":
            return values, steps + 1, trail
        shifted = values * Fraction(1001, 1000) if exact else values + math.log1p(1e-3)
        return shifted, steps, trail

    monkeypatch.setattr(factor, "domain_rows", faulty)
