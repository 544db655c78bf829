"""Shared fixtures for the test suite."""

import json
from pathlib import Path

import numpy as np
import pytest

from qdock import load_complex
from qdock.qubo import CoeffMap

FIXTURE_DIR = Path(__file__).resolve().parent.parent / "fixtures"

TINY4 = FIXTURE_DIR / "tiny4.json"
PLANTED6 = FIXTURE_DIR / "planted6.json"

# Planted poses baked into the fixture geometry: near-lattice grid points
# sit a small offset away from the matching ligand atom coordinates.
TINY4_PLANTED = {1: 101, 2: 102, 3: 103, 4: 104}
PLANTED6_PLANTED = {1: 201, 2: 202, 3: 203}
PLANTED6_DECOY = {1: 204, 2: 205, 3: 206}


@pytest.fixture(scope="session")
def tiny4_doc():
    with open(TINY4) as fh:
        return json.load(fh)


@pytest.fixture(scope="session")
def tiny4():
    return load_complex(TINY4)


@pytest.fixture(scope="session")
def planted6():
    return load_complex(PLANTED6)


@pytest.fixture()
def fixture_dir():
    return FIXTURE_DIR


def index_mapping(problem, id_mapping):
    """Translate an {atom id: grid id} pose to builder position indices."""
    return {
        problem.atom_ids.index(aid): problem.grid_ids.index(gid)
        for aid, gid in id_mapping.items()
    }


def shuffled_map(n: int) -> CoeffMap:
    """A map of n distinct upper-triangle keys in shuffled order, shaped like
    an assembled problem's: about n / 1000 + 1000 distinct ids, a third of
    them at least 10**6, and about one distinct value per four entries,
    among them -0.0, 0.0, 5e-324 and 1e16."""
    rng = np.random.default_rng(21)
    k = rng.permutation(n)
    a = k // 1000 + 10**6 * (k % 3 == 0)
    pool = np.round(rng.normal(size=n // 4 + 4), 6) * 10.0 ** rng.integers(-5, 5, n // 4 + 4)
    pool[:4] = [-0.0, 0.0, 5e-324, 1e16]
    values = pool[rng.integers(0, len(pool), n)]
    values[:4] = pool[:4]
    return CoeffMap(a, a + k % 1000, values)
