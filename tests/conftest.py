from functools import cache

import numpy as np
import pytest

from limcone import Functional, make_schottky, perturb, sym_power_embed
from limcone import bulk, counting, pressure
from reference import weight_tables

# flagship examples: a Schottky pair in SL(2,R), its symmetric-square
# image in SL(3,R), and a seeded 0.05-perturbation of the latter


@pytest.fixture(scope="session")
def s2():
    return make_schottky([2.0, 2.0], [0.0, np.pi / 2])


@pytest.fixture(scope="session")
def f3(s2):
    return sym_power_embed(s2, 3)


@pytest.fixture(scope="session")
def p3(f3):
    return perturb(f3, 0.05, 1)


@pytest.fixture
def serve_weight(monkeypatch):
    """serve_weight(weight) makes pressure and counting read, for any
    representation and depth n, the tables weight_tables(k, n, weight),
    and returns phi = (1, -1), under which each class or word is worth
    exactly its weight.  A test that serves tables calls no cached
    reader (limit_cone, counting._norm_window), since those would keep
    its results; the caches are cleared afterwards all the same."""

    def serve(weight):
        tables = cache(lambda k, n: weight_tables(k, n, weight))
        classes = lambda rep, n: tables(rep.num_generators, n)[0]
        monkeypatch.setattr(pressure, "class_spectra", classes)
        monkeypatch.setattr(counting, "class_spectra", classes)
        monkeypatch.setattr(counting, "element_spectra", lambda rep, n: tables(rep.num_generators, n)[1])
        return Functional([1.0, -1.0])

    yield serve
    for cached in (counting.limit_cone, counting._norm_window, bulk.class_spectra, bulk.element_spectra):
        cached.cache_clear()
