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
def serve_tables(monkeypatch):
    """serve_tables(tables) makes pressure and counting read, for any
    representation and depth n, the (ClassSpectra, ElementSpectra) pair
    tables(k, n), k the representation's number of generators.  The
    cached readers (limit_cone, counting._norm_window) and tables are
    cleared on serving and afterwards, so what they cache within the test
    comes from the served tables and stays in it."""
    cached_readers = (counting.limit_cone, counting._norm_window, bulk.class_spectra,
                      bulk.element_spectra)

    def serve(tables):
        for cached in cached_readers:
            cached.cache_clear()
        tables = cache(tables)
        classes = lambda rep, n: tables(rep.num_generators, n)[0]
        monkeypatch.setattr(pressure, "class_spectra", classes)
        monkeypatch.setattr(counting, "class_spectra", classes)
        monkeypatch.setattr(counting, "element_spectra", lambda rep, n: tables(rep.num_generators, n)[1])

    yield serve
    for cached in cached_readers:
        cached.cache_clear()


@pytest.fixture
def serve_weight(serve_tables):
    """serve_weight(weight) serves the tables weight_tables(k, n, weight)
    and returns phi = (1, -1), under which each class or word is worth
    exactly its weight."""

    def serve(weight):
        serve_tables(lambda k, n: weight_tables(k, n, weight))
        return Functional([1.0, -1.0])

    return serve
