"""Explicit tables built from the shared element encoding, checked against
the scalar arithmetic (wreath_multiply, permutation composition) and, for
the larger instances, against the spectral route through the oracle."""
import itertools
import tracemalloc
from functools import lru_cache

import numpy as np
import pytest

from wreathwalk.classes import class_count
from wreathwalk.groups import build_group, permutation_table, symmetric_group
from wreathwalk.oracle import convolution_curve, exact_distances
from wreathwalk.simulate import encode_states
from wreathwalk.walks import build_measure, l2n_sq_spectral, spectrum
from wreathwalk.wreath import (
    WreathElement,
    build_bytes,
    build_wreath_table,
    enumerate_wreath_elements,
    wreath_multiply,
)


@lru_cache(maxsize=None)
def _table(gname, n):
    return build_wreath_table(build_group(gname), n)


@lru_cache(maxsize=None)
def _elements(gname, n):
    """The scalar reference's elements; it yields them in table order."""
    return list(enumerate_wreath_elements(build_group(gname), n))


@pytest.mark.parametrize("gname,n", [("Z:2", 3), ("Z:3", 2), ("S:3", 2)])
def test_wreath_table_matches_scalar_product_on_every_pair(gname, n):
    wt, elements = _table(gname, n), _elements(gname, n)
    identity = WreathElement((0,) * n, tuple(range(n)))
    for i, a in enumerate(elements):
        for j, b in enumerate(elements):
            assert elements[wt.group.mult[i, j]] == wreath_multiply(wt.base, a, b)
        assert wreath_multiply(wt.base, a, elements[wt.group.inv[i]]) == identity


@pytest.mark.parametrize("gname,n", [("S:3", 3), ("Z:2", 5)])
def test_wreath_table_matches_scalar_product_on_random_pairs(gname, n):
    wt, elements = _table(gname, n), _elements(gname, n)
    rng = np.random.default_rng(20)
    for i, j in rng.integers(0, wt.group.order, size=(2000, 2)):
        a, b = elements[i], elements[j]
        assert elements[wt.group.mult[i, j]] == wreath_multiply(wt.base, a, b)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_symmetric_table_is_composition(m):
    g = symmetric_group(m)
    elements = [tuple(p) for p in permutation_table(m)[0].tolist()]
    assert elements == list(itertools.permutations(range(m)))
    for i, a in enumerate(elements):
        for j, b in enumerate(elements):
            assert elements[g.mult[i, j]] == tuple(a[b[x]] for x in range(m))


def test_encode_states_numbers_the_table_rows():
    wt, elements = _table("Z:2", 5), _elements("Z:2", 5)
    coords = np.array([e.coords for e in elements])
    perms = np.array([e.perm for e in elements])
    assert np.array_equal(encode_states(coords, perms, 2), np.arange(wt.group.order))


def test_wreath_table_class_count():
    wt = _table("Z:2", 5)
    assert wt.group.num_classes == class_count(wt.base, 5)


@pytest.mark.parametrize("gname,n", [("Z:2", 5), ("Z:3", 4), ("S:3", 3)])
@pytest.mark.parametrize("kind", ["independent", "paired"])
def test_oracle_matches_spectral_l2_on_larger_tables(gname, n, kind):
    wt = _table(gname, n)
    spec = spectrum(kind, n, wt.base)
    measure = build_measure(kind, n, wt.base)
    for k, dist in convolution_curve(wt.group, measure, [0, 1, 2, 3]):
        assert exact_distances(dist, wt.group.order)["l2n_sq"] == l2n_sq_spectral(spec, k)


@pytest.mark.parametrize("gname,n", [("Z:1", 6), ("Z:20", 2), ("Z:500", 1), ("S:3", 3)])
def test_build_bytes_is_the_build_peak(gname, n):
    # from S_6 (the S_n table is as large as the wreath table) to n <= 2,
    # where the (order, |G|^n, n) gathers outgrow the table
    g = build_group(gname)
    tracemalloc.start()
    try:
        build_wreath_table(g, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= build_bytes(g.order, n) <= 1.05 * peak
