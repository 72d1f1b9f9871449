"""Explicit tables built from the shared element encoding, checked against
the scalar arithmetic (wreath_multiply, permutation composition) and, for
the larger instances, against the spectral route through the oracle."""
import itertools
import math
import tracemalloc
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest

from wreathwalk.classes import class_count
from wreathwalk.groups import build_group, permutation_table, symmetric_group
from wreathwalk.oracle import convolution_curve, exact_distances, measure_on_table
from wreathwalk.simulate import encode_states
from wreathwalk.walks import build_measure, l2n_sq_spectral, spectrum
from wreathwalk.wreath import (
    WreathElement,
    build_bytes,
    build_wreath_table,
    decode_draws,
    decode_states,
    draw_count,
    enumerate_wreath_elements,
    step_draws,
    step_elements,
    step_rows,
    table_rows,
    walk_base,
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
    for k, num, scale in convolution_curve(wt.group, measure, [0, 1, 2, 3]):
        assert exact_distances(num, scale, wt.group.order)["l2n_sq"] == l2n_sq_spectral(spec, k)


@pytest.mark.parametrize("gname,n", [("Z:1", 6), ("Z:20", 2), ("Z:500", 1), ("S:3", 3)])
def test_build_bytes_is_the_build_peak(gname, n):
    # from S_6 (the S_n table is as large as the wreath table) to n <= 2,
    # where the (order, |G|^n, n) gathers outgrow the table
    g = build_group(gname)
    tracemalloc.start()
    try:
        order = build_wreath_table(g, n).group.order
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # every row, every permutation, and the inverse search's order^2 bool mask
    need = build_bytes(g.order, n, order, math.factorial(n), order * order)
    assert peak <= need <= 1.05 * peak


MAP_INSTANCES = ([("Z:1", n) for n in range(1, 6)] + [("Z:2", n) for n in range(1, 5)]
                 + [("Z:3", 3), ("S:3", 3)])
# sym runs on Z:1 only; the wreath walks on every instance
MAP_WALKS = [(kind, gname, n) for gname, n in MAP_INSTANCES
             for kind in ("sym", "independent", "paired") if kind != "sym" or gname == "Z:1"]


def _step_element(n, p, q, a, b):
    """The step element of a draw: a at p, b at q (a alone when p = q), and
    the swap (p q)."""
    v = [0] * n
    v[q] = b
    v[p] = a
    tau = list(range(n))
    tau[p], tau[q] = q, p
    return WreathElement(tuple(v), tuple(tau))


@pytest.mark.parametrize("gname,n", MAP_INSTANCES)
def test_decode_states_inverts_encode_states(gname, n):
    g = build_group(gname)
    order = g.order ** n * math.factorial(n)
    coords, perms = decode_states(np.arange(order), g.order, n)
    assert coords.shape == perms.shape == (order, n)
    assert coords.min() >= 0 and coords.max() < g.order
    assert np.array_equal(np.sort(perms, axis=1), np.broadcast_to(np.arange(n), (order, n)))
    assert np.array_equal(encode_states(coords, perms, g.order), np.arange(order))


@pytest.mark.parametrize("kind,gname,n", MAP_WALKS)
def test_step_rows_are_table_rows_of_the_step_elements(kind, gname, n):
    # R[row_of[d]] is left multiplication by s_d, the scalar step element
    # of draw d, and R has one row per distinct step element
    wt, elements = _table(gname, n), _elements(gname, n)
    rows, row_of = step_rows(kind, n, wt.base)
    steps = step_elements(kind, n, wt.base)
    assert rows.dtype == np.int32 and steps.dtype == np.int64
    assert len(rows) == len(set(steps.tolist())) and len(row_of) == len(steps)
    assert np.array_equal(rows[row_of], wt.group.mult[steps])
    for d, draw in enumerate(zip(*step_draws(kind, n, wt.base))):
        assert elements[steps[d]] == _step_element(n, *draw)


@pytest.mark.parametrize("kind,gname,n", MAP_WALKS + [("independent", "Z:300", 1),
                                                   ("paired", "Z:70", 1)])
def test_decode_draws_is_the_step_draws_list(kind, gname, n):
    # the draws in the sampler's order, listed from the scalar definition:
    # (p, q) major, then (a, b) with b = a^-1 for paired; decode_draws of
    # any indices, shuffled here, are those entries of the list
    g = walk_base(kind, build_group(gname))
    pairs = ([(a, int(g.inv[a])) for a in range(g.order)] if kind == "paired"
             else list(itertools.product(range(g.order), repeat=2)))
    want = [(p, q, a, b) for p, q, (a, b) in itertools.product(range(n), range(n), pairs)]
    assert draw_count(kind, n, g) == len(want)
    listed = step_draws(kind, n, g)
    assert list(zip(*(x.tolist() for x in listed))) == want
    d = np.random.default_rng(23).permutation(len(want))
    for got, col in zip(decode_draws(kind, n, g, d), listed):
        assert np.array_equal(got, col[d])


@pytest.mark.parametrize("kind,gname,n", MAP_WALKS)
def test_measure_on_table_counts_the_step_elements(kind, gname, n):
    # the one-step law is the histogram of the step elements over the
    # n^2 |G|^b draws, counted here from the scalar definition
    wt, elements = _table(gname, n), _elements(gname, n)
    g = wt.base
    pairs = ([(a, int(g.inv[a])) for a in range(g.order)] if kind == "paired"
             else list(itertools.product(range(g.order), repeat=2)))
    counts = {}
    for p, q, (a, b) in itertools.product(range(n), range(n), pairs):
        s = elements.index(_step_element(n, p, q, a, b))
        counts[s] = counts.get(s, 0) + 1
    total = n * n * len(pairs)
    want = {s: Fraction(c, total) for s, c in counts.items()}
    assert measure_on_table(build_measure(kind, n, g), wt.group) == want


@pytest.mark.parametrize("kind,gname,n", [("sym", "Z:1", 7), ("independent", "S:3", 3),
                                          ("paired", "Z:3", 3), ("independent", "Z:70", 1),
                                          ("independent", "Z:300", 1)])
def test_step_row_bytes_is_the_build_peak(kind, gname, n):
    # the distinct step elements (the peak at Z:300, n = 1: 300^2 draws),
    # then their table rows next to the int32 map
    g = build_group(gname)
    tracemalloc.start()
    try:
        rows, row_of = step_rows(kind, n, g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    steps = np.unique(step_elements(kind, n, walk_base(kind, g)))
    perms = len(set((steps % math.factorial(n)).tolist()))
    assert perms == 1 + n * (n - 1) // 2            # the identity and the transpositions
    need = build_bytes(g.order, n, len(rows), perms, rows.nbytes, len(row_of))
    assert peak <= need <= 1.5 * peak


@pytest.mark.parametrize("gname,n", [("S:3", 3), ("Z:2", 5)])
def test_table_rows_of_any_elements_are_the_table_rows(gname, n):
    # a random subset, repeats and unsorted order included
    wt = _table(gname, n)
    elements = np.random.default_rng(21).integers(0, wt.group.order, size=300)
    rows = table_rows(wt.base, n, elements)
    assert rows.dtype == np.int64
    assert np.array_equal(rows, wt.group.mult[elements])


@pytest.mark.parametrize("kind,gname,n", [("sym", "Z:1", 8), ("paired", "Z:2", 6)])
def test_step_rows_past_the_table_cap_are_scalar_products(kind, gname, n):
    # orders 40320 and 46080, past the 5000 table cap: a seeded sample of
    # (row, state) entries against wreath_multiply on the decoded elements
    g = walk_base(kind, build_group(gname))
    order = g.order ** n * math.factorial(n)
    with pytest.raises(ValueError, match="exceeds cap"):
        build_wreath_table(g, n)
    rows, row_of = step_rows(kind, n, g)
    steps = step_elements(kind, n, g)
    assert rows.dtype == np.int32 and rows.shape[1] == order
    assert np.array_equal(rows[row_of, 0], steps)
    rng = np.random.default_rng(22)
    d, x = rng.integers(0, len(steps), size=400), rng.integers(0, order, size=400)
    s_coords, s_perms = decode_states(steps[d], g.order, n)
    x_coords, x_perms = decode_states(x, g.order, n)
    got_coords, got_perms = decode_states(rows[row_of[d], x], g.order, n)
    for i in range(len(d)):
        want = wreath_multiply(g, WreathElement(tuple(s_coords[i]), tuple(s_perms[i])),
                               WreathElement(tuple(x_coords[i]), tuple(x_perms[i])))
        assert (tuple(got_coords[i]), tuple(got_perms[i])) == want
