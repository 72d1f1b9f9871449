"""Type matrices against brute-force conjugation closure.

The closure check is the ground truth: orbits of g -> h g h^{-1} over the
explicit wreath table, compared to the type-matrix fingerprint.  The
instances include a nonabelian base with 3-cycles in the top group, which
is exactly where a wrong cycle-product traversal direction would show up.
"""
import itertools
import json

import numpy as np
import pytest

from wreathwalk.classes import (
    class_count,
    class_size,
    cycle_products,
    support_classes,
    type_matrix,
    u_type,
    v_type,
)
from wreathwalk.groups import _inverses, build_group, conjugacy_classes
from wreathwalk.oracle import measure_on_table
from wreathwalk.walks import build_measure
from wreathwalk.wreath import (
    WreathElement,
    build_wreath_table,
    class_table,
    decode_states,
    encode_states,
    enumerate_wreath_elements,
    products,
    table_rows,
    wreath_multiply,
    wreath_order,
)

INSTANCES = [("Z:2", 2), ("Z:2", 3), ("Z:3", 2), ("S:3", 2), ("Z:2", 4), ("S:3", 3)]


def brute_classes(wt):
    g = wt.base
    W = wt.group
    seen = [False] * W.order
    out = []
    for i in range(W.order):
        if seen[i]:
            continue
        orbit = {i}
        frontier = [i]
        while frontier:
            x = frontier.pop()
            for h in range(W.order):
                y = int(W.mult[int(W.mult[h, x]), int(W.inv[h])])
                if y not in orbit:
                    orbit.add(y)
                    frontier.append(y)
        for x in orbit:
            seen[x] = True
        out.append(orbit)
    return out


@pytest.mark.parametrize("gspec,n", INSTANCES)
def test_type_matrix_matches_conjugation(gspec, n):
    g = build_group(gspec)
    wt = build_wreath_table(g, n)
    orbits = brute_classes(wt)
    # same partition of the group: (a) count matches the convolution formula,
    # (b) two elements share an orbit iff they share a type matrix
    assert len(orbits) == class_count(g, n)
    fingerprint = [type_matrix(g, e) for e in enumerate_wreath_elements(g, n)]
    for orbit in orbits:
        tms = {fingerprint[x] for x in orbit}
        assert len(tms) == 1
        tm = next(iter(tms))
        assert class_size(g, n, tm) == len(orbit)
        # nobody outside the orbit shares the fingerprint
        outside = [x for x in range(wt.group.order) if fingerprint[x] == tm]
        assert len(outside) == len(orbit)


def test_class_count_small_values():
    g2 = build_group("Z:2")
    # wreath class counts grow by convolving partition counts
    assert class_count(g2, 1) == 2
    assert class_count(g2, 2) == 5
    assert class_count(g2, 3) == 10
    assert class_count(g2, 4) == 20
    assert class_count(g2, 6) == 65
    g3 = build_group("S:3")
    assert class_count(g3, 1) == 3
    assert class_count(g3, 2) == 9


def test_cycle_products_hand_example():
    g = build_group("Z:3")
    # 3-cycle 0->1->2->0 with coords (1, 2, 2): product along backward orbit
    # 0, 2, 1 is 1+2+2 = 5 = 2 mod 3
    w = WreathElement(coords=(1, 2, 2), perm=(1, 2, 0))
    [(length, cls)] = cycle_products(g, w)
    assert length == 3
    assert cls == 2


def test_support_sizes_sum_to_measure_support():
    g = build_group("S:3")
    n = 3
    sup = support_classes(g, n)
    tags = [t for t, _, _ in sup]
    assert ("id",) in tags
    sizes = {t: sz for t, _, sz in sup}
    assert sizes[("id",)] == 1
    # u-classes: n |C_k|
    assert sizes[("u", 2)] == 3 * 3   # transposition class of S3 has size 3
    assert sizes[("u", 3)] == 3 * 2
    # v-classes: n(n-1)/2 |G| |C_k|
    assert sizes[("v", 1)] == 3 * 6 * 1
    assert sizes[("v", 2)] == 3 * 6 * 3
    assert sizes[("v", 3)] == 3 * 6 * 2


STEP_LAW_INSTANCES = ([("Z:2", n) for n in range(1, 6)] + [("Z:3", n) for n in range(1, 5)]
                      + [("S:3", n) for n in range(1, 4)] + [("Z:4", 3)])


@pytest.mark.parametrize("gspec,n", STEP_LAW_INSTANCES)
def test_step_law_matches_support_classes(gspec, n):
    # the one-step law counted from the draws is constant on each explicit
    # conjugacy class, and its (mass, class size) pairs are the spectral
    # side's class measure on the type-matrix support classes
    g = build_group(gspec)
    table = build_wreath_table(g, n).group
    for kind in ("independent", "paired"):
        measure = build_measure(kind, n, g)
        probs = measure_on_table(measure, table)
        got = []
        for cls in table.classes:
            masses = {probs.get(i, 0) for i in cls}
            assert len(masses) == 1
            if masses != {0}:
                got.append((masses.pop(), len(cls)))
        want = [(measure.class_probs[tag], size) for tag, _, size in measure.support
                if measure.class_probs[tag]]
        assert sorted(got) == sorted(want)


def test_u_v_types_disjoint():
    g = build_group("S:3")
    n = 4
    tms = [u_type(g, n, k) for k in range(2, 4)] + [v_type(g, n, k) for k in range(1, 4)]
    assert len(set(tms)) == len(tms)


def test_wreath_order_helper():
    assert wreath_order(2, 3) == 48
    assert wreath_order(6, 2) == 72
    assert wreath_order(6, 3) == 1296


def test_support_classes_read_the_class_sizes_once():
    # one list of base class sizes for all 2s - 1 support classes
    g = build_group("Z:40")
    calls = []
    sizes = g.class_sizes
    g.class_sizes = lambda: calls.append(1) or sizes()
    got = support_classes(g, 3)
    assert len(got) == 1 + 39 + 40 and len(calls) == 1
    assert [size for _, _, size in got] == [1] + [3] * 39 + [3 * 40] * 40


CLOSURE_INSTANCES = ([("Z:1", 7), ("Z:2000", 1)] + [("Z:2", n) for n in range(1, 6)]
                     + [("Z:3", n) for n in range(1, 5)] + [("S:3", n) for n in range(1, 4)]
                     + [("S:4", n) for n in range(1, 3)] + [("file:S:3", n) for n in range(1, 4)]
                     + [("file:A4", 2)])


def _a4_table():
    """A4 as the 12 even permutations of 4 points in lexicographic order
    (identity first), multiplied by composition: its two classes of
    3-cycles are each other's inverses, so its classes are not closed under
    inversion."""
    perms = [p for p in itertools.permutations(range(4))
             if sum(p[i] > p[j] for i in range(4) for j in range(i + 1, 4)) % 2 == 0]
    index = {p: i for i, p in enumerate(perms)}
    return [[index[tuple(a[b[i]] for i in range(4))] for b in perms] for a in perms]


def _base(gspec, tmp_path):
    """The base group; file:S:3 is S:3 written to JSON and read back, a
    nonabelian base through the ingestion path, and file:A4 is A4 written
    the same way."""
    if not gspec.startswith("file:"):
        return build_group(gspec)
    mult = build_group("S:3").mult.tolist() if gspec == "file:S:3" else _a4_table()
    path = tmp_path / "base.json"
    path.write_text(json.dumps({"order": len(mult), "mult": mult}))
    return build_group(f"file:{path}")


def test_a4_classes_are_not_closed_under_inversion(tmp_path):
    g = _base("file:A4", tmp_path)
    assert g.order == 12 and sorted(g.class_sizes()) == [1, 3, 4, 4]
    assert any(g.class_of[g.inv[c[0]]] != i for i, c in enumerate(g.classes))


@pytest.mark.parametrize("gspec,n", CLOSURE_INSTANCES)
def test_closure_classes_are_the_table_classes(gspec, n, tmp_path):
    # inverses in closed form and classes by type matrices against the
    # inverse search and brute conjugation on the whole table
    g = _base(gspec, tmp_path)
    ct = class_table(g, n, max_order=6000)
    mult = table_rows(g, n)
    inv = _inverses(mult)
    class_of = conjugacy_classes(mult, inv)
    assert np.array_equal(ct.inv, inv)
    assert np.array_equal(ct.class_of, class_of)
    classes = [np.flatnonzero(class_of == c).tolist() for c in range(class_of.max() + 1)]
    assert ct.classes == classes
    assert ct.class_sizes() == [len(c) for c in classes]
    assert ct.num_classes == class_count(g, n)


@pytest.mark.parametrize("gspec,n", [("S:3", 3), ("Z:2", 4), ("file:A4", 2)])
def test_products_are_wreath_multiply(gspec, n, tmp_path):
    # random pairs, repeats and unsorted order included, against the scalar
    # product rule on the decoded elements
    g = _base(gspec, tmp_path)
    rng = np.random.default_rng(35)
    left, right = rng.integers(0, wreath_order(g.order, n), size=(2, 40))
    left[:5], right[-5:] = left[5], right[0]
    got = products(g, n, left, right)
    assert got.shape == (40, 40) and got.dtype == np.int64
    (lx, lp), (rx, rp) = decode_states(left, g.order, n), decode_states(right, g.order, n)
    for i, a in enumerate(zip(lx.tolist(), lp.tolist())):
        for j, b in enumerate(zip(rx.tolist(), rp.tolist())):
            x, pi = wreath_multiply(g, WreathElement(*map(tuple, a)), WreathElement(*map(tuple, b)))
            assert got[i, j] == encode_states(np.array(x), np.array(pi), g.order), (i, j)


@pytest.mark.parametrize("gspec,n", CLOSURE_INSTANCES + [("file:A4", 3)])
def test_closure_classes_are_the_type_matrices(gspec, n, tmp_path):
    # with no table: classes.type_matrix, one element at a time, is constant
    # on each class and differs between classes (A4 at n = 3: order 10 368)
    g = _base(gspec, tmp_path)
    ct = class_table(g, n, max_order=20000)
    coords, perms = decode_states(np.arange(ct.order), g.order, n)
    types = [type_matrix(g, WreathElement(tuple(x), tuple(p)))
             for x, p in zip(coords.tolist(), perms.tolist())]
    per_class = [{types[x] for x in members} for members in ct.classes]
    assert all(len(seen) == 1 for seen in per_class)
    assert len(set().union(*per_class)) == ct.num_classes
