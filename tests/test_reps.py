import math
from fractions import Fraction

import pytest

from wreathwalk.classes import class_count, support_classes, type_matrix
from wreathwalk.groups import build_group
from wreathwalk.reps import (
    IrrepLabel,
    enumerate_labels,
    irrep_dimension,
    multinomial,
    support_characters,
)
from wreathwalk.wreath import enumerate_wreath_elements, wreath_order


def test_label_enumeration_counts():
    for gspec, n in [("Z:2", 3), ("Z:3", 2), ("S:3", 2), ("S:3", 3)]:
        g = build_group(gspec)
        labs = enumerate_labels(g, n)
        brute = len({type_matrix(g, w) for w in enumerate_wreath_elements(g, n)})
        assert len(labs) == class_count(g, n) == brute
        assert len(set(labs)) == len(labs)


def test_trivial_label_first():
    g = build_group("S:3")
    labs = enumerate_labels(g, 3)
    assert labs[0].type == (3, 0, 0)
    assert labs[0].lambdas[0] == (3,)
    assert irrep_dimension(g, 3, labs[0]) == 1


def test_dimension_examples():
    g = build_group("S:3")
    # all mass on the 2-dim base irrep (slot 2 here), top partition [2]:
    # dim = 1 * 2^2 * 1 = 4
    lab = IrrepLabel(type=(0, 2, 0), lambdas=((), (2,), ()))
    assert irrep_dimension(g, 2, lab) == 4
    # split type: multinomial(2;1,1) * 2 = 4
    lab2 = IrrepLabel(type=(1, 1, 0), lambdas=((1,), (1,), ()))
    assert irrep_dimension(g, 2, lab2) == 4


def test_dimension_squares_sum_to_group_order():
    for gspec, n in [("Z:2", 2), ("Z:2", 3), ("Z:2", 4), ("Z:3", 3), ("S:3", 2), ("S:3", 3)]:
        g = build_group(gspec)
        total = sum(irrep_dimension(g, n, lab) ** 2 for lab in enumerate_labels(g, n))
        assert total == wreath_order(g.order, n)


def test_multinomial():
    assert multinomial(5, (2, 2, 1)) == 30
    assert multinomial(4, (4, 0)) == 1


def _support_columns(g, n):
    labs = enumerate_labels(g, n)
    scs = [support_characters(g, n, lab) for lab in labs]
    cols = []
    for tag, _, size in support_classes(g, n):
        if tag == ("id",):
            col = [complex(sc.dim) for sc in scs]
        elif tag[0] == "u":
            col = [complex(sc.chi_u[tag[1]]) for sc in scs]
        else:
            col = [complex(sc.chi_v[tag[1]]) for sc in scs]
        cols.append((tag, size, col))
    return cols


@pytest.mark.parametrize("gspec,n", [("Z:2", 3), ("Z:3", 2), ("S:3", 2), ("S:3", 3), ("Z:4", 2)])
def test_support_character_column_orthogonality(gspec, n):
    """sum_rho d_rho chi_rho(c) = 0 on every nonidentity class, and
    sum_rho chi(c) conj(chi(c')) = delta |G wr S_n| / |class| between the
    support columns.  These only hold if the character values themselves are
    right, not just their measure-weighted combinations."""
    g = build_group(gspec)
    order = wreath_order(g.order, n)
    cols = _support_columns(g, n)
    id_col = cols[0][2]
    for tag, size, col in cols[1:]:
        dot = sum(d * c for d, c in zip(id_col, col))
        assert abs(dot) < 1e-9 * order, (tag, dot)
    for i, (t1, s1, c1) in enumerate(cols):
        for t2, s2, c2 in cols[i:]:
            dot = sum(a * b.conjugate() for a, b in zip(c1, c2))
            want = order / s1 if t1 == t2 else 0.0
            assert abs(dot - want) < 1e-6 * max(1, order), (t1, t2, dot)


def test_nonabelian_paired_support_value():
    # base irrep of dimension 2, both copies in that slot, lambda = [2]:
    # the transposition-with-mutually-inverse-coordinates class has
    # character tr(rho(v) rho(v^-1)) = chi(e) = 2, not d_rho = 4
    g = build_group("S:3")
    lab = IrrepLabel(type=(0, 2, 0), lambdas=((), (2,), ()))
    sc = support_characters(g, 2, lab)
    assert sc.dim == 4
    assert sc.chi_v[1] == Fraction(2)
    # and the sign twist flips it
    lab_sgn = IrrepLabel(type=(0, 2, 0), lambdas=((), (1, 1), ()))
    sc2 = support_characters(g, 2, lab_sgn)
    assert sc2.chi_v[1] == Fraction(-2)


def test_chi_u_single_slot_value():
    # chi(u; e) for an all-in-one-slot label is chi_j(u) d_j^{n-1} d_lambda
    g = build_group("S:3")
    lab = IrrepLabel(type=(0, 2, 0), lambdas=((), (2,), ()))
    sc = support_characters(g, 2, lab)
    # transposition class of S3 (class 2) has chi = 0 on the 2-dim irrep
    assert sc.chi_u[2] == 0
    # 3-cycle class has chi = -1: chi(u;e) = (-1) * 2 * 1 = -2
    assert sc.chi_u[3] == Fraction(-2)


def test_label_str_formats():
    lab = IrrepLabel(type=(1, 1, 0), lambdas=((1,), (1,), ()))
    s = str(lab)
    assert "1" in s and "-" in s


def test_label_cap():
    g = build_group("S:3")
    with pytest.raises(ValueError):
        enumerate_labels(g, 3, max_labels=5)
