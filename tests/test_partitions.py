from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wreathwalk import bounds, partitions
from wreathwalk.cli import main
from wreathwalk.classes import class_count
from wreathwalk.groups import build_group
from wreathwalk.partitions import (
    WORD_M_MAX,
    char_ratio_transposition,
    conjugate,
    content_rows,
    dim_hook,
    dim_partition,
    enumerate_partitions,
    mn_character,
    partition_count,
    partition_table,
    sn_character_table,
)


def test_enumeration_order_n4():
    # frozen: reverse-lex, [n] first, [1^n] last
    assert enumerate_partitions(4) == [
        (4,),
        (3, 1),
        (2, 2),
        (2, 1, 1),
        (1, 1, 1, 1),
    ]


def test_enumeration_counts():
    for n in range(13):
        assert len(enumerate_partitions(n)) == partition_count(n)


def test_partition_count_values():
    known = {0: 1, 1: 1, 5: 7, 10: 42, 20: 627, 50: 204226, 100: 190569292}
    for n, p in known.items():
        assert partition_count(n) == p


def test_dim_examples():
    assert dim_partition((3, 1)) == 3
    assert dim_partition((5,)) == 1
    assert dim_partition((1, 1, 1, 1, 1)) == 1
    assert dim_partition((2, 2)) == 2


def test_dim_det_equals_hook_and_burnside():
    for n in range(1, 13):
        parts = enumerate_partitions(n)
        dims = [dim_partition(lam) for lam in parts]
        assert dims == [dim_hook(lam) for lam in parts]
        assert sum(d * d for d in dims) == math.factorial(n)


def test_r_examples():
    assert char_ratio_transposition((3, 1)) == Fraction(1, 3)
    assert char_ratio_transposition((2, 2)) == 0
    assert char_ratio_transposition((4,)) == 1
    assert char_ratio_transposition((1, 1, 1, 1)) == -1
    # r([n-1,1]) = (n-3)/(n-1)
    for n in range(2, 20):
        lam = (n - 1, 1) if n > 1 else (1,)
        assert char_ratio_transposition(lam) == Fraction(n - 3, n - 1)


def test_r_conjugation_antisymmetry():
    for n in range(2, 13):
        for lam in enumerate_partitions(n):
            mu = conjugate(lam)
            assert char_ratio_transposition(mu) == -char_ratio_transposition(lam)
            assert dim_partition(mu) == dim_partition(lam)


def test_r_bounds():
    for n in range(2, 12):
        for lam in enumerate_partitions(n):
            r = char_ratio_transposition(lam)
            assert -1 <= r <= 1


def test_conjugate_involution():
    for n in range(13):
        for lam in enumerate_partitions(n):
            assert conjugate(conjugate(lam)) == lam


@given(st.integers(min_value=1, max_value=40), st.integers(min_value=0, max_value=10 ** 9))
@settings(max_examples=60)
def test_conjugate_involution_random(n, pick):
    parts = enumerate_partitions(min(n, 14))
    lam = parts[pick % len(parts)]
    assert conjugate(conjugate(lam)) == lam
    assert sum(conjugate(lam)) == sum(lam)


def test_mn_spot_values():
    assert mn_character((1, 1, 1), (3,)) == 1
    assert mn_character((2, 1), (1, 1, 1)) == 2
    assert mn_character((2, 1), (2, 1)) == 0
    assert mn_character((2, 1), (3,)) == -1
    # identity column is the dimension
    for n in range(1, 9):
        for lam in enumerate_partitions(n):
            assert mn_character(lam, tuple([1] * n)) == dim_partition(lam)


def test_mn_transposition_column_is_d_times_r():
    # chi_lam(2,1^{n-2}) == dim(lam) * r(lam), exact, n <= 10
    for n in range(2, 11):
        mu = tuple([2] + [1] * (n - 2))
        for lam in enumerate_partitions(n):
            assert mn_character(lam, mu) == dim_partition(lam) * char_ratio_transposition(lam)


def _class_sizes(m):
    # size of the S_m class with cycle type mu
    sizes = {}
    for mu in enumerate_partitions(m):
        z = 1
        counts = {}
        for part in mu:
            counts[part] = counts.get(part, 0) + 1
        for part, c in counts.items():
            z *= (part ** c) * math.factorial(c)
        sizes[mu] = math.factorial(m) // z
    return sizes


def test_mn_orthogonality():
    # row orthogonality of the full character table, n <= 6
    for m in range(1, 7):
        parts, table = sn_character_table(m)
        sizes = _class_sizes(m)
        fact = math.factorial(m)
        for i, lam in enumerate(parts):
            for j in range(i, len(parts)):
                dot = sum(
                    sizes[mu] * table[i][c] * table[j][c] for c, mu in enumerate(parts)
                )
                assert dot == (fact if i == j else 0)


def test_character_table_shape():
    parts, table = sn_character_table(5)
    assert parts[0] == (5,)
    assert table[0] == [1] * len(parts)  # trivial irrep row first


def test_dim_rejects_garbage():
    with pytest.raises(ValueError):
        dim_partition((1, 2))
    with pytest.raises(ValueError):
        dim_partition(())
    # equal to the key (2, 1) and hashing like it, but not a partition
    with pytest.raises(ValueError):
        dim_partition((2.0, 1))
    for not_a_tuple in ([2, 1], "21", 3, None):
        with pytest.raises(ValueError):
            dim_partition(not_a_tuple)


def test_partition_counts_grow_one_shared_table(monkeypatch):
    # reference: the coin-style DP, p(k) for k <= 200
    ref = [1] + [0] * 200
    for part in range(1, 201):
        for total in range(part, 201):
            ref[total] += ref[total - part]
    builds = []
    build = partitions._partition_count_table
    monkeypatch.setattr(partitions, "_PARTITION_COUNTS", [1])
    monkeypatch.setattr(partitions, "_partition_count_table",
                        lambda n: builds.append(n) or build(n))
    class_count(build_group("S:3"), 600)
    assert builds == [600]
    assert [partition_count(m) for m in range(201)] == ref
    assert builds == [600]


# ---------------------------------------------------------------------------
# the shared partition table against the scalar branching rule


def _grow(level: dict) -> dict:
    """{lam: (dim, content_sum)} over the partitions of m from the same
    table for m - 1, adding one box to each partition every way."""
    out: dict = {}
    for mu, (d, c) in level.items():
        for row in range(len(mu) + 1):
            col = mu[row] if row < len(mu) else 0
            if row == 0 or mu[row - 1] > col:
                lam = mu[:row] + (col + 1,) + mu[row + 1:]
                out[lam] = (out.get(lam, (0,))[0] + d, c + 2 * (col - row))
    return out


def _reference_levels(top: int):
    level = {(): (1, 0)}
    for m in range(top + 1):
        level = _grow(level) if m else level
        yield level


def test_table_matches_scalar_branching():
    # same partitions, dims and content sums, in the same (reverse-lex) order
    for m, level in enumerate(_reference_levels(25)):
        assert list(partition_table(m).items()) == list(level.items())
        assert list(level) == enumerate_partitions(m)


def test_content_rows_match_scalar_branching():
    rows = content_rows(30)
    for m, level in enumerate(_reference_levels(30)):
        want: dict = {}
        for d, c in level.values():
            want[c] = want.get(c, 0) + d * d
        assert dict(rows[m]) == want
        assert rows[m] == tuple(want.items())      # first-appearance order: fixed atom order


def test_table_invariants_at_m40():
    # p(m) partitions, sum d^2 = m!, and sum d = number of involutions of m
    # (an independent check of the limb carries: dims reach 76 bits)
    involutions = [1, 1]
    for m in range(2, 41):
        involutions.append(involutions[-1] + (m - 1) * involutions[-2])
    levels = partitions._LevelBuilder()
    for m in range(41):
        contents, limbs, _ = levels.level(m)
        dims = partitions._level_dims(limbs)
        assert len(dims) == len(contents) == partition_count(m)
        assert all(type(d) is int for d in dims)
        assert sum(d * d for d in dims) == math.factorial(m)
        assert sum(dims) == involutions[m]
    assert max(dims).bit_length() == 76


def test_index_map_matches_corner_lookups():
    # R[k, lam] is lam without its k-th corner from the top, looked up in
    # level m - 1; rows past lam's corners point at the zero column p(m - 1)
    prev: dict = {}
    levels = partitions._LevelBuilder()
    for m in range(16):
        index = levels.level(m)[2]
        level = list(partitions.partitions_of(m))
        assert index.dtype == np.int32 and index.shape[1] == len(level)
        for i, lam in enumerate(level):
            rows = [r for r in range(len(lam)) if lam[r] > (lam[r + 1] if r + 1 < len(lam) else 0)]
            want = [prev[tuple(p for p in lam[:r] + (lam[r] - 1,) + lam[r + 1:] if p)]
                    for r in rows]
            assert index[:, i].tolist() == want + [len(prev)] * (len(index) - len(want))
        prev = {lam: i for i, lam in enumerate(level)}


def test_content_rows_invariants_through_m45():
    # sum d^2 = m!, sum c d^2 = 0 and conjugation c -> -c on every level:
    # the squared limbs and their carries run past 150 bits
    for m, rows in enumerate(content_rows(45)):
        level = dict(rows)
        assert len(level) == len(rows)
        assert sum(level.values()) == math.factorial(m)
        assert sum(c * d for c, d in rows) == 0
        assert all(level[-c] == d for c, d in rows)
    assert max(d for _, d in rows).bit_length() > 150


def test_levels_refuse_negative_m():
    with pytest.raises(ValueError, match="m must be nonnegative"):
        partitions._LEVELS.level(-1)
    for build in (partition_table, content_rows):
        with pytest.raises(ValueError, match="m must be nonnegative"):
            build(-1)


def test_table_refuses_past_the_word_cap():
    assert WORD_M_MAX == 61
    levels = partitions._LevelBuilder()
    with pytest.raises(ValueError, match="exceeds cap 61"):
        levels.level(WORD_M_MAX + 1)
    assert levels.m == -1                              # refused before level 0
    for build in (partition_table, content_rows, enumerate_partitions):
        with pytest.raises(ValueError, match="exceeds cap 61 of the partition table"):
            build(WORD_M_MAX + 1)
    with pytest.raises(ValueError, match="exceeds cap 61"):
        dim_partition((WORD_M_MAX + 1,))


def test_content_rows_slice_the_largest_build(monkeypatch):
    # a smaller top reads a prefix of the largest build so far, no level
    # is built for it, and it equals a fresh build
    content_rows(30)
    built = _count_levels(monkeypatch)
    got = [content_rows(20), content_rows(10)]
    assert built == []
    for top, rows in zip((20, 10), got):
        assert rows == _fresh_rows(top) and len(rows) == top + 1


# ---------------------------------------------------------------------------
# the one resumable level builder


def _count_levels(monkeypatch) -> list:
    """The levels the shared builder makes from here on, in order."""
    levels = partitions._LEVELS
    step, built = levels._step, []

    def counted():
        step()
        built.append(levels.m)
    monkeypatch.setattr(levels, "_step", counted)
    return built


def _fresh_rows(top: int) -> tuple:
    """content_rows(top) from a builder of its own, no rows or levels cached."""
    levels = partitions._LevelBuilder()
    return tuple(partitions._content_row(*levels.level(m)[:2]) for m in range(top + 1))


def test_content_rows_build_only_their_new_levels(monkeypatch):
    monkeypatch.setattr(partitions, "_CONTENT_ROWS", [()])
    content_rows(40)
    built = _count_levels(monkeypatch)
    rows = content_rows(45)
    assert built == [41, 42, 43, 44, 45]
    assert rows == _fresh_rows(45)


def test_a_request_below_the_builder_starts_again_at_level_0(monkeypatch):
    monkeypatch.setattr(partitions, "_CONTENT_ROWS", [()])
    content_rows(30)
    built = _count_levels(monkeypatch)
    assert list(partition_table.__wrapped__(5).items()) == list(list(_reference_levels(5))[-1].items())
    assert built == [0, 1, 2, 3, 4, 5]
    built.clear()
    rows = content_rows(35)
    assert built == list(range(6, 36))            # on from level 5, rows for 31..35 only
    assert rows == _fresh_rows(35)


def test_a_cold_window_shape_builds_13_levels(monkeypatch):
    partitions._LEVELS.level(bounds.FULL_ENUM_MAX)
    bounds._window_shape.cache_clear()
    partition_table.cache_clear()
    built = _count_levels(monkeypatch)
    shape = bounds._window_shape(200, bounds.J_WINDOW, bounds.FULL_ENUM_MAX)
    shape(shape.stop(bounds.FULL_ENUM_MAX + 1))                  # every slot size
    assert built == list(range(bounds.J_WINDOW + 1))
    bounds._window_shape.cache_clear()


def test_the_exact_spectrum_commands_build_each_content_level_once(monkeypatch, capsys):
    # in one process from cold caches: content_rows(20), then (30) on from
    # level 20, then (10) a slice; after them the paired S:3 spectrum
    # slices content_rows(8) too, so the builder never starts again
    monkeypatch.setattr(partitions, "_CONTENT_ROWS", [()])
    monkeypatch.setattr(partitions, "_LEVELS", partitions._LevelBuilder())
    partition_table.cache_clear()
    bounds._exact_atoms.cache_clear()
    built = _count_levels(monkeypatch)
    for command in ("distance --group Z:2 --n 20 --walk independent --k 0..40",
                    "distance --n 30 --walk sym --k 0..60",
                    "distance --group Z:3 --n 10 --walk paired --k 0..40",
                    "spectrum --group S:3 --n 8 --walk paired"):
        assert main(command.split()) == 0
    capsys.readouterr()
    assert built == list(range(31))


_REFERENCE_25 = list(_reference_levels(25))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.booleans(), st.integers(0, 25)), min_size=1, max_size=8))
def test_any_order_of_requests_equals_fresh_builds(requests):
    # content_rows from no rows and partition_table past its cache, in any
    # order, against the scalar branching reference
    partitions._CONTENT_ROWS[0] = ()
    for rows, top in requests:
        if rows:
            want = []
            for level in _REFERENCE_25[:top + 1]:
                per_c: dict = {}
                for d, c in level.values():
                    per_c[c] = per_c.get(c, 0) + d * d
                want.append(tuple(per_c.items()))
            assert content_rows(top) == tuple(want)
        else:
            assert list(partition_table.__wrapped__(top).items()) == list(_REFERENCE_25[top].items())
