import json
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wreathwalk.groups import (
    build_group,
    cyclic_group,
    group_from_file,
    symmetric_group,
)


def test_cyclic_basics():
    g = cyclic_group(5)
    assert g.order == 5
    assert g.num_classes == 5
    assert g.is_abelian
    assert g.inv[2] == 3
    assert g.class_sizes() == [1] * 5
    assert g.irrep_dims() == [1] * 5


def test_symmetric_group_structure():
    g = symmetric_group(4)
    assert g.order == 24
    assert g.num_classes == 5
    assert not g.is_abelian
    assert sorted(g.class_sizes()) == [1, 3, 6, 6, 8]
    assert sorted(g.irrep_dims()) == [1, 1, 2, 3, 3]
    # identity is element 0 and its own class
    assert g.classes[0] == [0]
    # character table row 0 is trivial
    assert all(v == 1 for v in g.char_table[0])


def test_s3_character_values():
    g = symmetric_group(3)
    dims = sorted(g.irrep_dims())
    assert dims == [1, 1, 2]
    # second orthogonality at the identity column: sum d^2 = 6
    assert sum(d * d for d in g.irrep_dims()) == 6


@given(st.integers(min_value=1, max_value=30), st.integers(min_value=0, max_value=200))
def test_cyclic_inverse_property(m, seed):
    g = cyclic_group(m)
    a = seed % m
    assert g.mult[a, g.inv[a]] == 0


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=2, max_value=5))
def test_symmetric_latin_square(m):
    g = symmetric_group(m)
    ar = np.arange(g.order)
    for a in range(g.order):
        assert np.array_equal(np.sort(g.mult[a]), ar)
        assert np.array_equal(np.sort(g.mult[:, a]), ar)


def test_class_of_consistent():
    g = symmetric_group(4)
    for idx, cls in enumerate(g.classes):
        for e in cls:
            assert g.class_of[e] == idx


def test_conjugation_stays_in_class():
    g = symmetric_group(4)
    for a in range(g.order):
        for h in range(0, g.order, 5):
            conj = g.mult[g.mult[h, a], g.inv[h]]
            assert g.class_of[conj] == g.class_of[a]


def test_build_group_parsing():
    assert build_group("Z:6").order == 6
    assert build_group("S:3").order == 6
    with pytest.raises(ValueError):
        build_group("Q:8")
    with pytest.raises(ValueError):
        build_group("Z8")


def _dump_group(path, g, with_chars=True):
    data = {"order": g.order, "mult": g.mult.tolist()}
    if with_chars:
        data["char_table"] = [
            [[float(complex(v).real), float(complex(v).imag)] for v in row]
            for row in g.char_table
        ]
    path.write_text(json.dumps(data))


def test_file_ingestion_roundtrip(tmp_path):
    g = symmetric_group(3)
    p = tmp_path / "s3.json"
    _dump_group(p, g)
    h = group_from_file(str(p))
    assert h.order == 6
    assert h.num_classes == 3
    assert sorted(h.irrep_dims()) == [1, 1, 2]
    assert h.exact_characters  # all-integer table survives as Fractions
    assert np.array_equal(h.mult, g.mult)


def test_file_ingestion_rejects_broken_tables(tmp_path):
    g = cyclic_group(3)
    # non-associative corruption
    bad = g.mult.copy()
    bad[1, 1] = 1
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"order": 3, "mult": bad.tolist()}))
    with pytest.raises(ValueError):
        group_from_file(str(p))
    # identity not at 0
    shuffled = [[1, 0, 2], [0, 2, 1], [2, 1, 0]]
    p.write_text(json.dumps({"order": 3, "mult": shuffled}))
    with pytest.raises(ValueError):
        group_from_file(str(p))
    # missing fields
    p.write_text(json.dumps({"order": 3}))
    with pytest.raises(ValueError):
        group_from_file(str(p))
    # labels that do not name every element
    p.write_text(json.dumps({"order": 3, "mult": g.mult.tolist(), "labels": ["e", "r"]}))
    with pytest.raises(ValueError, match="labels length"):
        group_from_file(str(p))


def test_file_ingestion_rejects_bad_characters(tmp_path):
    g = cyclic_group(2)
    p = tmp_path / "z2.json"
    data = {
        "order": 2,
        "mult": g.mult.tolist(),
        "char_table": [[[1, 0], [1, 0]], [[1, 0], [0.5, 0]]],
    }
    p.write_text(json.dumps(data))
    with pytest.raises(ValueError):
        group_from_file(str(p))


def test_z4_characters_are_exact_gaussian():
    g = cyclic_group(4)
    assert g.exact_characters
    row = g.char_table[1]
    assert row[1] == complex(0, 1)
    assert row[2] == complex(-1, 0)


def test_zm_character_orthogonality_floats():
    g = cyclic_group(7)
    s = g.num_classes
    for i in range(s):
        for j in range(s):
            dot = sum(
                complex(g.char_table[i][k]) * complex(g.char_table[j][k]).conjugate()
                for k in range(s)
            )
            want = g.order if i == j else 0
            assert abs(dot - want) < 1e-9


def test_first_group_builds_skip_numpy_ma():
    # np.unique imports numpy.ma (about 14 ms) on first use; the class and
    # table builders of a spectrum and an oracle run need neither
    code = ("import sys\n"
            "from wreathwalk.cli import main\n"
            "assert main(['spectrum', '--group', 'S:3', '--n', '8', '--walk', 'paired']) == 0\n"
            "assert main(['oracle', '--group', 'S:3', '--n', '3', '--walk', 'paired',"
            " '--k', '0..2']) == 0\n"
            "print('numpy.ma' in sys.modules)\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-1] == "False"
