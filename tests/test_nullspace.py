"""Exact RREF and kernel bases, checked against sympy on random and real systems."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from admz.affine import mode, operator_matrix, weight_space_basis
from admz.nullspace import RationalMatrix, kernel_basis, rref
from admz.zhu import level_from_string, singular_position

F = Fraction


def random_matrix(rng, nrows, ncols, density=0.4):
    entries = {}
    for i in range(nrows):
        for j in range(ncols):
            if rng.random() < density:
                entries[(i, j)] = F(rng.randint(-6, 6), rng.randint(1, 4))
    return RationalMatrix(nrows, ncols, entries)


def test_rref_examples():
    identity = RationalMatrix.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    red, rank = rref(identity)
    assert red == identity and rank == 3

    m = RationalMatrix.from_rows([[1, 2], [2, 4]])
    red, rank = rref(m)
    assert red == RationalMatrix.from_rows([[1, 2], [0, 0]]) and rank == 1

    empty = RationalMatrix(0, 0)
    red, rank = rref(empty)
    assert red == empty and rank == 0


def test_kernel_examples():
    m = RationalMatrix.from_rows([[1, 1]])
    basis = kernel_basis(m)
    assert basis == [(F(1), F(-1))]  # first nonzero coordinate scaled to 1

    identity = RationalMatrix.from_rows([[1, 0], [0, 1]])
    assert kernel_basis(identity) == []


def test_kernel_vectors_annihilate_and_rank_nullity():
    rng = random.Random(99)
    for _ in range(30):
        m = random_matrix(rng, rng.randint(1, 8), rng.randint(1, 8))
        red, rank = rref(m)
        basis = kernel_basis(m)
        assert rank + len(basis) == m.ncols
        for v in basis:
            assert all(x == 0 for x in m.matvec(list(v)))
        # idempotence and determinism
        red2, rank2 = rref(red)
        assert red2 == red and rank2 == rank
        assert rref(m) == (red, rank)


def test_rref_matches_sympy_oracle():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(4)
    for _ in range(15):
        nrows, ncols = rng.randint(1, 6), rng.randint(1, 6)
        m = random_matrix(rng, nrows, ncols)
        red, rank = rref(m)
        sm = sympy.Matrix(
            [[sympy.Rational(x.numerator, x.denominator) for x in row] for row in m.to_rows()]
        )
        sred, spiv = sm.rref()
        assert rank == len(spiv)
        ours = red.to_rows()
        for i in range(nrows):
            for j in range(ncols):
                assert sympy.Rational(ours[i][j].numerator, ours[i][j].denominator) == sred[i, j]


def singular_system(lv) -> RationalMatrix:
    """The stacked e(0)/f(1) system whose kernel is the vacuum singular vector."""
    d, w = singular_position(lv)
    b0 = weight_space_basis(lv.k, d, w)
    return RationalMatrix.vstack(
        operator_matrix(mode("e", 0), b0, weight_space_basis(lv.k, d, w + 1), lv.k),
        operator_matrix(mode("f", 1), b0, weight_space_basis(lv.k, d - 1, w - 1), lv.k),
    )


def first_entry_one(vec):
    first = next(x for x in vec if x)
    return [x / first for x in vec]


@pytest.mark.parametrize("level", ["1", "-1/2", "1/2", "-4/3", "-2/3", "-5/4", "3/2"])
def test_kernel_matches_sympy_on_singular_systems(level):
    sympy = pytest.importorskip("sympy")
    m = singular_system(level_from_string(level))
    ours = kernel_basis(m)
    theirs = sympy.Matrix(
        [[sympy.Rational(x.numerator, x.denominator) for x in row] for row in m.to_rows()]
    ).nullspace()
    assert len(ours) == 1 and len(theirs) == 1
    oracle = [F(int(x.p), int(x.q)) for x in first_entry_one(list(theirs[0]))]
    assert list(ours[0]) == oracle


small_entry = st.fractions(min_value=-5, max_value=5, max_denominator=4)


@settings(deadline=None, max_examples=60)
@given(
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=1, max_value=5),
    st.data(),
)
def test_rref_properties_hypothesis(nrows, ncols, data):
    rows = [
        [data.draw(small_entry) for _ in range(ncols)] for _ in range(nrows)
    ]
    m = RationalMatrix.from_rows(rows)
    red, rank = rref(m)
    assert 0 <= rank <= min(nrows, ncols)
    basis = kernel_basis(m)
    assert rank + len(basis) == ncols
    for v in basis:
        assert all(x == 0 for x in m.matvec(list(v)))
        first = next(x for x in v if x)
        assert first == 1
    # row space is preserved: every original row is a combination of rref rows;
    # cheap necessary check: rref of the stack equals rref of m
    stacked = RationalMatrix.vstack(m, red)
    red2, rank2 = rref(stacked)
    assert rank2 == rank
