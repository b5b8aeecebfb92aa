"""Exact RREF and kernel bases, checked against sympy on random and real systems.

The modular kernel is also checked against a basis read off the Fraction
RREF, including systems that need several primes, an unlucky prime and a
failed certificate.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from admz import nullspace
from admz.affine import mode, operator_matrix, weight_space_basis
from admz.nullspace import RationalMatrix, kernel_basis, primes, rref
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


# -- the modular kernel against the Fraction RREF ------------------------------


def reference_basis(m):
    """The canonical kernel basis read off the Fraction RREF oracle."""
    red, rank = rref(m)
    rows = red.to_rows()[:rank]
    pivots = [next(j for j, x in enumerate(row) if x) for row in rows]
    basis = []
    for free in range(m.ncols):
        if free in pivots:
            continue
        vec = [F(0)] * m.ncols
        vec[free] = F(1)
        for row, p in zip(rows, pivots):
            vec[p] = -row[free]
        basis.append(tuple(first_entry_one(vec)))
    return basis


@st.composite
def low_rank_matrices(draw, entries):
    """A product of an n x r and an r x m matrix: kernels of dimension >= m - r,
    zero rows and columns when an entry strategy draws zeros, 0 x n and n x 0."""
    nrows = draw(st.integers(min_value=0, max_value=6))
    ncols = draw(st.integers(min_value=0, max_value=6))
    rank = draw(st.integers(min_value=0, max_value=min(nrows, ncols)))
    left = [[draw(entries) for _ in range(rank)] for _ in range(nrows)]
    right = [[draw(entries) for _ in range(ncols)] for _ in range(rank)]
    cells = {}
    for i in range(nrows):
        for j in range(ncols):
            v = sum((left[i][t] * right[t][j] for t in range(rank)), F(0))
            if v:
                cells[(i, j)] = v
    return RationalMatrix(nrows, ncols, cells)


sparse_entry = st.one_of(st.just(F(0)), small_entry)
big = st.integers(min_value=2**100, max_value=2**140)
big_entry = st.one_of(
    st.just(F(0)),
    small_entry,
    st.builds(lambda n, d, s: F(s * n, d), big, big, st.sampled_from((1, -1))),
)


@settings(deadline=None, max_examples=150)
@given(low_rank_matrices(sparse_entry))
@example(RationalMatrix(0, 4))
@example(RationalMatrix(3, 0))
@example(RationalMatrix(3, 3))
def test_kernel_matches_rref_oracle(m):
    assert kernel_basis(m) == reference_basis(m)


@settings(deadline=None, max_examples=60)
@given(low_rank_matrices(big_entry))
def test_kernel_matches_rref_oracle_big_entries(m):
    assert kernel_basis(m) == reference_basis(m)


def count_primes(monkeypatch, limit=40):
    """Record the primes the kernel solver tries; fail instead of looping on."""
    used = []
    kernel_mod = nullspace._kernel_mod

    def counting(rows, ncols, p):
        used.append(p)
        assert len(used) <= limit, f"no certified basis after {limit} primes"
        return kernel_mod(rows, ncols, p)

    monkeypatch.setattr(nullspace, "_kernel_mod", counting)
    return used


def test_big_entries_need_several_primes(monkeypatch):
    a, b = F(2**101 + 3, 2**103 - 1), F(-(3**70), 2**107 + 1)
    m = RationalMatrix.from_rows([[a, b, 0], [0, a, b]])
    used = count_primes(monkeypatch)
    basis = kernel_basis(m)
    assert basis == reference_basis(m) == [(F(1), -a / b, (a / b) ** 2)]
    assert len(used) >= 3


def test_unlucky_prime_is_discarded(monkeypatch):
    p0 = next(primes())
    # mod p0 the rank drops: [[p0]] has nullity 1 there and 0 over Q
    assert len(nullspace._kernel_mod([{0: p0}], 1, p0)[1]) == 1
    used = count_primes(monkeypatch)
    assert kernel_basis(RationalMatrix.from_rows([[p0]])) == []
    assert len(used) == 2
    # same nullity mod p0, but the pivot moves right: column 0 looks free
    assert nullspace._kernel_mod([{0: p0, 1: 1}], 2, p0)[0] == (1,)
    m = RationalMatrix.from_rows([[p0, 1]])
    assert kernel_basis(m) == reference_basis(m) == [(F(1), F(-p0))]


def test_failed_certificate_adds_a_prime(monkeypatch):
    p0 = next(primes())
    x = p0 + 5
    m = RationalMatrix.from_rows([[1, -x]])
    # one prime lifts the kernel vector (x, 1) to (5, 1), which m rejects
    pivots, kernel = nullspace._kernel_mod(nullspace._integer_rows(m), 2, p0)
    lifted = nullspace._reconstruct(kernel[0], p0)
    assert lifted == [F(5), F(1)] and any(m.matvec(lifted))
    used = count_primes(monkeypatch)
    assert kernel_basis(m) == [(F(1), F(1, x))]
    assert len(used) == 2
