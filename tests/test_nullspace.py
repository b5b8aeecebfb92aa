"""Exact kernel bases, checked against sympy on random and real systems.

The modular integer kernel runs on `integer_matrix(m)`, the row-scaled
integer form of a Fraction matrix m, and is checked against a basis read off
the Fraction RREF reference of `oracles`, including systems that need several
primes, an unlucky prime and a failed certificate.  The reference RREF is
itself checked against sympy.  The solver's fixed list of primes is checked to
be prime, and its end to raise the cost cap.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from admz import nullspace
from admz.errors import ResourceCapError
from admz.affine import mode, operator_matrix
from admz.nullspace import PRIMES, IntMatrix, kernel_basis
from admz.zhu import level_from_string, singular_position
from oracles import RationalMatrix, integer_matrix, rref, table

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
    m = IntMatrix(2, [{0: 1, 1: 1}])
    basis = kernel_basis(m)
    assert basis == [(F(1), F(-1))]  # first nonzero coordinate scaled to 1

    identity = IntMatrix(2, [{0: 1}, {1: 1}])
    assert kernel_basis(identity) == []
    assert kernel_basis(IntMatrix(2, [])) == [(F(1), F(0)), (F(0), F(1))]

    # half-integer rows clear to the same integer system
    half = RationalMatrix.from_rows([[F(1, 2), F(-1, 3)], [0, 0], [1, F(-2, 3)]])
    assert integer_matrix(half) == IntMatrix(2, [{0: 3, 1: -2}, {}, {0: 3, 1: -2}])
    assert kernel_basis(integer_matrix(half)) == [(F(1), F(3, 2))]


def test_kernel_vectors_annihilate_and_rank_nullity():
    rng = random.Random(99)
    for _ in range(30):
        m = random_matrix(rng, rng.randint(1, 8), rng.randint(1, 8))
        red, rank = rref(m)
        im = integer_matrix(m)
        basis = kernel_basis(im)
        assert rank + len(basis) == m.ncols
        for v in basis:
            assert all(x == 0 for x in m.matvec(list(v)))
        # empty rows interleaved, and at both ends, give the same basis
        padded = IntMatrix(im.ncols, [r for row in im.rows for r in ({}, row)] + [{}])
        assert kernel_basis(padded) == basis
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


def singular_system(lv) -> IntMatrix:
    """The stacked e(0)/f(1) integer system whose kernel is the vacuum
    singular vector."""
    d, w = singular_position(lv)
    t = table(lv.k)
    b0 = t.weight_space_basis(d, w)
    e, f = (operator_matrix(t, md, b0) for md in (mode("e", 0), mode("f", 1)))
    return IntMatrix(len(b0), e.rows + f.rows)


def first_entry_one(vec):
    first = next(x for x in vec if x)
    return [x / first for x in vec]


@pytest.mark.parametrize("level", ["1", "-1/2", "1/2", "-4/3", "-2/3", "-5/4", "3/2"])
def test_kernel_matches_sympy_on_singular_systems(level):
    sympy = pytest.importorskip("sympy")
    m = singular_system(level_from_string(level))
    ours = kernel_basis(m)
    # a row exists only for a nonzero image, so at k = 1 the system is 0 x 1
    theirs = sympy.Matrix(m.nrows, m.ncols, lambda i, j: m.rows[i].get(j, 0)).nullspace()
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
    basis = kernel_basis(integer_matrix(m))
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
    assert kernel_basis(integer_matrix(m)) == reference_basis(m)


@settings(deadline=None, max_examples=60)
@given(low_rank_matrices(big_entry))
def test_kernel_matches_rref_oracle_big_entries(m):
    assert kernel_basis(integer_matrix(m)) == reference_basis(m)


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
    basis = kernel_basis(integer_matrix(m))
    assert basis == reference_basis(m) == [(F(1), -a / b, (a / b) ** 2)]
    assert len(used) >= 3


def test_unlucky_prime_is_discarded(monkeypatch):
    p0 = PRIMES[0]
    # mod p0 the rank drops: [[p0]] has nullity 1 there and 0 over Q
    assert len(nullspace._kernel_mod([{0: p0}], 1, p0)[1]) == 1
    used = count_primes(monkeypatch)
    assert kernel_basis(IntMatrix(1, [{0: p0}])) == []
    assert len(used) == 2
    # same nullity mod p0, but the pivot moves right: column 0 looks free
    assert nullspace._kernel_mod([{0: p0, 1: 1}], 2, p0)[0] == (1,)
    m = RationalMatrix.from_rows([[p0, 1]])
    assert kernel_basis(integer_matrix(m)) == reference_basis(m) == [(F(1), F(-p0))]


def test_failed_certificate_adds_a_prime(monkeypatch):
    p0 = PRIMES[0]
    x = p0 + 5
    m = RationalMatrix.from_rows([[1, -x]])
    # one prime lifts the kernel vector (x, 1) to (5, 1), which m rejects
    pivots, kernel = nullspace._kernel_mod([{0: 1, 1: -x}], 2, p0)
    lifted = nullspace._reconstruct(kernel[0], p0)
    assert lifted == [5, 1] and any(m.matvec(lifted))
    assert not nullspace._annihilates([{0: 1, 1: -x}], lifted)
    used = count_primes(monkeypatch)
    assert kernel_basis(integer_matrix(m)) == [(F(1), F(1, x))]
    assert len(used) == 2


@pytest.mark.parametrize("level", ["-1/3", "7/2"])
def test_one_prime_certifies_singular_systems(monkeypatch, level):
    m = singular_system(level_from_string(level))
    used = count_primes(monkeypatch)
    assert len(kernel_basis(m)) == 1
    assert used == [PRIMES[0]]


def lucas_lehmer(e: int) -> bool:
    """Whether the Mersenne number 2**e - 1 is prime, for an odd prime e."""
    n, s = (1 << e) - 1, 4
    for _ in range(e - 2):
        s = (s * s - 2) % n
    return s == 0


def test_primes_are_ascending_and_proven():
    assert list(PRIMES) == sorted(set(PRIMES))
    # 2**255 - 19 is the field prime of RFC 7748 (Curve25519); here it is
    # checked only as a strong probable prime to the first twelve prime bases.
    p = PRIMES[0]
    assert p == 2**255 - 19
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(b, d, p)
        assert x in (1, p - 1) or any(pow(x, 2**i, p) == p - 1 for i in range(1, s))
    for p in PRIMES[1:]:
        e = p.bit_length()
        assert p == 2**e - 1 and lucas_lehmer(e)


def test_list_end_is_the_cost_cap():
    # the kernel vector (2**9000, 1) needs a modulus over 9000 bits, more
    # than the 8759-bit product of the list
    assert sum(p.bit_length() for p in PRIMES) == 8759
    with pytest.raises(ResourceCapError, match="8759-bit"):
        kernel_basis(IntMatrix(2, [{0: 1, 1: -(1 << 9000)}]))
