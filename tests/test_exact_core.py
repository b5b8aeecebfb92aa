"""exact_core: scalars and classifying polynomials."""

import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from admz.errors import InvalidInputError, ResourceCapError
from admz.exact_core import (
    HPoly,
    format_scalar,
    from_integral,
    parse_scalar,
    poly_mul,
    poly_proportional,
    poly_root_check,
)
from admz.usl2 import FinElement
from oracles import parse_hpoly, poly_root_check_by_fractions

F = Fraction


def mul(a: HPoly, b: HPoly) -> HPoly:
    """The ring product of two polynomials, on their coefficient lists."""
    return HPoly(poly_mul(a.coeffs, b.coeffs))


def test_scalar_parse_format():
    assert parse_scalar("-1/2") == F(-1, 2)
    assert parse_scalar("7") == F(7)
    assert format_scalar(F(-3, 4)) == "-3/4"
    assert format_scalar(F(5)) == "5"
    for bad in ("0.5", "1e3", "", "1/0x", "one", "1/0", "-3/00"):
        with pytest.raises(InvalidInputError):
            parse_scalar(bad)


# one more digit than the interpreter converts between int and string
DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
LONG = "1" + "0" * DIGIT_LIMIT


@pytest.mark.skipif(not DIGIT_LIMIT, reason="no int-string digit limit")
@pytest.mark.parametrize("text", [LONG, f"-1/{LONG}"], ids=["scalar", "scalar-den"])
def test_over_long_literal_is_invalid_input(text):
    with pytest.raises(InvalidInputError, match="too long"):
        parse_scalar(text)


@pytest.mark.skipif(not DIGIT_LIMIT, reason="no int-string digit limit")
def test_number_too_long_to_print_is_a_resource_cap():
    assert format_scalar(F(10**DIGIT_LIMIT - 1)) == "9" * DIGIT_LIMIT
    with pytest.raises(ResourceCapError, match="too long to print"):
        format_scalar(F(10**5000))
    with pytest.raises(ResourceCapError, match="too long to print"):
        format_scalar(F(1, 10**5000))


def test_hpoly_product_examples():
    h = HPoly([0, 1])
    assert mul(h, h + HPoly([1])) == HPoly([0, 1, 1])
    assert mul(HPoly(), h).is_zero()
    # degree additivity
    a = HPoly([1, 2, 3])
    b = HPoly([F(1, 2), 0, 0, 1])
    assert mul(a, b).degree == a.degree + b.degree


def test_hpoly_is_an_exact_sum_keyed_by_power():
    p, q = HPoly([1, 2]), HPoly([0, F(1, 2), 3])
    for got in (-p, p - q, 2 * p, p * 2):
        assert type(got) is HPoly
    assert 2 * p == p * 2 == p + p and p - q == HPoly([1, F(3, 2), -3])
    assert len({HPoly([1, 2]), HPoly([1, 2, 0]), HPoly({1: 2, 0: 1})}) == 1
    assert HPoly([1, 0, 2]).coeffs == (1, 0, 2) and HPoly([1, 0, 2]).degree == 2
    assert HPoly([0, 0]).coeffs == () and HPoly([0, 0]).degree == -1
    assert repr(HPoly([1, 2])) == "HPoly('2*h + 1')"
    # a polynomial and a U(sl2) element are sums over different bases
    one, fin_one = HPoly([1]), FinElement.monomial((0, 0, 0))
    assert (one == fin_one) is False
    with pytest.raises(TypeError):
        one + fin_one


def test_hpoly_s_product_for_half_integer_level():
    # expansion of prod_{r in S} (h - r) for k = -1/2, S = {1, 0, -1/2, -3/2},
    # cross-checked against sympy below and frozen here:
    # h^4 + h^3 - 5/4 h^2 - 3/4 h
    sympy = pytest.importorskip("sympy")
    S = [F(1), F(0), F(-1, 2), F(-3, 2)]
    prod = HPoly.from_roots(S)
    assert prod == HPoly([0, F(-3, 4), F(-5, 4), 1, 1])
    hs = sympy.symbols("h")
    expr = sympy.expand(sympy.prod(hs - sympy.Rational(r) for r in S))
    poly = sympy.Poly(expr, hs)
    coeffs = list(reversed(poly.all_coeffs()))
    assert [F(str(c)) for c in coeffs] == list(prod.coeffs)


def test_poly_root_check_examples():
    p = HPoly([0, 2, 2])  # 2h^2 + 2h
    matched, cofactor = poly_root_check(p, {F(0), F(-1)})
    assert matched == {F(0): 1, F(-1): 1}
    assert cofactor == HPoly([2])

    matched, cofactor = poly_root_check(HPoly([0, 0, 1]), {F(0)})
    assert matched == {F(0): 2}
    assert cofactor == HPoly([1])

    matched, cofactor = poly_root_check(HPoly([1, 1]), {F(5)})
    assert matched == {}
    assert cofactor == HPoly([1, 1])


def test_poly_root_check_requires_nonzero():
    with pytest.raises(InvalidInputError):
        poly_root_check(HPoly(), {F(1)})


def test_poly_proportional_examples():
    a = HPoly([0, 2, 2])  # 2h(h+1)
    b = HPoly([0, 1, 1])  # h(h+1)
    assert poly_proportional(a, b) == F(2)
    assert poly_proportional(HPoly([0, 1]), HPoly([1, 1])) is None
    # unequal degrees: 2h^2 against h (leading ratio 2), and h + 1 against 2
    assert poly_proportional(HPoly([0, 0, 2]), HPoly([0, 1])) is None
    assert poly_proportional(HPoly([1, 1]), HPoly([2])) is None
    # a zero polynomial is proportional to nothing, itself included
    assert poly_proportional(HPoly(), HPoly()) is None
    assert poly_proportional(HPoly(), HPoly([1])) is None


@pytest.mark.parametrize(
    "coeffs, text",
    [
        ([0, -1], "-h"),
        ([-1, 0, 1], "h^2 - 1"),
        ([F(1, 2), F(-2, 3)], "-2/3*h + 1/2"),
        ([0, 2, 2], "2*h^2 + 2*h"),
        ([F(-7, 2)], "-7/2"),
        ([], "0"),
    ],
    ids=["negative-first", "magnitude-1", "fraction", "exponents", "constant", "zero"],
)
def test_hpoly_to_text(coeffs, text):
    assert HPoly(coeffs).to_text() == text


def test_hpoly_text_round_trip():
    cases = [
        HPoly([0, 2, 2]),
        HPoly([F(-1, 2), F(3, 4)]),
        HPoly([5]),
        HPoly(),
        HPoly([0, -1, 0, F(7, 3)]),
        HPoly([1, -1, 1, -1, 1]),
    ]
    for p in cases:
        assert parse_hpoly(p.to_text()) == p
    assert parse_hpoly("2*h^2 + 2*h") == HPoly([0, 2, 2])


# the round trip's reader (tests/oracles.py) refuses anything but canonical text
@pytest.mark.parametrize(
    "text", ("1/0*h", "2.5*h", "1e3", "2**h", "2*", "*h", "h^", "h+", "-", "x", "")
)
def test_parse_hpoly_rejects(text):
    with pytest.raises(ValueError):
        parse_hpoly(text)


small_fraction = st.fractions(
    min_value=-4, max_value=4, max_denominator=6
)
small_poly = st.lists(small_fraction, min_size=0, max_size=5).map(HPoly)


@settings(deadline=None, max_examples=80)
@given(small_poly, small_poly, small_poly)
def test_poly_ring_axioms(a, b, c):
    assert mul(mul(a, b), c) == mul(a, mul(b, c))
    assert mul(a, b + c) == mul(a, b) + mul(a, c)
    assert a + b == b + a
    assert mul(a, b) == mul(b, a)


@settings(deadline=None, max_examples=80)
@given(
    st.lists(small_fraction, min_size=1, max_size=4),
    st.lists(small_fraction, min_size=0, max_size=3),
)
def test_root_check_reconstructs_input(roots, extra_coeffs):
    tail = HPoly(list(extra_coeffs) + [1])  # monic cofactor, may share roots
    p = mul(HPoly.from_roots(roots), tail)
    matched, cofactor = poly_root_check(p, set(roots))
    rebuilt = cofactor
    for r, mult in matched.items():
        for _ in range(mult):
            rebuilt = mul(rebuilt, HPoly([-r, 1]))
    assert rebuilt == p
    # every candidate root was divided out completely
    for r in set(roots):
        assert cofactor(r) != 0 or cofactor.is_zero()


nonzero_fraction = st.fractions(min_value=-9, max_value=9, max_denominator=7).filter(bool)


@settings(deadline=None, max_examples=150)
@given(
    st.lists(st.tuples(small_fraction, st.integers(1, 3)), min_size=0, max_size=4),
    nonzero_fraction,
    st.lists(small_fraction, min_size=0, max_size=3),
    st.lists(small_fraction, min_size=0, max_size=4),
)
def test_root_check_matches_fraction_division(roots, lead, tail, others):
    """Integer division against Fraction synthetic division: roots with
    multiplicities, a non-unit leading coefficient, a cofactor that may share
    roots, and non-root and repeated candidates."""
    p = HPoly(list(tail) + [lead])
    for r, mult in roots:
        p = mul(p, HPoly.from_roots([r] * mult))
    candidates = [r for r, _ in roots] * 2 + list(others)
    got = poly_root_check(p, candidates)
    expected = poly_root_check_by_fractions(p, candidates)
    assert list(got[0].items()) == list(expected[0].items())
    assert got[1] == expected[1]


@settings(deadline=None, max_examples=80)
@given(small_poly)
def test_integral_form_round_trips(p):
    ints, den = p.integral()
    assert all(type(x) is int for x in ints.values()) and den >= 1
    assert from_integral(HPoly, ints, den) == p


@settings(deadline=None, max_examples=150)
@given(small_poly, st.fractions(max_denominator=12))
def test_evaluation_matches_the_direct_sum(p, x):
    assert p(x) == sum(c * x**i for i, c in enumerate(p.coeffs))
    assert p(x.numerator) == sum(c * x.numerator**i for i, c in enumerate(p.coeffs))
