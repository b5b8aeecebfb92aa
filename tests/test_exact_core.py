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
    parse_hpoly,
    parse_scalar,
    poly_eval,
    poly_proportional,
    poly_root_check,
)
from admz.usl2 import parse_fin
from oracles import poly_root_check_by_fractions

F = Fraction


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
@pytest.mark.parametrize(
    "parse, text",
    [
        (parse_scalar, LONG),
        (parse_scalar, f"-1/{LONG}"),
        (parse_hpoly, f"{LONG}*h^2 - 1"),
        (parse_hpoly, f"h - 1/{LONG}"),
        (parse_fin, f"{LONG}*e*f"),
        (parse_fin, f"e - 1/{LONG}*h"),
    ],
    ids=["scalar", "scalar-den", "hpoly", "hpoly-den", "fin", "fin-den"],
)
def test_over_long_literal_is_invalid_input(parse, text):
    with pytest.raises(InvalidInputError, match="too long"):
        parse(text)


@pytest.mark.skipif(not DIGIT_LIMIT, reason="no int-string digit limit")
def test_number_too_long_to_print_is_a_resource_cap():
    assert format_scalar(F(10**DIGIT_LIMIT - 1)) == "9" * DIGIT_LIMIT
    with pytest.raises(ResourceCapError, match="too long to print"):
        format_scalar(F(10**5000))
    with pytest.raises(ResourceCapError, match="too long to print"):
        format_scalar(F(1, 10**5000))


def test_hpoly_product_examples():
    h = HPoly.h()
    assert h * (h + HPoly.one()) == HPoly([0, 1, 1])
    assert (HPoly.zero() * h).is_zero()
    # degree additivity
    a = HPoly([1, 2, 3])
    b = HPoly([F(1, 2), 0, 0, 1])
    assert (a * b).degree == a.degree + b.degree


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
    assert cofactor == HPoly.constant(2)

    matched, cofactor = poly_root_check(HPoly([0, 0, 1]), {F(0)})
    assert matched == {F(0): 2}
    assert cofactor == HPoly.one()

    matched, cofactor = poly_root_check(HPoly([1, 1]), {F(5)})
    assert matched == {}
    assert cofactor == HPoly([1, 1])


def test_poly_root_check_requires_nonzero():
    with pytest.raises(InvalidInputError):
        poly_root_check(HPoly.zero(), {F(1)})


def test_poly_proportional_examples():
    a = HPoly([0, 2, 2])  # 2h(h+1)
    b = HPoly([0, 1, 1])  # h(h+1)
    assert poly_proportional(a, b) == F(2)
    assert poly_proportional(HPoly.h(), HPoly([1, 1])) is None
    assert poly_proportional(HPoly.zero(), HPoly.zero()) == F(1)
    assert poly_proportional(HPoly.zero(), HPoly.one()) is None


def test_hpoly_text_round_trip():
    cases = [
        HPoly([0, 2, 2]),
        HPoly([F(-1, 2), F(3, 4)]),
        HPoly([5]),
        HPoly.zero(),
        HPoly([0, -1, 0, F(7, 3)]),
        HPoly([1, -1, 1, -1, 1]),
    ]
    for p in cases:
        assert parse_hpoly(p.to_text()) == p
    assert HPoly([0, 2, 2]).to_text() == "2*h^2 + 2*h"
    assert parse_hpoly("2*h^2 + 2*h") == HPoly([0, 2, 2])


@pytest.mark.parametrize(
    "text", ("1/0*h", "2.5*h", "1e3", "2**h", "2*", "*h", "h^", "h+", "-", "x", "")
)
def test_parse_hpoly_rejects(text):
    with pytest.raises(InvalidInputError):
        parse_hpoly(text)


small_fraction = st.fractions(
    min_value=-4, max_value=4, max_denominator=6
)
small_poly = st.lists(small_fraction, min_size=0, max_size=5).map(HPoly)


@settings(deadline=None, max_examples=80)
@given(small_poly, small_poly, small_poly)
def test_poly_ring_axioms(a, b, c):
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a


@settings(deadline=None, max_examples=80)
@given(
    st.lists(small_fraction, min_size=1, max_size=4),
    st.lists(small_fraction, min_size=0, max_size=3),
)
def test_root_check_reconstructs_input(roots, extra_coeffs):
    tail = HPoly(list(extra_coeffs) + [1])  # monic cofactor, may share roots
    p = HPoly.from_roots(roots) * tail
    matched, cofactor = poly_root_check(p, set(roots))
    rebuilt = cofactor
    for r, mult in matched.items():
        for _ in range(mult):
            rebuilt = rebuilt * HPoly([-r, 1])
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
        p = p * HPoly.from_roots([r] * mult)
    candidates = [r for r, _ in roots] * 2 + list(others)
    got = poly_root_check(p, candidates)
    expected = poly_root_check_by_fractions(p, candidates)
    assert list(got[0].items()) == list(expected[0].items())
    assert got[1] == expected[1]


@settings(deadline=None, max_examples=150)
@given(small_poly, st.fractions(max_denominator=12))
def test_evaluation_matches_fraction_horner(p, x):
    assert p(x) == poly_eval(p.coeffs, x)
    assert p(x.numerator) == poly_eval(p.coeffs, Fraction(x.numerator))
