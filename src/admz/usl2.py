"""U(sl2) with exact products in the PBW basis e^a h^b f^c.

Generators e, h, f with [h,f] = -2f, [h,e] = 2e, [e,f] = h.  An element, a
FinElement, is an exact_core.ExactSum: a finite map from exponent triples
(a, b, c), the basis monomial e^a h^b f^c, to rational coefficients.

Every product runs through one closed-form kernel on integer coefficients.
An operand's integral form (ExactSum.integral) is grouped as
sum e^a P_ac(h) f^c, and f^c e^a' in the middle is expanded by Kostant's formula
(Humphreys, Introduction to Lie Algebras and Representation Theory, 26.2)

    f^c e^a = sum_j binom(a,j) binom(c,j) j! e^(a-j) prod_{i<j} (-h-a-c+2j-i) f^(c-j)

followed by the shifts P(h) e^m = e^m P(h+2m) and f^m P(h) = P(h+2m) f^m,
and exact_core.from_integral turns the integer result back into an element.
The P_ac are coefficient lists, multiplied and shifted by the polynomial
toolkit of `exact_core`.  The grouped form is public as `pbw_groups`, and
every evaluation of an element on a module reads it that way too: `zhu`
reads p1 and p2 off Q's groups, `weight_modules` acts with each group on
E(r,mu) in closed form.  `straighten` folds a word of generators into the
basis through the same kernel, one run of equal generators at a time; the
Zhu image alone uses it.  Nothing recurses and nothing is
cached between calls.

The projection mod U(g)n_- keeps the pure-h terms of the expansion.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .errors import InvalidInputError
from .exact_core import (
    ExactSum,
    HPoly,
    format_terms,
    from_integral,
    poly_divide_root,
    poly_mul,
    poly_shift,
)

# the generators, in the order of the basis monomial e^a h^b f^c
GENERATORS = ("e", "h", "f")

# [x, y] as (generator, integer coefficient); absent pairs bracket to zero.
BRACKET = {
    ("e", "f"): ("h", 1),
    ("f", "e"): ("h", -1),
    ("h", "e"): ("e", 2),
    ("e", "h"): ("e", -2),
    ("h", "f"): ("f", -2),
    ("f", "h"): ("f", 2),
}


def monomial_weight(mono: tuple[int, int, int]) -> int:
    """ad-h weight of the basis monomial e^a h^b f^c: 2(a - c)."""
    return 2 * (mono[0] - mono[2])


# -- the integer kernel --------------------------------------------------------


def pbw_groups(terms: dict) -> dict:
    """An element's terms grouped as {(a, c): P}, the sum of e^a P(h) f^c,
    with P the list of its h-coefficients in ascending powers."""
    out: dict[tuple[int, int], list] = {}
    for (a, b, c), v in terms.items():
        poly = out.setdefault((a, c), [])
        if len(poly) <= b:
            poly.extend([0] * (b + 1 - len(poly)))
        poly[b] += v
    return out


def _ungroup(groups: dict) -> dict:
    return {(a, b, c): v for (a, c), poly in groups.items() for b, v in enumerate(poly) if v}


def _kostant(a: int, c: int) -> list:
    """The h-polynomials K_j, j = 0..min(a, c), of f^c e^a = sum_j e^(a-j) K_j f^(c-j):
    K_j = binom(a,j) binom(c,j) j! prod_{i<j} (-h-a-c+2j-i).

    The product runs over the factors (m-a-c-h), j < m <= 2j, so the next
    one gains m = 2j+1 and m = 2j+2 and drops m = j+1: one product with a
    quadratic and one exact division by (h - (j+1-a-c)) per j, so the list
    takes O(min(a, c)^2) integer steps."""
    scale, prod = 1, [1]
    out = [[1]]
    for j in range(min(a, c)):
        u = 2 * j + 1 - a - c
        # prod (u-h)(u+1-h) / (j+1-a-c-h) = prod (-(u-h)(u+1-h)) / (h-(j+1-a-c))
        prod = poly_divide_root(poly_mul(prod, [-u * (u + 1), 2 * u + 1, -1]), j + 1 - a - c, 1)
        scale = scale * (a - j) * (c - j) // (j + 1)
        out.append([scale * x for x in prod])
    return out


def _kernel(xg: dict, yg: dict) -> dict:
    """(sum e^a P f^c) * (sum e^a' R f^c') on grouped integer elements:
    f^c e^a' by Kostant's formula, then P(h) e^m = e^m P(h+2m) and
    f^m R(h) = R(h+2m) f^m."""
    out: dict[tuple[int, int], list[int]] = {}
    for (a, c), P in xg.items():
        for (a2, c2), R in yg.items():
            for j, K in enumerate(_kostant(a2, c)):
                m, n = a2 - j, c - j
                poly = poly_mul(poly_mul(poly_shift(P, 2 * m), K), poly_shift(R, 2 * n))
                acc = out.setdefault((a + m, n + c2), [])
                if len(acc) < len(poly):
                    acc.extend([0] * (len(poly) - len(acc)))
                for i, v in enumerate(poly):
                    acc[i] += v
    return out


def _int_product(x: dict, y: dict) -> dict:
    """x * y for integer-coefficient elements."""
    return _ungroup(_kernel(pbw_groups(x), pbw_groups(y)))


def straighten(word) -> dict:
    """The product g_1 * ... * g_n for word = (g_1, ..., g_n), in the basis
    with integer coefficients.  Each run of equal generators multiplies in
    as one basis monomial.
    """
    acc = {(0, 0, 0): 1}
    for g, run in itertools.groupby(reversed(word)):
        power = [0, 0, 0]
        power[GENERATORS.index(g)] = len(list(run))
        acc = _int_product({tuple(power): 1}, acc)
    return acc


class FinElement(ExactSum):
    """Element of U(sl2) in the PBW basis e^a h^b f^c.

    terms maps exponent triples (a, b, c) to nonzero Fractions.  ``*``
    scales by a scalar, as on every ExactSum; ``fin_product`` multiplies.
    """

    __slots__ = ()

    # -- constructors -----------------------------------------------------
    @classmethod
    def monomial(cls, mono) -> "FinElement":
        return cls({tuple(mono): Fraction(1)})

    @classmethod
    def generator(cls, g: str) -> "FinElement":
        if g not in GENERATORS:
            raise InvalidInputError(f"unknown sl2 generator {g!r}")
        return cls({tuple(int(x == g) for x in GENERATORS): Fraction(1)})

    # -- basic structure ---------------------------------------------------
    def ad_weight(self):
        """Common ad-h weight of all monomials, or None if inhomogeneous.

        The zero element reports weight 0.
        """
        weights = {monomial_weight(m) for m in self.terms}
        if not weights:
            return 0
        if len(weights) > 1:
            return None
        return weights.pop()

    def to_text(self) -> str:
        return format_terms(
            (
                self.terms[mono],
                "*".join(
                    g if exp == 1 else f"{g}^{exp}" for g, exp in zip(GENERATORS, mono) if exp
                ),
            )
            for mono in sorted(self.terms, reverse=True)
        )


def fin_product(x: FinElement, y: FinElement) -> FinElement:
    """Product straightened into the basis."""
    (xi, dx), (yi, dy) = x.integral(), y.integral()
    return from_integral(FinElement, _int_product(xi, yi), dx * dy)


def fin_ad(g: str, x: FinElement) -> FinElement:
    """ad g (x) = g*x - x*g, straightened."""
    (gen,) = FinElement.generator(g).terms
    xi, den = x.integral()
    out = _int_product({gen: 1}, xi)
    for m, v in _int_product(xi, {gen: 1}).items():
        out[m] = out.get(m, 0) - v
    return from_integral(FinElement, out, den)


def project_cartan(x: FinElement) -> HPoly:
    """Project an ad-weight-0 element mod U(g)n_- to its pure-h polynomial:
    every other weight-0 term ends in f, hence lies in U(g)n_-."""
    if x.ad_weight() != 0:
        raise InvalidInputError("project_cartan requires an ad-weight-0 element")
    return HPoly({b: v for (a, b, c), v in x.terms.items() if a == c == 0})


def p_factor(s) -> FinElement:
    """p_s = ef + (s-1)h - s(s-1), one factor of the closed-form
    product behind the classifying polynomial."""
    s = Fraction(s)
    return FinElement({(1, 0, 1): Fraction(1), (0, 1, 0): s - 1, (0, 0, 0): -s * (s - 1)})


def pomoc_sides(N: int, s) -> tuple[FinElement, FinElement]:
    """Both sides of the f^N transport identity for p_s = ef + (s-1)(h-s).

    Left: f^N * p_s.  Right: p_{s-N} * f^N = (ef + (-N-1+s)(h-s+N)) * f^N.
    These are equal in U(sl2); the right side is what lets f^N move through
    a p-factor in the classifying-polynomial product.
    """
    s = Fraction(s)
    if N < 1:
        raise InvalidInputError("N must be a positive integer")
    f_n = FinElement.monomial((0, 0, N))
    return fin_product(f_n, p_factor(s)), fin_product(p_factor(s - N), f_n)

