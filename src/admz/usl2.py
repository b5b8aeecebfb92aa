"""U(sl2) with exact PBW straightening in two monomial orders.

Generators e, h, f with [h,f] = -2f, [h,e] = 2e, [e,f] = h.  Elements are
finite maps from exponent triples to rational coefficients; F_ORDER means the
basis f^a h^b e^c, E_ORDER the basis e^a h^b f^c.  `straighten` is the one
fold of a word of generators into a basis: products, reordering and the Zhu
image all use it.  Its step moves one generator through a basis monomial by
adjacent transpositions, memoized per (order, generator, monomial).

The two orders exist because the two Cartan projections are coefficient
filters in their natural basis: mod U(g)n_- keeps the pure-h terms of the
E_ORDER expansion, mod U(g)n_+ those of the F_ORDER expansion.
"""

from __future__ import annotations

import enum
import functools
import re
from fractions import Fraction

from .errors import InvalidInputError
from .exact_core import HPoly, format_terms

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

class Order(enum.Enum):
    """PBW monomial order tag."""

    F = "f_first"  # f^a h^b e^c
    E = "e_first"  # e^a h^b f^c


F_ORDER = Order.F
E_ORDER = Order.E

_LETTERS = {Order.F: ("f", "h", "e"), Order.E: ("e", "h", "f")}


def monomial_weight(order: Order, mono: tuple[int, int, int]) -> int:
    """ad-h weight of a basis monomial: 2(#e - #f)."""
    a, b, c = mono
    return 2 * (c - a) if order is Order.F else 2 * (a - c)


@functools.lru_cache(maxsize=None)
def _left_mul(order: Order, g: str, mono: tuple[int, int, int]) -> tuple:
    """Straighten g * (basis monomial) into the order's basis.

    Returns a tuple of (monomial, integer coefficient) pairs; all structure
    constants are integers, so no rational arithmetic happens here.
    """
    a, b, c = mono
    g1, g2, g3 = _LETTERS[order]
    if g == g1:
        return (((a + 1, b, c), 1),)
    if g == g2 and a == 0:
        return (((0, b + 1, c), 1),)
    if g == g3 and a == 0 and b == 0:
        return (((0, 0, c + 1), 1),)
    # g has to move past the first letter of mono: g*x = x*g + [g,x]
    if a > 0:
        head, rest = g1, (a - 1, b, c)
    elif b > 0:
        head, rest = g2, (a, b - 1, c)
    else:
        head, rest = g3, (a, b, c - 1)
    acc: dict[tuple[int, int, int], int] = {}
    for m2, c2 in _left_mul(order, g, rest):
        for m3, c3 in _left_mul(order, head, m2):
            acc[m3] = acc.get(m3, 0) + c2 * c3
    br = BRACKET.get((g, head))
    if br is not None:
        bg, bc = br
        for m2, c2 in _left_mul(order, bg, rest):
            acc[m2] = acc.get(m2, 0) + bc * c2
    return tuple((m, v) for m, v in acc.items() if v)


def monomial_word(order: Order, mono: tuple[int, int, int]) -> tuple[str, ...]:
    """The basis monomial as its word of generators, left to right."""
    g1, g2, g3 = _LETTERS[order]
    a, b, c = mono
    return (g1,) * a + (g2,) * b + (g3,) * c


def straighten(order: Order, word, acc=None) -> dict:
    """The product g_1 * ... * g_n * acc for word = (g_1, ..., g_n), in
    order's basis with integer coefficients.

    acc maps basis monomials of order to integers and defaults to 1.
    """
    acc = {(0, 0, 0): 1} if acc is None else acc
    for g in reversed(word):
        nxt: dict[tuple[int, int, int], int] = {}
        for m, cm in acc.items():
            for m3, c3 in _left_mul(order, g, m):
                nxt[m3] = nxt.get(m3, 0) + cm * c3
        acc = nxt
    return {m: v for m, v in acc.items() if v}


@functools.lru_cache(maxsize=None)
def _mono_mul(order: Order, m1: tuple, m2: tuple) -> tuple:
    """Product of two basis monomials in order's basis (integer coefficients)."""
    return tuple(straighten(order, monomial_word(order, m1), {m2: 1}).items())


class FinElement:
    """Element of U(sl2) in a fixed PBW order.

    terms maps exponent triples (a, b, c) to nonzero Fractions.  Treated as
    immutable after construction.
    """

    __slots__ = ("order", "terms")

    def __init__(self, order: Order, terms=None):
        if not isinstance(order, Order):
            raise InvalidInputError(f"not a PBW order tag: {order!r}")
        clean: dict[tuple[int, int, int], Fraction] = {}
        for mono, coeff in (terms or {}).items():
            coeff = Fraction(coeff)
            if coeff:
                clean[mono] = coeff
        self.order = order
        self.terms = clean

    # -- constructors -----------------------------------------------------
    @classmethod
    def zero(cls, order: Order) -> "FinElement":
        return cls(order, {})

    @classmethod
    def one(cls, order: Order) -> "FinElement":
        return cls(order, {(0, 0, 0): Fraction(1)})

    @classmethod
    def monomial(cls, order: Order, mono, coeff=1) -> "FinElement":
        return cls(order, {tuple(mono): Fraction(coeff)})

    @classmethod
    def generator(cls, g: str, order: Order) -> "FinElement":
        if g not in GENERATORS:
            raise InvalidInputError(f"unknown sl2 generator {g!r}")
        g1, g2, g3 = _LETTERS[order]
        mono = {(g1): (1, 0, 0), (g2): (0, 1, 0), (g3): (0, 0, 1)}[g]
        return cls(order, {mono: Fraction(1)})

    @classmethod
    def from_h_poly(cls, poly: HPoly, order: Order) -> "FinElement":
        return cls(order, {(0, b, 0): c for b, c in enumerate(poly.coeffs)})

    # -- basic structure ---------------------------------------------------
    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, FinElement):
            return NotImplemented
        return self.order is other.order and self.terms == other.terms

    def __hash__(self):
        return hash((self.order, frozenset(self.terms.items())))

    def __repr__(self):
        return f"FinElement({self.order.name}_ORDER, {self.to_text()!r})"

    def __neg__(self):
        return FinElement(self.order, {m: -c for m, c in self.terms.items()})

    def __add__(self, other):
        if not isinstance(other, FinElement):
            return NotImplemented
        if self.order is not other.order:
            raise InvalidInputError("mixed PBW order tags in addition")
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, Fraction(0)) + c
        return FinElement(self.order, out)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, FinElement):
            return fin_product(self, other)
        return FinElement(self.order, {m: c * Fraction(other) for m, c in self.terms.items()})

    def __rmul__(self, other):
        if isinstance(other, FinElement):
            return NotImplemented
        return self.__mul__(other)

    def ad_weight(self):
        """Common ad-h weight of all monomials, or None if inhomogeneous.

        The zero element reports weight 0.
        """
        weights = {monomial_weight(self.order, m) for m in self.terms}
        if not weights:
            return 0
        if len(weights) > 1:
            return None
        return weights.pop()

    # -- the four structural maps ------------------------------------------
    def transpose(self) -> "FinElement":
        """Antiautomorphism e <-> f, h -> h, products reversed.

        In either order the straightened image of a basis monomial is again
        a basis monomial with (a, b, c) -> (c, b, a).
        """
        return FinElement(self.order, {(c, b, a): v for (a, b, c), v in self.terms.items()})

    def reorder(self, target: Order) -> "FinElement":
        if target is self.order:
            return self
        out: dict[tuple[int, int, int], Fraction] = {}
        for mono, coeff in self.terms.items():
            for m2, c2 in straighten(target, monomial_word(self.order, mono)).items():
                out[m2] = out.get(m2, Fraction(0)) + coeff * c2
        return FinElement(target, out)

    def to_text(self) -> str:
        letters = _LETTERS[self.order]
        return format_terms(
            (
                self.terms[mono],
                "*".join(g if exp == 1 else f"{g}^{exp}" for g, exp in zip(letters, mono) if exp),
            )
            for mono in sorted(self.terms, reverse=True)
        )


def fin_product(x: FinElement, y: FinElement) -> FinElement:
    """Product straightened into the shared PBW order."""
    if x.order is not y.order:
        raise InvalidInputError("mixed PBW order tags in product")
    out: dict[tuple[int, int, int], Fraction] = {}
    for m1, c1 in x.terms.items():
        for m2, c2 in y.terms.items():
            c12 = c1 * c2
            for m3, c3 in _mono_mul(x.order, m1, m2):
                out[m3] = out.get(m3, Fraction(0)) + c12 * c3
    return FinElement(x.order, out)


def fin_ad(g: str, x: FinElement) -> FinElement:
    """ad g (x) = g*x - x*g, straightened."""
    ge = FinElement.generator(g, x.order)
    return fin_product(ge, x) - fin_product(x, ge)


MOD_N_MINUS = "mod_n_minus"
MOD_N_PLUS = "mod_n_plus"


def project_cartan(x: FinElement, side: str) -> HPoly:
    """Project an ad-weight-0 element to its pure-h polynomial.

    mod_n_minus filters the E_ORDER expansion (dropped terms end in f, hence
    lie in U(g)n_-); mod_n_plus symmetrically filters the F_ORDER expansion.
    """
    if side == MOD_N_MINUS:
        y = x.reorder(E_ORDER)
    elif side == MOD_N_PLUS:
        y = x.reorder(F_ORDER)
    else:
        raise InvalidInputError(f"unknown projection side {side!r}")
    if y.ad_weight() != 0:
        raise InvalidInputError("project_cartan requires an ad-weight-0 element")
    coeffs: dict[int, Fraction] = {}
    for (a, b, c), coeff in y.terms.items():
        if a == 0 and c == 0:
            coeffs[b] = coeff
    if not coeffs:
        return HPoly.zero()
    out = [Fraction(0)] * (max(coeffs) + 1)
    for b, coeff in coeffs.items():
        out[b] = coeff
    return HPoly(out)


def p_factor(s) -> FinElement:
    """p_s = ef + (s-1)h - s(s-1) in E_ORDER, one factor of the closed-form
    product behind the classifying polynomial."""
    s = Fraction(s)
    return FinElement(
        E_ORDER,
        {(1, 0, 1): Fraction(1), (0, 1, 0): s - 1, (0, 0, 0): -s * (s - 1)},
    )


def pomoc_sides(N: int, s) -> tuple[FinElement, FinElement]:
    """Both sides of the f^N transport identity for p_s = ef + (s-1)(h-s).

    Left: f^N * p_s.  Right: p_{s-N} * f^N = (ef + (-N-1+s)(h-s+N)) * f^N.
    These are equal in U(sl2); the right side is what lets f^N move through
    a p-factor in the classifying-polynomial product.
    """
    s = Fraction(s)
    if N < 1:
        raise InvalidInputError("N must be a positive integer")
    f_n = FinElement.monomial(E_ORDER, (0, 0, N))
    return fin_product(f_n, p_factor(s)), fin_product(p_factor(s - N), f_n)


def verify_pomoc_identity(N: int, it_plus_j) -> bool:
    """Exact check of the transport identity with s = it+j."""
    lhs, rhs = pomoc_sides(N, it_plus_j)
    return lhs == rhs


_FIN_FACTOR_RE = re.compile(r"^(?P<g>[efh])(?:\^(?P<exp>\d+))?$")


def parse_fin(text: str, order: Order) -> FinElement:
    """Parse the canonical text form back into a FinElement."""
    compact = text.replace(" ", "")
    if not compact:
        raise InvalidInputError("empty element text")
    if compact == "0":
        return FinElement.zero(order)
    g1, g2, g3 = _LETTERS[order]
    slot = {g1: 0, g2: 1, g3: 2}
    terms: dict[tuple[int, int, int], Fraction] = {}
    chunks = re.findall(r"[+-]?[^+-]+", compact)
    if "".join(chunks) != compact:
        raise InvalidInputError(f"cannot parse element: {text!r}")
    for chunk in chunks:
        sign = Fraction(1)
        if chunk.startswith("+"):
            chunk = chunk[1:]
        elif chunk.startswith("-"):
            sign = Fraction(-1)
            chunk = chunk[1:]
        coeff = Fraction(1)
        exps = [0, 0, 0]
        for factor in filter(None, chunk.split("*")):
            m = _FIN_FACTOR_RE.match(factor)
            if m:
                idx = slot[m.group("g")]
                exps[idx] += int(m.group("exp")) if m.group("exp") else 1
            else:
                coeff *= Fraction(factor)
        mono = tuple(exps)
        terms[mono] = terms.get(mono, Fraction(0)) + sign * coeff
    return FinElement(order, terms)
