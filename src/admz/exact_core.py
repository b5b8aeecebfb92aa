"""Exact rational scalars and univariate polynomials in the Cartan generator h.

Every scalar in the library is a ``fractions.Fraction``: arbitrary precision,
always in lowest terms, denominator positive, no floating point anywhere.

A polynomial in h is at heart its list of coefficients in ascending powers.
``poly_mul``, ``poly_add``, ``poly_shift`` and ``poly_eval`` are the one
toolkit on such lists, with int and Fraction entries alike: ``HPoly`` uses
them, and so do the integer product kernel of ``usl2``, ``zhu``'s evaluations
of Q and the action of Q on the dense modules.  ``HPoly`` is the dense
polynomial type used for the classifying polynomials; its canonical text form
is terms in decreasing power with "num/den" coefficients, e.g.
``2*h^2 + 2*h``.  Evaluating an ``HPoly`` and dividing roots out of it
(``poly_root_check``) run on its coefficients cleared to integers, with one
rational rescaling at the end.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import lcm

from .errors import InvalidInputError, ResourceCapError

_SCALAR_RE = re.compile(r"^[+-]?\d+(/\d+)?$")


def parse_scalar(text: str) -> Fraction:
    """Parse an exact "num/den" (or integer) string. Decimals are rejected."""
    text = text.strip()
    if not _SCALAR_RE.match(text):
        raise InvalidInputError(f"not an exact rational literal: {text!r}")
    try:
        return Fraction(text)
    except ZeroDivisionError as exc:
        raise InvalidInputError(f"zero denominator in {text!r}") from exc
    except ValueError as exc:  # over the interpreter's int-string digit limit
        raise InvalidInputError(f"literal of {len(text)} characters is too long") from exc


def format_scalar(x: Fraction) -> str:
    """Render as "num/den", denominator omitted when 1.

    A number over the interpreter's int-string digit limit is a
    ResourceCapError: the result exists but is too long to print."""
    try:
        return str(x)
    except ValueError as exc:
        bits = max(x.numerator.bit_length(), x.denominator.bit_length())
        raise ResourceCapError(
            f"a result number of about {int(bits * 0.30103) + 1} digits is too long to print"
        ) from exc


def format_terms(terms) -> str:
    """Render nonzero (coefficient, body) pairs as a signed sum, e.g. ``-h^2 + 2*h - 1/2``.

    The first sign is attached ("-body"), later ones are spaced ("+ body",
    "- body"); the magnitude is written as a "mag*" prefix unless it is 1,
    and an empty body (a constant term) is written as the magnitude alone.
    """
    parts = []
    for coeff, body in terms:
        mag = abs(coeff)
        if not body:
            body = format_scalar(mag)
        elif mag != 1:
            body = f"{format_scalar(mag)}*{body}"
        if not parts:
            parts.append(body if coeff > 0 else "-" + body)
        else:
            parts.append(("+ " if coeff > 0 else "- ") + body)
    return " ".join(parts) or "0"


def clear_denominators(terms: dict) -> tuple[dict, int]:
    """(ints, D) with integer ints and terms = ints / D, D the lcm of the
    denominators."""
    den = lcm(*(c.denominator for c in terms.values()))
    return {m: c.numerator * (den // c.denominator) for m, c in terms.items()}, den


def poly_mul(p, q) -> list:
    """The product of two coefficient lists (ascending powers)."""
    if not p or not q:
        return []
    if len(p) == 1 and p[0] == 1:
        return list(q)
    if len(q) == 1 and q[0] == 1:
        return list(p)
    out = [0] * (len(p) + len(q) - 1)
    for i, x in enumerate(p):
        if x:
            for j, y in enumerate(q):
                out[i + j] += x * y
    return out


def poly_shift(p, s) -> list:
    """P(h + s) for the coefficient list of P, by Taylor shift."""
    out = list(p)
    if s:
        for i in range(len(out) - 1):
            for k in range(len(out) - 2, i - 1, -1):
                out[k] += s * out[k + 1]
    return out


def poly_add(p, q) -> list:
    """The sum of two coefficient lists (ascending powers)."""
    if len(p) < len(q):
        p, q = q, p
    out = list(p)
    for i, c in enumerate(q):
        out[i] += c
    return out


def poly_eval(p, x):
    """P(x) for the coefficient list of P, by Horner's rule."""
    acc = 0
    for c in reversed(p):
        acc = acc * x + c
    return acc


class HPoly:
    """Polynomial in h with exact rational coefficients.

    Stored dense in ascending powers with the leading coefficient nonzero;
    the zero polynomial has degree -1.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def zero(cls) -> "HPoly":
        return cls(())

    @classmethod
    def one(cls) -> "HPoly":
        return cls((Fraction(1),))

    @classmethod
    def h(cls) -> "HPoly":
        return cls((Fraction(0), Fraction(1)))

    @classmethod
    def constant(cls, c) -> "HPoly":
        return cls((Fraction(c),))

    @classmethod
    def linear(cls, const, lead=1) -> "HPoly":
        """lead*h + const"""
        return cls((Fraction(const), Fraction(lead)))

    @classmethod
    def from_roots(cls, roots) -> "HPoly":
        """Monic product of (h - r) over the given roots."""
        out = cls.one()
        for r in roots:
            out = out * cls((-Fraction(r), Fraction(1)))
        return out

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def leading(self) -> Fraction:
        if not self.coeffs:
            raise InvalidInputError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __eq__(self, other):
        if not isinstance(other, HPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"HPoly({self.to_text()!r})"

    def __neg__(self):
        return HPoly(tuple(-c for c in self.coeffs))

    def __add__(self, other):
        if not isinstance(other, HPoly):
            return NotImplemented
        return HPoly(poly_add(self.coeffs, other.coeffs))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, HPoly):
            return HPoly(poly_mul(self.coeffs, other.coeffs))
        return HPoly(tuple(c * Fraction(other) for c in self.coeffs))

    def __rmul__(self, other):
        return self.__mul__(other)

    def __call__(self, x) -> Fraction:
        """P(u/v) as one integer sum: with P = A/D, A integral of degree d,
        P(u/v) = sum a_i u^i v^(d-i) / (D v^d), by Horner's rule in integers."""
        if not self.coeffs:
            return Fraction(0)
        x = Fraction(x)
        u, v = x.numerator, x.denominator
        ints, den = self.integral()
        acc, vpow = ints[-1], 1
        for a in reversed(ints[:-1]):
            vpow *= v
            acc = acc * u + a * vpow
        return Fraction(acc, den * vpow)

    def integral(self) -> tuple[list, int]:
        """(A, D): the integer coefficient list A of D * self, D the lcm of
        the denominators."""
        ints, den = clear_denominators(dict(enumerate(self.coeffs)))
        return list(ints.values()), den

    def to_text(self) -> str:
        return format_terms(
            (self.coeffs[power], "" if power == 0 else "h" if power == 1 else f"h^{power}")
            for power in range(self.degree, -1, -1)
            if self.coeffs[power]
        )


# a "*" is read only between a coefficient and h, so "2*" and "*h" are refused
_TERM_RE = re.compile(
    r"^(?P<sign>[+-]?)(?P<coeff>\d+(?:/\d+)?)?(?:(?:(?<=\d)\*)?(?P<h>h)(?:\^(?P<pow>\d+))?)?$"
)


def parse_hpoly(text: str) -> HPoly:
    """Parse the canonical text form of HPoly (round-trip of to_text)."""
    compact = text.replace(" ", "")
    if not compact:
        raise InvalidInputError("empty polynomial text")
    if compact == "0":
        return HPoly.zero()
    terms = re.findall(r"[+-]?[^+-]+", compact)
    if "".join(terms) != compact:
        raise InvalidInputError(f"cannot parse polynomial: {text!r}")
    coeff_map: dict[int, Fraction] = {}
    for term in terms:
        m = _TERM_RE.match(term)
        if not m or (m.group("coeff") is None and m.group("h") is None):
            raise InvalidInputError(f"cannot parse polynomial term: {term!r}")
        coeff = parse_scalar(m.group("coeff")) if m.group("coeff") else Fraction(1)
        if m.group("sign") == "-":
            coeff = -coeff
        if m.group("h"):
            power = int(m.group("pow")) if m.group("pow") else 1
        else:
            power = 0
        coeff_map[power] = coeff_map.get(power, Fraction(0)) + coeff
    size = max(coeff_map) + 1
    out = [Fraction(0)] * size
    for p, c in coeff_map.items():
        out[p] = c
    return HPoly(out)


def poly_divide_root(ints, u: int, v: int):
    """B with ints = (v*h - u) * B, for the coefficient list ints of an
    integer polynomial, or None when u/v is not one of its roots.

    v*h - u is primitive, so by Gauss's lemma B is integral whenever u/v is a
    root.  Comparing coefficients top down gives b_(i-1) = (a_i + u*b_i)/v and
    a_0 = -u*b_0: a step that leaves a remainder mod v, or a nonzero
    a_0 + u*b_0, means u/v is not a root."""
    out, b = [], 0
    if v == 1:
        for a in reversed(ints[1:]):
            b = a + u * b
            out.append(b)
    else:
        for a in reversed(ints[1:]):
            b, rem = divmod(a + u * b, v)
            if rem:
                return None
            out.append(b)
    if ints[0] + u * b:
        return None
    out.reverse()
    return out


def poly_root_check(p: HPoly, candidates) -> tuple[dict[Fraction, int], HPoly]:
    """Divide p exactly by (h - r) for each candidate root as often as possible.

    Returns the multiplicity map (only matched roots) and the remaining
    cofactor. Candidates are processed in ascending order for determinism.

    The divisions run on integers: with p = A/D, A integral, each root
    r = u/v in lowest terms divides (v*h - u) out of A (`poly_divide_root`).
    Since v*h - u = v*(h - r), p = prod (h - r)^m * B * prod v^m / D, and
    the cofactor is the integer quotient B rescaled once at the end.
    """
    if p.is_zero():
        raise InvalidInputError("poly_root_check requires a nonzero polynomial")
    ints, den = p.integral()
    matched: dict[Fraction, int] = {}
    scale = Fraction(1, den)
    for r in sorted(Fraction(c) for c in set(candidates)):
        while (quot := poly_divide_root(ints, r.numerator, r.denominator)) is not None:
            matched[r] = matched.get(r, 0) + 1
            ints, scale = quot, scale * r.denominator
    return matched, HPoly([c * scale for c in ints])


def poly_proportional(a: HPoly, b: HPoly):
    """Return c with a == c*b (nonzero c) when it exists, else None.

    Degenerate convention: both zero -> 1 (never hit by the main pipeline).
    """
    if a.is_zero() and b.is_zero():
        return Fraction(1)
    if a.is_zero() or b.is_zero():
        return None
    if a.degree != b.degree:
        return None
    c = a.leading() / b.leading()
    if a == c * b:
        return c
    return None
