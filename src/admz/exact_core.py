"""Exact rational scalars and univariate polynomials in the Cartan generator h.

Every scalar in the library is a ``fractions.Fraction``: arbitrary precision,
always in lowest terms, denominator positive, no floating point anywhere.

A polynomial in h is at heart its list of coefficients in ascending powers.
``poly_mul``, ``poly_add``, ``poly_shift`` and ``poly_eval`` are the one
toolkit on such lists, with int and Fraction entries alike: ``HPoly`` uses
them, and so do the integer product kernel of ``usl2``, ``zhu``'s evaluations
of Q and the action of Q on the dense modules; ``poly_eval`` is the one
evaluator.

``ExactSum`` is the one base of the exact sums, ``HPoly``,
``affine.VermaVector`` and ``usl2.FinElement``: a dict of nonzero Fraction
terms with the vector-space operations and a hash.  ``HPoly``, the type of
the classifying polynomials, is an ExactSum keyed by power; its canonical text
form is terms in decreasing power with "num/den" coefficients, e.g.
``2*h^2 + 2*h``.  ``ExactSum.integral`` is the one integral form, integer
terms over one denominator, and ``from_integral`` its one inverse: the integer
kernels run between the two.  Dividing roots out of an ``HPoly``
(``poly_root_check``) runs on its integral form, with one rational rescaling
at the end.  ``format_terms`` is the one signed-sum renderer, in two styles:
magnitude joiner "*" and leading minus "-" for HPoly and FinElement
(``-2*h + 1/2``), " " and "- " for VermaVector (``- 1/2 |0> + 2 e(-1) |0>``).

``parse_scalar`` reads every literal the CLI takes, so a literal over the
interpreter's int-string digit limit is invalid input, not a crash.
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


def format_terms(terms, joiner="*", lead_minus="-") -> str:
    """Render nonzero (coefficient, body) pairs as a signed sum, e.g. ``-h^2 + 2*h - 1/2``.

    The first sign is attached (lead_minus + body), later ones are spaced
    ("+ body", "- body"); the magnitude is a prefix, mag + joiner, unless it
    is 1, and an empty body (a constant term) is the magnitude alone.
    """
    parts = []
    for coeff, body in terms:
        mag = abs(coeff)
        if not body:
            body = format_scalar(mag)
        elif mag != 1:
            body = f"{format_scalar(mag)}{joiner}{body}"
        if not parts:
            parts.append(body if coeff > 0 else lead_minus + body)
        else:
            parts.append(("+ " if coeff > 0 else "- ") + body)
    return " ".join(parts) or "0"


class ExactSum:
    """A finite sum: ``terms`` maps basis keys to nonzero Fractions.  Immutable
    by convention.  A subclass renders its basis with ``to_text``; one whose
    space is fixed by more than its type returns that from ``_space`` and
    builds results through ``_like``."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {key: c for key, coeff in (terms or {}).items() if (c := Fraction(coeff))}

    def _space(self):
        return None  # sums whose spaces differ neither compare equal nor add

    def _like(self, terms) -> "ExactSum":
        """A sum in the same space as self, with the given terms."""
        return type(self)(terms)

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self._space() == other._space() and self.terms == other.terms

    def __hash__(self):
        return hash((self._space(), frozenset(self.terms.items())))

    def __repr__(self):
        space = "" if self._space() is None else f"{self._space()}, "
        return f"{type(self).__name__}({space}{self.to_text()!r})"

    def __neg__(self):
        return self._like({m: -c for m, c in self.terms.items()})

    def __add__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        if self._space() != other._space():
            raise InvalidInputError(f"sum over mixed spaces {self._space()} and {other._space()}")
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, 0) + c
        return self._like(out)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, scalar):
        return self._like({m: c * Fraction(scalar) for m, c in self.terms.items()})

    __rmul__ = __mul__

    def integral(self) -> tuple[dict, int]:
        """The integral form (ints, D): integer terms with self = ints / D,
        D the lcm of the denominators.  `from_integral` is its inverse."""
        den = lcm(*(c.denominator for c in self.terms.values()))
        return {m: c.numerator * (den // c.denominator) for m, c in self.terms.items()}, den


def from_integral(make, ints: dict, den: int):
    """make(ints / D), the exact sum back from an integral form: make is a
    constructor from terms, a class or a sum's ``_like``."""
    return make({m: Fraction(x, den) for m, x in ints.items() if x})


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


class HPoly(ExactSum):
    """Polynomial in h with exact rational coefficients: an ExactSum keyed by
    power, built from its coefficient list in ascending powers or from a
    {power: coefficient} map.

    ``coeffs`` is the dense tuple, leading coefficient nonzero; the zero
    polynomial has degree -1.  ``*`` scales by a scalar, as on every
    ExactSum; ``poly_mul`` multiplies coefficient lists.  Calling it evaluates
    it by ``poly_eval``, in Fractions.
    """

    __slots__ = ()

    def __init__(self, coeffs=()):
        super().__init__(coeffs if isinstance(coeffs, dict) else dict(enumerate(coeffs)))

    @classmethod
    def from_roots(cls, roots) -> "HPoly":
        """Monic product of (h - r) over the given roots."""
        coeffs = [1]
        for r in roots:
            coeffs = poly_mul(coeffs, [-Fraction(r), 1])
        return cls(coeffs)

    @property
    def degree(self) -> int:
        return max(self.terms, default=-1)

    @property
    def coeffs(self) -> tuple:
        return tuple(self.terms.get(power, Fraction(0)) for power in range(self.degree + 1))

    def __call__(self, x) -> Fraction:
        return Fraction(poly_eval(self.coeffs, Fraction(x)))

    def to_text(self) -> str:
        return format_terms(
            (self.terms[power], "" if power == 0 else "h" if power == 1 else f"h^{power}")
            for power in sorted(self.terms, reverse=True)
        )


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
    ints = [ints.get(power, 0) for power in range(p.degree + 1)]
    matched: dict[Fraction, int] = {}
    scale = Fraction(1, den)
    for r in sorted(Fraction(c) for c in set(candidates)):
        while (quot := poly_divide_root(ints, r.numerator, r.denominator)) is not None:
            matched[r] = matched.get(r, 0) + 1
            ints, scale = quot, scale * r.denominator
    return matched, HPoly([c * scale for c in ints])


def poly_proportional(a: HPoly, b: HPoly):
    """Return c with a == c*b (nonzero c) when it exists, else None; a zero
    polynomial is proportional to nothing."""
    if a.is_zero() or b.is_zero():
        return None
    c = a.terms[a.degree] / b.terms[b.degree]
    if a == c * b:
        return c
    return None
