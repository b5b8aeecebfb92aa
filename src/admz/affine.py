"""The affine algebra sl2^ and its vacuum Verma modules M(k,0).

Modes x(n) = x (x) t^n for x in {e, h, f} with
    [x(m), y(n)] = [x,y](m+n) + m delta_{m+n,0} <x,y> k,
where the invariant form is normalized <e,f> = 1, <h,h> = 2 and the central
element has been replaced by the level k.  The vacuum is annihilated by every
mode of nonnegative degree; canonical monomials list their modes with degree
ascending, ties broken f < h < e, so annihilation modes bubble rightward to
the vacuum during straightening.  A VermaVector, a vector of M(k,0), is an
exact_core.ExactSum of such monomials that carries its level.

A mode x(n) is the int 3n + rank, rank f = 0 < h = 1 < e = 2, so ints order
as the pairs (n, rank) do, and a monomial is an ascending tuple of ints.
Only this module knows the encoding; others use `mode` and its readers.

A VacuumModule, the action table, is bound to one level k = p/q and holds
q times each straightened coefficient.  The level enters only through the
central term, and never squared, so a coefficient is a + b*k for integers
a, b, and q times it is the int q*a + p*b.  `operator_matrix` copies those
ints as the sparse rows of q*x(n), and `VacuumModule.act` sums c*x over the
vector's integral form (ExactSum.integral), and `from_integral` divides
once, by the form's denominator times q.  No table is kept here: whoever
straightens creates one at its level and drops it, and a solve's table lives
for that solve alone (zhu._solve_cold).
"""

from __future__ import annotations

import itertools
from collections import defaultdict, namedtuple
from fractions import Fraction

from .errors import InvalidInputError, ResourceCapError
from .exact_core import ExactSum, format_scalar, format_terms, from_integral
from .nullspace import IntMatrix
from .usl2 import BRACKET

GEN_RANK = {"f": 0, "h": 1, "e": 2}
RANK_GEN = "fhe"
_PAIRING = {("e", "f"): 1, ("f", "e"): 1, ("h", "h"): 2}  # the normalized invariant form

# (rank x, rank y) -> (rank of [x, y], its coefficient, 0 if [x, y] = 0, <x, y>)
_RANK_BRACKET = {
    (GEN_RANK[x], GEN_RANK[y]): (GEN_RANK[z], c, _PAIRING.get((x, y), 0))
    for x in GEN_RANK
    for y in GEN_RANK
    for z, c in [BRACKET.get((x, y), ("h", 0))]
}

DEFAULT_MAX_WEIGHT_DIM = 20000
_RANKS_FROM = ((0, 1, 2), (1, 2), (2,))  # the ranks at or after r, for the weight search


def mode(gen: str, degree: int) -> int:
    if gen not in GEN_RANK:
        raise InvalidInputError(f"unknown sl2 generator {gen!r}")
    return 3 * degree + GEN_RANK[gen]


def mode_gen(m: int) -> str:
    return RANK_GEN[m % 3]


def mode_degree(m: int) -> int:
    return m // 3


def mode_charge(m: int) -> int:
    return m % 3 - 1


def mode_to_text(m: int) -> str:
    return f"{mode_gen(m)}({mode_degree(m)})"


def cap_exceeded(delta_deg: int, alpha_wt: int, cap: int) -> ResourceCapError:
    """The error for a weight space W(delta_deg, alpha_wt) larger than cap."""
    return ResourceCapError(f"weight space W({delta_deg},{alpha_wt}) exceeds cap {cap}")


def bracket_modes(x: int, y: int) -> tuple[list[tuple[int, int]], int]:
    """[x(m), y(n)] as (list of (mode, coeff), c), the central term being c*k."""
    (m, rx), (n, ry) = divmod(x, 3), divmod(y, 3)
    r, c, pairing = _RANK_BRACKET[rx, ry]
    return [(3 * (m + n) + r, c)] if c else [], m * pairing if m + n == 0 else 0


class AffineWeight(namedtuple("AffineWeight", "lambda0 lambda1")):
    """Weight in the span of Lambda_0, Lambda_1, delta; its delta coefficient is 0."""

    __slots__ = ()

    @property
    def level_value(self) -> Fraction:
        """Pairing with the central element: Lambda0 + Lambda1 coefficients."""
        return self.lambda0 + self.lambda1

    @property
    def h_value(self) -> Fraction:
        """Pairing with the finite Cartan generator h."""
        return self.lambda1

    def to_dict(self) -> dict:
        return {
            "lambda0": format_scalar(self.lambda0),
            "lambda1": format_scalar(self.lambda1),
            "delta": "0",
            "h": format_scalar(self.h_value),
        }


class VermaVector(ExactSum):
    """Element of the vacuum module M(k,0): finite sum of canonical monomials.

    Monomials are tuples of modes (all of negative degree) sorted ascending;
    the empty tuple is the vacuum.  The level k fixes the module, so every
    result carries it and a sum of two levels is invalid input.
    """

    __slots__ = ("level",)

    def __init__(self, level, terms=None):
        super().__init__(terms)
        self.level = Fraction(level)

    def _space(self):
        return self.level

    def _like(self, terms) -> "VermaVector":
        return VermaVector(self.level, terms)

    def to_text(self) -> str:
        terms = ((self.terms[mono], monomial_to_text(mono)) for mono in sorted(self.terms))
        return format_terms(terms, joiner=" ", lead_minus="- ")


def monomial_to_text(mono) -> str:
    pieces = []
    for md, run in itertools.groupby(mono):
        count = len(list(run))
        pieces.append(mode_to_text(md) + (f"^{count}" if count > 1 else ""))
    return " ".join([*pieces, "|0>"])


class VacuumModule:
    """Straightening engine for M(k,0) at one level k = p/q: its memo maps
    (mode, monomial) to {monomial: x}, each int x being q times the
    coefficient, and holds no zero x."""

    def __init__(self, level):
        self.level = Fraction(level)
        self._memo: dict = {}

    # -- single-mode action on a canonical monomial -------------------------
    def act_mono(self, md: int, mono: tuple) -> dict:
        key = (md, mono)
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        q = self.level.denominator
        if md < 0 and (not mono or md <= mono[0]):
            out = {(md,) + mono: q}
        elif not mono:
            out = {}
        else:
            head, rest = mono[0], mono[1:]
            acc: dict = {}
            # exact: head is a creation mode, meets no central term, so q divides x3
            for m2, x2 in self.act_mono(md, rest).items():
                for m3, x3 in self.act_mono(head, m2).items():
                    acc[m3] = acc.get(m3, 0) + x2 * x3 // q
            bmodes, central = bracket_modes(md, head)
            for bm, bc in bmodes:
                for m2, x2 in self.act_mono(bm, rest).items():
                    acc[m2] = acc.get(m2, 0) + bc * x2
            if central:
                acc[rest] = acc.get(rest, 0) + central * self.level.numerator
            out = {m: x for m, x in acc.items() if x}
        self._memo[key] = out
        return out

    def act(self, md: int, v: VermaVector) -> VermaVector:
        if v.level != self.level:
            raise InvalidInputError(f"a vector at level {v.level} on a table at {self.level}")
        ints, den = v.integral()
        out: dict = {}
        for mono, c in ints.items():
            for m2, x in self.act_mono(md, mono).items():
                out[m2] = out.get(m2, 0) + c * x
        return from_integral(v._like, out, den * self.level.denominator)

    # -- weight spaces -------------------------------------------------------
    def weight_space_basis(self, delta_deg: int, alpha_wt: int, max_dim=DEFAULT_MAX_WEIGHT_DIM):
        """All canonical monomials with the given delta-degree and alpha-weight,
        in lexicographically ascending order; more than max_dim of them is a
        ResourceCapError."""
        if delta_deg < 0:
            raise InvalidInputError("delta-degree must be nonnegative")
        out: list = []

        def search(d0: int, r0: int, remaining: int, charge: int, stack: list):
            if remaining == 0:
                if charge == alpha_wt:
                    out.append(tuple(stack))
                    if len(out) > max_dim:
                        raise cap_exceeded(delta_deg, alpha_wt, max_dim)
                return
            # a mode changes the charge by at most 1, so none costing more
            # than remaining - |alpha_wt - charge| + 1 fits: start no lower
            lowest = abs(alpha_wt - charge) - 1 - remaining
            if d0 < lowest:
                d0, r0 = lowest, 0
            for d in range(d0, 0):
                new_remaining = remaining + d
                for r in _RANKS_FROM[r0]:
                    new_charge = charge + r - 1  # rank r has charge r - 1
                    if abs(alpha_wt - new_charge) > new_remaining:
                        continue
                    stack.append(3 * d + r)
                    search(d, r, new_remaining, new_charge, stack)
                    stack.pop()
                r0 = 0

        search(-delta_deg, 0, delta_deg, 0, [])
        return out


def operator_matrix(table: VacuumModule, md: int, from_basis) -> IntMatrix:
    """Integer matrix of q*x(n) on an enumerated weight-space basis, at the
    table's level k = p/q: one row per image monomial, in ascending monomial
    order (the order weight_space_basis enumerates), and row[j] is the
    table's integer for basis monomial j."""
    rows: dict = defaultdict(dict)
    for j, monomial in enumerate(from_basis):
        for m2, x in table.act_mono(md, monomial).items():
            rows[m2][j] = x
    return IntMatrix(len(from_basis), [rows[m2] for m2 in sorted(rows)])
