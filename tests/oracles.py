"""Independent test-side oracles.

These deliberately avoid the library's straightening and projection code:
elements act on explicit lowest-/highest-weight module bases and on the dense
modules E(r,mu) generator by generator, products are straightened by
adjacent transpositions rather than the library's closed-form kernel, weight
spaces are enumerated by a different algorithm, polynomials are recovered by
Lagrange interpolation, the term count of a product is predicted from its
operands' shapes, and Kostant's polynomials are built factor by factor.
The dense action's closed form also has its former Fraction arithmetic here,
one Fraction operation per linear factor, against which the library's
integer products are checked.

Exact linear algebra has a dense Fraction reference: `RationalMatrix` and its
RREF, against which the modular integer kernel is checked.  The vacuum
module's integer action table (`VacuumModule.act`, `operator_matrix`) is
checked against a Fraction straightening of mode words by adjacent
transpositions, which shares nothing with the table but the mode encoding.
The library keeps no table between calls (a solve's table lives for that
solve), so the tests straighten through tables of their own, one per level
from `table(level)`, which live as long as the test process.

The post-solve checks have their former, literal forms here: the
adjoint-module predicate as the descent (ad f)^{2N+1} Q, which the library's
weight test and one (ad e) step replace for homogeneous Q, and the root check
as Fraction synthetic division by (h - r).  So do two former readings of the
classifying polynomials: the projection mod U(g)n_+ through the Chevalley
involution, and the mff p2 as the product f^N * epsilon projected mod U(g)n_-.
The latter is the old route itself, so it uses the library's product and
projection.

The transpose of U(sl2) and the grading of a vacuum-module vector are read
here; the library needs neither.

The library renders elements as text and reads none back.  Strict readers of
the three canonical text forms live here, so the tests can check that the
text determines the element.
"""

import functools
import re
from fractions import Fraction
from math import comb, factorial, lcm

from admz.affine import VacuumModule, VermaVector, mode, mode_charge, mode_degree, mode_gen
from admz.errors import InvalidInputError
from admz.exact_core import HPoly, poly_eval, poly_mul
from admz.nullspace import IntMatrix
from admz.usl2 import FinElement, fin_ad, fin_product, project_cartan
from admz.zhu import mff_epsilon

# Letters of the PBW basis monomial (a, b, c) = e^a h^b f^c, left to right.
LETTERS = ("e", "h", "f")

# [x, y] = coefficient * generator, for the pairs that do not commute
_BRACKET = {
    ("e", "f"): ("h", 1),
    ("f", "e"): ("h", -1),
    ("h", "e"): ("e", 2),
    ("e", "h"): ("e", -2),
    ("h", "f"): ("f", -2),
    ("f", "h"): ("f", 2),
}


def _left_mul_by_transpositions(g, mono, memo):
    """g * (basis monomial) in the basis: g moves right past each letter
    x of the monomial by g x = x g + [g, x].  Returns {monomial: int}."""
    key = (g, mono)
    if key in memo:
        return memo[key]
    g1, g2, g3 = LETTERS
    a, b, c = mono
    if g == g1:
        out = {(a + 1, b, c): 1}
    elif g == g2 and a == 0:
        out = {(0, b + 1, c): 1}
    elif g == g3 and a == 0 and b == 0:
        out = {(0, 0, c + 1): 1}
    else:
        if a > 0:
            head, rest = g1, (a - 1, b, c)
        elif b > 0:
            head, rest = g2, (a, b - 1, c)
        else:
            head, rest = g3, (a, b, c - 1)
        out = {}
        # g * head * rest = head * (g * rest) + [g, head] * rest
        for m2, c2 in _left_mul_by_transpositions(g, rest, memo).items():
            for m3, c3 in _left_mul_by_transpositions(head, m2, memo).items():
                out[m3] = out.get(m3, 0) + c2 * c3
        if (g, head) in _BRACKET:
            bg, bc = _BRACKET[g, head]
            for m2, c2 in _left_mul_by_transpositions(bg, rest, memo).items():
                out[m2] = out.get(m2, 0) + bc * c2
    memo[key] = out = {m: v for m, v in out.items() if v}
    return out


def straighten_by_transpositions(word, acc=None):
    """g_1 * ... * g_n * acc in the basis, one generator at a time.

    acc maps basis monomials to coefficients of any exact type (default 1)."""
    acc = {(0, 0, 0): 1} if acc is None else dict(acc)
    memo = {}
    for g in reversed(list(word)):
        nxt = {}
        for m, cm in acc.items():
            for m3, c3 in _left_mul_by_transpositions(g, m, memo).items():
                nxt[m3] = nxt.get(m3, 0) + cm * c3
        acc = nxt
    return {m: v for m, v in acc.items() if v}


def product_by_transpositions(x: FinElement, y: FinElement) -> FinElement:
    """x * y, each term of x folded into y generator by generator."""
    out = {}
    for word, coeff in _element_words(x):
        for m, v in straighten_by_transpositions(word, y.terms).items():
            out[m] = out.get(m, Fraction(0)) + coeff * v
    return FinElement(out)


def transpose(x: FinElement) -> FinElement:
    """The antiautomorphism e <-> f, h -> h, products reversed.

    The straightened image of a basis monomial e^a h^b f^c is again a basis
    monomial, e^c h^b f^a."""
    return FinElement({(c, b, a): v for (a, b, c), v in x.terms.items()})


def act_word_lowest_weight(word, mu, start=0):
    """Act a generator word on the basis {e^j w} of a lowest-weight module.

    w satisfies f.w = 0, h.w = mu*w; the standard relations give
    h.e^j w = (mu+2j) e^j w and f.e^j w = -j(mu+j-1) e^{j-1} w.
    Returns a dict j -> coefficient.
    """
    mu = Fraction(mu)
    vec = {start: Fraction(1)}
    for g in reversed(list(word)):
        nxt = {}
        for j, c in vec.items():
            if g == "e":
                nxt[j + 1] = nxt.get(j + 1, Fraction(0)) + c
            elif g == "h":
                nxt[j] = nxt.get(j, Fraction(0)) + c * (mu + 2 * j)
            elif g == "f":
                if j > 0:
                    coeff = c * Fraction(-j) * (mu + j - 1)
                    nxt[j - 1] = nxt.get(j - 1, Fraction(0)) + coeff
            else:
                raise ValueError(g)
        vec = {j: c for j, c in nxt.items() if c}
    return vec


def act_word_highest_weight(word, mu, start=0):
    """Mirror oracle on the basis {f^j v} of a highest-weight module:
    e.v = 0, h.v = mu*v, e.f^j v = j(mu-j+1) f^{j-1} v."""
    mu = Fraction(mu)
    vec = {start: Fraction(1)}
    for g in reversed(list(word)):
        nxt = {}
        for j, c in vec.items():
            if g == "f":
                nxt[j + 1] = nxt.get(j + 1, Fraction(0)) + c
            elif g == "h":
                nxt[j] = nxt.get(j, Fraction(0)) + c * (mu - 2 * j)
            elif g == "e":
                if j > 0:
                    coeff = c * Fraction(j) * (mu - j + 1)
                    nxt[j - 1] = nxt.get(j - 1, Fraction(0)) + coeff
            else:
                raise ValueError(g)
        vec = {j: c for j, c in nxt.items() if c}
    return vec


def act_generator_dense(g, r, mu, i):
    """One generator on the basis vector E_i of E(r,mu): (coefficient, new index).

    e.E_i = -(mu+i) E_{i-1}, h.E_i = (r-2mu-2i) E_i, f.E_i = (mu+i-r) E_{i+1}.
    """
    x = Fraction(mu) + i
    if g == "e":
        return -x, i - 1
    if g == "h":
        return r - 2 * x, i
    if g == "f":
        return x - r, i + 1
    raise ValueError(g)


def act_element_dense(x: FinElement, r, mu, i) -> dict:
    """x.E_i in E(r,mu) as {index: coefficient}, each term's word walked
    generator by generator from the right."""
    out = {}
    for word, coeff in _element_words(x):
        idx = i
        for g in reversed(word):
            c, idx = act_generator_dense(g, r, mu, idx)
            coeff *= c
        out[idx] = out.get(idx, Fraction(0)) + coeff
    return {j: c for j, c in out.items() if c}


def act_groups_by_fractions(groups: dict, r, x) -> Fraction:
    """The coefficient of sum e^a P(h) f^c . E_i in E(r, mu), x = mu+i, by the
    closed form with one Fraction operation per linear factor:
    prod_{j<c} (x+j-r) * P(r-2y) * prod_{j<a} (j-y), y = x+c."""
    total = Fraction(0)
    for (a, c), P in groups.items():
        y = x + c
        coeff = poly_eval(P, r - 2 * y)
        for j in range(c):
            coeff *= x + j - r
        for j in range(a):
            coeff *= j - y
        total += coeff
    return total


def _element_words(x: FinElement):
    for mono, coeff in x.terms.items():
        word = []
        for g, exp in zip(LETTERS, mono):
            word.extend([g] * exp)
        yield word, coeff


def _ad_power_words(x: FinElement, g: str, n: int):
    """(ad g)^n x = sum_j binom(n, j) (-1)^j g^(n-j) x g^j, word by word,
    never straightened."""
    for word, coeff in _element_words(x):
        for j in range(n + 1):
            yield [g] * (n - j) + word + [g] * j, coeff * comb(n, j) * (-1) ** j


def eval_mod_n_minus(x: FinElement, mu, ad_e=0) -> Fraction:
    """Lowest-weight evaluation at h = mu of the mod-U(g)n_- projection of
    (ad e)^ad_e x."""
    total = Fraction(0)
    for word, coeff in _ad_power_words(x, "e", ad_e):
        total += coeff * act_word_lowest_weight(word, mu).get(0, Fraction(0))
    return total


def eval_mod_n_plus(x: FinElement, mu, ad_f=0) -> Fraction:
    """Highest-weight evaluation at h = mu of the mod-U(g)n_+ projection of
    (ad f)^ad_f x."""
    total = Fraction(0)
    for word, coeff in _ad_power_words(x, "f", ad_f):
        total += coeff * act_word_highest_weight(word, mu).get(0, Fraction(0))
    return total


def project_mod_n_plus(x: FinElement) -> HPoly:
    """Project an ad-weight-0 element mod U(g)n_+ through the Chevalley
    involution theta: e <-> f, h -> -h, which maps U(g)n_+ onto U(g)n_-.  So
    if theta(x) has pure-h part P(h), x projects to P(-h); each term
    e^a h^b f^c maps to (-1)^b f^a h^b e^c, straightened."""
    if x.ad_weight() != 0:
        raise InvalidInputError("project_mod_n_plus requires an ad-weight-0 element")
    pure = {}
    for (a, b, c), v in x.terms.items():
        word = ["f"] * a + ["h"] * b + ["e"] * c
        for (a2, b2, c2), w in straighten_by_transpositions(word).items():
            if a2 == c2 == 0:
                pure[b2] = pure.get(b2, 0) + (-1) ** (b + b2) * v * w
    return HPoly([pure.get(b, 0) for b in range(max(pure, default=-1) + 1)])


def p2_by_product_and_projection(lv) -> HPoly:
    """The mff route's p2 as the U(sl2) product f^N * epsilon, projected
    mod U(g)n_-: the reference for the pipeline's reading of epsilon's
    e^N P(h) group."""
    f_n = FinElement.monomial((0, 0, lv.N))
    return project_cartan(fin_product(f_n, mff_epsilon(lv)))


def _canonical_key(md):
    """The canonical order of modes: degree ascending, ties f < h < e."""
    return mode_degree(md), "fhe".index(mode_gen(md))


def brute_weight_space(delta_deg: int, alpha_wt: int):
    """Exhaustive weight-space enumeration by per-mode multiplicity choice,
    sorted by the canonical order, not by the library's mode values."""
    modes = [mode(g, d) for d in range(-delta_deg, 0) for g in "fhe"]
    found = []

    def rec(idx, remaining, ch, acc):
        if remaining == 0:
            if ch == alpha_wt:
                found.append(tuple(sorted(acc, key=_canonical_key)))
            return
        if idx == len(modes):
            return
        md = modes[idx]
        cost = -mode_degree(md)
        count = 0
        while count * cost <= remaining:
            rec(idx + 1, remaining - count * cost, ch + count * mode_charge(md), acc + [md] * count)
            count += 1

    if delta_deg == 0:
        return [()] if alpha_wt == 0 else []
    rec(0, delta_deg, 0, [])
    return sorted(found, key=lambda mono: [_canonical_key(md) for md in mono])


def lagrange_fit(points):
    """Exact Lagrange interpolation; returns a callable evaluator."""
    points = [(Fraction(x), Fraction(y)) for x, y in points]

    def evaluate(x):
        x = Fraction(x)
        total = Fraction(0)
        for i, (xi, yi) in enumerate(points):
            term = yi
            for j, (xj, _) in enumerate(points):
                if i != j:
                    term *= (x - xj) / (xi - xj)
            total += term
        return total

    return evaluate


def pbw_shape(x) -> dict:
    """{(a, c): deg P} of an element grouped as sum e^a P(h) f^c."""
    out = {}
    for a, b, c in x.terms:
        out[a, c] = max(out.get((a, c), 0), b)
    return out


def product_terms(xs: dict, ys: dict) -> int:
    """How many PBW terms the library's product kernel forms for a product,
    before any merging, from the operands' shapes {(a, c): deg P} of their
    groups e^a P(h) f^c.

    The pair (a, c), (a', c') gives, for j = 0..min(c, a'), a polynomial of
    degree deg P + j + deg R."""
    total = 0
    for (_, c), d in xs.items():
        for (a2, _), d2 in ys.items():
            n = min(c, a2) + 1
            total += n * (d + d2 + 1) + n * (n - 1) // 2
    return total


def kostant_by_products(a: int, c: int) -> list:
    """Kostant's K_j for f^c e^a, each built from scratch as the scalar
    binom(a,j) binom(c,j) j! times j fresh linear factors (-h-a-c+2j-i),
    O(min(a, c)^3) steps: the reference for the library's O(min(a, c)^2)
    list, which reuses each product for the next."""
    out = []
    for j in range(min(a, c) + 1):
        poly = [comb(a, j) * comb(c, j) * factorial(j)]
        for i in range(j):
            poly = poly_mul(poly, [2 * j - a - c - i, -1])
        out.append(poly)
    return out


# -- exact linear algebra: the dense Fraction reference -------------------------


class RationalMatrix:
    """Sparse exact matrix: entries maps (row, col) to nonzero Fractions."""

    __slots__ = ("nrows", "ncols", "entries")

    def __init__(self, nrows: int, ncols: int, entries=None):
        if nrows < 0 or ncols < 0:
            raise InvalidInputError("matrix dimensions must be nonnegative")
        self.nrows = nrows
        self.ncols = ncols
        clean = {}
        for (r, c), v in (entries or {}).items():
            if not (0 <= r < nrows and 0 <= c < ncols):
                raise InvalidInputError(f"entry ({r},{c}) outside {nrows}x{ncols}")
            v = Fraction(v)
            if v:
                clean[(r, c)] = v
        self.entries = clean

    @classmethod
    def from_rows(cls, rows) -> "RationalMatrix":
        rows = [list(r) for r in rows]
        ncols = len(rows[0]) if rows else 0
        if any(len(row) != ncols for row in rows):
            raise InvalidInputError("ragged rows")
        cells = {(i, j): v for i, row in enumerate(rows) for j, v in enumerate(row)}
        return cls(len(rows), ncols, cells)

    @classmethod
    def vstack(cls, top: "RationalMatrix", bottom: "RationalMatrix") -> "RationalMatrix":
        if top.ncols != bottom.ncols:
            raise InvalidInputError("column mismatch in vstack")
        entries = dict(top.entries)
        for (r, c), v in bottom.entries.items():
            entries[(r + top.nrows, c)] = v
        return cls(top.nrows + bottom.nrows, top.ncols, entries)

    def to_rows(self) -> list[list[Fraction]]:
        rows = [[Fraction(0)] * self.ncols for _ in range(self.nrows)]
        for (r, c), v in self.entries.items():
            rows[r][c] = v
        return rows

    def matvec(self, vec) -> list[Fraction]:
        if len(vec) != self.ncols:
            raise InvalidInputError("vector length mismatch")
        out = [Fraction(0)] * self.nrows
        for (r, c), v in self.entries.items():
            if vec[c]:
                out[r] += v * vec[c]
        return out

    def __eq__(self, other):
        if not isinstance(other, RationalMatrix):
            return NotImplemented
        return (
            self.nrows == other.nrows
            and self.ncols == other.ncols
            and self.entries == other.entries
        )

    def __repr__(self):
        return f"RationalMatrix({self.nrows}x{self.ncols}, nnz={len(self.entries)})"


def rref_rows(rows: list[list[Fraction]], ncols: int) -> list[int]:
    """Reduce rows in place to reduced row echelon form; returns pivot columns.

    Eager normalization, deterministic pivoting: lowest column index, then
    lowest row index."""
    nrows = len(rows)
    pivots: list[int] = []
    pivot_row = 0
    for col in range(ncols):
        if pivot_row >= nrows:
            break
        sel = next((r for r in range(pivot_row, nrows) if rows[r][col]), -1)
        if sel < 0:
            continue
        rows[sel], rows[pivot_row] = rows[pivot_row], rows[sel]
        prow = rows[pivot_row]
        inv = 1 / prow[col]
        for j in range(col, ncols):
            prow[j] *= inv
        nz = [j for j in range(col, ncols) if prow[j]]
        for r in range(nrows):
            factor = rows[r][col]
            if r != pivot_row and factor:
                for j in nz:
                    rows[r][j] -= factor * prow[j]
        pivots.append(col)
        pivot_row += 1
    return pivots


def rref(m: RationalMatrix) -> tuple[RationalMatrix, int]:
    """Canonical reduced row echelon form and rank, exact."""
    rows = m.to_rows()
    pivots = rref_rows(rows, m.ncols)
    cells = {(i, j): v for i, row in enumerate(rows) for j, v in enumerate(row)}
    return RationalMatrix(m.nrows, m.ncols, cells), len(pivots)


def integer_matrix(m: RationalMatrix) -> IntMatrix:
    """The integer matrix with m's kernel: each row scaled by the lcm of its
    denominators."""
    scaled = []
    for row in m.to_rows():
        scale = lcm(*(v.denominator for v in row))
        scaled.append({c: int(v * scale) for c, v in enumerate(row) if v})
    return IntMatrix(m.ncols, scaled)


# -- the vacuum module's action, straightened in Fractions ----------------------

_PAIRING = {("e", "f"): 1, ("f", "e"): 1, ("h", "h"): 2}


@functools.cache
def table(level) -> VacuumModule:
    """The tests' action table at a level: one per level, kept for the process."""
    return VacuumModule(level)


@functools.cache
def straighten_word(word: tuple, level: Fraction) -> dict:
    """word|0>, for a word of modes in any order, as {canonical monomial: coeff}:
    swap the first adjacent pair out of order by
    x(m) y(n) = y(n) x(m) + [x,y](m+n) + m delta_{m+n,0} <x,y> k,
    and drop a word that ends in a mode of degree >= 0."""
    if word and mode_degree(word[-1]) >= 0:
        return {}
    i = next((i for i in range(len(word) - 1) if word[i] > word[i + 1]), None)
    if i is None:
        return {word: Fraction(1)}
    x, y = word[i], word[i + 1]
    gens, m, n = (mode_gen(x), mode_gen(y)), mode_degree(x), mode_degree(y)
    left, right = word[:i], word[i + 2 :]
    rewrites = [(left + (y, x) + right, 1)]
    if gens in _BRACKET:
        g, c = _BRACKET[gens]
        rewrites.append((left + (mode(g, m + n),) + right, c))
    if m + n == 0:
        rewrites.append((left + right, m * _PAIRING.get(gens, 0) * level))
    out: dict = {}
    for w, c in rewrites:
        for mono, coeff in straighten_word(w, level).items():
            out[mono] = out.get(mono, 0) + c * coeff
    return {mono: c for mono, c in out.items() if c}


def homogeneous_weight(v: VermaVector):
    """(delta-degree, alpha-weight) of v if it is homogeneous, else None."""
    grades = {(-sum(map(mode_degree, m)), sum(map(mode_charge, m))) for m in v.terms}
    return grades.pop() if len(grades) == 1 else None


def act_by_fractions(md, v: VermaVector) -> VermaVector:
    """x(n) v, each monomial's word straightened in Fractions at v's level."""
    out = {}
    for mono, coeff in v.terms.items():
        for m2, c in straighten_word((md,) + mono, v.level).items():
            out[m2] = out.get(m2, 0) + coeff * c
    return VermaVector(v.level, out)


def operator_matrix_by_fractions(md, from_basis, to_basis, level) -> RationalMatrix:
    """The Fraction matrix of x(n) between weight-space bases at the level."""
    level = Fraction(level)
    index = {mono: i for i, mono in enumerate(to_basis)}
    cells = {}
    for j, mono in enumerate(from_basis):
        for m2, c in straighten_word((md,) + mono, level).items():
            cells[(index[m2], j)] = c
    return RationalMatrix(len(to_basis), len(from_basis), cells)


# -- the post-solve checks, in Fractions and by descent -------------------------


def spans_adjoint_module_by_descent(Q: FinElement, N: int) -> bool:
    """(ad e)Q = 0, (ad f)^{2N} Q != 0 and (ad f)^{2N+1} Q = 0, step by step."""
    if not fin_ad("e", Q).is_zero():
        return False
    for _ in range(2 * N):
        Q = fin_ad("f", Q)
    return not Q.is_zero() and fin_ad("f", Q).is_zero()


def divmod_linear(p: HPoly, root) -> tuple[HPoly, Fraction]:
    """Synthetic division by (h - root) in Fractions: (quotient, remainder)."""
    root = Fraction(root)
    if p.is_zero():
        return HPoly(), Fraction(0)
    quot = []
    acc = Fraction(0)
    for c in reversed(p.coeffs):
        acc = acc * root + c
        quot.append(acc)
    rem = quot.pop()
    quot.reverse()
    return HPoly(quot), rem


def poly_root_check_by_fractions(p: HPoly, candidates) -> tuple[dict, HPoly]:
    """Divide p by (h - r) for each candidate r, ascending, as often as the
    remainder is zero: (multiplicity map of the matched roots, cofactor)."""
    if p.is_zero():
        raise InvalidInputError("poly_root_check requires a nonzero polynomial")
    matched: dict[Fraction, int] = {}
    cofactor = p
    for r in sorted(Fraction(c) for c in set(candidates)):
        while True:
            quot, rem = divmod_linear(cofactor, r)
            if rem != 0 or cofactor.is_zero():
                break
            matched[r] = matched.get(r, 0) + 1
            cofactor = quot
    return matched, cofactor


# -- readers of the canonical text forms -----------------------------------------
# A round trip is only as strong as its reader is strict: each reader accepts
# the canonical shape alone and raises ValueError on anything else.

_SCALAR = r"\d+(?:/\d+)?"
_HPOLY_TERM = re.compile(rf"(?:(?P<c>{_SCALAR})\*)?h(?:\^(?P<p>\d+))?|(?P<const>{_SCALAR})")
_FIN_FACTOR = re.compile(r"(?P<g>[ehf])(?:\^(?P<exp>\d+))?")
_VERMA_MODE = re.compile(r"(?P<g>[efh])\((?P<deg>-?\d+)\)(?:\^(?P<exp>\d+))?")


def _scalar(text: str) -> Fraction:
    if not re.fullmatch(_SCALAR, text) or re.fullmatch(r"\d+/0+", text):
        raise ValueError(f"not a scalar: {text!r}")
    return Fraction(text)


def _signed_terms(text: str, lead: str):
    """(sign, body) for each term of a signed sum whose first minus is written
    `lead` and whose later signs are spaced, " + " or " - "."""
    if not text:
        raise ValueError("empty text")
    pieces = re.split(r" ([+-]) ", text)
    first = pieces[0]
    signs = [-1 if first.startswith(lead) else 1] + [1 if s == "+" else -1 for s in pieces[1::2]]
    bodies = [first[len(lead) :] if signs[0] < 0 else first] + pieces[2::2]
    return zip(signs, bodies)


def parse_hpoly(text: str) -> HPoly:
    """Read HPoly.to_text: "-2/3*h^2 + h - 1/2"."""
    coeffs: dict[int, Fraction] = {}
    for sign, body in _signed_terms(text, "-") if text != "0" else ():
        m = _HPOLY_TERM.fullmatch(body)
        if not m:
            raise ValueError(f"not a polynomial term: {body!r}")
        if m["const"]:
            power, c = 0, _scalar(m["const"])
        else:
            power, c = int(m["p"] or 1), _scalar(m["c"]) if m["c"] else Fraction(1)
        coeffs[power] = coeffs.get(power, 0) + sign * c
    return HPoly([coeffs.get(p, 0) for p in range(max(coeffs, default=-1) + 1)])


def parse_fin(text: str) -> FinElement:
    """Read FinElement.to_text: "2*e*h^2*f^3 - 1/2*h + 1", each word in PBW
    order e, h, f."""
    terms: dict[tuple, Fraction] = {}
    for sign, body in _signed_terms(text, "-") if text != "0" else ():
        factors = body.split("*")
        coeff = _scalar(factors.pop(0)) if factors[0][:1].isdigit() else Fraction(1)
        word = [_FIN_FACTOR.fullmatch(f) for f in factors]
        letters = "".join(m["g"] for m in word if m)
        if not all(word) or letters != "".join(g for g in LETTERS if g in letters):
            raise ValueError(f"not a PBW word: {body!r}")
        exps = {m["g"]: int(m["exp"] or 1) for m in word}
        key = tuple(exps.get(g, 0) for g in LETTERS)
        terms[key] = terms.get(key, 0) + sign * coeff
    return FinElement(terms)


def parse_verma(text: str, level) -> VermaVector:
    """Read VermaVector.to_text: "- 1/2 |0> + 3 h(-3) e(-1)^2 |0>", each word
    in canonical mode order."""
    terms: dict[tuple, Fraction] = {}
    for sign, body in _signed_terms(text, "- ") if text != "0" else ():
        tokens = body.split(" ")
        if tokens.pop() != "|0>":
            raise ValueError(f"Verma term must end with |0>: {body!r}")
        coeff = _scalar(tokens.pop(0)) if tokens and tokens[0][:1].isdigit() else Fraction(1)
        mono = []
        for tok in tokens:
            m = _VERMA_MODE.fullmatch(tok)
            if not m:
                raise ValueError(f"not a mode: {tok!r}")
            mono += [mode(m["g"], int(m["deg"]))] * int(m["exp"] or 1)
        if mono != sorted(mono):
            raise ValueError(f"modes out of canonical order: {body!r}")
        terms[tuple(mono)] = terms.get(tuple(mono), 0) + sign * coeff
    return VermaVector(level, terms)
