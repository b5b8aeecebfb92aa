"""Independent test-side oracles.

These deliberately avoid the library's straightening and projection code:
elements act on explicit lowest-/highest-weight module bases and on the dense
modules E(r,mu) generator by generator, products are straightened by
adjacent transpositions rather than the library's closed-form kernel, weight
spaces are enumerated by a different algorithm, polynomials are recovered by
Lagrange interpolation, the term count of a product is predicted from its
operands' shapes, and Kostant's polynomials are built factor by factor.

Exact linear algebra has a dense Fraction reference: `RationalMatrix` and its
RREF, against which the modular integer kernel is checked.  The vacuum
module's integer evaluation of its action table (`VacuumModule.act`,
`operator_matrix`) is checked against the same table evaluated in Fractions,
coefficient by coefficient as a + b*k.

The post-solve checks have their former, literal forms here: the
adjoint-module predicate as the descent (ad f)^{2N+1} Q, and the root check as
Fraction synthetic division by (h - r).  So do two former readings of the
classifying polynomials: the projection mod U(g)n_+ through the Chevalley
involution, and the mff p2 as the product f^N * epsilon projected mod U(g)n_-.
The latter is the old route itself, so it uses the library's product and
projection.
"""

from fractions import Fraction
from math import comb, factorial, lcm

from admz.affine import VACUUM, VermaVector
from admz.errors import InvalidInputError
from admz.exact_core import HPoly, poly_mul
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


def brute_weight_space(delta_deg: int, alpha_wt: int):
    """Exhaustive weight-space enumeration by per-mode multiplicity choice."""
    charge = {0: -1, 1: 0, 2: 1}
    modes = [(d, r) for d in range(-delta_deg, 0) for r in (0, 1, 2)]
    found = []

    def rec(idx, remaining, ch, acc):
        if remaining == 0:
            if ch == alpha_wt:
                found.append(tuple(sorted(acc)))
            return
        if idx == len(modes):
            return
        d, r = modes[idx]
        cost = -d
        count = 0
        while count * cost <= remaining:
            rec(idx + 1, remaining - count * cost, ch + count * charge[r], acc + [(d, r)] * count)
            count += 1

    if delta_deg == 0:
        return [()] if alpha_wt == 0 else []
    rec(0, delta_deg, 0, [])
    return sorted(found)


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
    scales: dict[int, int] = {}
    for (r, _), v in m.entries.items():
        scales[r] = lcm(scales.get(r, 1), v.denominator)
    cells = {(r, c): int(v * scales[r]) for (r, c), v in m.entries.items()}
    return IntMatrix(m.nrows, m.ncols, cells)


# -- the vacuum module's action table, evaluated in Fractions -------------------


def act_by_fractions(md, v: VermaVector) -> VermaVector:
    """x(n) v as sum coeff * (a + b*k) over the action table's pairs (a, b)."""
    out = {}
    for mono, coeff in v.terms.items():
        for m2, (a, b) in VACUUM.act_mono(md, mono).items():
            out[m2] = out.get(m2, 0) + coeff * (a + b * v.level)
    return VermaVector(v.level, out)


def operator_matrix_by_fractions(md, from_basis, to_basis, level) -> RationalMatrix:
    """The Fraction matrix of x(n) between weight-space bases at the level."""
    level = Fraction(level)
    index = {mono: i for i, mono in enumerate(to_basis)}
    cells = {}
    for j, mono in enumerate(from_basis):
        for m2, (a, b) in VACUUM.act_mono(md, mono).items():
            cells[(index[m2], j)] = a + b * level
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
        return HPoly.zero(), Fraction(0)
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
