"""The classification pipeline for admissible levels k = p/q.

From the parameter pack (k, t=k+2, N=2q+p-1, l=q-1) this module produces:
the admissible h-value set S, the weight box P^k, the vacuum singular vector
(by an exact nullspace search), its image Q in U(sl2), the closed-form
substitute for Q^T modulo the lowering ideal (the "mff" route), the
classifying polynomials p1/p2 by both routes, and the assembled
category-O report.  The three weight-module families are not part of it:
weight_modules.classify_weight_modules builds them, with the dense one's
verified samples, from a finished report.  Every step is exact.  The
cross-checks on a finished report are the named entries of INVARIANTS,
which the pipeline, `verify` and the CLI all share: seven independent facts,
none implied by the others.  They run on integers after the solve: the
adjoint-module check is one (ad e) step and a weight test (see
_spans_adjoint_module), the root checks divide p1 and p2 cleared to one
denominator (exact_core), and route agreement is poly_proportional's verdict.

The singular vector and Q live in one record per level, cached on the level
alone: a level is solved once per process whatever the weight-space cap.  The
solve enumerates one weight space, W(qN, N), and the cap is checked on every
call against its recorded dimension, so no call's outcome depends on earlier
ones.  That record is the only state kept between calls: a cold solve builds
one straightening table at its level (affine.VacuumModule), uses it to
enumerate W(qN, N), assemble e(0) and f(1) and re-verify the kernel vector
by direct action, and drops it when it returns.

p1 and p2 are read off coefficients by evaluation, group e^a P(h) f^c by
group (usl2.pbw_groups, on the element cleared to integers), with no adjoint
descent, no product and no Cartan projection.  The projection of a weight-0
element mod U(g)n_+ (mod U(g)n_-) is the scalar by which it acts on a
highest (lowest) weight vector of weight h.  On a highest weight vector v
every term of (ad f)^N Q = sum_j binom(N,j) f^(N-j) Q (-f)^j with j < N
vanishes, since Q f^j v would have weight above v's; likewise on a lowest
weight vector for (ad e)^N Q^T.  What is left is a sum over Q's terms
(Humphreys, Introduction to Lie Algebras and Representation Theory, sections
21 and 26.2), which compute_p1 and compute_p2 state.  The mff route
(mff_p2) reads its p2 the same way, off the e^N P(h) group of the
closed-form product epsilon.  Only epsilon is built, by U(sl2) products of
its p-factors, so the routes meet only at the reading: Q comes from the
nullspace vector, epsilon from S's parameters alone.

A function here either takes a level and solves or builds under the weight
cap, or takes a value and only reads it.  The level functions take the cap
as the int max_dim, DEFAULT_MAX_WEIGHT_DIM unless the caller passes one; no
function here reads the environment.  The cap also bounds the mff route:
the size of epsilon is known in closed form before any arithmetic
(mff_terms), and a prediction over the cap is a ResourceCapError naming the
level and the route.  S and P^k, each of (l+1)N elements, are built only
after the solve has passed its caps.  The cold solve recurses (the weight
search and the vacuum module's straightening) to a depth that grows with
the level; a RecursionError there becomes a ResourceCapError naming the
level.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import gcd

from . import affine
from .affine import DEFAULT_MAX_WEIGHT_DIM, AffineWeight, VermaVector, mode, mode_degree, mode_gen
from .errors import ConsistencyError, InvalidInputError, NotAdmissibleError, ResourceCapError
from .exact_core import (
    HPoly,
    format_scalar,
    from_integral,
    parse_scalar,
    poly_add,
    poly_mul,
    poly_proportional,
    poly_root_check,
    poly_shift,
)
from .nullspace import IntMatrix, kernel_basis
from .usl2 import (
    FinElement,
    fin_ad,
    fin_product,
    p_factor,
    pbw_groups,
    project_cartan,  # unused here; a call-site name that perfbench/tracer.py resolves
    straighten,
)

class AdmissibleLevel(namedtuple("AdmissibleLevel", "p q k t N l")):
    """Validated parameter pack for an admissible level k = p/q."""

    __slots__ = ()

    def __str__(self):
        return format_scalar(self.k)

    def to_dict(self) -> dict:
        return {
            "p": self.p,
            "q": self.q,
            "k": format_scalar(self.k),
            "t": format_scalar(self.t),
            "N": self.N,
            "l": self.l,
        }


def admissible_params(p: int, q: int) -> AdmissibleLevel:
    """Validate (p, q) and build the parameter pack."""
    if q < 1:
        raise InvalidInputError(f"q must be a positive integer, got {q}")
    if gcd(p, q) != 1:
        raise InvalidInputError(f"p and q must be coprime, got p={p}, q={q}")
    if 2 * q + p - 2 < 0:
        raise NotAdmissibleError(
            f"level {p}/{q} is not admissible: 2q+p-2 = {2 * q + p - 2} < 0"
        )
    k = Fraction(p, q)
    return AdmissibleLevel(p=p, q=q, k=k, t=k + 2, N=2 * q + p - 1, l=q - 1)


def level_from_string(text: str) -> AdmissibleLevel:
    """Parse an exact "p/q" level string (decimals rejected)."""
    k = parse_scalar(text)
    return admissible_params(k.numerator, k.denominator)


def set_S(lv: AdmissibleLevel) -> list[Fraction]:
    """S = { N - i*t - j : 0 <= i <= l, 1 <= j <= N } in enumeration order."""
    out = [lv.N - i * lv.t - j for i in range(lv.l + 1) for j in range(1, lv.N + 1)]
    if len(set(out)) != (lv.l + 1) * lv.N:
        raise ConsistencyError("invariant S-distinct: elements of S collide")
    return out


def enumerate_Pk(lv: AdmissibleLevel) -> list[AffineWeight]:
    """The admissible-weight box: (k-n+mt) Lambda0 + (n-mt) Lambda1."""
    out = []
    for m in range(lv.l + 1):
        for n in range(lv.N):
            out.append(
                AffineWeight(
                    lambda0=lv.k - n + m * lv.t,
                    lambda1=Fraction(n) - m * lv.t,
                )
            )
    return out


def singular_position(lv: AdmissibleLevel) -> tuple[int, int]:
    """(delta-degree, alpha-weight) of the singular vector's weight space."""
    return lv.q * lv.N, lv.N


class _Solved(namedtuple("_Solved", "v Q dim")):
    """One level's solve: v, Q = F([v]) and dim W(qN, N), the one weight
    space the kernel search enumerates.

    p1 and p2 are evaluations of Q's coefficients (see the module
    docstring), so nothing else derived from Q is kept."""

    __slots__ = ()


# The one per-level solve cache, keyed on (p, q) alone.
_SOLVED: dict[tuple[int, int], _Solved] = {}


def _solve(lv: AdmissibleLevel, max_dim: int) -> _Solved:
    """Solve lv once per process; check the caller's cap on every call.

    A hit raises the ResourceCapError a cold solve under this cap would:
    W(qN, N) over the cap.  The targets of e(0) and f(1) are never
    enumerated and are no larger: W(qN, N+1) is a higher weight space of the
    finite-dimensional sl2-module the zero modes make of degree qN, and
    e(-1) maps W(qN-1, N-1) injectively into W(qN, N).
    """
    solved = _SOLVED.get((lv.p, lv.q))
    if solved is None:
        try:
            solved = _SOLVED[lv.p, lv.q] = _solve_cold(lv, max_dim)
        except RecursionError as exc:
            raise ResourceCapError(f"level {lv}: weight search exceeds recursion limit") from exc
    if solved.dim > max_dim:
        raise affine.cap_exceeded(*singular_position(lv), max_dim)
    return solved


def _solve_cold(lv: AdmissibleLevel, max_dim: int) -> _Solved:
    d, w = singular_position(lv)
    table = affine.VacuumModule(lv.k)
    basis0 = table.weight_space_basis(d, w, max_dim)
    m_e = affine.operator_matrix(table, mode("e", 0), basis0)
    m_f = affine.operator_matrix(table, mode("f", 1), basis0)
    kernel = kernel_basis(IntMatrix(len(basis0), m_e.rows + m_f.rows))
    if len(kernel) != 1:
        raise ConsistencyError(
            f"invariant kernel-dimension: expected 1-dimensional singular space, "
            f"got {len(kernel)} at weight ({d},{w}) for k={lv.k}"
        )
    vec = kernel[0]
    v = VermaVector(lv.k, {basis0[j]: c for j, c in enumerate(vec) if c})
    # re-verify by direct action, independent of the solver
    for md in (mode("e", 0), mode("f", 1)):
        if not table.act(md, v).is_zero():
            raise ConsistencyError(
                "invariant singular-annihilation: solver output not singular"
            )
    return _Solved(v=v, Q=zhu_image_F(v), dim=len(basis0))


def singular_vector_nullspace(lv: AdmissibleLevel, max_dim=DEFAULT_MAX_WEIGHT_DIM) -> VermaVector:
    """The unique singular vector in W(qN, N), first support monomial scaled to 1."""
    return _solve(lv, max_dim).v


def zhu_image_F(v: VermaVector) -> FinElement:
    """Image of a Verma vector in U(sl2): reverse each monomial and apply
    the sign (-1)^(i_1+...+i_n) with x(-i-1) carrying index i.  Each distinct
    generator word is straightened once, with its summed integer coefficient."""
    ints, den = v.integral()
    words: dict[tuple, int] = {}
    for mono, c in ints.items():
        if any(mode_degree(md) >= 0 for md in mono):
            raise InvalidInputError("zhu_image_F requires mode degrees <= -1")
        word = tuple(map(mode_gen, reversed(mono)))
        odd = sum(-mode_degree(md) - 1 for md in mono) % 2
        words[word] = words.get(word, 0) + (-c if odd else c)
    out: dict[tuple[int, int, int], int] = {}
    for word, c in words.items():
        for m, x in straighten(word).items():
            out[m] = out.get(m, 0) + c * x
    return from_integral(FinElement, out, den)


def compute_Q(lv: AdmissibleLevel, max_dim=DEFAULT_MAX_WEIGHT_DIM) -> FinElement:
    """Q = F([v_sing]) in U(sl2), in the PBW basis e^a h^b f^c."""
    return _solve(lv, max_dim).Q


def mff_terms(lv: AdmissibleLevel) -> int:
    """PBW-term count of the mff route's epsilon, from shapes alone.  Each
    p-factor ef + (s-1)h - s(s-1) has the groups e^1 f^1 and a linear
    h-polynomial, so the m = lN factors times e^N give the groups
    e^(N+a) P f^a with deg P = m - a, for a = 0..m: (m+1)(m+2)/2 terms."""
    m = lv.l * lv.N
    return (m + 1) * (m + 2) // 2


def mff_epsilon(lv: AdmissibleLevel, max_dim=DEFAULT_MAX_WEIGHT_DIM) -> FinElement:
    """Closed form of the projected singular element:
    prod_{i=1..l, j=1..N} (ef + (it+j-1)h - (it+j)(it+j-1)) * e^N.

    Raises ResourceCapError, before any arithmetic, when epsilon has more
    PBW terms than the weight cap (mff_terms)."""
    terms = mff_terms(lv)
    if terms > max_dim:
        raise ResourceCapError(f"level {lv}: mff route forms {terms} PBW terms, over cap {max_dim}")
    out = FinElement.monomial((lv.N, 0, 0))
    for i in range(1, lv.l + 1):
        for j in range(1, lv.N + 1):
            out = fin_product(p_factor(i * lv.t + j), out)
    return out


def descend_to_weight_zero(x: FinElement) -> FinElement:
    """(ad f)^n x, of ad-weight 0, for x homogeneous of ad-weight 2n >= 0.

    The pipeline does not call this: p1 and p2 are evaluations (see the
    module docstring).  It is the reference the tests project, mod U(g)n_+,
    to check those evaluations.  The transpose turns ad f into -ad e, so
    (ad e)^n x^T = (-1)^n ((ad f)^n x)^T."""
    w = x.ad_weight()
    if w is None or w < 0:
        raise InvalidInputError("descend_to_weight_zero requires a homogeneous weight >= 0")
    for _ in range(w // 2):
        x = fin_ad("f", x)
        if x.is_zero():
            raise ConsistencyError("adjoint descent hit zero before weight 0")
    return x


def _reading(name: str, acc: list, den: int) -> HPoly:
    """The readers' one closing: acc / den as an HPoly, refused when zero."""
    poly = from_integral(HPoly, dict(enumerate(acc)), den)
    if poly.is_zero():
        raise ConsistencyError(f"{name} projected to the zero polynomial")
    return poly


def compute_p2(x: FinElement, N: int) -> HPoly:
    """Classifying polynomial p2 of x = Q (defined up to a nonzero constant):
    (ad e)^N x^T projected mod U(g)n_-, i.e. its scalar on a lowest weight
    vector w, which is (-1)^N x^T e^N w.  Only the e^N h^b terms of x reach w,
    and f^N e^N w = prod_{m=1..N} (-m(h+m-1)) w, so
    p2(h) = prod_{m=1..N} m(h+m-1) * sum_b x_{N,b,0} h^b.
    """
    ints, den = x.integral()
    acc = pbw_groups(ints).get((N, 0), [])
    for m in range(1, N + 1):
        acc = poly_mul(acc, [m * (m - 1), m])
    return _reading("p2", acc, den)


def mff_p2(lv: AdmissibleLevel, max_dim=DEFAULT_MAX_WEIGHT_DIM) -> HPoly:
    """p2 by the mff route: f^N * epsilon projected mod U(g)n_-, its scalar on
    a lowest weight vector w.  Only the e^N P(h) group of epsilon reaches w,
    so compute_p2's reading of epsilon (mff_epsilon, which checks its size
    against the cap), times the sign (-1)^N of f^N e^N on w, gives it."""
    p2 = compute_p2(mff_epsilon(lv, max_dim), lv.N)
    return -p2 if lv.N % 2 else p2


def compute_p1(Q: FinElement, N: int) -> HPoly:
    """Classifying polynomial p1: (ad f)^N Q projected mod U(g)n_+, i.e. its
    scalar on a highest weight vector v, which is (-1)^N Q f^N v.  Q has
    ad-weight 2N, so a = c + N in every term and e^a h^b f^(c+N) v =
    (h-2a)^b prod_{i=1..a} i(h-i+1) v, giving
    p1(h) = (-1)^N sum q_abc (h-2a)^b prod_{i=1..a} i(h-i+1),
    one group e^a P(h) f^(a-N) of Q at a time, with P(h-2a) its shift.
    """
    ints, den = Q.integral()
    groups = pbw_groups(ints)
    acc, ea_fa = [], [1]  # e^a f^a v = ea_fa(h) v
    for a in range(max((a for a, _ in groups), default=-1) + 1):
        if a:
            ea_fa = poly_mul(ea_fa, [a * (1 - a), a])
        if (a, a - N) in groups:
            acc = poly_add(acc, poly_mul(poly_shift(groups[a, a - N], -2 * a), ea_fa))
    return _reading("p1", acc, den * (-1) ** N)  # the sign of p1 rides on the denominator


def simple_roots(poly: HPoly, expected) -> tuple[dict, bool]:
    """Root-set verdict: the roots of poly among `expected`, with multiplicity,
    and whether they are exactly the distinct values of `expected`, each simple,
    leaving a constant cofactor."""
    roots, cofactor = poly_root_check(poly, expected)
    ok = (
        cofactor.degree == 0
        and len(roots) == len(set(expected))
        and all(mult == 1 for mult in roots.values())
    )
    return roots, ok


class CheckResult(namedtuple("CheckResult", "name passed detail", defaults=("",))):
    """One named invariant's verdict, with an optional witness."""

    __slots__ = ()


class ClassificationReport(
    namedtuple("ClassificationReport", "level S Pk p2 p1 p2_mff singular_vector Q")
):
    """Everything the pipeline produces for one admissible level."""

    __slots__ = ()

    @property
    def p2_route_constant(self):
        """c with p2 == c * p2_mff, or None when the two p2 routes disagree."""
        return poly_proportional(self.p2, self.p2_mff)

    def to_dict(self) -> dict:
        return {
            "level": self.level.to_dict(),
            "S": [format_scalar(r) for r in self.S],
            "Pk": [w.to_dict() for w in self.Pk],
            "p1": self.p1.to_text(),
            "p2": self.p2.to_text(),
            "p2_mff": self.p2_mff.to_text(),
            "p2_route_constant": format_scalar(self.p2_route_constant),
            "singular_vector": self.singular_vector.to_text(),
            "Q": {"order": "e_first", "text": self.Q.to_text()},
        }


def _spans_adjoint_module(Q: FinElement, N: int) -> bool:
    """Q spans a copy of V(2N) under the adjoint action (N >= 1): Q is
    homogeneous of ad-weight 2N and (ad e)Q = 0.

    A homogeneous highest weight vector of weight 2N spans V(2N), since
    U(sl2) is locally finite under ad (Humphreys, Introduction to Lie
    Algebras and Representation Theory, sections 7.2 and 26).  N >= 1, so
    Q = 0, of weight 0, fails.
    """
    return Q.ad_weight() == 2 * N and fin_ad("e", Q).is_zero()


# Post-hoc invariants of a ClassificationReport, in the order the pipeline
# checks them: (name, predicate, what is wrong when the predicate is false).
# None is implied by the others; in particular deg p2 = |S| and
# p1(s) = 0 = p2(-s) for s in S follow from S-size and the two root checks.
# Checks that must pass before a value can exist (S-distinct,
# kernel-dimension, singular-annihilation, nonzero projections)
# run where that value is computed instead.
INVARIANTS = (
    (
        "S-size",
        lambda r: len(r.S) == len(set(r.S)) == (r.level.l + 1) * r.level.N,
        "S is not (l+1)N distinct values",
    ),
    (
        "Pk-h-values",
        lambda r: {w.h_value for w in r.Pk} == set(r.S),
        "h-values of P^k differ from S",
    ),
    (
        "Pk-level",
        lambda r: all(w.level_value == r.level.k for w in r.Pk),
        "weight has wrong level",
    ),
    (
        "adjoint-module",
        lambda r: _spans_adjoint_module(r.Q, r.level.N),
        "need Q homogeneous of ad-weight 2N with (ad e)Q = 0",
    ),
    (
        "p2-route-agreement",
        lambda r: r.p2_route_constant is not None,
        "routes not proportional",
    ),
    (
        "p2-roots",
        lambda r: simple_roots(r.p2, [-s for s in r.S])[1],
        "root multiset is not {-r : r in S}",
    ),
    ("p1-roots", lambda r: simple_roots(r.p1, r.S)[1], "root multiset is not S"),
)


def check_report(report: ClassificationReport):
    """Run INVARIANTS in order, yielding one CheckResult each."""
    for name, holds, failure in INVARIANTS:
        ok = holds(report)
        yield CheckResult(name, ok, "" if ok else f"invariant {name}: {failure}")


def build_report(lv: AdmissibleLevel, max_dim=DEFAULT_MAX_WEIGHT_DIM) -> ClassificationReport:
    """Compute every pipeline value for one level, before the post-hoc invariants."""
    v, Q = singular_vector_nullspace(lv, max_dim), compute_Q(lv, max_dim)
    # the mff route before S and P^k, which grow with the level: they wait
    # until both caps have passed
    p2_mff = mff_p2(lv, max_dim)
    return ClassificationReport(
        level=lv,
        S=set_S(lv),
        Pk=enumerate_Pk(lv),
        singular_vector=v,
        Q=Q,
        p2_mff=p2_mff,
        p2=compute_p2(Q, lv.N),
        p1=compute_p1(Q, lv.N),
    )


def classify_category_O(
    lv: AdmissibleLevel, max_dim=DEFAULT_MAX_WEIGHT_DIM
) -> ClassificationReport:
    """Run the full pipeline; raise ConsistencyError on the first failed invariant."""
    report = build_report(lv, max_dim)
    for result in check_report(report):
        if not result.passed:
            raise ConsistencyError(result.detail)
    return report
