"""Dense weight modules E(r,mu), the annihilation test against Q, and the
three-family list of irreducible weight modules.

E(r,mu) is the span of basis vectors E_i (i integer) with the sl2 action

    e.E_i = -(mu+i) E_{i-1},   h.E_i = (r - 2mu - 2i) E_i,
    f.E_i = (mu+i-r) E_{i+1}.

An element is read in its grouped form sum e^a P(h) f^c (usl2.pbw_groups),
and each group acts in closed form: with x = mu+i and y = x+c, f^c takes E_i
to prod_{j<c} (x+j-r) E_{i+c}, P(h) scales that by P(r-2y) and e^a takes it
to prod_{j<a} (j-y) E_{i+c-a}, so

    e^a P(h) f^c . E_i = prod_{j<c} (x+j-r) * P(r-2y) * prod_{j<a} (j-y) E_{i+c-a}.

The two products are computed as one integer.  With L the lcm of the
denominators of r and mu, write r = R/L, mu = M/L, x = X/L with X = M + i*L
and y = Y/L with Y = X + c*L; then

    prod_{j<c} (x+j-r) * prod_{j<a} (j-y)
        = prod_{j<c} (X + j*L - R) * prod_{j<a} (j*L - Y) / L^(a+c),

and the point (R, M, L) is read once per (r, mu), so a walk over indices
makes no Fraction per linear factor.  P(r-2y) = P((R-2Y)/L) goes through
exact_core.poly_eval, the one polynomial evaluator.

An element of U(sl2) of ad-weight 2w sends E_i to a multiple of E_{i-w}.
The ad-weight 2N of Q does not bound the degree of its coefficient in mu+i:
a group e^(N+c) h^b f^c alone has degree b+2c+N.  The shape of Q does.  It
is homogeneous of ad-weight 2N with (ad e)Q = 0 (the adjoint-module
invariant), so Q = e^N z with z central (Kostant), and z = z(Omega) for the
Casimir Omega = ef + fe + h^2/2 (Harish-Chandra).  Omega acts on E(r,mu) as
the scalar r(r+2)/2, so

    Q.E_i = z(r(r+2)/2) * prod_{j<N} (j-mu-i) E_{i-N},

of degree N in mu+i, and vanishing at N+1 consecutive indices proves
vanishing everywhere.

classify_weight_modules is the one builder of the families: highest weight
V(r*omega) and lowest weight V(r*omega)* for r in S, and dense E(r,mu),
whose r and mu it samples both ways, by T-membership and by Q-annihilation.
It reads Q off the finished report, so it neither solves nor checks a cap.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import lcm

from .affine import DEFAULT_MAX_WEIGHT_DIM
from .errors import ConsistencyError
from .exact_core import format_scalar, poly_eval
from .usl2 import FinElement, pbw_groups
from .zhu import AdmissibleLevel, ClassificationReport, compute_Q


class DenseParams(namedtuple("DenseParams", "r mu")):
    """The pair (r, mu) labelling E(r,mu)."""

    __slots__ = ()

    @property
    def is_irreducible(self) -> bool:
        """Irreducibility of E(r,mu) as a plain sl2-module: mu, r-mu not in Z."""
        return self.mu.denominator != 1 and (self.r - self.mu).denominator != 1


def is_nonneg_int(r: Fraction) -> bool:
    """Whether r is in Z+, which the dense family's r must avoid."""
    return r.denominator == 1 and r.numerator >= 0


def _point(params: DenseParams) -> tuple[int, int, int]:
    """(R, M, L) with L the lcm of the denominators of r and mu, r = R/L and mu = M/L."""
    r, mu = params
    L = lcm(r.denominator, mu.denominator)
    return r.numerator * (L // r.denominator), mu.numerator * (L // mu.denominator), L


def _act_groups(groups: dict, point: tuple[int, int, int], i: int) -> Fraction:
    """The coefficient of sum e^a P(h) f^c . E_i in E(R/L, M/L)."""
    R, M, L = point
    X = M + i * L
    total = Fraction(0)
    for (a, c), P in groups.items():
        Y = X + c * L
        factors = 1
        for j in range(c):
            factors *= X + j * L - R
        for j in range(a):
            factors *= j * L - Y
        total += poly_eval(P, Fraction(R - 2 * Y, L)) * Fraction(factors, L ** (a + c))
    return total


def q_annihilates_E(
    lv: AdmissibleLevel, params: DenseParams, max_dim=DEFAULT_MAX_WEIGHT_DIM
) -> bool:
    """Whether Q kills every E_i."""
    return _annihilates(pbw_groups(compute_Q(lv, max_dim).terms), lv.N, _point(params))


def q_action_profile(
    Q: FinElement, N: int, params: DenseParams
) -> tuple[list[Fraction], bool]:
    """The coefficients c_i of Q.E_i = c_i E_{i-N} for i = 0..N, and whether
    Q kills E(r,mu), from one grouping of Q and one point (r, mu)."""
    groups, point = pbw_groups(Q.terms), _point(params)
    return [_act_groups(groups, point, i) for i in range(N + 1)], _annihilates(groups, N, point)


def _annihilates(groups: dict, N: int, point: tuple[int, int, int]) -> bool:
    """Whether Q, grouped once, kills every E_i: checks i = 0..N (enough, by
    the degree bound) plus two out-of-range spot checks at i = -1 and i = N+1."""
    indices = list(range(N + 1)) + [-1, N + 1]
    return all(_act_groups(groups, point, i) == 0 for i in indices)


def is_T_member(params: DenseParams, S) -> bool:
    """(r,mu) in T: E(r,mu) irreducible and r in S minus Z+, S the level's zhu.set_S."""
    return params.is_irreducible and not is_nonneg_int(params.r) and params.r in S


def classify_weight_modules(report: ClassificationReport) -> list[dict]:
    """The three weight-module families of a report's level, with their
    parameter conditions: V(r*omega) and V(r*omega)* for r in S, and the
    dense E(r,mu), whose family carries verified samples.

    Each irreducible (r, mu) with r in report.S and mu in {1/3, 1/4} is
    tested both ways, by T-membership and by Q-annihilation of E(r,mu), on
    report.Q grouped once; the first sample where the two disagree raises
    ConsistencyError.
    """
    lv = report.level
    groups = pbw_groups(report.Q.terms)
    samples = []
    for r in report.S:
        for mu in (Fraction(1, 3), Fraction(1, 4)):
            params = DenseParams(r=r, mu=mu)
            if not params.is_irreducible:
                continue
            member = is_T_member(params, report.S)
            annihilates = _annihilates(groups, lv.N, _point(params))
            if member != annihilates:
                raise ConsistencyError(
                    f"dense sample r={format_scalar(r)}, mu={format_scalar(mu)}: "
                    f"T-membership ({member}) and Q-annihilation ({annihilates}) disagree"
                )
            samples.append(
                {
                    "r": format_scalar(r),
                    "mu": format_scalar(mu),
                    "in_T": member,
                    "q_annihilates": annihilates,
                    "agrees": True,
                }
            )
    s_text = [format_scalar(r) for r in report.S]
    return [
        {
            "family": "highest_weight",
            "modules": "V(r*omega)",
            "condition": "r in S",
            "r_values": s_text,
        },
        {
            "family": "lowest_weight",
            "modules": "V(r*omega)*",
            "condition": "r in S",
            "r_values": s_text,
        },
        {
            "family": "dense",
            "modules": "E(r,mu)",
            "condition": "r in S minus Z+, mu not in Z, r - mu not in Z",
            "r_values": [format_scalar(r) for r in report.S if not is_nonneg_int(r)],
            "verified_samples": samples,
        },
    ]
