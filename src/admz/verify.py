"""Executable invariant suites: straightening lemmas and per-level
classification cross-checks.

Each suite returns a list of CheckResult rows; the CLI prints them and turns
any failure into exit code 1.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from . import affine
from .errors import AdmzError
from .exact_core import HPoly
from .usl2 import FinElement, fin_product, pomoc_sides, project_cartan
from .zhu import CheckResult, build_report, check_report, level_from_string

POMOC_S_VALUES = (
    Fraction(1),
    Fraction(2),
    Fraction(5),
    Fraction(1, 2),
    Fraction(3, 2),
    Fraction(5, 2),
    Fraction(-1, 2),
    Fraction(7, 3),
    Fraction(-4, 3),
    Fraction(11, 4),
)


def suite_lemmas(max_n: int = 5) -> list[CheckResult]:
    """For N = 1..max_n: the f^N transport identity f^N p_s = p_(s-N) f^N for
    every s in POMOC_S_VALUES, and the shape of f^N e^N projected mod U(g)n_-,
    (-1)^N N! h(h+1)...(h+N-1)."""
    results = []
    ok = True
    witness = ""
    for N in range(1, max_n + 1):
        for s in POMOC_S_VALUES:
            lhs, rhs = pomoc_sides(N, s)
            if lhs != rhs:
                ok = False
                witness = f"N={N}, s={s}"
    results.append(CheckResult("pomoc-transport-identity", ok, witness))

    ok = True
    witness = ""
    for N in range(1, max_n + 1):
        expected = HPoly.from_roots([-j for j in range(N)]) * Fraction(
            (-1) ** N * factorial(N)
        )
        f_n, e_n = FinElement.monomial((0, 0, N)), FinElement.monomial((N, 0, 0))
        if project_cartan(fin_product(f_n, e_n)) != expected:
            ok = False
            witness = f"N={N}"
    results.append(CheckResult("fNeN-projection-shape", ok, witness))
    return results


def suite_classification(levels, max_dim=affine.DEFAULT_MAX_WEIGHT_DIM) -> list[CheckResult]:
    """One row per level: every pipeline invariant, failures named in the detail."""
    results = []
    for text in levels:
        name = f"classification[{text}]"
        try:
            report = build_report(level_from_string(text), max_dim)
            failed = [r.detail for r in check_report(report) if not r.passed]
        except AdmzError as exc:
            results.append(CheckResult(name, False, str(exc)))
            continue
        if failed:
            results.append(CheckResult(name, False, "; ".join(failed)))
        else:
            results.append(
                CheckResult(name, True, f"routes agree up to {report.p2_route_constant}")
            )
    return results
