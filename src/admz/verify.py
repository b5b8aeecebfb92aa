"""Executable invariant suites: algebra axioms, straightening lemmas, and
per-level classification cross-checks.

Each suite returns a list of CheckResult rows; the CLI prints them and turns
any failure into exit code 1.  The suites use fixed seeds so runs are
reproducible.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from math import factorial

from . import affine
from .affine import VacuumModule, bracket_modes, mode, mode_to_text
from .errors import AdmzError
from .exact_core import HPoly
from .usl2 import FinElement, fin_ad, fin_product, monomial_weight, pomoc_sides, project_cartan
from .zhu import CheckResult, build_report, check_report, level_from_string

DEFAULT_SEED = 20230817

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


def _random_fin(rng: random.Random, max_terms=4, max_exp=3) -> FinElement:
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        mono = (rng.randint(0, max_exp), rng.randint(0, max_exp), rng.randint(0, max_exp))
        coeff = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        terms[mono] = terms.get(mono, Fraction(0)) + coeff
    return FinElement(terms)


def jacobi_defect(x, y, z) -> bool:
    """Whether [x,[y,z]] + [y,[z,x]] + [z,[x,y]] is nonzero for affine modes.
    The central part of an inner bracket is central, so only its modes are
    bracketed again."""
    total_modes: dict = {}
    total_scalar = 0
    for a, b, c in ((x, y, z), (y, z, x), (z, x, y)):
        for m, cm in bracket_modes(b, c)[0]:
            ms, cen = bracket_modes(a, m)
            for om, co in ms:
                total_modes[om] = total_modes.get(om, 0) + cm * co
            total_scalar += cm * cen
    return any(total_modes.values()) or total_scalar != 0


def suite_algebra(samples: int = 120) -> list[CheckResult]:
    rng = random.Random(DEFAULT_SEED)
    level = Fraction(7, 3)  # arbitrary nonzero level; the axioms must hold at any
    table = VacuumModule(level)
    results = []

    # Jacobi identity on all affine mode triples with |degree| <= 3
    modes = [mode(g, d) for g in ("e", "h", "f") for d in range(-3, 4)]
    failing = next((t for t in itertools.product(modes, repeat=3) if jacobi_defect(*t)), None)
    witness = ",".join(map(mode_to_text, failing)) if failing else ""
    results.append(CheckResult("affine-jacobi", failing is None, witness))

    # module axiom on small weight spaces: x(y v) - y(x v) = [x,y] v
    vectors = []
    for d, w in ((1, 0), (2, 1), (2, 0), (3, -1), (3, 1)):
        for mono in table.weight_space_basis(d, w):
            vectors.append(affine.VermaVector(level, {mono: Fraction(1)}))
    sample_modes = [mode(g, d) for g in ("e", "h", "f") for d in (-2, -1, 0, 1, 2)]
    ok = True
    witness = ""
    for _ in range(samples):
        x = rng.choice(sample_modes)
        y = rng.choice(sample_modes)
        v = rng.choice(vectors)
        lhs = table.act(x, table.act(y, v)) - table.act(y, table.act(x, v))
        ms, cen = bracket_modes(x, y)
        rhs = v * (cen * level)
        for bm, bc in ms:
            rhs = rhs + table.act(bm, v) * bc
        if lhs != rhs:
            ok = False
            witness = f"x={mode_to_text(x)}, y={mode_to_text(y)}, v={v.to_text()}"
            break
    results.append(CheckResult("affine-module-axiom", ok, witness))

    # grading: act maps W(d,w) into W(d-n, w+charge); h(0) acts by 2w
    ok = True
    witness = ""
    for d, w in ((2, 0), (3, 1), (4, 2)):
        basis = table.weight_space_basis(d, w)
        for mono in basis:
            v = affine.VermaVector(level, {mono: Fraction(1)})
            for md in sample_modes:
                img = table.act(md, v)
                grade = img.homogeneous_weight()
                expected = (d - affine.mode_degree(md), w + affine.mode_charge(md))
                if not img.is_zero() and grade != expected:
                    ok = False
                    witness = f"{mode_to_text(md)} on {affine.monomial_to_text(mono)}"
            hv = table.act(mode("h", 0), v)
            if hv != v * (2 * w):
                ok = False
                witness = f"h(0) on {affine.monomial_to_text(mono)}"
    results.append(CheckResult("affine-grading", ok, witness))

    # U(sl2): associativity, transpose, derivation, weight additivity
    ok_assoc = ok_transp = ok_deriv = ok_weight = True
    for _ in range(samples):
        x = _random_fin(rng)
        y = _random_fin(rng)
        z = _random_fin(rng)
        if fin_product(fin_product(x, y), z) != fin_product(x, fin_product(y, z)):
            ok_assoc = False
        if fin_product(x, y).transpose() != fin_product(y.transpose(), x.transpose()):
            ok_transp = False
        if x.transpose().transpose() != x:
            ok_transp = False
        g = rng.choice(("e", "h", "f"))
        lhs = fin_ad(g, fin_product(x, y))
        rhs = fin_product(fin_ad(g, x), y) + fin_product(x, fin_ad(g, y))
        if lhs != rhs:
            ok_deriv = False
        m1 = next(iter(x.terms)) if x.terms else (0, 0, 0)
        m2 = next(iter(y.terms)) if y.terms else (0, 0, 0)
        prod = fin_product(FinElement.monomial(m1), FinElement.monomial(m2))
        target = monomial_weight(m1) + monomial_weight(m2)
        if any(monomial_weight(m) != target for m in prod.terms):
            ok_weight = False
    results.append(CheckResult("usl2-associativity", ok_assoc))
    results.append(CheckResult("usl2-transpose-antiautomorphism", ok_transp))
    results.append(CheckResult("usl2-ad-derivation", ok_deriv))
    results.append(CheckResult("usl2-weight-additivity", ok_weight))
    return results


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
