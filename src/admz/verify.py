"""Executable invariant suites: algebra axioms, straightening lemmas, and
per-level classification cross-checks.

Each suite returns a list of CheckResult rows; the CLI prints them and turns
any failure into exit code 1.  The suites use fixed seeds so runs are
reproducible.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import factorial

from . import affine
from .affine import act_mode, bracket_modes, mode, weight_space_basis
from .errors import AdmzError
from .exact_core import HPoly
from .usl2 import (
    FinElement,
    fin_ad,
    fin_product,
    monomial_weight,
    project_cartan,
    verify_pomoc_identity,
)
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


def suite_algebra(samples: int = 120, seed: int = DEFAULT_SEED) -> list[CheckResult]:
    rng = random.Random(seed)
    results = []

    # Jacobi identity on all affine mode triples with |degree| <= 3
    modes = [mode(g, d) for g in ("e", "h", "f") for d in range(-3, 4)]

    def bracket_combo(x, combo):
        # combo: (dict mode->coeff, scalar); returns [x, combo]
        out_modes: dict = {}
        scalar = Fraction(0)
        for y, cy in combo[0].items():
            ms, cen = bracket_modes(x, y)
            for bm, bc in ms:
                out_modes[bm] = out_modes.get(bm, Fraction(0)) + cy * bc
            scalar += cy * cen
        return out_modes, scalar

    ok = True
    witness = ""
    for x in modes:
        for y in modes:
            for z in modes:
                total_modes: dict = {}
                total_scalar = Fraction(0)
                for a, b, c in ((x, y, z), (y, z, x), (z, x, y)):
                    ms, cen = bracket_modes(b, c)
                    inner = ({m: co for m, co in ms}, cen)
                    outer_modes, outer_scalar = bracket_combo(a, inner)
                    for m, co in outer_modes.items():
                        total_modes[m] = total_modes.get(m, Fraction(0)) + co
                    total_scalar += outer_scalar
                if any(total_modes.values()) or total_scalar:
                    ok = False
                    witness = f"{x},{y},{z}"
                    break
            if not ok:
                break
        if not ok:
            break
    results.append(CheckResult("affine-jacobi", ok, witness))

    # module axiom on small weight spaces: x(y v) - y(x v) = [x,y] v
    level = Fraction(7, 3)  # arbitrary nonzero level; the axiom must hold at any
    vectors = []
    for d, w in ((1, 0), (2, 1), (2, 0), (3, -1), (3, 1)):
        for mono in weight_space_basis(d, w):
            vectors.append(affine.VermaVector(level, {mono: Fraction(1)}))
    sample_modes = [mode(g, d) for g in ("e", "h", "f") for d in (-2, -1, 0, 1, 2)]
    ok = True
    witness = ""
    for _ in range(samples):
        x = rng.choice(sample_modes)
        y = rng.choice(sample_modes)
        v = rng.choice(vectors)
        lhs = act_mode(x, act_mode(y, v)) - act_mode(y, act_mode(x, v))
        ms, cen = bracket_modes(x, y)
        rhs = v * (cen * level)
        for bm, bc in ms:
            rhs = rhs + act_mode(bm, v) * bc
        if lhs != rhs:
            ok = False
            witness = f"x={x}, y={y}, v={v.to_text()}"
            break
    results.append(CheckResult("affine-module-axiom", ok, witness))

    # grading: act maps W(d,w) into W(d-n, w+charge); h(0) acts by 2w
    ok = True
    witness = ""
    for d, w in ((2, 0), (3, 1), (4, 2)):
        basis = weight_space_basis(d, w)
        for mono in basis:
            v = affine.VermaVector(level, {mono: Fraction(1)})
            for md in sample_modes:
                img = act_mode(md, v)
                grade = img.homogeneous_weight()
                expected = (d - affine.mode_degree(md), w + affine.mode_charge(md))
                if not img.is_zero() and grade != expected:
                    ok = False
                    witness = f"{md} on {mono}"
            hv = act_mode(mode("h", 0), v)
            if hv != v * (2 * w):
                ok = False
                witness = f"h(0) on {mono}"
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


def fn_en_projection(N: int) -> HPoly:
    """f^N e^N projected mod U(g)n_-."""
    f_n = FinElement.monomial((0, 0, N))
    e_n = FinElement.monomial((N, 0, 0))
    return project_cartan(fin_product(f_n, e_n))


def suite_lemmas(max_n: int = 5, s_values=POMOC_S_VALUES) -> list[CheckResult]:
    results = []
    ok = True
    witness = ""
    for N in range(1, max_n + 1):
        for s in s_values:
            if not verify_pomoc_identity(N, s):
                ok = False
                witness = f"N={N}, s={s}"
    results.append(CheckResult("pomoc-transport-identity", ok, witness))

    ok = True
    witness = ""
    for N in range(1, min(max_n, 5) + 1):
        expected = HPoly.from_roots([-j for j in range(N)]) * Fraction(
            (-1) ** N * factorial(N)
        )
        if fn_en_projection(N) != expected:
            ok = False
            witness = f"N={N}"
    results.append(CheckResult("fNeN-projection-shape", ok, witness))
    return results


def suite_classification(levels, max_dim=None) -> list[CheckResult]:
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
