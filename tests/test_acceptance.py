"""Acceptance criteria A1-A9.

Every check is exact (no tolerances anywhere); the stated runtime bounds are
asserted with a cold per-level cache.  Run with `pytest tests/test_acceptance.py -v -s`
to see one line per criterion.  The heaviest levels are marked `slow` and run
with `pytest -m slow`.
"""

import json
import random
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from admz import affine, zhu
from admz.affine import VermaVector, act_mode, mode, operator_matrix, weight_space_basis
from admz.cli import main
from admz.exact_core import poly_proportional, poly_root_check
from admz.nullspace import RationalMatrix, kernel_basis
from admz.usl2 import E_ORDER, FinElement, fin_ad, fin_product
from admz.verify import suite_algebra, suite_lemmas
from admz.weight_modules import DenseParams, act_element_on_E, is_T_member, q_annihilates_E
from admz.zhu import (
    MFF_ROUTE,
    NULLSPACE_ROUTE,
    admissible_params,
    compute_p2,
    compute_Q,
    level_from_string,
    set_S,
    singular_vector_nullspace,
)

F = Fraction

A1_LEVELS = ("1", "2", "3")
A3_LEVELS = ("1/2", "-4/3", "-2/3")
ALL_LEVELS = A1_LEVELS + ("-1/2",) + A3_LEVELS
# 544x362 and 588x381 systems; each is classified cold within COLD_CLASSIFY_S
LADDER_LEVELS = ("-1/3", "5/2")
CERTIFIED_LEVELS = ALL_LEVELS + LADDER_LEVELS
COLD_CLASSIFY_S = 10.0


def _cold_caches():
    zhu._SOLVED.clear()
    affine.vacuum_module.cache_clear()


@contextmanager
def criterion(name):
    t0 = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"[acceptance] {name}: FAIL ({time.monotonic() - t0:.2f}s)")
        raise
    print(f"[acceptance] {name}: PASS ({time.monotonic() - t0:.2f}s)")


def test_A1_integer_levels():
    with criterion("A1 integer levels k=1,2,3"):
        _cold_caches()
        t0 = time.monotonic()
        for text in A1_LEVELS:
            k = int(text)
            lv = admissible_params(k, 1)
            v = singular_vector_nullspace(lv)
            expected = VermaVector(lv.k, {tuple([mode("e", -1)] * (k + 1)): F(1)})
            assert v == expected
            assert compute_Q(lv) == FinElement.monomial(E_ORDER, (k + 1, 0, 0))
            assert set(set_S(lv)) == {F(r) for r in range(k + 1)}
        assert time.monotonic() - t0 < 5.0


def test_A2_level_minus_half():
    with criterion("A2 k=-1/2 kernel and p2 roots"):
        _cold_caches()
        t0 = time.monotonic()
        lv = level_from_string("-1/2")
        b0 = weight_space_basis(lv.k, 4, 2)
        be = weight_space_basis(lv.k, 4, 3)
        bf = weight_space_basis(lv.k, 3, 1)
        stacked = RationalMatrix.vstack(
            operator_matrix(mode("e", 0), b0, be, lv.k),
            operator_matrix(mode("f", 1), b0, bf, lv.k),
        )
        assert len(kernel_basis(stacked)) == 1
        S = set_S(lv)
        assert S == [F(1), F(0), F(-1, 2), F(-3, 2)]
        p2 = compute_p2(lv, NULLSPACE_ROUTE)
        roots, cofactor = poly_root_check(p2, [-r for r in S])
        assert roots == {F(-1): 1, F(0): 1, F(1, 2): 1, F(3, 2): 1}
        assert cofactor.degree == 0
        assert time.monotonic() - t0 < 5.0


def test_A3_fractional_levels():
    for text in A3_LEVELS:
        with criterion(f"A3 pipeline at k={text}"):
            _cold_caches()
            t0 = time.monotonic()
            lv = level_from_string(text)
            S = set_S(lv)
            assert len(S) == (lv.l + 1) * lv.N
            assert len(set(S)) == len(S)
            assert {w.h_value for w in zhu.enumerate_Pk(lv)} == set(S)
            p2 = compute_p2(lv, NULLSPACE_ROUTE)
            roots, cofactor = poly_root_check(p2, [-r for r in S])
            assert cofactor.degree == 0
            assert all(mult == 1 for mult in roots.values())
            assert len(roots) == len(S)
            assert time.monotonic() - t0 < 60.0


def check_singular(lv):
    v = singular_vector_nullspace(lv)
    assert act_mode(mode("e", 0), v).is_zero(), lv
    assert act_mode(mode("f", 1), v).is_zero(), lv


def check_route_agreement(lv):
    c = poly_proportional(compute_p2(lv, NULLSPACE_ROUTE), compute_p2(lv, MFF_ROUTE))
    assert c is not None and c != 0, lv


def check_adjoint_structure(lv):
    Q = compute_Q(lv)
    assert fin_ad("e", Q).is_zero(), lv
    assert fin_ad("h", Q) == Q * (2 * lv.N), lv
    x = Q
    for _ in range(2 * lv.N):
        x = fin_ad("f", x)
    assert not x.is_zero(), lv
    assert fin_ad("f", x).is_zero(), lv


def test_A4_singular_certificates():
    with criterion("A4 singular-vector certificates"):
        _cold_caches()
        for text in LADDER_LEVELS:
            t0 = time.monotonic()
            zhu.classify_category_O(level_from_string(text))
            assert time.monotonic() - t0 < COLD_CLASSIFY_S, text
        for text in CERTIFIED_LEVELS:
            check_singular(level_from_string(text))


def test_A5_cross_route_oracle():
    with criterion("A5 p2 route agreement"):
        for text in CERTIFIED_LEVELS:
            check_route_agreement(level_from_string(text))


def test_A6_dense_biconditional():
    with criterion("A6 dense-module biconditional grid"):
        t0 = time.monotonic()
        for text in ("-1/2", "-4/3"):
            lv = level_from_string(text)
            rs = set_S(lv) + [F(17, 5), F(2)]
            mus = [F(1, 3), F(1, 4), F(5, 7)]
            for r in rs:
                for mu in mus:
                    if mu.denominator == 1 or (r - mu).denominator == 1:
                        continue
                    p = DenseParams(r=r, mu=mu)
                    assert q_annihilates_E(lv, p) == is_T_member(lv, p), (text, r, mu)
        assert time.monotonic() - t0 < 5.0


def test_A7_adjoint_module_structure():
    with criterion("A7 adjoint module structure of Q"):
        for text in CERTIFIED_LEVELS:
            check_adjoint_structure(level_from_string(text))


@pytest.mark.slow
@pytest.mark.parametrize("text", ["7/2", "1/3"])
def test_heavy_level_classify(capsys, text):
    """`admz classify` at a 1161- or 3183-column system, then A4/A5/A7."""
    with criterion(f"classify k={text} with A4/A5/A7 certificates"):
        _cold_caches()
        with pytest.raises(SystemExit) as exc:
            main(["classify", "--level", text, "--format", "json"])
        assert exc.value.code == 0
        lv = level_from_string(text)
        data = json.loads(capsys.readouterr().out)
        assert len(data["S"]) == len(set_S(lv))
        check_singular(lv)
        check_route_agreement(lv)
        check_adjoint_structure(lv)


def test_A8_axiom_suites():
    with criterion("A8 algebraic axiom suites"):
        t0 = time.monotonic()
        algebra = suite_algebra(samples=120)
        assert len(algebra) >= 6
        for res in algebra:
            assert res.passed, res
        lemmas = suite_lemmas(max_n=6)
        for res in lemmas:
            assert res.passed, res
        assert time.monotonic() - t0 < 30.0


def test_A9_casimir_constancy():
    with criterion("A9 Casimir constancy on E(r,mu)"):
        e = FinElement.generator("e", E_ORDER)
        f = FinElement.generator("f", E_ORDER)
        h = FinElement.generator("h", E_ORDER)
        cas = fin_product(e, f) + fin_product(f, e) + fin_product(h, h) * F(1, 2)
        rng = random.Random(2718)
        for _ in range(20):
            r = F(rng.randint(-12, 12), rng.randint(1, 6))
            mu = F(rng.randint(-12, 12), rng.randint(1, 6))
            params = DenseParams(r=r, mu=mu)
            expected = r * r / 2 + r
            for i in range(-5, 6):
                res = act_element_on_E(cas, params, i)
                assert res.shift == 0
                assert res.coefficient == expected
