"""The classification pipeline: parameters, S, P^k, singular vectors, Q, p1/p2."""

import gc
import os
import random
import subprocess
import sys
import weakref
from fractions import Fraction
from math import factorial, gcd

import pytest

from admz import usl2
from admz import zhu as zhu_mod
from admz.affine import VacuumModule, VermaVector, mode, mode_degree, mode_gen, operator_matrix
from admz.errors import ConsistencyError, InvalidInputError, NotAdmissibleError, ResourceCapError
from admz.exact_core import HPoly, poly_eval, poly_proportional, poly_root_check
from admz.nullspace import IntMatrix, kernel_basis
from admz.usl2 import (
    FinElement,
    fin_ad,
    fin_product,
    project_cartan,
)
from admz.weight_modules import classify_weight_modules
from admz.zhu import (
    ClassificationReport,
    admissible_params,
    classify_category_O,
    compute_p1,
    compute_p2,
    compute_Q,
    enumerate_Pk,
    level_from_string,
    mff_epsilon,
    mff_p2,
    set_S,
    singular_position,
    singular_vector_nullspace,
    zhu_image_F,
)
from oracles import (
    brute_weight_space,
    eval_mod_n_minus,
    eval_mod_n_plus,
    p2_by_product_and_projection,
    poly_root_check_by_fractions,
    project_mod_n_plus,
    table,
    transpose,
)

F = Fraction

# exact regression fixtures for k = -1/2, recorded after first computation and
# re-verified below by direct annihilation checks independent of the solver
V_SING_HALF = (
    "e(-3) e(-1) |0> - 1/3 h(-2) e(-1)^2 |0> - 71/156 e(-2)^2 |0> "
    "+ 11/39 e(-2) h(-1) e(-1) |0> - 4/39 f(-1) e(-1)^3 |0> - 1/39 h(-1)^2 e(-1)^2 |0>"
)
Q_HALF = "-4/39*e^3*f - 1/39*e^2*h^2 + 2/39*e^2*h - 1/52*e^2"


# -- parameters ---------------------------------------------------------------


def test_admissible_params_examples():
    lv = admissible_params(-1, 2)
    assert (lv.k, lv.t, lv.N, lv.l) == (F(-1, 2), F(3, 2), 2, 1)
    lv = admissible_params(1, 1)
    assert (lv.k, lv.t, lv.N, lv.l) == (F(1), F(3), 2, 0)
    with pytest.raises(NotAdmissibleError):
        admissible_params(-3, 2)
    with pytest.raises(InvalidInputError):
        admissible_params(2, 4)
    with pytest.raises(InvalidInputError):
        admissible_params(1, 0)


def test_level_from_string():
    assert level_from_string("-1/2").k == F(-1, 2)
    assert level_from_string("3").N == 4
    with pytest.raises(InvalidInputError):
        level_from_string("0.5")
    with pytest.raises(NotAdmissibleError):
        level_from_string("-3/2")


# -- S and P^k ------------------------------------------------------------------


def test_set_S_examples():
    assert set_S(level_from_string("-1/2")) == [F(1), F(0), F(-1, 2), F(-3, 2)]
    assert set_S(level_from_string("1")) == [F(1), F(0)]
    assert set_S(level_from_string("-4/3")) == [F(0), F(-2, 3), F(-4, 3)]


def test_set_S_size_and_distinct():
    for text in ("1", "2", "-1/2", "1/2", "-4/3", "-2/3", "3/4"):
        lv = level_from_string(text)
        S = set_S(lv)
        assert len(S) == (lv.l + 1) * lv.N
        assert len(set(S)) == len(S)


def test_enumerate_Pk_examples():
    lv = level_from_string("-1/2")
    Pk = enumerate_Pk(lv)
    assert len(Pk) == 4
    assert {w.h_value for w in Pk} == {F(0), F(1), F(-3, 2), F(-1, 2)}
    assert all(w.level_value == lv.k for w in Pk)

    lv = level_from_string("1")
    Pk = enumerate_Pk(lv)
    assert len(Pk) == 2 and {w.h_value for w in Pk} == {F(0), F(1)}


def test_Pk_h_values_equal_S():
    for text in ("1", "2", "-1/2", "1/2", "-4/3", "-2/3"):
        lv = level_from_string(text)
        assert {w.h_value for w in enumerate_Pk(lv)} == set(set_S(lv))


# -- singular vector ---------------------------------------------------------------


def test_singular_integer_levels():
    for k in (1, 2):
        lv = admissible_params(k, 1)
        v = singular_vector_nullspace(lv)
        expected = VermaVector(lv.k, {tuple([mode("e", -1)] * (k + 1)): F(1)})
        assert v == expected


def test_singular_stacked_kernel_is_one_dimensional():
    lv = admissible_params(1, 1)
    t = table(lv.k)
    b0 = t.weight_space_basis(2, 2)
    e, f = (operator_matrix(t, md, b0) for md in (mode("e", 0), mode("f", 1)))
    stacked = IntMatrix(len(b0), e.rows + f.rows)
    assert len(kernel_basis(stacked)) == 1


def test_singular_half_regression_and_certificate():
    lv = level_from_string("-1/2")
    v = singular_vector_nullspace(lv)
    assert v.to_text() == V_SING_HALF
    # certificate, independent of the linear solver
    assert table(lv.k).act(mode("e", 0), v).is_zero()
    assert table(lv.k).act(mode("f", 1), v).is_zero()


def test_singular_resource_cap():
    lv = level_from_string("-2/3")
    with pytest.raises(ResourceCapError):
        singular_vector_nullspace(lv, max_dim=7)


def test_level_solved_once_whatever_the_cap(monkeypatch):
    calls = []
    monkeypatch.setattr(zhu_mod, "_SOLVED", {})
    monkeypatch.setattr(zhu_mod, "kernel_basis", lambda m: calls.append(m) or kernel_basis(m))
    lv = level_from_string("-5/4")
    vs = [singular_vector_nullspace(lv, cap) for cap in (20000, 20000, 19999)]
    assert len(calls) == 1
    assert vs[0] == vs[1] == vs[2]


def test_cap_checked_after_the_level_is_solved(monkeypatch):
    monkeypatch.setattr(zhu_mod, "_SOLVED", {})
    lv = level_from_string("-2/3")
    with pytest.raises(ResourceCapError) as cold:
        singular_vector_nullspace(lv, max_dim=7)
    assert str(cold.value) == "weight space W(9,3) exceeds cap 7"
    singular_vector_nullspace(lv)
    with pytest.raises(ResourceCapError) as warm:
        singular_vector_nullspace(lv, max_dim=7)
    assert str(warm.value) == str(cold.value)
    with pytest.raises(ResourceCapError) as warm:
        compute_Q(lv, 7)
    assert str(warm.value) == str(cold.value)


def test_cold_solve_enumerates_only_the_singular_space(monkeypatch):
    calls = []
    monkeypatch.setattr(zhu_mod, "_SOLVED", {})
    real = VacuumModule.weight_space_basis
    monkeypatch.setattr(
        VacuumModule,
        "weight_space_basis",
        lambda self, *args: calls.append(args[:2]) or real(self, *args),
    )
    singular_vector_nullspace(level_from_string("-2/3"))
    assert calls == [(9, 3)]


def test_cold_solve_owns_one_table_and_drops_it(monkeypatch):
    # the solved record is the only state a solve leaves: each cold solve
    # straightens through a table of its own, empty at the start, that no
    # one holds once the solve returns
    tables = []
    real = VacuumModule.__init__

    def init(self, level):
        real(self, level)
        tables.append((weakref.ref(self), len(self._memo)))

    monkeypatch.setattr(VacuumModule, "__init__", init)
    monkeypatch.setattr(zhu_mod, "_SOLVED", {})
    for count, text in enumerate(("-1/3", "5/2"), 1):
        singular_vector_nullspace(level_from_string(text))
        assert len(tables) == count, text
    gc.collect()
    assert [size for _, size in tables] == [0, 0]
    assert [ref() for ref, _ in tables] == [None, None]


def test_target_spaces_are_no_larger_than_the_singular_space():
    # why the cap needs only W(qN, N): e(0) maps it to W(qN, N+1), a weight
    # space of the same finite-dimensional sl2-module, and f(1) to
    # W(qN-1, N-1), which e(-1) maps injectively back into W(qN, N)
    levels = [
        admissible_params(p, q)
        for q in range(1, 13)
        for p in range(2 - 2 * q, 13)
        if 1 <= 2 * q + p - 1 <= 12 // q and gcd(p, q) == 1
    ]
    assert len(levels) == 24
    for lv in levels:
        d, w = singular_position(lv)
        dim = len(brute_weight_space(d, w))
        assert len(brute_weight_space(d, w + 1)) <= dim, lv
        assert len(brute_weight_space(d - 1, w - 1)) <= dim, lv


# the peak resident set of a fresh process classifying k = 2/3 (a 13612x8464
# system with 177k nonzeros): about 93 MiB with one int per table value,
# 120 MiB with level-free (a, b) pairs, 134 MiB with modes as (degree, rank)
# pairs, 174 MiB with the system held three times
CLASSIFY_2_3_PEAK_MIB = 105
# and of k = -1/4 under a cap of 60000 (48788 columns, 1.61M nonzeros): about
# 550 MiB with one int per table value, 780 MiB with (a, b) pairs
CLASSIFY_1_4_PEAK_MIB = 600


def classify_peak_mib(text: str, max_dim: int) -> float:
    """The peak resident set (VmHWM) of a child process classifying a level,
    so that pytest's own memory does not count."""
    code = (
        "from admz.zhu import classify_category_O, level_from_string; "
        f"classify_category_O(level_from_string({text!r}), {max_dim}); "
        "print(next(l.split()[1] for l in open('/proc/self/status') if l.startswith('VmHWM:')))"
    )
    src = os.path.dirname(os.path.dirname(usl2.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=600, env=env, check=True
    )
    return int(proc.stdout) / 1024  # VmHWM is in kB


@pytest.mark.slow
@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="no /proc/self/status")
def test_classify_peak_memory_at_2_3():
    peak_mib = classify_peak_mib("2/3", 20000)
    assert peak_mib <= CLASSIFY_2_3_PEAK_MIB, f"peak RSS {peak_mib:.1f} MiB"


@pytest.mark.slow
@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="no /proc/self/status")
def test_classify_peak_memory_at_minus_1_4():
    peak_mib = classify_peak_mib("-1/4", 60000)
    assert peak_mib <= CLASSIFY_1_4_PEAK_MIB, f"peak RSS {peak_mib:.1f} MiB"


# -- Zhu image ---------------------------------------------------------------------


def test_zhu_image_examples():
    k = F(1)
    assert zhu_image_F(
        VermaVector(k, {(mode("e", -1), mode("e", -1)): F(1)})
    ) == FinElement.monomial((2, 0, 0))
    assert zhu_image_F(
        VermaVector(k, {(mode("h", -2),): F(1)})
    ) == -FinElement.monomial((0, 1, 0))
    # e(-2)f(-1)|0> carries (-1)^1 and reverses to -f*e = -ef + h
    got = zhu_image_F(VermaVector(k, {(mode("e", -2), mode("f", -1)): F(1)}))
    assert got == FinElement({(1, 0, 1): -1, (0, 1, 0): 1})


def _zhu_image_by_products(v):
    """Reference: one fin_product per generator of each reversed monomial."""
    out = FinElement({})
    for mono, coeff in v.terms.items():
        word = FinElement.monomial((0, 0, 0))
        for md in mono:
            word = fin_product(FinElement.generator(mode_gen(md)), word)
        out = out + word * (coeff * (-1) ** sum(-mode_degree(md) - 1 for md in mono))
    return out


def test_zhu_image_matches_per_generator_products():
    rng = random.Random(5)
    for _ in range(40):
        terms = {}
        for _ in range(rng.randint(1, 4)):
            mono = []
            for _ in range(rng.randint(0, 6)):
                degree = rng.randint(-3, -1)
                mono.append(mode(rng.choice("fhe"), degree))
            terms[tuple(sorted(mono))] = F(rng.randint(-5, 5), rng.randint(1, 4))
        v = VermaVector(F(rng.randint(-3, 3), rng.randint(1, 3)), terms)
        assert zhu_image_F(v) == _zhu_image_by_products(v)
    for text in ("1", "-1/2", "1/2", "-4/3", "-2/3", "-1/3", "5/2"):
        v = singular_vector_nullspace(level_from_string(text))
        assert zhu_image_F(v) == _zhu_image_by_products(v), text


def test_zhu_image_rejects_nonnegative_modes():
    with pytest.raises(InvalidInputError):
        zhu_image_F(VermaVector(F(1), {(mode("e", 0),): F(1)}))


def test_compute_Q_examples():
    assert compute_Q(admissible_params(1, 1)) == FinElement.monomial((2, 0, 0))
    assert compute_Q(admissible_params(2, 1)) == FinElement.monomial((3, 0, 0))
    lv = level_from_string("-1/2")
    Q = compute_Q(lv)
    assert Q.to_text() == Q_HALF
    assert Q.ad_weight() == 2 * lv.N


def test_adjoint_module_structure():
    for text in ("1", "-1/2", "-4/3"):
        lv = level_from_string(text)
        Q = compute_Q(lv)
        assert fin_ad("e", Q).is_zero()
        assert fin_ad("h", Q) == Q * (2 * lv.N)
        x = Q
        for _ in range(2 * lv.N):
            x = fin_ad("f", x)
        assert not x.is_zero()
        assert fin_ad("f", x).is_zero()
        # the descended zero-weight vector spans a line: it is a scalar multiple
        # of the one obtained from Q^T
        assert x.ad_weight() == -2 * lv.N


# -- MFF closed form ----------------------------------------------------------------


def _p_factor(s):
    s = F(s)
    return FinElement({(1, 0, 1): F(1), (0, 1, 0): s - 1, (0, 0, 0): -s * (s - 1)})


def test_mff_epsilon_examples():
    assert mff_epsilon(admissible_params(1, 1)) == FinElement.monomial((2, 0, 0))

    lv = level_from_string("-1/2")  # t = 3/2: factors at s = 5/2, 7/2
    expected = fin_product(
        _p_factor(F(5, 2)),
        fin_product(_p_factor(F(7, 2)), FinElement.monomial((2, 0, 0))),
    )
    assert mff_epsilon(lv) == expected

    lv = level_from_string("-4/3")  # t = 2/3: factors at s = 5/3, 7/3
    expected = fin_product(
        _p_factor(F(5, 3)),
        fin_product(_p_factor(F(7, 3)), FinElement.monomial((1, 0, 0))),
    )
    assert mff_epsilon(lv) == expected


def test_mff_terms_closed_form_counts_the_operands():
    # the closed form must equal the term count of the epsilon it prices
    for text in ("1", "2", "-1/2", "1/2", "-4/3", "-2/3", "3/2", "-5/4", "-1/3", "5/2"):
        lv = level_from_string(text)
        assert zhu_mod.mff_terms(lv) == len(mff_epsilon(lv).terms), text


def test_mff_factors_commute():
    a, b = _p_factor(F(5, 2)), _p_factor(F(7, 3))
    assert fin_product(a, b) == fin_product(b, a)


# -- classifying polynomials ----------------------------------------------------------


def test_p2_k1_both_routes():
    lv = admissible_params(1, 1)
    assert compute_p2(compute_Q(lv), lv.N) == HPoly([0, 2, 2])
    assert mff_p2(lv) == HPoly([0, 2, 2])
    roots, cof = poly_root_check(compute_p2(compute_Q(lv), lv.N), [F(0), F(-1)])
    assert roots == {F(0): 1, F(-1): 1} and cof.degree == 0


def test_p1_k1():
    lv = admissible_params(1, 1)
    p1 = compute_p1(compute_Q(lv), lv.N)
    assert p1 == HPoly([0, -2, 2])  # 2h(h-1), roots = S = {0, 1}
    roots, cof = poly_root_check(p1, set_S(lv))
    assert roots == {F(0): 1, F(1): 1} and cof.degree == 0


@pytest.mark.parametrize("N", [1, 2, 3, 4])
def test_readers_of_e_power_without_a_solve(N):
    # e^N alone: p2 = prod_{m=1..N} m(h+m-1), p1 = (-1)^N prod_{i=1..N} i(h-i+1)
    x = FinElement.monomial((N, 0, 0))
    assert compute_p2(x, N) == HPoly.from_roots([1 - m for m in range(1, N + 1)]) * factorial(N)
    p1 = HPoly.from_roots([i - 1 for i in range(1, N + 1)]) * ((-1) ** N * factorial(N))
    assert compute_p1(x, N) == p1
    if N == 2:  # level 1's Q is e^2
        assert (compute_p2(x, N), compute_p1(x, N)) == (HPoly([0, 2, 2]), HPoly([0, -2, 2]))


def test_readers_refuse_a_zero_projection():
    with pytest.raises(ConsistencyError, match="p1 projected to the zero polynomial"):
        compute_p1(FinElement(), 2)
    with pytest.raises(ConsistencyError, match="p2 projected to the zero polynomial"):
        compute_p2(FinElement(), 2)


@pytest.mark.parametrize("text", ["-4/3", "-2/3"])
def test_mff_p2_carries_the_sign_at_odd_N(text):
    lv = level_from_string(text)
    assert lv.N % 2 == 1
    assert mff_p2(lv) == -compute_p2(mff_epsilon(lv), lv.N)


@pytest.mark.parametrize(
    "text",
    ["1", "2", "3", "-1/2", "1/2", "-4/3", "-2/3", "-1/3", "5/2", "7"]
    + [pytest.param("30", marks=pytest.mark.slow)],
)
def test_mff_p2_is_the_product_projected(text):
    # reference: straighten f^N * epsilon, then keep its pure-h part
    lv = level_from_string(text)
    assert mff_p2(lv) == p2_by_product_and_projection(lv)


def test_routes_proportional_all_levels():
    for text in ("1", "2", "3", "-1/2", "1/2", "-4/3", "-2/3"):
        lv = level_from_string(text)
        c = poly_proportional(compute_p2(compute_Q(lv), lv.N), mff_p2(lv))
        assert c is not None and c != 0


@pytest.mark.parametrize(
    "text", ["1", "2", "3", "-1/2", "1/2", "-4/3", "-2/3", "-1/3", "5/2", "7"]
)
def test_nullspace_p2_is_the_descent_of_Q_transpose(text):
    # reference: descend Q^T by ad e on its own, then project mod U(g)n_-
    lv = level_from_string(text)
    x = transpose(compute_Q(lv))
    for _ in range(lv.N):
        x = fin_ad("e", x)
    assert compute_p2(compute_Q(lv), lv.N) == project_cartan(x)


@pytest.mark.parametrize(
    "text",
    ["1", "2", "3", "-1/2", "1/2", "-4/3", "-2/3", "-1/3", "5/2", "7"]
    + [pytest.param("30", marks=pytest.mark.slow)],
)
def test_p1_is_the_descent_of_Q_projected_mod_n_plus(text):
    # reference: descend Q by ad f on its own, then project mod U(g)n_+
    lv = level_from_string(text)
    x = compute_Q(lv)
    for _ in range(lv.N):
        x = fin_ad("f", x)
    assert zhu_mod.descend_to_weight_zero(compute_Q(lv)) == x
    assert compute_p1(compute_Q(lv), lv.N) == project_mod_n_plus(x)


@pytest.mark.parametrize(
    "text", ["1", "2", "3", "-1/2", "1/2", "-4/3", "-2/3", "-1/3", "5/2", "7", "30"]
)
def test_p1_p2_match_the_module_oracles(text):
    # a third check, sharing no code with the descent or the evaluation: the
    # unstraightened words of (ad f)^N Q and (ad e)^N Q^T act generator by
    # generator on a highest and a lowest weight module
    lv = level_from_string(text)
    Q = compute_Q(lv)
    p1, p2 = compute_p1(Q, lv.N), compute_p2(Q, lv.N)
    for mu in (F(0), F(1, 3), F(-7, 2), F(5), F(-11, 4)):
        assert p1(mu) == eval_mod_n_plus(Q, mu, ad_f=lv.N)
        assert p2(mu) == eval_mod_n_minus(transpose(Q), mu, ad_e=lv.N)


def test_pipeline_makes_no_adjoint_descent(monkeypatch):
    calls = []
    descend = zhu_mod.descend_to_weight_zero
    monkeypatch.setattr(zhu_mod, "_SOLVED", {})
    monkeypatch.setattr(zhu_mod, "descend_to_weight_zero", lambda x: calls.append(x) or descend(x))
    for text in ("-1/2", "2"):
        lv = level_from_string(text)
        Q = classify_category_O(lv).Q
        compute_p1(Q, lv.N)
        compute_p2(Q, lv.N)
        mff_p2(lv)
    assert calls == []


def test_pipeline_makes_no_cartan_projection(monkeypatch):
    def refuse(*args):
        raise AssertionError("project_cartan called")

    monkeypatch.setattr(zhu_mod, "_SOLVED", {})
    monkeypatch.setattr(zhu_mod, "project_cartan", refuse)
    monkeypatch.setattr(usl2, "project_cartan", refuse)
    for text in ("-1/2", "-1/3", "2"):
        classify_category_O(level_from_string(text))


def test_p1_p2_degree_and_mirror():
    for text in ("1", "-1/2", "-4/3", "1/2"):
        lv = level_from_string(text)
        S = set_S(lv)
        Q = compute_Q(lv)
        p1, p2 = compute_p1(Q, lv.N), compute_p2(Q, lv.N)
        assert p1.degree == (lv.l + 1) * lv.N == p2.degree
        for r in S:
            assert p1(r) == 0 and p2(-r) == 0


@pytest.mark.parametrize("text", ["-1/2", "-4/3", "5/2", "7", "25"])
def test_root_checks_and_evaluations_match_fractions(text):
    # S and -S together: each polynomial meets its roots and as many non-roots
    lv = level_from_string(text)
    S = set_S(lv)
    candidates = S + [-r for r in S]
    Q = compute_Q(lv)
    for p in (compute_p1(Q, lv.N), compute_p2(Q, lv.N), mff_p2(lv)):
        matched, cofactor = poly_root_check(p, candidates)
        expected, expected_cofactor = poly_root_check_by_fractions(p, candidates)
        assert list(matched.items()) == list(expected.items())
        assert cofactor == expected_cofactor
        for r in candidates:
            assert p(r) == poly_eval(p.coeffs, r)


# -- full report ------------------------------------------------------------------------


def test_classification_report():
    lv = level_from_string("-1/2")
    rep = classify_category_O(lv)
    data = rep.to_dict()
    assert ClassificationReport._fields == (
        "level",
        "S",
        "Pk",
        "p2",
        "p1",
        "p2_mff",
        "singular_vector",
        "Q",
    )
    assert ClassificationReport.__slots__ == () and not hasattr(rep, "__dict__")
    assert list(data) == [
        "level",
        "S",
        "Pk",
        "p1",
        "p2",
        "p2_mff",
        "p2_route_constant",
        "singular_vector",
        "Q",
    ]
    assert data["S"] == ["1", "0", "-1/2", "-3/2"]
    assert data["p2"] == rep.p2.to_text()
    assert data["Q"]["text"] == rep.Q.to_text()
    assert data["singular_vector"] == rep.singular_vector.to_text()
    dense = classify_weight_modules(rep)[2]
    assert dense["r_values"] == ["-1/2", "-3/2"]

    rep1 = classify_category_O(level_from_string("1"))
    assert [f["r_values"] for f in classify_weight_modules(rep1)] == [
        ["1", "0"],
        ["1", "0"],
        [],
    ]
