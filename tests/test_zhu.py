"""The classification pipeline: parameters, S, P^k, singular vectors, Q, p1/p2."""

import random
from fractions import Fraction

import pytest

from admz import usl2
from admz import zhu as zhu_mod
from admz.affine import (
    VermaVector,
    act_mode,
    mode,
    mode_gen,
    parse_verma,
    weight_space_basis,
)
from admz.errors import InvalidInputError, NotAdmissibleError, ResourceCapError
from admz.exact_core import HPoly, parse_hpoly, poly_eval, poly_proportional, poly_root_check
from admz.nullspace import kernel_basis
from admz.usl2 import (
    FinElement,
    fin_ad,
    fin_product,
    parse_fin,
    project_cartan,
)
from admz.zhu import (
    MFF_ROUTE,
    NULLSPACE_ROUTE,
    admissible_params,
    classify_category_O,
    compute_p1,
    compute_p2,
    compute_Q,
    enumerate_Pk,
    level_from_string,
    mff_epsilon,
    set_S,
    singular_vector_nullspace,
    zhu_image_F,
)
from oracles import (
    eval_mod_n_minus,
    eval_mod_n_plus,
    p2_by_product_and_projection,
    poly_root_check_by_fractions,
    project_mod_n_plus,
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
    b0 = weight_space_basis(2, 2)
    be = weight_space_basis(2, 3)
    bf = weight_space_basis(1, 1)
    from admz.affine import operator_matrix

    stacked = operator_matrix(mode("e", 0), b0, be, lv.k).vstack(
        operator_matrix(mode("f", 1), b0, bf, lv.k)
    )
    assert len(kernel_basis(stacked)) == 1


def test_singular_half_regression_and_certificate():
    lv = level_from_string("-1/2")
    v = singular_vector_nullspace(lv)
    assert v == parse_verma(V_SING_HALF, lv.k)
    # certificate, independent of the linear solver
    assert act_mode(mode("e", 0), v).is_zero()
    assert act_mode(mode("f", 1), v).is_zero()


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


# -- Zhu image ---------------------------------------------------------------------


def test_zhu_image_examples():
    k = F(1)
    assert zhu_image_F(
        VermaVector(k, {(mode("e", -1), mode("e", -1)): F(1)})
    ) == FinElement.monomial((2, 0, 0))
    assert zhu_image_F(
        VermaVector(k, {(mode("h", -2),): F(1)})
    ) == FinElement.monomial((0, 1, 0), -1)
    # e(-2)f(-1)|0> carries (-1)^1 and reverses to -f*e = -ef + h
    got = zhu_image_F(VermaVector(k, {(mode("e", -2), mode("f", -1)): F(1)}))
    assert got == FinElement({(1, 0, 1): -1, (0, 1, 0): 1})


def _zhu_image_by_products(v):
    """Reference: one fin_product per generator of each reversed monomial."""
    out = FinElement.zero()
    for mono, coeff in v.terms.items():
        word = FinElement.one()
        for md in mono:
            word = fin_product(FinElement.generator(mode_gen(md)), word)
        out = out + word * (coeff * (-1) ** sum(-d - 1 for d, _ in mono))
    return out


def test_zhu_image_matches_per_generator_products():
    rng = random.Random(5)
    for _ in range(40):
        terms = {}
        for _ in range(rng.randint(1, 4)):
            length = rng.randint(0, 6)
            mono = tuple(sorted((rng.randint(-3, -1), rng.randint(0, 2)) for _ in range(length)))
            terms[mono] = F(rng.randint(-5, 5), rng.randint(1, 4))
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
    assert Q == parse_fin(Q_HALF)
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
    assert compute_p2(lv, NULLSPACE_ROUTE) == HPoly([0, 2, 2])
    assert compute_p2(lv, MFF_ROUTE) == HPoly([0, 2, 2])
    roots, cof = poly_root_check(compute_p2(lv, NULLSPACE_ROUTE), [F(0), F(-1)])
    assert roots == {F(0): 1, F(-1): 1} and cof.degree == 0


def test_p1_k1():
    lv = admissible_params(1, 1)
    p1 = compute_p1(lv)
    assert p1 == HPoly([0, -2, 2])  # 2h(h-1), roots = S = {0, 1}
    roots, cof = poly_root_check(p1, set_S(lv))
    assert roots == {F(0): 1, F(1): 1} and cof.degree == 0


@pytest.mark.parametrize(
    "text",
    ["1", "2", "3", "-1/2", "1/2", "-4/3", "-2/3", "-1/3", "5/2", "7"]
    + [pytest.param("30", marks=pytest.mark.slow)],
)
def test_mff_p2_is_the_product_projected(text):
    # reference: straighten f^N * epsilon, then keep its pure-h part
    lv = level_from_string(text)
    assert compute_p2(lv, MFF_ROUTE) == p2_by_product_and_projection(lv)


def test_routes_proportional_all_levels():
    for text in ("1", "2", "3", "-1/2", "1/2", "-4/3", "-2/3"):
        lv = level_from_string(text)
        c = poly_proportional(compute_p2(lv, NULLSPACE_ROUTE), compute_p2(lv, MFF_ROUTE))
        assert c is not None and c != 0


@pytest.mark.parametrize(
    "text", ["1", "2", "3", "-1/2", "1/2", "-4/3", "-2/3", "-1/3", "5/2", "7"]
)
def test_nullspace_p2_is_the_descent_of_Q_transpose(text):
    # reference: descend Q^T by ad e on its own, then project mod U(g)n_-
    lv = level_from_string(text)
    x = compute_Q(lv).transpose()
    for _ in range(lv.N):
        x = fin_ad("e", x)
    assert compute_p2(lv, NULLSPACE_ROUTE) == project_cartan(x)


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
    assert compute_p1(lv) == project_mod_n_plus(x)


@pytest.mark.parametrize(
    "text", ["1", "2", "3", "-1/2", "1/2", "-4/3", "-2/3", "-1/3", "5/2", "7", "30"]
)
def test_p1_p2_match_the_module_oracles(text):
    # a third check, sharing no code with the descent or the evaluation: the
    # unstraightened words of (ad f)^N Q and (ad e)^N Q^T act generator by
    # generator on a highest and a lowest weight module
    lv = level_from_string(text)
    Q = compute_Q(lv)
    p1, p2 = compute_p1(lv), compute_p2(lv, NULLSPACE_ROUTE)
    for mu in (F(0), F(1, 3), F(-7, 2), F(5), F(-11, 4)):
        assert p1(mu) == eval_mod_n_plus(Q, mu, ad_f=lv.N)
        assert p2(mu) == eval_mod_n_minus(Q.transpose(), mu, ad_e=lv.N)


def test_pipeline_makes_no_adjoint_descent(monkeypatch):
    calls = []
    descend = zhu_mod.descend_to_weight_zero
    monkeypatch.setattr(zhu_mod, "_SOLVED", {})
    monkeypatch.setattr(zhu_mod, "descend_to_weight_zero", lambda x: calls.append(x) or descend(x))
    for text in ("-1/2", "2"):
        lv = level_from_string(text)
        classify_category_O(lv)
        compute_p1(lv)
        compute_p2(lv, NULLSPACE_ROUTE)
        compute_p2(lv, MFF_ROUTE)
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
        p1, p2 = compute_p1(lv), compute_p2(lv)
        assert p1.degree == (lv.l + 1) * lv.N == p2.degree
        for r in S:
            assert p1(r) == 0 and p2(-r) == 0


@pytest.mark.parametrize("text", ["-1/2", "-4/3", "5/2", "7", "25"])
def test_root_checks_and_evaluations_match_fractions(text):
    # S and -S together: each polynomial meets its roots and as many non-roots
    lv = level_from_string(text)
    S = set_S(lv)
    candidates = S + [-r for r in S]
    for p in (compute_p1(lv), compute_p2(lv), compute_p2(lv, MFF_ROUTE)):
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
    assert set(data) >= {
        "level",
        "S",
        "Pk",
        "p1",
        "p2",
        "singular_vector",
        "Q",
        "families",
    }
    assert data["S"] == ["1", "0", "-1/2", "-3/2"]
    assert parse_hpoly(data["p2"]) == rep.p2
    assert parse_fin(data["Q"]["text"]) == rep.Q
    assert parse_verma(data["singular_vector"], lv.k) == rep.singular_vector
    dense = data["families"][2]
    assert dense["r_values"] == ["-1/2", "-3/2"]

    rep1 = classify_category_O(level_from_string("1"))
    assert [f["r_values"] for f in rep1.to_dict()["families"]] == [
        ["1", "0"],
        ["1", "0"],
        [],
    ]
