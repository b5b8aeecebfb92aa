"""Dense modules E(r,mu): action formulas, annihilation test, T-membership."""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from admz import weight_modules
from admz.usl2 import FinElement, fin_product, pbw_groups
from admz.weight_modules import (
    DenseParams,
    classify_weight_modules,
    is_T_member,
    q_action_profile,
    q_annihilates_E,
)
from admz.zhu import classify_category_O, compute_Q, level_from_string, set_S
from oracles import act_element_dense, act_generator_dense, act_groups_by_fractions, lagrange_fit

F = Fraction


def act(u, p, i):
    """The coefficient c of u.E_i = c E_{i+shift} in E(r,mu), shift = -u.ad_weight() // 2,
    by the grouped closed form."""
    return weight_modules._act_groups(pbw_groups(u.terms), weight_modules._point(p), i)


def casimir():
    e = FinElement.generator("e")
    f = FinElement.generator("f")
    h = FinElement.generator("h")
    return fin_product(e, f) + fin_product(f, e) + fin_product(h, h) * F(1, 2)


def test_act_generator_examples():
    assert act_generator_dense("e", F(-1, 2), F(1, 3), 0) == (F(-1, 3), -1)
    assert act_generator_dense("h", F(-1, 2), F(1, 3), 0) == (F(-7, 6), 0)
    # f coefficient vanishes when mu + i = r
    assert act_generator_dense("f", F(3), F(1), 2) == (F(0), 3)


def test_sl2_relations_on_E():
    rng = random.Random(3)
    for _ in range(40):
        r = F(rng.randint(-6, 6), rng.randint(1, 4))
        mu = F(rng.randint(-6, 6), rng.randint(1, 4))
        i = rng.randint(-4, 4)
        for g1, g2, expect in (("h", "e", "e"), ("h", "f", "f"), ("e", "f", "h")):
            c2, j = act_generator_dense(g2, r, mu, i)
            c12, j12 = act_generator_dense(g1, r, mu, j)
            c1, jj = act_generator_dense(g1, r, mu, i)
            c21, j21 = act_generator_dense(g2, r, mu, jj)
            assert j12 == j21
            lhs = c2 * c12 - c1 * c21
            ce, je = act_generator_dense(expect, r, mu, i)
            sign = {"e": 2, "f": -2, "h": 1}[expect]
            if expect == "h":
                assert (lhs, j12) == (ce, je)
            else:
                assert j12 == je and lhs == sign * ce


def test_act_element_examples():
    p = DenseParams(r=F(2, 5), mu=F(1, 3))
    e2 = FinElement.monomial((2, 0, 0))
    assert -e2.ad_weight() // 2 == -2
    for i in (-2, 0, 3):
        x = p.mu + i
        assert act(e2, p, i) == x * (x - 1)

    one = FinElement.monomial((0, 0, 0))
    assert -one.ad_weight() // 2 == 0 and act(one, p, 5) == 1

    assert -casimir().ad_weight() // 2 == 0
    for i in (-3, 0, 7):
        assert act(casimir(), p, i) == p.r * p.r / 2 + p.r

    # at the integer level 600, Q = c*e^601: 601 linear factors over L = 6
    Q = compute_Q(level_from_string("600"))
    [(mono, c)] = Q.terms.items()
    assert mono == (601, 0, 0) and -Q.ad_weight() // 2 == -601
    for i in (0, 5):
        expected = c
        for j in range(601):
            expected *= j - F(1, 3) - i
        assert act(Q, DenseParams(r=F(1, 2), mu=F(1, 3)), i) == expected


def test_casimir_constant_over_grid():
    rng = random.Random(41)
    cas = casimir()
    for _ in range(20):
        p = DenseParams(
            r=F(rng.randint(-9, 9), rng.randint(1, 5)),
            mu=F(rng.randint(-9, 9), rng.randint(1, 5)),
        )
        expected = p.r * p.r / 2 + p.r
        for i in range(-5, 6):
            assert act(cas, p, i) == expected


# irreducible (r, mu) and reducible ones: mu in Z, r - mu in Z, or both
DIFF_PARAMS = (
    DenseParams(r=F(17, 5), mu=F(1, 3)),
    DenseParams(r=F(1, 2), mu=F(1, 4)),
    DenseParams(r=F(-1, 2), mu=F(1, 3)),
    DenseParams(r=F(4, 3), mu=F(1, 3)),
    DenseParams(r=F(1), mu=F(1)),
    DenseParams(r=F(-2, 3), mu=F(-1)),
)


def assert_matches_word_walk(u, p, i):
    coefficient = act(u, p, i)
    expected = act_element_dense(u, p.r, p.mu, i)
    assert expected == ({i - u.ad_weight() // 2: coefficient} if coefficient else {})


def random_homogeneous(rng, w):
    """Up to five terms e^a h^b f^c with a - c = w."""
    terms = {}
    for _ in range(rng.randint(1, 5)):
        c = rng.randint(max(0, -w), max(0, -w) + 3)
        terms[c + w, rng.randint(0, 3), c] = F(rng.randint(-9, 9), rng.randint(1, 6))
    return FinElement(terms)


def test_act_element_matches_word_walk_on_random_elements():
    rng = random.Random(10)
    elements = [FinElement({}), FinElement.monomial((0, 0, 0))]
    elements += [random_homogeneous(rng, w) for w in (-3, -2, -1, 0, 1, 2, 3) for _ in range(6)]
    elements += [
        FinElement({(0, b, 0): F(rng.randint(-9, 9), rng.randint(1, 6)) for b in range(4)})
        for _ in range(4)
    ]
    assert {u.ad_weight() for u in elements} >= {-6, 0, 6}
    for u in elements:
        for p in DIFF_PARAMS:
            for i in (-3, 0, 2):
                assert_matches_word_walk(u, p, i)


@st.composite
def homogeneous_elements(draw):
    """An element in the shape of random_homogeneous, of ad-weight 2w, -3 <= w <= 3."""
    w = draw(st.integers(-3, 3))
    terms = {}
    for _ in range(draw(st.integers(1, 5))):
        c = draw(st.integers(max(0, -w), max(0, -w) + 3))
        b = draw(st.integers(0, 3))
        terms[c + w, b, c] = F(draw(st.integers(-9, 9)), draw(st.integers(1, 6)))
    return FinElement(terms)


@st.composite
def dense_points(draw):
    """(r, mu) with denominators 1..12: shared, independent (often coprime),
    or one of them an integer; numerators of either sign."""
    numerators, denominators = st.integers(-30, 30), st.integers(1, 12)
    d_r = draw(denominators)
    d_mu = draw(st.one_of(st.just(d_r), denominators, st.just(1)))
    return DenseParams(r=F(draw(numerators), d_r), mu=F(draw(numerators), d_mu))


@settings(deadline=None, max_examples=150)
@given(homogeneous_elements(), dense_points(), st.integers(-6, 6))
@example(
    FinElement({(3, 1, 2): F(2, 3), (2, 0, 1): F(-1), (1, 2, 0): F(5, 4)}),
    DenseParams(r=F(-5, 6), mu=F(3, 4)),
    2,
)
def test_act_element_matches_fraction_oracle_and_word_walk(u, p, i):
    """The integer products over L^(a+c) give the coefficient of the
    closed form in Fractions and of the generator-by-generator walk."""
    assert act(u, p, i) == act_groups_by_fractions(pbw_groups(u.terms), p.r, p.mu + i)
    assert_matches_word_walk(u, p, i)


@pytest.mark.parametrize("text", ("1", "2", "3", "-1/2", "1/2", "-4/3", "-2/3"))
def test_q_action_matches_word_walk(text):
    lv = level_from_string(text)
    Q = compute_Q(lv)
    for p in DIFF_PARAMS:
        for i in range(-2, lv.N + 3):
            assert_matches_word_walk(Q, p, i)


def test_q_action_polynomial_shape():
    # Q.E_i is a single polynomial of degree <= N in (mu+i): fit on N+1
    # points, then verify on three extra indices
    for text in ("-1/2", "-4/3", "1/2"):
        lv = level_from_string(text)
        Q = compute_Q(lv)
        p = DenseParams(r=F(17, 5), mu=F(1, 3))
        assert -Q.ad_weight() // 2 == -lv.N
        fit = lagrange_fit([(p.mu + i, act(Q, p, i)) for i in range(lv.N + 1)])
        for i in (lv.N + 1, lv.N + 3, -4):
            assert fit(p.mu + i) == act(Q, p, i)


def test_q_action_index_shift_covariance():
    lv = level_from_string("-1/2")
    Q = compute_Q(lv)
    r = F(-1, 2)
    for mu, i in ((F(1, 3), 2), (F(2, 7), -1)):
        assert act(Q, DenseParams(r=r, mu=mu), i) == act(Q, DenseParams(r=r, mu=mu + 1), i - 1)


def test_q_annihilates_examples():
    lv1 = level_from_string("1")
    assert not q_annihilates_E(lv1, DenseParams(r=F(1, 2), mu=F(1, 3)))
    lv = level_from_string("-1/2")
    assert q_annihilates_E(lv, DenseParams(r=F(-1, 2), mu=F(1, 3)))
    assert not q_annihilates_E(lv, DenseParams(r=F(1), mu=F(1, 3)))
    assert not q_annihilates_E(lv, DenseParams(r=F(0), mu=F(1, 3)))


def test_q_action_profile_matches_action_and_annihilation():
    for text, p, kills in (
        ("-1/2", DenseParams(r=F(-1, 2), mu=F(1, 3)), True),
        ("-1/2", DenseParams(r=F(0), mu=F(1, 3)), False),
        ("-1/3", DenseParams(r=F(1, 2), mu=F(1, 4)), False),
    ):
        lv = level_from_string(text)
        Q = compute_Q(lv)
        profile, annihilates = q_action_profile(Q, lv.N, p)
        assert len(profile) == lv.N + 1
        for i, c in enumerate(profile):
            assert act_element_dense(Q, p.r, p.mu, i) == ({i - lv.N: c} if c else {})
        assert annihilates == q_annihilates_E(lv, p) == kills


def test_is_T_member_examples():
    S = set_S(level_from_string("-1/2"))
    assert is_T_member(DenseParams(r=F(-1, 2), mu=F(1, 3)), S)
    assert not is_T_member(DenseParams(r=F(0), mu=F(1, 3)), S)
    assert not is_T_member(DenseParams(r=F(-3, 2), mu=F(1, 2)), S)  # r - mu = -2


def test_biconditional_on_grid():
    cases = []
    for text in ("-1/2", "-4/3"):
        rs = set_S(level_from_string(text)) + [F(17, 5), F(2)]
        cases += [(text, r, mu) for r in rs for mu in (F(1, 3), F(1, 4), F(5, 7))]
    # the dense-queries benchmark's levels and stream, and -1/3 (Q of 22
    # terms): r in S, in -S or a random rational with denominator up to 9
    rng = random.Random(28)
    for text in ("-1/2", "1/2", "-4/3", "-2/3", "-5/4", "3/2", "-8/5", "-12/7", "-1/3"):
        S = set_S(level_from_string(text))
        rs = S + [-r for r in S] + [F(rng.randint(-30, 30), rng.randint(1, 9)) for _ in range(6)]
        cases += [(text, r, F(rng.randint(-30, 30), rng.randint(2, 9))) for r in rs for _ in range(3)]
    for text, r, mu in cases:
        lv = level_from_string(text)
        p = DenseParams(r=r, mu=mu)
        if p.is_irreducible:
            assert q_annihilates_E(lv, p) == is_T_member(p, set_S(lv)), (text, r, mu)


def test_classify_weight_modules_families():
    report = classify_category_O(level_from_string("-4/3"))
    fams = classify_weight_modules(report)
    assert [f["family"] for f in fams] == ["highest_weight", "lowest_weight", "dense"]
    assert [list(f) for f in fams] == [
        ["family", "modules", "condition", "r_values"],
        ["family", "modules", "condition", "r_values"],
        ["family", "modules", "condition", "r_values", "verified_samples"],
    ]
    assert [f["modules"] for f in fams] == ["V(r*omega)", "V(r*omega)*", "E(r,mu)"]
    assert fams[0]["r_values"] == fams[1]["r_values"] == ["0", "-2/3", "-4/3"]
    assert fams[2]["r_values"] == ["-2/3", "-4/3"]
    assert all(s["agrees"] for s in fams[2]["verified_samples"])

    # the families are built here alone: the report holds no copy
    assert "families" not in report._fields and "families" not in report.to_dict()
    fams1 = classify_weight_modules(classify_category_O(level_from_string("1")))
    assert fams1[2]["r_values"] == []


def test_classify_weight_modules_reads_q_off_the_report(monkeypatch):
    report = classify_category_O(level_from_string("-1/2"))
    expected = classify_weight_modules(report)

    def no_solve(*args):
        raise AssertionError("the families solved the level again")

    monkeypatch.setattr(weight_modules, "compute_Q", no_solve)
    assert classify_weight_modules(report) == expected
    assert [f["family"] for f in expected] == ["highest_weight", "lowest_weight", "dense"]
    assert len(expected[2]["verified_samples"]) == 8  # 4 r in S, mu = 1/3, 1/4
