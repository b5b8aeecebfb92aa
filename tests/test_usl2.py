"""U(sl2): straightening, transpose, adjoint action, projections, lemmas."""

import random
from fractions import Fraction
from math import comb, factorial

import pytest

from admz import usl2
from admz.errors import InvalidInputError
from admz.exact_core import HPoly
from admz.usl2 import (
    FinElement,
    fin_ad,
    fin_product,
    monomial_weight,
    parse_fin,
    pomoc_sides,
    project_cartan,
    straighten,
    verify_pomoc_identity,
)
from oracles import (
    act_word_lowest_weight,
    eval_mod_n_minus,
    eval_mod_n_plus,
    kostant_by_products,
    pbw_shape,
    product_by_transpositions,
    product_terms,
    project_mod_n_plus,
    straighten_by_transpositions,
)

F = Fraction


def gen(g):
    return FinElement.generator(g)


def mono(a, b, c, coeff=1):
    return FinElement.monomial((a, b, c), coeff)


def rand_elem(rng, max_terms=4, max_exp=3):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        key = (rng.randint(0, max_exp), rng.randint(0, max_exp), rng.randint(0, max_exp))
        terms[key] = terms.get(key, F(0)) + F(rng.randint(-4, 4), rng.randint(1, 3))
    return FinElement(terms)


# -- fin_product ------------------------------------------------------------


def test_product_e_times_f_in_f_order():
    # the f-first word f*e in the basis: e*f - h
    assert fin_product(gen("e"), gen("f")) == mono(1, 0, 1)
    assert fin_product(gen("f"), gen("e")) == FinElement({(1, 0, 1): 1, (0, 1, 0): -1})


def test_product_h_times_f_in_f_order():
    # the f-first word f*h in the basis: h*f + 2f
    assert fin_product(gen("h"), gen("f")) == mono(0, 1, 1)
    assert fin_product(gen("f"), gen("h")) == FinElement({(0, 1, 1): 1, (0, 0, 1): 2})


def test_product_f2_e2_cartan_part():
    # f^2 e^2: dropping terms with f-exponent > 0 leaves 2h^2 + 2h,
    # the lowest-weight evaluation 2 mu (mu + 1)
    prod = fin_product(mono(0, 0, 2), mono(2, 0, 0))
    kept = {m: c for m, c in prod.terms.items() if m[2] == 0}
    assert kept == {(0, 2, 0): F(2), (0, 1, 0): F(2)}
    for mu in (F(0), F(1), F(-5, 3), F(7, 2)):
        assert eval_mod_n_minus(prod, mu) == 2 * mu * (mu + 1)


def test_straighten_matches_generator_products():
    # reference: adjacent transpositions, one generator at a time (tests/oracles.py)
    rng = random.Random(17)
    for _ in range(120):
        word = [rng.choice("efh") for _ in range(rng.randint(0, 7))]
        acc = {
            (rng.randint(0, 2), rng.randint(0, 2), rng.randint(0, 2)): rng.randint(-3, 3)
            for _ in range(rng.randint(1, 3))
        }
        got = straighten(word)
        assert got == straighten_by_transpositions(word)
        assert straighten(word, acc) == straighten_by_transpositions(word, acc)
        mu = F(rng.randint(-9, 9), rng.randint(1, 4))
        got = FinElement(got)
        assert eval_mod_n_minus(got, mu) == act_word_lowest_weight(word, mu).get(0, 0)


def test_product_matches_transpositions_random():
    rng = random.Random(43)
    for _ in range(60):
        x = rand_elem(rng, max_terms=5, max_exp=4)
        y = rand_elem(rng, max_terms=5, max_exp=4)
        assert fin_product(x, y) == product_by_transpositions(x, y)
        assert fin_product(y, x) == product_by_transpositions(y, x)
        g = rng.choice("efh")
        ge = gen(g)
        expected = product_by_transpositions(ge, x) - product_by_transpositions(x, ge)
        assert fin_ad(g, x) == expected


def test_kostant_formula():
    # f^c e^a = sum_j binom(a,j) binom(c,j) j! e^(a-j) prod_{i<j}(-h-a-c+2j-i) f^(c-j)
    for a in range(8):
        for c in range(8):
            expected = {}
            for j in range(min(a, c) + 1):
                poly = HPoly.from_roots([2 * j - a - c - i for i in range(j)])
                scale = comb(a, j) * comb(c, j) * factorial(j) * (-1) ** j
                for b, coeff in enumerate(poly.coeffs):
                    expected[a - j, b, c - j] = scale * coeff
            expected = FinElement(expected)
            word = ["f"] * c + ["e"] * a
            assert FinElement(straighten_by_transpositions(word)) == expected
            got = fin_product(mono(0, 0, c), mono(a, 0, 0))
            assert got == expected, (a, c)


def test_kostant_list_matches_fresh_products():
    # each K_j is the previous one times two factors, divided by one exactly
    pairs = [(a, c) for a in range(41) for c in range(41)]
    pairs += [(0, 200), (200, 0), (1, 200), (200, 1), (3, 150), (150, 3), (60, 197), (197, 60)]
    for a, c in pairs:
        assert usl2._kostant(a, c) == kostant_by_products(a, c), (a, c)


def test_product_terms_bounds_the_product():
    # f^N e^N forms sum_{j<=N} (j+1) terms
    for n in range(6):
        f_n, e_n = mono(0, 0, n), mono(n, 0, 0)
        assert product_terms(pbw_shape(f_n), pbw_shape(e_n)) == (n + 1) * (n + 2) // 2
    rng = random.Random(47)
    for _ in range(100):
        x, y = rand_elem(rng), rand_elem(rng)
        assert len(fin_product(x, y).terms) <= product_terms(pbw_shape(x), pbw_shape(y))


# -- transpose ---------------------------------------------------------------


def test_transpose_examples():
    e2f = fin_product(fin_product(gen("e"), gen("e")), gen("f"))
    ef2 = fin_product(fin_product(gen("e"), gen("f")), gen("f"))
    assert e2f.transpose() == ef2
    assert gen("h").transpose() == gen("h")


def test_transpose_antiautomorphism_random():
    rng = random.Random(7)
    for _ in range(100):
        x = rand_elem(rng)
        y = rand_elem(rng)
        assert fin_product(x, y).transpose() == fin_product(
            y.transpose(), x.transpose()
        )
        assert x.transpose().transpose() == x


# -- fin_ad ------------------------------------------------------------------


def test_ad_e_on_f2():
    f2 = mono(0, 0, 2)
    first = fin_ad("e", f2)
    # hf + fh straightened: 2hf + 2f
    assert first == FinElement({(0, 1, 1): 2, (0, 0, 1): 2})
    second = fin_ad("e", first)
    assert second == FinElement({(1, 0, 1): -4, (0, 2, 0): 2, (0, 1, 0): 2})


def test_ad_h_is_weight_operator():
    rng = random.Random(11)
    for _ in range(50):
        key = (rng.randint(0, 3), rng.randint(0, 3), rng.randint(0, 3))
        x = FinElement.monomial(key, F(3, 2))
        assert fin_ad("h", x) == x * monomial_weight(key)


def test_ad_derivation_random():
    rng = random.Random(13)
    for _ in range(100):
        x, y = rand_elem(rng), rand_elem(rng)
        g = rng.choice("ehf")
        assert fin_ad(g, fin_product(x, y)) == fin_product(fin_ad(g, x), y) + fin_product(
            x, fin_ad(g, y)
        )


def test_associativity_random():
    rng = random.Random(19)
    for _ in range(100):
        x, y, z = (rand_elem(rng, max_terms=3) for _ in range(3))
        assert fin_product(fin_product(x, y), z) == fin_product(x, fin_product(y, z))


def test_weight_additivity_random():
    rng = random.Random(23)
    for _ in range(100):
        m1 = (rng.randint(0, 3), rng.randint(0, 3), rng.randint(0, 3))
        m2 = (rng.randint(0, 3), rng.randint(0, 3), rng.randint(0, 3))
        prod = fin_product(FinElement.monomial(m1), FinElement.monomial(m2))
        target = monomial_weight(m1) + monomial_weight(m2)
        assert all(monomial_weight(m) == target for m in prod.terms)


# -- project_cartan ------------------------------------------------------------


def test_project_examples():
    ef = fin_product(gen("e"), gen("f"))
    fe = fin_product(gen("f"), gen("e"))
    assert project_cartan(fe) == HPoly([0, -1])
    assert project_mod_n_plus(ef) == HPoly([0, 1])
    assert project_mod_n_plus(fe) == HPoly.zero()
    f2e2 = fin_product(mono(0, 0, 2), mono(2, 0, 0))
    assert project_cartan(f2e2) == HPoly([0, 2, 2])
    h3 = mono(0, 3, 0)
    assert project_cartan(h3) == HPoly([0, 0, 0, 1])
    assert project_mod_n_plus(h3) == HPoly([0, 0, 0, 1])


def test_project_rejects_nonzero_weight():
    with pytest.raises(InvalidInputError):
        project_cartan(gen("e"))


def test_project_agrees_with_evaluation_oracles():
    rng = random.Random(29)
    count = 0
    while count < 40:
        a = rng.randint(0, 2)
        b = rng.randint(0, 2)
        terms = {(a, b, a): F(rng.randint(-3, 3), rng.randint(1, 2))}
        terms[(0, rng.randint(0, 3), 0)] = F(rng.randint(-3, 3))
        x = FinElement(terms)
        if x.is_zero() or x.ad_weight() != 0:
            continue
        count += 1
        pminus = project_cartan(x)
        pplus = project_mod_n_plus(x)
        # both projections have degree at most that of x in the PBW
        # filtration, so agreement at deg + 1 points fixes them exactly
        deg = max(a + b + c for a, b, c in x.terms)
        assert pminus.degree <= deg and pplus.degree <= deg
        for mu in (F(3 * j - 7, 4) for j in range(deg + 1)):
            assert pminus(mu) == eval_mod_n_minus(x, mu)
            assert pplus(mu) == eval_mod_n_plus(x, mu)


def test_fn_en_projection_shape():
    # f^N e^N mod U(g)n_- is (-1)^N N! h(h+1)...(h+N-1); the constant is
    # pinned by the lowest-weight oracle before being asserted exactly.
    for N in range(1, 6):
        prod = fin_product(mono(0, 0, N), mono(N, 0, 0))
        poly = project_cartan(prod)
        expected = HPoly.from_roots([-j for j in range(N)]) * F((-1) ** N * factorial(N))
        assert poly == expected
        mu = F(5, 7)
        oracle = eval_mod_n_minus(prod, mu)
        assert oracle == expected(mu)


# -- pomoc identity ---------------------------------------------------------------


def test_pomoc_examples():
    assert verify_pomoc_identity(1, F(1))
    assert verify_pomoc_identity(3, F(5, 2))
    # negative control: constant +1 added to the right side
    lhs, rhs = pomoc_sides(2, F(3, 2))
    assert lhs == rhs
    perturbed = rhs + FinElement.one()
    assert lhs != perturbed


def test_pomoc_range():
    s_values = [F(1), F(2), F(5), F(1, 2), F(3, 2), F(5, 2), F(-1, 2), F(7, 3), F(-4, 3), F(11, 4)]
    for N in range(1, 7):
        for s in s_values:
            assert verify_pomoc_identity(N, s), (N, s)


def test_pomoc_difference_lands_in_lowering_ideal():
    # the two sides of the literal bracket differ exactly by e*f^{N+1}
    for N in (1, 2, 4):
        s = F(7, 3)
        p = FinElement({(1, 0, 1): F(1), (0, 1, 0): s - 1, (0, 0, 0): -s * (s - 1)})
        f_n = FinElement.monomial((0, 0, N))
        lhs = fin_product(f_n, p)
        hpart = HPoly([-(s - N), 1]) * (s - N - 1)
        rhs_poly_part = fin_product(FinElement.from_h_poly(hpart), f_n)
        diff = lhs - rhs_poly_part
        assert diff == FinElement.monomial((1, 0, N + 1))


# -- canonical text ---------------------------------------------------------------


def test_fin_text_round_trip():
    rng = random.Random(31)
    for _ in range(50):
        x = rand_elem(rng)
        assert parse_fin(x.to_text()) == x
    q = FinElement({(2, 0, 0): 1})
    assert q.to_text() == "e^2"
    assert parse_fin("e^2") == q
    # a word out of basis order denotes its straightened value
    assert parse_fin("f*e") == FinElement({(1, 0, 1): 1, (0, 1, 0): -1})
    assert parse_fin("h*e") == FinElement({(1, 1, 0): 1, (1, 0, 0): 2})
    f2e2 = fin_product(mono(0, 0, 2), mono(2, 0, 0))
    assert parse_fin("2*f^2*e^2 - e*f") == f2e2 * 2 - mono(1, 0, 1)


@pytest.mark.parametrize(
    "text",
    ("x*e", "e^", "e^2.5", "1/0*e", "2.5*e", "1e3*e", "2**e", "*e", "e*", "e+", "+", "e--f"),
)
def test_parse_fin_rejects(text):
    with pytest.raises(InvalidInputError):
        parse_fin(text)
