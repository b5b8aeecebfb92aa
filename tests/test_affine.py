"""Affine sl2^: mode brackets, vacuum-module action, weight spaces, matrices."""

import itertools
import random
from fractions import Fraction

import pytest

from admz.affine import (
    VacuumModule,
    VermaVector,
    bracket_modes,
    mode,
    mode_charge,
    mode_degree,
    mode_gen,
    monomial_to_text,
    operator_matrix,
)
from admz.errors import InvalidInputError, ResourceCapError
from admz.exact_core import from_integral
from admz.nullspace import IntMatrix
from admz.zhu import level_from_string, singular_position, singular_vector_nullspace
from oracles import (
    act_by_fractions,
    brute_weight_space,
    homogeneous_weight,
    operator_matrix_by_fractions,
    parse_verma,
    table,
)

F = Fraction
K = F(-1, 2)  # a convenient generic level for module tests


def vec(monos, level=K):
    return VermaVector(level, {m: F(1) for m in monos})


# -- modes -------------------------------------------------------------------


def test_mode_order_is_degree_then_rank_and_helpers_round_trip():
    rank = {"f": 0, "h": 1, "e": 2}
    charge = {"f": -1, "h": 0, "e": 1}
    keyed = [((n, rank[g]), mode(g, n)) for g in "fhe" for n in range(-6, 7)]
    for key, md in keyed:
        for key2, md2 in keyed:
            assert (md < md2) == (key < key2), (key, key2)
    for g in "fhe":
        for n in range(-6, 7):
            md = mode(g, n)
            assert (mode_gen(md), mode_degree(md), mode_charge(md)) == (g, n, charge[g])
            assert mode(mode_gen(md), mode_degree(md)) == md


# -- bracket -----------------------------------------------------------------


def test_bracket_examples():
    # the central term comes back as its integer multiple of k
    ms, central = bracket_modes(mode("e", 0), mode("f", 0))
    assert ms == [(mode("h", 0), 1)] and central == 0

    ms, central = bracket_modes(mode("e", 1), mode("f", -1))
    assert ms == [(mode("h", 0), 1)] and central == 1

    ms, central = bracket_modes(mode("h", 2), mode("h", -2))
    assert ms == [] and central == 4


def test_bracket_antisymmetry_and_jacobi():
    modes = [mode(g, d) for g in "ehf" for d in range(-3, 4)]
    for x in modes:
        for y in modes:
            mxy, cxy = bracket_modes(x, y)
            myx, cyx = bracket_modes(y, x)
            combined = {}
            for m, c in mxy + myx:
                combined[m] = combined.get(m, F(0)) + c
            assert all(v == 0 for v in combined.values())
            assert cxy + cyx == 0
    for x in modes:
        for y in modes:
            for z in modes:
                total_modes, total_central = {}, F(0)
                for a, b, c in ((x, y, z), (y, z, x), (z, x, y)):
                    inner_modes, _ = bracket_modes(b, c)
                    for bm, bc in inner_modes:
                        outer_modes, outer_central = bracket_modes(a, bm)
                        for om, oc in outer_modes:
                            total_modes[om] = total_modes.get(om, F(0)) + bc * oc
                        total_central += bc * outer_central
                assert all(v == 0 for v in total_modes.values()), (x, y, z)
                assert total_central == 0, (x, y, z)


# -- act_mode -----------------------------------------------------------------


def test_act_examples():
    t = table(K)
    e_m1 = vec([(mode("e", -1),)])
    assert t.act(mode("e", 0), e_m1).is_zero()
    # [f(1), e(-1)] = -h(0) + k
    assert t.act(mode("f", 1), e_m1) == VermaVector(K, {(): K})
    assert t.act(mode("e", 0), vec([()])).is_zero()
    # e(-1) f(-2) |0> = h(-3) |0> + f(-2) e(-1) |0>
    f_m2 = vec([(mode("f", -2),)])
    expected = vec([(mode("h", -3),), (mode("f", -2), mode("e", -1))])
    assert t.act(mode("e", -1), f_m2) == expected
    # h(0) acts by twice the alpha-weight
    m = (mode("f", -2), mode("e", -1), mode("e", -1))
    v = vec([tuple(sorted(m))])
    assert t.act(mode("h", 0), v) == v * 2


def test_act_module_axiom_sampled():
    level = F(3, 5)
    t = table(level)
    rng = random.Random(5)
    basis_vectors = []
    for d, w in ((1, 0), (1, 1), (2, 0), (2, 1), (3, 1), (3, -1)):
        for mono in t.weight_space_basis(d, w):
            basis_vectors.append(VermaVector(level, {mono: F(1)}))
    modes = [mode(g, d) for g in "ehf" for d in (-2, -1, 0, 1, 2)]
    for _ in range(150):
        x, y = rng.choice(modes), rng.choice(modes)
        v = rng.choice(basis_vectors)
        lhs = t.act(x, t.act(y, v)) - t.act(y, t.act(x, v))
        ms, central = bracket_modes(x, y)
        rhs = v * (central * level)
        for bm, bc in ms:
            rhs = rhs + t.act(bm, v) * bc
        assert lhs == rhs


def test_act_grading():
    # x(n) maps W(d,w) into W(d-n, w+charge(x)), and h(0) acts by 2w
    t = table(K)
    modes = [mode(g, n) for g in "ehf" for n in range(-2, 3)]
    for d, w in ((2, 0), (3, 1), (4, 2)):
        for mono in t.weight_space_basis(d, w):
            v = VermaVector(K, {mono: F(1)})
            for md in modes:
                img = t.act(md, v)
                if not img.is_zero():
                    assert homogeneous_weight(img) == (
                        d - mode_degree(md),
                        w + mode_charge(md),
                    ), (md, mono)
            assert t.act(mode("h", 0), v) == v * (2 * w), mono


def test_one_table_per_level():
    # a table is bound to its level: each answer must match a rebuild from an
    # empty table, the module axiom holds, and a vector at another level is
    # refused
    e1, e1_sq = (mode("e", -1),), (mode("e", -1), mode("e", -1))
    rng = random.Random(13)
    pool = [mono for dw in ((2, 2), (3, 1), (3, -1)) for mono in table(K).weight_space_basis(*dw)]
    modes = [mode(g, d) for g in "ehf" for d in (-1, 0, 1, 2)]
    spaces = [(mode("f", 1), 2, 2)] + [(md, 3, 1) for md in modes if mode_degree(md) >= 0]
    for level in (F(1), F(-1, 2), F(2), F(3, 5), F(1)):
        t, q = VacuumModule(level), level.denominator
        vs = [VermaVector(level, {mono: F(rng.randint(1, 5))}) for mono in rng.sample(pool, 6)]

        def answers():
            images = [t.act(md, v) for md in modes for v in vs]
            matrices = [
                operator_matrix(t, md, t.weight_space_basis(d, w)) for md, d, w in spaces
            ]
            return images, matrices

        warm = answers()
        t._memo.clear()
        assert answers() == warm, level
        # f(1) e(-1)^2|0> = (2k-2) e(-1)|0>: the table stores q*(2k-2), and
        # nothing at k = 1, where e(-1)^2|0> is the singular vector
        img = t.act(mode("f", 1), VermaVector(level, {e1_sq: F(1)}))
        stored = int(q * (2 * level - 2))
        assert t._memo[mode("f", 1), e1_sq] == ({e1: stored} if stored else {})
        assert img == VermaVector(level, {e1: 2 * level - 2})
        assert img.is_zero() == (level == 1)
        for _ in range(40):
            x, y, v = rng.choice(modes), rng.choice(modes), rng.choice(vs)
            ms, central = bracket_modes(x, y)
            rhs = v * (central * level)
            for bm, bc in ms:
                rhs = rhs + t.act(bm, v) * bc
            assert t.act(x, t.act(y, v)) - t.act(y, t.act(x, v)) == rhs
        # every value is an int; under a mode of degree <= 0, which meets no
        # central term, a multiple of q (the exact division in act_mono)
        for (md, _), images in t._memo.items():
            assert all(type(x) is int for x in images.values())
            if mode_degree(md) <= 0:
                assert all(x % q == 0 for x in images.values()), (level, md)
        with pytest.raises(InvalidInputError):
            t.act(mode("e", 0), VermaVector(level + 1, vs[0].terms))


# -- weight spaces ------------------------------------------------------------


def test_weight_space_examples():
    t = table(K)
    assert t.weight_space_basis(2, 2) == [(mode("e", -1), mode("e", -1))]
    assert t.weight_space_basis(1, 0) == [(mode("h", -1),)]
    assert t.weight_space_basis(0, 1) == []
    assert t.weight_space_basis(0, 0) == [()]


def test_weight_space_against_brute_force():
    for d in range(0, 6):
        for w in range(-d, d + 1):
            assert table(K).weight_space_basis(d, w) == brute_weight_space(d, w)


def test_weight_space_cap():
    with pytest.raises(ResourceCapError):
        table(K).weight_space_basis(9, 1, max_dim=3)
    # W(0,0) is one monomial, so it obeys the cap like every other space
    assert table(K).weight_space_basis(0, 0, max_dim=1) == [()]
    with pytest.raises(ResourceCapError, match=r"^weight space W\(0,0\) exceeds cap 0$"):
        table(K).weight_space_basis(0, 0, max_dim=0)


# -- operator matrices ----------------------------------------------------------


def test_operator_matrix_examples():
    b22 = table(K).weight_space_basis(2, 2)
    assert operator_matrix(table(K), mode("e", 0), b22) == IntMatrix(1, [])

    # f(1) e(-1)^2 |0> = (2k-2) e(-1)|0>, scaled by q = 2 at k = -1/2
    assert operator_matrix(table(K), mode("f", 1), b22) == IntMatrix(1, [{0: -6}])
    # at k = 1 the entry vanishes, and with it the image's row
    assert operator_matrix(table(1), mode("f", 1), b22) == IntMatrix(1, [])

    empty = operator_matrix(table(K), mode("e", 0), [])
    assert (empty.nrows, empty.ncols) == (0, 0)


# levels with |p| > 1 and q > 1, negative p, and the integer levels: q = 1..7
DIFF_LEVELS = ("-8/5", "-12/7", "7/3", "-3/4", "5/2", "1", "-1/2", "-5/6")
DIFF_MODES = [mode(g, d) for g in "efh" for d in (-2, -1, 0, 1, 2, 3)]


def test_integer_action_matches_fraction_reference():
    rng = random.Random(811)
    spaces = [(d, w) for d in (2, 3, 4) for w in range(-2, 3)]
    pool = [mono for d, w in spaces for mono in table(K).weight_space_basis(d, w)]
    for text in DIFF_LEVELS:
        level = level_from_string(text).k
        for _ in range(25):
            terms = {
                mono: F(rng.randint(-9, 9), rng.choice((1, 2, 3, 7, 10, 12)))
                for mono in rng.sample(pool, rng.randint(1, 6))
            }
            v = VermaVector(level, terms)
            md = rng.choice(DIFF_MODES)
            assert table(level).act(md, v) == act_by_fractions(md, v), (text, md)


def test_integer_action_cancels_to_zero():
    # the singular vector's images cancel across terms with mixed denominators
    for text in ("-8/5", "-12/7", "-4/3"):
        v = singular_vector_nullspace(level_from_string(text))
        assert len({c.denominator for c in v.terms.values()}) > 1
        for md in (mode("e", 0), mode("f", 1)):
            assert table(v.level).act(md, v).is_zero() and act_by_fractions(md, v).is_zero()
        # a singular vector is killed by every positive mode, not by h(0)
        image = table(v.level).act(mode("h", 0), v)
        assert image == act_by_fractions(mode("h", 0), v) and not image.is_zero()
    # a single term whose coefficient a + b*k vanishes: f(1) e(-1)^2|0> at k = 1
    v = VermaVector(1, {(mode("e", -1), mode("e", -1)): F(3, 7)})
    assert table(1).act(mode("f", 1), v).is_zero()


def test_operator_matrix_is_q_times_fraction_reference():
    for text in DIFF_LEVELS:
        lv = level_from_string(text)
        spaces = [(4, 2), (5, 0)]
        if lv.q * lv.N <= 7:  # the singular space, where it is small
            spaces.append(singular_position(lv))
        for (d, w), md in itertools.product(spaces, DIFF_MODES):
            if not 0 <= mode_degree(md) <= d:
                continue
            source = table(lv.k).weight_space_basis(d, w)
            target = table(lv.k).weight_space_basis(d - mode_degree(md), w + mode_charge(md))
            m = operator_matrix(table(lv.k), md, source)
            # the oracle fails on an image outside its declared target; the
            # library's rows are the oracle's nonempty rows, in target order
            ref = operator_matrix_by_fractions(md, source, target, lv.k)
            ref_rows = [{} for _ in target]
            for (i, j), x in ref.entries.items():
                ref_rows[i][j] = lv.q * x
            assert m.ncols == ref.ncols
            assert m.rows == [row for row in ref_rows if row], (text, md)
            assert all(type(x) is int for row in m.rows for x in row.values())


# -- canonical text ---------------------------------------------------------------


@pytest.mark.parametrize(
    "terms, text",
    [
        ({(mode("e", -1),): -1}, "- e(-1) |0>"),
        ({(mode("e", -1),): 1}, "e(-1) |0>"),
        (
            {(mode("f", -2), mode("e", -1)): F(-3, 4), (mode("h", -3),): 1},
            "h(-3) |0> - 3/4 f(-2) e(-1) |0>",
        ),
        ({(mode("e", -1),): F(2, 3)}, "2/3 e(-1) |0>"),
        ({(mode("h", -3), mode("e", -1), mode("e", -1)): 2}, "2 h(-3) e(-1)^2 |0>"),
        ({(): F(-1, 2), (mode("e", -1),): 1}, "- 1/2 |0> + e(-1) |0>"),
        ({}, "0"),
    ],
    ids=[
        "negative-first",
        "magnitude-1",
        "fraction",
        "fraction-first",
        "repeated-mode",
        "vacuum-term",
        "zero",
    ],
)
def test_verma_to_text(terms, text):
    assert VermaVector(K, terms).to_text() == text


def test_verma_arithmetic_keeps_the_level():
    e1 = (mode("e", -1),)
    v = VermaVector(K, {e1: F(2, 3), (): 1})
    w = VermaVector(K, {e1: F(1, 3)})
    for got in (-v, v - w, 2 * v, v * 2, v + w):
        assert type(got) is VermaVector and got.level == K
    assert v - w == VermaVector(K, {e1: F(1, 3), (): 1})
    assert 2 * v == v * 2 == v + v
    assert (v - v).is_zero() and -(-v) == v
    assert hash(v + w - w) == hash(v) == hash(VermaVector(K, dict(reversed(v.terms.items()))))
    # the level fixes the module: equal terms at two levels are different vectors
    assert v != VermaVector(1, v.terms)
    with pytest.raises(InvalidInputError):
        v + VermaVector(1, w.terms)
    with pytest.raises(InvalidInputError):
        v - VermaVector(1, w.terms)


def test_verma_text_round_trip():
    rng = random.Random(37)
    pool = table(K).weight_space_basis(4, 0) + table(K).weight_space_basis(3, 1)
    for _ in range(40):
        terms = {}
        for mono in rng.sample(pool, k=min(3, len(pool))):
            terms[mono] = F(rng.randint(-5, 5), rng.randint(1, 4))
        v = VermaVector(K, terms)
        assert parse_verma(v.to_text(), K) == v
        assert from_integral(v._like, *v.integral()) == v
    assert monomial_to_text((mode("h", -3), mode("e", -1), mode("e", -1))) == (
        "h(-3) e(-1)^2 |0>"
    )
    assert parse_verma("|0>", K) == vec([()])
    assert parse_verma("0", K).is_zero()


# the round trip's reader (tests/oracles.py) refuses anything but canonical text
@pytest.mark.parametrize(
    "text",
    (
        "1/0 e(-1) |0>",
        "+",
        "e(-1) |0> + + f(-1) |0>",
        "0.5 e(-1) |0>",
        "1e3 |0>",
        "x |0>",
        "e(-1)^ |0>",
        "e(-1)",
        "",
    ),
)
def test_parse_verma_rejects(text):
    with pytest.raises(ValueError):
        parse_verma(text, K)
