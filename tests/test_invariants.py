"""The invariant registry: each entry is caught by the pipeline, by `verify`
and by `check_report` when it breaks in an otherwise valid report; the changes
that the former entries Q-adjoint-weight, p2-degree and p1-p2-mirror caught
are still refused."""

import re
from fractions import Fraction

import pytest

import admz.verify as verify_mod
import admz.zhu as zhu_mod
from admz.affine import AffineWeight
from admz.errors import ConsistencyError
from admz.exact_core import HPoly, poly_mul
from admz.usl2 import FinElement
from admz.zhu import (
    INVARIANTS,
    build_report,
    check_report,
    classify_category_O,
    compute_Q,
    level_from_string,
)
from oracles import divmod_linear, spans_adjoint_module_by_descent

LEVEL = "-1/2"  # S = {1, 0, -1/2, -3/2}, N = 2


def move_root(p: HPoly, old, new) -> HPoly:
    quot, rem = divmod_linear(p, old)
    assert rem == 0
    return HPoly(poly_mul(quot.coeffs, [-Fraction(new), 1]))


def times_h(p: HPoly) -> HPoly:
    return HPoly(poly_mul(p.coeffs, [0, 1]))


def first_weight_off_level(Pk):
    w = Pk[0]
    return [AffineWeight(w.lambda0 + 1, w.lambda1), *Pk[1:]]


# invariant -> (change to a valid report, every invariant that change breaks).
# Each change breaks its own invariant alone, so no entry is implied by the
# others.
BREAKAGES = {
    "S-size": (lambda r: {"S": r.S + r.S[:1]}, {"S-size"}),
    "Pk-h-values": (lambda r: {"Pk": r.Pk[1:]}, {"Pk-h-values"}),
    "Pk-level": (lambda r: {"Pk": first_weight_off_level(r.Pk)}, {"Pk-level"}),
    "adjoint-module": (
        lambda r: {"Q": r.Q + FinElement.monomial((r.level.N + 1, 0, 1))},
        {"adjoint-module"},
    ),
    "p2-route-agreement": (
        lambda r: {"p2_mff": r.p2_mff + HPoly([1])},
        {"p2-route-agreement"},
    ),
    "p2-roots": (
        lambda r: {"p2": move_root(r.p2, -1, 7), "p2_mff": move_root(r.p2_mff, -1, 7)},
        {"p2-roots"},
    ),
    "p1-roots": (lambda r: {"p1": move_root(r.p1, 1, 7)}, {"p1-roots"}),
}

# Changes that the former entries Q-adjoint-weight, p2-degree and p1-p2-mirror
# caught, and an S of the right size with a repeated value, with the entries
# that still refuse them.
FORMER = {
    "Q-adjoint-weight": (
        lambda r: {"Q": r.Q + FinElement.monomial((0, 0, 0))},
        {"adjoint-module"},
    ),
    "p2-degree": (
        lambda r: {"p2": times_h(r.p2), "p2_mff": times_h(r.p2_mff)},
        {"p2-roots"},
    ),
    "p1-p2-mirror": (lambda r: {"p1": move_root(r.p1, 0, 7)}, {"p1-roots"}),
    "S-repeat": (
        lambda r: {"S": r.S[:-1] + r.S[:1]},
        {"S-size", "Pk-h-values", "p2-roots", "p1-roots"},
    ),
}

CASES = {**BREAKAGES, **FORMER}


@pytest.fixture(scope="module")
def valid_report():
    return build_report(level_from_string(LEVEL))


def broken(report, case):
    change, _ = CASES[case]
    return report._replace(**change(report))


def test_every_invariant_has_a_breakage():
    assert [name for name, _, _ in INVARIANTS] == list(BREAKAGES)
    assert all(name in failed for name, (_, failed) in BREAKAGES.items())


def test_valid_report_passes_every_invariant(valid_report):
    results = list(check_report(valid_report))
    assert [r.name for r in results] == list(BREAKAGES)
    assert all(r.passed and not r.detail for r in results)


@pytest.mark.parametrize("case", list(CASES))
def test_check_report_names_the_broken_invariants(valid_report, case):
    failed = {r.name for r in check_report(broken(valid_report, case)) if not r.passed}
    assert failed == CASES[case][1]


@pytest.mark.parametrize("case", list(CASES))
def test_pipeline_raises_on_first_broken_invariant(valid_report, monkeypatch, case):
    report = broken(valid_report, case)
    monkeypatch.setattr(zhu_mod, "build_report", lambda lv, max_dim=None: report)
    first = next(name for name, _, _ in INVARIANTS if name in CASES[case][1])
    with pytest.raises(ConsistencyError, match=f"^invariant {re.escape(first)}:"):
        classify_category_O(level_from_string(LEVEL))


@pytest.mark.parametrize("case", list(CASES))
def test_verify_names_every_broken_invariant(valid_report, monkeypatch, case):
    report = broken(valid_report, case)
    monkeypatch.setattr(verify_mod, "build_report", lambda lv, max_dim=None: report)
    (row,) = verify_mod.suite_classification([LEVEL])
    assert not row.passed
    assert set(re.findall(r"invariant ([\w-]+):", row.detail)) == CASES[case][1]


def test_verify_reads_route_constant_from_report(valid_report, monkeypatch):
    report = valid_report._replace(p2_mff=valid_report.p2_mff * 3)
    monkeypatch.setattr(verify_mod, "build_report", lambda lv, max_dim=None: report)
    (row,) = verify_mod.suite_classification([LEVEL])
    assert row.passed
    assert row.detail == f"routes agree up to {valid_report.p2_route_constant / 3}"


def test_lemma_suite_checks_the_fN_eN_shape_up_to_max_n(monkeypatch):
    """A projection wrong only in degree 6 fails the shape row at max_n = 6
    and leaves the transport row passing."""
    project = verify_mod.project_cartan

    def wrong_at_six(x):
        out = project(x)
        return out * 2 if out.degree == 6 else out

    monkeypatch.setattr(verify_mod, "project_cartan", wrong_at_six)
    rows = {r.name: r for r in verify_mod.suite_lemmas(max_n=6)}
    assert rows["pomoc-transport-identity"].passed
    shape = rows["fNeN-projection-shape"]
    assert (shape.passed, shape.detail) == (False, "N=6")


# the levels whose singular vectors the acceptance criteria certify, and 7
ADJOINT_LEVELS = ("1", "2", "3", "-1/2", "1/2", "-4/3", "-2/3", "-1/3", "5/2", "7")


def adjoint_mutations(Q, N):
    """Q and elements that change one weight or one group of it."""
    return {
        "Q": Q,
        "Q+1": Q + FinElement.monomial((0, 0, 0)),
        "Q+e^(N+1)f": Q + FinElement.monomial((N + 1, 0, 1)),
        "Q+e^(N+1)": Q + FinElement.monomial((N + 1, 0, 0)),
        "Q+e^(N-1)": Q + FinElement.monomial((N - 1, 0, 0)),
        "Q without e^N": FinElement({m: c for m, c in Q.terms.items() if m[::2] != (N, 0)}),
        "0": FinElement({}),
    }


@pytest.mark.parametrize("text", ADJOINT_LEVELS)
def test_adjoint_module_matches_the_descent(text):
    """One (ad e) step and the weight test decide what the (ad f) descent
    decides, for homogeneous elements of ad-weight 2N."""
    lv = level_from_string(text)
    descent, verdicts = {}, {}
    for name, x in adjoint_mutations(compute_Q(lv), lv.N).items():
        # the predicate assumes N >= 1, as at every admissible level
        for n in range(max(lv.N - 1, 1), lv.N + 2):
            descent[name, n] = spans_adjoint_module_by_descent(x, n)
            verdicts[name, n] = zhu_mod._spans_adjoint_module(x, n)
            assert verdicts[name, n] == (descent[name, n] and x.ad_weight() == 2 * n), (name, n)
    # Q+1, Q+e^(N-1) and Q+e^(N+1) pass the descent; only the weight test refuses them
    assert {key for key, ok in descent.items() if ok} >= {
        ("Q", lv.N),
        ("Q+1", lv.N),
        ("Q+e^(N-1)", lv.N),
        ("Q+e^(N+1)", lv.N + 1),
    }
    assert {key for key, ok in verdicts.items() if ok} == {("Q", lv.N)}
