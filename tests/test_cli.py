"""CLI surface: commands, formats, and the exit-code contract."""

import json

import pytest

import admz.zhu as zhu_mod
from admz import weight_modules
from admz.cli import main
from admz.errors import ConsistencyError
from admz.exact_core import HPoly


def run_cli(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out = capsys.readouterr()
    return exc.value.code, out.out, out.err


def test_classify_text(capsys):
    code, out, _ = run_cli(capsys, ["classify", "--level", "1"])
    assert code == 0
    assert "S = {1, 0}" in out
    assert "Q = e^2" in out
    assert "e(-1)^2 |0>" in out


def test_classify_json(capsys):
    code, out, _ = run_cli(capsys, ["classify", "--level", "-1/2", "--format", "json"])
    assert code == 0
    data = json.loads(out)
    assert data["S"] == ["1", "0", "-1/2", "-3/2"]
    assert data["level"]["p"] == -1 and data["level"]["q"] == 2
    assert len(data["families"]) == 3


def test_classify_not_admissible(capsys):
    code, _, err = run_cli(capsys, ["classify", "--level", "-3/2"])
    assert code == 2
    assert "not admissible" in err


def test_classify_bad_level_string(capsys):
    code, _, err = run_cli(capsys, ["classify", "--level", "0.5"])
    assert code == 2


def test_classify_resource_cap(capsys):
    code, _, err = run_cli(capsys, ["classify", "--level", "-2/3", "--max-dim", "5"])
    assert code == 3
    assert "cap" in err


def test_singular_both(capsys):
    code, out, _ = run_cli(capsys, ["singular", "--level", "1", "--method", "both"])
    assert code == 0
    assert "v_sing = e(-1)^2 |0>" in out
    assert "routes proportional" in out


def test_singular_methods(capsys):
    code, out, _ = run_cli(capsys, ["singular", "--level", "-1/2", "--method", "nullspace"])
    assert code == 0 and "v_sing" in out and "closed form" not in out
    code, out, _ = run_cli(capsys, ["singular", "--level", "-4/3", "--method", "mff"])
    assert code == 0 and "projected closed form" in out


def test_zhu_poly(capsys):
    code, out, _ = run_cli(capsys, ["zhu-poly", "--level", "-4/3", "--format", "json"])
    assert code == 0
    data = json.loads(out)
    assert data["roots_match"] is True
    assert set(data["p1_roots"]) == {"0", "-2/3", "-4/3"}


def test_check_dense(capsys):
    code, out, _ = run_cli(
        capsys, ["check-dense", "--level", "-1/2", "--r", "-1/2", "--mu", "1/3"]
    )
    assert code == 0
    assert "member of T:    True" in out
    assert "Q annihilates:  True" in out

    code, out, _ = run_cli(
        capsys, ["check-dense", "--level", "-1/2", "--r", "0", "--mu", "1/3"]
    )
    assert code == 0
    assert "member of T:    False" in out
    assert "Q annihilates:  False" in out

    code, out, _ = run_cli(
        capsys, ["check-dense", "--level", "1", "--r", "1/2", "--mu", "1/3"]
    )
    assert code == 0
    assert "member of T:    False" in out


def test_verify_suites(capsys):
    code, out, _ = run_cli(capsys, ["verify", "--suite", "lemmas", "--max-n", "4"])
    assert code == 0
    assert "[PASS] pomoc-transport-identity" in out

    code, out, _ = run_cli(
        capsys, ["verify", "--suite", "classification", "--levels", "1,-1/2"]
    )
    assert code == 0
    assert out.count("[PASS]") == 2


def test_verify_algebra_suite(capsys):
    code, out, _ = run_cli(capsys, ["verify", "--suite", "algebra", "--samples", "30"])
    assert code == 0
    assert "[FAIL]" not in out


def test_exit_code_one_on_violation(capsys, monkeypatch):
    def broken(lv, max_dim=None):
        raise ConsistencyError("invariant X failed")

    monkeypatch.setattr(zhu_mod, "classify_category_O", broken)
    code, _, err = run_cli(capsys, ["classify", "--level", "1"])
    assert code == 1
    assert "invariant X failed" in err


def test_usage_error_exit_two(capsys):
    code, _, _ = run_cli(capsys, ["classify"])  # missing --level
    assert code == 2


def test_env_var_cap(capsys, monkeypatch):
    monkeypatch.setenv("ADMZ_MAX_WEIGHT_DIM", "4")
    code, _, err = run_cli(capsys, ["classify", "--level", "-2/3"])
    assert code == 3
    # flag takes precedence over the environment
    monkeypatch.setenv("ADMZ_MAX_WEIGHT_DIM", "4")
    code, out, _ = run_cli(
        capsys, ["classify", "--level", "-2/3", "--max-dim", "20000"]
    )
    assert code == 0


@pytest.mark.parametrize(
    "argv",
    [
        ["classify", "--level", "1/0"],
        ["check-dense", "--level", "-1/2", "--r", "1/0", "--mu", "1/3"],
        ["check-dense", "--level", "-1/2", "--r", "-1/2", "--mu", "1/0"],
    ],
)
def test_zero_denominator_is_invalid_input(capsys, argv):
    code, _, err = run_cli(capsys, argv)
    assert code == 2
    assert "zero denominator" in err


def test_zero_denominator_level_is_a_verify_fail_row(capsys):
    code, out, _ = run_cli(
        capsys, ["verify", "--suite", "classification", "--levels", "1,1/0"]
    )
    assert code == 1
    assert "[PASS] classification[1]" in out
    assert "[FAIL] classification[1/0]  (zero denominator in '1/0')" in out


@pytest.mark.parametrize(
    "argv",
    [
        ["--suite", "algebra", "--samples", "-1"],
        ["--suite", "algebra", "--samples", "0"],
        ["--suite", "lemmas", "--max-n", "-1"],
        ["--suite", "lemmas", "--max-n", "0"],
        ["--suite", "classification", "--levels", ",,,"],
    ],
)
def test_verify_that_checks_nothing_is_invalid_input(capsys, argv):
    code, out, err = run_cli(capsys, ["verify", *argv])
    assert code == 2
    assert "[PASS]" not in out
    assert err


@pytest.mark.parametrize("cap", ["0", "-5"])
def test_non_positive_cap_is_invalid_input(capsys, monkeypatch, cap):
    code, _, err = run_cli(capsys, ["classify", "--level", "1", "--max-dim", cap])
    assert code == 2
    assert "at least 1" in err
    monkeypatch.setenv("ADMZ_MAX_WEIGHT_DIM", cap)
    code, _, err = run_cli(capsys, ["classify", "--level", "1"])
    assert code == 2
    assert "at least 1" in err


def test_classify_fails_on_dense_disagreement(capsys, monkeypatch):
    real = weight_modules.q_annihilates_E
    monkeypatch.setattr(
        weight_modules, "q_annihilates_E", lambda *args: not real(*args)
    )
    code, out, err = run_cli(capsys, ["classify", "--level", "-1/2"])
    assert code == 1
    assert out == ""
    assert "dense sample r=1, mu=1/3" in err


def test_zhu_poly_verdict_per_polynomial(capsys, monkeypatch):
    real = zhu_mod.compute_p1

    def p1_with_moved_root(lv, max_dim=None):
        quot, rem = real(lv, max_dim).divmod_linear(1)
        assert rem == 0
        return quot * HPoly.linear(-7)

    monkeypatch.setattr(zhu_mod, "compute_p1", p1_with_moved_root)
    code, out, _ = run_cli(capsys, ["zhu-poly", "--level", "-1/2"])
    assert code == 1
    assert "p1 roots = S:      NO" in out
    assert "p2 roots = -S:     yes" in out
    code, out, _ = run_cli(capsys, ["zhu-poly", "--level", "-1/2", "--format", "json"])
    assert code == 1
    assert json.loads(out)["roots_match"] is False
