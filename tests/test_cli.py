"""CLI surface: commands, formats, and the exit-code contract."""

import json
import os
import resource
import subprocess
import sys

import pytest

import admz
import admz.zhu as zhu_mod
from admz import weight_modules
from admz.cli import main
from admz.errors import ConsistencyError
from admz.exact_core import HPoly
from oracles import divmod_linear


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


def test_level_value_forms_agree(capsys):
    # a value that starts with "-" is read as the option's value, spaced or joined
    spaced = run_cli(capsys, ["classify", "--level", "-1/2"])
    joined = run_cli(capsys, ["classify", "--level=-1/2"])
    assert spaced == joined and spaced[0] == 0


def test_negative_values_of_every_value_option(capsys):
    code, out, _ = run_cli(capsys, ["check-dense", "--level", "-1/2", "--r", "-1/2", "--mu", "-1/3"])
    assert code == 0 and out.startswith("member of T:    True\n")
    code, out, _ = run_cli(
        capsys, ["verify", "--suite", "classification", "--levels", "-1/2,1"]
    )
    assert code == 0
    assert "[PASS] classification[-1/2]" in out and "[PASS] classification[1]" in out


@pytest.mark.parametrize(
    "argv",
    [
        [],  # no subcommand
        ["classify", "--level", "1", "--bogus"],
        ["classify", "--lev", "1"],  # no option is abbreviated
        ["classify", "--level", "1", "--format", "xml"],
        ["verify", "--suite", "lemmas", "--max-n", "0"],
        ["verify", "--suite", "algebra", "--samples", "abc"],
        ["classify", "--level"],
        ["classify", "-h"],  # help is --help alone
    ],
)
def test_usage_errors_exit_two_with_empty_stdout(capsys, argv):
    code, out, err = run_cli(capsys, argv)
    assert (code, out) == (2, "")
    assert err


def test_keyboard_interrupt_exits_two(capsys, monkeypatch):
    def interrupted(lv, max_dim=None):
        raise KeyboardInterrupt

    monkeypatch.setattr(zhu_mod, "classify_category_O", interrupted)
    code, out, _ = run_cli(capsys, ["classify", "--level", "1"])
    assert (code, out) == (2, "")


def test_import_loads_only_what_commands_share():
    # a fresh interpreter: click, dataclasses (and the inspect it pulls in)
    # and the verify suites stay unloaded until a command needs them
    code = (
        "import sys; before = set(sys.modules); import admz, admz.cli; "
        "print(*sorted(set(sys.modules) - before))"
    )
    src = os.path.dirname(os.path.dirname(admz.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60, env=env, check=True
    )
    loaded = set(proc.stdout.split())
    assert "admz.cli" in loaded
    assert loaded.isdisjoint({"click", "dataclasses", "inspect", "admz.verify"})


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


# levels whose weight-space search recurses past the interpreter's limit
@pytest.mark.parametrize(
    "argv",
    [
        ["classify", "--level", "1200"],
        ["zhu-poly", "--level", "1200"],
        ["singular", "--level", "997", "--method", "nullspace"],
    ],
)
def test_recursion_limit_is_a_resource_cap(capsys, argv):
    code, _, err = run_cli(capsys, argv)
    assert code == 3
    assert err.startswith(f"error: level {argv[2]}: ") and err.count("\n") == 1


def test_recursion_limit_level_is_a_verify_fail_row(capsys):
    code, out, _ = run_cli(
        capsys, ["verify", "--suite", "classification", "--levels", "1,1200"]
    )
    assert code == 1
    assert "[PASS] classification[1]" in out
    assert "[FAIL] classification[1200]  (level 1200: " in out


def run_cli_bounded(argv, seconds=30, address_space=1_500_000_000):
    """Run the CLI in a child process under a time and an address-space
    limit, so a command that builds a level-sized structure fails the test
    instead of hanging it or exhausting memory."""

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (address_space, address_space))

    src = os.path.dirname(os.path.dirname(admz.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-m", "admz.cli", *argv],
        capture_output=True,
        text=True,
        timeout=seconds,
        preexec_fn=limit,
        env=env,
    )
    return proc.returncode, proc.stdout, proc.stderr


# Huge levels: S and P^k (qN elements each), the modes the weight search
# could try and the mff route's shape groups all number 1e11 or more.  Each
# command is refused by a cap before any of them is built.  N = 1 at
# -199999999996/99999999999.
N, M = 199999999998, 99999999998 * 199999999998  # N and m = lN at 1/99999999999


@pytest.mark.parametrize(
    "argv, err",
    [
        (
            ["classify", "--level", "99999999999999999999"],
            "error: level 99999999999999999999: weight search exceeds recursion limit\n",
        ),
        (
            ["zhu-poly", "--level", "1/99999999999"],
            "error: level 1/99999999999: weight search exceeds recursion limit\n",
        ),
        (
            ["zhu-poly", "--level", "-199999999996/99999999999"],
            "error: weight space W(99999999999,1) exceeds cap 20000\n",
        ),
        (
            ["check-dense", "--level", "1/99999999999", "--r", "-1/2", "--mu", "1/3"],
            "error: level 1/99999999999: weight search exceeds recursion limit\n",
        ),
        (
            ["singular", "--level", "1/99999999999", "--method", "nullspace"],
            "error: level 1/99999999999: weight search exceeds recursion limit\n",
        ),
        (
            ["singular", "--level", "1/99999999999", "--method", "mff"],
            "error: level 1/99999999999: mff route forms "
            f"{(N + 1) * (M + 1) * (N + M + 2) // 2}"
            " PBW terms, over cap 20000\n",
        ),
    ],
    ids=["classify", "zhu-poly", "zhu-poly-N1", "check-dense", "singular-nullspace", "singular-mff"],
)
def test_huge_level_is_a_resource_cap(argv, err):
    code, out, got = run_cli_bounded(argv)
    assert (code, out, got) == (3, "", err)


def test_huge_level_is_a_verify_fail_row():
    code, out, _ = run_cli_bounded(
        ["verify", "--suite", "classification", "--levels", "1,99999999999999999999"]
    )
    assert code == 1
    assert "[PASS] classification[1]" in out
    assert (
        "[FAIL] classification[99999999999999999999]  "
        "(level 99999999999999999999: weight search exceeds recursion limit)" in out
    )


def test_mff_product_is_bounded_by_the_cap(capsys):
    # at integer levels the MFF route's f^N * e^N forms (N+1)(N+2)/2 PBW
    # terms: 903 at k = 40, 181503 at k = 600, over the default cap 20000
    code, _, err = run_cli(capsys, ["classify", "--level", "40", "--max-dim", "902"])
    assert code == 3
    assert err == "error: level 40: mff route forms 903 PBW terms, over cap 902\n"
    code, _, _ = run_cli(capsys, ["classify", "--level", "40", "--max-dim", "903"])
    assert code == 0
    code, _, err = run_cli(capsys, ["classify", "--level", "600"])
    assert code == 3
    assert err == "error: level 600: mff route forms 181503 PBW terms, over cap 20000\n"
    code, _, err = run_cli(capsys, ["singular", "--level", "600", "--method", "mff"])
    assert code == 3
    assert "mff route" in err


@pytest.mark.slow
def test_level_600_zhu_poly_succeeds(capsys):
    # zhu-poly reads p1 and p2 off Q and never runs the MFF route
    code, out, err = run_cli(capsys, ["zhu-poly", "--level", "600"])
    assert code == 0, err
    assert "p1 roots = S:      yes" in out


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
        quot, rem = divmod_linear(real(lv, max_dim), 1)
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
