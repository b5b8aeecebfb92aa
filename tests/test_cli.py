"""CLI surface: commands, formats, and the exit-code contract."""

import contextlib
import io
import json
import os
import resource
import subprocess
import sys
import types

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import admz
import admz.zhu as zhu_mod
from admz import weight_modules
from admz.cli import main
from admz.errors import (
    AdmzError,
    ConsistencyError,
    InvalidInputError,
    NotAdmissibleError,
    ResourceCapError,
)
from admz.exact_core import HPoly, poly_mul
from admz.zhu import build_report, level_from_string
from oracles import divmod_linear, table


def run_cli(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out = capsys.readouterr()
    return exc.value.code, out.out, out.err


def child_env():
    """The environment for a child interpreter that imports this admz."""
    src = os.path.dirname(os.path.dirname(admz.__file__))
    return {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}


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
    # the report's own fields, then the families built from it
    report = zhu_mod.classify_category_O(level_from_string("-1/2"))
    expected = {**report.to_dict(), "families": weight_modules.classify_weight_modules(report)}
    assert data == expected and list(data) == list(expected)


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
        ["verify", "--suite", "algebra"],  # no such suite
        ["verify", "--suite", "lemmas", "--samples", "30"],  # no such option
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


@pytest.mark.parametrize("argv", [["classify", "--level", "-1/2"], ["--help"]])
def test_closed_output_pipe_exits_141_with_empty_stderr(argv):
    # the read end is closed before the child starts, so its first write fails
    # whatever the output's size; a reader such as `head -c1` races instead.
    # stdout is block-buffered, as on a pipe by default, so the output (under
    # the buffer's size) is first written when main flushes it
    env = {k: v for k, v in child_env().items() if k != "PYTHONUNBUFFERED"}
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "admz.cli", *argv],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            timeout=60,
            env=env,
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (141, "")


def test_import_loads_only_what_commands_share():
    # a fresh interpreter: click, dataclasses (and the inspect it pulls in)
    # and the verify suites stay unloaded until a command needs them
    code = (
        "import sys; before = set(sys.modules); import admz, admz.cli; "
        "print(*sorted(set(sys.modules) - before))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        timeout=60,
        env=child_env(),
        check=True,
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

    proc = subprocess.run(
        [sys.executable, "-m", "admz.cli", *argv],
        capture_output=True,
        text=True,
        timeout=seconds,
        preexec_fn=limit,
        env=child_env(),
    )
    return proc.returncode, proc.stdout, proc.stderr


# Huge levels: S and P^k (qN elements each), the modes the weight search
# could try and the terms of the mff route's epsilon all number 1e11 or more.
# Each command is refused by a cap before any of them is built.  N = 1 at
# -199999999996/99999999999.
M = 99999999998 * 199999999998  # m = lN at 1/99999999999


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
            f"{(M + 1) * (M + 2) // 2}"
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
    # epsilon has (m+1)(m+2)/2 PBW terms, m = lN: 45 at k = -1/3 (N = 4, l = 2)
    argv = ["singular", "--level", "-1/3", "--method", "mff", "--max-dim"]
    code, out, err = run_cli(capsys, [*argv, "44"])
    assert (code, out) == (3, "")
    assert err == "error: level -1/3: mff route forms 45 PBW terms, over cap 44\n"
    code, out, _ = run_cli(capsys, [*argv, "45"])
    assert code == 0
    assert out.startswith("projected closed form = ")


@pytest.mark.slow
def test_level_600_classify_succeeds(capsys):
    # at integer levels epsilon is e^N, one term, so the mff route is no limit
    code, _, err = run_cli(capsys, ["classify", "--level", "600"])
    assert code == 0, err


@pytest.mark.slow
def test_level_600_zhu_poly_succeeds(capsys):
    # zhu-poly reads p1 and p2 off Q and never runs the MFF route
    code, out, err = run_cli(capsys, ["zhu-poly", "--level", "600"])
    assert code == 0, err
    assert "p1 roots = S:      yes" in out


@pytest.mark.slow
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_result_too_long_to_print_is_a_resource_cap(capsys, fmt):
    # p1 at k = 900 has a coefficient over the int-string digit limit
    code, out, err = run_cli(capsys, ["zhu-poly", "--level", "900", "--format", fmt])
    assert (code, out) == (3, "")
    assert err == "error: a result number of about 4301 digits is too long to print\n"


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_classify_print_limit_stops_before_the_dense_samples(capsys, monkeypatch, fmt):
    def too_long(self):
        raise ResourceCapError("a result number of about 4301 digits is too long to print")

    def samples(*args):
        raise AssertionError("the dense samples ran before the report rendered")

    monkeypatch.setattr(HPoly, "to_text", too_long)
    monkeypatch.setattr(weight_modules, "classify_weight_modules", samples)
    code, out, err = run_cli(capsys, ["classify", "--level", "-1/2", "--format", fmt])
    assert (code, out) == (3, "")
    assert err == "error: a result number of about 4301 digits is too long to print\n"


# one more digit than the interpreter converts between int and string
DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
LONG = "1" + "0" * DIGIT_LIMIT


@pytest.mark.skipif(not DIGIT_LIMIT, reason="no int-string digit limit")
@pytest.mark.parametrize(
    "argv",
    [
        ["classify", "--level", LONG],
        ["zhu-poly", "--level", f"1/{LONG}"],
        ["singular", "--level", f"-{LONG}"],
        ["check-dense", "--level", "-1/2", "--r", LONG, "--mu", "1/3"],
        ["check-dense", "--level", "-1/2", "--r", "-1/2", "--mu", f"1/{LONG}"],
    ],
    ids=["classify", "zhu-poly", "singular", "check-dense-r", "check-dense-mu"],
)
def test_over_long_literal_is_invalid_input(capsys, argv):
    code, out, err = run_cli(capsys, argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: literal of ") and err.endswith(" characters is too long\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["--suite", "classification", "--levels", ""],
        ["--suite", "classification", "--levels", " , "],
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


# every command takes the weight-space cap, each suite of verify included
CAP_COMMANDS = (
    ["classify", "--level", "1"],
    ["singular", "--level", "1", "--method", "nullspace"],
    ["singular", "--level", "1", "--method", "mff"],
    ["zhu-poly", "--level", "1"],
    ["check-dense", "--level", "1", "--r", "1/2", "--mu", "1/3"],
    ["verify", "--suite", "lemmas", "--max-n", "1"],
    ["verify", "--suite", "classification", "--levels", "1"],
)


@pytest.mark.parametrize("cap", ["0", "-5"])
def test_non_positive_cap_is_invalid_input(capsys, monkeypatch, cap):
    for argv in CAP_COMMANDS:
        code, out, err = run_cli(capsys, [*argv, "--max-dim", cap])
        assert (code, out) == (2, ""), argv
        assert "at least 1" in err
    monkeypatch.setenv("ADMZ_MAX_WEIGHT_DIM", cap)
    for argv in CAP_COMMANDS:
        code, out, err = run_cli(capsys, argv)
        assert (code, out) == (2, ""), argv
        assert "at least 1" in err


def test_non_integer_cap_variable_is_invalid_input(capsys, monkeypatch):
    monkeypatch.setenv("ADMZ_MAX_WEIGHT_DIM", "abc")
    for argv in CAP_COMMANDS:
        code, out, err = run_cli(capsys, argv)
        assert (code, out, err) == (2, "", "error: bad ADMZ_MAX_WEIGHT_DIM value 'abc'\n"), argv


@pytest.mark.parametrize(
    "argv",
    [
        ["classify", "--level", "abc"],
        ["check-dense", "--level", "-1/2", "--r", "1/0", "--mu", "1/3"],
    ],
)
def test_bad_cap_is_named_before_any_other_bad_value(capsys, argv):
    code, out, err = run_cli(capsys, [*argv, "--max-dim", "0"])
    assert (code, out) == (2, "")
    assert "at least 1" in err


def test_the_library_does_not_read_the_cap_variable(capsys, monkeypatch):
    monkeypatch.setenv("ADMZ_MAX_WEIGHT_DIM", "1")
    assert zhu_mod.compute_Q(level_from_string("-1/2")).ad_weight() == 4  # 2N
    assert len(table(1).weight_space_basis(4, 2)) > 1
    code, out, err = run_cli(capsys, ["classify", "--level", "-1/2"])
    assert (code, out) == (3, "")
    assert "exceeds cap 1" in err


@pytest.mark.parametrize(
    "error, code",
    [(ConsistencyError, 1), (InvalidInputError, 2), (NotAdmissibleError, 2), (ResourceCapError, 3)],
)
def test_each_error_type_exits_with_its_code(capsys, monkeypatch, error, code):
    def raises(lv, max_dim):
        raise error("stated")

    monkeypatch.setattr(zhu_mod, "classify_category_O", raises)
    assert run_cli(capsys, ["classify", "--level", "1"]) == (code, "", "error: stated\n")


def test_package_exports_only_the_documented_api():
    public = {
        name
        for name, value in vars(admz).items()
        if not isinstance(value, types.ModuleType)
        and (not name.startswith("_") or name == "__version__")
    }
    assert public == {
        "level_from_string",
        "classify_category_O",
        "q_annihilates_E",
        "DenseParams",
        "classify_weight_modules",
        "AdmzError",
        "ConsistencyError",
        "InvalidInputError",
        "NotAdmissibleError",
        "ResourceCapError",
        "__version__",
    }


def test_classify_fails_on_dense_disagreement(capsys, monkeypatch):
    # the families test Q-annihilation on report.Q, so flip the other side
    real = weight_modules.is_T_member
    monkeypatch.setattr(weight_modules, "is_T_member", lambda *args: not real(*args))
    code, out, err = run_cli(capsys, ["classify", "--level", "-1/2"])
    assert code == 1
    assert out == ""
    assert "dense sample r=1, mu=1/3" in err


def test_zhu_poly_verdict_per_polynomial(capsys, monkeypatch):
    real = zhu_mod.compute_p1

    def p1_with_moved_root(Q, N):
        quot, rem = divmod_linear(real(Q, N), 1)
        assert rem == 0
        return HPoly(poly_mul(quot.coeffs, [-7, 1]))

    monkeypatch.setattr(zhu_mod, "compute_p1", p1_with_moved_root)
    code, out, _ = run_cli(capsys, ["zhu-poly", "--level", "-1/2"])
    assert code == 1
    assert "p1 roots = S:      NO" in out
    assert "p2 roots = -S:     yes" in out
    code, out, _ = run_cli(capsys, ["zhu-poly", "--level", "-1/2", "--format", "json"])
    assert code == 1
    assert json.loads(out)["roots_match"] is False


# -- the exit-code contract over drawn argument vectors -------------------------

SMALL_ADMISSIBLE = ["1", "2", "7", "25", "-1/2", "1/2", "-4/3", "-2/3", "-1/3", "3/2", "5/2"]
MALFORMED = ["0.5", "1/0", "1/2/3", "abc", "", " ", "--", "-", "1e3", "+-1", "0x10", "1 /2"]

# Integer levels in [200, 1000) are left out: they solve for seconds before
# their answer's print-limit exit 3.
levels = st.one_of(
    st.sampled_from(SMALL_ADMISSIBLE),
    st.integers(-3, 199).map(str),
    st.builds("{}/{}".format, st.integers(-40, 40), st.integers(1, 6)),  # some not admissible
    st.sampled_from(MALFORMED),
    st.text(alphabet="/-+.eE x", max_size=6),
    st.integers(10**4, 10**30).map(str),  # huge: refused by the recursion guard
    st.integers(10**4, 10**30).map("1/{}".format),
    st.integers(10**4, 10**30).map("-{}".format),
    st.just("1" + "0" * 4300),  # over the interpreter's int-string digit limit
)
rationals = st.one_of(
    st.builds("{}/{}".format, st.integers(-9, 9), st.integers(1, 5)), st.sampled_from(MALFORMED)
)


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(["classify", "singular", "zhu-poly", "check-dense", "verify"]))
    if command == "verify":
        suite = draw(st.sampled_from(["lemmas", "classification"]))
        argv = ["verify", "--suite", suite]
        if suite == "lemmas":
            argv += ["--max-n", str(draw(st.integers(-1, 5)))]
        else:
            argv += ["--levels", ",".join(draw(st.lists(levels, min_size=1, max_size=2)))]
    else:
        argv = [command, "--level", draw(levels)]
    if command in ("classify", "zhu-poly"):
        argv += ["--format", draw(st.sampled_from(["text", "json"]))]
    elif command == "singular":
        argv += ["--method", draw(st.sampled_from(["nullspace", "mff", "both"]))]
    elif command == "check-dense":
        argv += ["--r", draw(rationals), "--mu", draw(rationals)]
    return argv + ["--max-dim", str(draw(st.integers(-2, 200)))]


# the lines that name what exit 1 reports: a failed invariant, the routes'
# verdict or a dense sample
VIOLATION_LINES = ("invariant ", "routes DISAGREE", "dense sample")


def verify_failures_are_named(argv, out):
    """Whether verify printed failed rows, each a failed check or a level whose
    own build raises the very error the row reports."""
    failed = [line[len("[FAIL] ") :] for line in out.splitlines() if line.startswith("[FAIL] ")]
    for row in failed:
        name, _, detail = row.partition("  (")
        if not name.startswith("classification[") or detail.startswith("invariant "):
            continue
        try:
            build_report(level_from_string(name[len("classification[") : -1]), int(argv[-1]))
        except AdmzError as exc:
            if detail == f"{exc})":
                continue
        return False
    return bool(failed)


@settings(max_examples=60, deadline=None)
@given(argvs())
def test_exit_code_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with pytest.raises(SystemExit) as exc:
            main(argv)
    code, out, err = exc.value.code, out.getvalue(), err.getvalue()
    assert code in (0, 1, 2, 3), (argv, code, err)
    assert "Traceback" not in err, argv
    if argv[0] == "verify" and code in (0, 1):
        assert verify_failures_are_named(argv, out) == (code == 1), (argv, out, err)
    elif code == 1:
        assert any(line in out + err for line in VIOLATION_LINES), (argv, out, err)
