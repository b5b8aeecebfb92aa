"""Command-line surface: classify, singular, zhu-poly, check-dense, verify.

This is the one module that reads argv or the environment, and the one that
turns errors into exit codes.  Exit codes are a stable contract: 0 success,
1 property violation, 2 invalid input, 3 resource cap exceeded (each error
type carries its code, see errors.py), 141 (the shell's SIGPIPE status) a
closed output pipe.  Levels are exact "p/q" strings (never decimals).  The
weight-space dimension cap is resolved once, before any command runs: from
--max-dim, falling back to the ADMZ_MAX_WEIGHT_DIM environment variable,
then to 20000; the library takes it as an int argument.

Every call is its own process, so start-up is part of each command's cost:
the parser is stdlib argparse, and what only one command needs (verify's
suites) is imported inside that command.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import weight_modules, zhu
from .affine import DEFAULT_MAX_WEIGHT_DIM
from .errors import AdmzError, ConsistencyError, InvalidInputError
from .exact_core import format_scalar, parse_scalar, poly_proportional

EXIT_INVALID = 2
EXIT_PIPE = 141
MAX_DIM_ENV_VAR = "ADMZ_MAX_WEIGHT_DIM"


def resolve_max_dim(explicit: int | None) -> int:
    """Weight-space dimension cap: --max-dim, else the environment variable,
    else the default.  A cap below 1 is invalid input, not a cap that every
    weight space exceeds."""
    cap, env = explicit, os.environ.get(MAX_DIM_ENV_VAR)
    if cap is None:
        try:
            cap = int(env) if env else DEFAULT_MAX_WEIGHT_DIM
        except ValueError as exc:
            raise InvalidInputError(f"bad {MAX_DIM_ENV_VAR} value {env!r}") from exc
    if cap < 1:
        raise InvalidInputError(f"weight-space dimension cap must be at least 1, got {cap}")
    return cap


def classify(level, fmt, max_dim):
    """Full classification report for one admissible level."""
    lv = zhu.level_from_string(level)
    report = zhu.classify_category_O(lv, max_dim)
    # rendered before the O(N^2) dense samples, so a too-long number stops first
    if fmt == "json":
        out = report.to_dict()
        out["families"] = weight_modules.classify_weight_modules(report)
        print(json.dumps(out, indent=2))
        return
    lines = [
        f"level k = {lv} (p={lv.p}, q={lv.q}, t={lv.t}, N={lv.N}, l={lv.l})",
        "S = {" + ", ".join(format_scalar(r) for r in report.S) + "}",
        f"P^k: {len(report.Pk)} weights, h-values match S",
        f"singular vector: {report.singular_vector.to_text()}",
        f"Q = {report.Q.to_text()}",
        f"p1 = {report.p1.to_text()}",
        f"p2 = {report.p2.to_text()}",
        f"p2 (closed form) = {report.p2_mff.to_text()}"
        f"   [proportional, constant {format_scalar(report.p2_route_constant)}]",
        "irreducible weight modules:",
    ]
    for fam in weight_modules.classify_weight_modules(report):
        rs = ", ".join(fam["r_values"]) or "(empty)"
        lines.append(f"  {fam['modules']}: {fam['condition']}; r in {{{rs}}}")
    print("\n".join(lines))  # built whole first, so a too-long number prints nothing


def singular(level, method, max_dim):
    """Singular vector and/or its closed-form projection; cross-route verdict."""
    lv = zhu.level_from_string(level)
    lines = []
    if method in ("nullspace", "both"):
        lines.append(f"v_sing = {zhu.singular_vector_nullspace(lv, max_dim).to_text()}")
    if method in ("mff", "both"):
        lines.append(f"projected closed form = {zhu.mff_epsilon(lv, max_dim).to_text()}")
    if method == "both":
        p2a = zhu.compute_p2(zhu.compute_Q(lv, max_dim), lv.N)
        p2b = zhu.mff_p2(lv, max_dim)
        const = poly_proportional(p2a, p2b)
        lines += [f"p2 via nullspace = {p2a.to_text()}", f"p2 via mff       = {p2b.to_text()}"]
        if const is None:
            print("\n".join([*lines, "routes DISAGREE"]))
            raise ConsistencyError("p2 routes are not proportional")
        lines.append(f"routes proportional, constant {format_scalar(const)}")
    print("\n".join(lines))  # built whole first, so a too-long number prints nothing


def zhu_poly(level, fmt, max_dim):
    """Classifying polynomials p1/p2 with root analysis against S."""
    lv = zhu.level_from_string(level)
    Q = zhu.compute_Q(lv, max_dim)
    p1, p2 = zhu.compute_p1(Q, lv.N), zhu.compute_p2(Q, lv.N)
    S = zhu.set_S(lv)  # after the solve has passed its caps
    roots1, ok1 = zhu.simple_roots(p1, S)
    roots2, ok2 = zhu.simple_roots(p2, [-r for r in S])
    ok = ok1 and ok2
    if fmt == "json":
        print(
            json.dumps(
                {
                    "level": lv.to_dict(),
                    "S": [format_scalar(r) for r in S],
                    "p1": p1.to_text(),
                    "p2": p2.to_text(),
                    "p1_roots": {format_scalar(r): m for r, m in sorted(roots1.items())},
                    "p2_roots": {format_scalar(r): m for r, m in sorted(roots2.items())},
                    "roots_match": ok,
                },
                indent=2,
            )
        )
    else:
        print(f"p1 = {p1.to_text()}")
        print(f"p2 = {p2.to_text()}")
        print("p1 roots = S:      " + ("yes" if ok1 else "NO"))
        print("p2 roots = -S:     " + ("yes" if ok2 else "NO"))
    if not ok:
        raise ConsistencyError("classifying-polynomial roots do not match S")


def check_dense(level, r, mu, max_dim):
    """Membership in T versus annihilation of E(r,mu) by Q."""
    lv = zhu.level_from_string(level)
    params = weight_modules.DenseParams(r=parse_scalar(r), mu=parse_scalar(mu))
    Q = zhu.compute_Q(lv, max_dim)
    member = weight_modules.is_T_member(params, zhu.set_S(lv))  # after the solve's caps
    profile, annihilates = weight_modules.q_action_profile(Q, lv.N, params)
    lines = [f"Q.E_{i} = {format_scalar(c)} * E_{i - lv.N}" for i, c in enumerate(profile)]
    print(f"member of T:    {member}")
    print(f"Q annihilates:  {annihilates}")
    for line in lines:
        print(line)
    if not params.is_irreducible:
        print("note: (r,mu) not irreducible parameters; biconditional not applicable")
        return
    if member != annihilates:
        raise ConsistencyError("T-membership and Q-annihilation disagree")


def verify(suite, max_n, levels, max_dim):
    """Run an invariant suite; exit 0 iff all checks pass."""
    from .verify import suite_classification, suite_lemmas

    if suite == "lemmas":
        results = suite_lemmas(max_n=max_n)
    else:
        level_list = [s.strip() for s in levels.split(",") if s.strip()]
        if not level_list:
            raise InvalidInputError(f"--levels names no level: {levels!r}")
        results = suite_classification(level_list, max_dim)
    failed = [r for r in results if not r.passed]
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        detail = f"  ({r.detail})" if r.detail else ""
        print(f"[{status}] {r.name}{detail}")
    if failed:
        raise ConsistencyError(f"{len(failed)} verification check(s) failed")


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"{value} is not in the range x>=1")
    return value


_LEVEL = ("--level", {"required": True, "help": 'Exact level "p/q".'})
_FORMAT = ("--format", {"dest": "fmt", "choices": ["text", "json"], "default": "text"})
_MAX_DIM = (
    "--max-dim",
    {"type": int, "help": "Weight-space dimension cap; also bounds the mff route's epsilon."},
)

# (command, function, options); each function takes its options, and the
# --max-dim that every command ends with, as keywords
_COMMANDS = (
    ("classify", classify, (_LEVEL, _FORMAT)),
    (
        "singular",
        singular,
        (
            _LEVEL,
            ("--method", {"choices": ["nullspace", "mff", "both"], "default": "both"}),
        ),
    ),
    ("zhu-poly", zhu_poly, (_LEVEL, _FORMAT)),
    (
        "check-dense",
        check_dense,
        (
            _LEVEL,
            ("--r", {"required": True, "help": "Exact rational r."}),
            ("--mu", {"required": True, "help": "Exact rational mu."}),
        ),
    ),
    (
        "verify",
        verify,
        (
            ("--suite", {"choices": ["lemmas", "classification"], "required": True}),
            ("--max-n", {"type": _positive_int, "default": 5}),
            ("--levels", {"default": "1,-1/2", "help": "Comma-separated levels."}),
        ),
    ),
)

# the options that take a value
_VALUE_OPTIONS = frozenset(flag for _, _, options in _COMMANDS for flag, _ in (*options, _MAX_DIM))


def _parser() -> argparse.ArgumentParser:
    """One subparser per command.  Options may not be abbreviated, and help is
    --help alone, with no -h."""
    top = argparse.ArgumentParser(
        prog="admz",
        description="Exact classification of irreducible modules over simple affine sl2 "
        "vertex algebras at admissible rational levels.",
        add_help=False,
        allow_abbrev=False,
    )
    commands = top.add_subparsers(dest="command", metavar="COMMAND", required=True)
    parsers = [top]
    for name, run, options in _COMMANDS:
        doc = (run.__doc__ or "").partition("\n")[0]  # None under -OO
        sub = commands.add_parser(name, help=doc, description=doc, add_help=False, allow_abbrev=False)
        sub.set_defaults(run=run)
        for flag, kwargs in (*options, _MAX_DIM):
            sub.add_argument(flag, **kwargs)
        parsers.append(sub)
    for parser in parsers:
        parser.add_argument("--help", action="help", help="Show this message and exit.")
    return top


def _parse(argv: list[str]) -> dict:
    """The command's function and its options, as keywords.

    argparse reads a value such as -1/2 as an option, so each "--opt value" of
    a value option is joined into "--opt=value" first: the token after the
    option is its value, whatever it starts with.  A value "--" is refused
    here, because argparse would drop it and pass an empty list on."""
    parser = _parser()
    joined = []
    tokens = iter(argv[1:] if argv[:1] == ["--"] else argv)  # no-op before the command
    for token in tokens:
        if token == "--":  # the rest is positional; a no-op at the end
            rest = list(tokens)
            joined += [token, *rest] if rest else []
            break
        flag, eq, value = token.partition("=")
        if flag in _VALUE_OPTIONS:
            value = value if eq else next(tokens, "--")
            if value == "--":
                parser.error(f"argument {flag}: expected one argument")
            token = f"{flag}={value}"
        joined.append(token)
    options = vars(parser.parse_args(joined))
    del options["command"]
    options["max_dim"] = resolve_max_dim(options["max_dim"])  # every command, before its work
    return options


def main(argv=None):
    try:
        try:
            options = _parse(sys.argv[1:] if argv is None else argv)
            options.pop("run")(**options)
        finally:  # a pipe that stdout's buffer would fill only at shutdown fails here
            sys.stdout.flush()
    except KeyboardInterrupt:
        sys.exit(EXIT_INVALID)
    except BrokenPipeError:  # stdout to /dev/null, so the final flush stays silent
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(EXIT_PIPE)
    except AdmzError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(exc.exit_code)
    sys.exit(0)


if __name__ == "__main__":
    main()
