"""Command-line surface: classify, singular, zhu-poly, check-dense, verify.

Exit codes are a stable contract: 0 success, 1 property violation, 2 invalid
input, 3 resource cap exceeded.  Levels are exact "p/q" strings (never
decimals); the weight-space dimension cap comes from --max-dim, falling back
to the ADMZ_MAX_WEIGHT_DIM environment variable, then to 20000.
"""

from __future__ import annotations

import json
import sys

import click

from . import weight_modules, zhu
from .errors import (
    ConsistencyError,
    InvalidInputError,
    ResourceCapError,
)
from .exact_core import format_scalar, parse_scalar
from .verify import (
    POMOC_S_VALUES,
    suite_algebra,
    suite_classification,
    suite_lemmas,
)

EXIT_VIOLATION = 1
EXIT_INVALID = 2
EXIT_RESOURCE = 3

_level_option = click.option("--level", required=True, help='Exact level "p/q".')
_max_dim_option = click.option(
    "--max-dim",
    type=int,
    default=None,
    help="Weight-space dimension cap; also bounds the mff route's product.",
)
_format_option = click.option(
    "--format", "fmt", type=click.Choice(["text", "json"]), default="text"
)


@click.group()
def cli():
    """Exact classification of irreducible modules over simple affine sl2
    vertex algebras at admissible rational levels."""


@cli.command()
@_level_option
@_format_option
@_max_dim_option
def classify(level, fmt, max_dim):
    """Full classification report for one admissible level."""
    lv = zhu.level_from_string(level)
    report = zhu.classify_category_O(lv, max_dim)
    families = weight_modules.classify_weight_modules(report, max_dim)
    if fmt == "json":
        click.echo(json.dumps({**report.to_dict(), "families": families}, indent=2))
        return
    click.echo(f"level k = {lv} (p={lv.p}, q={lv.q}, t={lv.t}, N={lv.N}, l={lv.l})")
    click.echo("S = {" + ", ".join(format_scalar(r) for r in report.S) + "}")
    click.echo(f"P^k: {len(report.Pk)} weights, h-values match S")
    click.echo(f"singular vector: {report.singular_vector.to_text()}")
    click.echo(f"Q = {report.Q.to_text()}")
    click.echo(f"p1 = {report.p1.to_text()}")
    click.echo(f"p2 = {report.p2.to_text()}")
    click.echo(
        f"p2 (closed form) = {report.p2_mff.to_text()}"
        f"   [proportional, constant {format_scalar(report.p2_route_constant)}]"
    )
    click.echo("irreducible weight modules:")
    for fam in families:
        rs = ", ".join(fam["r_values"]) or "(empty)"
        click.echo(f"  {fam['modules']}: {fam['condition']}; r in {{{rs}}}")


@cli.command()
@_level_option
@click.option(
    "--method",
    type=click.Choice(["nullspace", "mff", "both"]),
    default="both",
    show_default=True,
)
@_max_dim_option
def singular(level, method, max_dim):
    """Singular vector and/or its closed-form projection; cross-route verdict."""
    lv = zhu.level_from_string(level)
    if method in ("nullspace", "both"):
        v = zhu.singular_vector_nullspace(lv, max_dim)
        click.echo(f"v_sing = {v.to_text()}")
    if method in ("mff", "both"):
        eps = zhu.mff_epsilon(lv, max_dim)
        click.echo(f"projected closed form = {eps.to_text()}")
    if method == "both":
        p2a = zhu.compute_p2(lv, zhu.NULLSPACE_ROUTE, max_dim)
        p2b = zhu.compute_p2(lv, zhu.MFF_ROUTE, max_dim)
        const = zhu.route_constant(p2a, p2b)
        click.echo(f"p2 via nullspace = {p2a.to_text()}")
        click.echo(f"p2 via mff       = {p2b.to_text()}")
        if const is None:
            click.echo("routes DISAGREE")
            raise ConsistencyError("p2 routes are not proportional")
        click.echo(f"routes proportional, constant {format_scalar(const)}")


@cli.command("zhu-poly")
@_level_option
@_format_option
@_max_dim_option
def zhu_poly(level, fmt, max_dim):
    """Classifying polynomials p1/p2 with root analysis against S."""
    lv = zhu.level_from_string(level)
    p1 = zhu.compute_p1(lv, max_dim)
    p2 = zhu.compute_p2(lv, zhu.NULLSPACE_ROUTE, max_dim)
    S = zhu.set_S(lv)  # after the solve has passed its caps
    roots1, ok1 = zhu.simple_roots(p1, S)
    roots2, ok2 = zhu.simple_roots(p2, [-r for r in S])
    ok = ok1 and ok2
    if fmt == "json":
        click.echo(
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
        click.echo(f"p1 = {p1.to_text()}")
        click.echo(f"p2 = {p2.to_text()}")
        click.echo("p1 roots = S:      " + ("yes" if ok1 else "NO"))
        click.echo("p2 roots = -S:     " + ("yes" if ok2 else "NO"))
    if not ok:
        raise ConsistencyError("classifying-polynomial roots do not match S")


@cli.command("check-dense")
@_level_option
@click.option("--r", "r_text", required=True, help="Exact rational r.")
@click.option("--mu", "mu_text", required=True, help="Exact rational mu.")
@_max_dim_option
def check_dense(level, r_text, mu_text, max_dim):
    """Membership in T versus annihilation of E(r,mu) by Q."""
    lv = zhu.level_from_string(level)
    params = weight_modules.DenseParams(r=parse_scalar(r_text), mu=parse_scalar(mu_text))
    annihilates = weight_modules.q_annihilates_E(lv, params, max_dim)
    member = weight_modules.is_T_member(lv, params)  # after the solve has passed its caps
    Q = zhu.compute_Q(lv, max_dim)
    profile = []
    for i in range(lv.N + 1):
        res = weight_modules.act_element_on_E(Q, params, i)
        profile.append(f"Q.E_{i} = {format_scalar(res.coefficient)} * E_{i + res.shift}")
    click.echo(f"member of T:    {member}")
    click.echo(f"Q annihilates:  {annihilates}")
    for line in profile:
        click.echo(line)
    if not params.is_irreducible:
        click.echo("note: (r,mu) not irreducible parameters; biconditional not applicable")
        return
    if member != annihilates:
        raise ConsistencyError("T-membership and Q-annihilation disagree")


@cli.command()
@click.option(
    "--suite",
    type=click.Choice(["algebra", "lemmas", "classification"]),
    required=True,
)
@click.option("--max-n", type=click.IntRange(min=1), default=5, show_default=True)
@click.option("--levels", default="1,-1/2", show_default=True, help="Comma-separated levels.")
@click.option("--samples", type=click.IntRange(min=1), default=120, show_default=True)
@_max_dim_option
def verify(suite, max_n, levels, samples, max_dim):
    """Run an invariant suite; exit 0 iff all checks pass."""
    if suite == "algebra":
        results = suite_algebra(samples=samples)
    elif suite == "lemmas":
        results = suite_lemmas(max_n=max_n, s_values=POMOC_S_VALUES)
    else:
        level_list = [s.strip() for s in levels.split(",") if s.strip()]
        if not level_list:
            raise InvalidInputError(f"--levels names no level: {levels!r}")
        results = suite_classification(level_list, max_dim)
    failed = [r for r in results if not r.passed]
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        detail = f"  ({r.detail})" if r.detail else ""
        click.echo(f"[{status}] {r.name}{detail}")
    if failed:
        raise ConsistencyError(f"{len(failed)} verification check(s) failed")


def main(argv=None):
    try:
        cli.main(args=argv, standalone_mode=False)
    except click.exceptions.Abort:
        sys.exit(EXIT_INVALID)
    except click.ClickException as exc:
        exc.show()
        sys.exit(EXIT_INVALID)
    except InvalidInputError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_INVALID)
    except ResourceCapError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_RESOURCE)
    except ConsistencyError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_VIOLATION)
    sys.exit(0)


if __name__ == "__main__":
    main()
