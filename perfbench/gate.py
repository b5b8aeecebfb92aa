"""Correctness gate for benchmark operations, written without the library.

Every fact checked here is recomputed from the level's (p, q) with plain
`fractions.Fraction` arithmetic, so a wrong answer from `admz` cannot also
corrupt the check that judges it.
"""

from __future__ import annotations

import hashlib
import json
import re
from fractions import Fraction

# The report fields that carry mathematics; a digest of these is pinned per
# level.  Fields added to the report later (timings, stats) do not enter it.
DIGEST_FIELDS = ("S", "p1", "p2", "p2_mff", "singular_vector", "Q", "families")

_TERM_RE = re.compile(r"^([+-]?)(\d+(?:/\d+)?)?\*?(h(?:\^(\d+))?)?$")


def level_pq(text: str) -> tuple[int, int]:
    k = Fraction(text)
    return k.numerator, k.denominator


def expected_S(p: int, q: int) -> list[Fraction]:
    """S = {N - i*t - j : 0 <= i <= q-1, 1 <= j <= N} with t = p/q + 2, N = 2q+p-1."""
    t = Fraction(p, q) + 2
    N = 2 * q + p - 1
    return [N - i * t - j for i in range(q) for j in range(1, N + 1)]


def parse_poly(text: str) -> list[Fraction]:
    """Ascending coefficients of a polynomial in h written as signed terms."""
    compact = text.replace(" ", "")
    terms = re.findall(r"[+-]?[^+-]+", compact)
    if not terms or "".join(terms) != compact:
        raise ValueError(f"cannot parse polynomial {text!r}")
    coeffs: dict[int, Fraction] = {}
    for term in terms:
        m = _TERM_RE.match(term)
        if not m or (m.group(2) is None and m.group(3) is None):
            raise ValueError(f"cannot parse polynomial term {term!r}")
        c = Fraction(m.group(2)) if m.group(2) else Fraction(1)
        if m.group(1) == "-":
            c = -c
        power = (int(m.group(4)) if m.group(4) else 1) if m.group(3) else 0
        coeffs[power] = coeffs.get(power, Fraction(0)) + c
    out = [Fraction(0)] * (max(coeffs) + 1)
    for power, c in coeffs.items():
        out[power] = c
    while out and out[-1] == 0:
        out.pop()
    return out


def poly_text(coeffs: list[Fraction]) -> str:
    """Inverse of parse_poly (not the library's layout, which it need not match)."""
    parts = [f"{'+' if c > 0 else '-'}{abs(c)}*h^{i}" for i, c in enumerate(coeffs) if c]
    return " ".join(parts) or "0"


def poly_eval(coeffs: list[Fraction], x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _vanishes_exactly_on(coeffs: list[Fraction], roots: list[Fraction]) -> bool:
    """Degree |roots| with every root a zero: then these are all its zeros."""
    return len(coeffs) - 1 == len(roots) and all(poly_eval(coeffs, r) == 0 for r in roots)


def report_digest(report: dict) -> str:
    body = {key: report.get(key) for key in DIGEST_FIELDS}
    text = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def check_report(level: str, report: dict, pinned_digest: str | None) -> list[str]:
    """Problems with one `admz classify --format json` report; [] if it passes."""
    p, q = level_pq(level)
    S = expected_S(p, q)
    problems = []
    try:
        got_S = [Fraction(x) for x in report["S"]]
        if len(got_S) != len(S) or set(got_S) != set(S):
            problems.append("S differs from {N - i*t - j}")
        if not _vanishes_exactly_on(parse_poly(report["p1"]), S):
            problems.append("p1 does not vanish exactly on S")
        if not _vanishes_exactly_on(parse_poly(report["p2"]), [-r for r in S]):
            problems.append("p2 does not vanish exactly on -S")
        if Fraction(report["p2_route_constant"]) == 0:
            problems.append("p2_route_constant is zero")
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        problems.append(f"malformed report: {exc!r}")
    if pinned_digest is None:
        problems.append(f"no pinned digest for level {level}")
    elif report_digest(report) != pinned_digest:
        problems.append("digest of the mathematical fields changed")
    return problems


def t_member(S: list[Fraction], r: Fraction, mu: Fraction) -> bool:
    """(r, mu) in T: r in S minus Z+, mu not in Z, r - mu not in Z."""
    if mu.denominator == 1 or (r - mu).denominator == 1:
        return False
    if r.denominator == 1 and r >= 0:
        return False
    return r in S


def count_dense_failures(queries, answers, S_of) -> int:
    """Dense answers that disagree with T-membership (missing answers fail too)."""
    failed = max(0, len(queries) - len(answers))
    for (level, r, mu), answer in zip(queries, answers):
        if answer is not t_member(S_of[level], Fraction(r), Fraction(mu)):
            failed += 1
    return failed


def catches_moved_root(level: str, report: dict, pinned_digest: str) -> bool:
    """Self-test: a passing report with one root of p2 moved must fail the gate
    on the root check itself, not only on the digest."""
    root = -expected_S(*level_pq(level))[0]
    quotient, acc = [], Fraction(0)
    for c in reversed(parse_poly(report["p2"])):  # synthetic division by (h - root)
        acc = acc * root + c
        quotient.append(acc)
    quotient.pop()
    quotient.reverse()
    moved = root + Fraction(1, 7)
    altered = [Fraction(0)] + quotient  # (h - moved) * quotient
    for i, c in enumerate(quotient):
        altered[i] -= moved * c
    bad = dict(report, p2=poly_text(altered))
    return "p2 does not vanish exactly on -S" in check_report(level, bad, pinned_digest)


def catches_flipped_answer(queries, answers, S_of) -> bool:
    """Self-test: passing dense answers with the first one flipped must count
    as exactly one failed operation."""
    flipped = [not answers[0]] + list(answers[1:])
    return count_dense_failures(queries, flipped, S_of) == 1
