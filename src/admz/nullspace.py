"""Exact sparse linear algebra over the integers: certified kernel bases.

`kernel_basis` takes an `IntMatrix`, the sparse integer rows the vacuum
module's operator matrices are built as, and returns the canonical basis of
its right kernel over Q.  It is a sparse modular solver whose answer is
certified exactly:

1. the system is the matrix's nonempty rows, in row order, read in place;
2. for each prime p of `PRIMES` in turn, the sparse rows are reduced mod p
   to row echelon form: rows whose lowest column is highest go first, each
   row is reduced by every pivot it meets, and its lowest remaining column
   becomes a new pivot.  The pivot columns are then those of the RREF;
3. back-substitution from the highest pivot down gives, for each free column
   f, the kernel vector with 1 at f, 0 at every other free column and 0 at
   every pivot column right of f;
4. a prime is kept only while its (nullity, pivot columns) is the smallest
   seen, and a smaller pair restarts the accumulation from that prime.  The
   pair over Q is the smallest any prime can give: mod p the rank only
   drops, and a lost pivot moves right;
5. the kept residues are combined by CRT and lifted by Wang rational
   reconstruction in its maximal-quotient form;
6. each lifted vector, scaled to integers by the lcm of its denominators,
   must satisfy m v = 0 exactly (a sparse integer matvec), else the next
   prime is added.  Only then is each vector scaled so that its first
   nonzero coordinate is 1.

`PRIMES` is a fixed list of proven primes, ascending, each about twice the
bits of the one before.  The first certifies every vacuum singular system
measured, up to k=-1/4, and a failed lift about doubles the modulus for one
more elimination.  The list is also the cost cap: a kernel that its
8759-bit product cannot lift raises `ResourceCapError` (exit code 3).

The certificate is complete.  A certified vector of that shape puts column f
in the span of the columns left of f, so f is free over Q; there are as many
vectors as the smallest nullity mod p, which is at least the nullity over Q.
So the vectors are exactly the canonical kernel basis over Q, and no answer
depends on a prime being lucky.  The row order was chosen by measurement: on
the vacuum singular systems one elimination mod PRIMES[0] is 5-10x faster
than with shortest rows first (0.007 s against 0.033 s at k=-1/3, 0.030 s
against 0.29 s at k=7/2, medians of 5 on a shared 2-core Xeon).  The dense
Fraction RREF that the tests check this solver against is a test oracle.
"""

from __future__ import annotations

import heapq
from collections import namedtuple
from fractions import Fraction
from math import gcd, lcm

from .errors import ResourceCapError

# RFC 7748's field prime and four Mersenne primes, proven by Lucas-Lehmer.
PRIMES = (2**255 - 19, 2**521 - 1, 2**1279 - 1, 2**2281 - 1, 2**4423 - 1)


class IntMatrix(namedtuple("IntMatrix", "ncols rows")):
    """Sparse integer matrix as rows: rows[i] maps col to a nonzero int.

    The rows are the one copy of the system: a stacked system shares the
    row dicts of its parts, and `kernel_basis` reads them as they are and
    reduces a copy of each row mod each prime.
    """

    __slots__ = ()

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def entries(self) -> dict:
        """A fresh {(row, col): value} dict, built on each access."""
        return {(i, c): v for i, row in enumerate(self.rows) for c, v in row.items()}


def kernel_basis(m: IntMatrix) -> list[tuple[Fraction, ...]]:
    """Deterministic exact basis of the right kernel.

    One vector per free column of the RREF, ascending; each vector scaled so
    its first nonzero coordinate is 1.  Computed mod the primes of `PRIMES`,
    lifted by CRT and Wang rational reconstruction, and returned only once
    every vector satisfies m v = 0 exactly (see the module docstring);
    ResourceCapError if the list runs out first.
    """
    rows = [row for row in m.rows if row]
    best = None
    for p in PRIMES:
        pivots, kernel = _kernel_mod(rows, m.ncols, p)
        key = (len(kernel), pivots)
        if best is None or key < best:
            best, modulus, residues = key, 1, [[0] * m.ncols for _ in kernel]
        elif key > best:
            continue
        for acc, vec in zip(residues, kernel):
            _crt_into(acc, modulus, vec, p)
        modulus *= p
        basis = [_reconstruct(acc, modulus) for acc in residues]
        if all(v is not None and _annihilates(rows, v) for v in basis):
            return [_first_entry_one(v) for v in basis]
    raise ResourceCapError(f"kernel basis not certified by a {modulus.bit_length()}-bit modulus")


def _kernel_mod(
    rows: list[dict[int, int]], ncols: int, p: int
) -> tuple[tuple[int, ...], list[list[int]]]:
    """Pivot columns and canonical kernel basis of the integer rows mod p."""
    echelon: dict[int, dict[int, int]] = {}  # pivot col -> row right of it; 1 at the pivot
    for row in sorted(rows, key=min, reverse=True):
        r = dict(row)
        todo = [c for c in r if c in echelon]
        heapq.heapify(todo)
        # Eliminating pivot c only adds columns right of c, so popping the
        # lowest pending pivot first visits each column once, and finds it in
        # r.  An entry is reduced mod p only when popped and after the loop.
        while todo:
            c = heapq.heappop(todo)
            a = r.pop(c) % p
            if not a:
                continue
            for j, b in echelon[c].items():
                if j not in r and j in echelon:
                    heapq.heappush(todo, j)
                r[j] = r.get(j, 0) - a * b
        r = {j: y for j, x in r.items() if (y := x % p)}
        if r:
            c = min(r)
            inv = pow(r.pop(c), -1, p)
            echelon[c] = {j: x * inv % p for j, x in r.items()}
    pivots = tuple(sorted(echelon))
    kernel = []
    for free in range(ncols):
        if free in echelon:
            continue
        vec = [0] * ncols
        vec[free] = 1
        for c in reversed(pivots):
            if c < free:
                s = sum(b * vec[j] for j, b in echelon[c].items())
                vec[c] = -s % p
        kernel.append(vec)
    return pivots, kernel


def _crt_into(acc: list[int], modulus: int, vec: list[int], p: int) -> None:
    """acc (mod modulus) becomes the residue mod modulus*p that is vec mod p."""
    inv = pow(modulus, -1, p)
    for i, (x, y) in enumerate(zip(acc, vec)):
        if (y - x) % p:
            acc[i] = x + modulus * ((y - x) * inv % p)


def _reconstruct(acc: list[int], modulus: int) -> list[int] | None:
    """Rational reconstruction of each residue, cleared to a common
    denominator: the integer vector D*x for the lifted x and D the lcm of its
    denominators.  None if one residue fails to lift.

    Wang's extended-Euclid reconstruction in Monagan's maximal-quotient form:
    the answer is the convergent before the largest partial quotient, kept
    only if that quotient exceeds a threshold of about 2**5 * log2(modulus).
    It needs |numerator| * denominator a little below the modulus, not both
    below its square root, so unbalanced coordinates lift from fewer primes.
    """
    threshold = modulus.bit_length() << 5
    lifted = []
    for u in acc:
        if not u:
            lifted.append((0, 1))
            continue
        r0, r1, s0, s1 = modulus, u, 0, 1
        best, num, den = threshold, 0, 0
        while r1 and r0 > best:
            q = r0 // r1
            if q > best:
                best, num, den = q, r1, s1
            r0, r1, s0, s1 = r1, r0 - q * r1, s1, s0 - q * s1
        if not den or gcd(num, den) != 1:
            return None
        lifted.append((num, den))
    scale = lcm(*(den for _, den in lifted))
    return [num * (scale // den) for num, den in lifted]


def _annihilates(rows: list[dict[int, int]], vec: list[int]) -> bool:
    """Whether every integer row is orthogonal to vec: the exact certificate."""
    return not any(sum(v * vec[c] for c, v in row.items()) for row in rows)


def _first_entry_one(vec: list[int]) -> tuple[Fraction, ...]:
    first = next(x for x in vec if x)
    return tuple(Fraction(x, first) for x in vec)
