"""Exact sparse linear algebra over the rationals: RREF and kernel bases.

`rref` is one dense Fraction elimination (`_gauss_py.rref_rows`), the small
reference oracle.  `kernel_basis` is a sparse modular solver whose answer is
certified exactly:

1. each row is scaled by the lcm of its denominators, so the rows are integer;
2. for each prime of a fixed descending sequence of 62-bit primes, the sparse
   rows are reduced mod p to row echelon form: rows whose lowest column is
   highest go first, each row is reduced by every pivot it meets, and its
   lowest remaining column becomes a new pivot.  The pivot columns are then
   those of the RREF;
3. back-substitution from the highest pivot down gives, for each free column
   f, the kernel vector with 1 at f, 0 at every other free column and 0 at
   every pivot column right of f;
4. a prime is kept only while its (nullity, pivot columns) is the smallest
   seen, and a smaller pair restarts the accumulation.  The pair over Q is
   the smallest any prime can give: mod p the rank only drops, and a lost
   pivot moves right;
5. the kept residues are combined by CRT and lifted by Wang rational
   reconstruction in its maximal-quotient form;
6. each lifted vector must satisfy m v = 0 exactly (a sparse Fraction
   matvec), else the next prime is added.  Only then is each vector scaled
   so that its first nonzero coordinate is 1.

The certificate is complete.  A certified vector of that shape puts column f
in the span of the columns left of f, so f is free over Q; there are as many
vectors as the smallest nullity mod p, which is at least the nullity over Q.
So the vectors are exactly the canonical kernel basis over Q, and no answer
depends on a prime being lucky.  The row order was chosen by measurement: on
the vacuum singular systems it eliminates 3-8x faster than shortest rows
first (0.01 s against 0.04 s per prime at k=-1/3, 0.04 s against 0.3 s at
k=7/2).
"""

from __future__ import annotations

import heapq
from collections.abc import Iterator
from fractions import Fraction
from math import gcd, lcm

from . import _gauss_py
from .errors import InvalidInputError


class RationalMatrix:
    """Sparse exact matrix: entries maps (row, col) to nonzero Fractions."""

    __slots__ = ("nrows", "ncols", "entries")

    def __init__(self, nrows: int, ncols: int, entries=None):
        if nrows < 0 or ncols < 0:
            raise InvalidInputError("matrix dimensions must be nonnegative")
        self.nrows = nrows
        self.ncols = ncols
        clean = {}
        for (r, c), v in (entries or {}).items():
            if not (0 <= r < nrows and 0 <= c < ncols):
                raise InvalidInputError(f"entry ({r},{c}) outside {nrows}x{ncols}")
            v = Fraction(v)
            if v:
                clean[(r, c)] = v
        self.entries = clean

    @classmethod
    def from_rows(cls, rows) -> "RationalMatrix":
        rows = [list(r) for r in rows]
        nrows = len(rows)
        ncols = len(rows[0]) if rows else 0
        entries = {}
        for i, row in enumerate(rows):
            if len(row) != ncols:
                raise InvalidInputError("ragged rows")
            for j, v in enumerate(row):
                if v:
                    entries[(i, j)] = Fraction(v)
        return cls(nrows, ncols, entries)

    @classmethod
    def vstack(cls, top: "RationalMatrix", bottom: "RationalMatrix") -> "RationalMatrix":
        if top.ncols != bottom.ncols:
            raise InvalidInputError("column mismatch in vstack")
        entries = dict(top.entries)
        for (r, c), v in bottom.entries.items():
            entries[(r + top.nrows, c)] = v
        return cls(top.nrows + bottom.nrows, top.ncols, entries)

    def to_rows(self) -> list[list[Fraction]]:
        rows = [[Fraction(0)] * self.ncols for _ in range(self.nrows)]
        for (r, c), v in self.entries.items():
            rows[r][c] = v
        return rows

    def matvec(self, vec) -> list[Fraction]:
        if len(vec) != self.ncols:
            raise InvalidInputError("vector length mismatch")
        out = [Fraction(0)] * self.nrows
        for (r, c), v in self.entries.items():
            if vec[c]:
                out[r] += v * vec[c]
        return out

    def __eq__(self, other):
        if not isinstance(other, RationalMatrix):
            return NotImplemented
        return (
            self.nrows == other.nrows
            and self.ncols == other.ncols
            and self.entries == other.entries
        )

    def __repr__(self):
        return f"RationalMatrix({self.nrows}x{self.ncols}, nnz={len(self.entries)})"


def rref(m: RationalMatrix) -> tuple[RationalMatrix, int]:
    """Canonical reduced row echelon form and rank, exact."""
    rows = m.to_rows()
    pivots = _gauss_py.rref_rows(rows, m.ncols)
    entries = {}
    for i, row in enumerate(rows):
        for j, v in enumerate(row):
            if v:
                entries[(i, j)] = v
    return RationalMatrix(m.nrows, m.ncols, entries), len(pivots)


def kernel_basis(m: RationalMatrix) -> list[tuple[Fraction, ...]]:
    """Deterministic exact basis of the right kernel.

    One vector per free column of the RREF, ascending; each vector scaled so
    its first nonzero coordinate is 1.  Computed mod a sequence of primes,
    lifted by CRT and Wang rational reconstruction, and returned only once
    every vector satisfies m v = 0 exactly (see the module docstring).
    """
    rows = _integer_rows(m)
    best = None
    for p in primes():
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
        if all(v is not None and not any(m.matvec(v)) for v in basis):
            return [_first_entry_one(v) for v in basis]


def primes() -> Iterator[int]:
    """The deterministic sequence of primes below 2**62, descending."""
    n = (1 << 62) - 1
    while True:
        if _is_prime(n):
            yield n
        n -= 2


# Miller-Rabin with these bases is exact below 3.3e24 > 2**62.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n: int) -> bool:
    if any(n % b == 0 for b in _MR_BASES):
        return n in _MR_BASES
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _integer_rows(m: RationalMatrix) -> list[dict[int, int]]:
    """Nonzero rows as {col: int}, each scaled by the lcm of its denominators."""
    rows: dict[int, dict[int, Fraction]] = {}
    for (r, c), v in m.entries.items():
        rows.setdefault(r, {})[c] = v
    out = []
    for r in sorted(rows):
        row = rows[r]
        scale = lcm(*(v.denominator for v in row.values()))
        out.append({c: v.numerator * (scale // v.denominator) for c, v in row.items()})
    return out


def _kernel_mod(
    rows: list[dict[int, int]], ncols: int, p: int
) -> tuple[tuple[int, ...], list[list[int]]]:
    """Pivot columns and canonical kernel basis of the integer rows mod p."""
    echelon: dict[int, dict[int, int]] = {}  # pivot col -> row, 1 at the pivot
    for row in sorted(rows, key=min, reverse=True):
        r = {c: x for c, v in row.items() if (x := v % p)}
        todo = [c for c in r if c in echelon]
        heapq.heapify(todo)
        # Eliminating pivot c only adds columns right of c, so popping the
        # lowest pending pivot first visits each column at most once.
        while todo:
            c = heapq.heappop(todo)
            a = r.pop(c, 0)
            if not a:
                continue
            for j, b in echelon[c].items():
                if j == c:
                    continue
                if j in r:
                    x = (r[j] - a * b) % p
                    if x:
                        r[j] = x
                    else:
                        del r[j]
                else:
                    r[j] = -a * b % p
                    if j in echelon:
                        heapq.heappush(todo, j)
        if r:
            c = min(r)
            inv = pow(r[c], -1, p)
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
                s = sum(b * vec[j] for j, b in echelon[c].items() if j != c)
                vec[c] = -s % p
        kernel.append(vec)
    return pivots, kernel


def _crt_into(acc: list[int], modulus: int, vec: list[int], p: int) -> None:
    """acc (mod modulus) becomes the residue mod modulus*p that is vec mod p."""
    inv = pow(modulus, -1, p)
    for i, (x, y) in enumerate(zip(acc, vec)):
        if (y - x) % p:
            acc[i] = x + modulus * ((y - x) * inv % p)


def _reconstruct(acc: list[int], modulus: int) -> list[Fraction] | None:
    """Rational reconstruction of each residue, or None if one fails.

    Wang's extended-Euclid reconstruction in Monagan's maximal-quotient form:
    the answer is the convergent before the largest partial quotient, kept
    only if that quotient exceeds a threshold of about 2**5 * log2(modulus).
    It needs |numerator| * denominator a little below the modulus, not both
    below its square root, so unbalanced coordinates lift from fewer primes.
    """
    threshold = modulus.bit_length() << 5
    out = []
    for u in acc:
        if not u:
            out.append(Fraction(0))
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
        out.append(Fraction(num, den))
    return out


def _first_entry_one(vec: list[Fraction]) -> tuple[Fraction, ...]:
    first = next(x for x in vec if x)
    return tuple(x / first for x in vec) if first != 1 else tuple(vec)
