"""Exact sparse linear algebra over the rationals: RREF and kernel bases.

Both are read off one dense Fraction elimination (`_gauss_py.rref_rows`)
with a deterministic pivot choice (lowest column index, then lowest row
index), so equal inputs give identical outputs.
"""

from __future__ import annotations

from fractions import Fraction

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


def _rref_dense(m: RationalMatrix) -> tuple[list[list[Fraction]], list[int]]:
    rows = m.to_rows()
    pivots = _gauss_py.rref_rows(rows, m.ncols)
    return rows, pivots


def rref(m: RationalMatrix) -> tuple[RationalMatrix, int]:
    """Canonical reduced row echelon form and rank, exact."""
    rows, pivots = _rref_dense(m)
    entries = {}
    for i, row in enumerate(rows):
        for j, v in enumerate(row):
            if v:
                entries[(i, j)] = v
    return RationalMatrix(m.nrows, m.ncols, entries), len(pivots)


def kernel_basis(m: RationalMatrix) -> list[tuple[Fraction, ...]]:
    """Deterministic exact basis of the right kernel.

    One vector per free column, ascending; each vector scaled so its first
    nonzero coordinate is 1.
    """
    rows, pivots = _rref_dense(m)
    pivot_set = set(pivots)
    basis = []
    for free in range(m.ncols):
        if free in pivot_set:
            continue
        vec = [Fraction(0)] * m.ncols
        vec[free] = Fraction(1)
        for i, p in enumerate(pivots):
            if rows[i][free]:
                vec[p] = -rows[i][free]
        for v in vec:
            if v:
                if v != 1:
                    vec = [x / v for x in vec]
                break
        basis.append(tuple(vec))
    return basis
