"""Exact row reduction: the library's one elimination kernel.

Fraction-preserving Gaussian elimination with eager normalization and
deterministic pivoting (lowest column index, then lowest row index).
"""

from __future__ import annotations

from fractions import Fraction


def rref_rows(rows: list[list[Fraction]], ncols: int) -> list[int]:
    """Reduce rows in place to reduced row echelon form; returns pivot columns."""
    nrows = len(rows)
    pivots: list[int] = []
    pivot_row = 0
    for col in range(ncols):
        if pivot_row >= nrows:
            break
        sel = -1
        for r in range(pivot_row, nrows):
            if rows[r][col]:
                sel = r
                break
        if sel < 0:
            continue
        if sel != pivot_row:
            rows[sel], rows[pivot_row] = rows[pivot_row], rows[sel]
        prow = rows[pivot_row]
        pv = prow[col]
        if pv != 1:
            inv = 1 / pv
            for j in range(col, ncols):
                if prow[j]:
                    prow[j] *= inv
        nz = [j for j in range(col, ncols) if prow[j]]
        for r in range(nrows):
            if r == pivot_row:
                continue
            row = rows[r]
            factor = row[col]
            if factor:
                for j in nz:
                    row[j] -= factor * prow[j]
        pivots.append(col)
        pivot_row += 1
    return pivots
