"""Dense GF(2^k) linear algebra on row tuples: the test oracles.

Gauss-Jordan elimination, null spaces, solves and products over GF(2^k),
written entry by entry with `GF.mul` and `GF.inv`.  They are the dense
algorithms that the packed F2 restriction of scalars replaced (`Subspace`,
`f2_eliminate`, the packed catalog matrices), and they stay here as the
reference those are checked against.  A matrix is a sequence of row tuples.
"""
from __future__ import annotations

from lie2.field import GF


def gf_scale(gf: GF, c: int, row) -> list:
    return [gf.mul(c, x) for x in row]


def dense_rref(gf: GF, rows, ncols: int):
    """Gauss-Jordan over GF(2^k) on row lists: the reduced rows (zero rows
    dropped) and their pivot columns."""
    rows = [list(r) for r in rows]
    pivots = []
    rix = 0
    for col in range(ncols):
        sel = next((i for i in range(rix, len(rows)) if rows[i][col]), None)
        if sel is None:
            continue
        rows[rix], rows[sel] = rows[sel], rows[rix]
        rows[rix] = gf_scale(gf, gf.inv(rows[rix][col]), rows[rix])
        for i in range(len(rows)):
            if i != rix and rows[i][col]:
                rows[i] = [x ^ y for x, y in zip(rows[i], gf_scale(gf, rows[i][col], rows[rix]))]
        pivots.append(col)
        rix += 1
    return tuple(tuple(r) for r in rows[:rix]), tuple(pivots)


def dense_combo(gf: GF, rows, coeffs, ncols: int) -> tuple:
    out = [0] * ncols
    for c, row in zip(coeffs, rows):
        out = [x ^ y for x, y in zip(out, gf_scale(gf, c, row))]
    return tuple(out)


def dense_reduce(gf: GF, rows, pivots, v) -> tuple:
    v = list(v)
    for row, p in zip(rows, pivots):
        if v[p]:
            v = [x ^ y for x, y in zip(v, gf_scale(gf, v[p], row))]
    return tuple(v)


def dense_null_space(gf: GF, rows, ncols: int) -> list:
    """Free-column basis of the null space of the matrix with these rows."""
    red, pivots = dense_rref(gf, rows, ncols)
    out = []
    for f in (c for c in range(ncols) if c not in pivots):
        v = [0] * ncols
        v[f] = 1
        for row, p in zip(red, pivots):
            v[p] = row[f]
        out.append(tuple(v))
    return out


def dense_solve(gf: GF, rows, ncols: int, b):
    """The solution of M x = b with every free variable 0, or None."""
    red, pivots = dense_rref(gf, [tuple(r) + (c,) for r, c in zip(rows, b)], ncols + 1)
    if pivots and pivots[-1] == ncols:
        return None
    x = [0] * ncols
    for row, p in zip(red, pivots):
        x[p] = row[ncols]
    return tuple(x)


def dense_express(gf: GF, cols, v):
    """Coordinates y with sum_j y_j cols[j] = v and every free one 0, or
    None when v is outside the span of the columns."""
    rows = list(zip(*cols)) or [()] * len(v)
    return dense_solve(gf, rows, len(cols), v)


def dense_mul(gf: GF, a, b, ncols: int) -> tuple:
    """The product of a and b, whose rows have ncols entries."""
    return tuple(dense_combo(gf, b, row, ncols) for row in a)
