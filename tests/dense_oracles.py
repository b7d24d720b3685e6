"""Dense GF(2^k) linear algebra on row tuples: the test oracles.

Gauss-Jordan elimination, null spaces, solves and products over GF(2^k),
written entry by entry with `GF.mul` and `GF.inv`.  They are the dense
algorithms that the packed F2 restriction of scalars replaced (`Subspace`,
`f2_eliminate`, the packed catalog matrices), and they stay here as the
reference those are checked against.  A matrix is a sequence of row tuples.

`coefficient_vectors` and `subspace_vectors` enumerate every coordinate
tuple and every vector of a span, for sweeps over tiny spaces.

`gf_mul_arrays` and `gf_jacobi_mask` are the census Jacobi mask over
GF(2^k) that the bit-sliced census kernel replaced: one array per
structure constant, products taken elementwise by shift-and-add.
`sample_coefficients` reads its input, the sampled structure constants,
from the census stream.  `jacobi_mask` and `census_sampled` are
full-size-mask and row-major F2 entry points to the census kernel itself
(`search._jacobi_positions` and `search._census_planes`), for tests that
compare it with scalar checks.

`sweep_is_torus` is the torus test that `toruscartan.is_torus` replaced:
it squares each basis row with `two_map_eval`, checks injectivity by the
GF rank of those squares, and picks a toral basis by sweeping every vector
of the subspace.
"""
from __future__ import annotations

from itertools import combinations, product

import numpy as np

from lie2.errors import BudgetExceeded, NotTwoMapClosed
from lie2.field import GF, GF2, Subspace, pack_bits, vec_is_zero
from lie2.restricted import two_map_eval
from lie2.search import (_census_planes, _jacobi_positions, bytes_from_words,
                         pair_index, splitmix64_words)
from lie2.toruscartan import Torus, TorusReport


def coefficient_vectors(gf: GF, d: int):
    """All d-tuples over gf, in ascending order of sum_i c[i] q^i."""
    return (c[::-1] for c in product(gf.elements(), repeat=d))


def subspace_vectors(s: Subspace):
    """Every vector in the span of s; feasible only for tiny spaces."""
    return map(s.combo, coefficient_vectors(s.gf, s.dim))


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


def sweep_is_torus(ra, s: Subspace) -> TorusReport:
    """The verdicts of `is_torus`, from the squares and brackets of the rows."""
    alg = ra.algebra
    squares = [two_map_eval(ra, a) for a in s.rows]
    for i, a in enumerate(s.rows):
        if not s.contains(squares[i]):
            raise NotTwoMapClosed(f"square of basis row {i} leaves the subspace")
        for b in s.rows[i + 1:]:
            if not s.contains(alg.bracket(a, b)):
                raise NotTwoMapClosed("bracket of basis rows leaves the subspace")
    abelian = all(vec_is_zero(alg.bracket(a, b))
                  for i, a in enumerate(s.rows) for b in s.rows[i + 1:])
    if not abelian:
        return TorusReport(False, False, False, None)
    if s.dim == 0:
        return TorusReport(True, True, True, Torus(s, ()))
    if Subspace(alg.gf, s.ambient, squares).dim < s.dim:
        return TorusReport(False, True, False, None)
    return TorusReport(True, True, True, Torus(s, sweep_toral_basis(ra, s, squares)))


def sweep_toral_basis(ra, s: Subspace, squares):
    """Fixpoints of s taken greedily in the order of `Subspace.vectors`,
    each one outside the span of those before; None when they span less
    than s.  Over F2 squaring is linear on s, so its fixpoints span s only
    when it is the identity.  Raises BudgetExceeded above 2^16 vectors."""
    gf = ra.algebra.gf
    if gf.degree == 1:
        return s.rows if tuple(squares) == s.rows else None
    d = s.dim
    if gf.order ** d > 1 << 16:
        raise BudgetExceeded("fixpoint sweep of the subspace is too large")
    chosen = []
    span = Subspace(gf, s.ambient)
    for v in subspace_vectors(s):
        if vec_is_zero(v) or span.contains(v):
            continue
        if two_map_eval(ra, v) == v:
            chosen.append(v)
            span = span.add_packed(pack_bits(v, gf.degree))
            if span.dim == d:
                return tuple(chosen)
    return None


def gf_mul_arrays(a: np.ndarray, b: np.ndarray, gf: GF) -> np.ndarray:
    """Elementwise product in gf of two unsigned arrays, by shift-and-add.

    Bit t of b adds alpha^t a; the step to the next power of alpha is the
    one field.alpha_map takes: shift up a bit and add the modulus (minus
    its leading term) on carry-out.
    """
    k, low = gf.degree, gf.modulus ^ gf.order
    keep = (gf.order >> 1) - 1
    out = np.zeros_like(a)
    for t in range(k):
        out ^= a * ((b >> t) & 1)
        if t < k - 1:
            a = ((a & keep) << 1) ^ ((a >> (k - 1)) * low)
    return out


def sample_coefficients(gf: GF, n: int, seed: int, start: int,
                        count: int) -> np.ndarray:
    """Bracket coefficients of sampled tables over gf, shape (pairs, n, count).

    Each coefficient takes one byte of the stream (two, little end first,
    above degree 8) and keeps its low k bits.
    """
    npairs = n * (n - 1) // 2
    per = 1 if gf.degree <= 8 else 2
    nbytes = npairs * n * per
    words = splitmix64_words(seed, start, count, (nbytes + 7) // 8)
    rows = bytes_from_words(words, nbytes)
    vals = (rows if per == 1 else rows.view("<u2")) & (gf.order - 1)
    return np.ascontiguousarray(vals.T).reshape(npairs, n, count)


def gf_jacobi_mask(c: np.ndarray, n: int, gf: GF) -> np.ndarray:
    """Jacobi verdict per candidate; c[p, m] holds coordinate m of the bracket
    of pair p over gf, one array slot per candidate.

    For every basis triple and output coordinate o the residual is the XOR
    of c_ij^m c_mk^o over m, summed over the three cyclic terms.
    """
    ok = np.ones(c.shape[2], dtype=bool)
    for i, j, k in combinations(range(n), 3):
        terms = ((pair_index(i, j, n), k), (pair_index(j, k, n), i),
                 (pair_index(i, k, n), j))
        for o in range(n):
            acc = np.zeros(c.shape[2], dtype=c.dtype)
            for p, r in terms:
                for m in range(n):
                    if m != r:
                        q = pair_index(min(m, r), max(m, r), n)
                        acc ^= gf_mul_arrays(c[p, m], c[q, o], gf)
            ok &= acc == 0
    return ok


def jacobi_mask(b, n: int, size: int) -> np.ndarray:
    """Jacobi verdict for each of `size` candidates with bracket fields b;
    each field is a uint8 array, or a uint8 scalar shared by every
    candidate."""
    ok = np.zeros(size, dtype=bool)
    ok[_jacobi_positions(b, n, size)] = True
    return ok


def census_sampled(n: int, rows: np.ndarray):
    """Scan sampled tables over F2, one uint8 row of fields each.

    Returns (scanned, Jacobi passes, indices of the simple rows).
    """
    jac, simple = _census_planes(GF2, n, np.ascontiguousarray(rows.T))
    return rows.shape[0], jac, [pos for pos, _alg in simple]
