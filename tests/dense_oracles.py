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
from the census stream.  `jacobi_mask` is a full-size-mask entry point to
the census Jacobi kernel (`search._jacobi_positions`), and
`census_sampled` a row-major F2 entry point to `search._census_planes`,
which runs that kernel, re-checks every survivor on coefficient arrays
and decides simplicity; tests compare both with scalar checks.
`derived_rank_numpy` is the per-candidate F2 rank of the bracket planes
that the census span filter (`search._spans_all`) replaced.
`is_simple_full_sweep` is the simplicity sweep that `liealg.is_simple`
sped up: it closes the ideal of every projective seed, with no shortcut.
`gl_matrices_brute` is the GL(n, 2) enumeration that `field.gl_matrices`
replaced: it tries every code and keeps those that invert.
`gl_arrays_loop` is the per-matrix loop that numpy shifts replaced in
`search._gl_arrays`: the columns and inverse rows of every GL(n, 2) matrix.
`solve_last_field_dense` is the exhaustive scan's last-field solve on
full-size planes, one slot per low position (`dense_low_fields`), that
the outer-field loop of `search._solve_last_field` replaced.

`square_sweep` is the Gray-code sweep of x -> x^[2] over every packed
vector that `toruscartan._fixpoints` replaced with truth tables of
x^[2] + x; its fixpoints are the reference those are checked against.

`max_tori_reinsert` is the torus branch and bound before the clique
lemma: every node re-inserts all of its candidates into the chosen span to
bound each of them by the rank of the candidates left, and neither a
clique bound nor a count of the candidates left stops a node.  `max_tori`
must find its basis with at most its nodes.

`sweep_is_torus` is the torus test that `toruscartan.is_torus` replaced:
it squares each basis row with `two_map_eval`, checks injectivity by the
GF rank of those squares, and picks a toral basis by sweeping every vector
of the subspace.

`gl_orbit_patterns_canonical` is the GL3(F2) orbit enumeration that
`caseanalysis.enumerate_gl_orbit_patterns` replaced: it canonicalizes
every labelled pattern with `gl3_canonicalize_dims` and keeps each new one.

`basis_vec`, `f2_ideal_rank` and `two_power` are small conveniences that
only the tests use: a coordinate basis vector, the dimension of a packed
ideal closure, and the iterated 2-map.  `jacobi_residual` is the scalar
Jacobi sum [[x, y], z] + [[y, z], x] + [[z, x], y] of coordinate vectors.
"""
from __future__ import annotations

from itertools import combinations, product
from typing import Iterator, Tuple

import numpy as np

from lie2.caseanalysis import DimPattern, enumerate_labeled_patterns, gl3_canonicalize_dims
from lie2.errors import BudgetExceeded, NotTwoMapClosed
from lie2.field import (GF, GF2, Subspace, Vec, _invert_rows, alpha_map, alpha_multiples,
                        f2_reduce, gl_matrices, pack_bits, unpack_bits, vec_add, vec_is_zero)
from lie2.liealg import LieAlgebra, SimplicityReport, bit_positions, f2_ideal, transpose
from lie2.restricted import RestrictedAlgebra, two_map_eval
from lie2.search import (_add_terms, _census_planes, _jacobi_positions, _triple_terms,
                         bytes_from_words, pair_index, splitmix64_words)
from lie2.toruscartan import SWEEP_BUDGET, Torus, TorusReport, _commutation_graph, _fixpoints


def basis_vec(n: int, i: int) -> Vec:
    return tuple(1 if j == i else 0 for j in range(n))


def f2_ideal_rank(ad, n: int, seeds) -> int:
    """Dimension of the ideal generated by the packed seeds."""
    return len(f2_ideal(ad, n, seeds))


def jacobi_residual(alg: LieAlgebra, x, y, z) -> Vec:
    a = alg.bracket(alg.bracket(x, y), z)
    b = alg.bracket(alg.bracket(y, z), x)
    c = alg.bracket(alg.bracket(z, x), y)
    return vec_add(vec_add(a, b), c)


def two_power(ra: RestrictedAlgebra, x, m: int) -> Vec:
    """Iterated 2-map: x, x^[2], x^[4], ... taken m times."""
    v = tuple(x)
    for _ in range(m):
        v = two_map_eval(ra, v)
    return v


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


def square_sweep(ra: RestrictedAlgebra) -> Iterator[Tuple[int, int]]:
    """(x, x^[2]) for every packed vector x, by a Gray-code sweep from x = 0.

    Flipping bit m changes the square by f_m^[2] + [x, f_m] (Jacobson's
    formula).  [x, f_j] for every j ride side by side in one int, d = nk
    bits each, to which flipping m adds [f_m, f_j]."""
    squares = ra.squares
    d = len(squares)
    flips = [sum(c << (j * d) for j, c in enumerate(col)) for col in ra.algebra.ad_columns]
    mask = (1 << d) - 1
    x = square = brackets = 0
    yield x, square
    for step in range(1, 1 << d):
        m = (step & -step).bit_length() - 1
        square ^= squares[m] ^ ((brackets >> (m * d)) & mask)
        brackets ^= flips[m]
        x ^= 1 << m
        yield x, square


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
    """Fixpoints of s taken greedily in ascending packed value of their
    coefficient vectors (the order of `coefficient_vectors`), each one
    outside the span of those before; None when they span less
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


def max_tori_reinsert(ra: RestrictedAlgebra) -> Tuple[Tuple[Vec, ...], int, int]:
    """The exhaustive branch and bound that `toruscartan.max_tori`
    replaced: (toral basis, nodes, fixpoints seen), with no node budget.

    Same search order and candidates as `max_tori`, but every
    node re-inserts all of its remaining candidates into a copy of the
    chosen span to get a rank bound at each of them, and there is no
    clique bound or count cut."""
    alg, k = ra.algebra, ra.algebra.gf.degree
    items = [x for x in _fixpoints(ra, SWEEP_BUDGET) if x]
    planes = transpose(items, alg.dim * k)
    comm = _commutation_graph(alg, items, planes)
    times_alpha = alpha_map(alg.gf, alg.dim)

    def insert(slots, v: int) -> bool:
        if not f2_reduce(slots, v):
            return False
        for _ in range(k - 1):
            v = times_alpha(v)
            f2_reduce(slots, v)
        return True

    best, nodes = [], 0

    def search(cand: int, chosen, span) -> None:
        nonlocal best, nodes
        if len(chosen) > len(best):
            best = list(chosen)
        order = bit_positions(cand)
        bound = [0] * (len(order) + 1)  # rank of order[t:] modulo the chosen span
        grown = list(span)
        for t in range(len(order) - 1, -1, -1):
            bound[t] = bound[t + 1] + insert(grown, items[order[t]])
        for t, idx in enumerate(order):
            if len(chosen) + bound[t] <= len(best):
                return
            nodes += 1
            x = items[idx]
            child = list(span)
            assert insert(child, x)
            chosen.append(idx)
            search(cand >> (idx + 1) << (idx + 1) & comm[idx] & ~planes[x.bit_length() - 1],
                   chosen, child)
            chosen.pop()

    search((1 << len(items)) - 1, [], [0] * (alg.dim * k))
    return tuple(unpack_bits(items[i], alg.dim, k) for i in best), nodes, len(items)


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
    """Jacobi verdict for each of `size` candidates with bracket fields b,
    each a uint8 array with one candidate per slot."""
    ok = np.zeros(size, dtype=bool)
    ok[_jacobi_positions(b, n, size)] = True
    return ok


def derived_rank_numpy(b, n: int) -> np.ndarray:
    """Rank of the F2 span of the bracket planes b, per candidate, by
    elimination into one pivot slot per bit."""
    size = b[0].shape[0]
    slots = np.zeros((n, size), dtype=np.uint8)
    for field in b:
        v = field.copy()
        for bit in range(n - 1, -1, -1):
            has = ((v >> bit) & 1).astype(bool)
            filled = slots[bit] != 0
            np.bitwise_xor(v, slots[bit], out=v, where=has & filled)
            ins = has & ~filled
            slots[bit][ins] = v[ins]
            v[ins] = 0
    return np.count_nonzero(slots, axis=0)


def census_sampled(n: int, rows: np.ndarray):
    """Scan sampled tables over F2, one uint8 row of fields each.

    Returns (scanned, Jacobi passes, indices of the simple rows).
    """
    jac, pos, _coeffs = _census_planes(GF2, n, np.ascontiguousarray(rows.T))
    return rows.shape[0], jac, pos.tolist()


def dense_low_fields(n: int):
    """The low field arrays of the dim-n scan, one slot per low position:
    field p of position s is bits n p .. n p + n - 1 of s."""
    last = n * (n - 1) // 2 - 1
    digits = np.arange(1 << n, dtype=np.uint8)
    return [np.tile(np.repeat(digits, 1 << (n * p)), 1 << (n * (last - 1 - p)))
            for p in range(last)]


def solve_last_field_dense(low, n: int):
    """(position, h) of each low position and last field h that pass the
    triples h enters linearly.  Their P and c are summed over the low
    fields, an all-ones plane standing in for h; then h is the OR of the P
    with c = 1, and a position passes when P = c h on every such triple."""
    last, size = len(low), 1 << (n * len(low))
    linear = [tr for tr in combinations(range(n), 3) if not {n - 2, n - 1} <= set(tr)]
    b = low + [np.ones(size, dtype=np.uint8)]
    term, h = np.empty(size, dtype=np.uint8), np.zeros(size, dtype=np.uint8)
    res = np.zeros((len(linear), 2, size), dtype=np.uint8)
    for (pc, c), triple in zip(res, linear):
        terms = _triple_terms(n, *triple)
        _add_terms(pc[None], b, [t for t in terms if t[2] != last], term)
        _add_terms(c[None], b, [t for t in terms if t[2] == last], term)
        np.multiply(pc, c, out=term)
        np.bitwise_or(h, term, out=h)
    ok, free = np.ones(size, dtype=bool), np.ones(size, dtype=bool)
    for pc, c in res:
        np.multiply(c, h, out=term)
        ok &= pc == term
        free &= c == 0
    every, one = np.flatnonzero(ok & free), np.flatnonzero(ok & ~free)
    return (np.concatenate([np.repeat(every, 1 << n), one]),
            np.concatenate([np.tile(np.arange(1 << n, dtype=np.uint8), every.size),
                            h[one]]))


def gl_matrices_brute(n: int):
    """Every invertible n x n matrix over F2 with its inverse, in the order
    of the code sum(rows[r] << (n r)), by trying all 2^(n^2) codes."""
    out = []
    for code in range(1 << (n * n)):
        rows = tuple((code >> (n * r)) & ((1 << n) - 1) for r in range(n))
        inv = _invert_rows(rows, n)
        if inv is not None:
            out.append((rows, tuple(inv)))
    return tuple(out)


def gl_arrays_loop(n: int):
    """(cols, invrows) of `search._gl_arrays`, one matrix entry at a time:
    bit r of cols[g, c] is entry (r, c) of matrix g."""
    mats = gl_matrices(n)
    cols = np.zeros((len(mats), n), dtype=np.int64)
    invrows = np.zeros((len(mats), n), dtype=np.int64)
    for gi, (rows, inv) in enumerate(mats):
        for c in range(n):
            cols[gi, c] = sum(((rows[r] >> c) & 1) << r for r in range(n))
        invrows[gi] = inv
    return cols, invrows


def is_simple_full_sweep(alg: LieAlgebra, budget: int = 1 << 20) -> SimplicityReport:
    """`liealg.is_simple` without its earlier-seed shortcut: the ideal
    closure of every projective seed, lead coordinate 1, in sweep order."""
    gf, n, q, k = alg.gf, alg.dim, alg.gf.order, alg.gf.degree
    if n < 2:
        return SimplicityReport(False, None, 0, "dimension below 2")
    ad, nk = alg.ad_columns[::k], n * k
    derived = f2_ideal(ad, nk, [v for col in ad for v in col])
    if not derived:
        return SimplicityReport(False, None, 0, "abelian")
    if len(derived) < nk:
        return SimplicityReport(False, Subspace.restriction(gf, n, derived), 0,
                                "derived subalgebra is a proper ideal")
    points = (q ** n - 1) // (q - 1)
    if points > budget:
        raise BudgetExceeded(f"{points} projective seeds exceed budget {budget}")
    checked = 0
    for lead in range(n):
        for tail in range(q ** (n - lead - 1)):
            checked += 1
            ideal = f2_ideal(ad, nk, alpha_multiples(gf, n, [(1 | tail << k) << (lead * k)]))
            if len(ideal) < nk:
                return SimplicityReport(False, Subspace.restriction(gf, n, ideal), checked,
                                        "proper ideal from seed")
    return SimplicityReport(True, None, checked, "all seeds generate the algebra")


def gl_orbit_patterns_canonical(total: int):
    """One pattern per GL3(F2) orbit, by canonicalizing every labelled one."""
    seen, out = set(), []
    for p in enumerate_labeled_patterns(total):
        key = (p.nil_dim, gl3_canonicalize_dims(p.dims))
        if key not in seen:
            seen.add(key)
            out.append(DimPattern(total, key[0], key[1]))
    return out
