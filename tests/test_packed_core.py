"""The packed F2 restriction of scalars against scalar table oracles.

`table_bracket` and `table_two_map_eval` are the structure-constant scans
that computed every bracket and 2-map over GF(2^k) before both moved onto
the packed bracket table of the restriction of scalars to F2.  They stay
here as oracles for `bracket` and `two_map_eval` on every catalog algebra
over F2 and lifted to GF(4), GF(16) and GF(2^16) in a seeded basis, and
the GF(4) verdicts of `is_simple` and `toral_elements` are rechecked
against plain sweeps built on them.  The nibble tables that apply ad are
checked against `f2_apply`, the one-column-per-bit map.

Dense ad matrices built from `table_bracket` are the oracles for the packed
eliminations: centralizers, the centre, joint eigenspaces of a torus,
2-map synthesis and the basis check of `validate_restricted`.

Dense Gauss-Jordan over GF(2^k) (`dense_oracles`) is the oracle for
`Subspace`, whose row reductions run on the F2 restriction.
"""
from __future__ import annotations

import functools
import random

import pytest

from lie2.errors import Lie2Error
from lie2.field import (GF, Subspace, alpha_multiples, f2_apply, f2_eliminate, full_space,
                        vec_add)
from lie2.liealg import (LieAlgebra, catalog, center, centralizer, f2_ideal, from_json,
                         ideal_closure, is_simple, nibble_apply, nibble_tables)
from lie2.restricted import (RestrictedAlgebra, synthesize_two_map,
                             two_map_eval, validate_restricted)
from lie2.toruscartan import Torus, max_tori, toral_elements, weight_decompose
from dense_oracles import (basis_vec, coefficient_vectors, dense_combo, dense_express,
                           dense_mul, dense_null_space, dense_reduce, dense_rref,
                           gf_scale)
from test_reports_frozen import lifted_doc

NAMES = ["o3", "heis3", "sl2", "gl2", "sl3", "gl3", "w11_p2", "abelian(3)",
         "strictly_upper(4)"]


def table_bracket(alg: LieAlgebra, x, y) -> tuple:
    """Scan of the structure constants: sum of (x_i y_j + x_j y_i) [e_i, e_j]."""
    gf = alg.gf
    out = [0] * alg.dim
    for (i, j), c in alg.table.items():
        s = gf.add(gf.mul(x[i], y[j]), gf.mul(x[j], y[i]))
        if s:
            for k in range(alg.dim):
                if c[k]:
                    out[k] ^= c[k] if s == 1 else gf.mul(s, c[k])
    return tuple(out)


def table_two_map_eval(ra: RestrictedAlgebra, x) -> tuple:
    """Quadratic expansion sum x_i^2 e_i^[2] + sum_{i<j} x_i x_j [e_i, e_j]."""
    alg = ra.algebra
    gf = alg.gf
    n = alg.dim
    out = [0] * n
    for i, xi in enumerate(x):
        if xi:
            c = gf.mul(xi, xi)
            img = ra.two_map[i]
            for k in range(n):
                if img[k]:
                    out[k] ^= img[k] if c == 1 else gf.mul(c, img[k])
    for (i, j), cij in alg.table.items():
        s = gf.mul(x[i], x[j])
        if s:
            for k in range(n):
                if cij[k]:
                    out[k] ^= cij[k] if s == 1 else gf.mul(s, cij[k])
    return tuple(out)


@functools.lru_cache(maxsize=None)
def algebra_over(name: str, degree: int):
    if degree == 1:
        entry = catalog(name)
        return entry.algebra, entry.two_map
    return from_json(lifted_doc(name, degree, 7))


def rand_vec(rng: random.Random, alg: LieAlgebra) -> tuple:
    return tuple(rng.randrange(alg.gf.order) for _ in range(alg.dim))


@pytest.mark.parametrize("degree", [1, 2, 4, 16])
@pytest.mark.parametrize("name", NAMES)
def test_packed_bracket_and_square_match_table_scans(name, degree):
    alg, two_map = algebra_over(name, degree)
    ra = RestrictedAlgebra(alg, two_map) if two_map is not None else None
    n = alg.dim
    rng = random.Random(f"{name}/{degree}")
    basis = [basis_vec(n, i) for i in range(n)]
    for _ in range(20):
        x, y = rand_vec(rng, alg), rand_vec(rng, alg)
        assert alg.bracket(x, y) == table_bracket(alg, x, y)
        if ra is not None:
            assert two_map_eval(ra, x) == table_two_map_eval(ra, x)
    if ra is not None:
        lam = rng.randrange(1, alg.gf.order)
        for e in basis:
            v = tuple(alg.gf.mul(lam, c) for c in e)
            assert two_map_eval(ra, v) == table_two_map_eval(ra, v)


@pytest.mark.parametrize("width", [1, 3, 4, 6, 13])
def test_nibble_tables_match_column_sums(width):
    """One table per 4-bit chunk with a nonzero column, a short last chunk
    included; zero chunks are left out and the image is unchanged."""
    rng = random.Random(width)
    for density in (0.0, 0.2, 1.0):
        cols = [rng.getrandbits(width) if rng.random() < density else 0
                for _ in range(width)]
        chunks = nibble_tables(cols)
        assert [shift for shift, _ in chunks] == [
            s for s in range(0, width, 4) if any(cols[s:s + 4])]
        for x in range(1 << width) if width <= 6 else \
                (rng.getrandbits(width) for _ in range(200)):
            assert nibble_apply(chunks, x) == f2_apply(cols, x)


# ---------------------------------------------------------------------------
# packed eliminations against dense ad matrices


def dense_ad(alg: LieAlgebra, x) -> tuple:
    """Rows of the matrix of [x, -] on column vectors, column j being [x, e_j]."""
    n = alg.dim
    return tuple(zip(*[table_bracket(alg, x, basis_vec(n, j)) for j in range(n)]))


def dense_kernel(alg: LieAlgebra, mats) -> Subspace:
    """Common kernel of the matrices, rows stacked."""
    rows = [r for m in mats for r in m]
    return Subspace(alg.gf, alg.dim, dense_null_space(alg.gf, rows, alg.dim))


def flat(m) -> tuple:
    return tuple(x for row in m for x in row)


def test_f2_eliminate_kernel_and_solutions():
    rng = random.Random(5)
    for n in (1, 3, 8, 13):
        for _ in range(30):
            cols = [rng.getrandbits(rng.randrange(1, 10)) for _ in range(n)]
            images = {f2_apply(cols, y) for y in range(1 << n)}
            rhs = [f2_apply(cols, rng.getrandbits(n)), rng.getrandbits(12)]
            kernel, sols = f2_eliminate(cols, n, rhs)
            null = [y for y in range(1 << n) if not f2_apply(cols, y)]
            assert len(kernel) == (len(null).bit_length() - 1)
            assert all(not f2_apply(cols, v) for v in kernel)
            for b, y in zip(rhs, sols):
                assert (y is not None) == (b in images)
                assert y is None or f2_apply(cols, y) == b


@pytest.mark.parametrize("degree", [1, 2, 4, 16])
@pytest.mark.parametrize("name", NAMES)
def test_centralizer_and_center_match_dense_kernels(name, degree):
    alg, _ = algebra_over(name, degree)
    gf, n = alg.gf, alg.dim
    full = full_space(gf, n)
    expect = dense_kernel(alg, [dense_ad(alg, r) for r in full.rows])
    assert centralizer(alg, full) == expect == center(alg)
    rng = random.Random(f"{name}/{degree}/centralizer")
    for r in range(n + 1):
        s = Subspace(gf, n, [rand_vec(rng, alg) for _ in range(r)])
        assert centralizer(alg, s) == dense_kernel(alg, [dense_ad(alg, v) for v in s.rows])


def restricted_with_torus(name: str, degree: int):
    """A restricted algebra over GF(2^degree) and a torus of it: a maximal
    torus of the seeded lift for degrees 1 and 2, and over GF(16) and
    GF(2^16) the F2 algebra with scalars extended and its F2 maximal torus,
    whose toral basis stays a basis of fixpoints."""
    alg, two_map = algebra_over(name, degree if degree <= 2 else 1)
    ra = RestrictedAlgebra(alg, two_map)
    torus = max_tori(ra).torus
    if degree <= 2:
        return ra, torus
    gf = GF(degree)
    ext = RestrictedAlgebra(LieAlgebra(gf, alg.dim, alg.table), two_map)
    basis = torus.toral_basis
    return ext, Torus(Subspace(gf, alg.dim, basis), basis)


@pytest.mark.parametrize("degree", [1, 2, 4, 16])
def test_weight_spaces_match_dense_joint_eigenspaces(degree):
    decomposed = set()
    for name in NAMES:
        if name == "o3":
            continue
        ra, torus = restricted_with_torus(name, degree)
        alg, basis = ra.algebra, torus.toral_basis
        ads = [dense_ad(alg, t) for t in basis]
        shifted = [tuple(vec_add(row, basis_vec(alg.dim, i)) for i, row in enumerate(a))
                   for a in ads]
        expect = {}
        for code in range(1 << len(basis)):
            lam = tuple((code >> i) & 1 for i in range(len(basis)))
            space = dense_kernel(alg, [b if c else a for a, b, c in zip(ads, shifted, lam)])
            if space.dim:
                expect[lam] = space
        try:
            dec = weight_decompose(ra, torus)
        except Lie2Error:
            continue
        decomposed.add(name)
        assert dec.h == expect.pop((0,) * len(basis), Subspace(alg.gf, alg.dim))
        assert dec.weights == expect
    # sl2 has no Cartan split over any field; the others decompose
    assert decomposed == set(NAMES) - {"o3", "sl2"}


def dense_synthesis(alg: LieAlgebra):
    """(images, unique, center_dim, missing_index) from one dense solve per
    basis element of ad(y) = ad(e_i)^2, images reduced modulo the centre."""
    n = alg.dim
    ads = [dense_ad(alg, basis_vec(n, j)) for j in range(n)]
    cen = dense_kernel(alg, ads)
    images = []
    for i, a in enumerate(ads):
        y = dense_express(alg.gf, [flat(b) for b in ads], flat(dense_mul(alg.gf, a, a, n)))
        if y is None:
            return None, False, cen.dim, i
        images.append(cen.reduce(y))
    return tuple(images), cen.dim == 0, cen.dim, None


@pytest.mark.parametrize("degree", [1, 2, 4, 16])
@pytest.mark.parametrize("name", NAMES)
def test_synthesized_two_map_matches_dense_solve(name, degree):
    alg, _ = algebra_over(name, degree)
    rep = synthesize_two_map(alg)
    expect = dense_synthesis(alg)
    assert (rep.two_map, rep.unique, rep.center_dim, rep.missing_index) == expect
    if name == "o3":
        assert expect[0] is None and expect[3] is not None
    else:
        assert validate_restricted(RestrictedAlgebra(alg, rep.two_map)).ok


@pytest.mark.parametrize("degree", [1, 2, 4, 16])
@pytest.mark.parametrize("name", [n for n in NAMES if n != "o3"])
def test_restricted_basis_check_matches_dense_squares(name, degree):
    """Image i plus c e_j for every i and j: the failing indices are those
    where the dense ad(b_i) differs from ad(e_i)^2."""
    alg, two_map = algebra_over(name, degree)
    n = alg.dim
    ads = [dense_ad(alg, basis_vec(n, i)) for i in range(n)]
    rng = random.Random(f"{name}/{degree}/corrupt")
    for i in range(n):
        for j in range(n):
            c = rng.randrange(1, alg.gf.order)
            bad = list(two_map)
            bad[i] = vec_add(bad[i], tuple(c * (m == j) for m in range(n)))
            expect = [m for m in range(n)
                      if dense_ad(alg, bad[m]) != dense_mul(alg.gf, ads[m], ads[m], n)]
            rep = validate_restricted(RestrictedAlgebra(alg, tuple(bad)), random_checks=0)
            assert rep.failing_indices == expect
            assert expect in ([], [i])


# ---------------------------------------------------------------------------
# GF(4) simplicity and fixpoints by plain sweeps


def closure_oracle(alg: LieAlgebra, v) -> Subspace:
    """Smallest ideal containing v: add table brackets with the basis until stable."""
    gf, n = alg.gf, alg.dim
    cur = Subspace(gf, n, [v])
    while True:
        images = [table_bracket(alg, basis_vec(n, i), r) for i in range(n) for r in cur.rows]
        nxt = cur.add(Subspace(gf, n, images))
        if nxt == cur:
            return cur
        cur = nxt


def simplicity_oracle(alg: LieAlgebra):
    """(simple, seeds_checked, reason, witness) of the documented sweep:
    the derived algebra first, then one seed per line, ordered by the
    position of the leading 1 and then by sum_i v[i] q^i."""
    gf, n = alg.gf, alg.dim
    derived = Subspace(gf, n, [table_bracket(alg, basis_vec(n, i), basis_vec(n, j))
                               for i in range(n) for j in range(i + 1, n)])
    if derived.dim == 0:
        return False, 0, "abelian", None
    if derived.dim < n:
        return False, 0, "derived subalgebra is a proper ideal", derived

    def lead(v):
        return next(i for i, c in enumerate(v) if c)
    points = sorted((v for v in coefficient_vectors(gf, n) if any(v) and v[lead(v)] == 1),
                    key=lead)
    for checked, v in enumerate(points, 1):
        cl = closure_oracle(alg, v)
        if cl.dim < n:
            return False, checked, "proper ideal from seed", cl
    return True, len(points), "all seeds generate the algebra", None


def random_gf4_tables(n: int, count: int, seed: int):
    """Sparse random GF(4) bracket tables, Lie or not."""
    gf = GF(2)
    rng = random.Random(seed)
    for _ in range(count):
        table = {(i, j): tuple(rng.randrange(4) if rng.random() < 0.35 else 0
                               for _ in range(n))
                 for i in range(n) for j in range(i + 1, n)}
        yield LieAlgebra(gf, n, table)


def twisted_o3_pair() -> LieAlgebra:
    """o3 + o3 over GF(4) (basis a1..a3, b1..b3) in the basis
    f_i = a_i + alpha b_i, f_{3+i} = b_i: perfect, and its ideal
    a = span(f_i + alpha f_{3+i}) is first reached by a seed mid-sweep."""
    gf = GF(2)
    o3 = catalog("o3").algebra.table
    pair = LieAlgebra(gf, 6, {**{k: v + (0,) * 3 for k, v in o3.items()},
                              **{(i + 3, j + 3): (0,) * 3 + v for (i, j), v in o3.items()}})
    cols = [basis_vec(6, i)[:3] + tuple(2 * c for c in basis_vec(3, i)) for i in range(3)]
    cols += [basis_vec(6, 3 + i) for i in range(3)]
    table = {(i, j): dense_express(gf, cols, table_bracket(pair, cols[i], cols[j]))
             for i in range(6) for j in range(i + 1, 6)}
    return LieAlgebra(gf, 6, table)


SIMPLE_CASES = [n for n in NAMES if n != "sl3"]


@pytest.mark.parametrize("degree", [2, 3, 4])
@pytest.mark.parametrize("name", NAMES)
def test_ideal_closure_under_gf_columns_is_the_f2_closure(name, degree):
    """Seeds with an alpha-closed span close the same under the n GF
    columns ad(e_i) as under all nk columns ad(alpha^a e_i): all brackets,
    as `is_simple` seeds the derived algebra, lines as it seeds the sweep,
    and planes as `ideal_closure` gets them."""
    alg, _ = algebra_over(name, degree)
    gf, n, ad = alg.gf, alg.dim, alg.ad_columns
    nk = n * degree
    rng = random.Random(f"{name}/{degree}/ideal")
    seed_sets = [[v for col in ad[::degree] for v in col]]
    seed_sets += [alpha_multiples(gf, n, [rng.getrandbits(nk) for _ in range(m)])
                  for m in (1, 1, 1, 2, 2)]
    for seeds in seed_sets:
        whole = f2_ideal(ad, nk, seeds)
        gf_cols = f2_ideal(ad[::degree], nk, seeds)
        assert len(gf_cols) == len(whole) == len(f2_ideal([], nk, whole + gf_cols))
        assert ideal_closure(alg, Subspace.restriction(gf, n, seeds)) \
            == Subspace.restriction(gf, n, whole)


def simplicity_inputs():
    algs = [algebra_over(name, 2)[0] for name in SIMPLE_CASES] + [twisted_o3_pair()]
    algs += list(random_gf4_tables(3, 40, 1)) + list(random_gf4_tables(4, 12, 2))
    return algs


def test_gf4_is_simple_matches_closure_sweep():
    verdicts = set()
    for alg in simplicity_inputs():
        rep = is_simple(alg)
        simple, checked, reason, witness = simplicity_oracle(alg)
        assert (rep.simple, rep.seeds_checked, rep.reason) == (simple, checked, reason)
        assert rep.witness == witness
        verdicts.add((simple, reason, 0 < checked < (alg.gf.order ** alg.dim - 1) // 3))
    # the inputs reach every exit of the sweep, including a mid-sweep witness
    assert (True, "all seeds generate the algebra", False) in verdicts
    assert (False, "proper ideal from seed", True) in verdicts
    assert (False, "derived subalgebra is a proper ideal", False) in verdicts


@pytest.mark.parametrize("name", ["heis3", "sl2", "gl2", "w11_p2", "abelian(3)",
                                  "strictly_upper(4)"])
def test_gf4_toral_elements_match_vector_sweep(name):
    alg, two_map = algebra_over(name, 2)
    ra = RestrictedAlgebra(alg, two_map)
    expect = [v for v in coefficient_vectors(alg.gf, alg.dim)
              if table_two_map_eval(ra, v) == v]
    assert toral_elements(ra) == expect


# ---------------------------------------------------------------------------
# the packed Subspace against dense GF(2^k) Gauss-Jordan


def random_rows(rng: random.Random, gf: GF, nrows: int, ncols: int) -> list:
    """Dense, sparse, rank-deficient (later rows combine earlier ones) or
    zero-row matrices, chosen at random."""
    style = rng.randrange(4)
    rows = []
    for i in range(nrows):
        if style == 2 and i >= 2:
            cs = [rng.randrange(gf.order) for _ in rows]
            rows.append(dense_combo(gf, rows, cs, ncols))
        elif style == 3 and rng.random() < 0.4:
            rows.append((0,) * ncols)
        else:
            density = 0.3 if style == 1 else 1.0
            rows.append(tuple(rng.randrange(gf.order) if rng.random() < density else 0
                              for _ in range(ncols)))
    return rows


def random_vec(rng: random.Random, gf: GF, n: int) -> tuple:
    return tuple(rng.randrange(gf.order) for _ in range(n))


SUBSPACE_DEGREES = [1, 2, 3, 4, 8, 16]


@pytest.mark.parametrize("degree", SUBSPACE_DEGREES)
def test_subspace_matches_dense_gauss_jordan(degree):
    gf = GF(degree)
    rng = random.Random(f"subspace/{degree}")
    for trial in range(60):
        ncols = rng.randrange(0, 7)
        rows = random_rows(rng, gf, rng.randrange(0, 6), ncols)
        red, pivots = dense_rref(gf, rows, ncols)
        s = Subspace(gf, ncols, rows)
        assert (s.rows, s.pivots, s.dim) == (red, pivots, len(red))
        coeffs = random_vec(rng, gf, s.dim)
        inside = dense_combo(gf, red, coeffs, ncols)
        assert s.combo(coeffs) == inside
        assert s.coords(inside) == coeffs
        for v in (inside, random_vec(rng, gf, ncols)):
            rem = dense_reduce(gf, red, pivots, v)
            assert s.reduce(v) == rem
            assert s.contains(v) == (not any(rem))
            assert s.coords(v) == (tuple(v[p] for p in pivots) if not any(rem) else None)
        other = random_rows(rng, gf, rng.randrange(0, 6), ncols)
        t = Subspace(gf, ncols, other)
        assert s.add(t).rows == dense_rref(gf, rows + other, ncols)[0]
        both = dense_null_space(gf, list(zip(*(red + t.rows))), s.dim + t.dim)
        meet = [dense_combo(gf, red, y[:s.dim], ncols) for y in both]
        assert s.intersect(t).rows == dense_rref(gf, meet, ncols)[0]
        assert s.intersect(t).dim == s.dim + t.dim - s.add(t).dim


@pytest.mark.parametrize("degree", SUBSPACE_DEGREES)
def test_null_basis_matches_dense_null_space(degree):
    """Free-column null space bases, same vectors in the same order, with
    no rows, zero rows and full rank among the trials."""
    gf = GF(degree)
    rng = random.Random(f"null/{degree}")
    for trial in range(60):
        nrows, ncols = rng.randrange(1, 6), rng.randrange(1, 7)
        rows = random_rows(rng, gf, nrows, ncols)
        if trial < 3:
            rows = [[], [(0,) * ncols] * nrows,
                    [tuple(int(i == j) for j in range(ncols)) for i in range(ncols)]][trial]
        got = Subspace(gf, ncols, rows).null_basis()
        assert got == tuple(dense_null_space(gf, rows, ncols))
        for v in got:
            assert dense_mul(gf, rows, [(x,) for x in v], 1) == ((0,),) * len(rows)


@pytest.mark.parametrize("degree", SUBSPACE_DEGREES)
def test_spanning_sets_of_one_span_give_equal_subspaces(degree):
    gf = GF(degree)
    rng = random.Random(f"spans/{degree}")
    for trial in range(30):
        n = rng.randrange(1, 7)
        rows = random_rows(rng, gf, rng.randrange(1, 5), n)
        # a shuffled set of nonzero multiples plus combinations of the rows
        again = [tuple(gf_scale(gf, rng.randrange(1, gf.order), r)) for r in rows]
        again += [dense_combo(gf, rows, random_vec(rng, gf, len(rows)), n)
                  for _ in range(rng.randrange(3))]
        rng.shuffle(again)
        s, t = Subspace(gf, n, rows), Subspace(gf, n, again)
        assert s == t and hash(s) == hash(t)
        assert s.echelon == t.echelon
        assert Subspace(gf, n, s.rows) == s
