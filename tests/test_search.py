"""Census and isomorphism-search tests.

The vectorised census engine is checked against plain-python oracles (a
scalar Jacobi check on packed tables, liealg.is_simple), and the scalar
Jacobi check against liealg.validate_lie on every dim-3 table; census
counts are frozen from those oracle-verified runs.  The thread count must
never change a report.  Over GF(2^k) the bit-sliced kernel is checked
against validate_lie and the shift-and-add mask it replaced, which is kept
in dense_oracles and checked against GF.mul.
"""
from __future__ import annotations

import random
import subprocess
import sys
import textwrap
import tracemalloc
from itertools import combinations
from typing import List

import numpy as np
import pytest

from lie2 import (BudgetExceeded, DimensionTooLarge, InvalidInput, catalog,
                  is_simple, validate_lie)
from lie2.liealg import LieAlgebra, derived_series
from lie2.field import GF, f2_apply
from lie2.errors import InternalInconsistency
from lie2.search import (_MIX_BLOCK, GOLDEN, MASK64, CensusSpec, _census_planes, _class_entry,
                         _gl_arrays, _invariant_signature, _jacobi_holds, _jacobi_positions,
                         _perfect3, _run_exhaustive,
                         _run_sampled_packed, _sample_planes,
                         _solve_last_field, _spans_all,
                         algebra_to_table, bytes_from_words, canonical_table,
                         census, census_backend, census_exhaustive,
                         gl_matrices, iso_match, pair_index, splitmix64_words,
                         table_orbit, table_to_algebra)
from dense_oracles import (census_sampled, dense_low_fields, derived_rank_numpy,
                           gf_jacobi_mask, gf_mul_arrays, gl_arrays_loop, gl_matrices_brute,
                           jacobi_mask, sample_coefficients, solve_last_field_dense)
from test_reports_frozen import CENSUS_FROZEN, census_digest


# ---------------------------------------------------------------------------
# scalar oracles for the vectorised census engine


def pack_table(b, n: int) -> int:
    """Packed table integer of the bracket fields b."""
    t = 0
    for p, v in enumerate(b):
        t |= int(v) << (n * p)
    return t


def unpack_table(t: int, n: int) -> List[int]:
    nmask = (1 << n) - 1
    return [(t >> (n * p)) & nmask for p in range(n * (n - 1) // 2)]


def table_ad_columns(b, n: int) -> List[List[int]]:
    """ad[k][m] is the packed bracket [e_m, e_k] of the table with fields b."""
    return [[b[pair_index(min(m, k), max(m, k), n)] if m != k else 0
             for m in range(n)] for k in range(n)]


def table_triple_ok(b, n: int, i: int, j: int, k: int) -> bool:
    """Whether Jacobi holds on the basis triple i < j < k."""
    ad = table_ad_columns(b, n)
    return not (f2_apply(ad[k], b[pair_index(i, j, n)])
                ^ f2_apply(ad[i], b[pair_index(j, k, n)])
                ^ f2_apply(ad[j], b[pair_index(i, k, n)]))


def table_jacobi_ok(b, n: int) -> bool:
    return all(table_triple_ok(b, n, *triple) for triple in combinations(range(n), 3))


def splitmix64_one(seed: int, ctr: int) -> int:
    x = (seed + ctr * GOLDEN) & MASK64
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & MASK64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & MASK64
    x ^= x >> 31
    return x


# ---------------------------------------------------------------------------
# packed table plumbing


def test_pair_index_layout():
    n = 4
    seen = []
    for i in range(n):
        for j in range(i + 1, n):
            seen.append(pair_index(i, j, n))
    assert seen == list(range(6))


def test_pack_unpack_roundtrip():
    rng = random.Random(37)
    for n in (2, 3, 4):
        fields = n * (n - 1) // 2
        for _ in range(30):
            t = rng.randrange(1 << (fields * n))
            assert pack_table(unpack_table(t, n), n) == t


def test_table_algebra_roundtrip():
    rng = random.Random(41)
    for n in (2, 3, 4):
        fields = n * (n - 1) // 2
        for _ in range(30):
            t = rng.randrange(1 << (fields * n))
            assert algebra_to_table(table_to_algebra(n, t)) == t
    with pytest.raises(InvalidInput):
        algebra_to_table(LieAlgebra(GF(2), 2, {}))


def test_o3_is_table_84():
    assert algebra_to_table(catalog("o3").algebra) == 84
    alg = table_to_algebra(3, 84)
    assert alg.table == catalog("o3").algebra.table


def test_scalar_pipeline_agrees_with_liealg_on_all_dim3_tables():
    """512-table sweep: the scalar Jacobi oracle matches validate_lie."""
    jac = simple = 0
    for t in range(512):
        alg = table_to_algebra(3, t)
        ok = validate_lie(alg, random_checks=0).ok
        assert table_jacobi_ok(unpack_table(t, 3), 3) == ok
        if ok:
            jac += 1
            simple += int(is_simple(alg).simple)
    assert jac == 120 and simple == 28


# ---------------------------------------------------------------------------
# splitmix sampling


def test_splitmix_words_match_scalar():
    w = splitmix64_words(42, 5, 4, 3)
    assert w.shape == (4, 3) and w.dtype == np.uint64
    for i in range(4):
        for j in range(3):
            assert int(w[i, j]) == splitmix64_one(42, (5 + i) * 3 + j + 1)


def test_bytes_from_words_little_end_first():
    w = splitmix64_words(1, 0, 3, 2)
    b = bytes_from_words(w, 9)
    assert b.shape == (3, 9) and b.dtype == np.uint8
    for i in range(3):
        for k in range(9):
            assert int(b[i, k]) == (int(w[i, k // 8]) >> (8 * (k % 8))) & 0xFF


def test_sampling_is_counter_based():
    # same seed, different block splits, same stream
    a = splitmix64_words(9, 0, 10, 2)
    b = splitmix64_words(9, 4, 6, 2)
    assert (a[4:] == b).all()


# ---------------------------------------------------------------------------
# GL sweeps and isomorphism


def test_gl_matrix_counts():
    assert len(gl_matrices(1)) == 1
    assert len(gl_matrices(2)) == 6
    assert len(gl_matrices(3)) == 168
    assert len(gl_matrices(4)) == 20160
    with pytest.raises(DimensionTooLarge):
        gl_matrices(5)


@pytest.mark.parametrize("n", range(1, 5))
def test_gl_matrices_match_the_brute_force_sweep(n):
    """The independent-row enumeration gives the brute-force tuple, order
    and inverses included, and each inverse is one."""
    got = gl_matrices(n)
    assert got == gl_matrices_brute(n)
    for rows, inv in got:
        # row r of inv * rows is the sum of the rows[c] with bit c of inv[r]
        assert [f2_apply(rows, inv[r]) for r in range(n)] == [1 << r for r in range(n)]


@pytest.mark.parametrize("n", range(1, 5))
def test_gl_arrays_match_the_loop(n):
    cols, invrows, parity = _gl_arrays(n)
    want_cols, want_inv = gl_arrays_loop(n)
    assert cols.dtype == invrows.dtype == np.int64
    assert np.array_equal(cols, want_cols) and np.array_equal(invrows, want_inv)
    assert parity.tolist() == [bin(v).count("1") & 1 for v in range(1 << n)]


def test_orbit_of_o3_table():
    orbit = table_orbit(3, 84)
    assert len(orbit) == 28
    assert min(orbit) == 84
    assert canonical_table(3, 84) == 84
    for t in sorted(orbit)[:10]:
        assert canonical_table(3, t) == 84
        assert table_jacobi_ok(unpack_table(t, 3), 3)
        assert is_simple(table_to_algebra(3, t)).simple


def test_iso_match_finds_witness():
    a = catalog("o3").algebra
    b = table_to_algebra(3, min(t for t in table_orbit(3, 84) if t != 84))
    m = iso_match(a, b)
    assert m is not None and all(set(row) <= {0, 1} for row in m)

    def apply(v):
        return tuple(sum(x & y for x, y in zip(row, v)) & 1 for row in m)
    # witness property: m[x,y]_a = [mx, my]_b on all basis pairs
    for i in range(3):
        for j in range(3):
            ei = tuple(1 if k == i else 0 for k in range(3))
            ej = tuple(1 if k == j else 0 for k in range(3))
            assert apply(a.bracket(ei, ej)) == b.bracket(apply(ei), apply(ej))


def loop_iso_match(a, b):
    """The per-matrix sweep iso_match ran before it was vectorised; an oracle."""
    n = a.dim
    nmask = (1 << n) - 1
    ta, tb = algebra_to_table(a), algebra_to_table(b)

    def field(t, i, j):
        return (t >> (n * pair_index(i, j, n))) & nmask

    def bracket(t, x, y):
        v = 0
        for i in range(n):
            for j in range(i + 1, n):
                if ((x >> i) & (y >> j) ^ (x >> j) & (y >> i)) & 1:
                    v ^= field(t, i, j)
        return v

    def image(cols, x):
        v = 0
        for m in range(n):
            if (x >> m) & 1:
                v ^= cols[m]
        return v

    for rows, _inv in gl_matrices(n):
        cols = [sum(((rows[r] >> c) & 1) << r for r in range(n)) for c in range(n)]
        if all(image(cols, field(ta, i, j)) == bracket(tb, cols[i], cols[j])
               for i in range(n) for j in range(i + 1, n)):
            return tuple(tuple((rows[r] >> c) & 1 for c in range(n)) for r in range(n))
    return None


def random_jacobi_table(rng, n):
    fields = n * (n - 1) // 2
    while True:
        b = [rng.randrange(1 << n) & rng.randrange(1 << n) for _ in range(fields)]
        if table_jacobi_ok(b, n):
            return pack_table(b, n)


def assert_iso_match_as_loop(a, b) -> bool:
    got = iso_match(a, b)
    want = loop_iso_match(a, b)
    assert got == want
    return want is not None


def test_iso_match_matches_matrix_loop_on_o3_orbit():
    algs = [table_to_algebra(3, t) for t in sorted(table_orbit(3, 84))]
    for a in algs:
        for b in algs:
            assert assert_iso_match_as_loop(a, b)


def test_iso_match_matches_matrix_loop_on_random_tables():
    rng = random.Random(59)
    outcomes = set()
    for n, pairs in ((2, 30), (3, 60), (4, 6)):
        for _ in range(pairs):
            ta = random_jacobi_table(rng, n)
            if rng.random() < 0.5:
                tb = rng.choice(sorted(table_orbit(n, ta)))
            else:
                tb = random_jacobi_table(rng, n)
            outcomes.add(assert_iso_match_as_loop(table_to_algebra(n, ta),
                                                  table_to_algebra(n, tb)))
    assert outcomes == {True, False}


def test_iso_match_self_and_negative():
    o3 = catalog("o3").algebra
    assert iso_match(o3, o3) is not None
    assert iso_match(o3, catalog("heis3").algebra) is None
    assert iso_match(o3, catalog("sl2").algebra) is None


def test_iso_match_guards():
    with pytest.raises(InvalidInput):
        iso_match(catalog("o3").algebra, catalog("gl2").algebra)  # dims differ
    gf4 = LieAlgebra(GF(2), 3, {})
    with pytest.raises(InvalidInput):
        iso_match(gf4, gf4)
    big = catalog("abelian(5)").algebra
    with pytest.raises(DimensionTooLarge):
        iso_match(big, big)


# ---------------------------------------------------------------------------
# census runs


def test_spec_validation():
    with pytest.raises(InvalidInput):
        CensusSpec(dim=0)
    with pytest.raises(InvalidInput):
        CensusSpec(dim=7)
    with pytest.raises(InvalidInput):
        CensusSpec(dim=3, field_degree=0)
    with pytest.raises(InvalidInput):
        CensusSpec(dim=3, field_degree=17)
    with pytest.raises(InvalidInput):
        CensusSpec(dim=3, threads=0)
    with pytest.raises(InvalidInput):
        CensusSpec(dim=5)                       # exhaustive beyond dim 4
    with pytest.raises(InvalidInput):
        CensusSpec(dim=3, field_degree=2)       # exhaustive needs degree 1
    with pytest.raises(InvalidInput):
        CensusSpec(dim=5, sample_count=0)
    with pytest.raises(BudgetExceeded):
        CensusSpec(dim=5, sample_count=(1 << 28) + 1)
    # the sample stream reads the seed mod 2^64, so -1 would alias 2^64 - 1
    for seed in (-1, 1 << 64):
        with pytest.raises(InvalidInput, match="seed must be between 0 and 2"):
            CensusSpec(dim=3, sample_count=3000, seed=seed)
    CensusSpec(dim=6, sample_count=10)          # fine
    CensusSpec(dim=3, sample_count=3000, seed=MASK64)


@pytest.mark.parametrize("bad", [1.5, 3.0, True, False])
@pytest.mark.parametrize("field", ["dim", "field_degree", "sample_count", "seed", "threads"])
def test_spec_fields_must_be_integers(field, bad):
    """A float or bool in any field is refused up front, not met later as a
    TypeError in the sample stream (seed=1.5) or the table shifts (dim=3.0)."""
    fields = {"dim": 3, "sample_count": 10, "seed": 1}
    fields[field] = bad
    with pytest.raises(InvalidInput, match=f"census {field} must be an integer"):
        CensusSpec(**fields)


def test_backend_flag(monkeypatch):
    monkeypatch.setenv("LIE2_BACKEND", "numpy")
    assert census_backend() == "numpy"
    monkeypatch.setenv("LIE2_BACKEND", "auto")
    assert census_backend() in ("numba", "numpy")
    monkeypatch.setenv("LIE2_BACKEND", "cuda")
    with pytest.raises(InvalidInput):
        census_backend()


def test_backend_flag_rejects_numba(monkeypatch):
    monkeypatch.setenv("LIE2_BACKEND", "numba")
    with pytest.raises(InvalidInput):
        census_backend()


def assert_reports_equal_modulo_runtime(a: dict, b: dict) -> None:
    for key in ("runtime_ms", "backend", "threads"):
        a = dict(a)
        b = dict(b)
        a.pop(key, None)
        b.pop(key, None)
    assert a == b


def test_census_dim1_and_dim2():
    r1 = census(CensusSpec(dim=1))
    assert (r1.candidates_scanned, r1.jacobi_pass, r1.simple_count) == (1, 1, 0)
    r2 = census(CensusSpec(dim=2))
    assert (r2.candidates_scanned, r2.jacobi_pass, r2.simple_count) == (4, 4, 0)
    assert r2.mode == "exhaustive" and r2.seed is None and r2.sample_count is None
    # sampled tables without a bracket field, over F2 and GF(4)
    for degree in (1, 2):
        r = census(CensusSpec(dim=1, field_degree=degree, sample_count=5))
        assert (r.candidates_scanned, r.jacobi_pass, r.simple_count) == (5, 5, 0)
        r = census(CensusSpec(dim=2, field_degree=degree, sample_count=5))
        assert (r.candidates_scanned, r.jacobi_pass, r.simple_count) == (5, 5, 0)


def test_census_dim3_frozen_and_class_structure():
    rep = census(CensusSpec(dim=3))
    assert rep.candidates_scanned == 512
    assert rep.jacobi_pass == 120
    assert rep.simple_count == 28
    assert rep.restrictable_simple_count == 0
    assert len(rep.simple_iso_classes) == 1
    cls = rep.simple_iso_classes[0]
    assert cls["class_size"] == 28
    assert cls["grouping"] == "gl_orbit"
    assert cls["representative_table"] == 84
    assert cls["restrictable"] is False
    assert cls["toral_rank_lb"] is None
    # representative really is the cross-product algebra
    rep_alg = table_to_algebra(3, cls["representative_table"])
    assert iso_match(rep_alg, catalog("o3").algebra) is not None


def test_class_entry_reports_toral_rank_of_restrictable_class():
    """No census at dims up to 6 finds a restrictable simple class, so the
    branch that bounds its toral rank is pinned on sl3 directly."""
    entry = _class_entry(catalog("sl3").algebra, 1, None, "gl_orbit")
    assert entry["restrictable"] is True
    assert entry["toral_rank_lb"] == 2
    assert "representative_table" not in entry


def test_census_thread_determinism_dim3(monkeypatch):
    monkeypatch.setenv("LIE2_BACKEND", "auto")
    a = census(CensusSpec(dim=3, threads=1)).to_json()
    b = census(CensusSpec(dim=3, threads=2)).to_json()
    assert_reports_equal_modulo_runtime(a, b)


def table_fields(tables, n):
    """uint8 bracket field arrays of packed tables, one slot per table."""
    t = np.array(tables, dtype=np.int64)
    return [((t >> (n * p)) & ((1 << n) - 1)).astype(np.uint8)
            for p in range(n * (n - 1) // 2)]


def sample_rows(n, seed, count):
    """The first `count` sampled F2 tables of the seed, one row of fields each."""
    return _sample_planes(GF(1), n, seed, 0, count).T


def scalar_jacobi(rows, n):
    return [table_jacobi_ok([int(v) for v in row], n) for row in rows]


def scalar_simple(rows, n):
    return [table_jacobi_ok([int(v) for v in row], n)
            and is_simple(table_to_algebra(n, pack_table(row, n))).simple
            for row in rows]


def test_census_backend_agreement_dim3():
    """Vectorised Jacobi mask and census survivors against the scalar path."""
    dim3 = [unpack_table(t, 3) for t in range(512)]
    want = scalar_jacobi(dim3, 3)
    assert jacobi_mask(table_fields(range(512), 3), 3, 512).tolist() == want
    rng = random.Random(53)
    tables = [rng.randrange(1 << 24) for _ in range(1 << 14)]
    want4 = scalar_jacobi([unpack_table(t, 4) for t in tables], 4)
    assert jacobi_mask(table_fields(tables, 4), 4, len(tables)).tolist() == want4
    assert sum(want4) > 0
    simple = [t for t, ok in enumerate(scalar_simple(dim3, 3)) if ok]
    assert len(simple) == 28
    assert _run_exhaustive(3) == (512, 120, simple)
    # the simple tables come out in ascending order
    assert census_exhaustive(3) == (512, 120, simple) and simple == sorted(simple)
    assert census_exhaustive(4) == (1 << 24, 34336, [])


def test_last_field_solve_matches_the_linear_triples():
    """Dim 4: the solved (position, h) candidates are exactly the tables
    that pass the two triples without both 2 and 3, (0, 1, 2) and (0, 1, 3),
    by the scalar Jacobi check; each candidate comes once."""
    pos, h = _solve_last_field(4)
    tables = pos | h.astype(np.int64) << 20
    assert pos.size == len(set(tables.tolist())) == 176128
    # 6,016 positions admit all 16 values of h, 79,872 exactly one
    per_pos = np.bincount(pos, minlength=1 << 20)
    assert (np.count_nonzero(per_pos == 16), np.count_nonzero(per_pos == 1)) == (6016, 79872)
    solved = set(tables.tolist())
    rng = random.Random(59)
    sample = [rng.randrange(1 << 24) for _ in range(20000)]
    sample += rng.sample(sorted(solved), 2000)
    verdicts = set()
    for t in sample:
        b = unpack_table(t, 4)
        ok = table_triple_ok(b, 4, 0, 1, 2) and table_triple_ok(b, 4, 0, 1, 3)
        assert (t in solved) == ok
        verdicts.add(ok)
    assert verdicts == {True, False}


@pytest.mark.parametrize("n", [3, 4])
def test_last_field_solve_matches_the_dense_solve(n):
    """The outer-field loop returns exactly the (position, h) arrays of the
    full-size solve, in the same order and dtypes."""
    want = solve_last_field_dense(dense_low_fields(n), n)
    got = _solve_last_field(n)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and np.array_equal(a, b)


def test_exhaustive_census_below_dimension_three():
    """No basis triple: every table is Lie and none is simple."""
    assert census_exhaustive(1) == _run_exhaustive(1) == (1, 1, [])
    assert census_exhaustive(2) == _run_exhaustive(2) == (4, 4, [])


def test_exhaustive_census_runs_the_kernel_once(monkeypatch):
    """The last field is solved, not enumerated: one exhaustive census makes
    one kernel call, and its report matches the pin."""
    import lie2.search as search
    calls = []

    def counted(*args, _real=search._jacobi_positions, **kwargs):
        calls.append(args[1])
        return _real(*args, **kwargs)
    monkeypatch.setattr(search, "_jacobi_positions", counted)
    for case in ((4, 1, None, 0), (3, 1, None, 0)):
        calls.clear()
        assert census_digest(case) == CENSUS_FROZEN[case]
        assert calls == [case[0]]


@pytest.mark.parametrize("n", range(3, 7))
def test_spans_all_matches_the_derived_rank_oracle(n):
    """The functional span test against the F2 rank by elimination, on
    random planes and on ANDs of several samples, which are often rank
    deficient, for 1, 2 and 4 planes per pair."""
    count = 4000
    for degree in (1, 2, 4):
        gf = GF(degree)
        random_planes = _sample_planes(gf, n, 31, 0, count)
        sparse = random_planes.copy()
        for seed in (32, 33):
            sparse &= _sample_planes(gf, n, seed, 0, count)
        for planes in (random_planes, sparse):
            got = _spans_all(planes, n)
            assert got.tolist() == (derived_rank_numpy(planes, n) == n).tolist()
        assert {True, False} <= set(got.tolist())


@pytest.mark.parametrize("n", range(3, 7))
def test_fused_f2_planes_match_the_stream_bytes(n):
    """F2 planes masked straight out of the stream blocks have the layout
    of the stream's bytes, transposed and masked to n bits: from a nonzero
    start, over a partial last block and within one block."""
    npairs = n * (n - 1) // 2
    for start, count in ((0, 2 * _MIX_BLOCK), (5, _MIX_BLOCK + 37), (12345, 100), (3, 1)):
        rows = bytes_from_words(splitmix64_words(8, start, count, (npairs + 7) // 8), npairs)
        want = (rows & ((1 << n) - 1)).T
        got = _sample_planes(GF(1), n, 8, start, count)
        assert got.shape == (npairs, count) and got.dtype == np.uint8
        assert (got == want).all()


def perfect_dim6_table(semidirect: bool) -> int:
    """o3 + o3, or o3 extended by its adjoint module: perfect, not simple."""
    o3 = {(0, 1): 2, (0, 2): 1, (1, 2): 0}
    table = {}
    for (i, j), k in o3.items():
        table[(i, j)] = 1 << k
        if semidirect:
            table[(i, j + 3)] = table[(j, i + 3)] = 1 << (k + 3)
        else:
            table[(i + 3, j + 3)] = 1 << (k + 3)
    alg = LieAlgebra(GF(1), 6, {p: [(v >> m) & 1 for m in range(6)]
                                for p, v in table.items()})
    assert derived_series(alg).dims == (6,) and not is_simple(alg).simple
    return algebra_to_table(alg)


def test_census_sampled_backend_agreement():
    """Sampled rows: vectorised mask and survivors against the scalar path."""
    for n in (5, 6):
        rows = sample_rows(n, 11, 20000)
        # few set bits, so that many tables satisfy Jacobi
        sparse = rows[:5000] & sample_rows(n, 12, 5000) & sample_rows(n, 13, 5000)
        for block in (rows, sparse):
            fields = np.ascontiguousarray(block.T)
            got = jacobi_mask(fields, n, len(block)).tolist()
            assert got == scalar_jacobi(block, n)
        assert sum(got) > 0
        simple = [i for i, ok in enumerate(scalar_simple(sparse, n)) if ok]
        assert census_sampled(n, sparse) == (5000, sum(got), simple)
    # [g, g] = g but not simple: every such table reaches is_simple
    perfect = [perfect_dim6_table(semidirect) for semidirect in (False, True)]
    rows = np.array([unpack_table(t, 6) for t in perfect], dtype=np.uint8)
    assert scalar_jacobi(rows, 6) == [True, True]
    assert census_sampled(6, rows) == (2, 2, [])
    rows = sample_rows(3, 11, 2000)
    positions = [i for i, ok in enumerate(scalar_simple(rows, 3)) if ok]
    assert len(positions) > 0
    assert census_sampled(3, rows) == (2000, sum(scalar_jacobi(rows, 3)), positions)
    scanned, jac, simple, first, tables = _run_sampled_packed(
        CensusSpec(dim=3, sample_count=2000, seed=11))
    assert (scanned, jac, simple, first) == (2000, sum(scalar_jacobi(rows, 3)),
                                             len(positions), None)
    assert tables == [pack_table(rows[i], 3) for i in positions]


def planes_algebra(gf, n, planes, s):
    """LieAlgebra of slot s of bit-planes `planes`, unpacked bit by bit."""
    k = gf.degree
    pairs = list(combinations(range(n), 2))
    return LieAlgebra(gf, n, {pair: [sum(((int(planes[p * k + t, s]) >> m) & 1) << t
                                         for t in range(k)) for m in range(n)]
                              for p, pair in enumerate(pairs)})


def sampled_jacobi_survivors(gf, n, seed, count):
    """LieAlgebras of the sampled tables over gf that pass the Jacobi kernel."""
    planes = _sample_planes(gf, n, seed, 0, count)
    return [planes_algebra(gf, n, planes, s)
            for s in _jacobi_positions(planes, n, count, gf=gf)]


def algebra_coefficients(alg):
    """Coefficient array c[p, m, 0] of one algebra, for the census array tests."""
    n = alg.dim
    return np.array([alg.table.get(pair, (0,) * n)
                     for pair in combinations(range(n), 2)])[:, :, None]


def test_dim3_simple_is_perfect():
    """In dim 3, is_simple agrees with [g, g] = g, and with the census's
    determinant test, on every F2 Lie table and on the Jacobi survivors of
    sampled GF(4), GF(8) and GF(16) tables; every simple one has derived and
    lower central series (3) and centre 0."""
    algs = [alg for alg in (table_to_algebra(3, t) for t in range(512))
            if validate_lie(alg, random_checks=0).ok]
    for degree, seed in ((2, 0), (2, 1), (3, 2), (4, 0)):
        algs += sampled_jacobi_survivors(GF(degree), 3, seed, 20000)
    simple = 0
    for alg in algs:
        assert validate_lie(alg, random_checks=0).ok
        verdict = is_simple(alg).simple
        assert (derived_series(alg).dims == (3,)) == verdict
        assert _perfect3(alg.gf, algebra_coefficients(alg)).tolist() == [verdict]
        if verdict:
            simple += 1
            assert _invariant_signature(alg) == ((3,), (3,), 0)
    assert (len(algs), simple) == (1464, 493)
    # the determinant needs no projective-seed budget; is_simple over
    # GF(2^16) has 2^32 + 2^16 + 1 seeds and refuses
    for name, want in (("o3", True), ("heis3", False)):
        alg = LieAlgebra(GF(16), 3, catalog(name).algebra.table)
        assert _perfect3(alg.gf, algebra_coefficients(alg)).tolist() == [want]
    with pytest.raises(BudgetExceeded):
        is_simple(LieAlgebra(GF(16), 3, catalog("o3").algebra.table))


def test_dim3_census_calls_neither_is_simple_nor_the_signature(monkeypatch):
    """Dim-3 survivors are decided by perfection and a generic census makes
    one class, so neither is_simple nor _invariant_signature runs, and the
    reports match their pins."""
    import lie2.search as search
    calls = []
    for name in ("is_simple", "_invariant_signature"):
        def counted(*args, _real=getattr(search, name), _name=name, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)
        monkeypatch.setattr(search, name, counted)
    for case in ((3, 2, 2000, 1), (3, 1, None, 0)):
        assert census_digest(case) == CENSUS_FROZEN[case]
    assert calls == []


def test_gf4_dim3_census_builds_one_algebra(monkeypatch):
    """A GF(4) dim-3 census decides its 617 Jacobi survivors on arrays: it
    builds one LieAlgebra, its representative, and validates it once."""
    import lie2.search as search
    calls = []
    for name in ("LieAlgebra", "validate_lie"):
        def counted(*args, _real=getattr(search, name), _name=name, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)
        monkeypatch.setattr(search, name, counted)
    case = (3, 2, 20000, 3)
    assert census_digest(case) == CENSUS_FROZEN[case]
    assert calls == ["LieAlgebra", "validate_lie"]


@pytest.mark.parametrize("case,per_block", [((3, 1, 2000, 11), 8), ((3, 2, 2000, 1), 5),
                                            ((3, 3, 2000, 1), 64), ((4, 2, 2000, 0), 7)])
def test_sampled_census_in_small_blocks_matches_its_pin(monkeypatch, case, per_block):
    """Hundreds of blocks of per_block tables give the pinned report: the
    block constant of the case's own field is patched, and the samples are
    drawn in blocks of exactly per_block tables.  The first two blocks hold
    no simple survivor, so the representative, the first simple survivor in
    sample order, comes from a later block (the GF(4) dim-4 sample has no
    Jacobi survivor at all)."""
    import lie2.search as search
    n, degree, count, seed = case
    gf = GF(degree)
    _jac, pos, _c = _census_planes(gf, n, _sample_planes(gf, n, seed, 0, count))
    assert pos.size == 0 or pos[0] >= 2 * per_block
    assert (pos.size == 0) == (n == 4)
    if degree == 1:
        monkeypatch.setattr(search, "_F2_BLOCK", per_block)
    else:
        monkeypatch.setattr(search, "_GF_BLOCK", per_block * n * n * (n - 1) // 2)
    counts = []

    def sample_planes(gf, n, seed, start, count, _real=search._sample_planes):
        counts.append(count)
        return _real(gf, n, seed, start, count)
    monkeypatch.setattr(search, "_sample_planes", sample_planes)
    assert census_digest(case) == CENSUS_FROZEN[case]
    assert counts == [min(per_block, count - lo) for lo in range(0, count, per_block)]


@pytest.mark.parametrize("spec", [
    CensusSpec(dim=3), CensusSpec(dim=4),
    CensusSpec(dim=5, sample_count=1 << 20, seed=3),
    CensusSpec(dim=6, sample_count=1 << 18, seed=3),
    CensusSpec(dim=3, field_degree=2, sample_count=20000, seed=3),
], ids=["d3", "d4", "d5-sampled", "d6-sampled", "gf4-d3-sampled"])
def test_census_working_set(spec):
    """Each census of the benchmark's census and extension workloads peaks
    under 6 MB of tracemalloc memory.  A sampled census holds one block's
    planes at a time: 2^18 F2 tables, whose planes take 2.6 MB at dim 5;
    with blocks of 2^20 tables the dim-5 census peaked at 13.9 MB."""
    census(spec)  # warm the caches, which a measured run does not rebuild
    tracemalloc.start()
    try:
        census(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6_000_000


# ---------------------------------------------------------------------------
# GF(2^k) census kernel


@pytest.mark.parametrize("degree", range(1, 9))
def test_gf_mul_arrays_matches_field_mul_on_every_pair(degree):
    gf = GF(degree)
    a, b = np.divmod(np.arange(gf.order * gf.order), gf.order)
    got = gf_mul_arrays(a.astype(np.uint8), b.astype(np.uint8), gf)
    assert got.dtype == np.uint8
    want = [gf.mul(x, y) for x in range(gf.order) for y in range(gf.order)]
    assert got.tolist() == want


def test_gf_mul_arrays_matches_field_mul_gf65536():
    gf = GF(16)
    rng = random.Random(16)
    pairs = [(rng.randrange(gf.order), rng.randrange(gf.order)) for _ in range(5000)]
    pairs += [(gf.order - 1, gf.order - 1), (1 << 15, 1 << 15), (0, gf.order - 1)]
    a, b = (np.array(col, dtype=np.uint16) for col in zip(*pairs))
    got = gf_mul_arrays(a, b, gf)
    assert got.dtype == np.uint16
    assert got.tolist() == [gf.mul(x, y) for x, y in pairs]


def coefficient_algebra(gf, n, c, s):
    """LieAlgebra of slot s of coefficient arrays c[p, m]."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return LieAlgebra(gf, n, dict(zip(pairs, c[:, :, s].tolist())))


def scaled_coefficients(gf, n, rows, rng):
    """F2 tables `rows` over gf in the basis lambda_a e_a, lambda random and
    nonzero per table: c_ab^m = t_ab^m lambda_a lambda_b / lambda_m.  Each is
    a Lie algebra exactly when its F2 table is, with GF(2^k) products that
    cancel only after reduction by the modulus."""
    c = np.zeros((n * (n - 1) // 2, n, len(rows)), dtype=np.uint16)
    for s, row in enumerate(rows):
        lam = [rng.randrange(1, gf.order) for _ in range(n)]
        for p, (a, b) in enumerate(combinations(range(n), 2)):
            for m in range(n):
                if (int(row[p]) >> m) & 1:
                    c[p, m, s] = gf.mul(gf.mul(lam[a], lam[b]), gf.inv(lam[m]))
    return c


def coefficient_planes(c, k):
    """Bit-planes of coefficient arrays c[p, m]: row p*k + t, bit m is bit t
    of c[p, m]."""
    npairs, n, count = c.shape
    planes = np.zeros((npairs * k, count), dtype=np.uint8)
    for p in range(npairs):
        for t in range(k):
            for m in range(n):
                planes[p * k + t] |= (((c[p, m] >> t) & 1) << m).astype(np.uint8)
    return planes


@pytest.mark.parametrize("degree,n,count", [(2, 3, 1500), (2, 4, 600), (4, 3, 600),
                                            (3, 3, 600), (10, 3, 300), (13, 5, 200),
                                            (16, 6, 100)])
def test_gf_jacobi_mask_matches_validate_lie(degree, n, count):
    """The bit-sliced kernel and the survivor re-check on coefficient
    arrays against validate_lie and the shift-and-add mask."""
    gf = GF(degree)
    dense = sample_coefficients(gf, n, 5, 0, count)
    planes = _sample_planes(gf, n, 5, 0, count)
    # AND of four streams leaves few set bits, so many tables satisfy
    # Jacobi; bit-slicing commutes with AND, so the planes follow suit
    sparse, sparse_planes = dense.copy(), planes.copy()
    for seed in (6, 7, 8):
        sparse &= sample_coefficients(gf, n, seed, 0, count)
        sparse_planes &= _sample_planes(gf, n, seed, 0, count)
    f2_rows = sample_rows(n, 20, count)
    for seed in (21, 22, 23):
        f2_rows = f2_rows & sample_rows(n, seed, count)
    scaled = scaled_coefficients(gf, n, f2_rows, random.Random(degree))
    for c, b in ((dense, planes), (sparse, sparse_planes),
                 (scaled, coefficient_planes(scaled, degree))):
        got = np.zeros(count, dtype=bool)
        got[_jacobi_positions(b, n, count, gf=gf)] = True
        want = [validate_lie(coefficient_algebra(gf, n, c, s), random_checks=0).ok
                for s in range(count)]
        assert got.tolist() == want == gf_jacobi_mask(c, n, gf).tolist()
        assert _jacobi_holds(gf, n, c).tolist() == want
    # the last set, the scaled F2 tables, has survivors at every degree
    assert 0 < sum(want) < count


@pytest.mark.parametrize("degree", [1, 2, 10, 16])
def test_perfect3_matches_derived_series_on_scaled_tables(degree):
    """The determinant test against the derived series on dim-3 Lie tables
    over GF(2^k) in a random diagonal basis, perfect and not."""
    gf = GF(degree)
    rows = [r for r in sample_rows(3, 30, 400) if table_jacobi_ok([int(v) for v in r], 3)]
    c = scaled_coefficients(gf, 3, rows, random.Random(degree))
    want = [derived_series(coefficient_algebra(gf, 3, c, s)).dims == (3,)
            for s in range(len(rows))]
    assert _perfect3(gf, c).tolist() == want
    assert 0 < sum(want) < len(rows)


def test_sample_coefficients_read_the_census_stream():
    """One byte per coefficient up to degree 8, two little-endian bytes above."""
    for degree, per in ((2, 1), (8, 1), (9, 2), (16, 2)):
        gf, n = GF(degree), 3
        c = sample_coefficients(gf, n, 4, 10, 7)
        rows = bytes_from_words(splitmix64_words(4, 10, 7, (9 * per + 7) // 8), 9 * per)
        for s in range(7):
            for p in range(3):
                for m in range(n):
                    pos = (p * n + m) * per
                    val = int(rows[s, pos]) | (int(rows[s, pos + 1]) << 8 if per == 2 else 0)
                    assert int(c[p, m, s]) == val & (gf.order - 1)
        # plane t of pair p holds bit t of every coordinate of the pair
        planes = _sample_planes(gf, n, 4, 10, 7).reshape(3, degree, 7)
        for t in range(degree):
            for m in range(n):
                assert (((planes[:, t] >> m) & 1) == ((c[:, m] >> t) & 1)).all()


RECHECKED = ((1, 3), (2, 3), (4, 3), (2, 4))  # (field degree, dimension)


def test_generic_census_revalidates_survivors(monkeypatch):
    """A kernel that passes every table is caught over F2, GF(4) and GF(16)
    in dim 3 and over GF(4) in dim 4."""
    import lie2.search as search
    monkeypatch.setattr(search, "_jacobi_positions",
                        lambda b, n, size, gf=None: np.arange(size))
    for degree, n in RECHECKED:
        with pytest.raises(InternalInconsistency, match="re-validation"):
            _run_sampled_packed(CensusSpec(dim=n, field_degree=degree, sample_count=50))


def test_census_rechecks_survivors_that_are_not_simple(monkeypatch):
    """A kernel that returns the true survivors plus one table that fails
    Jacobi and is not perfect, so not simple, is caught on every field: the
    re-check covers every survivor, not only the simple ones."""
    import lie2.search as search
    real = search._jacobi_positions
    for degree, n in RECHECKED:
        gf, count = GF(degree), 1000
        planes = _sample_planes(gf, n, 0, 0, count)
        survivors = set(real(planes, n, count, gf=gf).tolist())
        extra = next(s for s, alg in ((s, planes_algebra(gf, n, planes, s))
                                      for s in range(count) if s not in survivors)
                     if not validate_lie(alg, random_checks=0).ok
                     and derived_series(alg).dims != (n,))
        monkeypatch.setattr(search, "_jacobi_positions",
                            lambda b, n, size, gf=GF(1), extra=extra:
                            np.union1d(real(b, n, size, gf=gf), [extra]))
        with pytest.raises(InternalInconsistency, match="re-validation"):
            _run_sampled_packed(CensusSpec(dim=n, field_degree=degree, sample_count=count))


def test_invariant_signature_uses_lower_central_series():
    """heis3 and w11_p2 + F2 share derived series (3, 1, 0) and a 1-dim
    centre; only their lower central series, (3, 1, 0) and (3, 1), differ."""
    heis3 = catalog("heis3").algebra
    w11_plus_centre = LieAlgebra(GF(1), 3, {(0, 1): (1, 0, 0)})
    a, b = _invariant_signature(heis3), _invariant_signature(w11_plus_centre)
    assert a == ((3, 1, 0), (3, 1, 0), 1)
    assert b == ((3, 1, 0), (3, 1), 1)
    assert a != b


def test_census_never_imports_numba(src_env):
    """The census engine is plain numpy: numba is not even looked up."""
    script = textwrap.dedent("""
        import sys
        looked_up = []

        class Spy:
            def find_spec(self, name, path=None, target=None):
                looked_up.append(name)
                return None

        sys.meta_path.insert(0, Spy())
        import lie2.search
        lie2.search.census(lie2.search.CensusSpec(dim=3))
        assert "numba" not in sys.modules
        numba = [m for m in looked_up if m.split(".")[0] == "numba"]
        assert not numba, numba
    """)
    proc = subprocess.run([sys.executable, "-c", script], env=src_env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_census_sampled_dim5_frozen(monkeypatch):
    monkeypatch.setenv("LIE2_BACKEND", "auto")
    rep = census(CensusSpec(dim=5, sample_count=50000, seed=42, threads=2))
    assert rep.mode == "sampled"
    assert rep.candidates_scanned == 50000
    assert rep.jacobi_pass == 0 and rep.simple_count == 0
    assert rep.seed == 42 and rep.sample_count == 50000


def test_census_gf4_sampled_frozen():
    rep = census(CensusSpec(dim=3, field_degree=2, sample_count=500, seed=3))
    assert rep.candidates_scanned == 500
    assert rep.jacobi_pass == 15
    assert rep.simple_count == 5
    assert rep.restrictable_simple_count == 0
    assert len(rep.simple_iso_classes) == 1
    cls = rep.simple_iso_classes[0]
    assert cls["class_size"] == 5
    assert cls["grouping"] == "invariant_signature"
    # mask survivors were re-validated inside the census; re-check the
    # exported representative anyway
    from lie2 import from_json
    alg, _ = from_json(cls["representative"])
    assert validate_lie(alg, random_checks=20).ok
    assert is_simple(alg).simple


def no_floats(doc) -> bool:
    if isinstance(doc, bool) or doc is None:
        return True
    if isinstance(doc, float):
        return False
    if isinstance(doc, (int, str)):
        return True
    if isinstance(doc, dict):
        return all(no_floats(k) and no_floats(v) for k, v in doc.items())
    if isinstance(doc, (list, tuple)):
        return all(no_floats(v) for v in doc)
    return False


def test_census_report_has_caveat_and_no_floats():
    rep = census(CensusSpec(dim=3)).to_json()
    assert "not an algebraic closure" in rep["caveat"]
    assert no_floats(rep)
    assert isinstance(rep["runtime_ms"], int)
