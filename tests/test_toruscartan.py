"""Torus search, Cartan splitting, weight decomposition, audit tests.

Fixpoint counts are cross-checked against an in-test brute force over
matrix idempotents, and every structural claim of a decomposition is
re-verified from the bracket directly.
"""
from __future__ import annotations

import dataclasses
import random
import time
import tracemalloc
from itertools import combinations

import pytest

from lie2 import (FIELD_CAVEAT, BudgetExceeded, InvalidInput, Lie2Error,
                  NotSimultaneouslyDiagonalizable, NotTwoMapClosed,
                  RestrictedAlgebra, SplitFailed, Torus, audit_decomposition,
                  catalog, cartan_split, is_torus, max_tori, restricted, toruscartan,
                  weight_decompose)
from lie2.field import GF, GF2, Subspace, full_space, pack_bits, zero_vec
from lie2.liealg import (LieAlgebra, _gl_entry, _sl_entry, centralizer, from_json,
                         is_nilpotent_algebra, subspace_bracket, transpose)
from lie2.restricted import (_iterate_span, classify_element, jcs_decompose,
                             square_columns, two_map_eval, validate_restricted)
from lie2.toruscartan import _all_two_nilpotent, toral_elements
from dense_oracles import (coefficient_vectors, dense_express, max_tori_reinsert,
                           square_sweep, subspace_vectors, sweep_is_torus)
from test_reports_frozen import direct_sum, fixture, lifted_coords, lifted_doc


def ra_of(name: str) -> RestrictedAlgebra:
    entry = catalog(name)
    return RestrictedAlgebra(entry.algebra, entry.two_map)


def gl_basis_vec(n: int, r: int, c: int) -> tuple:
    v = [0] * (n * n)
    v[r * n + c] = 1
    return tuple(v)


def idempotent_count_oracle(n: int) -> int:
    """Brute force matrix idempotents over F2, including zero."""
    count = 0
    for code in range(1 << (n * n)):
        m = [[(code >> (i * n + j)) & 1 for j in range(n)] for i in range(n)]
        sq = [[sum(m[i][k] & m[k][j] for k in range(n)) & 1 for j in range(n)]
              for i in range(n)]
        if sq == m:
            count += 1
    return count


FIXPOINTS_INCLUDING_ZERO = {"heis3": 1, "sl2": 2, "gl2": 8, "w11_p2": 3,
                            "sl3": 29, "gl3": 58}


@pytest.mark.parametrize("name", sorted(FIXPOINTS_INCLUDING_ZERO))
def test_toral_element_counts_frozen(name):
    fx = toral_elements(ra_of(name))
    assert len(fx) == FIXPOINTS_INCLUDING_ZERO[name]
    assert (0,) * catalog(name).algebra.dim in fx


@pytest.mark.parametrize("n", [2, 3])
def test_gl_fixpoints_match_idempotent_oracle(n):
    # the 2-map of gl(n) is matrix squaring, so fixpoints = idempotents
    assert len(toral_elements(ra_of(f"gl{n}"))) == idempotent_count_oracle(n)


def test_toral_elements_budget_and_field_guards():
    """The budget bounds the sweep at every field degree; GF(8) and above
    are swept like GF(4), so the zero 2-map on GF(8) has 0 as its only
    fixpoint."""
    with pytest.raises(BudgetExceeded):
        toral_elements(ra_of("gl2"), budget=8)
    alg = LieAlgebra(GF(3), 1, {})
    ra = RestrictedAlgebra(alg, ((0,),))
    assert toral_elements(ra) == [(0,)]


MAX_TORUS_EXPECT = {
    "heis3": (0, 0),
    "sl2": (1, 1),
    "gl2": (2, 7),
    "w11_p2": (1, 2),
    "sl3": (2, 28),
    "gl3": (3, 57),
}


@pytest.mark.parametrize("name", sorted(MAX_TORUS_EXPECT))
def test_max_tori_exhaustive_ranks(name):
    rank, seen = MAX_TORUS_EXPECT[name]
    rep = max_tori(ra_of(name))
    assert rep.rank_lb == rank
    assert rep.fixpoints_seen == seen
    assert rep.exhaustive and rep.method == "exhaustive"
    assert rep.caveat == FIELD_CAVEAT
    assert rep.torus.rank == rank
    # the reported torus really is one
    if rank:
        check = is_torus(ra_of(name), rep.torus.space)
        assert check.is_torus and check.torus.rank == rank


def test_sl3_has_no_rank3_torus_over_f2():
    """Exhaustive sweep of all 2^8 vectors: toral rank caps at 2 here."""
    rep = max_tori(ra_of("sl3"))
    assert rep.exhaustive
    assert rep.rank_lb == 2
    assert rep.fixpoints_seen == 28


def change_basis(ra: RestrictedAlgebra, rng: random.Random) -> RestrictedAlgebra:
    """Structure constants in a random basis of F2^n (the columns of p)."""
    alg = ra.algebra
    n = alg.dim
    while True:
        cols = [tuple(rng.randrange(2) for _ in range(n)) for _ in range(n)]
        if Subspace(GF2, n, cols).dim == n:
            break
    table = {(i, j): dense_express(GF2, cols, alg.bracket(cols[i], cols[j]))
             for i in range(n) for j in range(i + 1, n)}
    two_map = tuple(dense_express(GF2, cols, two_map_eval(ra, c)) for c in cols)
    return RestrictedAlgebra(LieAlgebra(GF2, n, table), two_map)


def lex_first_max_torus(ra: RestrictedAlgebra):
    """Fixpoints in ascending order of sum_i v[i] q^i, and the
    lexicographically first largest index set of independent
    pairwise-commuting nonzero ones, by plain depth-first enumeration of
    every such set."""
    alg = ra.algebra
    n = alg.dim
    fixpoints = [v for v in coefficient_vectors(alg.gf, n) if two_map_eval(ra, v) == v]
    nonzero = fixpoints[1:]
    best = []

    def grow(chosen):
        nonlocal best
        if len(chosen) > len(best):
            best = chosen
        for i in range(chosen[-1] + 1 if chosen else 0, len(nonzero)):
            v = nonzero[i]
            basis = [nonzero[c] for c in chosen] + [v]
            if all(not any(alg.bracket(v, b)) for b in basis) and \
                    Subspace(alg.gf, n, basis).dim == len(basis):
                grow(chosen + [i])

    grow([])
    return fixpoints, tuple(nonzero[i] for i in best)


REFERENCE_CASES = ["heis3", "sl2", "gl2", "sl3", "gl3", "w11_p2", "abelian(3)",
                   "strictly_upper(4)", "gl2+w11_p2@1", "gl2+w11_p2@2", "gl2+w11_p2@3",
                   "gl2/GF4", "sl2/GF4", "w11_p2/GF4", "heis3/GF4", "strictly_upper(3)/GF4",
                   "gl2+w11_p2/GF4", "gl3@1", "gl3@2", "sl3@1"]


def reference_algebra(case: str) -> RestrictedAlgebra:
    """A catalog fixture or "+" sum of them; "@seed" rewrites it in a random
    basis of F2^n, "/GF4" or "/GF8" reads each summand in a seeded basis
    over that field."""
    name, _, seed = case.partition("@")
    name, _, order = name.partition("/GF")
    if order:
        parts = [RestrictedAlgebra(*from_json(lifted_doc(part, int(order).bit_length() - 1, 3)))
                 for part in name.split("+")]
    else:
        parts = [ra_of(part) for part in name.split("+")]
    ra = parts[0] if len(parts) == 1 else direct_sum(*parts)
    return change_basis(ra, random.Random(int(seed))) if seed else ra


@pytest.mark.parametrize("case", REFERENCE_CASES)
def test_max_tori_matches_brute_force(case):
    ra = reference_algebra(case)
    fixpoints, basis = lex_first_max_torus(ra)
    assert toral_elements(ra) == fixpoints
    rep = max_tori(ra)
    assert rep.exhaustive and rep.method == "exhaustive"
    assert rep.torus.toral_basis == basis
    assert rep.rank_lb == len(basis)
    assert rep.fixpoints_seen == len(fixpoints) - 1
    assert (rep.nodes > 0) == bool(basis)


def test_max_tori_certifies_gl3_plus_w11():
    rep = max_tori(direct_sum(ra_of("gl3"), ra_of("w11_p2")))
    assert rep.exhaustive and rep.method == "exhaustive"
    assert rep.rank_lb == 4
    assert rep.fixpoints_seen == 58 * 3 - 1
    assert rep.nodes == 154   # 1,507 before the clique lemma, 193 with its bound and a rank bound


# the reference cases, gl4, sl4 and psl4, and the direct sums of the
# structure benchmark in three seeded bases each
ORACLE_CASES = REFERENCE_CASES + ["gl4", "sl4", "psl4"] + [
    f"{name}@{seed}" for name in ("sl3+heis3", "gl2+w11_p2", "gl3+w11_p2") for seed in (4, 5, 6)]


@pytest.mark.parametrize("case", ORACLE_CASES)
def test_max_tori_matches_reinsert_oracle(case):
    """The clique bound and the count cut keep the answer of the search
    bounded by the rank of the candidates left, re-inserted at every node,
    and never visit more nodes than it."""
    if case in ("gl4", "sl4"):
        entry = (_gl_entry if case == "gl4" else _sl_entry)(4)
        ra = RestrictedAlgebra(entry.algebra, entry.two_map)
    else:
        ra = reference_algebra(case)
    basis, nodes, seen = max_tori_reinsert(ra)
    rep = max_tori(ra)
    assert rep.exhaustive and rep.method == "exhaustive"
    assert rep.torus.toral_basis == basis
    assert rep.fixpoints_seen == seen
    assert rep.nodes <= nodes


def has_commuting_set(cand: int, comm, size: int) -> bool:
    """Brute force: whether the index set cand holds size pairwise commuting
    fixpoints, trying each index with the later ones that commute with it."""
    if size <= 0:
        return True
    while cand.bit_count() >= size:
        low = cand & -cand
        cand ^= low
        if has_commuting_set(cand & comm[low.bit_length() - 1], comm, size - 1):
            return True
    return False


@pytest.mark.parametrize("name", ["gl3", "sl4", "gl3+w11_p2"])
def test_clique_bound_cuts_only_sets_without_a_large_clique(name, monkeypatch):
    """At every node the search colours, a colouring that stops short of
    the bound is checked against a brute-force search for that many
    pairwise commuting candidates."""
    calls = []
    real = toruscartan._colours_reach

    def spy(cand, comm, bound):
        reach = real(cand, comm, bound)
        calls.append((cand, comm, bound, reach))
        return reach

    monkeypatch.setattr(toruscartan, "_colours_reach", spy)
    if name == "sl4":
        entry = _sl_entry(4)
        ra = RestrictedAlgebra(entry.algebra, entry.two_map)
    else:
        ra = reference_algebra(name)
    max_tori(ra)
    cuts = [(cand, comm, bound) for cand, comm, bound, reach in calls if not reach]
    assert any(bound > 1 for _, _, bound in cuts)
    for cand, comm, bound in cuts:
        assert not has_commuting_set(cand, comm, bound)


# rank, nonzero fixpoints and nodes over F2; the nodes before the clique
# lemma were 139, 14,264, 3,639 and 343, and under the clique bound with
# the rank bound 60, 856, 576 and 343
NODE_PINS = {"gl3": (3, 57, 45), "gl4": (4, 801, 816), "sl4": (3, 561, 561),
             "psl4": (2, 336, 338)}


@pytest.mark.parametrize("name", sorted(NODE_PINS))
def test_max_tori_node_counts(name):
    """The node count of the exhaustive search.  On psl4 (dim 14) the
    clique bound cuts no more than its one-class case did, a node whose
    candidates pairwise do not commute, and the count cut takes 343 nodes
    to 338, against 1,318 under the rank bound alone."""
    if name in ("gl4", "sl4"):
        entry = (_gl_entry if name == "gl4" else _sl_entry)(4)
        ra = RestrictedAlgebra(entry.algebra, entry.two_map)
    else:
        ra = ra_of(name)
    rep = max_tori(ra)
    assert rep.exhaustive
    assert (rep.rank_lb, rep.fixpoints_seen, rep.nodes) == NODE_PINS[name]


def test_max_tori_sl5_exhaustive():
    """sl5 over F2 (dim 24, 2^24 vectors swept): toral rank 4 among 10,416
    nonzero fixpoints, exhaustive within the default node budget.  The
    clique lemma takes it from 881,648 nodes to 18,067 (18,394 with the
    rank bound in place of the count cut)."""
    entry = _sl_entry(5)
    rep = max_tori(RestrictedAlgebra(entry.algebra, entry.two_map), sweep_budget=2**24)
    assert rep.exhaustive and rep.method == "exhaustive"
    assert (rep.rank_lb, rep.fixpoints_seen, rep.nodes) == (4, 10416, 18067)


def test_max_tori_gl4_exhaustive_under_a_second():
    entry = _gl_entry(4)
    ra = RestrictedAlgebra(entry.algebra, entry.two_map)
    start = time.perf_counter()
    rep = max_tori(ra)
    elapsed = time.perf_counter() - start
    assert rep.exhaustive and rep.method == "exhaustive"
    assert rep.rank_lb == 4 and rep.fixpoints_seen == 801
    assert rep.torus.toral_basis == tuple(gl_basis_vec(4, i, i) for i in range(4))
    assert elapsed < 1.0


# every catalog algebra with a 2-map, the direct sums of the structure
# benchmark in a random basis, and GF(4) and GF(8) lifts
TRUTH_TABLE_CASES = ["heis3", "sl2", "gl2", "sl3", "gl3", "w11_p2", "abelian(3)",
                     "strictly_upper(4)", "sl3+heis3@1", "gl2+w11_p2@2", "gl3+w11_p2@3",
                     "gl2/GF4", "sl2/GF4", "w11_p2/GF4", "heis3/GF4", "sl3/GF4",
                     "strictly_upper(3)/GF4", "gl2/GF8", "sl2/GF8", "w11_p2/GF8",
                     "heis3/GF8"]


@pytest.mark.parametrize("case, block", [(case, block) for i, case in enumerate(TRUTH_TABLE_CASES)
                                         for block in (None, 2 + i % 3)])
def test_truth_table_fixpoints_match_square_sweep(case, block, monkeypatch):
    """The fixpoints read off truth tables are those of the Gray-code sweep.
    With a block of 2 to 4 bits the high part runs, so the constant q(hi)
    and the part of [lo, hi] linear in lo are tested too."""
    ra = reference_algebra(case)
    if block is not None:
        monkeypatch.setattr(toruscartan, "BLOCK_BITS", block)
    assert toruscartan._fixpoints(ra, 1 << 20) == \
        [x for x, square in sorted(square_sweep(ra)) if x == square]


def test_truth_tables_scale_to_twenty_coordinates():
    """gl4 + w11_p2 + w11_p2 has nk = 20 and 7,218 fixpoints; the whole
    budget of 2^20 vectors is read in 16 blocks of 2^16-bit tables."""
    w11, entry = ra_of("w11_p2"), _gl_entry(4)
    ra = direct_sum(direct_sum(RestrictedAlgebra(entry.algebra, entry.two_map), w11), w11)
    assert len(ra.algebra.ad_columns) == len(ra.squares) == 20  # tables built untimed
    start = time.perf_counter()
    fixpoints = toral_elements(ra)
    elapsed = time.perf_counter() - start
    assert len(fixpoints) == 7218
    assert fixpoints[0] == (0,) * 20 and all(two_map_eval(ra, v) == v for v in fixpoints[::97])
    tracemalloc.start()
    try:
        assert toral_elements(ra) == fixpoints
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert elapsed < 0.1
    assert peak < 4 << 20


@pytest.mark.parametrize("case", ["gl3", "gl2+w11_p2@1", "gl2/GF4", "sl3+heis3",
                                  "gl3+w11_p2", "gl2/GF8"])
def test_commutation_graph_matches_brackets(case):
    """The table-driven graph against one packed bracket per pair."""
    ra = reference_algebra(case)
    alg = ra.algebra
    items = [x for x in toruscartan._fixpoints(ra, 1 << 20) if x]
    comm = toruscartan._commutation_graph(
        alg, items, transpose(items, alg.dim * alg.gf.degree))
    assert [[comm[i] >> j & 1 for j in range(len(items))] for i in range(len(items))] == \
        [[int(i != j and not alg.packed_bracket(x, y)) for j, y in enumerate(items)]
         for i, x in enumerate(items)]


def test_max_tori_greedy_fallback():
    rep = max_tori(ra_of("gl2"), node_budget=1, restarts=16, seed=5)
    assert not rep.exhaustive and rep.method == "greedy"
    assert rep.rank_lb == 2   # I commutes with everything, greedy cannot stall at 1
    assert rep.caveat == FIELD_CAVEAT


def test_is_torus_verdicts_gl2():
    ra = ra_of("gl2")
    diag = Subspace(GF2, 4, [gl_basis_vec(2, 0, 0), gl_basis_vec(2, 1, 1)])
    rep = is_torus(ra, diag)
    assert rep.is_torus and rep.abelian and rep.injective
    assert rep.torus.toral_basis == ((1, 0, 0, 0), (0, 0, 0, 1))

    # E12 squares to zero: closed but not injective
    rep = is_torus(ra, Subspace(GF2, 4, [gl_basis_vec(2, 0, 1)]))
    assert not rep.is_torus and rep.abelian and not rep.injective

    # E11, E12 span a closed but non-abelian subspace
    rep = is_torus(ra, Subspace(GF2, 4, [gl_basis_vec(2, 0, 0),
                                         gl_basis_vec(2, 0, 1)]))
    assert not rep.is_torus and not rep.abelian

    # E12 + E21 squares to the identity, outside its own line
    with pytest.raises(NotTwoMapClosed):
        is_torus(ra, Subspace(GF2, 4, [(0, 1, 1, 0)]))


def test_is_torus_verdicts_gl2_over_gf4():
    """The same verdicts on gl2 in the seeded GF(4) basis of `lifted_doc`,
    where squaring is only semilinear and the canonical rows of a torus are
    not its own squares."""
    ra = RestrictedAlgebra(*from_json(lifted_doc("gl2", 2, 1)))
    gf = ra.algebra.gf

    def unit(r, c):
        return lifted_coords("gl2", 2, 1, gl_basis_vec(2, r, c))
    diag = Subspace(gf, 4, [unit(0, 0), unit(1, 1)])
    assert any(two_map_eval(ra, r) != r for r in diag.rows)
    rep = is_torus(ra, diag)
    assert rep.is_torus and rep.abelian and rep.injective
    basis = rep.torus.toral_basis
    assert len(basis) == 2 and Subspace(gf, 4, basis) == diag
    assert all(two_map_eval(ra, v) == v for v in basis)

    rep = is_torus(ra, Subspace(gf, 4, [unit(0, 1)]))
    assert not rep.is_torus and rep.abelian and not rep.injective


TORUS_ORACLE_NAMES = ["gl2", "gl3", "sl3", "w11_p2", "heis3", "abelian(3)"]


def seeded_subspaces(ra: RestrictedAlgebra, basis, rng: random.Random, count: int):
    """The span of every pair of catalog basis vectors and random spans of
    up to three vectors, which mostly fail closure or commutativity, and the
    2-power iterate spans of random elements and of their semisimple parts,
    which are closed and abelian and often tori."""
    alg = ra.algebra
    gf, n = alg.gf, alg.dim
    for i, j in combinations(range(n), 2):
        yield Subspace(gf, n, [basis[i], basis[j]])
    for t in range(count):
        x = tuple(rng.randrange(gf.order) for _ in range(n))
        if t % 3 == 0:
            yield Subspace(gf, n, [x] + [tuple(rng.randrange(gf.order) for _ in range(n))
                                         for _ in range(rng.randrange(3))])
        else:
            if t % 3 == 2:
                x = jcs_decompose(ra, x).semisimple
            yield _iterate_span(ra, pack_bits(x, gf.degree))


def verdict(fn, ra, s):
    try:
        return fn(ra, s)
    except Lie2Error as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("degree", [1, 2, 3, 4])
def test_is_torus_matches_sweep_oracle(degree):
    """is_torus against the per-row squares and the toral basis sweep it
    replaced: the same verdicts, toral bases, exception types and messages.
    Every subspace here has at most 2^16 vectors, so the sweep finishes."""
    outcomes = set()
    for name in TORUS_ORACLE_NAMES:
        n = catalog(name).algebra.dim
        units = [tuple(int(j == i) for j in range(n)) for i in range(n)]
        if degree == 1:
            ra, basis = ra_of(name), units
        else:
            ra = RestrictedAlgebra(*from_json(lifted_doc(name, degree, 11)))
            basis = [lifted_coords(name, degree, 11, u) for u in units]
        rng = random.Random(f"{name}/{degree}/is_torus")
        for s in seeded_subspaces(ra, basis, rng, 24):
            got = verdict(is_torus, ra, s)
            assert got == verdict(sweep_is_torus, ra, s)
            outcomes.add(got[1] if isinstance(got, tuple) else
                         (got.is_torus, got.abelian, got.torus is not None
                          and got.torus.toral_basis is not None))
    assert {(True, True, True), (False, True, False), (False, False, False),
            "square of basis row 0 leaves the subspace",
            (True, True, False), "bracket of basis rows leaves the subspace"} <= outcomes


def test_is_torus_matches_sweep_oracle_on_every_gl2_plane():
    """All 35 planes of gl2 over F2, which reach every order of the closure
    failures: row 0 or row 1 squaring out of the plane, and a bracket
    leaving it before the square of row 1 does."""
    ra = ra_of("gl2")
    vecs = [tuple((c >> i) & 1 for i in range(4)) for c in range(1, 16)]
    planes = {Subspace(GF2, 4, pair) for pair in combinations(vecs, 2)}
    assert len(planes) == 35
    messages = set()
    for s in planes:
        got = verdict(is_torus, ra, s)
        assert got == verdict(sweep_is_torus, ra, s)
        if isinstance(got, tuple):
            messages.add((got[1], s.contains(two_map_eval(ra, s.rows[1]))))
    assert messages == {("square of basis row 0 leaves the subspace", False),
                        ("square of basis row 0 leaves the subspace", True),
                        ("square of basis row 1 leaves the subspace", False),
                        ("bracket of basis rows leaves the subspace", False),
                        ("bracket of basis rows leaves the subspace", True)}


def test_wide_torus_gets_toral_basis_without_a_sweep():
    """abelian(3) over GF(2^8) with the identity 2-map: all of it is a torus
    of 2^24 vectors, beyond the sweep's budget, and its toral basis is the
    standard one."""
    gf = GF(8)
    ra = RestrictedAlgebra(LieAlgebra(gf, 3, {}), ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    whole = full_space(gf, 3)
    with pytest.raises(BudgetExceeded):
        sweep_is_torus(ra, whole)
    rep = is_torus(ra, whole)
    assert rep.is_torus and rep.torus.rank == 3
    assert rep.torus.toral_basis == ((1, 0, 0), (0, 1, 0), (0, 0, 1))


@pytest.mark.parametrize("name", ["heis3", "sl2", "gl2", "w11_p2", "abelian(3)"])
def test_toral_elements_over_gf8_match_two_map_scan(name):
    ra = RestrictedAlgebra(*from_json(lifted_doc(name, 3, 5)))
    alg = ra.algebra
    expect = [v for v in coefficient_vectors(alg.gf, alg.dim) if two_map_eval(ra, v) == v]
    assert toral_elements(ra) == expect


def test_zero_torus_is_torus():
    rep = is_torus(ra_of("heis3"), Subspace(GF2, 3))
    assert rep.is_torus and rep.torus.rank == 0


def test_cartan_split_gl2_diagonal():
    ra = ra_of("gl2")
    torus = is_torus(ra, Subspace(GF2, 4, [(1, 0, 0, 0), (0, 0, 0, 1)])).torus
    split = cartan_split(ra, torus)
    assert split.h == torus.space
    assert split.nil.dim == 0


def test_cartan_split_heis3_rank0():
    ra = ra_of("heis3")
    split = cartan_split(ra, Torus(Subspace(GF2, 3), ()))
    assert split.h.dim == 3
    assert split.nil.dim == 3


def test_cartan_split_sl2_fails():
    """sl2's nil candidates e, f close onto the central h: not a subalgebra."""
    ra = ra_of("sl2")
    torus = max_tori(ra).torus
    assert torus.rank == 1
    with pytest.raises(SplitFailed):
        cartan_split(ra, torus)


def per_element_nilpotent(ra: RestrictedAlgebra, space: Subspace) -> bool:
    """Classify every element of the span: the oracle of `_all_two_nilpotent`."""
    return all(classify_element(ra, v).two_nilpotent for v in subspace_vectors(space))


# catalog algebras whose GF(4) lifts fit the exhaustive toral sweep
GF4_LIFTS = ["heis3", "sl2", "gl2", "sl3", "gl3", "w11_p2", "abelian(3)",
             "strictly_upper(3)", "strictly_upper(4)"]


@pytest.mark.parametrize("name", GF4_LIFTS)
def test_nil_sweep_agrees_with_per_element_check_over_gf4(name):
    """On each accepted split both checks pass on the nil part, and on the
    centralizer (torus plus nil, also a 2-map closed subalgebra) they agree,
    failing exactly when the torus is nonzero."""
    alg, two_map = from_json(lifted_doc(name, 2, 3))
    ra = RestrictedAlgebra(alg, two_map)
    torus = max_tori(ra).torus
    try:
        split = cartan_split(ra, torus)
    except SplitFailed:
        assert name == "sl2"
        return
    q = alg.gf.order
    assert q ** split.nil.dim <= 1 << 12
    assert _all_two_nilpotent(ra, split.nil) and per_element_nilpotent(ra, split.nil)
    assert q ** split.h.dim <= 1 << 12
    assert _all_two_nilpotent(ra, split.h) == per_element_nilpotent(ra, split.h) \
        == (torus.rank == 0)


def test_nil_sweep_follows_long_nil_chains():
    """In strictly_upper(5) over F2, E12 + E23 + E34 + E45 squares three
    times before it reaches 0, and all 1,024 elements are 2-nilpotent."""
    ra = ra_of("strictly_upper(5)")
    split = cartan_split(ra, max_tori(ra).torus)
    assert split.nil.dim == 10
    assert _all_two_nilpotent(ra, split.nil) and per_element_nilpotent(ra, split.nil)
    chain = tuple(int(label in ("E12", "E23", "E34", "E45"))
                  for label in ra.algebra.labels)
    assert classify_element(ra, chain).nil_steps == 3


@pytest.mark.parametrize("degree", [1, 2, 5])
def test_nil_sweep_rejects_non_nilpotent_span(monkeypatch, degree):
    """span(e, f, h) of sl2 is a 2-map closed subalgebra, but h^[2] = h and
    (e + f)^[2] = h.  With every centralizer row passed off as nilpotent,
    cartan_split reaches the nil check and fails it, also over GF(32),
    whose 32,768 elements the check never enumerates."""
    alg, two_map = from_json(lifted_doc("sl2", degree, 3)) if degree > 1 else \
        (catalog("sl2").algebra, catalog("sl2").two_map)
    ra = RestrictedAlgebra(alg, two_map)
    whole = full_space(alg.gf, alg.dim)
    assert not _all_two_nilpotent(ra, whole)
    assert not per_element_nilpotent(ra, whole)
    monkeypatch.setattr(toruscartan, "torus_part", lambda ra, torus: lambda b: 0)
    with pytest.raises(SplitFailed) as err:
        cartan_split(ra, Torus(Subspace(alg.gf, alg.dim), ()))
    assert str(err.value) == "nilpotent part contains a non-2-nilpotent element"


def nilpotent_basis_sl2() -> RestrictedAlgebra:
    """sl2 over F2 in the basis (e, f, e + f + h): every bracket of two basis
    vectors is h = (1, 1, 1), and every basis vector squares to 0."""
    h = (1, 1, 1)
    return RestrictedAlgebra(LieAlgebra(GF2, 3, {(0, 1): h, (0, 2): h, (1, 2): h}),
                             (zero_vec(3),) * 3)


def test_nil_check_is_not_read_off_a_basis(monkeypatch):
    """The algebra is nilpotent and its basis is 2-nilpotent, yet (e + f)^[2]
    = h and h^[2] = h: the check must look past the basis."""
    ra = nilpotent_basis_sl2()
    alg, whole = ra.algebra, full_space(GF2, 3)
    assert validate_restricted(ra).ok and is_nilpotent_algebra(alg)
    assert all(classify_element(ra, r).two_nilpotent for r in whole.rows)
    assert two_map_eval(ra, (1, 1, 0)) == (1, 1, 1)
    assert not _all_two_nilpotent(ra, whole) and not per_element_nilpotent(ra, whole)
    monkeypatch.setattr(toruscartan, "torus_part", lambda ra, torus: lambda b: 0)
    with pytest.raises(SplitFailed, match="non-2-nilpotent"):
        cartan_split(ra, Torus(Subspace(GF2, 3), ()))


def two_map_closure(ra: RestrictedAlgebra, seeds) -> Subspace:
    """The smallest 2-map closed subalgebra holding the seeds: by Jacobson's
    formula, brackets and squares of its basis rows suffice."""
    alg = ra.algebra
    span = Subspace(alg.gf, alg.dim, seeds)
    while True:
        rows = span.rows
        grown = Subspace(alg.gf, alg.dim, rows + tuple(two_map_eval(ra, r) for r in rows)
                         + tuple(alg.bracket(a, b) for a, b in combinations(rows, 2)))
        if grown.dim == span.dim:
            return span
        span = grown


@pytest.mark.parametrize("degree", [1, 2])
def test_nil_check_agrees_with_per_element_check(degree):
    """On seeded random 2-map closed subalgebras of the catalog fixtures, in
    a seeded basis over F2 and lifted to GF(4), small enough to classify
    element by element."""
    rng = random.Random(f"nil/{degree}")
    outcomes = set()
    for name in GF4_LIFTS + ["strictly_upper(5)"]:
        alg, two_map = from_json(lifted_doc(name, degree, 3))
        ra = RestrictedAlgebra(alg, two_map)
        q = alg.gf.order
        for _ in range(16):
            seeds = [tuple(rng.randrange(q) if rng.random() < 0.4 else 0
                           for _ in range(alg.dim)) for _ in range(rng.randint(1, 2))]
            sub = two_map_closure(ra, seeds)
            if sub.dim == 0 or q ** sub.dim > 1 << 10:
                continue
            verdict = _all_two_nilpotent(ra, sub)
            assert verdict == per_element_nilpotent(ra, sub), (name, seeds)
            outcomes.add(verdict)
    assert outcomes == {False, True}


# ---------------------------------------------------------------------------
# the Cartan split reads semisimple parts off the torus


OUTSIDE = ("semisimple part of a centralizer element falls outside the torus; "
           "the torus is not maximal over this field")
NOT_ABELIAN = "torus is not abelian, centralizer misses it"
NOT_TORUS = "span is not a torus: squaring leaves it or kills part of it"


def split_by_jcs(ra: RestrictedAlgebra, torus: Torus):
    """The Cartan split as `jcs_decompose` gives it: the semisimple and
    nilpotent parts of each centralizer row, then the checks of
    `cartan_split` in its order.  (h, nil), or the SplitFailed message."""
    alg, space = ra.algebra, torus.space
    h = centralizer(alg, space)
    if not h.contains_subspace(space):
        return NOT_ABELIAN
    parts = [jcs_decompose(ra, b) for b in h.rows]
    if not all(space.contains(p.semisimple) for p in parts):
        return OUTSIDE
    nil = Subspace(alg.gf, alg.dim, [p.nilpotent for p in parts])
    if space.intersect(nil).dim:
        return "torus and nilpotent part overlap"
    if space.add(nil) != h:
        return "torus plus nilpotent part does not fill the centralizer"
    if not nil.contains_subspace(subspace_bracket(alg, nil, nil)):
        return "nilpotent part is not a subalgebra"
    if square_columns(ra, nil) is None:
        return "nilpotent part is not 2-map closed"
    if not _all_two_nilpotent(ra, nil):
        return "nilpotent part contains a non-2-nilpotent element"
    return h, nil


def split_outcome(ra: RestrictedAlgebra, torus: Torus):
    try:
        split = cartan_split(ra, torus)
    except SplitFailed as exc:
        return str(exc)
    return split.h, split.nil


SPLIT_FIXTURES = [(name, 1) for name in ["heis3", "sl2", "gl2", "sl3", "gl3", "w11_p2",
                                         "abelian(3)", "strictly_upper(4)",
                                         "strictly_upper(5)", "sl3+heis3", "gl2+w11_p2",
                                         "gl3+w11_p2"]] + [(name, 2) for name in GF4_LIFTS]


@pytest.mark.parametrize("name, degree", SPLIT_FIXTURES)
def test_split_reads_the_jcs_parts_off_the_torus(name, degree):
    """At a maximal torus, `torus_part` of each centralizer row is the
    semisimple part `jcs_decompose` gives when that part lies in the torus,
    and None when it does not; the nil part of the split is the span of the
    nilpotent parts, and the split fails, or not, as that span dictates."""
    ra = RestrictedAlgebra(*(fixture(name) if degree == 1 else
                             from_json(lifted_doc(name, degree, 3))))
    alg = ra.algebra
    torus = max_tori(ra).torus
    part = restricted.torus_part(ra, torus.space)
    assert part is not None
    h = centralizer(alg, torus.space)
    for b in h.rows:
        semisimple = jcs_decompose(ra, b).semisimple
        want = pack_bits(semisimple, alg.gf.degree) if torus.space.contains(semisimple) \
            else None
        assert part(pack_bits(b, alg.gf.degree)) == want
    assert split_outcome(ra, torus) == split_by_jcs(ra, torus)
    assert isinstance(split_outcome(ra, torus), tuple) == (name != "sl2")


@pytest.mark.parametrize("degree", [1, 2])
def test_split_matches_the_jcs_split_on_any_span(degree):
    """Spans of basis pairs, random spans and iterate spans, passed off as
    tori.  Genuine tori and subtori split or fail as the
    Jordan-Chevalley-Seligman parts of the centralizer rows dictate; a span
    that does not commute, or is abelian but no torus (squaring leaves it
    or kills part of it), fails at once with its own message."""
    outcomes = set()
    for name in TORUS_ORACLE_NAMES:
        n = catalog(name).algebra.dim
        units = [tuple(int(j == i) for j in range(n)) for i in range(n)]
        if degree == 1:
            ra, basis = ra_of(name), units
        else:
            ra = RestrictedAlgebra(*from_json(lifted_doc(name, degree, 11)))
            basis = [lifted_coords(name, degree, 11, u) for u in units]
        rng = random.Random(f"{name}/{degree}/split")
        for s in seeded_subspaces(ra, basis, rng, 24):
            torus = Torus(s, None)
            got = split_outcome(ra, torus)
            if not centralizer(ra.algebra, s).contains_subspace(s):
                kind, want = "not abelian", NOT_ABELIAN
            elif restricted.torus_part(ra, s) is None:
                kind, want = "no torus", NOT_TORUS
            else:
                kind, want = "torus", split_by_jcs(ra, torus)
            assert got == want
            outcomes.add((got if isinstance(got, str) else "split", kind))
    assert {("split", "torus"), (OUTSIDE, "torus"), (NOT_TORUS, "no torus"),
            (NOT_ABELIAN, "not abelian")} <= outcomes


def test_split_failure_messages_are_kept():
    """The subtorus span(E11) of gl3 misses the semisimple parts of E22 and
    E33; at sl2's maximal torus the nil candidates e, f bracket to h."""
    ra = ra_of("gl3")
    e11 = gl_basis_vec(3, 0, 0)
    sub = Torus(Subspace(GF2, 9, [e11]), (e11,))
    assert is_torus(ra, sub.space).is_torus
    with pytest.raises(SplitFailed) as err:
        cartan_split(ra, sub)
    assert str(err.value) == OUTSIDE
    ra = ra_of("sl2")
    with pytest.raises(SplitFailed) as err:
        cartan_split(ra, max_tori(ra).torus)
    assert str(err.value) == "nilpotent part is not a subalgebra"


@pytest.mark.parametrize("label", ["x", "z"])
def test_fake_torus_of_heis3_overlaps_its_nil_part(label):
    """span(x) and span(z) of heis3 are abelian and 2-map closed, but
    squaring kills them: no torus, so `torus_part` gives None and the split
    fails at once.  Split row by row, the span would overlap its nil part."""
    ra = ra_of("heis3")
    v = tuple(int(l == label) for l in ra.algebra.labels)
    fake = Subspace(GF2, 3, [v])
    assert restricted.torus_part(ra, fake) is None
    with pytest.raises(SplitFailed) as err:
        cartan_split(ra, Torus(fake, None))
    assert str(err.value) == NOT_TORUS
    assert split_by_jcs(ra, Torus(fake, None)) == "torus and nilpotent part overlap"


def test_weight_decompose_needs_no_element_classification(monkeypatch):
    """At a maximal torus the split reads every semisimple part off the
    torus: neither `jcs_decompose` nor `classify_element` runs, and the
    decompositions stay the same."""
    names = ["heis3", "sl2", "gl2", "sl3", "gl3", "w11_p2", "abelian(3)",
             "strictly_upper(4)"]
    expect = {}
    for name in names:
        ra = ra_of(name)
        try:
            expect[name] = weight_decompose(ra, max_tori(ra).torus)
        except SplitFailed as exc:
            expect[name] = str(exc)

    def forbidden(*args):
        raise AssertionError("per-element classification reached")
    for attr in ("jcs_decompose", "classify_element"):
        monkeypatch.setattr(restricted, attr, forbidden)
    for name in names:
        ra = ra_of(name)
        try:
            dec = weight_decompose(ra, max_tori(ra).torus)
        except SplitFailed as exc:
            assert str(exc) == expect[name] == "nilpotent part is not a subalgebra"
            continue
        want = expect[name]
        assert (dec.h, dec.nil, dec.weights) == (want.h, want.nil, want.weights)


DIM_PATTERN_EXPECT = {
    "gl2": {"toral_rank": 2, "nil_dim": 0, "root_dims": {"11": 2}},
    "gl3": {"toral_rank": 3, "nil_dim": 0,
            "root_dims": {"011": 2, "101": 2, "110": 2}},
    "sl3": {"toral_rank": 2, "nil_dim": 0,
            "root_dims": {"01": 2, "10": 2, "11": 2}},
    "heis3": {"toral_rank": 0, "nil_dim": 3, "root_dims": {}},
}


@pytest.mark.parametrize("name", sorted(DIM_PATTERN_EXPECT))
def test_weight_decompose_dim_patterns(name):
    ra = ra_of(name)
    dec = weight_decompose(ra, max_tori(ra).torus)
    assert dec.dim_pattern() == DIM_PATTERN_EXPECT[name]
    total = dec.h.dim + sum(sp.dim for sp in dec.weights.values())
    assert total == ra.algebra.dim


@pytest.mark.parametrize("name", ["gl2", "gl3", "sl3", "heis3"])
def test_grading_bracket_containment(name):
    """[g_lam, g_mu] lands in g_(lam+mu), with the Cartan as weight zero."""
    ra = ra_of(name)
    alg = ra.algebra
    dec = weight_decompose(ra, max_tori(ra).torus)
    r = dec.rank
    zero = (0,) * r
    graded = dict(dec.weights)
    graded[zero] = dec.h
    for lam, u in graded.items():
        for mu, v in graded.items():
            target = tuple(a ^ b for a, b in zip(lam, mu))
            tgt = graded.get(target, Subspace(alg.gf, alg.dim))
            for a in u.rows:
                for b in v.rows:
                    assert tgt.contains(alg.bracket(a, b))


def test_weight_vectors_satisfy_eigen_equations():
    ra = ra_of("sl3")
    dec = weight_decompose(ra, max_tori(ra).torus)
    for lam, sp in dec.weights.items():
        for v in sp.rows:
            for i, t in enumerate(dec.torus.toral_basis):
                got = ra.algebra.bracket(t, v)
                assert got == (tuple(v) if lam[i] else (0,) * 8)


def test_toral_coords_and_root_value():
    ra = ra_of("gl3")
    dec = weight_decompose(ra, max_tori(ra).torus)
    basis = dec.torus.toral_basis
    assert len(basis) == 3
    for i, t in enumerate(basis):
        c = dec.toral_coords(t)
        assert c == tuple(1 if j == i else 0 for j in range(3))
    lam = dec.roots()[0]
    val = dec.root_value(lam, basis[0])
    assert val == lam[0]
    with pytest.raises(InvalidInput):
        dec.toral_coords((1,) * 9 if not dec.torus.space.contains((1,) * 9)
                         else (0, 1) + (1,) * 7)


def test_weight_decompose_requires_toral_basis():
    ra = ra_of("sl3")
    rep = max_tori(ra)
    bogus = Torus(rep.torus.space, None)
    with pytest.raises(InvalidInput):
        weight_decompose(ra, bogus)


def test_weight_decompose_solves_the_centralizer_once(monkeypatch):
    """gl3 at its rank-3 torus: 8 joint eigenspaces, the weight-zero one
    reused as the centralizer of the split, and the centre of its nil part
    for the 2-nilpotence check."""
    from lie2 import liealg
    ra = ra_of("gl3")
    torus = max_tori(ra).torus
    calls = []
    real = liealg.ad_kernel

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(liealg, "ad_kernel", counted)
    monkeypatch.setattr(toruscartan, "ad_kernel", counted)
    weight_decompose(ra, torus)
    assert len(calls) == 9


def test_non_diagonalizable_pseudo_torus_detected():
    # span(x) in heis3 with x declared "toral": ad(x) is nilpotent, not
    # idempotent, so joint eigenspaces cannot fill the algebra
    ra = ra_of("heis3")
    fake = Torus(Subspace(GF2, 3, [(1, 0, 0)]), ((1, 0, 0),))
    with pytest.raises(NotSimultaneouslyDiagonalizable):
        weight_decompose(ra, fake)


AUDIT_NAMES = ["eigen_recheck", "one_dim_root_annihilation",
               "root_bracket_kernel", "iso_rule_transport"]


@pytest.mark.parametrize("name", ["gl2", "gl3", "sl3", "heis3"])
def test_audits_pass_on_catalog(name):
    ra = ra_of(name)
    dec = weight_decompose(ra, max_tori(ra).torus)
    rep = audit_decomposition(dec)
    assert rep.ok
    assert sorted(rep.checks) == sorted(AUDIT_NAMES)
    for check in rep.checks.values():
        assert check.passed and not check.failures


def test_iso_rule_audit_triggers_on_sl3_and_gl3():
    """Sums like E12+E21 square onto the torus and force dimension transport."""
    for name, want in (("sl3", 6), ("gl3", 6), ("gl2", 0)):
        ra = ra_of(name)
        dec = weight_decompose(ra, max_tori(ra).torus)
        check = audit_decomposition(dec).checks["iso_rule_transport"]
        assert check.triggered == want, name
        assert check.passed


def test_eigen_audit_catches_tampered_weights():
    ra = ra_of("sl3")
    dec = weight_decompose(ra, max_tori(ra).torus)
    lams = dec.roots()
    swapped = dict(dec.weights)
    swapped[lams[0]], swapped[lams[1]] = swapped[lams[1]], swapped[lams[0]]
    tampered = dataclasses.replace(dec, weights=swapped)
    rep = audit_decomposition(tampered)
    assert not rep.ok
    assert not rep.checks["eigen_recheck"].passed
    assert rep.checks["eigen_recheck"].failures


def test_one_dim_audit_triggers_when_one_dim_roots_exist():
    # abelian toy with a handmade decomposition is overkill; w11_p2 has a
    # rank-1 torus whose single root space is 1-dimensional
    ra = ra_of("w11_p2")
    dec = weight_decompose(ra, max_tori(ra).torus)
    assert dec.dim_pattern() == {"toral_rank": 1, "nil_dim": 0,
                                 "root_dims": {"1": 1}}
    rep = audit_decomposition(dec)
    assert rep.ok
    assert rep.checks["one_dim_root_annihilation"].triggered == 1


def audit_summary(dec):
    """Each audit as (passed, checked, triggered, failures), in report order."""
    return {name: (c.passed, c.checked, c.triggered, c.failures)
            for name, c in audit_decomposition(dec).checks.items()}


def sl3_decomposition(degree: int):
    ra = ra_of("sl3") if degree == 1 else RestrictedAlgebra(*from_json(lifted_doc("sl3", degree, 3)))
    return weight_decompose(ra, max_tori(ra).torus)


def image_left(eta, target):
    return f"ad(e) image left the target root space ({eta} vs {target})"


def test_one_dim_audit_catches_acting_nil():
    """w11_p2 with xd passed off as its nil part: [xd, d] = d is not zero."""
    ra = ra_of("w11_p2")
    dec = weight_decompose(ra, max_tori(ra).torus)
    tampered = dataclasses.replace(dec, nil=Subspace(GF2, 2, [(0, 1)]))
    assert audit_summary(tampered) == {
        "eigen_recheck": (True, 2, 0, []),
        "one_dim_root_annihilation":
            (False, 1, 1, ["nil part acts nontrivially on 1-dim root space (1,)"]),
        "root_bracket_kernel": (True, 0, 0, []),
        "iso_rule_transport": (True, 0, 0, [])}


@pytest.mark.parametrize("degree, repeats", [(1, (1, 1, 1)), (2, (1, 2, 2))])
def test_bracket_and_iso_audits_catch_a_shrunk_cartan(degree, repeats):
    """With the Cartan replaced by 0, root-space brackets and nonzero
    squares of root vectors leave it; over GF(4) some combinations square
    to 0 and are skipped."""
    dec = sl3_decomposition(degree)
    tampered = dataclasses.replace(dec, h=Subspace(dec.ra.algebra.gf, 8))
    roots = [(1, 0), (0, 1), (1, 1)]
    assert audit_summary(tampered) == {
        "eigen_recheck": (True, 12, 0, []),
        "one_dim_root_annihilation": (True, 0, 0, []),
        "root_bracket_kernel":
            (False, 3, 0, [f"[g_xi, g_xi] left the Cartan at root {lam}" for lam in roots]),
        "iso_rule_transport":
            (False, 0, 0, [f"square of a root vector left the Cartan at {lam}"
                           for lam, count in zip(roots, repeats) for _ in range(count)])}


@pytest.mark.parametrize("degree, sources", [(1, [(0, 1), (1, 0)]),
                                             (2, [(0, 1), (1, 0), (1, 0)])])
def test_iso_audit_catches_a_missing_root_space(degree, sources):
    dec = sl3_decomposition(degree)
    weights = dict(dec.weights)
    del weights[(1, 1)]
    tampered = dataclasses.replace(dec, weights=weights)
    assert audit_summary(tampered) == {
        "eigen_recheck": (True, 12, 0, []),
        "one_dim_root_annihilation": (True, 0, 0, []),
        "root_bracket_kernel": (True, 2, 0, []),
        "iso_rule_transport":
            (False, len(sources), len(sources),
             [f"root dims differ under transport: {eta} has 2, (1, 1) has 0"
              for eta in sources])}


@pytest.mark.parametrize("degree", [1, 2])
def test_audits_catch_a_relabelled_root_space(degree):
    """g_10 also filed as g_11: its brackets have toral parts outside the
    kernel of 11, and the iso rule finds images outside the labelled spaces
    and an e that ad(e) sends to 0 in its own space."""
    dec = sl3_decomposition(degree)
    weights = dict(dec.weights)
    weights[(1, 1)] = weights[(1, 0)]
    tampered = dataclasses.replace(dec, weights=weights)
    pairs = [((0, 1), (1, 1)), ((1, 1), (0, 1)), ((1, 0), (1, 1)), ((1, 1), (1, 0))]
    if degree == 2:
        pairs += [((1, 0), (1, 1)), ((1, 1), (1, 0))]
    pairs.append(((0, 1), (1, 0)))
    assert audit_summary(tampered) == {
        "eigen_recheck":
            (False, 16, 0, ["eigen equation failed at weight (1, 1), basis 1"] * 2),
        "one_dim_root_annihilation": (True, 0, 0, []),
        "root_bracket_kernel":
            (False, 3, 0, ["toral part of a root-space bracket escapes Ker xi at root (1, 1)"]),
        "iso_rule_transport":
            (False, 4 + 2 * degree, 4 + 2 * degree,
             [image_left(*pair) for pair in pairs for _ in range(2)]
             + ["ad(e) not injective between (1, 1) and (0, 0)"] * 2)}


def test_bracket_audit_rejects_a_cartan_beyond_torus_plus_nil():
    """g_11 replaced by the span of a row of g_10 and a row of g_01, whose
    bracket lies in the true g_11, and the Cartan by the whole space: the
    bracket is in the Cartan but not in torus + nil, which is an invalid
    decomposition rather than an audit failure."""
    dec = sl3_decomposition(1)
    weights = dict(dec.weights)
    weights[(1, 1)] = Subspace(GF2, 8, [dec.weights[(1, 0)].rows[0],
                                        dec.weights[(0, 1)].rows[1]])
    tampered = dataclasses.replace(dec, h=full_space(GF2, 8), weights=weights)
    with pytest.raises(InvalidInput, match="^element is not in the centralizer of the torus$"):
        audit_decomposition(tampered)


@pytest.mark.parametrize("case", ["sl3", "gl3", "sl3/GF4", "gl3/GF4"])
def test_decomposition_and_audits_run_packed(case, monkeypatch):
    """weight_decompose and audit_decomposition make no tuple-vector
    bracket, square or span membership test: each raises here."""
    ra = reference_algebra(case)
    torus = max_tori(ra).torus

    def forbidden(*args, **kwargs):
        raise AssertionError("tuple-vector call in the decomposition or its audits")

    monkeypatch.setattr(LieAlgebra, "bracket", forbidden)
    monkeypatch.setattr(Subspace, "contains", forbidden)
    monkeypatch.setattr(restricted, "two_map_eval", forbidden)
    assert not hasattr(toruscartan, "two_map_eval")
    rep = audit_decomposition(weight_decompose(ra, torus))
    assert rep.ok
    assert rep.checks["iso_rule_transport"].triggered > 0
