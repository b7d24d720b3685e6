"""Bracket-table algebra tests over the built-in catalog.

Expected structure constants, series dimensions, centers, and simplicity
verdicts below were computed by hand from the defining matrices (commutator
of the listed basis matrices over F2) and frozen here.
"""
from __future__ import annotations

import json
import random
import time

import pytest

from lie2 import (InvalidInput, LieAlgebra, catalog, catalog_names, center,
                  centralizer, derived_series, from_json, ideal_closure,
                  is_simple, is_subalgebra, to_json, validate_lie)
from lie2.field import GF, GF2, Subspace
from lie2.liealg import (MAX_DIM, _unit, algebra_from_matrices, is_ideal,
                         is_nilpotent_algebra, is_solvable_algebra,
                         lower_central_series, subspace_bracket)
from lie2.errors import BudgetExceeded
from dense_oracles import (basis_vec, f2_ideal_rank, is_simple_full_sweep, jacobi_residual,
                           subspace_vectors)
from test_reports_frozen import lifted_doc

ALL_NAMES = ["o3", "heis3", "sl2", "gl2", "sl3", "gl3", "w11_p2",
             "abelian(4)", "strictly_upper(3)"]


def test_catalog_names_listing():
    assert catalog_names()[:7] == ["o3", "heis3", "sl2", "gl2", "sl3",
                                   "gl3", "w11_p2"]
    with pytest.raises(InvalidInput):
        catalog("nope")
    with pytest.raises(InvalidInput):
        catalog("abelian(0)")


def test_o3_bracket_table_frozen():
    # cross product: [e1,e2]=e3, [e1,e3]=e2, [e2,e3]=e1
    alg = catalog("o3").algebra
    assert alg.table == {(0, 1): (0, 0, 1), (0, 2): (0, 1, 0),
                         (1, 2): (1, 0, 0)}
    assert catalog("o3").two_map is None


def test_sl2_bracket_table_frozen():
    # char 2 collapses [h,e] and [h,f]; only [e,f]=h survives
    alg = catalog("sl2").algebra
    assert alg.table == {(0, 1): (0, 0, 1)}


def test_heis3_and_w11_frozen():
    assert catalog("heis3").algebra.table == {(0, 1): (0, 0, 1)}
    assert catalog("heis3").two_map == ((0, 0, 0),) * 3
    assert catalog("w11_p2").algebra.table == {(0, 1): (1, 0)}
    assert catalog("w11_p2").two_map == ((0, 0), (0, 1))


@pytest.mark.parametrize("name", ALL_NAMES)
def test_catalog_validates(name):
    alg = catalog(name).algebra
    rep = validate_lie(alg, random_checks=50, seed=1)
    assert rep.ok and not rep.failing_triples
    n = alg.dim
    assert rep.triples_checked == n * (n - 1) * (n - 2) // 6


def test_validate_catches_broken_jacobi():
    # [e1,e2]=e3, [e1,e3]=e1 fails J(e1,e2,e3) with residual e3
    alg = LieAlgebra(GF2, 3, {(0, 1): (0, 0, 1), (0, 2): (1, 0, 0)})
    rep = validate_lie(alg)
    assert not rep.ok
    assert rep.failing_triples == [(0, 1, 2, (0, 0, 1))]
    assert rep.random_checked == 0


@pytest.mark.parametrize("degree", [1, 2, 4])
def test_validate_triples_match_basis_residuals(degree):
    """failing_triples, in order, are the nonzero residuals on basis vectors."""
    gf = GF(degree)
    rng = random.Random(degree)
    for n in (3, 4, 5):
        for _ in range(20):
            # sparse tables, so that some satisfy Jacobi and some do not
            table = {(i, j): [rng.randrange(gf.order) if rng.random() < 0.2 else 0
                              for _ in range(n)]
                     for i in range(n) for j in range(i + 1, n)}
            alg = LieAlgebra(gf, n, table)
            want = []
            for i in range(n):
                for j in range(i + 1, n):
                    for k in range(j + 1, n):
                        r = jacobi_residual(alg, basis_vec(n, i), basis_vec(n, j),
                                            basis_vec(n, k))
                        if any(r):
                            want.append((i, j, k, r))
            rep = validate_lie(alg, random_checks=0)
            assert rep.failing_triples == want
            assert rep.ok == (not want)
            assert rep.triples_checked == n * (n - 1) * (n - 2) // 6


def test_jacobi_residual_zero_on_o3():
    alg = catalog("o3").algebra
    rng = random.Random(7)
    for _ in range(50):
        x, y, z = (tuple(rng.randrange(2) for _ in range(3)) for _ in range(3))
        assert jacobi_residual(alg, x, y, z) == (0, 0, 0)


def test_bracket_bilinear_over_gf4():
    gf = GF(2)
    alg = LieAlgebra(gf, 2, {(0, 1): (2, 1)})
    rep = validate_lie(alg, random_checks=200, seed=3)
    assert rep.ok and rep.random_checked == 200
    assert alg.bracket((1, 0), (0, 1)) == (2, 1)
    assert alg.bracket((0, 1), (1, 0)) == (2, 1)
    assert alg.bracket((2, 0), (0, 1)) == (3, 2)


SERIES_EXPECT = {
    "o3": (3,),
    "heis3": (3, 1, 0),
    "sl2": (3, 1, 0),
    "gl2": (4, 3, 1, 0),
    "sl3": (8,),
    "gl3": (9, 8),
    "w11_p2": (2, 1, 0),
    "abelian(4)": (4, 0),
    "strictly_upper(3)": (3, 1, 0),
}


@pytest.mark.parametrize("name", sorted(SERIES_EXPECT))
def test_derived_series_dims(name):
    rep = derived_series(catalog(name).algebra)
    assert rep.kind == "derived"
    assert rep.dims == SERIES_EXPECT[name]
    for big, small in zip(rep.spaces, rep.spaces[1:]):
        assert big.contains_subspace(small)


def test_lower_central_heis3_and_flags():
    rep = lower_central_series(catalog("heis3").algebra)
    assert rep.dims == (3, 1, 0)
    assert is_nilpotent_algebra(catalog("heis3").algebra)
    assert is_nilpotent_algebra(catalog("strictly_upper(3)").algebra)
    # sl2 in char 2 is nilpotent: [e,f]=h is central
    assert is_nilpotent_algebra(catalog("sl2").algebra)
    # w11_p2 is solvable but not nilpotent: [g, <d>] = <d> forever
    assert not is_nilpotent_algebra(catalog("w11_p2").algebra)
    assert is_solvable_algebra(catalog("w11_p2").algebra)
    assert is_solvable_algebra(catalog("sl2").algebra)
    assert is_solvable_algebra(catalog("gl2").algebra)
    assert not is_solvable_algebra(catalog("o3").algebra)
    assert not is_solvable_algebra(catalog("sl3").algebra)


CENTER_EXPECT = {
    "o3": 0,
    "heis3": 1,
    "sl2": 1,
    "gl2": 1,
    "sl3": 0,
    "gl3": 1,
    "w11_p2": 0,
    "abelian(4)": 4,
    "strictly_upper(3)": 1,
}


@pytest.mark.parametrize("name", sorted(CENTER_EXPECT))
def test_center_dims(name):
    alg = catalog(name).algebra
    z = center(alg)
    assert z.dim == CENTER_EXPECT[name]
    for row in z.rows:
        for j in range(alg.dim):
            assert alg.bracket(row, basis_vec(alg.dim, j)) == tuple([0] * alg.dim)


def test_center_witnesses():
    assert center(catalog("heis3").algebra).contains((0, 0, 1))
    assert center(catalog("sl2").algebra).contains((0, 0, 1))
    # gl2 center is the identity matrix E11 + E22
    assert center(catalog("gl2").algebra).contains((1, 0, 0, 1))


SIMPLE_EXPECT = {
    "o3": True,
    "heis3": False,
    "sl2": False,
    "gl2": False,
    "sl3": True,
    "gl3": False,
    "w11_p2": False,
    "abelian(4)": False,
}


@pytest.mark.parametrize("name", sorted(SIMPLE_EXPECT))
def test_simplicity_verdicts(name):
    alg = catalog(name).algebra
    rep = is_simple(alg)
    assert rep.simple == SIMPLE_EXPECT[name]
    if rep.simple:
        assert rep.seeds_checked == (2 ** alg.dim - 1)
        assert rep.witness is None
    elif rep.witness is not None:
        assert 0 < rep.witness.dim < alg.dim
        assert is_ideal(alg, rep.witness)


def sum_of(a: LieAlgebra, b: LieAlgebra) -> LieAlgebra:
    """The direct sum of a and b over their common field, a's basis first."""
    n, m = a.dim, b.dim
    table = {k: tuple(v) + (0,) * m for k, v in a.table.items()}
    table.update({(i + n, j + n): (0,) * n + tuple(v) for (i, j), v in b.table.items()})
    return LieAlgebra(a.gf, n + m, table)


def simplicity_cases():
    """Every catalog algebra over F2 and lifted to GF(4) and GF(16), and
    non-simple controls: direct sums, two of them perfect."""
    base = catalog_names()[:7] + ["abelian(3)", "strictly_upper(4)"]
    cases = [(f"{name}/{d}", catalog(name).algebra if d == 1
              else from_json(lifted_doc(name, d, 7))[0])
             for d in (1, 2, 4) for name in base]
    for d in (1, 2, 4):
        o3 = dict(cases)[f"o3/{d}"]
        cases += [(f"o3+o3/{d}", sum_of(o3, o3)), (f"o3+heis3/{d}",
                  sum_of(o3, dict(cases)[f"heis3/{d}"]))]
    cases.append(("sl3+o3/1", sum_of(catalog("sl3").algebra, catalog("o3").algebra)))
    return cases


def simplicity_outcome(check, alg):
    try:
        rep = check(alg)
    except BudgetExceeded as exc:
        return "budget", str(exc)
    return rep.simple, rep.seeds_checked, rep.reason, rep.witness


def test_is_simple_matches_the_full_sweep():
    """The earlier-seed shortcut leaves every verdict, seed count, reason
    and witness of the full sweep unchanged, and every exit is reached."""
    exits = set()
    for label, alg in simplicity_cases():
        got = simplicity_outcome(is_simple, alg)
        assert got == simplicity_outcome(is_simple_full_sweep, alg), label
        exits.add(got[0] if got[0] == "budget" else got[2])
    assert exits == {"budget", "abelian", "derived subalgebra is a proper ideal",
                     "proper ideal from seed", "all seeds generate the algebra"}


def test_sl2_witness_is_central_ideal():
    rep = is_simple(catalog("sl2").algebra)
    assert rep.witness is not None and rep.witness.contains((0, 0, 1))
    assert rep.reason == "derived subalgebra is a proper ideal"


def test_dim1_not_simple():
    alg = LieAlgebra(GF2, 1, {})
    assert not is_simple(alg).simple


def test_ideal_closure_o3_any_seed_is_everything():
    alg = catalog("o3").algebra
    for i in range(3):
        assert ideal_closure(alg, basis_vec(3, i)).dim == 3


def test_ideal_closure_heis3():
    alg = catalog("heis3").algebra
    assert ideal_closure(alg, (0, 0, 1)).dim == 1
    cl = ideal_closure(alg, (1, 0, 0))
    assert cl.dim == 2 and cl.contains((0, 0, 1))
    assert is_ideal(alg, cl)


@pytest.mark.parametrize("name", ["o3", "heis3", "sl2", "gl2", "gl3",
                                  "w11_p2", "strictly_upper(4)"])
def test_packed_ideal_rank_matches_subspace_closure(name):
    alg = catalog(name).algebra
    n = alg.dim
    ad = alg.ad_columns
    rng = random.Random(n)
    seeds = range(1, 1 << n) if n <= 4 else [rng.randrange(1, 1 << n) for _ in range(40)]
    for seed in seeds:
        v = tuple((seed >> m) & 1 for m in range(n))
        assert f2_ideal_rank(ad, n, [seed]) == ideal_closure(alg, v).dim


def test_centralizer_values():
    o3 = catalog("o3").algebra
    line = Subspace(GF2, 3, [(1, 0, 0)])
    assert centralizer(o3, line).rows == ((1, 0, 0),)
    heis = catalog("heis3").algebra
    c = centralizer(heis, Subspace(GF2, 3, [(1, 0, 0)]))
    assert c.dim == 2 and c.contains((0, 0, 1))
    assert centralizer(o3, Subspace(GF2, 3)).dim == 3


def test_subalgebra_vs_ideal():
    o3 = catalog("o3").algebra
    line = Subspace(GF2, 3, [(1, 0, 0)])
    assert is_subalgebra(o3, line)
    assert not is_ideal(o3, line)
    gl2 = catalog("gl2").algebra
    der = derived_series(gl2).spaces[1]
    assert is_ideal(gl2, der) and is_subalgebra(gl2, der)


def test_subspace_bracket_matches_pairwise_spans():
    sl3 = catalog("sl3").algebra
    rng = random.Random(11)
    u = Subspace(GF2, 8, [tuple(rng.randrange(2) for _ in range(8))
                          for _ in range(2)])
    v = Subspace(GF2, 8, [tuple(rng.randrange(2) for _ in range(8))
                          for _ in range(2)])
    w = subspace_bracket(sl3, u, v)
    for a in subspace_vectors(u):
        for b in subspace_vectors(v):
            assert w.contains(sl3.bracket(a, b))


def test_json_roundtrip_all_catalog():
    for name in ALL_NAMES:
        entry = catalog(name)
        doc = to_json(entry.algebra, entry.two_map)
        alg2, tm2 = from_json(doc)
        assert alg2.table == entry.algebra.table
        assert alg2.dim == entry.algebra.dim
        assert alg2.name == entry.algebra.name
        assert alg2.labels == entry.algebra.labels
        assert tm2 == entry.two_map
        # and through an actual JSON string
        alg3, _ = from_json(json.dumps(doc))
        assert alg3.table == alg2.table


def test_from_json_rejects_bad_documents():
    good = to_json(catalog("o3").algebra)
    with pytest.raises(InvalidInput):
        from_json("not json at all {")
    with pytest.raises(InvalidInput):
        from_json([1, 2, 3])
    with pytest.raises(InvalidInput):
        from_json({"dim": 3})
    bad = dict(good)
    bad["field"] = {"degree": 1, "modulus_bits": 3}
    with pytest.raises(InvalidInput):
        from_json(bad)
    bad = json.loads(json.dumps(good))
    bad["bracket"][0][0] = 2   # i >= j
    with pytest.raises(InvalidInput):
        from_json(bad)


@pytest.mark.parametrize("bracket,message", [
    ([[0, 1, [[2, 1]]], [0, 1, [[2, 0]]]], "bracket lists a basis pair twice"),
    ([[0, 1, [[2, 1]]], [0, 2, [[0, 1], [0, 0]]]], "lists a coordinate twice"),
    ([[0, 1, [[2, 0], [2, 1]]]], "lists a coordinate twice"),
])
def test_from_json_rejects_repeated_entries(bracket, message):
    """A bracket pair or a sparse coordinate given twice is rejected, not
    settled by its last entry."""
    doc = {"field": {"degree": 1}, "dim": 3, "bracket": bracket}
    with pytest.raises(InvalidInput, match=message):
        from_json(doc)


def test_from_json_reads_coordinates_in_any_order():
    doc = {"field": {"degree": 1}, "dim": 3, "bracket": [[0, 1, [[2, 1], [0, 0], [1, 1]]]]}
    assert from_json(doc)[0].table == {(0, 1): (0, 1, 1)}


@pytest.mark.parametrize("raw", [b"\xff", b"\xff\xfe{"])
def test_from_json_rejects_undecodable_bytes(raw):
    with pytest.raises(InvalidInput, match="not valid JSON"):
        from_json(raw)


def test_constructor_rejects_bad_tables():
    with pytest.raises(InvalidInput):
        LieAlgebra(GF2, 0, {})
    # the largest catalog algebra, strictly_upper(12), has dimension 66
    assert LieAlgebra(GF2, MAX_DIM, {}).dim == MAX_DIM == 128
    with pytest.raises(InvalidInput):
        LieAlgebra(GF2, MAX_DIM + 1, {})
    with pytest.raises(InvalidInput):
        LieAlgebra(GF2, 3, {(1, 1): (0, 0, 1)})
    with pytest.raises(InvalidInput):
        LieAlgebra(GF2, 3, {(0, 1): (0, 0)})
    with pytest.raises(InvalidInput):
        LieAlgebra(GF2, 3, {(0, 1): (0, 0, 2)})
    with pytest.raises(InvalidInput):
        LieAlgebra(GF2, 2, {}, labels=["just one"])


def test_families_scale():
    ab = catalog("abelian(5)").algebra
    assert ab.dim == 5 and not ab.table
    up = catalog("strictly_upper(4)").algebra
    assert up.dim == 6
    assert is_nilpotent_algebra(up)
    assert lower_central_series(up).dims == (6, 3, 1, 0)


def test_largest_catalog_algebra_builds_in_half_a_second():
    """strictly_upper(12), dim 66: every commutator and square solved in
    one elimination against the packed matrices."""
    t0 = time.perf_counter()
    entry = catalog("strictly_upper(12)")
    elapsed = time.perf_counter() - t0
    assert entry.algebra.dim == 66 and len(entry.two_map) == 66
    assert elapsed < 0.5


def test_catalog_rejects_a_span_not_closed_under_the_product():
    e, f = _unit(2, 0, 1), _unit(2, 1, 0)
    with pytest.raises(InvalidInput, match="span not closed under the required product"):
        algebra_from_matrices("ef", 2, [e, f], ["e", "f"], with_squares=False)
    algebra_from_matrices("e", 2, [e], ["e"], with_squares=True)   # e^2 = 0
    with pytest.raises(InvalidInput, match="span not closed"):
        algebra_from_matrices("ef", 2, [e ^ f], ["s"], with_squares=True)
