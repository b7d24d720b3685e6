"""The lane-sliced randomized checks of `validate_lie` and `validate_restricted`.

A sliced vector holds many packed vectors, one per lane, as one int per
GF(2^k) coordinate with bit t of every lane in its plane t.  Every sliced
operation is compared lane by lane with the packed one it stands for, over
37 lanes: `SlicedBracket.bracket` with `packed_bracket`, and
`SlicedBracket.square` with `packed_square`.  The algebras are the catalog
fixtures over F2 and their seeded lifts (`lifted_doc`) over F2, GF(4), GF(8)
and GF(16).  The lane comparison also runs over GF(2^16), where a
coordinate reduces from 46 planes to 16.

The validators sample neither Jacobi nor ad(x^[2]) = ad(x)^2, because the
basis checks imply both; the oracle test below checks that they hold on
random vectors wherever the basis checks pass.

The mutation tests tamper with what the checks past the basis guard, one
nibble table entry or one alpha-multiple of a basis square, and expect
`InternalInconsistency`.
"""
from __future__ import annotations

import random
import tracemalloc

import pytest

from lie2 import liealg, restricted
from lie2.errors import InternalInconsistency
from lie2.field import GF
from lie2.liealg import (LANES, LieAlgebra, SlicedBracket, catalog, center, check_tables,
                         from_json, lane_batches, transpose, validate_lie)
from lie2.restricted import RestrictedAlgebra, packed_square, validate_restricted
from test_reports_frozen import lifted_doc

NAMES = ["o3", "heis3", "sl2", "gl2", "sl3", "gl3", "w11_p2", "abelian(3)",
         "strictly_upper(4)"]
# (degree, lifted): the catalog fixture itself, or its seeded lift
FIELDS = [(1, False), (1, True), (2, True), (3, True), (4, True)]


def algebra(name: str, degree: int, lifted: bool):
    if not lifted:
        entry = catalog(name)
        return entry.algebra, entry.two_map
    return from_json(lifted_doc(name, degree, 3))


@pytest.mark.parametrize("degree,lifted", FIELDS + [(16, True)])
@pytest.mark.parametrize("name", NAMES)
def test_sliced_ops_match_packed_lane_by_lane(name, degree, lifted):
    alg, two_map = algebra(name, degree, lifted)
    n, k = alg.dim, alg.gf.degree
    sliced = SlicedBracket(alg)
    rng = random.Random(f"{name}/{degree}/{lifted}")
    lanes = 37
    xs, ys = ([rng.getrandbits(n * k) for _ in range(lanes)] for _ in range(2))
    (x,), (y,) = sliced.slices(xs), sliced.slices(ys)
    assert sliced.lanes(x, lanes) == xs
    assert sliced.lanes(sliced.bracket(x, y), lanes) == [
        alg.packed_bracket(a, b) for a, b in zip(xs, ys)]
    if two_map is not None:
        ra = RestrictedAlgebra(alg, two_map)
        assert sliced.lanes(sliced.square(x, ra.squares), lanes) == [
            packed_square(ra, a) for a in xs]


@pytest.mark.parametrize("degree,lifted", FIELDS)
@pytest.mark.parametrize("name", NAMES)
def test_basis_checks_imply_the_unsampled_identities(name, degree, lifted):
    """Where the basis checks pass, the identities the samples no longer
    check hold on random vectors: Jacobi for the sliced bracket, which is
    trilinear and alternating, and ad(x^[2]) = ad(x)^2 for the sliced square
    (Jacobson's theorem), with ad taken from `packed_bracket` on every F2
    basis vector f_l."""
    alg, two_map = algebra(name, degree, lifted)
    n, k = alg.dim, alg.gf.degree
    sliced = SlicedBracket(alg)
    rng = random.Random(f"oracle/{name}/{degree}/{lifted}")
    lanes = 37
    assert validate_lie(alg, random_checks=0).ok
    x, y, z = sliced.slices([rng.getrandbits(3 * n * k) for _ in range(lanes)], 3)
    bracket = sliced.bracket
    assert not any(a ^ b ^ c for a, b, c in zip(bracket(bracket(x, y), z),
                                                bracket(bracket(y, z), x),
                                                bracket(bracket(z, x), y)))
    if two_map is None:
        return
    ra = RestrictedAlgebra(alg, two_map)
    assert validate_restricted(ra, random_checks=0).ok
    xs = [rng.getrandbits(n * k) for _ in range(lanes)]
    squares = sliced.lanes(sliced.square(sliced.slices(xs)[0], ra.squares), lanes)
    ad = alg.packed_bracket
    for a, sq in zip(xs, squares):
        for l in range(n * k):
            assert ad(sq, 1 << l) == ad(a, ad(a, 1 << l))


def test_transpose_of_no_rows_is_zero():
    assert transpose([], 5) == [0] * 5
    assert transpose([], 0) == []


def test_slices_are_the_packed_vectors():
    """Bit tL + l of int c holds bit t of coordinate c in lane l (L =
    LANES): the lanes of a sliced vector are the packed vectors whose bit
    ck + t is that bit."""
    alg = LieAlgebra(GF(4), 3, {(0, 1): (5, 0, 9)})
    sliced = SlicedBracket(alg)
    rng = random.Random(5)
    vecs = [rng.getrandbits(12) for _ in range(9)]
    x = [sum((v >> (c * 4 + t) & 1) << (t * LANES + l) for t in range(4)
             for l, v in enumerate(vecs))
         for c in range(3)]
    assert sliced.slices(vecs) == [x]
    assert sliced.slices([v | v << 12 for v in vecs], 2) == [x, x]
    assert sliced.lanes(x, 9) == vecs
    assert transpose(vecs, 12) == [sum((v >> m & 1) << l for l, v in enumerate(vecs))
                                   for m in range(12)]


def test_sliced_bracket_of_a_wide_field_stays_small():
    """strictly_upper(8) over GF(2^16) has 378 dense table pairs, 84,411 set
    bits ck + u in all: at two bytes a bit the sliced bracket builds well
    under 1 MB, where a (c, uL) tuple per bit would take about 8 MB."""
    alg, _ = from_json(lifted_doc("strictly_upper(8)", 16, 1))
    alg.ad_columns
    tracemalloc.start()
    try:
        SlicedBracket(alg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("count", [-3, 0, 1, LANES, LANES + 1, 300])
def test_random_checked_counts_across_the_batch_boundary(count):
    """As many samples as asked for, none for a negative count."""
    count_run = max(count, 0)
    assert sum(lane_batches(count)) == count_run
    assert all(0 < lanes <= LANES for lanes in lane_batches(count))
    for name, degree in (("gl3", 1), ("gl2", 2)):
        alg, two_map = from_json(lifted_doc(name, degree, 3))
        rep = validate_lie(alg, random_checks=count, seed=4)
        assert rep.ok and rep.random_checked == count_run
        rrep = validate_restricted(RestrictedAlgebra(alg, two_map), random_checks=count, seed=4)
        assert rrep.ok and rrep.random_checked == count_run


def test_no_random_checks_seed_nothing_and_build_no_tables(monkeypatch):
    """With random_checks=0, as the census re-checks its survivors, validate_lie
    seeds no generator, runs no table check and builds no nibble tables."""
    def refuse(*args):
        raise AssertionError("not expected with random_checks=0")

    monkeypatch.setattr(liealg.random, "Random", refuse)
    monkeypatch.setattr(liealg, "check_tables", refuse)
    for name in NAMES:
        alg = catalog(name).algebra
        assert validate_lie(alg, random_checks=0).random_checked == 0
        assert alg._nib is None


def tampered_nibbles():
    """sl3 over GF(4) with entry 5 of its first nibble table flipped in bit 0."""
    alg, _ = from_json(lifted_doc("sl3", 2, 3))
    _, table = alg.ad_nibbles[0][0]
    table[5] ^= 1
    return alg


def test_tampered_nibble_entry_fails_validate_lie():
    alg = tampered_nibbles()
    assert validate_lie(alg, random_checks=0).ok  # basis triples read the columns
    with pytest.raises(InternalInconsistency):
        validate_lie(alg)


@pytest.mark.parametrize("central", [False, True])
def test_tampered_alpha_square_fails_validate_restricted(central):
    """squares[ik + 1] = alpha^2 e_i^[2] is not read by the basis check,
    which squares the e_i themselves.  Adding a central vector leaves every
    ad(x^[2]) alone, so only the Frobenius check on the table sees it."""
    alg, two_map = from_json(lifted_doc("gl2", 2, 3))
    ra = RestrictedAlgebra(alg, two_map)
    k = alg.gf.degree
    ra.squares[1 * k + 1] ^= center(alg).echelon[0] if central else 1
    assert validate_restricted(ra, random_checks=0).ok
    with pytest.raises(InternalInconsistency, match="Frobenius"):
        validate_restricted(ra)


def test_faulty_packed_square_fails_validate_restricted(monkeypatch):
    """packed_square plus the linear x -> bit 0 of x keeps the addition
    rule; every sample's square is compared with the sliced one."""
    alg, two_map = from_json(lifted_doc("gl2", 2, 3))
    packed = restricted.packed_square
    monkeypatch.setattr(restricted, "packed_square", lambda ra, x: packed(ra, x) ^ x & 1)
    with pytest.raises(InternalInconsistency):
        validate_restricted(RestrictedAlgebra(alg, two_map))


def test_faulty_packed_bracket_fails_the_addition_rule(monkeypatch):
    """packed_square reads the nibble tables, not packed_bracket, so a
    packed_bracket that is zero everywhere breaks (x + y)^[2] = x^[2] +
    y^[2] + [x, y] on gl2, which validate_restricted checks without
    validate_lie before it."""
    alg, two_map = from_json(lifted_doc("gl2", 2, 3))
    monkeypatch.setattr(LieAlgebra, "packed_bracket", lambda self, x, y: 0)
    with pytest.raises(InternalInconsistency, match="addition rule"):
        validate_restricted(RestrictedAlgebra(alg, two_map))


def test_check_tables_names_the_broken_identity():
    alg = tampered_nibbles()
    with pytest.raises(InternalInconsistency, match="not bilinear"):
        check_tables(alg)
    alg = catalog("sl3").algebra
    alg.ad_nibbles[2].pop()  # a chunk with a nonzero column loses its table
    with pytest.raises(InternalInconsistency, match="not bilinear"):
        check_tables(alg)
    alg = catalog("sl3").algebra
    alg.ad_columns[0][1] ^= 4  # [f_1, f_0] no longer equals [f_0, f_1]
    with pytest.raises(InternalInconsistency, match="not alternating"):
        check_tables(alg)
    alg = catalog("sl3").algebra
    alg.ad_columns[3][3] = 1  # [f_3, f_3] != 0
    with pytest.raises(InternalInconsistency, match="not alternating"):
        check_tables(alg)
    check_tables(catalog("sl3").algebra)


def test_check_tables_runs_once_per_algebra(monkeypatch):
    """validate_restricted after validate_lie on the same object repeats no
    table check (no nibble table is rebuilt); a new object is checked."""
    alg, two_map = from_json(lifted_doc("gl2", 2, 3))
    assert validate_lie(alg).ok
    rebuilt = []
    real = liealg.nibble_tables
    monkeypatch.setattr(liealg, "nibble_tables", lambda col: rebuilt.append(col) or real(col))
    assert validate_restricted(RestrictedAlgebra(alg, two_map)).ok
    assert rebuilt == []
    fresh, _ = from_json(lifted_doc("gl2", 2, 3))
    check_tables(fresh)
    assert len(rebuilt) == 2 * fresh.dim * fresh.gf.degree  # ad_nibbles, then the check
    check_tables(fresh)
    assert len(rebuilt) == 2 * fresh.dim * fresh.gf.degree


@pytest.mark.parametrize("extra,named", [
    (lambda x, y: x & y & 1, "bracket is not alternating"),
    (lambda x, y: (x >> 2 & 1) & ((x & y >> 1) ^ (x >> 1 & y)) & 1,
     "bracket is not bilinear"),
    (lambda x, y: ((x & y >> 1) ^ (x >> 1 & y)) & 1,
     "packed_bracket disagrees with the sliced bracket"),
])
def test_packed_bracket_fault_is_named(monkeypatch, extra, named):
    """packed_bracket plus a term on bit 0 that is bilinear but not
    alternating, alternating but cubic, or bilinear and alternating: every
    sample is compared with the sliced bracket of the tables, and the first
    that differs names what packed_bracket breaks."""
    alg, _ = from_json(lifted_doc("gl2", 2, 3))
    packed = LieAlgebra.packed_bracket
    monkeypatch.setattr(LieAlgebra, "packed_bracket",
                        lambda self, x, y: packed(self, x, y) ^ extra(x, y))
    with pytest.raises(InternalInconsistency, match=named):
        validate_lie(alg)
