"""Field arithmetic and exact linear algebra tests.

The modulus table is cross-checked against an in-test irreducibility
oracle (trial division over F2[x] written independently here), and the
field axioms are checked exhaustively for small degrees and by seeded
sampling for larger ones.  The exp/log tables behind mul, inv, pow and
sqrt are checked against the carry-less product and reduction they were
built from: on every pair for degrees 1..8, on a seeded sample at 16.
"""
from __future__ import annotations

import random

import pytest

from lie2 import GF, GF2, InvalidInput, Subspace, full_space
from lie2.field import (_poly_mod, _poly_mul, alpha_map, is_irreducible, pack_bits,
                        smallest_irreducible, unpack_bits, vec_add, zero_vec)
from lie2.liealg import _mat_mul
from dense_oracles import basis_vec, dense_combo, dense_mul


def poly_divides(d: int, m: int) -> bool:
    """Oracle divisibility in F2[x]: long division with bit ints."""
    if d == 0:
        return False
    r = m
    while r.bit_length() >= d.bit_length():
        r ^= d << (r.bit_length() - d.bit_length())
    return r == 0


def oracle_irreducible(m: int) -> bool:
    deg = m.bit_length() - 1
    if deg < 1:
        return False
    for d in range(2, 1 << (deg // 2 + 1)):
        if d.bit_length() - 1 >= 1 and poly_divides(d, m):
            return False
    return True


# degree -> modulus bits, frozen; 2 -> 7 is x^2+x+1, 3 -> 11 is x^3+x+1,
# 8 -> 283 is x^8+x^4+x^3+x+1, all smallest-integer irreducibles
FROZEN_MODULI = {1: 2, 2: 7, 3: 11, 4: 19, 5: 37, 8: 283}


def test_modulus_table_frozen():
    for deg, bits in FROZEN_MODULI.items():
        assert smallest_irreducible(deg) == bits


def test_modulus_is_smallest_irreducible_by_oracle():
    for deg in (1, 2, 3, 4, 5, 8):
        m = smallest_irreducible(deg)
        assert m.bit_length() - 1 == deg
        assert oracle_irreducible(m)
        for other in range(1 << deg, m):
            assert not oracle_irreducible(other)


def test_is_irreducible_agrees_with_oracle_through_degree_6():
    for m in range(2, 1 << 7):
        assert is_irreducible(m) == oracle_irreducible(m)


def _axiom_sweep(gf: GF, triples) -> None:
    one = 1
    for a, b, c in triples:
        assert gf.add(a, b) == gf.add(b, a) == a ^ b
        assert gf.mul(a, b) == gf.mul(b, a)
        assert gf.mul(gf.mul(a, b), c) == gf.mul(a, gf.mul(b, c))
        assert gf.mul(a, gf.add(b, c)) == gf.add(gf.mul(a, b), gf.mul(a, c))
        assert gf.mul(a, one) == a
        assert gf.add(a, a) == 0
        assert gf.frob(a) == gf.mul(a, a)
        assert gf.mul(gf.sqrt(a), gf.sqrt(a)) == a
        if a:
            assert gf.mul(a, gf.inv(a)) == 1


@pytest.mark.parametrize("degree", [1, 2, 3])
def test_field_axioms_exhaustive(degree):
    gf = GF(degree)
    q = 1 << degree
    triples = [(a, b, c) for a in range(q) for b in range(q) for c in range(q)]
    _axiom_sweep(gf, triples)


@pytest.mark.parametrize("degree", [4, 8, 13, 16])
def test_field_axioms_sampled(degree):
    gf = GF(degree)
    rng = random.Random(degree)
    q = 1 << degree
    triples = [(rng.randrange(q), rng.randrange(q), rng.randrange(q))
               for _ in range(300)]
    _axiom_sweep(gf, triples)


def test_gf4_multiplication_table():
    # x^2 + x + 1 = 0, so x * x = x + 1: 2 * 2 = 3 in bit encoding
    gf = GF(2)
    assert gf.mul(2, 2) == 3
    assert gf.mul(2, 3) == 1
    assert gf.mul(3, 3) == 2
    assert gf.inv(2) == 3


def test_pow_and_inv_match_fermat():
    gf = GF(5)
    q = 1 << 5
    for a in range(1, q):
        assert gf.pow(a, q - 1) == 1
        assert gf.inv(a) == gf.pow(a, q - 2)


def poly_mul_mod(gf: GF, a: int, b: int) -> int:
    return a & b if gf.degree == 1 else _poly_mod(_poly_mul(a, b), gf.modulus)


def poly_pow(gf: GF, a: int, e: int) -> int:
    r = 1
    while e:
        if e & 1:
            r = poly_mul_mod(gf, r, a)
        a = poly_mul_mod(gf, a, a)
        e >>= 1
    return r


@pytest.mark.parametrize("degree", range(1, 9))
def test_field_tables_match_polynomial_arithmetic_on_every_pair(degree):
    gf = GF(degree)
    q = gf.order
    for a in range(q):
        power = 1
        for b in range(q):
            assert gf.mul(a, b) == poly_mul_mod(gf, a, b)
            assert gf.pow(a, b) == power
            power = poly_mul_mod(gf, power, a)
        assert gf.pow(a, q) == power
        root = gf.sqrt(a)
        assert poly_mul_mod(gf, root, root) == a
        if a:
            inv = gf.inv(a)
            assert poly_mul_mod(gf, a, inv) == 1
            assert gf.pow(a, -3) == poly_pow(gf, inv, 3)


def test_field_tables_match_polynomial_arithmetic_sampled_degree_16():
    gf = GF(16)
    rng = random.Random(16)
    q = gf.order
    for _ in range(5000):
        a, b, e = rng.randrange(q), rng.randrange(q), rng.randrange(1 << 20)
        assert gf.mul(a, b) == poly_mul_mod(gf, a, b)
        assert gf.pow(a, e) == poly_pow(gf, a, e)
        root = gf.sqrt(a)
        assert poly_mul_mod(gf, root, root) == a
        if a:
            assert poly_mul_mod(gf, a, gf.inv(a)) == 1


@pytest.mark.parametrize("degree", [1, 2, 8, 16])
def test_zero_powers_and_inverse(degree):
    gf = GF(degree)
    assert gf.pow(0, 0) == 1
    assert gf.pow(0, 1) == gf.pow(0, 5) == gf.pow(0, gf.order - 1) == 0
    assert gf.pow(1, 0) == gf.pow(gf.order - 1, 0) == 1
    assert gf.sqrt(0) == 0 and gf.mul(0, gf.order - 1) == 0
    with pytest.raises(ZeroDivisionError):
        gf.inv(0)
    with pytest.raises(ZeroDivisionError):
        gf.pow(0, -1)


def test_element_range_check():
    gf = GF(3)
    with pytest.raises(InvalidInput):
        gf.check(8)
    with pytest.raises(InvalidInput):
        gf.check(-1)
    assert gf.check(7) == 7


def test_degree_bounds():
    with pytest.raises(InvalidInput):
        GF(0)
    with pytest.raises(InvalidInput):
        GF(17)


@pytest.mark.parametrize("bad", [2.0, True])
def test_field_degree_must_be_an_integer(bad):
    with pytest.raises(InvalidInput, match="field degree .* is not an integer"):
        GF(bad)


@pytest.mark.parametrize("bad", [0.5, True])
def test_subspace_entries_must_be_integers(bad):
    with pytest.raises(InvalidInput, match="is not a vector of 3 elements"):
        Subspace(GF2, 3, [(bad, 0, 1)])


@pytest.mark.parametrize("bad", [3.0, True])
def test_subspace_ambient_must_be_an_integer(bad):
    with pytest.raises(InvalidInput, match="ambient dimension .* is not an integer"):
        Subspace(GF2, bad, [(1, 0, 1)])


def test_pack_unpack_roundtrip():
    rng = random.Random(1)
    for _ in range(50):
        n = rng.randrange(1, 20)
        v = tuple(rng.randrange(2) for _ in range(n))
        assert unpack_bits(pack_bits(v), n) == v
    assert pack_bits((1, 0, 1)) == 5
    assert basis_vec(4, 2) == (0, 0, 1, 0)
    assert vec_add((1, 1, 0), (0, 1, 1)) == (1, 0, 1)
    assert zero_vec(3) == (0, 0, 0)


@pytest.mark.parametrize("degree", [2, 3, 4, 8, 16])
def test_alpha_map_multiplies_every_packed_coordinate_by_x(degree):
    gf = GF(degree)
    times_alpha = alpha_map(gf, 5)
    rng = random.Random(degree)
    for _ in range(100):
        v = tuple(rng.randrange(gf.order) for _ in range(5))
        packed = pack_bits(v, degree)
        assert unpack_bits(packed, 5, degree) == v
        assert unpack_bits(times_alpha(packed), 5, degree) == tuple(gf.mul(2, c) for c in v)


# frozen rank-2 example over F2: rows (1,1,0),(0,1,1),(1,0,1) sum to zero
def test_rank_frozen_example():
    s = Subspace(GF2, 3, [(1, 1, 0), (0, 1, 1), (1, 0, 1)])
    assert s.dim == 2
    assert s.null_basis() == ((1, 1, 1),)


def test_rref_canonical_and_idempotent():
    rng = random.Random(2)
    for _ in range(40):
        rows = [[rng.randrange(2) for _ in range(5)] for _ in range(4)]
        s = Subspace(GF2, 5, rows)
        again = Subspace(GF2, 5, s.rows)
        assert again.rows == s.rows and again.pivots == s.pivots
        assert s.dim == len(s.pivots)
        # pivot columns carry exactly one 1
        for j in s.pivots:
            assert sum(row[j] for row in s.rows) == 1


def test_rank_invariant_under_row_swaps():
    rng = random.Random(3)
    for _ in range(30):
        rows = [[rng.randrange(2) for _ in range(6)] for _ in range(5)]
        s = Subspace(GF2, 6, rows)
        rng.shuffle(rows)
        assert Subspace(GF2, 6, rows).dim == s.dim


def test_solve_and_kernel_properties_gf2_and_gf8():
    """M x = b is solvable exactly when b lies in the column span, and the
    null basis of the rows is killed by M and has nc - rank vectors."""
    for gf in (GF2, GF(3)):
        rng = random.Random(4 + gf.degree)
        q = 1 << gf.degree
        for _ in range(30):
            nr, nc = rng.randrange(1, 5), rng.randrange(1, 5)
            rows = [[rng.randrange(q) for _ in range(nc)] for _ in range(nr)]
            x = tuple(rng.randrange(q) for _ in range(nc))
            columns = list(zip(*rows))
            assert Subspace(gf, nr, columns).contains(dense_combo(gf, columns, x, nr))
            s = Subspace(gf, nc, rows)
            for kv in s.null_basis():
                assert dense_combo(gf, columns, kv, nr) == (0,) * nr
            assert len(s.null_basis()) == nc - s.dim


def test_solve_reports_inconsistent_system():
    columns = Subspace(GF2, 2, [(1, 1), (0, 0)])   # of the rows (1,0),(1,0)
    assert not columns.contains((1, 0))
    assert columns.contains((1, 1))


def test_matrix_ops_small():
    """Catalog matrices are ints with entry (r, c) at bit r*n + c."""
    a, b = 0b1011, 0b1101                 # rows (1,1),(0,1) and (1,0),(1,1)
    assert _mat_mul(2, a, b) == 0b1110    # rows (0,1),(1,1)
    assert _mat_mul(2, 0b1001, a) == a    # the identity
    rng = random.Random(7)
    for n in range(1, 6):
        def rows(x):
            return tuple(unpack_bits(x >> (r * n), n) for r in range(n))
        for _ in range(20):
            x, y = rng.getrandbits(n * n), rng.getrandbits(n * n)
            assert rows(_mat_mul(n, x, y)) == dense_mul(GF2, rows(x), rows(y), n)


def test_subspace_canonical_rows_and_membership():
    s = Subspace(GF2, 4, [(1, 1, 0, 0), (0, 1, 1, 0)])
    t = Subspace(GF2, 4, [(1, 0, 1, 0), (0, 1, 1, 0)])
    assert s == t
    assert s.dim == 2
    assert s.contains((1, 0, 1, 0))
    assert not s.contains((1, 0, 0, 0))
    assert s.reduce((1, 1, 0, 0)) == (0, 0, 0, 0)


def test_subspace_add_intersect_dimension_formula():
    rng = random.Random(5)
    for _ in range(40):
        n = rng.randrange(1, 6)
        u = Subspace(GF2, n, [tuple(rng.randrange(2) for _ in range(n))
                              for _ in range(rng.randrange(4))])
        v = Subspace(GF2, n, [tuple(rng.randrange(2) for _ in range(n))
                              for _ in range(rng.randrange(4))])
        w = u.add(v)
        x = u.intersect(v)
        assert w.dim + x.dim == u.dim + v.dim
        for row in x.rows:
            assert u.contains(row) and v.contains(row)
        assert w.contains_subspace(u) and w.contains_subspace(v)


def test_subspace_coords_roundtrip():
    gf = GF(2)
    s = Subspace(gf, 3, [(1, 0, 2), (0, 1, 1)])
    rng = random.Random(6)
    for _ in range(20):
        coeffs = tuple(rng.randrange(4) for _ in range(s.dim))
        v = s.combo(coeffs)
        assert s.coords(v) == coeffs
    assert s.coords((1, 1, 1)) is None or s.contains((1, 1, 1))


@pytest.mark.parametrize("degree", [1, 2, 16])
def test_entries_outside_the_field_are_rejected(degree):
    """Packing would carry such an entry into the next coordinate."""
    gf = GF(degree)
    for bad in [(gf.order, 0), (0, -1)]:
        with pytest.raises(InvalidInput):
            Subspace(gf, 2, [(1, 0), bad])
    with pytest.raises(InvalidInput):
        Subspace(gf, 3, [(1, 0)])


def test_full_space():
    assert full_space(GF2, 3).dim == 3
    assert full_space(GF2, 3).contains((1, 1, 1))
