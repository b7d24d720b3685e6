"""2-map structure tests: evaluation, synthesis, element classification.

The evaluation oracle below expands the square of a sum term by term with
the addition rule, independently of the quadratic-form shortcut used by
the library, and the two are compared on random vectors.  `jcs_decompose`,
which reads the semisimple part off a torus, is checked against the
Fitting decomposition taken on GF(2^k) coordinates with a Frobenius twist.
"""
from __future__ import annotations

import random

import pytest

from lie2 import (InvalidInput, LieAlgebra, RestrictedAlgebra, catalog,
                  classify_element, jcs_decompose, synthesize_two_map,
                  two_map_eval, validate_restricted)
from lie2.errors import Lie2Error
from lie2.field import GF, Subspace, full_space, vec_add, vec_is_zero, zero_vec
from lie2.liealg import from_json
from lie2.restricted import packed_square
from lie2.toruscartan import weight_decompose
from dense_oracles import (basis_vec, dense_combo, dense_express, dense_mul,
                           dense_null_space, square_sweep, two_power)
from test_packed_core import algebra_over, rand_vec, restricted_with_torus
from test_reports_frozen import lifted_doc

RESTRICTED_NAMES = ["heis3", "sl2", "gl2", "sl3", "gl3", "w11_p2",
                    "abelian(4)", "strictly_upper(3)"]


def entry_ra(name: str) -> RestrictedAlgebra:
    entry = catalog(name)
    assert entry.two_map is not None
    return RestrictedAlgebra(entry.algebra, entry.two_map)


def oracle_square(ra: RestrictedAlgebra, x) -> tuple:
    """Fold the addition rule (u+v)^[2] = u^[2] + v^[2] + [u,v] over terms."""
    gf = ra.algebra.gf
    n = ra.algebra.dim
    acc = zero_vec(n)
    acc_sq = zero_vec(n)
    for i, xi in enumerate(x):
        if not xi:
            continue
        term = tuple(xi if j == i else 0 for j in range(n))
        c2 = gf.mul(xi, xi)
        term_sq = tuple(gf.mul(c2, c) for c in ra.two_map[i])
        acc_sq = vec_add(vec_add(acc_sq, term_sq), ra.algebra.bracket(acc, term))
        acc = vec_add(acc, term)
    assert acc == tuple(x)
    return acc_sq


@pytest.mark.parametrize("name", RESTRICTED_NAMES)
def test_eval_matches_fold_oracle(name):
    ra = entry_ra(name)
    n = ra.algebra.dim
    rng = random.Random(17)
    for _ in range(100):
        x = tuple(rng.randrange(2) for _ in range(n))
        assert two_map_eval(ra, x) == oracle_square(ra, x)


def test_eval_matches_fold_oracle_gf4():
    gf = GF(2)
    alg = LieAlgebra(gf, 3, {(0, 1): (0, 0, 1)})
    ra = RestrictedAlgebra(alg, ((0, 0, 2), (0, 0, 0), (0, 0, 0)))
    rng = random.Random(19)
    for _ in range(200):
        x = tuple(rng.randrange(4) for _ in range(3))
        assert two_map_eval(ra, x) == oracle_square(ra, x)


@pytest.mark.parametrize("degree", [1, 2])
@pytest.mark.parametrize("name", RESTRICTED_NAMES)
def test_square_sweep_yields_every_packed_square(name, degree):
    """The Gray-code sweep visits every packed x once, with packed_square(x)."""
    ra = entry_ra(name) if degree == 1 else RestrictedAlgebra(*from_json(lifted_doc(name, 2, 3)))
    swept = list(square_sweep(ra))
    assert sorted(x for x, _ in swept) == list(range(len(swept)))
    assert len(swept) == 1 << (ra.algebra.dim * degree)
    assert all(sq == packed_square(ra, x) for x, sq in swept)


@pytest.mark.parametrize("name", RESTRICTED_NAMES)
def test_catalog_two_maps_validate(name):
    rep = validate_restricted(entry_ra(name), random_checks=100, seed=2)
    assert rep.ok and not rep.failing_indices
    assert rep.random_checked == 100


def test_validate_flags_wrong_two_map():
    alg = catalog("heis3").algebra
    # z^[2] = x is wrong: ad(x) != ad(z)^2 = 0
    ra = RestrictedAlgebra(alg, ((0, 0, 0), (0, 0, 0), (1, 0, 0)))
    rep = validate_restricted(ra)
    assert not rep.ok and rep.failing_indices == [2]


def test_two_map_shape_checked():
    alg = catalog("heis3").algebra
    with pytest.raises(InvalidInput):
        RestrictedAlgebra(alg, ((0, 0, 0),) * 2)
    with pytest.raises(InvalidInput):
        RestrictedAlgebra(alg, ((0, 0), (0, 0), (0, 0)))


@pytest.mark.parametrize("coord", [2, -1])
def test_two_map_values_checked(coord):
    """A coordinate outside the field is rejected, not packed into the next
    basis bit (2) or left to bit loops that never end (-1)."""
    alg = catalog("w11_p2").algebra
    with pytest.raises(InvalidInput, match="is not an element of"):
        RestrictedAlgebra(alg, ((coord, 0), (0, 1)))


def test_two_power_iterates():
    ra = entry_ra("gl3")
    rng = random.Random(23)
    for _ in range(20):
        x = tuple(rng.randrange(2) for _ in range(9))
        assert two_power(ra, x, 0) == x
        assert two_power(ra, x, 2) == two_map_eval(ra, two_map_eval(ra, x))


def test_synthesis_o3_certified_absent():
    rep = synthesize_two_map(catalog("o3").algebra)
    assert rep.two_map is None
    assert not rep.restrictable
    assert rep.missing_index == 0
    assert rep.center_dim == 0


def test_synthesis_sl3_unique_and_matches_matrix_squares():
    entry = catalog("sl3")
    rep = synthesize_two_map(entry.algebra)
    assert rep.restrictable and rep.unique
    assert rep.center_dim == 0
    assert rep.two_map == entry.two_map
    assert rep.missing_index is None


def test_synthesis_w11_unique():
    entry = catalog("w11_p2")
    rep = synthesize_two_map(entry.algebra)
    assert rep.unique and rep.two_map == entry.two_map


def test_synthesis_heis3_nonunique_zero_rep():
    rep = synthesize_two_map(catalog("heis3").algebra)
    assert rep.restrictable and not rep.unique
    assert rep.center_dim == 1
    assert rep.two_map == ((0, 0, 0),) * 3


@pytest.mark.parametrize("name", ["gl2", "gl3"])
def test_synthesis_gl_nonunique_but_valid(name):
    alg = catalog(name).algebra
    rep = synthesize_two_map(alg)
    assert rep.restrictable and not rep.unique and rep.center_dim == 1
    assert validate_restricted(RestrictedAlgebra(alg, rep.two_map)).ok


def test_synthesized_map_is_deterministic():
    a = synthesize_two_map(catalog("gl2").algebra).two_map
    b = synthesize_two_map(catalog("gl2").algebra).two_map
    assert a == b


def test_classify_zero_and_basis_cases():
    ra = entry_ra("heis3")
    zero = classify_element(ra, (0, 0, 0))
    assert zero.label == "semisimple" and zero.nil_steps == 0
    x = classify_element(ra, (1, 0, 0))
    assert x.label == "two_nilpotent" and x.nil_steps == 1


def test_classify_w11_elements():
    ra = entry_ra("w11_p2")
    assert classify_element(ra, (1, 0)).label == "two_nilpotent"
    assert classify_element(ra, (0, 1)).label == "semisimple"
    # (d + xd)^[2] = d + xd again: square recaptures the element
    assert classify_element(ra, (1, 1)).label == "semisimple"


def test_classify_mixed_sl2():
    ra = entry_ra("sl2")
    cls = classify_element(ra, (1, 0, 1))   # e + h
    assert cls.label == "mixed"
    assert not cls.semisimple and not cls.two_nilpotent


def test_jcs_gl3_explicit():
    # E11 + E23: semisimple part E11, nilpotent part E23, they commute
    ra = entry_ra("gl3")
    labels = list(ra.algebra.labels)
    x = [0] * 9
    x[labels.index("E11")] = 1
    x[labels.index("E23")] = 1
    parts = jcs_decompose(ra, tuple(x))
    s = [0] * 9
    s[labels.index("E11")] = 1
    n = [0] * 9
    n[labels.index("E23")] = 1
    assert parts.semisimple == tuple(s)
    assert parts.nilpotent == tuple(n)


def test_jcs_sl2_mixed_element():
    ra = entry_ra("sl2")
    parts = jcs_decompose(ra, (1, 0, 1))
    assert parts.semisimple == (0, 0, 1)
    assert parts.nilpotent == (1, 0, 0)


@pytest.mark.parametrize("name", ["sl2", "gl2", "sl3", "gl3", "w11_p2",
                                  "heis3", "strictly_upper(3)"])
def test_jcs_invariants_sweep(name):
    """s + n = x, [s,n] = 0, s semisimple, n 2-nilpotent, on random vectors."""
    ra = entry_ra(name)
    n_dim = ra.algebra.dim
    rng = random.Random(29)
    for _ in range(60):
        x = tuple(rng.randrange(2) for _ in range(n_dim))
        parts = jcs_decompose(ra, x)
        assert vec_add(parts.semisimple, parts.nilpotent) == x
        assert vec_is_zero(ra.algebra.bracket(parts.semisimple, parts.nilpotent))
        assert classify_element(ra, parts.semisimple).semisimple
        assert classify_element(ra, parts.nilpotent).two_nilpotent
        agree = classify_element(ra, x)
        if agree.semisimple:
            assert vec_is_zero(parts.nilpotent)
        if agree.two_nilpotent:
            assert vec_is_zero(parts.semisimple)


def test_jcs_invariants_gf4():
    gf = GF(2)
    alg = LieAlgebra(gf, 2, {})
    ra = RestrictedAlgebra(alg, ((1, 0), (0, 0)))
    assert validate_restricted(ra).ok
    rng = random.Random(31)
    for _ in range(40):
        x = tuple(rng.randrange(4) for _ in range(2))
        parts = jcs_decompose(ra, x)
        assert vec_add(parts.semisimple, parts.nilpotent) == x
        assert classify_element(ra, parts.semisimple).semisimple
        assert classify_element(ra, parts.nilpotent).two_nilpotent


def test_nil_steps_counts_strictly_upper():
    ra = entry_ra("strictly_upper(3)")
    labels = list(ra.algebra.labels)
    x = [0] * 3
    x[labels.index("E12")] = 1
    x[labels.index("E23")] = 1
    # (E12 + E23)^[2] = E13, then 0: two steps
    cls = classify_element(ra, tuple(x))
    assert cls.label == "two_nilpotent" and cls.nil_steps == 2


# ---------------------------------------------------------------------------
# jcs_decompose against the Frobenius-twisted Fitting decomposition


def twisted_fitting_parts(ra: RestrictedAlgebra, x) -> tuple:
    """(semisimple, nilpotent) parts of x by the Fitting decomposition of
    squaring on the iterate span, taken on GF(2^k) coordinates.

    In the coordinates of the iterate span W, squaring is c -> M frob(c)
    with frob squaring each coordinate, so the image chain maps the rows of
    a subspace by Frobenius then M, and the preimage chain takes the kernel
    of ann(sub) M and untwists it with coordinatewise square roots.
    """
    alg = ra.algebra
    gf, n = alg.gf, alg.dim
    w, v = Subspace(gf, n), tuple(x)
    while not w.contains(v):
        w = Subspace(gf, n, w.rows + (v,))
        v = two_map_eval(ra, v)
    d = w.dim
    if d == 0:
        return zero_vec(n), zero_vec(n)
    sq_cols = [w.coords(two_map_eval(ra, r)) for r in w.rows]
    m_sq = tuple(zip(*sq_cols))

    def image(sub: Subspace) -> Subspace:
        return Subspace(gf, d, [dense_combo(gf, sq_cols, [gf.mul(c, c) for c in b], d)
                                for b in sub.rows])

    def preimage(sub: Subspace) -> Subspace:
        ann = dense_null_space(gf, sub.rows, d)
        linear = Subspace(gf, d, dense_null_space(gf, dense_mul(gf, ann, m_sq, d), d))
        return Subspace(gf, d, [tuple(gf.sqrt(c) for c in b) for b in linear.rows])

    w_inf, n_inf = full_space(gf, d), Subspace(gf, d)
    for _ in range(d + 1):
        w_inf, n_inf = image(w_inf), preimage(n_inf)
    assert w_inf.dim + n_inf.dim == d and w_inf.intersect(n_inf).dim == 0
    sol = dense_express(gf, w_inf.rows + n_inf.rows, w.coords(tuple(x)))
    return (w.combo(w_inf.combo(sol[:w_inf.dim])), w.combo(n_inf.combo(sol[w_inf.dim:])))


JCS_NAMES = ["heis3", "sl2", "gl2", "sl3", "gl3", "w11_p2", "abelian(3)",
             "strictly_upper(4)"]


def toral_split_reference(dec, x) -> tuple:
    """Torus and nil parts of x by one dense solve on the stacked rows."""
    gf, td = dec.ra.algebra.gf, dec.torus.space.dim
    sol = dense_express(gf, dec.torus.space.rows + dec.nil.rows, x)
    return None if sol is None else (dec.torus.space.combo(sol[:td]), dec.nil.combo(sol[td:]))


@pytest.mark.parametrize("degree", [1, 2, 4])
@pytest.mark.parametrize("name", JCS_NAMES)
def test_jcs_and_toral_split_match_dense_oracles(name, degree):
    """Basis vectors and seeded random elements of the lift of each catalog
    algebra to GF(2^degree), and random elements of the centralizer of a
    maximal torus (mixed when both of its summands are nonzero); then the
    torus/nil split and toral coordinates of that decomposition."""
    alg, two_map = algebra_over(name, degree)
    ra = RestrictedAlgebra(alg, two_map)
    rng = random.Random(f"jcs/{name}/{degree}")
    cases = [(ra, basis_vec(alg.dim, i)) for i in range(alg.dim)]
    cases += [(ra, rand_vec(rng, alg)) for _ in range(20)]
    dec_ra, torus = restricted_with_torus(name, degree)
    try:
        dec = weight_decompose(dec_ra, torus)
    except Lie2Error:
        dec = None
    if dec is not None:
        cases += [(dec_ra, dec.h.combo(rand_vec(rng, dec.h))) for _ in range(20)]
    mixed = 0
    for r, x in cases:
        expect = twisted_fitting_parts(r, x)
        parts = jcs_decompose(r, x)
        assert (parts.semisimple, parts.nilpotent) == expect
        mixed += all(map(any, expect))
    assert (mixed > 0) == (name in ("sl2", "gl2", "sl3", "gl3"))
    if dec is None:
        assert name == "sl2"
        return
    basis = dec.torus.toral_basis
    gf = dec_ra.algebra.gf
    for _ in range(10):
        x = dec.h.combo(rand_vec(rng, dec.h))
        t, nl = dec.toral_part(x)
        assert (t, nl) == toral_split_reference(dec, x)
        want = dense_express(gf, basis, t)
        assert dec.toral_coords(t) == want
    for space in dec.weights.values():
        v = space.rows[0]
        assert toral_split_reference(dec, v) is None
        with pytest.raises(InvalidInput):
            dec.toral_part(v)
