"""Acceptance gate for the toolkit.

One test per criterion.  Each prints a single visible line, ACCEPTANCE n:
PASS or ACCEPTANCE n: FAIL, so the eight verdicts can be read off any pytest
run regardless of verbosity.  Checks are exact; the few runtime bounds are
wall-clock seconds on desktop-class hardware.
"""

from __future__ import annotations

import itertools
import random
import time

import pytest

from lie2.caseanalysis import (admissible_toral_space, cross_check_paper_lists,
                               enumerate_patterns, refute_root_system,
                               verify_paper)
from lie2.casedata import (PUBLISHED_PATTERN_LISTS, PUBLISHED_ROOT_SYSTEMS,
                           raw_pattern_string)
from lie2.errors import SplitFailed
from lie2.field import vec_add
from lie2.liealg import catalog, from_json, is_simple
from lie2.restricted import (RestrictedAlgebra, classify_element,
                             jcs_decompose, synthesize_two_map, two_map_eval)
from lie2.toruscartan import audit_decomposition, max_tori, weight_decompose


def criterion(capsys, n, body):
    try:
        body()
    except BaseException:
        with capsys.disabled():
            print(f"ACCEPTANCE {n}: FAIL")
        raise
    with capsys.disabled():
        print(f"ACCEPTANCE {n}: PASS")


def per_dim(report, total):
    return next(e for e in report["per_dim"] if e["total_dim"] == total)


def restricted_fixture(name):
    entry = catalog(name)
    two_map = entry.two_map
    if two_map is None:
        syn = synthesize_two_map(entry.algebra)
        two_map = syn.two_map if syn.restrictable else None
    ra = RestrictedAlgebra(entry.algebra, two_map) if two_map is not None else None
    return entry.algebra, ra


def rand_vec(rnd, gf, n):
    return tuple(rnd.randrange(gf.order) for _ in range(n))


def rand_in(rnd, gf, space, n):
    v = tuple([0] * n)
    for row in space.rows:
        c = rnd.randrange(gf.order)
        if c:
            v = vec_add(v, tuple(gf.mul(c, a) for a in row))
    return v


# ---------------------------------------------------------------------------
# 1: root-system refutations


def test_acceptance_1_root_system_refutations(capsys):
    def body():
        t0 = time.perf_counter()
        report = verify_paper("4", (10, 16), "paper")
        elapsed = time.perf_counter() - t0
        assert report["passed"] is True
        cases = report["root_systems"]["cases"]
        assert len(cases) == 16
        assert cases[0]["certificate"]["kind"] == "Unrefuted"
        for case in cases[1:]:
            cert = case["certificate"]
            assert cert["kind"] == "RankDeficiency"
            assert cert["soundness"] == "sound"
            assert case["recheck_passed"] and case["as_expected"]
        # the four admissible spaces of case 2, row for row
        system2 = PUBLISHED_ROOT_SYSTEMS[2]
        spans = {xi: tuple(admissible_toral_space(system2, xi).rows)
                 for xi in system2}
        assert spans == {(1, 0, 0): ((0, 1, 0),),
                         (0, 1, 0): ((1, 0, 0),),
                         (0, 0, 1): (),
                         (1, 1, 0): ((1, 1, 0),)}
        cert12 = refute_root_system(PUBLISHED_ROOT_SYSTEMS[12])
        assert cert12.kind == "RankDeficiency"
        assert cert12.generators == [(0, 1, 1), (1, 0, 1), (1, 1, 0)]
        assert cert12.rank == 2
        assert elapsed < 1.0
    criterion(capsys, 1, body)


# ---------------------------------------------------------------------------
# 2: dimension-pattern refutations


def test_acceptance_2_pattern_refutations(capsys):
    def body():
        t0 = time.perf_counter()
        report = verify_paper("5", (10, 16), "paper")
        elapsed = time.perf_counter() - t0
        assert report["passed"] is True
        assert report["patterns"]["total_patterns"] == 75
        assert report["patterns"]["total_unrefuted"] == 0
        assert elapsed < 10.0
        strict = verify_paper("5", (10, 16), "strict")
        dependent = [p for entry in strict["patterns"]["per_dim"]
                     for p in entry["iso_rule_dependent"]]
        assert dependent
        assert "(14:3,0,2,2,2,2,1,1,1)" in dependent
        unrefuted = [p for entry in strict["patterns"]["per_dim"]
                     for p in entry["unrefuted"]]
        assert sorted(unrefuted) == sorted(dependent)
    criterion(capsys, 2, body)


# ---------------------------------------------------------------------------
# 3: enumeration counts against an independent oracle


def oracle_class_count(total):
    """Multisets of seven root dims (each >= 1) plus a nil part, dims sum fixed."""
    count = 0
    for nil in range(0, total - 3 - 7 + 1):
        rem = total - 3 - nil
        for dims in itertools.combinations_with_replacement(range(1, rem + 1), 7):
            if sum(dims) == rem:
                count += 1
    return count


def test_acceptance_3_enumeration_counts(capsys):
    def body():
        ten = enumerate_patterns(10)
        assert len(ten) == 1
        assert ten[0].to_string() == "(10:3,0,1,1,1,1,1,1,1)"
        assert raw_pattern_string(PUBLISHED_PATTERN_LISTS[10][0]) == ten[0].to_string()
        assert len(enumerate_patterns(13)) == 7
        fourteen = sorted(p.to_string() for p in enumerate_patterns(14))
        assert len(fourteen) == 12
        assert fourteen == sorted(raw_pattern_string(r)
                                  for r in PUBLISHED_PATTERN_LISTS[14])
        fifteen = enumerate_patterns(15)
        assert len(fifteen) == oracle_class_count(15) == 19
        cross = cross_check_paper_lists()
        (bad,) = per_dim(cross, 13)["malformed"]
        assert bad["position"] == 3
        d15 = per_dim(cross, 15)
        assert [d["positions"] for d in d15["duplicates"]] == [[11, 12]]
        assert d15["missing_from_list"]
    criterion(capsys, 3, body)


# ---------------------------------------------------------------------------
# 4: cross-check findings, string for string


def test_acceptance_4_cross_check_findings(capsys):
    def body():
        report = cross_check_paper_lists()
        (bad,) = per_dim(report, 13)["malformed"]
        assert bad == {"position": 3, "item": "(13:3,1,1,1,1,1,1,1)"}
        (dup15,) = per_dim(report, 15)["duplicates"]
        assert dup15["item"] == "(15:3,0,2,2,2,2,2,1,1)"
        assert dup15["positions"] == [11, 12]
        (dup16,) = per_dim(report, 16)["duplicates"]
        assert dup16["item"] == "(16:3,0,4,2,2,2,1,1,1)"
        assert dup16["positions"] == [22, 23, 24]
        for total in (10, 11, 12, 14):
            entry = per_dim(report, total)
            assert not entry["malformed"] and not entry["duplicates"]
        assert report["lists_clean"] is False
    criterion(capsys, 4, body)


# ---------------------------------------------------------------------------
# 5: the cross-product fixture


def _o3_claims_once(alg):
    t0 = time.perf_counter()
    assert is_simple(alg).simple
    assert not synthesize_two_map(alg).restrictable
    return time.perf_counter() - t0


def test_acceptance_5_cross_product_fixture(capsys):
    def body():
        alg = catalog("o3").algebra
        rep = is_simple(alg)
        assert rep.simple is True
        assert rep.seeds_checked == 7
        assert synthesize_two_map(alg).restrictable is False
        best = min(_o3_claims_once(alg) for _ in range(5))
        assert best < 0.001
    criterion(capsys, 5, body)


# ---------------------------------------------------------------------------
# 6: the dimension 3 and 4 censuses


def _census_doc(report):
    doc = report.to_json()
    for key in ("runtime_ms", "backend", "threads"):
        doc.pop(key, None)
    return doc


def test_acceptance_6_census(capsys):
    def body():
        from lie2.search import CensusSpec, census, iso_match

        three = census(CensusSpec(dim=3))
        assert three.candidates_scanned == 512
        assert three.simple_count == 28
        assert three.restrictable_simple_count == 0
        (cls,) = three.simple_iso_classes
        assert cls["class_size"] == 28 and not cls["restrictable"]
        rep_alg, _ = from_json(cls["representative"])
        assert iso_match(rep_alg, catalog("o3").algebra) is not None
        t0 = time.perf_counter()
        four = census(CensusSpec(dim=4, threads=4))
        elapsed = time.perf_counter() - t0
        assert elapsed < 60.0
        assert four.candidates_scanned == 1 << 24
        assert four.jacobi_pass == 34336
        assert four.simple_count == 0
        assert four.restrictable_simple_count == 0  # hence none of toral rank 3
        # the engine ignores threads: the report must not change with it
        single = census(CensusSpec(dim=4, threads=1))
        assert _census_doc(four) == _census_doc(single)
    criterion(capsys, 6, body)


# ---------------------------------------------------------------------------
# 7: randomized property sweep over every fixture


FIXTURES = ("o3", "heis3", "sl2", "gl2", "gl3", "sl3", "w11_p2")
CASES_PER_FIXTURE = 1000


def test_acceptance_7_property_sweep(capsys):
    def body():
        sl3_transport_triggers = 0
        split_failures = set()
        for fno, name in enumerate(FIXTURES):
            alg, ra = restricted_fixture(name)
            gf = alg.gf
            rnd = random.Random(1000 + fno)
            spaces = []
            dec = None
            if ra is not None:
                try:
                    dec = weight_decompose(ra, max_tori(ra).torus)
                except SplitFailed:
                    # central torus, so the toral/nil split cannot close
                    split_failures.add(name)
            if dec is not None:
                audit = audit_decomposition(dec)
                assert audit.ok, name
                if name == "sl3":
                    sl3_transport_triggers = \
                        audit.checks["iso_rule_transport"].triggered
                zero = tuple([0] * dec.rank)
                spaces = [(zero, dec.h)]
                spaces += [(r, dec.weights[r]) for r in dec.roots()]
            for _ in range(CASES_PER_FIXTURE):
                x = rand_vec(rnd, gf, alg.dim)
                y = rand_vec(rnd, gf, alg.dim)
                z = rand_vec(rnd, gf, alg.dim)
                jac = vec_add(vec_add(alg.bracket(alg.bracket(x, y), z),
                                      alg.bracket(alg.bracket(y, z), x)),
                              alg.bracket(alg.bracket(z, x), y))
                assert not any(jac), name
                if ra is None:
                    continue
                # quadratic additivity, square scaling, ad-compatibility
                lhs = two_map_eval(ra, vec_add(x, y))
                rhs = vec_add(vec_add(two_map_eval(ra, x), two_map_eval(ra, y)),
                              alg.bracket(x, y))
                assert lhs == rhs, name
                c = rnd.randrange(gf.order)
                c2 = gf.mul(c, c)
                scaled = tuple(gf.mul(c, a) for a in x)
                sq = two_map_eval(ra, x)
                assert two_map_eval(ra, scaled) == tuple(gf.mul(c2, a) for a in sq)
                assert alg.bracket(sq, y) == alg.bracket(x, alg.bracket(x, y))
                parts = jcs_decompose(ra, x)
                assert vec_add(parts.semisimple, parts.nilpotent) == x
                assert not any(alg.bracket(parts.semisimple, parts.nilpotent))
                assert classify_element(ra, parts.semisimple).semisimple
                assert classify_element(ra, parts.nilpotent).two_nilpotent
                if dec is None:
                    continue
                lam, u_space = spaces[rnd.randrange(len(spaces))]
                mu, w_space = spaces[rnd.randrange(len(spaces))]
                u = rand_in(rnd, gf, u_space, alg.dim)
                w = rand_in(rnd, gf, w_space, alg.dim)
                target = vec_add(lam, mu)
                uw = alg.bracket(u, w)
                if not any(target):
                    assert dec.h.contains(uw), name
                elif target in dec.weights:
                    assert dec.weights[target].contains(uw), name
                else:
                    assert not any(uw), name
        assert split_failures == {"sl2"}
        assert sl3_transport_triggers == 6
    criterion(capsys, 7, body)


# ---------------------------------------------------------------------------
# 8: the traceless 3x3 fixture


def test_acceptance_8_sl3_picture(capsys):
    def body():
        alg, ra = restricted_fixture("sl3")
        rep = max_tori(ra)
        # all 256 vectors swept: 28 nonzero fixpoints, no commuting triple
        assert rep.exhaustive is True
        assert rep.fixpoints_seen == 28
        assert rep.rank_lb == 2
        dec = weight_decompose(ra, rep.torus)
        assert dec.h.dim == 2 and dec.nil.dim == 0
        roots = list(dec.roots())
        assert len(roots) == 3
        assert all(dec.weights[r].dim == 2 for r in roots)
        assert sum(dec.weights[r].dim for r in roots) == 6
        assert audit_decomposition(dec).ok
    criterion(capsys, 8, body)


@pytest.mark.xfail(strict=True,
                   reason="a rank-2 grading over GF(2) has three nonzero "
                          "roots, so six one-dimensional root spaces cannot "
                          "occur; the three root spaces are two-dimensional")
def test_acceptance_8_six_one_dim_root_spaces():
    alg, ra = restricted_fixture("sl3")
    dec = weight_decompose(ra, max_tori(ra).torus)
    roots = list(dec.roots())
    assert len(roots) == 6
    assert all(dec.weights[r].dim == 1 for r in roots)
