"""Case analysis tests: root systems, admissible spans, kill rules, lists.

The enumeration counts are cross-checked against in-test oracles built a
different way (stars-and-bars for labeled counts, sorted-tuple generation
for multiset counts), and the exhaustive labeled replay proves the kill
verdict constant on every multiset class, so the class representatives
used by the public enumeration decide all 3003 labeled patterns.
"""
from __future__ import annotations

import itertools
import math

import pytest

from lie2 import InvalidInput, NotCanonical, XiNotInSystem, caseanalysis
from lie2.caseanalysis import (DimPattern, ROOT_ORDER,
                               admissible_toral_space, apply_root,
                               check_certificate, compare_published_spans,
                               cross_check_paper_lists, dot2,
                               enumerate_gl_orbit_patterns,
                               enumerate_labeled_patterns, enumerate_patterns,
                               enumerate_root_systems, gl3_canonicalize_dims,
                               gl3_matrices, kill_pattern, normalize_system,
                               refute_root_system, root_key, verify_paper,
                               verify_patterns, verify_root_systems,
                               _kill_unchecked, act_on_dims)
from lie2.casedata import (PUBLISHED_PATTERN_LISTS, PUBLISHED_ROOT_SYSTEMS,
                           raw_pattern_string)
from lie2.field import GF, GF2, Subspace, full_space, gl_matrices
from dense_oracles import gl_orbit_patterns_canonical, subspace_vectors


# ---------------------------------------------------------------------------
# root systems and admissible spans


def test_sixteen_systems_match_bundled():
    systems = enumerate_root_systems()
    assert len(systems) == 16
    assert tuple(systems) == tuple(PUBLISHED_ROOT_SYSTEMS)
    assert systems[0] == ROOT_ORDER
    # subset sizes: full, then 1 of size 3, 4 of 4, 6 of 5, 4 of 6, 1 of 7
    sizes = sorted(len(s) for s in systems)
    assert sizes == [3, 4, 4, 4, 4, 5, 5, 5, 5, 5, 5, 6, 6, 6, 6, 7]


def test_normalize_system_validates():
    assert normalize_system([(0, 1, 0), (1, 0, 0)]) == ((1, 0, 0), (0, 1, 0))
    with pytest.raises(InvalidInput):
        normalize_system([(0, 2, 0)])
    with pytest.raises(InvalidInput):
        normalize_system([(0, 0, 0)])


F2_PLANE, F2_SPACE, GF4_PLANE = full_space(GF2, 2), full_space(GF2, 3), full_space(GF(2), 2)


@pytest.mark.parametrize("call,expected", [
    (lambda: normalize_system([]), InvalidInput),
    (lambda: normalize_system([(1, 0, 0), (1, 0, 0)]), InvalidInput),
    (lambda: normalize_system([(1, 1), (0, 1), (1, 0)]), ((0, 1), (1, 0), (1, 1))),
    (lambda: normalize_system([(1, 0, 0, 1), (0, 0, 1, 0)]), ((0, 0, 1, 0), (1, 0, 0, 1))),
    (lambda: F2_PLANE.add(F2_SPACE), InvalidInput),
    (lambda: F2_PLANE.add(GF4_PLANE), InvalidInput),
    (lambda: F2_PLANE.intersect(F2_SPACE), InvalidInput),
    (lambda: F2_PLANE.intersect(GF4_PLANE), InvalidInput),
], ids=["empty-system", "repeated-root", "rank-2-order", "rank-4-order", "sum-ambient",
        "sum-field", "meet-ambient", "meet-field"])
def test_input_checks(call, expected):
    """Roots of rank other than 3 sort lexicographically; an empty or
    repeated system and a sum or intersection of subspaces of different
    spaces are invalid input, which the command line reports with exit 2."""
    if expected is InvalidInput:
        with pytest.raises(InvalidInput) as exc:
            call()
        assert exc.value.exit_code == 2
    else:
        assert call() == expected


def test_admissible_requires_membership():
    with pytest.raises(XiNotInSystem):
        admissible_toral_space([(1, 0, 0), (0, 1, 0), (0, 0, 1)], (1, 1, 0))


def test_full_system_spans_are_root_kernels():
    full = enumerate_root_systems()[0]
    for xi in full:
        sp = admissible_toral_space(full, xi)
        assert sp.dim == 2
        for v in subspace_vectors(sp):
            assert dot2(v, xi) == 0


def test_case2_spans_frozen():
    """Base roots plus (1,1,0): spans <t2>, <t1>, 0, <t1+t2> hand-checked."""
    sys2 = enumerate_root_systems()[2]
    assert [root_key(r) for r in sys2] == ["100", "010", "001", "110"]
    want = {(1, 0, 0): ((0, 1, 0),),
            (0, 1, 0): ((1, 0, 0),),
            (0, 0, 1): (),
            (1, 1, 0): ((1, 1, 0),)}
    for xi, rows in want.items():
        assert admissible_toral_space(sys2, xi).rows == rows


def test_case12_generators_rank_two():
    cert = refute_root_system(enumerate_root_systems()[12])
    assert cert.kind == "RankDeficiency"
    assert cert.generators == [(0, 1, 1), (1, 0, 1), (1, 1, 0)]
    assert cert.rank == 2


REFUTATION_RANKS = [3, 0, 2, 2, 2, 0, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2]


def test_all_system_refutations_frozen():
    for idx, system in enumerate(enumerate_root_systems()):
        cert = refute_root_system(system)
        assert cert.kind == ("Unrefuted" if idx == 0 else "RankDeficiency")
        assert cert.rank == REFUTATION_RANKS[idx]
        assert cert.soundness == "sound"
        assert check_certificate(cert)
        # the generator span is exactly the union of the admissible spaces
        joint = Subspace(GF2, 3, cert.generators)
        assert joint.dim == cert.rank
        for xi in system:
            assert joint.contains_subspace(admissible_toral_space(system, xi))


def test_certificate_tampering_detected():
    cert = refute_root_system(enumerate_root_systems()[3])
    doc = cert.to_json()
    assert check_certificate(doc)
    bad = dict(doc)
    bad["kind"] = "Unrefuted"
    assert not check_certificate(bad)
    bad = dict(doc, rank=3)
    assert not check_certificate(bad)
    bad = dict(doc, generators=doc["generators"][:-1])
    assert not check_certificate(bad)
    assert not check_certificate("not a dict")
    assert not check_certificate({"subject": {"type": "mystery"}})
    assert not check_certificate({"subject": {"type": "dim_pattern"}})


def test_certificate_with_non_integer_root_is_rejected():
    assert not check_certificate({"subject": {"type": "root_system", "roots": ["ab"]}})
    with pytest.raises(InvalidInput):
        refute_root_system([("a", "b")])


def test_span_divergences_frozen():
    comp = compare_published_spans()
    assert len(comp) == 73
    diverging = {(c["case_index"], c["root"]) for c in comp if not c["match"]}
    assert diverging == {(6, "100"), (7, "010"), (7, "110"), (7, "011"),
                         (11, "011")}


def test_verify_root_systems_passes():
    rep = verify_root_systems()
    assert rep["passed"]
    assert len(rep["cases"]) == 16
    assert all(c["recheck_passed"] and c["as_expected"] for c in rep["cases"])
    assert len(rep["span_divergences"]) == 5


# ---------------------------------------------------------------------------
# GL3(F2) action


def test_gl3_has_168_matrices():
    mats = gl3_matrices()
    assert len(mats) == 168
    assert len(set(mats)) == 168


def brute_force_gl3():
    """Every 3x3 F2 matrix with odd determinant, by cofactor expansion."""
    out = set()
    for code in range(512):
        m = tuple(tuple((code >> (3 * r + c)) & 1 for c in range(3)) for r in range(3))
        (a, b, c), (d, e, f), (g, h, i) = m
        if (a * (e * i + f * h) + b * (d * i + f * g) + c * (d * h + e * g)) & 1:
            out.add(m)
    return out


def test_gl3_matrices_are_all_invertible_matrices():
    assert set(gl3_matrices()) == brute_force_gl3()
    assert set(gl3_matrices()) == {
        tuple(tuple((row >> c) & 1 for c in range(3)) for row in rows)
        for rows, _inv in gl_matrices(3)}


@pytest.mark.parametrize("total", [10, 11, 12, 13])
def test_canonicalize_matches_brute_force_orbit_max(total):
    mats = brute_force_gl3()
    for p in enumerate_labeled_patterns(total):
        assert gl3_canonicalize_dims(p.dims) == max(act_on_dims(m, p.dims)
                                                    for m in mats)


def test_gl3_permutes_roots():
    for m in gl3_matrices()[:40]:
        images = {apply_root(m, r) for r in ROOT_ORDER}
        assert images == set(ROOT_ORDER)


def test_act_on_dims_is_consistent_with_root_action():
    dims = (7, 6, 5, 4, 3, 2, 1)
    for m in gl3_matrices()[::17]:
        moved = act_on_dims(m, dims)
        for i, root in enumerate(ROOT_ORDER):
            j = ROOT_ORDER.index(apply_root(m, root))
            assert moved[j] == dims[i]


def test_canonicalize_idempotent_and_orbit_invariant():
    dims = (2, 1, 2, 1, 1, 2, 1)
    canon = gl3_canonicalize_dims(dims)
    assert gl3_canonicalize_dims(canon) == canon
    assert sorted(canon, reverse=True) == sorted(dims, reverse=True)
    for m in gl3_matrices()[::11]:
        assert gl3_canonicalize_dims(act_on_dims(m, dims)) == canon
    assert canon >= dims


def test_fano_line_orbit_split():
    """Three 2s on a line vs not: same multiset, different GL3 orbits."""
    non_line = gl3_canonicalize_dims((2, 2, 2, 1, 1, 1, 1))
    on_line = gl3_canonicalize_dims((2, 2, 1, 2, 1, 1, 1))   # 100,010,110
    assert non_line != on_line
    assert sorted(non_line) == sorted(on_line)


GL_ORBIT_COUNTS = {10: 1, 11: 2, 12: 4, 13: 8, 14: 15, 15: 26, 16: 45}


@pytest.mark.parametrize("total", sorted(GL_ORBIT_COUNTS))
def test_gl_orbit_pattern_counts_frozen(total):
    assert len(enumerate_gl_orbit_patterns(total)) == GL_ORBIT_COUNTS[total]


@pytest.mark.parametrize("total", range(10, 15))
def test_gl_orbit_patterns_match_the_canonicalizing_enumerator(total):
    """Marking each new pattern's orbit gives the list, in the order, that
    canonicalizing every labelled pattern gave."""
    assert enumerate_gl_orbit_patterns(total) == gl_orbit_patterns_canonical(total)


# cycle types of GL(3, 2) on the 7 Fano points, with the sizes of their classes
GL3_CLASSES = [((1,) * 7, 1), ((1, 1, 1, 2, 2), 21), ((1, 3, 3), 56), ((1, 2, 4), 42),
               ((7,), 48)]
BURNSIDE_COUNTS = dict(zip(range(10, 21), [1, 2, 4, 8, 15, 26, 45, 74, 118, 184, 280]))


def burnside_orbit_count(total: int) -> int:
    """GL3(F2) orbits of patterns by Burnside's lemma: a labelling fixed by
    an element is constant on its cycles, so it has one dimension >= 1 per
    cycle, and cycle lengths times those dimensions sum to the root part."""
    orbits = 0
    for nil in range(total - 9):
        rem = total - 3 - nil
        fixed = 0
        for cycles, size in GL3_CLASSES:
            ways = [1] + [0] * rem  # ways[s]: dimensions on the cycles so far summing to s
            for c in cycles:
                ways = [sum(ways[s - c * d] for d in range(1, s // c + 1))
                        for s in range(rem + 1)]
            fixed += size * ways[rem]
        assert fixed % 168 == 0
        orbits += fixed // 168
    return orbits


@pytest.mark.parametrize("total", sorted(BURNSIDE_COUNTS))
def test_gl_orbit_pattern_counts_match_burnside(total):
    assert burnside_orbit_count(total) == BURNSIDE_COUNTS[total]
    assert len(enumerate_gl_orbit_patterns(total)) == BURNSIDE_COUNTS[total]


# ---------------------------------------------------------------------------
# pattern enumeration


def multiset_count_oracle(total: int) -> int:
    """Sorted 7-tuples summing right, generated the slow direct way."""
    count = 0
    for nil in range(0, total - 9):
        rem = total - 3 - nil
        for tup in itertools.combinations_with_replacement(range(1, rem + 1), 7):
            if sum(tup) == rem:
                count += 1
    return count


def labeled_count_oracle(total: int) -> int:
    return sum(math.comb(total - 3 - nil - 1, 6) for nil in range(0, total - 9))


PATTERN_COUNTS = {10: 1, 11: 2, 12: 4, 13: 7, 14: 12, 15: 19, 16: 30}
LABELED_COUNTS = {10: 1, 11: 8, 12: 36, 13: 120, 14: 330, 15: 792, 16: 1716}


@pytest.mark.parametrize("total", sorted(PATTERN_COUNTS))
def test_pattern_counts_match_oracle(total):
    pats = enumerate_patterns(total)
    assert len(pats) == PATTERN_COUNTS[total]
    assert len(pats) == multiset_count_oracle(total)
    seen = set()
    for p in pats:
        assert p.total == total
        assert p.dims == tuple(sorted(p.dims, reverse=True))
        assert p.dims == gl3_canonicalize_dims(p.dims)
        assert p.multiset not in seen
        seen.add(p.multiset)


def test_enumerated_patterns_are_non_increasing_so_canonical():
    """Every pattern enumerate_patterns gives at dims 10..40 (69,847 of
    them) has non-increasing dims.  GL3(F2) acts on dims by permuting the
    seven roots, and a non-increasing tuple is lexicographically greatest
    among its permutations, so gl3_canonicalize_dims returns it unchanged;
    checked here on the first, middle and last pattern of each dimension."""
    count = 0
    for total in range(10, 41):
        pats = enumerate_patterns(total)
        count += len(pats)
        for p in pats:
            assert all(a >= b for a, b in zip(p.dims, p.dims[1:])), p.to_string()
        for p in (pats[0], pats[len(pats) // 2], pats[-1]):
            assert gl3_canonicalize_dims(p.dims) == p.dims
    assert count == 69847


@pytest.mark.parametrize("total", sorted(LABELED_COUNTS))
def test_labeled_counts_match_oracle(total):
    got = sum(1 for _ in enumerate_labeled_patterns(total))
    assert got == LABELED_COUNTS[total]
    assert got == labeled_count_oracle(total)


def test_dim_pattern_validation():
    p = DimPattern(14, 0, (2, 2, 2, 2, 1, 1, 1))
    assert p.to_string() == "(14:3,0,2,2,2,2,1,1,1)"
    assert p.multiset == (0, (2, 2, 2, 2, 1, 1, 1))
    with pytest.raises(InvalidInput):
        DimPattern(14, 0, (2, 2, 2, 2, 1, 1))          # six dims
    with pytest.raises(InvalidInput):
        DimPattern(14, 0, (2, 2, 2, 2, 2, 1, 0))       # zero dim
    with pytest.raises(InvalidInput):
        DimPattern(15, 0, (2, 2, 2, 2, 1, 1, 1))       # total mismatch
    with pytest.raises(InvalidInput):
        DimPattern(14, -1, (3, 2, 2, 2, 1, 1, 1))      # negative nil


# ---------------------------------------------------------------------------
# kill rules


def test_ideal_rule_kills_minimal_pattern():
    cert = kill_pattern(DimPattern(10, 0, (1,) * 7))
    assert cert.kind == "IdealRule" and cert.soundness == "sound"
    assert cert.rank is None and "rank" not in cert.to_json()
    assert check_certificate(cert)


def test_count_rule_example():
    # one 2 among six 1s with a nil part: capacity 1 < 3 + 1
    cert = kill_pattern(DimPattern(12, 1, (2, 1, 1, 1, 1, 1, 1)))
    assert cert.kind == "CountRule"
    assert cert.witnesses == {"bracket_capacity": 1, "required": 4}
    assert check_certificate(cert)


def test_rank_deficiency_example():
    cert = kill_pattern(DimPattern(13, 0, (4, 1, 1, 1, 1, 1, 1)))
    assert cert.kind == "RankDeficiency"
    assert cert.rank == 2
    assert cert.witnesses["heavy_roots"] == ["100"]
    assert cert.generators == [(0, 0, 1), (0, 1, 0)]
    assert check_certificate(cert)


def test_iso_rule_example_and_strict_divergence():
    p = DimPattern(14, 0, (2, 2, 2, 2, 1, 1, 1))
    paper = kill_pattern(p, "paper")
    assert paper.kind == "IsoRule"
    assert paper.soundness == "paper_style"
    w = paper.witnesses
    assert w["dims"][0] != w["dims"][1]
    assert check_certificate(paper)
    strict = kill_pattern(p, "strict")
    assert strict.kind == "Unrefuted"
    assert strict.soundness == "sound"
    assert check_certificate(strict)


def test_kill_pattern_rejects_noncanonical():
    with pytest.raises(NotCanonical):
        kill_pattern(DimPattern(13, 0, (1, 1, 1, 1, 1, 1, 4)))
    with pytest.raises(InvalidInput):
        kill_pattern(DimPattern(10, 0, (1,) * 7), mode="fast")


def test_pattern_certificate_tampering_detected():
    doc = kill_pattern(DimPattern(13, 0, (4, 1, 1, 1, 1, 1, 1))).to_json()
    assert check_certificate(doc)
    assert not check_certificate(dict(doc, kind="CountRule"))
    bad = dict(doc)
    bad["subject"] = dict(doc["subject"], dims=[4, 1, 1, 1, 1, 1, 2])
    assert not check_certificate(bad)   # subject no longer matches the verdict


def test_labeled_replay_kind_constant_on_multiset_classes():
    """All 3003 labeled patterns, both modes: verdict decided by the class."""
    total_seen = 0
    for total in range(10, 17):
        class_kind = {}
        for mode in ("paper", "strict"):
            for p in enumerate_patterns(total):
                class_kind[(mode,) + p.multiset] = kill_pattern(p, mode).kind
        for p in enumerate_labeled_patterns(total):
            total_seen += 1
            for mode in ("paper", "strict"):
                got = _kill_unchecked(p, mode).kind
                assert got == class_kind[(mode,) + p.multiset], p.to_string()
    assert total_seen == sum(LABELED_COUNTS.values()) == 3003


PAPER_KINDS = {
    10: {"IdealRule": 1},
    11: {"IdealRule": 1, "CountRule": 1},
    12: {"IdealRule": 1, "CountRule": 2, "RankDeficiency": 1},
    13: {"IdealRule": 1, "CountRule": 3, "RankDeficiency": 1, "IsoRule": 2},
    14: {"IdealRule": 1, "CountRule": 4, "RankDeficiency": 2, "IsoRule": 5},
    15: {"IdealRule": 1, "CountRule": 5, "RankDeficiency": 3, "IsoRule": 10},
    16: {"IdealRule": 1, "CountRule": 6, "RankDeficiency": 4, "IsoRule": 19},
}
STRICT_SURVIVORS = {10: 0, 11: 0, 12: 0, 13: 2, 14: 5, 15: 10, 16: 19}


def test_verify_patterns_paper_mode():
    rep = verify_patterns((10, 16), "paper")
    assert rep["passed"] and rep["total_unrefuted"] == 0
    assert rep["total_patterns"] == 75
    for entry in rep["per_dim"]:
        total = entry["total_dim"]
        assert entry["kinds"] == PAPER_KINDS[total]
        assert entry["unrefuted"] == []
        assert len(entry["iso_rule_dependent"]) == STRICT_SURVIVORS[total]
        assert entry["pattern_count"] == PATTERN_COUNTS[total]


def test_verify_patterns_strict_mode():
    rep = verify_patterns((10, 16), "strict")
    assert not rep["passed"]
    assert rep["total_unrefuted"] == 36
    for entry in rep["per_dim"]:
        total = entry["total_dim"]
        assert len(entry["unrefuted"]) == STRICT_SURVIVORS[total]
        assert entry["unrefuted"] == entry["iso_rule_dependent"]
    dim14 = next(e for e in rep["per_dim"] if e["total_dim"] == 14)
    assert "(14:3,0,2,2,2,2,1,1,1)" in dim14["unrefuted"]


@pytest.mark.parametrize("mode", ["paper", "strict"])
def test_verify_patterns_canonicalizes_each_pattern_once(monkeypatch, mode):
    """Paper mode reuses the check for its strict certificate."""
    calls = []

    def counting(dims):
        calls.append(dims)
        return gl3_canonicalize_dims(dims)

    monkeypatch.setattr(caseanalysis, "gl3_canonicalize_dims", counting)
    rep = verify_patterns((10, 16), mode)
    assert rep["total_patterns"] == 75
    assert len(calls) == rep["total_patterns"]


def test_verify_paper_sections():
    rep = verify_paper("all")
    assert rep["passed"]
    assert "root_systems" in rep and "patterns" in rep
    assert "caveat" in rep
    only4 = verify_paper("4")
    assert "patterns" not in only4 and only4["passed"]
    only5 = verify_paper("5", dims=(10, 12))
    assert "root_systems" not in only5 and only5["passed"]
    strict = verify_paper("5", mode="strict")
    assert not strict["passed"]
    with pytest.raises(InvalidInput):
        verify_paper("6")
    with pytest.raises(InvalidInput):
        verify_patterns((12, 10))


# ---------------------------------------------------------------------------
# bundled list cross-check


def test_cross_check_findings_frozen():
    rep = cross_check_paper_lists()
    assert not rep["lists_clean"]
    assert "caveat" in rep
    by_dim = {e["total_dim"]: e for e in rep["per_dim"]}
    assert sorted(by_dim) == list(range(10, 17))

    for total in (10, 11, 12, 14):
        e = by_dim[total]
        assert not e["malformed"] and not e["duplicates"]
        assert not e["missing_from_list"] and not e["not_reproducible"]
        assert e["listed_items"] == e["enumerated_classes"]

    e13 = by_dim[13]
    assert e13["malformed"] == [{"position": 3, "item": "(13:3,1,1,1,1,1,1,1)"}]
    assert e13["missing_from_list"] == ["(13:3,3,1,1,1,1,1,1,1)"]
    assert not e13["duplicates"]

    e15 = by_dim[15]
    assert e15["listed_items"] == 13 and e15["enumerated_classes"] == 19
    assert e15["duplicates"] == [{"item": "(15:3,0,2,2,2,2,2,1,1)",
                                  "positions": [11, 12]}]
    assert len(e15["missing_from_list"]) == 7
    assert "(15:3,0,4,2,2,1,1,1,1)" in e15["missing_from_list"]

    e16 = by_dim[16]
    assert e16["listed_items"] == 28 and e16["enumerated_classes"] == 30
    assert e16["duplicates"] == [{"item": "(16:3,0,4,2,2,2,1,1,1)",
                                  "positions": [22, 23, 24]}]
    assert e16["missing_from_list"] == ["(16:3,0,3,3,3,1,1,1,1)",
                                        "(16:3,0,4,4,1,1,1,1,1)",
                                        "(16:3,0,5,3,1,1,1,1,1)",
                                        "(16:3,1,3,2,2,2,1,1,1)"]


def test_raw_pattern_string_format():
    assert raw_pattern_string((14, 3, 0, 2, 2, 2, 2, 1, 1, 1)) == \
        "(14:3,0,2,2,2,2,1,1,1)"
    assert raw_pattern_string((13, 3, 1, 1, 1, 1, 1, 1, 1)) == \
        "(13:3,1,1,1,1,1,1,1)"


def test_bundled_lists_raw_lengths():
    lens = {t: len(v) for t, v in PUBLISHED_PATTERN_LISTS.items()}
    assert lens == {10: 1, 11: 2, 12: 4, 13: 7, 14: 12, 15: 13, 16: 28}
