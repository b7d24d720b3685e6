"""Combinatorial case analysis for toral rank 3 in characteristic 2.

Two layers of machinery live here.  The root-system layer computes, for each
rank-3 root system closed over three independent base roots, the admissible
toral space of every root: the set of torus vectors a root-space bracket can
contribute, cut out by the root's own kernel condition and by the kernels of
all roots whose sum with it leaves the system.  If the admissible spaces of a
system jointly span a proper subspace of the torus, the system cannot carry a
simple algebra of toral rank 3 and a rank-deficiency certificate records why.

The pattern layer works one level up, on dimension patterns (nil-part
dimension plus the seven root-space dimensions over the full system).  Four
kill rules are applied in a fixed order:

1. IdealRule: all seven root spaces 1-dimensional.  Sound: root-space
   brackets then vanish (alternating in characteristic 2), so the root sum
   generates a proper nonzero ideal.
2. CountRule: the root spaces cannot supply enough independent brackets to
   span the centralizer (sum of d*(d-1)/2 below 3 + nil dim).  Sound: in a
   simple algebra the centralizer is spanned by same-root brackets.
3. RankDeficiency: kernels of the roots with dimension at least 2 fail to
   span the torus.  Sound: only those roots have nonzero same-root brackets,
   and each bracket's toral part lies in the root's kernel.
4. IsoRule: a transport argument that pairs root spaces of unequal dimension
   through an assumed nonzero toral square; certificates carry soundness
   "paper_style" because the nonzero assumption is not derived.

Patterns are compared up to GL3(F2), which permutes the seven roots (the
symmetry group of the Fano plane).  The 168 matrices come from the one
GL(n, 2) enumerator, field.gl_matrices, as row tuples; apply_root and
act_on_dims define their action on root-space dimensions.

Certificates are plain data and check_certificate recomputes them from their
subject, so any tampering is caught.  All scans are deterministic.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .casedata import (PUBLISHED_ADMISSIBLE_SPANS, PUBLISHED_PATTERN_LISTS,
                       raw_pattern_string)
from .errors import InvalidInput, NotCanonical, XiNotInSystem
from .field import FIELD_CAVEAT, GF2, Subspace, gl_matrices

Root = Tuple[int, ...]

ROOT_ORDER: Tuple[Root, ...] = ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0),
                                (1, 0, 1), (0, 1, 1), (1, 1, 1))
ROOT_INDEX: Dict[Root, int] = {r: i for i, r in enumerate(ROOT_ORDER)}
TORUS_RANK = 3


def dot2(a: Sequence[int], b: Sequence[int]) -> int:
    acc = 0
    for x, y in zip(a, b):
        acc ^= x & y
    return acc


def root_key(root: Sequence[int]) -> str:
    return "".join(str(b) for b in root)


def normalize_system(system: Iterable[Sequence[int]]) -> Tuple[Root, ...]:
    roots = []
    length = None
    for r in system:
        try:
            t = tuple(int(x) for x in r)
        except (TypeError, ValueError) as exc:
            raise InvalidInput("roots must be equal-length 0/1 vectors") from exc
        if length is None:
            length = len(t)
        if len(t) != length or not t or any(x not in (0, 1) for x in t):
            raise InvalidInput("roots must be equal-length 0/1 vectors")
        if not any(t):
            raise InvalidInput("the zero vector is not a root")
        roots.append(t)
    if not roots:
        raise InvalidInput("empty root system")
    if len(set(roots)) != len(roots):
        raise InvalidInput("repeated root in system")
    if length == 3:
        roots.sort(key=lambda r: ROOT_INDEX.get(r, len(ROOT_ORDER)))
    else:
        roots.sort()
    return tuple(roots)


def enumerate_root_systems() -> List[Tuple[Root, ...]]:
    """The sixteen rank-3 systems containing the three base roots.

    Index 0 is the full system; indices 1..15 append subsets of the four
    composite roots in lexicographic subset order.
    """
    base = ROOT_ORDER[:3]
    extras = ROOT_ORDER[3:]
    out = [tuple(ROOT_ORDER)]
    for size in range(4):
        for combo in itertools.combinations(range(4), size):
            out.append(normalize_system(base + tuple(extras[i] for i in combo)))
    return out


def admissible_toral_space(system: Iterable[Sequence[int]], xi: Sequence[int]) -> Subspace:
    """Torus vectors a same-root bracket of the given root may reach.

    Constraints: the root's own kernel, plus the kernel of every root eta in
    the system whose sum with xi is neither zero nor in the system (a bracket
    pairing would otherwise land in a root space that does not exist).
    """
    roots = normalize_system(system)
    xi = tuple(int(x) for x in xi)
    if xi not in roots:
        raise XiNotInSystem(f"root {root_key(xi)} is not in the system")
    r = len(xi)
    rows = [xi]
    for eta in roots:
        s = tuple(a ^ b for a, b in zip(xi, eta))
        if any(s) and s not in roots:
            rows.append(eta)
    return Subspace(GF2, r, Subspace(GF2, r, rows).null_basis())


# ---------------------------------------------------------------------------
# certificates


@dataclass
class Certificate:
    kind: str
    soundness: str
    subject: dict
    witnesses: dict
    generators: List[Tuple[int, ...]]
    rank: Optional[int] = None

    def to_json(self) -> dict:
        doc = {
            "kind": self.kind,
            "soundness": self.soundness,
            "subject": self.subject,
            "witnesses": self.witnesses,
            "generators": [list(g) for g in self.generators],
        }
        if self.rank is not None:
            doc["rank"] = self.rank
        return doc


def refute_root_system(system: Iterable[Sequence[int]]) -> Certificate:
    """Rank-deficiency refutation from the joint span of admissible spaces."""
    roots = normalize_system(system)
    r = len(roots[0])
    spans = {xi: admissible_toral_space(roots, xi) for xi in roots}
    gens = sorted({row for sp in spans.values() for row in sp.rows})
    rank = Subspace(GF2, r, gens).dim
    subject = {"type": "root_system", "roots": [list(x) for x in roots]}
    witnesses = {"admissible": {root_key(xi): [list(v) for v in spans[xi].rows]
                                for xi in roots}}
    kind = "RankDeficiency" if rank < r else "Unrefuted"
    return Certificate(kind, "sound", subject, witnesses, gens, rank)


# ---------------------------------------------------------------------------
# dimension patterns


@dataclass(frozen=True)
class DimPattern:
    """Torus rank 3, a nil-part dimension, and seven root-space dimensions."""
    total: int
    nil_dim: int
    dims: Tuple[int, ...]

    def __post_init__(self):
        if len(self.dims) != 7 or any(d < 1 for d in self.dims):
            raise InvalidInput("need seven root dimensions, all at least 1")
        if self.nil_dim < 0:
            raise InvalidInput("nil dimension cannot be negative")
        if self.total != TORUS_RANK + self.nil_dim + sum(self.dims):
            raise InvalidInput("total dimension does not match its parts")

    @property
    def multiset(self) -> Tuple[int, Tuple[int, ...]]:
        return (self.nil_dim, tuple(sorted(self.dims, reverse=True)))

    def to_string(self) -> str:
        dims = ",".join(str(d) for d in self.dims)
        return f"({self.total}:{TORUS_RANK},{self.nil_dim},{dims})"


def _partitions_exact(total: int, parts: int, maxpart: int):
    """Descending partitions of total into exactly `parts` parts >= 1."""
    if parts == 1:
        if 1 <= total <= maxpart:
            yield (total,)
        return
    top = min(maxpart, total - (parts - 1))
    for first in range(top, 0, -1):
        for rest in _partitions_exact(total - first, parts - 1, first):
            yield (first,) + rest


def enumerate_patterns(total: int) -> List[DimPattern]:
    """One representative per (nil dim, root-dim multiset) class.

    Dimensions are placed in descending order on the fixed root order, which
    is always the canonical point of its GL3(F2) orbit.  The four kill rules
    depend only on the class (checked exhaustively in the test suite), so one
    representative decides every labeled assignment in its class.
    """
    out = []
    for nil in range(0, max(0, total - TORUS_RANK - 6)):
        rem = total - TORUS_RANK - nil
        for part in _partitions_exact(rem, 7, rem):
            out.append(DimPattern(total, nil, part))
    return out


def enumerate_labeled_patterns(total: int):
    """Every labeled assignment of root dimensions; grows fast, test use only."""
    for nil in range(0, max(0, total - TORUS_RANK - 6)):
        rem = total - TORUS_RANK - nil
        for combo in _compositions_exact(rem, 7):
            yield DimPattern(total, nil, combo)


def _compositions_exact(total: int, parts: int):
    if parts == 1:
        if total >= 1:
            yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in _compositions_exact(total - first, parts - 1):
            yield (first,) + rest


@lru_cache(maxsize=None)
def gl3_matrices() -> Tuple[Tuple[Root, ...], ...]:
    """All 168 invertible 3x3 matrices over F2, as row tuples."""
    return tuple(tuple(tuple((row >> c) & 1 for c in range(3)) for row in rows)
                 for rows, _inv in gl_matrices(3))


def apply_root(m: Tuple[Root, ...], root: Sequence[int]) -> Root:
    return tuple(dot2(row, root) for row in m)


def act_on_dims(m: Tuple[Root, ...], dims: Sequence[int]) -> Tuple[int, ...]:
    out = [0] * 7
    for i, root in enumerate(ROOT_ORDER):
        out[ROOT_INDEX[apply_root(m, root)]] = dims[i]
    return tuple(out)


def gl3_canonicalize_dims(dims: Sequence[int]) -> Tuple[int, ...]:
    """Lexicographically greatest relabeling over the GL3(F2) orbit."""
    dims = tuple(dims)
    return max(act_on_dims(m, dims) for m in gl3_matrices())


def enumerate_gl_orbit_patterns(total: int) -> List[DimPattern]:
    """Finer enumeration: one representative per true GL3(F2) orbit, its
    greatest labelling, in the order of the first labelled pattern of each.
    That pattern marks its whole orbit seen, so each orbit is built once."""
    seen = set()
    out = []
    for p in enumerate_labeled_patterns(total):
        if (p.nil_dim, p.dims) not in seen:
            orbit = {act_on_dims(m, p.dims) for m in gl3_matrices()}
            seen.update((p.nil_dim, dims) for dims in orbit)
            out.append(DimPattern(total, p.nil_dim, max(orbit)))
    return out


# ---------------------------------------------------------------------------
# kill rules


def _kill_unchecked(p: DimPattern, mode: str) -> Certificate:
    if mode not in ("paper", "strict"):
        raise InvalidInput("rule mode must be 'paper' or 'strict'")
    subject = {"type": "dim_pattern", "total": p.total, "nil_dim": p.nil_dim,
               "dims": list(p.dims), "mode": mode}
    if all(d == 1 for d in p.dims):
        return Certificate("IdealRule", "sound", subject,
                           {"all_root_dims_one": True}, [])
    capacity = sum(d * (d - 1) // 2 for d in p.dims)
    required = TORUS_RANK + p.nil_dim
    if capacity < required:
        return Certificate("CountRule", "sound", subject,
                           {"bracket_capacity": capacity, "required": required}, [])
    heavy = [ROOT_ORDER[i] for i, d in enumerate(p.dims) if d >= 2]
    kernels = {root_key(xi): Subspace(GF2, 3, [xi]).null_basis() for xi in heavy}
    gens = sorted({v for rows in kernels.values() for v in rows})
    rank = Subspace(GF2, 3, gens).dim
    if rank < TORUS_RANK:
        return Certificate("RankDeficiency", "sound", subject,
                           {"heavy_roots": [root_key(x) for x in heavy],
                            "kernels": {k: [list(v) for v in rows]
                                        for k, rows in kernels.items()}},
                           gens, rank)
    if mode == "paper":
        for i, xi in enumerate(ROOT_ORDER):
            for code in range(1, 8):
                t = ((code >> 2) & 1, (code >> 1) & 1, code & 1)
                if dot2(xi, t):
                    continue
                for j, eta in enumerate(ROOT_ORDER):
                    if dot2(eta, t) != 1:
                        continue
                    target = tuple(a ^ b for a, b in zip(eta, xi))
                    if not any(target):
                        continue
                    if p.dims[j] != p.dims[ROOT_INDEX[target]]:
                        return Certificate(
                            "IsoRule", "paper_style", subject,
                            {"root": root_key(xi), "toral": list(t),
                             "paired_root": root_key(eta),
                             "target_root": root_key(target),
                             "dims": [p.dims[j], p.dims[ROOT_INDEX[target]]]},
                            [])
    return Certificate("Unrefuted", "sound", subject, {}, [])


def kill_pattern(p: DimPattern, mode: str = "paper") -> Certificate:
    """Ordered application of the kill rules to a canonical pattern."""
    if p.dims != gl3_canonicalize_dims(p.dims):
        raise NotCanonical(f"{p.to_string()} is not canonical for its orbit")
    return _kill_unchecked(p, mode)


def check_certificate(cert) -> bool:
    """Recompute a certificate from its subject and compare exactly."""
    doc = cert.to_json() if isinstance(cert, Certificate) else cert
    if not isinstance(doc, dict):
        return False
    subject = doc.get("subject")
    if not isinstance(subject, dict):
        return False
    try:
        if subject.get("type") == "root_system":
            fresh = refute_root_system([tuple(r) for r in subject["roots"]])
        elif subject.get("type") == "dim_pattern":
            p = DimPattern(subject["total"], subject["nil_dim"],
                           tuple(subject["dims"]))
            fresh = _kill_unchecked(p, subject["mode"])
        else:
            return False
    except (InvalidInput, KeyError, TypeError):
        return False
    return fresh.to_json() == doc


# ---------------------------------------------------------------------------
# published-analysis replay


def compare_published_spans() -> List[dict]:
    """Computed admissible spans against the bundled claimed spans."""
    out = []
    systems = enumerate_root_systems()
    for idx, claimed in sorted(PUBLISHED_ADMISSIBLE_SPANS.items()):
        roots = systems[idx]
        for xi in roots:
            computed = admissible_toral_space(roots, xi)
            pub_vecs = claimed.get(xi, ())
            published = Subspace(GF2, 3, pub_vecs)
            out.append({
                "case_index": idx,
                "root": root_key(xi),
                "computed": [list(v) for v in computed.rows],
                "published": [list(v) for v in pub_vecs],
                "match": computed == published,
            })
    return out


def verify_root_systems() -> dict:
    """Replay the per-system refutations and the span comparison."""
    cases = []
    ok = True
    for idx, system in enumerate(enumerate_root_systems()):
        cert = refute_root_system(system)
        expected = "Unrefuted" if idx == 0 else "RankDeficiency"
        recheck = check_certificate(cert)
        as_expected = cert.kind == expected
        ok = ok and recheck and as_expected
        cases.append({
            "case_index": idx,
            "roots": [root_key(r) for r in system],
            "certificate": cert.to_json(),
            "recheck_passed": recheck,
            "expected_kind": expected,
            "as_expected": as_expected,
        })
    comparison = compare_published_spans()
    divergent = [{"case_index": c["case_index"], "root": c["root"]}
                 for c in comparison if not c["match"]]
    return {
        "section": "4",
        "cases": cases,
        "span_comparison": comparison,
        "span_divergences": divergent,
        "passed": ok,
    }


def verify_patterns(dims: Tuple[int, int] = (10, 16), mode: str = "paper") -> dict:
    """Replay the pattern kill analysis over an ambient dimension range.

    Each pattern is checked for canonicality once per run, by
    `kill_pattern(p, mode)`. In paper mode the strict certificate, which
    only decides `iso_rule_dependent`, reuses that check through
    `_kill_unchecked`."""
    if mode not in ("paper", "strict"):
        raise InvalidInput("rule mode must be 'paper' or 'strict'")
    lo, hi = dims
    if lo > hi:
        raise InvalidInput("empty dimension range")
    per_dim = []
    all_ok = True
    total_patterns = 0
    total_unrefuted = 0
    for total in range(lo, hi + 1):
        pats = enumerate_patterns(total)
        kinds: Dict[str, int] = {}
        unrefuted = []
        dependent = []
        entries = []
        for p in pats:
            cert = kill_pattern(p, mode)
            strict_cert = (cert if mode == "strict"
                           else _kill_unchecked(p, "strict"))
            kinds[cert.kind] = kinds.get(cert.kind, 0) + 1
            if cert.kind == "Unrefuted":
                unrefuted.append(p.to_string())
            if strict_cert.kind == "Unrefuted":
                dependent.append(p.to_string())
            if not check_certificate(cert):
                all_ok = False
            entries.append({"pattern": p.to_string(),
                            "certificate": cert.to_json()})
        total_patterns += len(pats)
        total_unrefuted += len(unrefuted)
        per_dim.append({
            "total_dim": total,
            "pattern_count": len(pats),
            "kinds": kinds,
            "unrefuted": unrefuted,
            "iso_rule_dependent": dependent,
            "patterns": entries,
        })
    passed = all_ok and total_unrefuted == 0
    return {
        "section": "5",
        "mode": mode,
        "dims": [lo, hi],
        "per_dim": per_dim,
        "total_patterns": total_patterns,
        "total_unrefuted": total_unrefuted,
        "passed": passed,
    }


def verify_paper(section: str = "all", dims: Tuple[int, int] = (10, 16),
                 mode: str = "paper") -> dict:
    """Replay the published analysis: root systems, patterns, or both."""
    report: Dict[str, object] = {"caveat": FIELD_CAVEAT}
    passed = True
    if section not in ("4", "5", "all"):
        raise InvalidInput("section must be '4', '5', or 'all'")
    if section in ("4", "all"):
        part = verify_root_systems()
        report["root_systems"] = part
        passed = passed and part["passed"]
    if section in ("5", "all"):
        part = verify_patterns(dims, mode)
        report["patterns"] = part
        passed = passed and part["passed"]
    report["passed"] = passed
    return report


def cross_check_paper_lists() -> dict:
    """Compare the bundled pattern lists against fresh enumeration.

    Flags malformed items (wrong arity or inconsistent totals), repeated
    classes, classes the enumeration produces that the lists lack, and any
    listed class the enumeration cannot reproduce.
    """
    per_dim = []
    clean = True
    for total in sorted(PUBLISHED_PATTERN_LISTS):
        raws = PUBLISHED_PATTERN_LISTS[total]
        enumerated = {p.multiset: p for p in enumerate_patterns(total)}
        seen: Dict[Tuple[int, Tuple[int, ...]], List[int]] = {}
        malformed = []
        unknown = []
        for pos, raw in enumerate(raws):
            well_formed = (len(raw) == 10 and raw[0] == total
                           and raw[1] == TORUS_RANK and raw[2] >= 0
                           and all(d >= 1 for d in raw[3:])
                           and total == TORUS_RANK + raw[2] + sum(raw[3:]))
            if not well_formed:
                malformed.append({"position": pos, "item": raw_pattern_string(raw)})
                continue
            key = (raw[2], tuple(sorted(raw[3:], reverse=True)))
            if key not in enumerated:
                unknown.append({"position": pos, "item": raw_pattern_string(raw)})
                continue
            seen.setdefault(key, []).append(pos)
        duplicates = [{"item": enumerated[k].to_string(), "positions": v}
                      for k, v in sorted(seen.items()) if len(v) > 1]
        missing = [enumerated[k].to_string()
                   for k in sorted(enumerated) if k not in seen]
        entry = {
            "total_dim": total,
            "listed_items": len(raws),
            "enumerated_classes": len(enumerated),
            "malformed": malformed,
            "duplicates": duplicates,
            "missing_from_list": missing,
            "not_reproducible": unknown,
        }
        if malformed or duplicates or missing or unknown:
            clean = False
        per_dim.append(entry)
    return {"per_dim": per_dim, "lists_clean": clean, "caveat": FIELD_CAVEAT}
