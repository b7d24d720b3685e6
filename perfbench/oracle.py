"""Known answers for every job, and the check that compares a job's answer to them.

Independent sources come first:

- catalog invariants of the algebra pipeline (Lie, simple, restrictable,
  toral rank lower bound, nil dimension, sorted root dimensions, audit).
  They do not depend on the basis, so every seeded basis change must
  reproduce them.  gl_n has toral rank n, sl3 rank 2, a direct sum adds the
  ranks; sl2 in characteristic 2 has no Cartan split; o3 carries no 2-map;
- the number of dimension patterns per ambient dimension (partitions into
  seven positive parts plus the nil part), and no unrefuted pattern in
  dimensions 10..16 in paper mode;
- the exhaustive dimension-4 census: 16,777,216 tables, 34,336 Jacobi, 0 simple.

Everything else is pinned to the --out reports of commit b03c0bd, stored
as SHA-256 digests in golden.json.  Census reports are compared without
their `runtime_ms` and `backend` keys.  A mismatch is reported as a failed
job; the fix is in the program, never in these tables.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Dict, List, Optional

_HERE = os.path.dirname(os.path.abspath(__file__))

_BASE = {"lie": True, "restrictable": True, "restricted_ok": True,
         "round_trip": True, "audit_ok": True}


def _alg(simple: bool, rank: int, nil: int, roots: List[int], **extra) -> dict:
    return {**_BASE, "simple": simple, "rank_lb": rank, "nil_dim": nil,
            "root_dims": roots, **extra}


_NOT_RESTRICTABLE = {"lie": True, "simple": True, "restrictable": False}
_SPLIT_FAILS = {"lie": True, "simple": False, "restrictable": True,
                "restricted_ok": True, "round_trip": True, "rank_lb": 1,
                "error": "SplitFailed"}

PIPELINE = {
    "o3/F2": _NOT_RESTRICTABLE,
    "heis3/F2": _alg(False, 0, 3, []),
    "sl2/F2": _SPLIT_FAILS,
    "gl2/F2": _alg(False, 2, 0, [2]),
    "sl3/F2": _alg(True, 2, 0, [2, 2, 2]),
    "gl3/F2": _alg(False, 3, 0, [2, 2, 2]),
    "w11_p2/F2": _alg(False, 1, 0, [1]),
    "strictly_upper(4)/F2": _alg(False, 0, 6, []),
    "sl3+heis3/F2": _alg(False, 2, 3, [2, 2, 2]),
    "gl2+w11_p2/F2": _alg(False, 3, 0, [1, 2]),
    "gl3+w11_p2/F2": _alg(False, 4, 0, [1, 2, 2, 2]),
    "gl2/GF4": _alg(False, 2, 0, [2]),
    "w11_p2/GF4": _alg(False, 1, 0, [1]),
    "heis3/GF4": _alg(False, 0, 3, []),
    "o3/GF4": _NOT_RESTRICTABLE,
    "strictly_upper(4)/GF4": _alg(False, 0, 6, []),
    "gl3/GF4": {"lie": True, "restrictable": True, "restricted_ok": True},
    "gl3/GF16": {"lie": True, "restrictable": True, "restricted_ok": True},
    "o3/GF16": {"simple": True},
}

# partitions of (dim - 3 - nil) into seven positive parts, summed over nil
PATTERN_COUNTS = {10: 1, 11: 2, 12: 4, 13: 7, 14: 12, 15: 19, 16: 30,
                  17: 45, 18: 66, 19: 94, 20: 132}

CENSUS_D4 = {"candidates_scanned": 1 << 24, "jacobi_pass": 34336,
             "simple_count": 0}

# report keys that legitimately differ between runs of the same census
VOLATILE_KEYS = ("runtime_ms", "backend")


def load_golden(path: Optional[str] = None) -> dict:
    with open(path or os.path.join(_HERE, "golden.json"), encoding="utf-8") as fh:
        return json.load(fh)


def report_digest(raw: bytes, census: bool) -> str:
    """SHA-256 of the report bytes; a census report is canonicalised first."""
    if census:
        doc = json.loads(raw)
        for key in VOLATILE_KEYS:
            doc.pop(key, None)
        raw = json.dumps(doc, sort_keys=True).encode()
    return hashlib.sha256(raw).hexdigest()


class Oracle:
    def __init__(self, golden: dict, pipeline: Optional[Dict[str, dict]] = None):
        self.golden = golden
        self.pipeline = PIPELINE if pipeline is None else pipeline

    def check(self, job, outcome: dict) -> List[str]:
        """Reasons the job's answer is wrong; empty when it matches."""
        if "unexpected" in outcome:
            return [f"raised {outcome['unexpected']}"]
        if job.kind == "cli":
            return self._check_cli(job, outcome)
        want = self.pipeline[job.expect]
        bad = [f"{key}: got {outcome.get(key)!r}, want {value!r}"
               for key, value in want.items() if outcome.get(key) != value]
        if "error" in outcome and "error" not in want:
            bad.append(f"raised {outcome['error']}")
        return bad

    def _check_cli(self, job, outcome: dict) -> List[str]:
        gold = self.golden.get(job.expect)
        if gold is None:
            return [f"no known answer for {job.expect}"]
        bad = []
        if outcome["exit"] != gold["exit"]:
            bad.append(f"exit {outcome['exit']}, want {gold['exit']}")
        raw = outcome.get("bytes")
        if raw is None:
            return bad + ["no report written"]
        try:
            doc = json.loads(raw)
            if report_digest(raw, job.payload[0] == "census") != gold["sha256"]:
                bad.append("report differs from the pinned report")
            bad += self._independent(job, doc)
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            bad.append(f"report is malformed: {exc!r}")
        return bad

    @staticmethod
    def _independent(job, doc: dict) -> List[str]:
        argv = job.payload
        bad = []
        if argv[:2] == ["paper", "verify"] and "--dims" in argv:
            dim = int(argv[argv.index("--dims") + 1].split("..")[0])
            part = doc["patterns"]
            if part["total_patterns"] != PATTERN_COUNTS[dim]:
                bad.append(f"{part['total_patterns']} patterns at dim {dim}, "
                           f"want {PATTERN_COUNTS[dim]}")
            if part["mode"] == "paper" and dim <= 16 and part["total_unrefuted"]:
                bad.append(f"{part['total_unrefuted']} unrefuted at dim {dim}")
        if argv[0] == "census":
            if "--sample" in argv:
                want = int(argv[argv.index("--sample") + 1])
                if doc["candidates_scanned"] != want:
                    bad.append(f"scanned {doc['candidates_scanned']}, want {want}")
            elif argv[argv.index("--dim") + 1] == "4":
                for key, value in CENSUS_D4.items():
                    if doc[key] != value:
                        bad.append(f"{key} {doc[key]}, want {value}")
        return bad
