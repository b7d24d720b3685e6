"""End-to-end tests for the command line interface.

Every test drives lie2.cli.main(argv) in-process and checks the exit code,
the human-readable text, and (where --out is given) the JSON report.  The
exit-code contract under test: 0 check passed, 1 check failed, 2 invalid
input or unwritable standard output, 3 budget exhausted.
"""

from __future__ import annotations

import io
import json
import os
import pathlib
import subprocess
import sys
import time

import pytest

from lie2.cli import main
from lie2.errors import Lie2Error
from lie2.field import GF, GF2
from lie2.liealg import LieAlgebra, catalog, from_json, is_simple, to_json
from lie2.toruscartan import FIELD_CAVEAT
from test_reports_frozen import lifted_doc


def run(capsys, *argv):
    code = main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def write_fixture(tmp_path, name):
    entry = catalog(name)
    path = tmp_path / (name + ".json")
    doc = to_json(entry.algebra, entry.two_map)
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    return str(path)


def assert_no_floats(node, where="$"):
    assert not isinstance(node, float), f"float at {where}: {node!r}"
    if isinstance(node, dict):
        for key, val in node.items():
            assert_no_floats(val, f"{where}.{key}")
    elif isinstance(node, list):
        for idx, val in enumerate(node):
            assert_no_floats(val, f"{where}[{idx}]")


# ---------------------------------------------------------------------------
# validate


def test_validate_ok(tmp_path, capsys):
    path = write_fixture(tmp_path, "gl3")
    code, out, _ = run(capsys, "validate", path)
    assert code == 0
    assert "algebra gl3: dim 9 over GF(2^1)" in out
    assert "jacobi on 84 basis triples: ok" in out
    assert "randomized identity checks:" in out
    assert "caveat: " + FIELD_CAVEAT in out


def test_validate_restricted_with_file_two_map(tmp_path, capsys):
    path = write_fixture(tmp_path, "gl3")
    code, out, _ = run(capsys, "validate", path, "--restricted")
    assert code == 0
    assert "restricted check (file two-map): ok" in out


def test_validate_not_restrictable_exits_one(tmp_path, capsys):
    path = write_fixture(tmp_path, "o3")
    code, out, _ = run(capsys, "validate", path, "--restricted")
    assert code == 1
    assert ("restricted check: FAILED, o3 is not restrictable "
            "(no two-map exists)") in out


def test_validate_synthesized_two_map_from_stdin(monkeypatch, capsys):
    # sl3 emitted without its two-map: synthesis must find the unique one
    entry = catalog("sl3")
    doc = to_json(entry.algebra, None)
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(doc)))
    code, out, _ = run(capsys, "validate", "-", "--restricted")
    assert code == 0
    assert "restricted check (synthesized two-map): ok" in out


def test_validate_broken_jacobi_exits_one(tmp_path, capsys):
    alg = LieAlgebra(GF2, 3, {(0, 1): (0, 0, 1), (0, 2): (1, 0, 0)})
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(to_json(alg)), encoding="utf-8")
    code, out, _ = run(capsys, "validate", str(path))
    assert code == 1
    assert "FAILED" in out


def test_validate_spot_check_failure_exits_one(tmp_path, monkeypatch, capsys):
    """A bracket that is alternating and passes Jacobi (every value brackets
    to zero) but is cubic in x fails the bilinearity spot check: exit 1 with
    one line, as the 2-map spot checks do."""
    def cubic(self, px, py):
        x0, x1, x2, y0, y1 = px & 1, px >> 1 & 1, px >> 2 & 1, py & 1, py >> 1 & 1
        return ((x0 & y1) ^ (x1 & y0)) & x2 and 0b100

    monkeypatch.setattr(LieAlgebra, "packed_bracket", cubic)
    path = write_fixture(tmp_path, "abelian(3)")
    code, _, err = run(capsys, "validate", path)
    assert code == 1
    assert err.splitlines() == ["check failed: bracket is not bilinear"]
    assert "Traceback" not in err


def test_validate_malformed_stdin_exits_two(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.StringIO("this is not json"))
    code, _, err = run(capsys, "validate", "-")
    assert code == 2
    assert "invalid input" in err


def test_validate_wrong_schema_exits_two(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.StringIO('{"dim": 3}'))
    code, _, err = run(capsys, "validate", "-")
    assert code == 2
    assert "invalid input" in err


def test_validate_missing_file_exits_two(tmp_path, capsys):
    code, _, err = run(capsys, "validate", str(tmp_path / "absent.json"))
    assert code == 2
    assert "cannot read" in err


def assert_one_line_exit_two(code, err):
    assert code == 2
    assert err.startswith("invalid input: ") and err.count("\n") == 1
    assert "Traceback" not in err


UNREADABLE = {
    "deeply_nested": b"[" * 200000 + b"]" * 200000,
    "not_utf8": b"\xff\xfe{\"dim\": 2}",
}


REPEATED = {
    "bracket_pair": [[0, 1, [[2, 1]]], [0, 1, [[2, 0]]]],
    "coordinate": [[0, 1, [[2, 1]]], [0, 2, [[0, 1], [0, 0]]]],
}


@pytest.mark.parametrize("case", sorted(REPEATED))
def test_validate_repeated_entry_exits_two(tmp_path, capsys, case):
    """A document that gives a bracket pair or a coordinate twice is
    malformed: exit 2 with one line, not a verdict on its last entries."""
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"field": {"degree": 1}, "dim": 3,
                               "bracket": REPEATED[case]}), encoding="utf-8")
    code, out, err = run(capsys, "validate", str(bad))
    assert_one_line_exit_two(code, err)
    assert "twice" in err and out == ""


@pytest.mark.parametrize("case", sorted(UNREADABLE))
@pytest.mark.parametrize("command", ["validate", "decompose", "toral-rank",
                                     "decompose --torus"])
def test_unreadable_input_exits_two(tmp_path, capsys, case, command):
    bad = tmp_path / "bad.json"
    bad.write_bytes(UNREADABLE[case])
    if command == "decompose --torus":
        argv = ["decompose", write_fixture(tmp_path, "w11_p2"), "--torus", str(bad)]
    else:
        argv = [command, str(bad)]
    code, _, err = run(capsys, *argv)
    assert_one_line_exit_two(code, err)


@pytest.mark.parametrize("argv", [
    ["validate", "{fixture}", "--out", "{dir}"],
    ["decompose", "{fixture}", "--out", "{dir}"],
    ["toral-rank", "{fixture}", "--out", "{dir}"],
    ["census", "--dim", "2", "--out", "{dir}"],
    ["catalog", "emit", "o3", "--out", "{dir}"],
    ["catalog", "emit", "o3", "--out", "{dir}/missing/x.json"],
    ["census", "--dim", "3", "--dump-survivors", "{fixture}"],
], ids=["validate", "decompose", "toral-rank", "census", "catalog-emit",
        "catalog-emit-missing-dir", "dump-survivors-onto-file"])
def test_unwritable_output_exits_two(tmp_path, capsys, argv):
    fixture = write_fixture(tmp_path, "w11_p2")
    argv = [a.format(fixture=fixture, dir=tmp_path) for a in argv]
    code, _, err = run(capsys, *argv)
    assert_one_line_exit_two(code, err)
    assert "cannot write" in err


def test_validate_report_file(tmp_path, capsys):
    path = write_fixture(tmp_path, "gl2")
    out_path = tmp_path / "report.json"
    code, _, _ = run(capsys, "validate", path, "--restricted",
                     "--out", str(out_path))
    assert code == 0
    doc = json.loads(out_path.read_text(encoding="utf-8"))
    assert doc["lie_ok"] is True
    assert doc["restricted"] == {"ok": True, "source": "file",
                                 "failing_indices": []}
    assert doc["caveat"] == FIELD_CAVEAT
    assert_no_floats(doc)


# ---------------------------------------------------------------------------
# decompose


def test_decompose_sl3(tmp_path, capsys):
    path = write_fixture(tmp_path, "sl3")
    out_path = tmp_path / "dec.json"
    code, out, _ = run(capsys, "decompose", path, "--out", str(out_path))
    assert code == 0
    assert "torus: rank 2 (exhaustive)" in out
    assert "cartan subalgebra: dim 2 (torus 2 + nil 0)" in out
    root_lines = [l for l in out.splitlines() if l.startswith("root ")]
    assert len(root_lines) == 3
    assert all(l.endswith("dim 2") for l in root_lines)
    audit_lines = [l for l in out.splitlines() if l.startswith("audit ")]
    assert len(audit_lines) == 4
    assert all(": ok" in l for l in audit_lines)
    assert "caveat:" in out
    doc = json.loads(out_path.read_text(encoding="utf-8"))
    assert doc["dim_pattern"]["toral_rank"] == 2
    assert doc["dim_pattern"]["nil_dim"] == 0
    assert doc["dim_pattern"]["root_dims"] == {"01": 2, "10": 2, "11": 2}
    assert all(c["passed"] for c in doc["audits"].values())
    assert_no_floats(doc)


def test_decompose_with_torus_file(tmp_path, capsys):
    path = write_fixture(tmp_path, "sl3")
    rank_path = tmp_path / "rank.json"
    code, _, _ = run(capsys, "toral-rank", path, "--out", str(rank_path))
    assert code == 0
    basis = json.loads(rank_path.read_text(encoding="utf-8"))["toral_basis"]
    torus_path = tmp_path / "torus.json"
    torus_path.write_text(json.dumps({"torus": basis}), encoding="utf-8")
    code, out, _ = run(capsys, "decompose", path, "--torus", str(torus_path))
    assert code == 0
    assert "torus: rank 2 (from file)" in out


def test_decompose_rejects_non_torus_file(tmp_path, capsys):
    path = write_fixture(tmp_path, "gl3")
    entry = catalog("gl3")
    vec = [0] * 9
    vec[entry.algebra.labels.index("E12")] = 1  # nilpotent, so never toral
    torus_path = tmp_path / "torus.json"
    torus_path.write_text(json.dumps([vec]), encoding="utf-8")
    code, _, err = run(capsys, "decompose", path, "--torus", str(torus_path))
    assert code == 2
    assert "not a torus" in err


def test_decompose_rejects_malformed_torus_file(tmp_path, capsys):
    path = write_fixture(tmp_path, "sl3")
    torus_path = tmp_path / "torus.json"
    torus_path.write_text("5", encoding="utf-8")
    code, _, err = run(capsys, "decompose", path, "--torus", str(torus_path))
    assert code == 2
    assert "must hold a list" in err


@pytest.mark.parametrize("torus", [[5], [["a"]], [[0, 1.5]], [[0, True]],
                                   [[0, 1, 0]], [[0, 2]], [[0, -1]], [None],
                                   {"torus": [[0, "1"]]}])
def test_decompose_rejects_bad_torus_vectors(tmp_path, capsys, torus):
    # w11_p2 has dim 2 and (0, 1) = xd spans a torus
    path = write_fixture(tmp_path, "w11_p2")
    torus_path = tmp_path / "torus.json"
    torus_path.write_text(json.dumps(torus), encoding="utf-8")
    code, _, err = run(capsys, "decompose", path, "--torus", str(torus_path))
    assert code == 2
    assert err.startswith("invalid input: torus vector ") and err.count("\n") == 1


def test_decompose_not_restrictable_exits_one(tmp_path, capsys):
    path = write_fixture(tmp_path, "o3")
    code, out, _ = run(capsys, "decompose", path)
    assert code == 1
    assert "decompose: FAILED, o3 is not restrictable" in out


@pytest.mark.parametrize("key", ["labels", "bracket", "two_map"])
@pytest.mark.parametrize("command", ["validate", "decompose", "toral-rank"])
def test_non_list_fields_exit_two(tmp_path, capsys, key, command):
    doc = to_json(catalog("w11_p2").algebra, catalog("w11_p2").two_map)
    doc[key] = 5
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, _, err = run(capsys, command, str(path))
    assert code == 2
    assert err.startswith("invalid input: ") and err.count("\n") == 1


def w11_with(**changes):
    doc = to_json(catalog("w11_p2").algebra, catalog("w11_p2").two_map)
    doc.update(changes)
    return doc


BOOL_DOCS = {
    "dim": {"field": {"degree": 1}, "dim": True, "bracket": [],
            "two_map": [[0, [[0, True]]]]},
    "degree": w11_with(field={"degree": True}),
    "bracket_index": w11_with(bracket=[[False, 1, [[0, 1]]]]),
    "coordinate_index": w11_with(bracket=[[0, 1, [[False, 1]]]]),
    "coefficient": w11_with(bracket=[[0, 1, [[0, True]]]]),
    "two_map_index": w11_with(two_map=[[True, [[1, 1]]]]),
    "two_map_coefficient": w11_with(two_map=[[1, [[1, True]]]]),
}


@pytest.mark.parametrize("case", sorted(BOOL_DOCS))
@pytest.mark.parametrize("command", ["validate", "decompose", "toral-rank"])
def test_json_booleans_are_not_integers(tmp_path, capsys, case, command):
    path = tmp_path / "bool.json"
    path.write_text(json.dumps(BOOL_DOCS[case]), encoding="utf-8")
    code, out, err = run(capsys, command, str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("invalid input: ") and err.count("\n") == 1


HUGE_DIM_DOCS = {
    "dim_1e30": {"field": {"degree": 1}, "dim": 10 ** 30, "two_map": []},
    "dim_300": {"field": {"degree": 1}, "dim": 300, "bracket": []},
    "dim_129": {"field": {"degree": 1}, "dim": 129, "bracket": [[0, 1, [[2, 1]]]]},
}


@pytest.mark.parametrize("case", sorted(HUGE_DIM_DOCS))
@pytest.mark.parametrize("command", ["validate", "decompose", "toral-rank"])
def test_declared_dimension_is_bounded(tmp_path, capsys, case, command):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(HUGE_DIM_DOCS[case]), encoding="utf-8")
    start = time.perf_counter()
    code, out, err = run(capsys, command, str(path))
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert out == ""
    assert err.startswith("invalid input: algebra dimension ")
    assert err.count("\n") == 1


def test_validate_dim128_abelian_is_fast(tmp_path, capsys):
    """341,376 basis triples of an empty table, plus the 200 spot checks."""
    path = tmp_path / "abelian128.json"
    path.write_text(json.dumps({"field": {"degree": 1}, "dim": 128, "bracket": []}),
                    encoding="utf-8")
    start = time.perf_counter()
    code, out, err = run(capsys, "validate", str(path))
    assert time.perf_counter() - start < 5.0
    assert code == 0 and err == ""
    assert "jacobi on 341376 basis triples: ok" in out


def test_validate_dim128_abelian_over_gf16_is_fast(tmp_path, capsys):
    """The 512 packed columns of an empty GF(16) table are all zero, so the
    nibble tables store nothing and the spot-check brackets cost nothing."""
    path = tmp_path / "abelian128.json"
    path.write_text(json.dumps({"field": {"degree": 4}, "dim": 128, "bracket": []}),
                    encoding="utf-8")
    start = time.perf_counter()
    code, out, err = run(capsys, "validate", str(path))
    assert time.perf_counter() - start < 5.0
    assert code == 0 and err == ""
    assert "jacobi on 341376 basis triples: ok" in out
    alg, _ = from_json(path.read_text(encoding="utf-8"))
    assert not any(alg.ad_nibbles)


@pytest.mark.parametrize("command", ["decompose", "toral-rank"])
def test_gl2_over_gf16_toral_commands_are_fast(tmp_path, capsys, command):
    """The 2^16-vector fixpoint sweep of gl2 lifted to GF(16), once refused
    for its field degree, finds the diagonal torus of rank 2."""
    path = tmp_path / "gl2_gf16.json"
    path.write_text(json.dumps(lifted_doc("gl2", 4, 2)), encoding="utf-8")
    start = time.perf_counter()
    code, out, err = run(capsys, command, str(path))
    assert time.perf_counter() - start < 1.0
    assert code == 0 and err == ""
    assert ("torus: rank 2 (exhaustive)" if command == "decompose"
            else "toral rank lower bound: 2 (exhaustive, 273 fixpoints seen)") in out


@pytest.mark.parametrize("command", ["decompose", "toral-rank"])
def test_sweep_budget_is_checked_before_validation(tmp_path, capsys, command):
    """strictly_upper(8) lifted to GF(2^16) needs a 2^448-vector sweep; the
    budget line comes before the seconds of validation it would follow.  An
    algebra that is over budget and breaks Jacobi exits 3 as well."""
    path = tmp_path / "su8_gf65536.json"
    path.write_text(json.dumps(lifted_doc("strictly_upper(8)", 16, 1)), encoding="utf-8")
    start = time.perf_counter()
    code, out, err = run(capsys, command, str(path))
    assert time.perf_counter() - start < 2.0
    assert code == 3 and out == ""
    assert err == f"budget exceeded: sweep of {2 ** 448} vectors exceeds budget {1 << 20}\n"

    broken = LieAlgebra(GF(8), 3, {(0, 1): (0, 0, 1), (1, 2): (0, 1, 0)}, name="broken")
    path.write_text(json.dumps(to_json(broken)), encoding="utf-8")
    code, out, err = run(capsys, command, str(path))
    assert (code, out) == (3, "")
    assert err == f"budget exceeded: sweep of {1 << 24} vectors exceeds budget {1 << 20}\n"


@pytest.mark.parametrize("command", ["decompose", "toral-rank"])
def test_failed_preconditions_exit_one(tmp_path, capsys, command):
    # [e0,e1]=e2, [e1,e2]=e1 breaks Jacobi; w11_p2 with a zero 2-map breaks
    # ad(x^[2]) = ad(x)^2 at xd
    broken = LieAlgebra(GF2, 3, {(0, 1): (0, 0, 1), (1, 2): (0, 1, 0)}, name="broken")
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(to_json(broken, [(0, 0, 0)] * 3)), encoding="utf-8")
    code, out, _ = run(capsys, "validate", str(path))
    assert code == 1
    code, out, _ = run(capsys, command, str(path), "--out", str(tmp_path / "r.json"))
    assert code == 1
    assert out == (f"{command}: FAILED, broken violates the Jacobi identity "
                   "on basis triple (0,1,2)\n")
    assert not (tmp_path / "r.json").exists()

    path = tmp_path / "zero_map.json"
    path.write_text(json.dumps(to_json(catalog("w11_p2").algebra, [(0, 0)] * 2)),
                    encoding="utf-8")
    code, out, _ = run(capsys, command, str(path))
    assert code == 1
    assert out == (f"{command}: FAILED, file two-map of w11_p2 is not a 2-map "
                   "at basis indices [1]\n")


# ---------------------------------------------------------------------------
# toral-rank


def test_toral_rank_sl3(tmp_path, capsys):
    path = write_fixture(tmp_path, "sl3")
    out_path = tmp_path / "rank.json"
    code, out, _ = run(capsys, "toral-rank", path, "--out", str(out_path))
    assert code == 0
    assert "toral rank lower bound: 2 (exhaustive" in out
    basis_lines = [l for l in out.splitlines()
                   if l.startswith("toral basis element:")]
    assert len(basis_lines) == 2
    assert "caveat:" in out
    doc = json.loads(out_path.read_text(encoding="utf-8"))
    assert doc["rank_lb"] == 2
    assert doc["exhaustive"] is True
    assert len(doc["toral_basis"]) == 2
    assert_no_floats(doc)


def test_toral_rank_budget_exits_three(tmp_path, capsys):
    path = write_fixture(tmp_path, "sl3")
    code, _, err = run(capsys, "toral-rank", path, "--budget", "8")
    assert code == 3
    assert "budget exceeded" in err


def test_toral_rank_small_budget_stays_exhaustive(tmp_path, capsys):
    """--budget 512 admits gl3's 2^9-vector sweep and bounds the torus
    search to 512 nodes; it needs 45 coset-minimal ones, so it stays
    exhaustive (walking every increasing basis took 525 and fell back to
    greedy)."""
    path = write_fixture(tmp_path, "gl3")
    code, out, _ = run(capsys, "toral-rank", path, "--budget", "512")
    assert code == 0
    assert "toral rank lower bound: 3 (exhaustive, 57 fixpoints seen)" in out


def test_psl4_is_simple_of_toral_rank_two(tmp_path, capsys):
    """psl4 = sl4 / F2 I (dim 14) is simple and restricted, its toral rank
    over F2 is 2 among 336 nonzero fixpoints, and its Cartan subalgebra is
    the torus, with three root spaces of dimension 4."""
    path = write_fixture(tmp_path, "psl4")
    out_path = tmp_path / "report.json"
    assert is_simple(catalog("psl4").algebra).simple
    code, out, _ = run(capsys, "validate", path, "--restricted", "--out", str(out_path))
    assert code == 0 and "restricted check (file two-map): ok" in out
    doc = json.loads(out_path.read_text(encoding="utf-8"))
    assert doc["lie_ok"] and doc["restricted"]["ok"]
    code, out, _ = run(capsys, "toral-rank", path, "--out", str(out_path))
    assert code == 0
    assert "toral rank lower bound: 2 (exhaustive, 336 fixpoints seen)" in out
    doc = json.loads(out_path.read_text(encoding="utf-8"))
    assert (doc["rank_lb"], doc["exhaustive"], doc["fixpoints_seen"]) == (2, True, 336)
    code, out, _ = run(capsys, "decompose", path, "--out", str(out_path))
    assert code == 0
    assert "cartan subalgebra: dim 2 (torus 2 + nil 0)" in out
    doc = json.loads(out_path.read_text(encoding="utf-8"))
    assert doc["cartan_dim"] == 2
    assert doc["dim_pattern"] == {"toral_rank": 2, "nil_dim": 0,
                                  "root_dims": {"01": 4, "10": 4, "11": 4}}
    assert all(c["passed"] for c in doc["audits"].values())


# ---------------------------------------------------------------------------
# paper verify / cross-check


def test_paper_verify_section_4(capsys):
    code, out, _ = run(capsys, "paper", "verify", "--section", "4")
    assert code == 0
    case_lines = [l for l in out.splitlines() if l.startswith("case ")]
    assert len(case_lines) == 16
    assert all("(ok)" in l for l in case_lines)
    assert ("span comparison: 73 entries, "
            "5 divergences from the published tables") in out
    for case_index, root in [(6, "100"), (7, "010"), (7, "110"),
                             (7, "011"), (11, "011")]:
        assert f"divergent span: case {case_index} root {root}" in out
    assert "verdict: pass" in out


def test_paper_verify_section_5_paper_mode(capsys):
    code, out, _ = run(capsys, "paper", "verify", "--section", "5")
    assert code == 0
    assert "dim 16: 30 patterns" in out
    assert "patterns total 75, unrefuted 0 (mode paper)" in out
    assert "verdict: pass" in out


def test_paper_verify_strict_mode_exits_one(capsys):
    code, out, _ = run(capsys, "paper", "verify", "--section", "5",
                       "--rule-mode", "strict")
    assert code == 1
    assert "unrefuted: (14:3,0,2,2,2,2,1,1,1)" in out
    assert "needs paper-style transport rule:" in out
    assert "patterns total 75, unrefuted 36 (mode strict)" in out
    assert "verdict: FAIL" in out


def test_paper_verify_all_report(tmp_path, capsys):
    out_path = tmp_path / "paper.json"
    code, out, _ = run(capsys, "paper", "verify", "--section", "all",
                       "--out", str(out_path))
    assert code == 0
    assert "verdict: pass" in out
    doc = json.loads(out_path.read_text(encoding="utf-8"))
    assert doc["passed"] is True
    assert "root_systems" in doc and "patterns" in doc
    assert isinstance(doc["caveat"], str) and doc["caveat"]
    assert_no_floats(doc)


def test_paper_verify_dims_subrange(capsys):
    code, out, _ = run(capsys, "paper", "verify", "--section", "5",
                       "--dims", "10..12")
    assert code == 0
    assert "patterns total 7, unrefuted 0 (mode paper)" in out


@pytest.mark.parametrize("dims", ["16..10", "banana", "3..16", "10..70"])
def test_paper_verify_bad_dims_exits_two(capsys, dims):
    code, _, err = run(capsys, "paper", "verify", "--dims", dims)
    assert code == 2
    assert "invalid input" in err


def test_paper_cross_check(tmp_path, capsys):
    out_path = tmp_path / "cross.json"
    code, out, _ = run(capsys, "paper", "cross-check", "--out", str(out_path))
    assert code == 0
    assert "dim 13: listed 7, enumerated 7" in out
    assert "malformed item at position 3: (13:3,1,1,1,1,1,1,1)" in out
    assert "missing from list: (13:3,3,1,1,1,1,1,1,1)" in out
    assert "dim 15: listed 13, enumerated 19" in out
    assert ("duplicated class (15:3,0,2,2,2,2,2,1,1) "
            "at positions [11, 12]") in out
    assert "dim 16: listed 28, enumerated 30" in out
    assert ("duplicated class (16:3,0,4,2,2,2,1,1,1) "
            "at positions [22, 23, 24]") in out
    assert "not reproducible" not in out
    assert "lists clean: False" in out
    doc = json.loads(out_path.read_text(encoding="utf-8"))
    assert doc["lists_clean"] is False
    assert_no_floats(doc)


# ---------------------------------------------------------------------------
# census


def test_census_dim3(monkeypatch, capsys):
    monkeypatch.setenv("LIE2_BACKEND", "numpy")
    code, out, _ = run(capsys, "census", "--dim", "3")
    assert code == 0
    assert "census dim 3 over GF(2^1), exhaustive, backend numpy" in out
    assert "candidates scanned: 512" in out
    assert "jacobi pass: 120" in out
    assert "simple: 28 in 1 iso classes" in out
    assert "restrictable simple: 0" in out
    assert "class 0: size 28, restrictable False" in out


def test_census_dim7_exits_two(capsys):
    code, _, err = run(capsys, "census", "--dim", "7")
    assert code == 2
    assert "invalid input" in err


@pytest.mark.parametrize("seed", ["-1", str(1 << 64)])
def test_census_seed_outside_64_bits_exits_two(capsys, seed):
    code, out, err = run(capsys, "census", "--dim", "5", "--sample", "10", "--seed", seed)
    assert (code, out, err) == (2, "", "invalid input: seed must be between 0 and 2^64 - 1\n")


def test_census_report_file(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("LIE2_BACKEND", "numpy")
    out_path = tmp_path / "census.json"
    code, _, _ = run(capsys, "census", "--dim", "2", "--out", str(out_path))
    assert code == 0
    doc = json.loads(out_path.read_text(encoding="utf-8"))
    assert doc["candidates_scanned"] == 4
    assert doc["jacobi_pass"] == 4
    assert doc["simple_count"] == 0
    assert isinstance(doc["runtime_ms"], int)
    assert_no_floats(doc)


def test_census_dump_survivors(tmp_path, monkeypatch, capsys):
    from lie2.search import algebra_to_table

    monkeypatch.setenv("LIE2_BACKEND", "numpy")
    dump_dir = tmp_path / "survivors"
    code, out, _ = run(capsys, "census", "--dim", "3",
                       "--dump-survivors", str(dump_dir))
    assert code == 0
    assert "wrote 1 class representatives" in out
    rep_text = (dump_dir / "class_0.json").read_text(encoding="utf-8")
    alg, two_map = from_json(rep_text)
    assert two_map is None
    assert algebra_to_table(alg) == 84  # the cross-product algebra
    code, out, _ = run(capsys, "validate", str(dump_dir / "class_0.json"))
    assert code == 0


# ---------------------------------------------------------------------------
# catalog


def test_catalog_list(capsys):
    code, out, _ = run(capsys, "catalog", "list")
    assert code == 0
    assert "o3: dim 3, cross-product algebra" in out
    assert "abelian(n): parametrized family" in out
    assert "strictly_upper(n): parametrized family" in out
    for name in ("heis3", "sl2", "gl2", "sl3", "gl3", "w11_p2"):
        assert f"\n{name}: dim " in "\n" + out
    assert "\npsl4: dim 14, sl4 modulo its centre" in out


def test_catalog_emit_round_trips_byte_identically(tmp_path, capsys):
    out_path = tmp_path / "gl3.json"
    code, _, _ = run(capsys, "catalog", "emit", "gl3", "--out", str(out_path))
    assert code == 0
    text = out_path.read_text(encoding="utf-8")
    alg, two_map = from_json(text)
    assert json.dumps(to_json(alg, two_map), indent=2) + "\n" == text


def test_catalog_emit_stdout(capsys):
    code, out, _ = run(capsys, "catalog", "emit", "sl2")
    assert code == 0
    alg, two_map = from_json(out)
    assert alg.name == "sl2" and alg.dim == 3


def test_catalog_emit_family_member(capsys):
    code, out, _ = run(capsys, "catalog", "emit", "abelian(4)")
    assert code == 0
    alg, _ = from_json(out)
    assert alg.dim == 4
    assert alg.table == {}


def test_catalog_emit_paper_lists(capsys):
    code, out, _ = run(capsys, "catalog", "emit", "paper-lists")
    assert code == 0
    doc = json.loads(out)
    lists = doc["pattern_lists"]
    lengths = {int(k): len(v["raw"]) for k, v in lists.items()}
    assert lengths == {10: 1, 11: 2, 12: 4, 13: 7, 14: 12, 15: 13, 16: 28}
    for total, entry in lists.items():
        assert len(entry["printed"]) == len(entry["raw"])
        for printed in entry["printed"]:
            assert printed.startswith(f"({total}:")
    # the bundled misprint survives emission untouched
    assert lists["13"]["printed"][3] == "(13:3,1,1,1,1,1,1,1)"
    assert_no_floats(doc)


def test_catalog_emit_unknown_exits_two(capsys):
    code, _, err = run(capsys, "catalog", "emit", "nosuch")
    assert code == 2
    assert "unknown catalog name" in err


# ---------------------------------------------------------------------------
# exit codes of the error classes

EXIT_CONTRACT = {
    "BudgetExceeded": (3, "budget exceeded"),
    "InvalidInput": (2, "invalid input"),
    "XiNotInSystem": (2, "invalid input"),
    "NotCanonical": (2, "invalid input"),
    "DimensionTooLarge": (2, "invalid input"),
    "NotTwoMapClosed": (2, "invalid input"),
    "CheckFailed": (1, "check failed"),
    "SplitFailed": (1, "check failed"),
    "NotSimultaneouslyDiagonalizable": (1, "check failed"),
    "InternalInconsistency": (1, "check failed"),
    "Lie2Error": (2, "error"),
}


def error_tree(cls=Lie2Error):
    yield cls
    for sub in cls.__subclasses__():
        yield from error_tree(sub)


def test_exit_contract_names_every_error_class():
    assert sorted(c.__name__ for c in error_tree()) == sorted(EXIT_CONTRACT)


@pytest.mark.parametrize("cls", list(error_tree()), ids=lambda c: c.__name__)
def test_every_error_class_exits_with_its_code_and_one_line(capsys, monkeypatch, cls):
    """Whatever a command raises from the Lie2Error tree, main exits with
    the code of its family and prints one stderr line, "<label>: <message>"."""
    from lie2 import cli

    def fail():
        raise cls("a message")
    monkeypatch.setattr(cli, "catalog_names", fail)
    exit_code, label = EXIT_CONTRACT[cls.__name__]
    assert run(capsys, "catalog", "list") == (exit_code, "", f"{label}: a message\n")


# ---------------------------------------------------------------------------
# one parser per process


def test_main_reuses_one_parser(tmp_path, capsys, monkeypatch):
    """main builds the parser once and reuses it: after an argparse error
    and an invalid-input exit, a repeated command reports the same bytes."""
    from lie2 import cli
    cli._parser.cache_clear()
    built, real = [], cli.build_parser

    def counted():
        built.append(1)
        return real()
    monkeypatch.setattr(cli, "build_parser", counted)
    path = write_fixture(tmp_path, "sl3")
    out = tmp_path / "report.json"
    first = run(capsys, "decompose", path, "--out", str(out))
    report = out.read_bytes()
    parser = cli._parser()
    assert first[0] == 0
    with pytest.raises(SystemExit) as exc:
        main(["census"])
    assert exc.value.code == 2
    assert "--dim" in capsys.readouterr().err
    code, _, err = run(capsys, "census", "--dim", "9")
    assert code == 2 and err.startswith("invalid input")
    out.unlink()
    assert run(capsys, "decompose", path, "--out", str(out)) == first
    assert out.read_bytes() == report
    assert cli._parser() is parser and built == [1]


# ---------------------------------------------------------------------------
# module entry point


def test_module_entry_point_runs(src_env):
    proc = subprocess.run([sys.executable, "-m", "lie2.cli", "catalog", "list"], env=src_env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert "o3: dim 3" in proc.stdout


def test_core_imports_leave_numpy_out(src_env):
    """Only the census needs numpy; the CLI and the case analysis load without it."""
    script = ("import sys, lie2, lie2.cli, lie2.caseanalysis\n"
              "assert 'numpy' not in sys.modules\n")
    proc = subprocess.run([sys.executable, "-c", script], env=src_env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def lone_error_line(stderr: str) -> str:
    lines = stderr.splitlines()
    assert len(lines) == 1 and "Traceback" not in stderr, stderr
    return lines[0]


def stdout_env(src_env, buffered: bool) -> dict:
    """A block-buffered stdout, as in a shell, keeps what a failed write
    left for the flush at exit; an unbuffered one fails in `print`."""
    env = {k: v for k, v in src_env.items() if k != "PYTHONUNBUFFERED"}
    return env if buffered else dict(env, PYTHONUNBUFFERED="1")


@pytest.mark.parametrize("buffered", [True, False])
def test_full_stdout_exits_two_with_one_line(src_env, buffered):
    """A write error on standard output is exit 2 with one stderr line, and
    the interpreter's flush at exit adds nothing.  That holds for `--help`
    too, whose write error argparse would swallow before any command runs;
    to a working stdout `--help` exits 0."""
    for argv in (["catalog", "emit", "gl3"], ["--help"]):
        with open("/dev/full", "w") as full:
            proc = subprocess.run([sys.executable, "-m", "lie2.cli"] + argv,
                                  env=stdout_env(src_env, buffered), stdout=full,
                                  stderr=subprocess.PIPE, text=True, timeout=120)
        assert proc.returncode == 2
        assert lone_error_line(proc.stderr) == \
            "error: cannot write output: [Errno 28] No space left on device"
    proc = subprocess.run([sys.executable, "-m", "lie2.cli", "--help"],
                          env=stdout_env(src_env, buffered), capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0 and proc.stderr == ""
    assert proc.stdout.startswith("usage: lie2")


@pytest.mark.parametrize("buffered", [True, False])
def test_closed_stdout_exits_two_with_one_line(src_env, buffered):
    """`paper verify --dims 10..11 | head -c 10` once ended in a
    BrokenPipeError traceback; here the pipe's read end is closed before
    the command starts, so its first write fails."""
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run([sys.executable, "-m", "lie2.cli", "paper", "verify",
                               "--dims", "10..11"], env=stdout_env(src_env, buffered),
                              stdout=write, stderr=subprocess.PIPE, text=True, timeout=120)
    finally:
        os.close(write)
    assert proc.returncode == 2
    assert lone_error_line(proc.stderr) == "error: cannot write output: [Errno 32] Broken pipe"


def test_small_output_to_full_stdout_fails_at_the_flush(src_env):
    """`catalog list` fits in the stdout buffer, so only the flush in `main`
    meets the full device; without it the interpreter's flush at exit
    would, after `main` returned 0."""
    with open("/dev/full", "w") as full:
        proc = subprocess.run([sys.executable, "-m", "lie2.cli", "catalog", "list"],
                              env=stdout_env(src_env, True), stdout=full,
                              stderr=subprocess.PIPE, text=True, timeout=120)
    assert proc.returncode == 2
    assert lone_error_line(proc.stderr).startswith("error: cannot write output:")


def test_benchmark_selftest_passes():
    """perfbench/selftest.py puts real pipeline, `paper` and census jobs
    through the benchmark's oracle, so a change that breaks a call the
    benchmark makes fails here first."""
    root = pathlib.Path(__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=root,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
