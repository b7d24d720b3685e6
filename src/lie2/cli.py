"""Command-line front end.

Exit codes: 0 the requested check passed, 1 a check failed (a Lie axiom,
an audit, an unrefuted pattern in strict mode); a raised `Lie2Error` exits
with the code its class carries (see `errors.py`: 1, 2 or 3), and 2 also
when standard output cannot be written (closed or full).  Human-readable
text goes to standard output; the JSON report goes to --out when given.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from functools import lru_cache
from typing import Optional, Tuple

from .casedata import PUBLISHED_PATTERN_LISTS, raw_pattern_string
from .caseanalysis import cross_check_paper_lists, verify_paper
from .errors import InvalidInput, Lie2Error
from .liealg import (catalog, catalog_names, from_json, is_json_int, to_json,
                     validate_lie)
from .restricted import (RestrictedAlgebra, synthesize_two_map,
                         validate_restricted)
from .toruscartan import (audit_decomposition, check_sweep_budget, is_torus, max_tori,
                          weight_decompose, Torus)
from .field import FIELD_CAVEAT, Subspace


def _read_text(path: str) -> str:
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise InvalidInput(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise InvalidInput(f"{path} is not UTF-8 text: {exc}") from exc


def _write_report(doc, path: Optional[str]) -> None:
    if path:
        try:
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh, indent=2)
                fh.write("\n")
        except OSError as exc:
            raise InvalidInput(f"cannot write {path}: {exc}") from exc


def _vec_str(v) -> str:
    return "(" + ",".join(str(x) for x in v) + ")"


def _load_algebra(path: str):
    alg, two_map = from_json(_read_text(path))
    return alg, two_map


def _restricted_from(alg, two_map) -> Tuple[Optional[RestrictedAlgebra], str]:
    """Restricted structure from the file, else a synthesized one."""
    if two_map is not None:
        return RestrictedAlgebra(alg, two_map), "file"
    syn = synthesize_two_map(alg)
    if syn.restrictable:
        return RestrictedAlgebra(alg, syn.two_map), "synthesized"
    return None, "absent"


def _checked_restricted(cmd: str, alg,
                        two_map) -> Tuple[Optional[RestrictedAlgebra], str]:
    """Restricted structure and its source, for a command that assumes both valid.

    Checks Jacobi before synthesis and the 2-map identities after it; on
    failure prints one line and returns None in place of the structure.
    """
    name = alg.name or "<unnamed>"
    lie = validate_lie(alg)
    if not lie.ok:
        i, j, k, _ = lie.failing_triples[0]
        print(f"{cmd}: FAILED, {name} violates the Jacobi identity "
              f"on basis triple ({i},{j},{k})")
        return None, "absent"
    ra, source = _restricted_from(alg, two_map)
    if ra is None:
        print(f"{cmd}: FAILED, {name} is not restrictable")
        return None, source
    rrep = validate_restricted(ra)
    if not rrep.ok:
        print(f"{cmd}: FAILED, {source} two-map of {name} is not a 2-map "
              f"at basis indices {rrep.failing_indices}")
        return None, source
    return ra, source


# ---------------------------------------------------------------------------
# subcommands


def _cmd_validate(args) -> int:
    alg, two_map = _load_algebra(args.file)
    report = validate_lie(alg)
    name = alg.name or "<unnamed>"
    print(f"algebra {name}: dim {alg.dim} over GF(2^{alg.gf.degree})")
    print(f"jacobi on {report.triples_checked} basis triples: "
          f"{'ok' if not report.failing_triples else 'FAILED'}")
    print(f"randomized identity checks: {report.random_checked}")
    ok = report.ok
    doc = {
        "name": alg.name,
        "dim": alg.dim,
        "field_degree": alg.gf.degree,
        "lie_ok": report.ok,
        "failing_triples": [[i, j, k] for i, j, k, _ in report.failing_triples],
        "triples_checked": report.triples_checked,
        "random_checked": report.random_checked,
        "caveat": FIELD_CAVEAT,
    }
    if args.restricted:
        ra, source = _restricted_from(alg, two_map)
        if ra is None:
            print(f"restricted check: FAILED, {name} is not restrictable "
                  "(no two-map exists)")
            doc["restricted"] = {"ok": False, "source": source}
            ok = False
        else:
            rrep = validate_restricted(ra)
            print(f"restricted check ({source} two-map): "
                  f"{'ok' if rrep.ok else 'FAILED at indices ' + str(rrep.failing_indices)}")
            doc["restricted"] = {"ok": rrep.ok, "source": source,
                                 "failing_indices": rrep.failing_indices}
            ok = ok and rrep.ok
    print(f"caveat: {FIELD_CAVEAT}")
    _write_report(doc, args.out)
    return 0 if ok else 1


def _parse_torus_file(text: str, ra: RestrictedAlgebra) -> Torus:
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise InvalidInput(f"torus file is not valid JSON: {exc}") from exc
    if isinstance(doc, dict):
        doc = doc.get("torus", doc.get("vectors"))
    if not isinstance(doc, list):
        raise InvalidInput("torus file must hold a list of coordinate vectors")
    gf, dim = ra.algebra.gf, ra.algebra.dim
    for row in doc:
        if not (isinstance(row, list) and len(row) == dim
                and all(is_json_int(x) and 0 <= x < gf.order for x in row)):
            raise InvalidInput(f"torus vector {json.dumps(row)} is not a list of "
                               f"{dim} elements of {gf!r}")
    space = Subspace(gf, dim, doc)
    rep = is_torus(ra, space)
    if not rep.is_torus or rep.torus is None or rep.torus.toral_basis is None:
        raise InvalidInput("supplied subspace is not a torus with toral basis")
    return rep.torus


def _cmd_decompose(args) -> int:
    alg, two_map = _load_algebra(args.file)
    if args.torus == "auto":
        check_sweep_budget(alg)  # exit 3 before spending time on validation
    ra, source = _checked_restricted("decompose", alg, two_map)
    if ra is None:
        return 1
    if args.torus == "auto":
        torus_rep = max_tori(ra)
        torus = torus_rep.torus
        print(f"torus: rank {torus.rank} "
              f"({'exhaustive' if torus_rep.exhaustive else torus_rep.method})")
    else:
        torus = _parse_torus_file(_read_text(args.torus), ra)
        print(f"torus: rank {torus.rank} (from file)")
    dec = weight_decompose(ra, torus)
    audit = audit_decomposition(dec)
    pattern = dec.dim_pattern()
    print(f"cartan subalgebra: dim {dec.h.dim} "
          f"(torus {dec.rank} + nil {dec.nil.dim})")
    for root in dec.roots():
        label = "".join(str(b) for b in root)
        print(f"root {label}: dim {dec.weights[root].dim}")
    for check in audit.checks.values():
        line = f"audit {check.name}: {'ok' if check.passed else 'FAILED'}"
        line += f" (checked {check.checked}, triggered {check.triggered})"
        print(line)
        for msg in check.failures:
            print(f"  failure: {msg}")
    print(f"caveat: {FIELD_CAVEAT}")
    doc = {
        "name": alg.name,
        "two_map_source": source,
        "torus": {"rank": torus.rank,
                  "toral_basis": [list(v) for v in (torus.toral_basis or ())]},
        "cartan_dim": dec.h.dim,
        "nil_dim": dec.nil.dim,
        "weights": {"".join(str(b) for b in r): [list(v) for v in dec.weights[r].rows]
                    for r in dec.roots()},
        "dim_pattern": pattern,
        "audits": {n: {"passed": c.passed, "checked": c.checked,
                       "triggered": c.triggered, "failures": c.failures}
                   for n, c in audit.checks.items()},
        "caveat": FIELD_CAVEAT,
    }
    _write_report(doc, args.out)
    return 0 if audit.ok else 1


def _cmd_toral_rank(args) -> int:
    alg, two_map = _load_algebra(args.file)
    check_sweep_budget(alg, args.budget)
    ra, source = _checked_restricted("toral-rank", alg, two_map)
    if ra is None:
        return 1
    rep = max_tori(ra, sweep_budget=args.budget, node_budget=args.budget)
    basis = rep.torus.toral_basis or ()
    print(f"toral rank lower bound: {rep.rank_lb} "
          f"({'exhaustive' if rep.exhaustive else rep.method}, "
          f"{rep.fixpoints_seen} fixpoints seen)")
    for v in basis:
        print(f"toral basis element: {_vec_str(v)}")
    print(f"caveat: {rep.caveat}")
    doc = {
        "name": alg.name,
        "two_map_source": source,
        "rank_lb": rep.rank_lb,
        "exhaustive": rep.exhaustive,
        "method": rep.method,
        "fixpoints_seen": rep.fixpoints_seen,
        "toral_basis": [list(v) for v in basis],
        "caveat": rep.caveat,
    }
    _write_report(doc, args.out)
    return 0


_DIMS_RE = re.compile(r"^(\d+)\.\.(\d+)$")


def _parse_dims(text: str) -> Tuple[int, int]:
    m = _DIMS_RE.match(text)
    if not m:
        raise InvalidInput("dimension range must look like 10..16")
    lo, hi = int(m.group(1)), int(m.group(2))
    if lo > hi or lo < 4 or hi > 64:
        raise InvalidInput(f"unusable dimension range {text}")
    return lo, hi


def _cmd_paper_verify(args) -> int:
    dims = _parse_dims(args.dims)
    report = verify_paper(args.section, dims, args.rule_mode)
    if "root_systems" in report:
        part = report["root_systems"]
        for case in part["cases"]:
            status = case["certificate"]["kind"]
            mark = "ok" if case["as_expected"] and case["recheck_passed"] else "MISMATCH"
            print(f"case {case['case_index']:2d} "
                  f"[{' '.join(case['roots'])}]: {status} ({mark})")
        div = part["span_divergences"]
        print(f"span comparison: {len(part['span_comparison'])} entries, "
              f"{len(div)} divergences from the published tables")
        for d in div:
            print(f"  divergent span: case {d['case_index']} root {d['root']}")
    if "patterns" in report:
        part = report["patterns"]
        for entry in part["per_dim"]:
            kinds = ", ".join(f"{k}={v}" for k, v in sorted(entry["kinds"].items()))
            print(f"dim {entry['total_dim']}: {entry['pattern_count']} patterns "
                  f"({kinds})")
            for p in entry["unrefuted"]:
                print(f"  unrefuted: {p}")
            if args.rule_mode == "strict":
                for p in entry["iso_rule_dependent"]:
                    print(f"  needs paper-style transport rule: {p}")
        print(f"patterns total {part['total_patterns']}, "
              f"unrefuted {part['total_unrefuted']} (mode {part['mode']})")
    print(f"caveat: {report['caveat']}")
    print(f"verdict: {'pass' if report['passed'] else 'FAIL'}")
    _write_report(report, args.out)
    return 0 if report["passed"] else 1


def _cmd_paper_cross_check(args) -> int:
    report = cross_check_paper_lists()
    for entry in report["per_dim"]:
        print(f"dim {entry['total_dim']}: listed {entry['listed_items']}, "
              f"enumerated {entry['enumerated_classes']}")
        for m in entry["malformed"]:
            print(f"  malformed item at position {m['position']}: {m['item']}")
        for d in entry["duplicates"]:
            print(f"  duplicated class {d['item']} at positions {d['positions']}")
        for item in entry["missing_from_list"]:
            print(f"  missing from list: {item}")
        for u in entry["not_reproducible"]:
            print(f"  not reproducible at position {u['position']}: {u['item']}")
    print(f"lists clean: {report['lists_clean']}")
    print(f"caveat: {report['caveat']}")
    _write_report(report, args.out)
    return 0


def _cmd_census(args) -> int:
    from .search import CensusSpec, census

    spec = CensusSpec(dim=args.dim, field_degree=args.field_degree,
                      sample_count=args.sample, seed=args.seed,
                      threads=args.threads)
    report = census(spec)
    print(f"census dim {report.dim} over GF(2^{report.field_degree}), "
          f"{report.mode}, backend {report.backend}")
    print(f"candidates scanned: {report.candidates_scanned}")
    print(f"jacobi pass: {report.jacobi_pass}")
    print(f"simple: {report.simple_count} in "
          f"{len(report.simple_iso_classes)} iso classes")
    print(f"restrictable simple: {report.restrictable_simple_count}")
    for idx, cls in enumerate(report.simple_iso_classes):
        rank = cls["toral_rank_lb"]
        extra = f", toral rank lb {rank}" if rank is not None else ""
        print(f"class {idx}: size {cls['class_size']}, "
              f"restrictable {cls['restrictable']}{extra}")
    print(f"runtime: {report.runtime_ms} ms")
    print(f"caveat: {report.caveat}")
    _write_report(report.to_json(), args.out)
    if args.dump_survivors:
        try:
            os.makedirs(args.dump_survivors, exist_ok=True)
        except OSError as exc:
            raise InvalidInput(f"cannot write {args.dump_survivors}: {exc}") from exc
        for idx, cls in enumerate(report.simple_iso_classes):
            _write_report(cls["representative"],
                          os.path.join(args.dump_survivors, f"class_{idx}.json"))
        print(f"wrote {len(report.simple_iso_classes)} class representatives "
              f"to {args.dump_survivors}")
    return 0


def _emit_paper_lists() -> dict:
    lists = {}
    for total in sorted(PUBLISHED_PATTERN_LISTS):
        raws = PUBLISHED_PATTERN_LISTS[total]
        lists[str(total)] = {
            "raw": [list(r) for r in raws],
            "printed": [raw_pattern_string(r) for r in raws],
        }
    return {"pattern_lists": lists}


def _cmd_catalog(args) -> int:
    if args.catalog_command == "list":
        for name in catalog_names():
            if "(" in name:
                print(f"{name}: parametrized family")
                continue
            entry = catalog(name)
            print(f"{name}: dim {entry.algebra.dim}, {entry.description}")
        return 0
    if args.name == "paper-lists":
        doc = _emit_paper_lists()
    else:
        entry = catalog(args.name)
        doc = to_json(entry.algebra, entry.two_map)
    if args.out:
        _write_report(doc, args.out)
    else:
        print(json.dumps(doc, indent=2))
    return 0


# ---------------------------------------------------------------------------
# parser


class _Parser(argparse.ArgumentParser):
    """argparse's own `print_help` swallows the OSError of a failed write,
    so `--help` to a full or closed stdout would exit 0 with the help lost.
    This one lets the error reach `main`, which exits 2 as for any other
    stdout write error, and flushes so that a block-buffered stdout fails
    here rather than at exit.  Subparsers are built from this class too."""

    def print_help(self, file=None) -> None:
        file = file or sys.stdout
        file.write(self.format_help())
        file.flush()


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="lie2",
        description="exact tools for restricted Lie algebras in characteristic 2")
    sub = p.add_subparsers(dest="command", required=True)

    v = sub.add_parser("validate", help="check the Lie axioms on an algebra file")
    v.add_argument("file", nargs="?", default="-",
                   help="algebra JSON file, or - for stdin")
    v.add_argument("--restricted", action="store_true",
                   help="also demand a valid or synthesizable two-map")
    v.add_argument("--out", help="write the JSON report here")
    v.set_defaults(func=_cmd_validate)

    d = sub.add_parser("decompose",
                       help="weight-space decomposition plus audits")
    d.add_argument("file", nargs="?", default="-")
    d.add_argument("--torus", default="auto",
                   help="'auto' or a JSON file with torus basis vectors")
    d.add_argument("--out")
    d.set_defaults(func=_cmd_decompose)

    tr = sub.add_parser("toral-rank", help="toral rank lower bound with witness")
    tr.add_argument("file", nargs="?", default="-")
    tr.add_argument("--budget", type=int, default=1 << 20)
    tr.add_argument("--out")
    tr.set_defaults(func=_cmd_toral_rank)

    pa = sub.add_parser("paper", help="replay or cross-check the case analysis")
    pasub = pa.add_subparsers(dest="paper_command", required=True)
    pv = pasub.add_parser("verify", help="replay the analysis and check certificates")
    pv.add_argument("--section", choices=["4", "5", "all"], default="all")
    pv.add_argument("--dims", default="10..16", help="like 10..16")
    pv.add_argument("--rule-mode", choices=["paper", "strict"], default="paper")
    pv.add_argument("--out")
    pv.set_defaults(func=_cmd_paper_verify)
    pc = pasub.add_parser("cross-check",
                          help="compare bundled pattern lists against enumeration")
    pc.add_argument("--out")
    pc.set_defaults(func=_cmd_paper_cross_check)

    c = sub.add_parser("census", help="scan bracket tables over F2")
    c.add_argument("--dim", type=int, required=True)
    c.add_argument("--field-degree", type=int, default=1)
    c.add_argument("--sample", type=int, default=None)
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--threads", type=int, default=1,
                   help="accepted and recorded in the report; the census "
                        "engine is single-threaded and ignores it")
    c.add_argument("--out")
    c.add_argument("--dump-survivors", metavar="DIR")
    c.set_defaults(func=_cmd_census)

    cat = sub.add_parser("catalog", help="built-in example algebras")
    catsub = cat.add_subparsers(dest="catalog_command", required=True)
    cl = catsub.add_parser("list")
    cl.set_defaults(func=_cmd_catalog)
    ce = catsub.add_parser("emit")
    ce.add_argument("name", help="catalog name, or paper-lists")
    ce.add_argument("--out")
    ce.set_defaults(func=_cmd_catalog)

    return p


@lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The parser, built on first use and reused by every later main call;
    parse_args keeps no state between calls."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        code = args.func(args)
        sys.stdout.flush()
        return code
    except Lie2Error as exc:
        print(f"{exc.label}: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:  # standard output is closed or full
        # the null device takes what is still buffered, so the flush at exit succeeds
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
