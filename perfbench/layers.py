"""Per-layer tracing from outside the program.

`Tracer.install` rebinds public functions and methods of lie2 with timing
wrappers: on the defining class, or in the defining module and in every
lie2 module that imported the same function object.  No source file
changes, and `uninstall` puts the originals back.  Each call becomes a span
(name, start, end, parent span, job id) kept in flat in-memory arrays and
written out once at the end.  A layer's self time is the duration of its
spans minus the duration of their child spans.

The hot scalars GF.mul, GF.add and vec_is_zero stay unwrapped: tens of
millions of calls would measure the wrapper instead of the layer.  The
census stages are private functions (`_run_*`, `_classify_*`); they are
named here by role (kernel, classify) so the metric names survive a
rewrite of the backends.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

def _add(counters: Dict[str, float], key: str, value: float) -> None:
    counters[key] = counters.get(key, 0) + value


def _count_rows(c, args, res):
    _add(c, "field.rref.rows", args[0].nrows)


def _count_seeds(c, args, res):
    _add(c, "liealg.is_simple.seeds", res.seeds_checked)


def _count_vectors(c, args, res):
    alg = args[0].algebra
    _add(c, "toruscartan.toral_elements.vectors", alg.gf.order ** alg.dim)


def _count_tori(c, args, res):
    _add(c, "toruscartan.max_tori.fixpoints", res.fixpoints_seen)
    _add(c, "toruscartan.max_tori.exhaustive", int(res.exhaustive))


def _count_audit(c, args, res):
    _add(c, "toruscartan.audit.checked", sum(ch.checked for ch in res.checks.values()))


def _count_patterns(c, args, res):
    _add(c, "caseanalysis.patterns", len(res))


def _count_census(c, args, res):
    _add(c, "search.census.candidates", res.candidates_scanned)
    _add(c, "search.census.jacobi", res.jacobi_pass)


def _count_candidates(c, args, res):
    _add(c, "search.kernel.candidates", res[0])


# (span name, module, attribute path, counter) for each rebinding.
# A counter sees (counters, args, result) after a successful call.
TARGETS: List[Tuple[str, str, str, Optional[Callable]]] = [
    ("field.rref", "lie2.field", "Mat.rref", _count_rows),
    ("field.subspace", "lie2.field", "Subspace.__init__", None),
    ("field.subspace_contains", "lie2.field", "Subspace.contains", None),
    ("liealg.bracket", "lie2.liealg", "LieAlgebra.bracket", None),
    ("liealg.ad_matrix", "lie2.liealg", "LieAlgebra.ad_matrix", None),
    ("liealg.is_simple", "lie2.liealg", "is_simple", _count_seeds),
    ("liealg.ideal_closure", "lie2.liealg", "ideal_closure", None),
    ("liealg.validate_lie", "lie2.liealg", "validate_lie", None),
    ("liealg.centralizer", "lie2.liealg", "centralizer", None),
    ("liealg.json", "lie2.liealg", "to_json", None),
    ("liealg.json", "lie2.liealg", "from_json", None),
    ("restricted.two_map_eval", "lie2.restricted", "two_map_eval", None),
    ("restricted.synthesize_two_map", "lie2.restricted", "synthesize_two_map", None),
    ("restricted.validate_restricted", "lie2.restricted", "validate_restricted", None),
    ("restricted.jcs_decompose", "lie2.restricted", "jcs_decompose", None),
    ("toruscartan.toral_elements", "lie2.toruscartan", "toral_elements", _count_vectors),
    ("toruscartan.max_tori", "lie2.toruscartan", "max_tori", _count_tori),
    ("toruscartan.weight_decompose", "lie2.toruscartan", "weight_decompose", None),
    ("toruscartan.cartan_split", "lie2.toruscartan", "cartan_split", None),
    ("toruscartan.audit", "lie2.toruscartan", "audit_decomposition", _count_audit),
    ("caseanalysis.canonicalize", "lie2.caseanalysis", "gl3_canonicalize_dims", None),
    ("caseanalysis.kill_pattern", "lie2.caseanalysis", "kill_pattern", None),
    ("caseanalysis.check_certificate", "lie2.caseanalysis", "check_certificate", None),
    ("caseanalysis.enumerate_patterns", "lie2.caseanalysis", "enumerate_patterns",
     _count_patterns),
    ("caseanalysis.root_systems", "lie2.caseanalysis", "verify_root_systems", None),
    ("search.census", "lie2.search", "census", _count_census),
    ("search.kernel", "lie2.search", "_run_exhaustive", _count_candidates),
    ("search.kernel", "lie2.search", "_run_sampled_packed", _count_candidates),
    ("search.kernel", "lie2.search", "_run_sampled_generic", _count_candidates),
    ("search.table_orbit", "lie2.search", "table_orbit", None),
    ("search.classify", "lie2.search", "_classify_packed", None),
    ("search.classify", "lie2.search", "_classify_generic", None),
    ("cli.main", "lie2.cli", "main", None),
]

# Per-layer metrics: (name, unit, better, end-to-end metric it should move,
# workload where it should move, workload where it should not move).
LAYERS: List[Tuple[str, str, str, str, str, str]] = [
    ("field.rref.calls", "count", "lower", "job_p50_ref, wall_ref", "structure",
     "extension, for an F2-only change"),
    ("field.rref.self_s", "s", "lower", "job_p50_ref, wall_ref", "structure",
     "extension, for an F2-only change"),
    ("field.rref.rows", "count", "lower", "job_p50_ref, wall_ref", "structure",
     "extension, for an F2-only change"),
    ("field.subspace.calls", "count", "lower", "job_p50_ref, wall_ref", "structure",
     "extension, for an F2-only change"),
    ("field.subspace_contains.calls", "count", "lower", "job_p50_ref, wall_ref",
     "structure", "extension, for an F2-only change"),
    ("field.subspace_contains.self_s", "s", "lower", "job_p50_ref, wall_ref",
     "structure", "extension, for an F2-only change"),
    ("liealg.bracket.calls", "count", "lower", "wall_ref, job_tail_ref", "structure", "paper"),
    ("liealg.bracket.self_s", "s", "lower", "wall_ref, job_tail_ref", "structure", "paper"),
    ("liealg.ad_matrix.calls", "count", "lower", "wall_ref, job_tail_ref", "structure", "paper"),
    ("liealg.is_simple.self_s", "s", "lower", "job_p50_ref", "structure, extension",
     "paper"),
    ("liealg.is_simple.seeds", "count", "lower", "job_p50_ref", "structure, extension",
     "paper"),
    ("liealg.ideal_closure.calls", "count", "lower", "job_p50_ref",
     "structure, extension", "paper"),
    ("liealg.validate_lie.self_s", "s", "lower", "job_p50_ref", "structure, extension",
     "paper"),
    ("liealg.centralizer.self_s", "s", "lower", "job_p50_ref", "structure, extension",
     "paper"),
    ("liealg.json.self_s", "s", "lower", "job_p50_ref", "structure, extension", "paper"),
    ("restricted.two_map_eval.calls", "count", "lower", "wall_ref", "structure, extension",
     "paper"),
    ("restricted.two_map_eval.self_s", "s", "lower", "wall_ref", "structure, extension",
     "paper"),
    ("restricted.synthesize_two_map.self_s", "s", "lower", "wall_ref",
     "structure, extension", "paper"),
    ("restricted.validate_restricted.self_s", "s", "lower", "wall_ref",
     "structure, extension", "paper"),
    ("restricted.jcs_decompose.calls", "count", "lower", "wall_ref",
     "structure, extension", "paper"),
    ("restricted.jcs_decompose.self_s", "s", "lower", "wall_ref",
     "structure, extension", "paper"),
    ("toruscartan.toral_elements.self_s", "s", "lower", "job_tail_ref, wall_ref",
     "structure", "paper, census"),
    ("toruscartan.toral_elements.vectors", "count", "lower", "job_tail_ref, wall_ref",
     "structure", "paper, census"),
    ("toruscartan.max_tori.self_s", "s", "lower", "job_tail_ref, wall_ref", "structure",
     "paper, census"),
    ("toruscartan.max_tori.fixpoints", "count", "lower", "job_tail_ref, wall_ref",
     "structure", "paper, census"),
    ("toruscartan.max_tori.exhaustive_frac", "frac", "higher", "certified_frac",
     "structure", "paper, census"),
    ("toruscartan.weight_decompose.self_s", "s", "lower", "job_tail_ref, wall_ref",
     "structure", "paper, census"),
    ("toruscartan.cartan_split.self_s", "s", "lower", "job_tail_ref, wall_ref",
     "structure", "paper, census"),
    ("toruscartan.audit.self_s", "s", "lower", "job_tail_ref, wall_ref", "structure",
     "paper, census"),
    ("toruscartan.audit.checked", "count", "higher", "job_tail_ref, wall_ref", "structure",
     "paper, census"),
    ("caseanalysis.canonicalize.calls", "count", "lower", "wall_ref, job_tail_ref", "paper",
     "structure, census, extension"),
    ("caseanalysis.canonicalize.self_s", "s", "lower", "wall_ref, job_tail_ref", "paper",
     "structure, census, extension"),
    ("caseanalysis.kill_pattern.calls", "count", "lower", "wall_ref, job_tail_ref", "paper",
     "structure, census, extension"),
    ("caseanalysis.kill_pattern.self_s", "s", "lower", "wall_ref, job_tail_ref", "paper",
     "structure, census, extension"),
    ("caseanalysis.check_certificate.calls", "count", "lower", "wall_ref, job_tail_ref",
     "paper", "structure, census, extension"),
    ("caseanalysis.check_certificate.self_s", "s", "lower", "wall_ref, job_tail_ref",
     "paper", "structure, census, extension"),
    ("caseanalysis.enumerate_patterns.self_s", "s", "lower", "wall_ref, job_tail_ref",
     "paper", "structure, census, extension"),
    ("caseanalysis.root_systems.self_s", "s", "lower", "wall_ref, job_tail_ref", "paper",
     "structure, census, extension"),
    ("caseanalysis.patterns", "count", "higher", "wall_ref, job_tail_ref", "paper",
     "structure, census, extension"),
    ("search.census.self_s", "s", "lower", "wall_ref, peak_rss_mb", "census", "structure"),
    ("search.kernel.self_s", "s", "lower", "wall_ref, peak_rss_mb", "census", "structure"),
    ("search.kernel.candidates", "count", "higher", "wall_ref, peak_rss_mb", "census",
     "structure"),
    ("search.kernel.candidates_per_s", "1/s", "higher", "wall_ref, peak_rss_mb", "census",
     "structure"),
    ("search.jacobi_pass_frac", "frac", "higher", "wall_ref, peak_rss_mb", "census",
     "structure"),
    ("search.table_orbit.calls", "count", "lower", "wall_ref, peak_rss_mb", "census",
     "structure"),
    ("search.classify.self_s", "s", "lower", "wall_ref, peak_rss_mb", "census", "structure"),
    ("cli.main.self_s", "s", "lower", "wall_ref", "paper", "structure"),
    ("cli.report_bytes", "B", "lower", "wall_ref", "paper", "structure"),
    ("trace.overhead_s", "s", "lower", "none: cost of tracing itself", "all", "all"),
    ("trace.overhead_frac", "frac", "lower", "none: cost of tracing itself", "all", "all"),
]

# Wanted but not measurable by wrapping public entry points.
NOT_MEASURABLE = {
    "toruscartan.max_tori.dfs_nodes":
        "the DFS node count is a local of max_tori and is not returned",
    "field.gf_mul.calls":
        "GF.mul is left unwrapped on purpose; a wrapper would dominate its cost",
}


class Tracer:
    """Spans and counters for one traced run."""

    def __init__(self):
        self.span_names: List[str] = sorted({t[0] for t in TARGETS})
        self._name_id = {n: i for i, n in enumerate(self.span_names)}
        self.names = array("i")
        self.parents = array("i")
        self.jobs = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.counters: Dict[str, float] = {}
        self.job = -1
        self._stack = [-1]
        self._undo: List[Tuple[object, str, object]] = []
        self.missing: List[str] = []

    def _wrap(self, fn, name: str, count: Optional[Callable]):
        name_id = self._name_id[name]
        names, parents, jobs = self.names, self.parents, self.jobs
        starts, ends, stack, counters = self.starts, self.ends, self._stack, self.counters
        perf = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name_id)
            parents.append(stack[-1])
            jobs.append(tracer.job)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if count is not None:
                count(counters, args, result)
            return result

        return traced

    def install(self) -> None:
        self.missing = []
        mods = {k: m for k, m in sys.modules.items()
                if k == "lie2" or k.startswith("lie2.")}
        for name, modname, path, count in TARGETS:
            owner = mods.get(modname)
            parts = path.split(".")
            for part in parts[:-1]:
                owner = getattr(owner, part, None)
            original = getattr(owner, parts[-1], None) if owner is not None else None
            if original is None:
                self.missing.append(f"{modname}.{path}")
                continue
            wrapped = self._wrap(original, name, count)
            holders = [owner] if len(parts) > 1 else \
                [m for m in mods.values() if any(v is original for v in vars(m).values())]
            for holder in holders:
                for attr, value in list(vars(holder).items()):
                    if value is original:
                        self._undo.append((holder, attr, value))
                        setattr(holder, attr, wrapped)

    def uninstall(self) -> None:
        for holder, attr, value in reversed(self._undo):
            setattr(holder, attr, value)
        self._undo.clear()

    def arrays(self) -> Dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.names, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parents, dtype=np.int32).copy(),
            "job": np.frombuffer(self.jobs, dtype=np.int32).copy(),
            "start": np.frombuffer(self.starts, dtype=np.float64).copy(),
            "end": np.frombuffer(self.ends, dtype=np.float64).copy(),
        }

    def write(self, path: str) -> None:
        np.savez(path, span_names=np.array(self.span_names), **self.arrays())

    def per_span(self) -> Tuple[Dict[str, int], Dict[str, float]]:
        """Calls and self time per span name."""
        a = self.arrays()
        k = len(self.span_names)
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        own = dur - child
        calls = np.bincount(a["name"], minlength=k)
        self_s = np.bincount(a["name"], weights=own, minlength=k)
        return ({n: int(calls[i]) for i, n in enumerate(self.span_names)},
                {n: float(self_s[i]) for i, n in enumerate(self.span_names)})

    def layer_metrics(self, passes: int, report_bytes: int,
                      traced_wall: float, untraced_wall: float) -> Dict[str, float]:
        """Every LAYERS metric, per pass; report_bytes is already per pass."""
        calls, self_s = self.per_span()
        c = self.counters
        tori = calls["toruscartan.max_tori"]
        candidates = c.get("search.census.candidates", 0)
        kernel_s = self_s["search.kernel"]
        derived = {
            "toruscartan.max_tori.exhaustive_frac":
                c.get("toruscartan.max_tori.exhaustive", 0) / tori if tori else 1.0,
            "search.kernel.candidates_per_s":
                c.get("search.kernel.candidates", 0) / kernel_s if kernel_s else 0.0,
            "search.jacobi_pass_frac":
                c.get("search.census.jacobi", 0) / candidates if candidates else 0.0,
            "cli.report_bytes": report_bytes,
            "trace.overhead_s": traced_wall - untraced_wall,
            "trace.overhead_frac": (traced_wall - untraced_wall) / untraced_wall,
        }
        values = {}
        for name, *_ in LAYERS:
            stem, _, leaf = name.rpartition(".")
            if name in derived:
                values[name] = derived[name]
            elif leaf == "calls":
                values[name] = calls[stem] / passes
            elif leaf == "self_s":
                values[name] = self_s[stem] / passes
            else:
                values[name] = c.get(name, 0) / passes
        return values
