"""The workloads: seeded job lists, and how one job runs against lie2.

A job is one request a user would make of the toolkit and ends in a verdict:
either an in-process command-line call (argv plus an --out report) or the
library pipeline of the README quickstart on one generated algebra.  Jobs
only record what the program answered; `oracle.py` judges the answers.

Each workload stresses its own layers:

- paper: `paper verify` / `cross-check` commands; caseanalysis and cli only;
- structure: the pipeline on catalog algebras under GL(n,2) basis changes;
  the F2 paths of field, liealg, restricted and toruscartan;
- census: exhaustive and sampled censuses over F2; search and its kernels;
- extension: the same pipeline over GF(4) and GF(16) plus a GF(4) census;
  the generic GF(2^k) paths of the algebra layers.
"""

from __future__ import annotations

import contextlib
import json
import os
import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

import inputs

WORKLOADS = ("paper", "structure", "census", "extension")

# sampled censuses take their seed from this many golden-pinned values
CENSUS_SEEDS = 16

PAPER_DIMS = range(10, 21)


@dataclass(frozen=True)
class Job:
    name: str
    kind: str      # "cli", "pipeline", "restrict" or "simple"
    payload: object  # argv for "cli", algebra JSON text otherwise
    expect: str    # key into the oracle's known answers


def census_seed(seed: int) -> int:
    return seed % CENSUS_SEEDS


def paper_argvs() -> Dict[str, List[str]]:
    jobs = {"paper-s4": ["paper", "verify", "--section", "4"]}
    for d in PAPER_DIMS:
        for mode in ("paper", "strict"):
            jobs[f"paper-s5-{d}-{mode}"] = ["paper", "verify", "--section", "5",
                                            "--dims", f"{d}..{d}", "--rule-mode", mode]
    jobs["paper-cross-check"] = ["paper", "cross-check"]
    return jobs


def census_argvs(s: int) -> Dict[str, List[str]]:
    common = ["--threads", "1"]
    return {
        "census-d4": ["census", "--dim", "4"] + common,
        "census-d3": ["census", "--dim", "3"] + common,
        f"census-d5-s{s}": ["census", "--dim", "5", "--sample", "1048576",
                            "--seed", str(s)] + common,
        f"census-d6-s{s}": ["census", "--dim", "6", "--sample", "262144",
                            "--seed", str(s)] + common,
    }


def extension_census_argvs(s: int) -> Dict[str, List[str]]:
    return {f"census-gf4-d3-s{s}": ["census", "--dim", "3", "--field-degree", "2",
                                    "--sample", "20000", "--seed", str(s),
                                    "--threads", "1"]}


def fixtures(catalog: Callable) -> Dict[str, inputs.Structure]:
    names = ["o3", "heis3", "sl2", "gl2", "sl3", "gl3", "w11_p2", "strictly_upper(4)"]
    return {n: inputs.from_catalog(catalog(n)) for n in names}


def make_jobs(workload: str, seed: int, catalog: Callable, variant: int = 0) -> List[Job]:
    """The job list of one pass; the same seed and variant give the same jobs.

    Variants draw fresh basis changes, job orders and census seeds with the
    same job kinds, so the passes of a run average over several inputs.
    """
    rng = random.Random(f"{workload}/{seed}/{variant}")
    s = census_seed(seed + variant)
    if workload == "paper":
        jobs = [Job(k, "cli", v, k) for k, v in paper_argvs().items()]
        rng.shuffle(jobs)
        return jobs
    if workload == "census":
        return [Job(k, "cli", v, k) for k, v in census_argvs(s).items()]
    fx = fixtures(catalog)
    if workload == "structure":
        bases = list(fx.values()) + [
            inputs.direct_sum(fx["sl3"], fx["heis3"]),
            inputs.direct_sum(fx["gl2"], fx["w11_p2"]),
            inputs.direct_sum(fx["gl3"], fx["w11_p2"]),
        ]
        return [Job(f"{b.name}/F2", "pipeline",
                    inputs.change_basis(b, rng).to_text(), f"{b.name}/F2")
                for b in bases]
    if workload == "extension":
        jobs = []
        for name in ["gl2", "w11_p2", "heis3", "o3", "strictly_upper(4)"]:
            alg = inputs.change_basis(inputs.over_field(fx[name], 2), rng)
            jobs.append(Job(f"{name}/GF4", "pipeline", alg.to_text(),
                            f"{name}/GF4"))
        for degree in (2, 4):
            alg = inputs.change_basis(inputs.over_field(fx["gl3"], degree), rng)
            key = f"gl3/GF{1 << degree}"
            jobs.append(Job(key, "restrict", alg.to_text(), key))
        alg = inputs.change_basis(inputs.over_field(fx["o3"], 4), rng)
        jobs.append(Job("o3/GF16", "simple", alg.to_text(), "o3/GF16"))
        jobs += [Job(k, "cli", v, k) for k, v in extension_census_argvs(s).items()]
        return jobs
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# running one job


def run_cli(lie2, argv: List[str], out_path: str) -> dict:
    """In-process command-line call; human output is discarded."""
    with open(os.devnull, "w", encoding="utf-8") as sink, \
            contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            code = lie2.cli.main(list(argv) + ["--out", out_path])
        except SystemExit as exc:
            code = exc.code
    return {"exit": code, "report": out_path}


def run_pipeline(lie2, text: str, kind: str) -> dict:
    """The README quickstart on one algebra file, recording each verdict.

    "pipeline": validate_lie, is_simple, synthesize_two_map,
    validate_restricted, max_tori, weight_decompose, audit_decomposition and
    a to_json/from_json round trip.  "restrict" stops after
    validate_restricted, "simple" runs is_simple alone.
    """
    out: dict = {}
    try:
        alg, two_map = lie2.from_json(text)
        if kind == "simple":
            out["simple"] = lie2.is_simple(alg).simple
            return out
        out["lie"] = lie2.validate_lie(alg).ok
        if kind == "pipeline":
            out["simple"] = lie2.is_simple(alg).simple
        syn = lie2.synthesize_two_map(alg)
        out["restrictable"] = syn.restrictable
        if two_map is None:
            two_map = syn.two_map
        if two_map is None:
            return out
        ra = lie2.RestrictedAlgebra(alg, two_map)
        out["restricted_ok"] = lie2.validate_restricted(ra).ok
        if kind == "restrict":
            return out
        again, again_map = lie2.from_json(json.dumps(lie2.to_json(alg, two_map)))
        out["round_trip"] = again.table == alg.table and again_map == two_map
        tori = lie2.max_tori(ra)
        out["rank_lb"] = tori.rank_lb
        out["certified"] = tori.exhaustive
        dec = lie2.weight_decompose(ra, tori.torus)
        out["nil_dim"] = dec.nil.dim
        out["root_dims"] = sorted(sp.dim for sp in dec.weights.values())
        out["audit_ok"] = lie2.audit_decomposition(dec).ok
    except lie2.Lie2Error as exc:
        out["error"] = type(exc).__name__
    return out


def backend_agreement(lie2, machine: dict) -> Tuple[int, List[str]]:
    """Exhaustive dim-3 and dim-4 counts must agree between census backends.

    Returns the number of comparisons made and one line per disagreement.
    Only possible when numba is importable; otherwise the numpy backend is
    the only one and there is nothing to compare.
    """
    if not machine["numba_importable"]:
        return 0, []
    keys = ("candidates_scanned", "jacobi_pass", "simple_count",
            "restrictable_simple_count", "simple_iso_classes")
    saved = os.environ.get("LIE2_BACKEND")
    bad = []
    try:
        for dim in (3, 4):
            counts = {}
            try:
                for backend in ("numba", "numpy"):
                    os.environ["LIE2_BACKEND"] = backend
                    doc = lie2.search.census(lie2.search.CensusSpec(dim=dim)).to_json()
                    counts[backend] = [doc[k] for k in keys]
            except lie2.Lie2Error as exc:
                bad.append(f"census dim {dim}: {type(exc).__name__}: {exc}")
                continue
            if counts["numba"] != counts["numpy"]:
                bad.append(f"census dim {dim}: numba and numpy backends disagree")
    finally:
        if saved is None:
            os.environ.pop("LIE2_BACKEND", None)
        else:
            os.environ["LIE2_BACKEND"] = saved
    return 2, bad
