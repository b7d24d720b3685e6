#!/usr/bin/env python3
"""Fast self-test of the benchmark's generator, oracle and metric list.

    python3 perfbench/selftest.py

Checks, in a few seconds:
- a basis change followed by its inverse gives back the structure constants,
  over F2 and GF(4), and the changed algebras keep their known invariants;
- the oracle passes the true answers, and a corrupted expected answer (an
  invariant, a pinned report digest) turns into failed jobs;
- BENCHMARK.json lists exactly the metrics run.py and layers.py produce;
- the job-time tail percentile leaves at least 10 jobs beyond it.
Exits 0 when all hold, 1 otherwise.
"""

from __future__ import annotations

import copy
import json
import os
import random
import shutil
import sys

import inputs
import layers
import oracle
import run
import workloads


class SelfTestFailure(Exception):
    pass


def expect(condition: bool, message) -> None:
    if not condition:
        raise SelfTestFailure(message)


def check_generator(lie2) -> None:
    fx = {n: inputs.from_catalog(lie2.catalog(n)) for n in ("heis3", "w11_p2", "gl2", "o3")}
    for degree in (1, 2):
        for name, base in fx.items():
            s = base if degree == 1 else inputs.over_field(base, degree)
            p, q = inputs.random_gl(s.dim, degree, random.Random(f"{name}/{degree}"))
            back = inputs.transform(inputs.transform(s, p, q), q, p)
            expect(back.table == s.table and back.two_map == s.two_map,
                   f"{name} over degree {degree}: basis change is not invertible")


def check_oracle(lie2) -> None:
    golden = oracle.load_golden()
    fx = workloads.fixtures(lie2.catalog)
    rng = random.Random(7)
    Job = workloads.Job
    jobs = [Job(f"{n}/F2", "pipeline",
                inputs.change_basis(fx[n], rng).to_text(), f"{n}/F2")
            for n in ("heis3", "w11_p2", "gl2", "o3", "sl2")]
    jobs += [Job(f"{n}/GF4", "pipeline",
                 inputs.change_basis(inputs.over_field(fx[n], 2), rng).to_text(), f"{n}/GF4")
             for n in ("heis3", "gl2")]
    jobs += [Job("paper-s4", "cli", workloads.paper_argvs()["paper-s4"], "paper-s4"),
             Job("census-d3", "cli", workloads.census_argvs(0)["census-d3"],
                 "census-d3")]
    workdir = os.path.join(run.OUT, f"selftest-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        _, done = run.run_pass(lie2, jobs, workdir, run.lru_caches())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    def failed(check):
        return sum(bool(check.check(job, outcome)) for job, _, _, outcome in done)

    true = oracle.Oracle(golden)
    expect(failed(true) == 0, [true.check(j, o) for j, _, _, o in done])

    wrong_rank = copy.deepcopy(oracle.PIPELINE)
    wrong_rank["gl2/F2"]["rank_lb"] = 1
    wrong_rank["heis3/GF4"]["nil_dim"] = 2
    expect(failed(oracle.Oracle(golden, wrong_rank)) == 2, "corrupted invariants not caught")

    wrong_digest = copy.deepcopy(golden)
    wrong_digest["census-d3"]["sha256"] = "0" * 64
    wrong_digest["paper-s4"]["exit"] = 1
    expect(failed(oracle.Oracle(wrong_digest)) == 2, "corrupted reports not caught")


def check_metric_lists() -> None:
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    expect([(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END,
           "end-to-end metrics differ from run.py")
    expect([(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] ==
           [row[:3] for row in layers.LAYERS], "per-layer metrics differ from layers.py")
    expect([w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS),
           "workloads differ from workloads.py")
    span_names = {t[0] for t in layers.TARGETS}
    for name, *_ in layers.LAYERS:
        stem, _, leaf = name.rpartition(".")
        expect(leaf not in ("calls", "self_s") or stem in span_names, f"no span for {name}")


def check_tail() -> None:
    for jobs_per_pass in range(1, 40):
        for passes in range(1, 8):
            n = jobs_per_pass * passes
            if n <= 10:
                continue
            pct = run.tail_percentile(jobs_per_pass, passes)
            rank = max(1, -(-pct * n // 100))
            expect(n - rank >= 10, f"p{pct} of {n} jobs leaves fewer than 10 beyond")


def main() -> int:
    try:
        lie2 = run.import_lie2()
        check_generator(lie2)
        check_oracle(lie2)
        check_metric_lists()
        check_tail()
    except (SelfTestFailure, run.BenchError) as exc:
        print(f"selftest FAILED: {exc}", file=sys.stderr)
        return 1
    print("selftest ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
