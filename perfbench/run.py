#!/usr/bin/env python3
"""lie2 benchmark: one workload in one process, tracing off or on.

    python3 perfbench/run.py --workload structure --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the program is imported from
./src.  A run generates its inputs from --seed, then runs whole passes over
the workload's job list (closed loop, one job after another, one thread)
until the next pass would end after --seconds, with at least MIN_PASSES
passes.  Pass i of an untraced run draws its inputs from (seed, i), so a
run averages over several inputs; a traced run repeats the inputs of pass
0, so its per-layer counts repeat exactly.  Every lru_cache of lie2 is
cleared before each pass, so every pass pays the table set-up a
command-line user pays.  Every job's answer is checked against oracle.py.

--trace 0 prints the end-to-end metrics, job times both in seconds and in
units of a fixed reference loop timed next to each job ("ref", see
END_TO_END); --trace 1 alternates untraced and traced passes and prints
the per-layer metrics of layers.py, including the tracing overhead (mean
traced minus mean untraced pass).
The last line of standard output is one JSON object: {"correct",
"attempted", "failed", "metrics"}.  A fuller record with machine and build
information goes to .perfbench/results/, spans of traced runs to
.perfbench/traces/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench")

import layers  # noqa: E402
import oracle  # noqa: E402
import workloads  # noqa: E402

# Job times are reported twice: in seconds, and in units of reference_loop()
# timed next to each job (unit "ref").  On a shared machine the CPU speed
# changes by up to 2x for seconds to minutes; the reference loop slows with
# it, so "ref" times stay steady where seconds do not, while any change in
# the program moves them in full.  BENCHMARK.json bounds END_TO_END; the
# job percentiles are printed and recorded only, because on workloads with
# a few distinct job kinds (census: 4 per pass) they are read at the edge of
# one kind's samples and spread past the largest bound over ten seeds.
END_TO_END = [("setup_s", "s"), ("wall_ref", "ref"), ("peak_rss_mb", "MB"),
              ("certified_frac", "frac")]
PRINTED = [("job_p50_ref", "ref"), ("job_tail_ref", "ref"), ("wall_s", "s"),
           ("job_p50_ms", "ms"), ("job_tail_ms", "ms"), ("reference_ms", "ms")]

# the job-time tail is read at a fixed percentile per workload: the highest
# one with at least 10 jobs beyond it in MIN_PASSES passes, so a faster
# program that fits more passes into a run still reports the same percentile
MIN_PASSES = {"paper": 3, "structure": 3, "census": 5, "extension": 3}
SETUP_PROBES = 5


class BenchError(Exception):
    """The benchmark cannot run here (no program source, a broken probe)."""


def import_lie2():
    """Import lie2 from ./src of the checkout, and from nowhere else."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "lie2", "__init__.py")):
        raise BenchError(f"no lie2 source under {src}")
    sys.path.insert(0, src)
    import lie2
    import lie2.cli
    import lie2.search
    if os.path.dirname(os.path.dirname(os.path.abspath(lie2.__file__))) != src:
        raise BenchError(f"lie2 was imported from {lie2.__file__}, not from {src}")
    return lie2


def machine_info(lie2) -> dict:
    import importlib.util
    import numpy
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "census_backend": lie2.search.census_backend(),
        "commit": git_commit(),
    }


def git_commit() -> str:
    """HEAD of the checkout if it is a git work tree, else "unknown"."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def lru_caches() -> list:
    """Every functools cache in the loaded lie2 modules."""
    mods = [m for k, m in sys.modules.items() if k == "lie2" or k.startswith("lie2.")]
    found = {id(v): v for m in mods for v in vars(m).values()
             if callable(v) and hasattr(v, "cache_clear")}
    return list(found.values())


def measure_setup(workload: str, seed: int) -> list:
    """Seconds from interpreter start until the inputs exist, once per probe."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), "--setup-probe",
             "--workload", workload, "--seed", str(seed), "--seconds", "0"],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        try:
            line = proc.stdout.readline()
            dt = time.perf_counter() - t0
            _, err = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if line.strip() != b"ready" or proc.returncode != 0:
            raise BenchError("setup probe failed: " + err.decode(errors="replace")[-500:])
        times.append(dt)
    return times


def reference_loop() -> int:
    """A fixed pure-Python loop of about 10 ms: dict, tuple and int work."""
    table = {(i, j): (i * 7 + j) & 255 for i in range(40) for j in range(40)}
    acc = 0
    rows = []
    for _ in range(40):
        for (i, j), v in table.items():
            acc ^= v & (i | j)
            rows.append((acc, i))
        rows.clear()
    return acc


def time_reference() -> float:
    t0 = time.perf_counter()
    reference_loop()
    return time.perf_counter() - t0


def run_pass(lie2, jobs, workdir: str, caches: list, tracer=None, first_id: int = 0):
    """One pass over the job list.

    Returns (seconds of job time, [(job, seconds, reference seconds, outcome)]);
    a job's reference time is the mean of the reference loops just before
    and just after it.
    """
    for cached in caches:
        cached.cache_clear()
    done = []
    ref_before = time_reference()
    for i, job in enumerate(jobs):
        if tracer is not None:
            tracer.job = first_id + i
        t0 = time.perf_counter()
        try:
            if job.kind == "cli":
                outcome = workloads.run_cli(lie2, job.payload,
                                            os.path.join(workdir, f"{i}.json"))
            else:
                outcome = workloads.run_pipeline(lie2, job.payload, job.kind)
        except Exception as exc:  # a traceback is a failed job, not a crash
            outcome = {"unexpected": traceback.format_exception_only(exc)[-1].strip()}
        seconds = time.perf_counter() - t0
        ref_after = time_reference()
        done.append((job, seconds, (ref_before + ref_after) / 2, outcome))
        ref_before = ref_after
    wall = sum(d[1] for d in done)
    for *_, outcome in done:
        path = outcome.get("report")
        if path is not None and os.path.exists(path):
            with open(path, "rb") as fh:
                outcome["bytes"] = fh.read()
            os.remove(path)
    return wall, done


def nearest_rank(sorted_values: list, pct: int) -> float:
    return sorted_values[max(0, math.ceil(pct / 100 * len(sorted_values)) - 1)]


def tail_percentile(jobs_per_pass: int, passes: int) -> int:
    n = jobs_per_pass * passes
    return max(0, math.floor(100 * (n - 10) / n))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    try:
        lie2 = import_lie2()
        jobs = workloads.make_jobs(args.workload, args.seed, lie2.catalog)
        if args.setup_probe:
            print("ready", flush=True)
            return 0
        return measure(args, lie2, jobs)
    except BenchError as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2


def measure(args, lie2, jobs) -> int:
    check = oracle.Oracle(oracle.load_golden())
    machine = machine_info(lie2)
    caches = lru_caches()
    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    setup = [] if args.trace else measure_setup(args.workload, args.seed)

    tracer = layers.Tracer() if args.trace else None
    passes = []      # (wall, done, traced)
    try:
        t_begin = time.perf_counter()
        need = 1 if args.trace else MIN_PASSES[args.workload]
        while True:
            # a traced run alternates untraced and traced passes of the same inputs
            for traced in ((False, True) if args.trace else (False,)):
                variant = 0 if args.trace else len(passes)
                todo = jobs if variant == 0 else \
                    workloads.make_jobs(args.workload, args.seed, lie2.catalog, variant)
                if traced:
                    tracer.install()
                try:
                    wall, done = run_pass(lie2, todo, workdir, caches,
                                          tracer if traced else None,
                                          sum(len(p[1]) for p in passes))
                finally:
                    if traced:
                        tracer.uninstall()
                passes.append((wall, done, traced))
            rounds = len(passes) // (2 if args.trace else 1)
            elapsed = time.perf_counter() - t_begin
            if rounds >= need and elapsed * (rounds + 1) / rounds > args.seconds:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failures = []    # one line per failed job
    for _, done, _ in passes:
        for job, _, _, outcome in done:
            reasons = check.check(job, outcome)
            if reasons:
                failures.append(f"{job.name}: {'; '.join(reasons)}")
    attempted = sum(len(p[1]) for p in passes)
    if args.workload == "census":
        compared, disagreements = workloads.backend_agreement(lie2, machine)
        attempted += compared
        failures += disagreements
    measured = [p for p in passes if p[2] == bool(args.trace)]
    walls = [p[0] for p in measured]
    done = [d for p in measured for d in p[1]]
    pct = tail_percentile(len(jobs), MIN_PASSES[args.workload])

    print(f"workload {args.workload}, seed {args.seed}, {len(measured)} "
          f"{'traced ' if args.trace else ''}passes of {len(jobs)} jobs")
    print("machine " + json.dumps(machine, sort_keys=True))
    print(f"fail_frac: {len(failures) / attempted:.6g} "
          f"({len(failures)} failed of {attempted} jobs)")
    for reason in failures[:20]:
        print(f"  FAILED {reason}")
    printed = {}
    if args.trace:
        report_bytes = sum(len(d[3].get("bytes", b"")) for d in measured[0][1])
        metrics = tracer.layer_metrics(
            len(measured), report_bytes, statistics.mean(walls),
            statistics.mean(p[0] for p in passes if not p[2]))
        units = {name: unit for name, unit, *_ in layers.LAYERS}
        os.makedirs(os.path.join(OUT, "traces"), exist_ok=True)
        tracer.write(os.path.join(OUT, "traces", f"{args.workload}-seed{args.seed}.npz"))
        for name in tracer.missing:
            print(f"  not traced (absent in this version): {name}")
        for name, reason in layers.NOT_MEASURABLE.items():
            print(f"  not measurable from outside: {name}: {reason}")
    else:
        times = sorted(d[1] for d in done)
        rel = sorted(d[1] / d[2] for d in done)
        tori = [d[3]["certified"] for d in done if "certified" in d[3]]
        metrics = {
            "setup_s": statistics.median(setup),
            "wall_ref": statistics.mean(sum(d[1] / d[2] for d in p[1]) for p in measured),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "certified_frac": sum(tori) / len(tori) if tori else 1.0,
        }
        units = dict(END_TO_END)
        printed = {"job_p50_ref": nearest_rank(rel, 50),
                   "job_tail_ref": nearest_rank(rel, pct),
                   "wall_s": statistics.mean(walls),
                   "job_p50_ms": nearest_rank(times, 50) * 1000,
                   "job_tail_ms": nearest_rank(times, pct) * 1000,
                   "reference_ms": statistics.median(d[2] for d in done) * 1000}
        print(f"wall is the job time of a pass, mean of {len(walls)} passes; job tail is "
              f"p{pct} of n={len(times)} jobs; certified_frac over {len(tori)} max_tori "
              f"calls (1 when there are none)")
        for name, unit in PRINTED:
            print(f"{name}: {printed[name]:.6g} {unit}")
    for name, value in metrics.items():
        print(f"{name}: {value:.6g} {units[name]}")

    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    job_times = {}
    for job, t, ref, _ in done:
        job_times.setdefault(job.name, []).append([t, ref])
    record = dict(result, workload=args.workload, seed=args.seed, trace=args.trace,
                  seconds=args.seconds, machine=machine, pass_walls=walls,
                  setup_samples=setup, printed=printed, tail_percentile=pct,
                  job_times=job_times, failures=failures)
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    with open(os.path.join(OUT, "results", f"{args.workload}-seed{args.seed}-"
                           f"trace{args.trace}-{stamp}-{os.getpid()}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
