"""The maximal torus search at the scale of a real simple algebra.

Runs `max_tori` on psl4 read over GF(4) (its F2 structure constants taken
as GF(4) ones, 4^14 = 2^28 vectors swept) and on sl5 over F2 (2^24), and
checks rank, exhaustiveness and the number of nonzero fixpoints.  For each
it prints the seconds spent on the fixpoint tables, the commutation graph
and the branch and bound, the node count and the peak RSS of the process so
far (name one case per run to read its own peak).
psl4 over GF(4) takes minutes and several hundred MB, nearly all of it in
the commutation graph, so this is no tier-1 test (no test_ prefix, pytest
does not collect it); sl5 alone takes about a second and has a tier-1
twin, `test_max_tori_sl5_exhaustive`.  Run from the repository root:

    PYTHONPATH=src python3 tests/scale_tori.py [psl4-gf4] [sl5]
"""
from __future__ import annotations

import resource
import sys
import time

from lie2 import RestrictedAlgebra, catalog, toruscartan
from lie2.field import GF
from lie2.liealg import LieAlgebra, _sl_entry

# name: (entry, field degree, sweep budget, rank, nonzero fixpoints)
CASES = {
    "psl4-gf4": (lambda: catalog("psl4"), 2, 1 << 28, 2, 69888),
    "sl5": (lambda: _sl_entry(5), 1, 1 << 24, 4, 10416),
}


def timed(fn, spent: list):
    def wrapper(*args, **kwargs):
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            spent.append(time.perf_counter() - start)
    return wrapper


def run(name: str) -> None:
    make, degree, budget, rank, fixpoints = CASES[name]
    entry = make()
    alg = LieAlgebra(GF(degree), entry.algebra.dim, entry.algebra.table, name=name)
    ra = RestrictedAlgebra(alg, entry.two_map)
    sweep, graph = [], []
    real = toruscartan._fixpoints, toruscartan._commutation_graph
    toruscartan._fixpoints = timed(real[0], sweep)
    toruscartan._commutation_graph = timed(real[1], graph)
    try:
        start = time.perf_counter()
        rep = toruscartan.max_tori(ra, sweep_budget=budget)
        total = time.perf_counter() - start
    finally:
        toruscartan._fixpoints, toruscartan._commutation_graph = real
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"{name}: rank {rep.rank_lb}, {rep.method}, {rep.fixpoints_seen} fixpoints, "
          f"{rep.nodes} nodes; fixpoints {sum(sweep):.1f} s, graph {sum(graph):.1f} s, "
          f"search {total - sum(sweep) - sum(graph):.1f} s, total {total:.1f} s, "
          f"peak RSS {peak:.0f} MB", flush=True)
    assert (rep.rank_lb, rep.exhaustive, rep.fixpoints_seen) == (rank, True, fixpoints)


if __name__ == "__main__":
    for case in sys.argv[1:] or list(CASES):
        run(case)
