"""Census of bracket tables: exhaustive at tiny dimensions, sampled above.

Exhaustive mode enumerates every structure-constant table over F2 for
dimensions up to 4 (at most 24 bits per table); sampled mode draws tables
over GF(2^k) from a counter-based deterministic stream instead, so reports
are reproducible from the seed alone.  Both modes run on one numpy engine
for every field.  The C(n,2) basis brackets of a table are indexed by pair,
(i, j) with i < j at index i*(2n-i-1)/2 + (j-i-1), and each bracket is k
bit-planes: plane t is an n-bit field whose bit m is bit t of coordinate m,
so over F2 a bracket is its single n-bit field.  The engine keeps one uint8
array per plane, one candidate table per array slot, and evaluates the
Jacobi identity with in-place bitwise ufuncs, one basis triple at a time:
a term adds bit m of plane t of one bracket times plane s of another to
accumulator plane t + s, and the 2k - 1 accumulator planes are reduced once
per triple by the modulus taps, after which a table passes when all k
planes are zero.  After each triple only the surviving slots are kept: the
plane arrays are gathered down to them, so later triples run on the few
tables left (a random table rarely passes even the first triple).

The exhaustive scan enumerates the low fields only and solves the last
field h = [e_{n-2}, e_{n-1}]: a triple without both n-2 and n-1 has no
p-pair equal to h, so h is only ever the q of its terms, and its residual
is P + c h, with c in F2 the sum of the term bits.  So a low position
admits every h (all c = 0 and all P = 0), exactly one (h = P), or none.
The solve loops over the outermost low field in Python, on cache-sized
planes of the fields below it (_solve_last_field).  The candidates' low
planes are then read off their positions by shift and mask, and one
kernel call runs every triple on them: first the triples with both n-2
and n-1, which the solve leaves open, then the linear ones, which it
already satisfies, on the few candidates left.

Survivors are decided in bulk on integer coefficient arrays c[p, m, s],
coordinate m of bracket p of candidate s.  Sampled survivors have their
Jacobi identity evaluated again on those arrays, every product one
exp/log lookup (_jacobi_holds), which shares no code with the plane
kernel; a survivor that fails it is an internal fault.  In dimension 3 a
Lie table is simple exactly when it is perfect, [g, g] = g, because a
quotient by a proper nonzero ideal would be a perfect algebra of
dimension 1 or 2, and there is none; it is perfect when its 3 x 3
bracket matrix has nonzero determinant over GF(2^k) (_perfect3), at
every k.  Above dimension 3 liealg.is_simple decides, on the tables that
pass a span filter (_spans_all): the bracket planes span F2^n exactly
when no nonzero functional vanishes on all of them, and brackets that
span GF(2^k)^n, as those of a simple (so perfect) algebra do, have
planes that span F2^n.  Only the algebras a report shows become
LieAlgebras, each checked by validate_lie: the first simple survivor in
sample order, or over F2 in dimension <= 4 the representative of each
GL(n, 2) orbit.  Simple tables then get a two-map synthesis and, when
restrictable, a toral rank.

Sampled F2 planes are copied out of each block of stream words while it
is in cache.  The LIE2_BACKEND environment variable may name the engine
(auto or numpy) but cannot pick another.  Simple tables over F2 of
dimension <= 4 are grouped into GL(n, 2) orbits by one vectorised change
of basis over every matrix of field.gl_matrices, and iso_match reads its
witness off the same array, as the 0/1 rows of the basis change.  Every
other census reports all its simple tables as one class, grouping
"invariant_signature": that signature (derived series, lower central
series, centre dimension) is (n), (n), 0 on every simple algebra, so the
class is not an isomorphism class.
"""

from __future__ import annotations

import os
import time
from dataclasses import asdict, dataclass
from functools import lru_cache
from itertools import combinations
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .errors import (BudgetExceeded, DimensionTooLarge, InternalInconsistency,
                     InvalidInput)
from .field import FIELD_CAVEAT, GF, GF2, gl_matrices, pack_bits
from .liealg import (LieAlgebra, center, derived_series, is_simple,
                     lower_central_series, validate_lie)
from .restricted import RestrictedAlgebra, synthesize_two_map
from .toruscartan import max_tori

_EXHAUSTIVE_MAX_BITS = 24
# Tables per sampled F2 block, the knee of a sweep of perfbench's census
# workload (medians of 25 s runs, 2-vCPU Xeon VM): peak RSS 53.6 MB at 2^20
# tables, 47.0 MB at 2^19 and 45.2 MB at 2^18 (2.6 MB of planes per dim-5
# block), wall_ref no worse; 2^17 reached 44.4 MB but wall_ref 3-16% worse.
_F2_BLOCK = 1 << 18
# Structure constants per sampled GF(2^k) block: blocks 4x smaller ran
# 10-25% slower on the GF(16) dim-4, GF(4) dim-5 and GF(256) dim-3 censuses.
_GF_BLOCK = 1 << 20
_MIX_BLOCK = 1 << 14
GOLDEN = 0x9E3779B97F4A7C15
MASK64 = (1 << 64) - 1


def census_backend() -> str:
    """Name of the census engine; LIE2_BACKEND must be unset, auto or numpy."""
    mode = os.environ.get("LIE2_BACKEND", "auto").strip().lower()
    if mode not in ("auto", "numpy"):
        raise InvalidInput(f"unknown backend {mode!r}")
    return "numpy"


@dataclass(frozen=True)
class CensusSpec:
    """What to scan: dimension, field degree and sampling.

    `threads` is accepted, validated and echoed in the report for
    compatibility; the census engine is single-threaded and ignores it.
    """
    dim: int
    field_degree: int = 1
    sample_count: Optional[int] = None
    seed: int = 0
    threads: int = 1

    def __post_init__(self):
        if not 1 <= self.dim <= 6:
            raise InvalidInput("census covers dimensions 1 through 6")
        if not 1 <= self.field_degree <= 16:
            raise InvalidInput("field degree must be between 1 and 16")
        if self.threads < 1:
            raise InvalidInput("thread budget must be positive")
        if not 0 <= self.seed <= MASK64:
            raise InvalidInput("seed must be between 0 and 2^64 - 1")
        if self.sample_count is None:
            bits = self.dim * self.dim * (self.dim - 1) // 2
            if self.field_degree != 1 or bits > _EXHAUSTIVE_MAX_BITS:
                raise InvalidInput(
                    "exhaustive census needs field degree 1 and dimension <= 4; "
                    "use --sample beyond that")
        else:
            if self.sample_count < 1:
                raise InvalidInput("sample count must be positive")
            if self.sample_count > 1 << 28:
                raise BudgetExceeded("sample count beyond 2^28")


@dataclass
class CensusReport:
    dim: int
    field_degree: int
    mode: str
    candidates_scanned: int
    jacobi_pass: int
    simple_count: int
    restrictable_simple_count: int
    simple_iso_classes: List[dict]
    sample_count: Optional[int]
    seed: Optional[int]
    threads: int
    backend: str
    runtime_ms: int
    caveat: str = FIELD_CAVEAT

    def to_json(self) -> dict:
        return asdict(self)


# ---------------------------------------------------------------------------
# table <-> algebra conversion


def pair_index(i: int, j: int, n: int) -> int:
    """Field index of the basis pair (i, j), i < j, in lexicographic order."""
    return i * (2 * n - i - 1) // 2 + (j - i - 1)


def table_to_algebra(n: int, t: int, name: str = "") -> LieAlgebra:
    """Bracket table integer to a LieAlgebra over F2."""
    nmask = (1 << n) - 1
    table = {}
    for i in range(n):
        for j in range(i + 1, n):
            c = (t >> (n * pair_index(i, j, n))) & nmask
            if c:
                table[(i, j)] = tuple((c >> m) & 1 for m in range(n))
    return LieAlgebra(GF2, n, table, name=name)


def algebra_to_table(alg: LieAlgebra) -> int:
    """Packed table integer of an F2 algebra (inverse of table_to_algebra)."""
    if alg.gf.degree != 1:
        raise InvalidInput("packed tables are defined over F2 only")
    t = 0
    for (i, j), c in alg.table.items():
        t |= pack_bits(c) << (alg.dim * pair_index(i, j, alg.dim))
    return t


# ---------------------------------------------------------------------------
# GL(n, 2) data


@lru_cache(maxsize=None)
def _gl_arrays(n: int):
    mats = np.array(gl_matrices(n), dtype=np.int64)  # (g, 2, n): rows, inverse rows
    rows, invrows = np.ascontiguousarray(mats.transpose(1, 0, 2))
    bit = np.arange(n)
    # column c gathers bit c of every row r into bit r
    cols = ((rows[:, :, None] >> bit & 1) << bit[:, None]).sum(axis=1)
    parity = np.array([bin(v).count("1") & 1 for v in range(1 << n)], dtype=np.int64)
    return cols, invrows, parity


def _basis_changes(n: int, t: int) -> np.ndarray:
    """Table t pulled back through every GL(n, 2) matrix, in gl_matrices order.

    Entry g is the table s with M [x, y]_s = [M x, M y]_t for the matrix M
    of entry g, so M is an isomorphism from s onto t.
    """
    cols, invrows, parity = _gl_arrays(n)
    nmask = (1 << n) - 1
    g = cols.shape[0]
    new = np.zeros(g, dtype=np.int64)
    for i in range(n):
        x = cols[:, i]
        for j in range(i + 1, n):
            y = cols[:, j]
            v = np.zeros(g, dtype=np.int64)
            for a in range(n):
                xa = (x >> a) & 1
                ya = (y >> a) & 1
                for c in range(a + 1, n):
                    fld = (t >> (n * pair_index(a, c, n))) & nmask
                    if not fld:
                        continue
                    s = (xa & ((y >> c) & 1)) ^ (((x >> c) & 1) & ya)
                    v ^= s * fld
            w = np.zeros(g, dtype=np.int64)
            for r in range(n):
                w |= parity[invrows[:, r] & v] << r
            new |= w << (n * pair_index(i, j, n))
    return new


def table_orbit(n: int, t: int) -> set:
    """All tables reachable from t by a GL(n, 2) change of basis."""
    return set(_basis_changes(n, t).tolist())


def canonical_table(n: int, t: int) -> int:
    """Least table in the GL(n, 2) orbit."""
    return min(table_orbit(n, t))


def _invariant_signature(alg: LieAlgebra):
    return (tuple(derived_series(alg).dims),
            tuple(lower_central_series(alg).dims),
            center(alg).dim)


def iso_match(a: LieAlgebra, b: LieAlgebra) -> Optional[Tuple[Tuple[int, ...], ...]]:
    """Bracket-preserving basis change from a to b, by exhaustive GL sweep.

    The answer is the first such matrix in gl_matrices order, as a tuple of
    0/1 row tuples.
    """
    if a.gf != b.gf or a.dim != b.dim:
        raise InvalidInput("iso_match needs matching dimension and field")
    if a.gf.degree != 1:
        raise InvalidInput("the exhaustive GL sweep runs over F2 only")
    if a.dim > 4:
        raise DimensionTooLarge("GL sweep is limited to dimension 4")
    if _invariant_signature(a) != _invariant_signature(b):
        return None
    n = a.dim
    hits = np.flatnonzero(_basis_changes(n, algebra_to_table(b))
                          == algebra_to_table(a))
    if hits.size == 0:
        return None
    rows, _inv = gl_matrices(n)[int(hits[0])]
    return tuple(tuple((row >> c) & 1 for c in range(n)) for row in rows)


# ---------------------------------------------------------------------------
# deterministic counter-based sampling stream


def _mixed_words(seed: int, start: int, count: int,
                 words_per: int) -> Iterator[Tuple[int, int, int, np.ndarray]]:
    """Yield (lo, hi, w, x): x holds word w of candidates lo..hi-1.

    Word w of candidate i uses counter i*words_per + w + 1, whose state
    seed + counter * GOLDEN is base_i + (w + 1) * GOLDEN, base_i = seed +
    i * words_per * GOLDEN (mod 2^64).  Candidates go in blocks of
    _MIX_BLOCK, mixed in place on two reused buffers that stay in cache;
    x is one, valid and the caller's to change until the next word.
    """
    x = np.empty(min(count, _MIX_BLOCK), dtype=np.uint64)
    t = np.empty_like(x)
    for lo in range(0, count, _MIX_BLOCK):
        hi = min(count, lo + _MIX_BLOCK)
        base = np.arange(start + lo, start + hi, dtype=np.uint64)
        np.multiply(base, np.uint64(words_per * GOLDEN & MASK64), out=base)
        np.add(base, np.uint64(seed & MASK64), out=base)
        xb, tb = x[:hi - lo], t[:hi - lo]
        for w in range(words_per):
            np.add(base, np.uint64((w + 1) * GOLDEN & MASK64), out=xb)
            for shift, mul in ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB)):
                np.right_shift(xb, np.uint64(shift), out=tb)
                np.bitwise_xor(xb, tb, out=xb)
                np.multiply(xb, np.uint64(mul), out=xb)
            np.right_shift(xb, np.uint64(31), out=tb)
            np.bitwise_xor(xb, tb, out=xb)
            yield lo, hi, w, xb


def splitmix64_words(seed: int, start: int, count: int, words_per: int) -> np.ndarray:
    """The stream words of candidates start..start+count-1, one row each."""
    out = np.empty((count, words_per), dtype=np.uint64)
    for lo, hi, w, x in _mixed_words(seed, start, count, words_per):
        out[lo:hi, w] = x
    return out


def bytes_from_words(words: np.ndarray, nbytes: int) -> np.ndarray:
    """The first nbytes bytes of each row of words, least significant first."""
    le = words.astype("<u8", copy=False).view(np.uint8)
    return le.reshape(words.shape[0], -1)[:, :nbytes]


# ---------------------------------------------------------------------------
# vectorised census engine: a bracket over GF(2^k) is k bit-planes, each a
# uint8 array with one candidate table per slot


def _triple_terms(n: int, i: int, j: int, k: int) -> List[Tuple[int, int, int]]:
    """Terms (p, m, q) of the Jacobi residual of the basis triple i < j < k.

    [[e_i, e_j], e_k] + [[e_j, e_k], e_i] + [[e_i, e_k], e_j] is the sum of
    field q times coordinate m of field p, where [v, e_c] is the sum over
    m != c of field (m, c) times coordinate m of v.
    """
    out = []
    for p, c in ((pair_index(i, j, n), k), (pair_index(j, k, n), i),
                 (pair_index(i, k, n), j)):
        out.extend((p, m, pair_index(min(m, c), max(m, c), n))
                   for m in range(n) if m != c)
    return out


def _add_terms(acc: np.ndarray, b: Sequence[np.ndarray], terms, term: np.ndarray,
               k: int = 1) -> None:
    """XOR the residual terms over the bit-planes b into acc, in place.

    Plane t of field p is b[p*k + t], and term (p, m, q) adds bit m of plane
    t of field p times plane s of field q to accumulator plane acc[t + s].
    """
    for p, m, q in terms:
        for s, fq in enumerate(b[q * k:(q + 1) * k]):
            for t, fp in enumerate(b[p * k:(p + 1) * k]):
                np.right_shift(fp, m, out=term)
                np.bitwise_and(term, 1, out=term)
                np.multiply(term, fq, out=term)
                np.bitwise_xor(acc[t + s], term, out=acc[t + s])


def _jacobi_positions(b: Sequence[np.ndarray], n: int, size: int,
                      gf: GF = GF2) -> np.ndarray:
    """Positions of the candidates with bit-planes b over gf that pass Jacobi.

    A triple's residual is summed into the 2k - 1 planes of a polynomial
    product, reduced once by the modulus taps (plane d >= k is alpha^(d-k)
    times the taps), and a candidate passes when its k reduced planes are
    zero.  Basis triples run one at a time, and after each only the
    surviving positions are kept: the planes are gathered down to them, so
    the next triple runs on the few candidates left.  The triples with both
    n-2 and n-1 run first: the exhaustive scan's candidates already pass
    the others, which its last-field solve satisfies, so those run last,
    on the fewest candidates.  Order does not change the positions.
    """
    if n < 3:
        return np.arange(size)
    k, taps = gf.degree, gf.modulus ^ gf.order
    pos = None
    acc_buf = np.empty((2 * k - 1, size), dtype=np.uint8)
    term_buf = np.empty(size, dtype=np.uint8)
    planes = list(b)
    triples = sorted(combinations(range(n), 3), key=lambda tr: tr[1:] != (n - 2, n - 1))
    for t, triple in enumerate(triples):
        if t:
            planes = [f[keep] for f in planes]
        live = size if pos is None else pos.size
        acc = acc_buf[:, :live]
        acc.fill(0)
        _add_terms(acc, planes, _triple_terms(n, *triple), term_buf[:live], k)
        for d in range(2 * k - 2, k - 1, -1):
            for u in range(k):
                if (taps >> u) & 1:
                    np.bitwise_xor(acc[d - k + u], acc[d], out=acc[d - k + u])
        for d in range(1, k):
            np.bitwise_or(acc[0], acc[d], out=acc[0])
        keep = np.flatnonzero(acc[0] == 0)
        pos = keep if pos is None else pos[keep]
        if pos.size == 0:
            break
    return pos


def _spans_all(b: Sequence[np.ndarray], n: int) -> np.ndarray:
    """Whether the planes b span F2^n, per candidate (n <= 6).

    They do when no functional l != 0 vanishes on all of them.  mask[v] is
    the 2^n-bit set of l with l.v = 1 (l & v of odd weight), the XOR over
    the bits i of v of the set of l with bit i, so the planes span when the
    OR of their masks is every l != 0.
    """
    v = np.arange(1 << n, dtype=np.uint64)
    bits = (v[:, None] >> np.arange(n, dtype=np.uint64)) & np.uint64(1)
    mask = np.bitwise_xor.reduce(bits * np.bitwise_or.reduce(bits << v[:, None], axis=0),
                                 axis=1)
    seen = np.zeros(len(b[0]), dtype=np.uint64)
    for plane in b:
        np.bitwise_or(seen, mask[plane], out=seen)
    return seen == np.uint64((1 << (1 << n)) - 2)


@lru_cache(maxsize=None)
def _log_exp(gf: GF) -> Tuple[np.ndarray, np.ndarray]:
    """(log, exp) of gf as arrays, with log 0 = 2(q - 1) and exp zero from
    there on, so that exp[log a + log b] = a b for all a, b in gf."""
    exp, log = gf.tables
    zero = len(exp)  # 2(q - 1), above every sum of two logs of units
    logs = np.array(log, dtype=np.int32)
    logs[0] = zero
    return logs, np.array(exp + [0] * (zero + 1), dtype=np.int32)


def _coefficients(gf: GF, n: int, planes: np.ndarray) -> np.ndarray:
    """Coefficient arrays c[p, m, s]: coordinate m of bracket p of the
    candidate with bit-planes planes[:, s], shape (pairs * k, count)."""
    npairs, k, count = n * (n - 1) // 2, gf.degree, planes.shape[1]
    bits = planes.reshape(npairs, k, 1, count) >> np.arange(n, dtype=np.uint8)[:, None]
    return ((bits & 1).astype(np.int32) << np.arange(k, dtype=np.int32)[:, None, None]
            ).sum(axis=1, dtype=np.int32)


def _coefficient_algebra(gf: GF, n: int, c: np.ndarray) -> LieAlgebra:
    """The LieAlgebra over gf of one table's coefficient array c[p, m]."""
    return LieAlgebra(gf, n, dict(zip(combinations(range(n), 2), c.tolist())))


def _jacobi_holds(gf: GF, n: int, c: np.ndarray) -> np.ndarray:
    """Whether each table with coefficient arrays c[p, m, s] satisfies the
    Jacobi identity on every basis triple (n >= 3).

    Coordinate r of [[e_x, e_y], e_z] is the sum over m of [e_x, e_y]_m
    [e_m, e_z]_r, each product one exp/log lookup, and a triple i < j < k
    adds the three cyclic terms (x, y, z) = (i, j, k), (j, k, i), (k, i,
    j).  It shares no code with the bit-plane kernel, so it is an
    independent second check of the kernel's survivors.
    """
    log, exp = _log_exp(gf)
    lc = log[c]
    # la[a, b, m] is the log of coordinate m of [e_a, e_b], and [e_a, e_a] = 0
    la = np.full((n, n, n, c.shape[2]), log[0], dtype=np.int32)
    for p, (a, b) in enumerate(combinations(range(n), 2)):
        la[a, b] = la[b, a] = lc[p]
    ok = np.ones(c.shape[2], dtype=bool)
    for i, j, k in combinations(range(n), 3):
        terms = exp[la[[i, j, k], [j, k, i]][:, :, None] + la[:, [k, i, j]].swapaxes(0, 1)]
        ok &= ~np.bitwise_xor.reduce(terms, axis=(0, 1)).any(axis=0)
    return ok


def _perfect3(gf: GF, c: np.ndarray) -> np.ndarray:
    """Whether each dim-3 table with coefficient arrays c[p, m, s] is
    perfect, that is whether its three brackets, the rows of c[:, :, s],
    are independent: the determinant is nonzero.  In characteristic 2 it
    is the sum over columns m of c[0, m] times the minor of rows 1, 2
    without column m."""
    log, exp = _log_exp(gf)
    lc = log[c]
    u, v = [1, 0, 0], [2, 2, 1]  # the two columns other than m = 0, 1, 2
    minor = exp[lc[1, u] + lc[2, v]] ^ exp[lc[1, v] + lc[2, u]]
    return np.bitwise_xor.reduce(exp[lc[0] + log[minor]], axis=0) != 0


def _simple(gf: GF, n: int, planes: np.ndarray) -> np.ndarray:
    """Which Lie tables with bit-planes `planes` are simple (n >= 3).

    For n = 3 simple means perfect, [g, g] = g.  Let g be perfect of
    dimension 3 and I a proper nonzero ideal: then g/I is perfect of
    dimension 1 or 2, but a 1-dimensional algebra is abelian and a
    2-dimensional one has [g, g] spanned by its one basis bracket, so g/I
    = 0, a contradiction.  Conversely a simple algebra is perfect.  Above
    dimension 3 is_simple decides, on the tables whose planes span F2^n;
    the others are not perfect, and only the spanning ones are unpacked.
    """
    if n == 3:
        return _perfect3(gf, _coefficients(gf, n, planes))
    simple = _spans_all(planes, n)
    span = np.flatnonzero(simple)
    c = _coefficients(gf, n, planes[:, span])
    simple[span] = [is_simple(_coefficient_algebra(gf, n, c[:, :, s])).simple
                    for s in range(span.size)]
    return simple


def _solve_last_field(n: int) -> Tuple[np.ndarray, np.ndarray]:
    """(position, h) of each low position and last field h that pass the
    triples h enters linearly (n >= 3), positions ascending: first every
    position that admits all 2^n values of h, each repeated with h = 0, 1,
    ..., then those that admit exactly one.

    The outer low field o = f_{last-1}, pair (n-3, n-1), is looped over in
    Python; the fields below it are one set of 2^(n(last-1))-slot planes.
    A triple's P splits into P0, the terms that read neither o nor h,
    summed once, plus the terms that read o, which for o = v are the planes
    f_q with bit m of v set (o gives the bit) and v times the bit sum d (o
    is the multiplier).  The coefficient c of h, summed once, never reads
    o, as its terms have {m, c} = {n-2, n-1}.  Then h is the OR of the P
    with c = 1, and a position passes when P = c h on every such triple.
    """
    last = n * (n - 1) // 2 - 1
    outer, digits = last - 1, np.arange(1 << n, dtype=np.uint8)
    size = 1 << (n * outer)
    low = [np.tile(np.repeat(digits, 1 << (n * p)), 1 << (n * (outer - 1 - p)))
           for p in range(outer)]
    linear = [_triple_terms(n, *tr) for tr in combinations(range(n), 3)
              if tr[1:] != (n - 2, n - 1)]
    # all-ones planes stand in for o and h, so c and d come out as bit sums
    b = low + [np.ones(size, dtype=np.uint8)] * 2
    p0, c, d = np.zeros((3, len(linear), size), dtype=np.uint8)
    term = np.empty(size, dtype=np.uint8)
    for terms, pt, ct, dt in zip(linear, p0, c, d):
        _add_terms(pt[None], b, [t for t in terms if t[0] != outer and t[2] < outer], term)
        _add_terms(ct[None], b, [t for t in terms if t[2] == last], term)
        _add_terms(dt[None], b, [t for t in terms if t[2] == outer], term)
    free = ~c.any(axis=0)
    gives = [[(m, q) for p, m, q in terms if p == outer] for terms in linear]
    res, (h, bad) = np.empty_like(p0), np.empty((2, size), dtype=np.uint8)
    every, one, hs = [], [], []
    for v in range(1 << n):
        h.fill(0)
        for r, pt, ct, dt, gv in zip(res, p0, c, d, gives):
            np.multiply(dt, v, out=r)
            np.bitwise_xor(r, pt, out=r)
            for m, q in gv:
                if (v >> m) & 1:
                    np.bitwise_xor(r, low[q], out=r)
            np.multiply(r, ct, out=term)
            np.bitwise_or(h, term, out=h)
        bad.fill(0)
        for r, ct in zip(res, c):
            np.multiply(ct, h, out=term)
            np.bitwise_xor(term, r, out=term)
            np.bitwise_or(bad, term, out=bad)
        ok = np.flatnonzero(bad == 0)
        base, f = v << (n * outer), free[ok]
        every.append(ok[f] + base)
        sel = ok[~f]
        one.append(sel + base)
        hs.append(h[sel])
    every = np.concatenate(every)
    return (np.concatenate([np.repeat(every, 1 << n)] + one),
            np.concatenate([np.tile(digits, every.size)] + hs))


def census_exhaustive(n: int) -> Tuple[int, int, List[int]]:
    """Scan every table of dimension n: (scanned, Jacobi passes, simple).

    Below dimension 3 there is no basis triple: every table is a Lie
    algebra, and none is simple (dimension 1 is abelian, and a
    2-dimensional algebra has [g, g] spanned by its one bracket).  Above,
    only the low fields are enumerated; the last field is solved from the
    triples it enters linearly (_solve_last_field), and the kernel runs
    once, on the candidates left, with low planes read off their
    positions.  The simple tables come out ascending.
    """
    npairs = n * (n - 1) // 2
    if n < 3:
        return 1 << (n * npairs), 1 << (n * npairs), []
    last = npairs - 1
    pos, h = _solve_last_field(n)
    low = pos.astype(np.uint32)  # n * last <= 20 bits
    b = [(low >> (n * p)).astype(np.uint8) & np.uint8((1 << n) - 1)
         for p in range(last)] + [h]
    del low
    idx = _jacobi_positions(b, n, pos.size)
    planes = np.stack([f[idx] for f in b])
    tables = pos[idx] | h[idx].astype(np.int64) << (n * last)
    return (1 << (n * npairs), int(idx.size),
            sorted(tables[_simple(GF2, n, planes)].tolist()))


def _census_planes(gf: GF, n: int, planes: np.ndarray
                   ) -> Tuple[int, np.ndarray, np.ndarray]:
    """(Jacobi passes, positions, coefficients) among the candidates with
    bit-planes `planes`, shape (pairs * k, count): the positions of the
    simple tables, ascending, and their coefficient arrays c[p, m, s].

    Every survivor of the Jacobi kernel is unpacked once and checked again
    by _jacobi_holds; one that fails raises InternalInconsistency.
    """
    idx = _jacobi_positions(planes, n, planes.shape[1], gf=gf)  # n < 3: all
    if n < 3 or idx.size == 0:  # no basis triple, or no survivor: none simple
        return int(idx.size), idx[:0], np.zeros((n * (n - 1) // 2, n, 0), dtype=np.int32)
    sub = planes[:, idx]
    c = _coefficients(gf, n, sub)
    if not _jacobi_holds(gf, n, c).all():
        raise InternalInconsistency("census survivor failed Jacobi re-validation")
    simple = _simple(gf, n, sub)
    return int(idx.size), idx[simple], c[:, :, simple]


# ---------------------------------------------------------------------------
# census driver


def _run_exhaustive(n: int) -> Tuple[int, int, List[int]]:
    return census_exhaustive(n)


def _sample_planes(gf: GF, n: int, seed: int, start: int, count: int) -> np.ndarray:
    """Bit-planes of sampled tables over gf, shape (pairs * k, count).

    Row p*k + t is plane t of pair p: its bit m is bit t of coordinate m.
    Over F2 pair p takes byte p of the stream and keeps its low n bits:
    each block of words is masked whole, in place, and its bytes copied
    into their plane rows while the block is in cache.  Above F2 each
    coordinate takes one byte (two, little end first, above degree 8), and
    plane t gathers bit t of the coordinates of its pair.
    """
    npairs, k = n * (n - 1) // 2, gf.degree
    if k == 1:
        planes = np.empty((npairs, count), dtype=np.uint8)
        nmask = np.uint64(((1 << n) - 1) * 0x0101010101010101)
        for lo, hi, w, x in _mixed_words(seed, start, count, (npairs + 7) // 8):
            np.bitwise_and(x, nmask, out=x)
            le = x.astype("<u8", copy=False).view(np.uint8).reshape(-1, 8)
            for j in range(min(8, npairs - 8 * w)):
                planes[8 * w + j, lo:hi] = le[:, j]
        return planes
    per = n * (1 if k <= 8 else 2)  # stream bytes per pair
    rows = bytes_from_words(splitmix64_words(seed, start, count, (npairs * per + 7) // 8),
                            npairs * per)
    vals = (rows if k <= 8 else rows.view("<u2")).reshape(count, npairs, n)
    planes = np.zeros((npairs, k, count), dtype=np.uint8)
    for t in range(k):
        for m in range(n):
            planes[:, t] |= (((vals[:, :, m] >> t) & 1) << m).T.astype(np.uint8)
    return planes.reshape(-1, count)


def _gl_sweep(spec: CensusSpec) -> bool:
    """Whether the census groups its simple tables into GL(n, 2) orbits."""
    return spec.field_degree == 1 and spec.dim <= 4


def _run_sampled_packed(spec: CensusSpec
                        ) -> Tuple[int, int, int, Optional[LieAlgebra], List[int]]:
    """Sampled census over any field: (scanned, Jacobi passes, simple count,
    first simple algebra, simple tables).

    A census that sweeps GL(n, 2) orbits (_gl_sweep) keeps the packed
    simple tables, in sample order, and builds no algebra; any other keeps
    the first simple table in sample order, as a LieAlgebra.

    The samples are drawn, planed and Jacobi-filtered one block at a time,
    and only the block's survivors are kept, so the working set is one
    block's planes: _F2_BLOCK tables over F2, and at most _GF_BLOCK
    structure constants above.  Sample order and survivors do not depend
    on the block size, so neither does the report.
    """
    n, gf = spec.dim, GF(spec.field_degree)
    block = _F2_BLOCK if gf.degree == 1 else _GF_BLOCK // max(1, n * n * (n - 1) // 2)
    sweep = _gl_sweep(spec)
    shifts = np.arange(n * (n - 1) // 2 * n).reshape(-1, n, 1)  # bit n p + m of c[p, m]
    jac = simple = 0
    first: Optional[LieAlgebra] = None
    tables: List[int] = []
    for start in range(0, spec.sample_count, block):
        count = min(block, spec.sample_count - start)
        # no name holds the planes, so they are freed before the next block
        bjac, pos, c = _census_planes(
            gf, n, _sample_planes(gf, n, spec.seed, start, count))
        jac += bjac
        simple += pos.size
        if sweep:
            tables.extend((c.astype(np.int64) << shifts).sum(axis=(0, 1)).tolist())
        elif first is None and pos.size:
            first = _coefficient_algebra(gf, n, c[:, :, 0])
    return spec.sample_count, jac, simple, first, tables


def _class_entry(alg: LieAlgebra, size: int, table: Optional[int],
                 grouping: str) -> dict:
    from .liealg import to_json as alg_to_json
    if not validate_lie(alg, random_checks=0).ok:
        raise InternalInconsistency("census representative failed Jacobi re-validation")
    syn = synthesize_two_map(alg)
    entry = {
        "class_size": size,
        "grouping": grouping,
        "restrictable": syn.restrictable,
        "toral_rank_lb": None,
        "representative": alg_to_json(alg),
    }
    if table is not None:
        entry["representative_table"] = table
    if syn.restrictable:
        ra = RestrictedAlgebra(alg, syn.two_map)
        entry["toral_rank_lb"] = max_tori(ra).rank_lb
    return entry


def _classify_packed(n: int, tables: Sequence[int]) -> List[dict]:
    class_of: Dict[int, int] = {}
    reps: List[int] = []
    sizes: List[int] = []
    for t in tables:
        if t not in class_of:
            orbit = table_orbit(n, t)
            rep = min(orbit)
            cid = len(reps)
            for member in orbit:
                class_of[member] = cid
            reps.append(rep)
            sizes.append(0)
        sizes[class_of[t]] += 1
    out = []
    for rep, size in zip(reps, sizes):
        alg = table_to_algebra(n, rep, name=f"census_rep_{rep}")
        out.append(_class_entry(alg, size, rep, "gl_orbit"))
    return out


def _classify_generic(count: int, first: Optional[LieAlgebra]) -> List[dict]:
    """All `count` simple survivors in one class, with `first`, the first
    in sample order, as its representative.

    Beyond dimension 4, or above F2, the GL sweep is out of reach, so the
    driver keeps only the count and the first simple algebra.  The class
    keeps the grouping name "invariant_signature", but it is not an
    isomorphism class: a simple algebra has derived series (n), lower
    central series (n) and centre 0, so that signature never separates
    simple algebras.
    """
    if first is None:
        return []
    return [_class_entry(first, count,
                         algebra_to_table(first) if first.gf.degree == 1 else None,
                         "invariant_signature")]


def census(spec: CensusSpec) -> CensusReport:
    """Run the census described by the spec and return its report."""
    t0 = time.monotonic()
    backend = census_backend()
    if spec.sample_count is None:
        scanned, jac, tables = _run_exhaustive(spec.dim)
        mode = "exhaustive"
        classes = _classify_packed(spec.dim, tables)
    else:
        scanned, jac, simple, first, tables = _run_sampled_packed(spec)
        mode = "sampled"
        classes = (_classify_packed(spec.dim, tables) if _gl_sweep(spec)
                   else _classify_generic(simple, first))
    simple_count = sum(c["class_size"] for c in classes)
    restrictable = sum(c["class_size"] for c in classes if c["restrictable"])
    runtime_ms = int((time.monotonic() - t0) * 1000)
    return CensusReport(
        dim=spec.dim,
        field_degree=spec.field_degree,
        mode=mode,
        candidates_scanned=scanned,
        jacobi_pass=jac,
        simple_count=simple_count,
        restrictable_simple_count=restrictable,
        simple_iso_classes=classes,
        sample_count=spec.sample_count,
        seed=spec.seed if spec.sample_count is not None else None,
        threads=spec.threads,
        backend=backend,
        runtime_ms=runtime_ms,
    )
