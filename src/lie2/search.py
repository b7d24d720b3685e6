"""Census of bracket tables: exhaustive at tiny dimensions, sampled above.

Exhaustive mode enumerates every structure-constant table over F2 for
dimensions up to 4 (at most 24 bits per table); sampled mode draws tables
from a counter-based deterministic stream instead, so reports are
reproducible from the seed alone.  Both modes run on one numpy engine: a
bracket table for dimension n stores the C(n,2) basis brackets as n-bit
fields, pair (i, j) with i < j at field index i*(2n-i-1)/2 + (j-i-1); the
engine keeps one uint8 array per field, one candidate table per array slot,
and evaluates the Jacobi identity with in-place bitwise ufuncs, one basis
triple at a time.  After each triple only the surviving slots are kept:
the array fields are gathered down to them, so later triples run on the
few tables left (a random table rarely passes even the first triple).  An
exhaustive chunk fixes its high fields as scalars over the same low field
arrays, so the first triple's terms on low fields alone are summed once
per census and each chunk adds only the terms that read its scalars.  The
rare survivors go through a vectorised derived-algebra rank filter, and
liealg.is_simple decides the tables that pass it.  Sampled tables over
GF(2^k), k >= 2, keep one uint8 (k <= 8) or uint16 array per structure
constant and get the same whole-block Jacobi mask, with products taken
elementwise by shift-and-add; only its survivors become LieAlgebras.
Simple tables then get a two-map synthesis and, when restrictable, a toral
rank.  The LIE2_BACKEND environment variable may name the engine (auto or
numpy) but cannot pick another.  Simple tables of dimension <= 4 are
grouped into GL(n, 2) orbits by one vectorised change of basis over every
matrix of field.gl_matrices, and iso_match reads its witness off the same
array, as the 0/1 rows of the basis change.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .errors import (BudgetExceeded, DimensionTooLarge, InternalInconsistency,
                     InvalidInput)
from .field import GF, GF2, gl_matrices, pack_bits
from .liealg import (LieAlgebra, center, derived_series, is_simple,
                     lower_central_series, validate_lie)
from .restricted import RestrictedAlgebra, synthesize_two_map
from .toruscartan import FIELD_CAVEAT, max_tori

_EXHAUSTIVE_MAX_BITS = 24
_BLOCK = 1 << 20
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
        return {
            "dim": self.dim,
            "field_degree": self.field_degree,
            "mode": self.mode,
            "candidates_scanned": self.candidates_scanned,
            "jacobi_pass": self.jacobi_pass,
            "simple_count": self.simple_count,
            "restrictable_simple_count": self.restrictable_simple_count,
            "simple_iso_classes": self.simple_iso_classes,
            "sample_count": self.sample_count,
            "seed": self.seed,
            "threads": self.threads,
            "backend": self.backend,
            "runtime_ms": self.runtime_ms,
            "caveat": self.caveat,
        }


# ---------------------------------------------------------------------------
# table <-> algebra conversion


def pair_index(i: int, j: int, n: int) -> int:
    """Field index of the basis pair (i, j), i < j, in lexicographic order."""
    return i * (2 * n - i - 1) // 2 + (j - i - 1)


def pack_table(b, n: int) -> int:
    t = 0
    for p, v in enumerate(b):
        t |= int(v) << (n * p)
    return t


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
    mats = gl_matrices(n)
    g = len(mats)
    cols = np.zeros((g, n), dtype=np.int64)
    invrows = np.zeros((g, n), dtype=np.int64)
    for gi, (rows, inv) in enumerate(mats):
        for c in range(n):
            col = 0
            for r in range(n):
                col |= ((rows[r] >> c) & 1) << r
            cols[gi, c] = col
        for r in range(n):
            invrows[gi, r] = inv[r]
    parity = np.array([bin(v).count("1") & 1 for v in range(1 << n)],
                      dtype=np.int64)
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


def splitmix64_words(seed: int, start: int, count: int, words_per: int) -> np.ndarray:
    """Words w of candidate i use counter i*words_per + w + 1; vectorised.

    The state seed + counter * GOLDEN is base_i + (w + 1) * GOLDEN with
    base_i = seed + i * words_per * GOLDEN (mod 2^64).  Candidates go in
    blocks of _MIX_BLOCK, and every mixing step runs in place on two reused
    block-length buffers, which stay in cache.
    """
    out = np.empty((count, words_per), dtype=np.uint64)
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
            np.bitwise_xor(xb, tb, out=out[lo:hi, w])
    return out


def bytes_from_words(words: np.ndarray, nbytes: int) -> np.ndarray:
    """The first nbytes bytes of each row of words, least significant first."""
    le = words.astype("<u8", copy=False).view(np.uint8)
    return le.reshape(words.shape[0], -1)[:, :nbytes]


# ---------------------------------------------------------------------------
# vectorised census engine: fields are uint8 arrays, or uint8 scalars for a
# field that is constant over the chunk


def _triple_terms(n: int, i: int, j: int, k: int) -> List[Tuple[int, int, int]]:
    """Terms (p, m, q) of the Jacobi residual of the basis triple i < j < k.

    [[e_i, e_j], e_k] + [[e_j, e_k], e_i] + [[e_i, e_k], e_j] is the XOR of
    field q masked by bit m of field p, where [v, e_c] is the XOR over
    m != c of field (m, c) masked by bit m of v.
    """
    out = []
    for p, c in ((pair_index(i, j, n), k), (pair_index(j, k, n), i),
                 (pair_index(i, k, n), j)):
        out.extend((p, m, pair_index(min(m, c), max(m, c), n))
                   for m in range(n) if m != c)
    return out


def _add_terms(acc: np.ndarray, b: Sequence, terms, term: np.ndarray) -> None:
    """XOR the residual terms over the fields b into acc, in place.

    A scalar field whose bit m is clear, or a zero scalar field q, makes its
    term zero; a scalar field with bit m set adds field q unmasked.
    """
    for p, m, q in terms:
        fp, fq = b[p], b[q]
        if np.ndim(fq) == 0 and not fq:
            continue
        if np.ndim(fp) == 0:
            if (int(fp) >> m) & 1:
                np.bitwise_xor(acc, fq, out=acc)
            continue
        np.right_shift(fp, m, out=term)
        np.bitwise_and(term, 1, out=term)
        np.multiply(term, fq, out=term)
        np.bitwise_xor(acc, term, out=acc)


def _jacobi_positions(b: Sequence, n: int, size: int,
                      first: Optional[Tuple[np.ndarray, list]] = None) -> np.ndarray:
    """Positions of the candidates with bracket fields b that pass Jacobi.

    Basis triples run one at a time, and after each only the surviving
    positions are kept: the array fields are gathered down to them (scalar
    fields stay scalars), so the next triple runs on the few candidates
    left.  `first`, when given, is (partial residual, remaining terms) of
    the first triple, its other terms already summed by the caller.
    """
    if n < 3:
        return np.arange(size)
    pos = None
    acc_buf = np.empty(size, dtype=np.uint8)
    term_buf = np.empty(size, dtype=np.uint8)
    fields = list(b)
    for t, triple in enumerate(combinations(range(n), 3)):
        if t:
            fields = [f[keep] if np.ndim(f) else f for f in fields]
        live = size if pos is None else pos.size
        acc, term = acc_buf[:live], term_buf[:live]
        if t == 0 and first is not None:
            partial, terms = first
            acc[:] = partial
        else:
            acc.fill(0)
            terms = _triple_terms(n, *triple)
        _add_terms(acc, fields, terms, term)
        keep = np.flatnonzero(acc == 0)
        pos = keep if pos is None else pos[keep]
        if pos.size == 0:
            break
    return pos


def jacobi_mask(b: Sequence, n: int, size: int) -> np.ndarray:
    """Jacobi verdict for each of `size` candidates with bracket fields b;
    each field is a uint8 array, or a uint8 scalar shared by every
    candidate."""
    ok = np.zeros(size, dtype=bool)
    ok[_jacobi_positions(b, n, size)] = True
    return ok


def _derived_rank_numpy(b: Sequence[np.ndarray], n: int) -> np.ndarray:
    """Rank of the span of the bracket fields, per candidate."""
    size = b[0].shape[0]
    slots = np.zeros((n, size), dtype=np.uint8)
    for field in b:
        v = field.copy()
        for bit in range(n - 1, -1, -1):
            has = ((v >> bit) & 1).astype(bool)
            filled = slots[bit] != 0
            np.bitwise_xor(v, slots[bit], out=v, where=has & filled)
            ins = has & ~filled
            slots[bit][ins] = v[ins]
            v[ins] = 0
    return np.count_nonzero(slots, axis=0)


def _simple_positions(b: Sequence[np.ndarray], n: int) -> List[int]:
    """Positions of the simple tables among Jacobi survivors with fields b.

    A simple algebra equals its derived algebra, so only tables whose
    brackets span the whole space reach is_simple.
    """
    if n < 2:  # no bracket fields, and nothing simple
        return []
    full = np.flatnonzero(_derived_rank_numpy(b, n) == n)
    return [int(i) for i in full
            if is_simple(table_to_algebra(n, pack_table([f[i] for f in b], n))).simple]


def census_exhaustive(n: int, chunk_bits: int = 20) -> Tuple[int, int, List[int]]:
    """Scan every table of dimension n >= 2: (scanned, Jacobi passes, simple).

    A chunk fixes the high fields and runs through all values of the low
    fields, so the low field arrays are built once and each high field is a
    scalar per chunk.
    """
    npairs = n * (n - 1) // 2
    nmask = (1 << n) - 1
    nlow = min(npairs, chunk_bits // n)
    size = 1 << (n * nlow)
    digits = np.arange(1 << n, dtype=np.uint8)
    low = [np.tile(np.repeat(digits, 1 << (n * p)), 1 << (n * (nlow - 1 - p)))
           for p in range(nlow)]
    first = None
    if n >= 3:  # the first triple's terms on low fields alone, summed once
        terms = _triple_terms(n, 0, 1, 2)
        partial = np.zeros(size, dtype=np.uint8)
        _add_terms(partial, low, [t for t in terms if max(t[0], t[2]) < nlow],
                   np.empty(size, dtype=np.uint8))
        first = (partial, [t for t in terms if max(t[0], t[2]) >= nlow])
    jacobi = 0
    survivors: List[int] = []
    for chunk in range(1 << (n * (npairs - nlow))):
        high = [np.uint8((chunk >> (n * h)) & nmask) for h in range(npairs - nlow)]
        idx = _jacobi_positions(low + high, n, size, first)
        jacobi += int(idx.size)
        if idx.size == 0:
            continue
        sb = [f[idx] for f in low] + [np.full(idx.size, h) for h in high]
        lo = chunk * size
        survivors.extend(lo + int(idx[s]) for s in _simple_positions(sb, n))
    return size << (n * (npairs - nlow)), jacobi, survivors


def census_sampled(n: int, rows: np.ndarray) -> Tuple[int, int, List[int]]:
    """Scan sampled tables, one uint8 row of fields each.

    Returns (scanned, Jacobi passes, indices of the simple rows).
    """
    fields = np.ascontiguousarray(rows.T)
    idx = _jacobi_positions(fields, n, rows.shape[0])
    survivors = [int(idx[s]) for s in _simple_positions(fields[:, idx], n)]
    return rows.shape[0], int(idx.size), survivors


# ---------------------------------------------------------------------------
# census driver


def _run_exhaustive(n: int) -> Tuple[int, int, List[int]]:
    if n == 1:
        return 1, 1, []
    return census_exhaustive(n)


def _sample_rows(n: int, seed: int, start: int, count: int) -> np.ndarray:
    npairs = n * (n - 1) // 2
    words_per = (npairs + 7) // 8
    words = splitmix64_words(seed, start, count, words_per)
    rows = bytes_from_words(words, npairs)
    return rows & np.uint8((1 << n) - 1)


def _run_sampled_packed(spec: CensusSpec) -> Tuple[int, int, List[int]]:
    n = spec.dim
    scanned = 0
    jac = 0
    tables: List[int] = []
    for start in range(0, spec.sample_count, _BLOCK):
        count = min(_BLOCK, spec.sample_count - start)
        rows = _sample_rows(n, spec.seed, start, count)
        bscanned, bjac, idxs = census_sampled(n, rows)
        scanned += bscanned
        jac += bjac
        tables.extend(pack_table(rows[idx], n) for idx in idxs)
    # is_simple decided every survivor; re-check the vectorised Jacobi mask
    if not all(validate_lie(table_to_algebra(n, t), random_checks=0).ok
               for t in tables):
        raise InternalInconsistency("census survivor failed Jacobi re-validation")
    return scanned, jac, tables


def gf_mul_arrays(a: np.ndarray, b: np.ndarray, gf: GF) -> np.ndarray:
    """Elementwise product in gf of two unsigned arrays, by shift-and-add.

    Bit t of b adds alpha^t a; the step to the next power of alpha is the
    one field.alpha_map takes: shift up a bit and add the modulus (minus
    its leading term) on carry-out.
    """
    k, low = gf.degree, gf.modulus ^ gf.order
    keep = (gf.order >> 1) - 1
    out = np.zeros_like(a)
    for t in range(k):
        out ^= a * ((b >> t) & 1)
        if t < k - 1:
            a = ((a & keep) << 1) ^ ((a >> (k - 1)) * low)
    return out


def gf_jacobi_mask(c: np.ndarray, n: int, gf: GF) -> np.ndarray:
    """Jacobi verdict per candidate; c[p, m] holds coordinate m of the bracket
    of pair p over gf, one array slot per candidate.

    For every basis triple and output coordinate o the residual is the XOR
    of c_ij^m c_mk^o over m, summed over the three cyclic terms.
    """
    ok = np.ones(c.shape[2], dtype=bool)
    for i, j, k in combinations(range(n), 3):
        terms = ((pair_index(i, j, n), k), (pair_index(j, k, n), i),
                 (pair_index(i, k, n), j))
        for o in range(n):
            acc = np.zeros(c.shape[2], dtype=c.dtype)
            for p, r in terms:
                for m in range(n):
                    if m != r:
                        q = pair_index(min(m, r), max(m, r), n)
                        acc ^= gf_mul_arrays(c[p, m], c[q, o], gf)
            ok &= acc == 0
    return ok


def _sample_coefficients(gf: GF, n: int, seed: int, start: int,
                         count: int) -> np.ndarray:
    """Bracket coefficients of sampled tables over gf, shape (pairs, n, count).

    Each coefficient takes one byte of the stream (two, little end first,
    above degree 8) and keeps its low k bits.
    """
    npairs = n * (n - 1) // 2
    per = 1 if gf.degree <= 8 else 2
    nbytes = npairs * n * per
    words = splitmix64_words(seed, start, count, (nbytes + 7) // 8)
    rows = bytes_from_words(words, nbytes)
    vals = (rows if per == 1 else rows.view("<u2")) & (gf.order - 1)
    return np.ascontiguousarray(vals.T).reshape(npairs, n, count)


def _run_sampled_generic(spec: CensusSpec) -> Tuple[int, int, List[LieAlgebra]]:
    n = spec.dim
    gf = GF(spec.field_degree)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    # a block holds at most _BLOCK structure constants
    block = _BLOCK // max(1, len(pairs) * n)
    jac = 0
    survivors: List[LieAlgebra] = []
    for start in range(0, spec.sample_count, block):
        count = min(block, spec.sample_count - start)
        c = _sample_coefficients(gf, n, spec.seed, start, count)
        idx = np.flatnonzero(gf_jacobi_mask(c, n, gf))
        jac += int(idx.size)
        for s in idx:
            coeffs = c[:, :, s].tolist()
            alg = LieAlgebra(gf, n, {pq: v for pq, v in zip(pairs, coeffs) if any(v)})
            # only survivors reach here; re-check the vectorised mask
            if not validate_lie(alg, random_checks=0).ok:
                raise InternalInconsistency("census survivor failed Jacobi re-validation")
            if is_simple(alg).simple:
                survivors.append(alg)
    return spec.sample_count, jac, survivors


def _class_entry(alg: LieAlgebra, size: int, table: Optional[int],
                 grouping: str) -> dict:
    from .liealg import to_json as alg_to_json
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


def _classify_generic(survivors: Sequence[LieAlgebra],
                      tables: Optional[Sequence[int]] = None) -> List[dict]:
    # beyond dimension 4 the GL sweep is out of reach; group by invariants
    keys: Dict[tuple, int] = {}
    reps: List[Tuple[LieAlgebra, Optional[int]]] = []
    sizes: List[int] = []
    for pos, alg in enumerate(survivors):
        sig = _invariant_signature(alg)
        if sig not in keys:
            keys[sig] = len(reps)
            reps.append((alg, tables[pos] if tables is not None else None))
            sizes.append(0)
        sizes[keys[sig]] += 1
    return [_class_entry(alg, size, table, "invariant_signature")
            for (alg, table), size in zip(reps, sizes)]


def census(spec: CensusSpec) -> CensusReport:
    """Run the census described by the spec and return its report."""
    t0 = time.monotonic()
    backend = census_backend()
    if spec.sample_count is None:
        scanned, jac, tables = _run_exhaustive(spec.dim)
        mode = "exhaustive"
        classes = _classify_packed(spec.dim, tables)
        simple_count = len(tables)
    elif spec.field_degree == 1:
        scanned, jac, tables = _run_sampled_packed(spec)
        mode = "sampled"
        simple_count = len(tables)
        if spec.dim <= 4:
            classes = _classify_packed(spec.dim, tables)
        else:
            algs = [table_to_algebra(spec.dim, t) for t in tables]
            classes = _classify_generic(algs, tables)
    else:
        scanned, jac, algs = _run_sampled_generic(spec)
        mode = "sampled"
        simple_count = len(algs)
        classes = _classify_generic(algs)
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
