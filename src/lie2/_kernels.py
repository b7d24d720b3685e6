"""Census kernels over bit-packed bracket tables.

A bracket table for dimension n stores the C(n,2) basis brackets as n-bit
fields of one integer; pair (i, j) with i < j sits at field index
i*(2n-i-1)/2 + (j-i-1).  The census engine keeps one uint8 array per
field, one candidate table per array slot, and evaluates the Jacobi
identity for a whole chunk with in-place bitwise ufuncs (bit-sliced GF(2)
arithmetic in the style of M4RI).  The rare survivors go through a
vectorised derived-algebra rank filter and then the scalar helpers below,
which also serve as the reference implementation in the tests.
"""

from __future__ import annotations

from itertools import combinations
from typing import List, Sequence, Tuple

import numpy as np

from .liealg import f2_apply, f2_ideal_rank, f2_rank

GOLDEN = 0x9E3779B97F4A7C15
MASK64 = (1 << 64) - 1


def pair_index(i: int, j: int, n: int) -> int:
    """Field index of the basis pair (i, j), i < j, in lexicographic order."""
    return i * (2 * n - i - 1) // 2 + (j - i - 1)


# ---------------------------------------------------------------------------
# scalar reference pipeline (shared by the census engine, sampling re-checks,
# and the test suite)


def unpack_table(t: int, n: int) -> List[int]:
    nmask = (1 << n) - 1
    return [(t >> (n * p)) & nmask for p in range(n * (n - 1) // 2)]


def pack_table(b, n: int) -> int:
    t = 0
    for p, v in enumerate(b):
        t |= int(v) << (n * p)
    return t


def table_ad_columns(b, n: int) -> List[List[int]]:
    """ad[k][m] is the packed bracket [e_m, e_k] of the table with fields b."""
    return [[b[pair_index(min(m, k), max(m, k), n)] if m != k else 0
             for m in range(n)] for k in range(n)]


def table_jacobi_ok(b, n: int) -> bool:
    ad = table_ad_columns(b, n)
    for i, j, k in combinations(range(n), 3):
        if (f2_apply(ad[k], b[pair_index(i, j, n)])
                ^ f2_apply(ad[i], b[pair_index(j, k, n)])
                ^ f2_apply(ad[j], b[pair_index(i, k, n)])):
            return False
    return True


def table_is_simple(b, n: int) -> bool:
    """No proper nonzero ideal: derived algebra full, every seed generates."""
    if f2_rank(b, n) != n:
        return False
    ad = table_ad_columns(b, n)
    return all(f2_ideal_rank(ad, n, seed) == n for seed in range(1, 1 << n))


# ---------------------------------------------------------------------------
# deterministic counter-based sampling stream


def splitmix64_one(seed: int, ctr: int) -> int:
    x = (seed + ctr * GOLDEN) & MASK64
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & MASK64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & MASK64
    x ^= x >> 31
    return x


def splitmix64_words(seed: int, start: int, count: int, words_per: int) -> np.ndarray:
    """Words w of candidate i use counter i*words_per + w + 1; vectorised."""
    s = np.uint64(seed & MASK64)
    g = np.uint64(GOLDEN)
    idx = np.arange(start, start + count, dtype=np.uint64)
    out = np.empty((count, words_per), dtype=np.uint64)
    for w in range(words_per):
        x = s + (idx * np.uint64(words_per) + np.uint64(w + 1)) * g
        x = x ^ (x >> np.uint64(30))
        x = x * np.uint64(0xBF58476D1CE4E5B9)
        x = x ^ (x >> np.uint64(27))
        x = x * np.uint64(0x94D049BB133111EB)
        x = x ^ (x >> np.uint64(31))
        out[:, w] = x
    return out


def bytes_from_words(words: np.ndarray, nbytes: int) -> np.ndarray:
    """The first nbytes bytes of each row of words, least significant first."""
    le = words.astype("<u8", copy=False).view(np.uint8)
    return le.reshape(words.shape[0], -1)[:, :nbytes]


# ---------------------------------------------------------------------------
# vectorised census engine: fields are uint8 arrays, or uint8 scalars for a
# field that is constant over the chunk


def jacobi_mask(b: Sequence, n: int, size: int) -> np.ndarray:
    """Jacobi verdict for each of `size` candidates with bracket fields b.

    [v, e_c] is the XOR over m != c of field (m, c) masked by bit m of v;
    the mask is (0 - bit), all ones or all zeros in uint8 arithmetic.
    """
    ok = np.ones(size, dtype=bool)
    acc = np.empty(size, dtype=np.uint8)
    term = np.empty(size, dtype=np.uint8)
    zero = np.empty(size, dtype=bool)
    for i, j, k in combinations(range(n), 3):
        acc.fill(0)
        for p, c in ((pair_index(i, j, n), k), (pair_index(j, k, n), i),
                     (pair_index(i, k, n), j)):
            for m in range(n):
                if m == c:
                    continue
                np.right_shift(b[p], m, out=term)
                np.bitwise_and(term, 1, out=term)
                np.subtract(0, term, out=term)
                np.bitwise_and(term, b[pair_index(min(m, c), max(m, c), n)],
                               out=term)
                np.bitwise_xor(acc, term, out=acc)
        np.equal(acc, 0, out=zero)
        ok &= zero
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
    """Positions of the simple tables among Jacobi survivors with fields b."""
    full = np.flatnonzero(_derived_rank_numpy(b, n) == n)
    return [int(i) for i in full
            if table_is_simple([int(field[i]) for field in b], n)]


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
    jacobi = 0
    survivors: List[int] = []
    for chunk in range(1 << (n * (npairs - nlow))):
        high = [np.uint8((chunk >> (n * h)) & nmask) for h in range(npairs - nlow)]
        idx = np.flatnonzero(jacobi_mask(low + high, n, size))
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
    idx = np.flatnonzero(jacobi_mask(fields, n, rows.shape[0]))
    survivors = [int(idx[s]) for s in _simple_positions(fields[:, idx], n)]
    return rows.shape[0], int(idx.size), survivors
