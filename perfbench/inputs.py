"""Seeded input generation for the benchmark, independent of the code under test.

Field arithmetic, random invertible matrices and basis changes are done here
with the benchmark's own code.  The program under test only supplies the
catalog fixtures (read once as plain structure constants) and afterwards
receives the generated algebras as JSON text or as command-line arguments.
"""

from __future__ import annotations

import json
import random
from typing import Dict, List, Optional, Sequence, Tuple

# smallest irreducible modulus per field degree, as bit encodings
MODULUS = {1: 0b10, 2: 0b111, 4: 0b10011}

Vec = Tuple[int, ...]


def gf_mul(a: int, b: int, degree: int) -> int:
    """Product in GF(2^degree): carry-less multiply, then reduce."""
    r = 0
    while b:
        if b & 1:
            r ^= a
        a <<= 1
        b >>= 1
    m = MODULUS[degree]
    dm = m.bit_length()
    while r.bit_length() >= dm:
        r ^= m << (r.bit_length() - dm)
    return r


def gf_inv(a: int, degree: int) -> int:
    for b in range(1, 1 << degree):
        if gf_mul(a, b, degree) == 1:
            return b
    raise ZeroDivisionError("inverse of 0")


def mat_inverse(p: Sequence[Sequence[int]], degree: int) -> Optional[List[List[int]]]:
    """Gauss-Jordan inverse over GF(2^degree), or None when singular."""
    n = len(p)
    work = [list(row) + [1 if i == j else 0 for j in range(n)] for i, row in enumerate(p)]
    for col in range(n):
        piv = next((r for r in range(col, n) if work[r][col]), None)
        if piv is None:
            return None
        work[col], work[piv] = work[piv], work[col]
        inv = gf_inv(work[col][col], degree)
        work[col] = [gf_mul(inv, x, degree) for x in work[col]]
        for r in range(n):
            f = work[r][col]
            if r != col and f:
                work[r] = [x ^ gf_mul(f, y, degree) for x, y in zip(work[r], work[col])]
    return [row[n:] for row in work]


def random_gl(n: int, degree: int, rng: random.Random) -> Tuple[List[List[int]], List[List[int]]]:
    """A uniformly random invertible matrix and its inverse."""
    q = 1 << degree
    while True:
        p = [[rng.randrange(q) for _ in range(n)] for _ in range(n)]
        inv = mat_inverse(p, degree)
        if inv is not None:
            return p, inv


class Structure:
    """Plain structure constants: bracket on pairs i < j and optional 2-map images."""

    def __init__(self, name: str, degree: int, dim: int,
                 table: Dict[Tuple[int, int], Vec], two_map: Optional[Sequence[Vec]]):
        self.name = name
        self.degree = degree
        self.dim = dim
        self.table = {k: tuple(v) for k, v in table.items() if any(v)}
        self.two_map = None if two_map is None else tuple(tuple(v) for v in two_map)

    def to_doc(self) -> dict:
        """The algebra file format the command line reads."""
        def sparse(v):
            return [[k, c] for k, c in enumerate(v) if c]
        doc = {"name": self.name,
               "field": {"degree": self.degree, "modulus_bits": MODULUS[self.degree]},
               "dim": self.dim,
               "bracket": [[i, j, sparse(v)] for (i, j), v in sorted(self.table.items())]}
        if self.two_map is not None:
            doc["two_map"] = [[i, sparse(v)] for i, v in enumerate(self.two_map)]
        return doc

    def to_text(self) -> str:
        return json.dumps(self.to_doc())


def from_catalog(entry) -> Structure:
    """Read a catalog fixture of the program as plain structure constants."""
    alg = entry.algebra
    return Structure(alg.name, 1, alg.dim, dict(alg.table), entry.two_map)


def over_field(s: Structure, degree: int) -> Structure:
    """Scalar extension: F2 structure constants read over GF(2^degree)."""
    if s.degree != 1:
        raise ValueError("only F2 algebras are extended")
    return Structure(s.name, degree, s.dim, s.table, s.two_map)


def direct_sum(a: Structure, b: Structure) -> Structure:
    if a.degree != b.degree:
        raise ValueError("direct sum needs one field")
    n, m = a.dim, b.dim
    table = {k: v + (0,) * m for k, v in a.table.items()}
    table.update({(i + n, j + n): (0,) * n + v for (i, j), v in b.table.items()})
    two_map = None
    if a.two_map is not None and b.two_map is not None:
        two_map = [v + (0,) * m for v in a.two_map] + [(0,) * n + v for v in b.two_map]
    return Structure(f"{a.name}+{b.name}", a.degree, n + m, table, two_map)


def change_basis(s: Structure, rng: random.Random) -> Structure:
    """The same algebra in a uniformly random basis."""
    p, q = random_gl(s.dim, s.degree, rng)
    return transform(s, p, q)


def transform(s: Structure, p: Sequence[Sequence[int]], q: Sequence[Sequence[int]]) -> Structure:
    """Rewrite the structure constants in the basis f_a = sum_i P[i][a] e_i.

    [f_a, f_b] = sum_{i<j} (P_ia P_jb + P_ja P_ib) [e_i, e_j] and
    f_a^[2] = sum_i P_ia^2 e_i^[2] + sum_{i<j} P_ia P_ja [e_i, e_j]
    (characteristic 2), both mapped to f-coordinates by Q = P^-1.
    """
    n, deg = s.dim, s.degree

    def mul(a, b):
        return gf_mul(a, b, deg)

    def to_f(v: Sequence[int]) -> Vec:
        out = []
        for row in q:
            acc = 0
            for a, x in zip(row, v):
                if a and x:
                    acc ^= mul(a, x)
            out.append(acc)
        return tuple(out)

    def accumulate(acc: List[int], c: int, v: Sequence[int]) -> None:
        if c:
            for k, x in enumerate(v):
                if x:
                    acc[k] ^= mul(c, x)

    table = {}
    for a in range(n):
        for b in range(a + 1, n):
            acc = [0] * n
            for (i, j), v in s.table.items():
                accumulate(acc, mul(p[i][a], p[j][b]) ^ mul(p[j][a], p[i][b]), v)
            table[(a, b)] = to_f(acc)
    two_map = None
    if s.two_map is not None:
        two_map = []
        for a in range(n):
            acc = [0] * n
            for i, v in enumerate(s.two_map):
                accumulate(acc, mul(p[i][a], p[i][a]), v)
            for (i, j), v in s.table.items():
                accumulate(acc, mul(p[i][a], p[j][a]), v)
            two_map.append(to_f(acc))
    return Structure(s.name, deg, n, table, two_map)
