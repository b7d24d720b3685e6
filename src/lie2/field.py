"""Exact arithmetic over GF(2^k) and the linear algebra built on it.

Field elements are plain ints: bit i holds the coefficient of x^i, reduced
modulo the smallest irreducible polynomial of the requested degree (smallest
as an integer among bit encodings, e.g. degree 2 uses x^2+x+1 = 7, degree 3
uses x^3+x+1 = 11).  Matrices are dense tuples of row tuples.  Subspaces are
kept canonical (reduced row echelon form, zero rows dropped) so two spans are
equal exactly when their tuples are equal.  Everything is exact; no floats.

Products, inverses, powers and square roots in GF(2^k), k >= 2, are table
lookups: a generator g of the multiplicative group is found by search, and
the tables exp[i] = g^i (doubled to length 2(q-1), so a sum of two logs
needs no reduction) and log[g^i] = i are built with `_poly_mul`/`_poly_mod`
on first use per degree (3q - 2 entries, under 200,000 at k = 16).  GF(2)
multiplies with `a & b`.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from typing import Callable, Iterable, Iterator, List, Optional, Sequence, Tuple

from .errors import DimensionTooLarge, InvalidInput

Vec = Tuple[int, ...]

MAX_DEGREE = 16


def _poly_mul(a: int, b: int) -> int:
    """Carry-less product of two binary polynomials."""
    r = 0
    while b:
        if b & 1:
            r ^= a
        a <<= 1
        b >>= 1
    return r


def _poly_mod(a: int, m: int) -> int:
    """Remainder of a modulo m, both binary polynomials, m != 0."""
    dm = m.bit_length()
    da = a.bit_length()
    while da >= dm:
        a ^= m << (da - dm)
        da = a.bit_length()
    return a


def is_irreducible(m: int) -> bool:
    """Trial-division irreducibility test for a binary polynomial."""
    d = m.bit_length() - 1
    if d < 1:
        return False
    for dd in range(1, d // 2 + 1):
        for p in range(1 << dd, 1 << (dd + 1)):
            if _poly_mod(m, p) == 0:
                return False
    return True


@lru_cache(maxsize=None)
def smallest_irreducible(degree: int) -> int:
    """Smallest bit encoding of an irreducible polynomial of the given degree."""
    if not 1 <= degree <= MAX_DEGREE:
        raise InvalidInput(f"field degree must be in 1..{MAX_DEGREE}, got {degree}")
    for m in range(1 << degree, 1 << (degree + 1)):
        if is_irreducible(m):
            return m
    raise InvalidInput(f"no irreducible polynomial of degree {degree}")  # unreachable


@lru_cache(maxsize=None)
def field_tables(degree: int) -> Tuple[List[int], List[int]]:
    """exp and log tables of GF(2^degree) for its first generator g > 0.

    exp[i] = g^i for 0 <= i < 2(q-1); log[a] = i with g^i = a for a != 0
    (log[0] is unused).
    """
    modulus, q = smallest_irreducible(degree), 1 << degree
    for g in range(1, q):
        exp = [1]
        x = _poly_mod(_poly_mul(1, g), modulus)
        while x != 1:
            exp.append(x)
            x = _poly_mod(_poly_mul(x, g), modulus)
        if len(exp) == q - 1:
            break
    log = [0] * q
    for i, a in enumerate(exp):
        log[a] = i
    return exp + exp, log


class GF:
    """The field GF(2^k) with k <= 16; elements are ints below 2^k."""

    __slots__ = ("degree", "modulus", "order", "_tables")

    def __init__(self, degree: int):
        self.degree = degree
        self.modulus = smallest_irreducible(degree)
        self.order = 1 << degree
        self._tables: Optional[Tuple[List[int], List[int]]] = None

    @property
    def tables(self) -> Tuple[List[int], List[int]]:
        """(exp, log) of `field_tables`, fetched on first use."""
        if self._tables is None:
            self._tables = field_tables(self.degree)
        return self._tables

    def __eq__(self, other: object) -> bool:
        return isinstance(other, GF) and other.degree == self.degree

    def __hash__(self) -> int:
        return hash(("GF", self.degree))

    def __repr__(self) -> str:
        return f"GF(2^{self.degree})"

    def check(self, a: int) -> int:
        if not isinstance(a, int) or not 0 <= a < self.order:
            raise InvalidInput(f"{a!r} is not an element of {self!r}")
        return a

    def add(self, a: int, b: int) -> int:
        return a ^ b

    def mul(self, a: int, b: int) -> int:
        if self.degree == 1:
            return a & b
        if not (a and b):
            return 0
        exp, log = self._tables or self.tables
        return exp[log[a] + log[b]]

    def scale(self, c: int, v: Sequence[int]) -> List[int]:
        """c times every entry of v, one table lookup per nonzero entry."""
        if c == 1:
            return list(v)
        if c == 0:
            return [0] * len(v)
        exp, log = self.tables
        lc = log[c]
        return [exp[lc + log[x]] if x else 0 for x in v]

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            a = self.inv(a)
            e = -e
        if a == 0:
            return 0 if e else 1
        exp, log = self.tables
        return exp[log[a] * e % (self.order - 1)]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        exp, log = self.tables
        return exp[self.order - 1 - log[a]]

    def sqrt(self, a: int) -> int:
        """Unique square root; Frobenius is bijective in characteristic 2."""
        if a == 0:
            return 0
        exp, log = self.tables
        i = log[a]
        # q - 1 is odd, so one of i and i + q - 1 is even
        return exp[(i if i % 2 == 0 else i + self.order - 1) // 2]

    def frob(self, a: int) -> int:
        return self.mul(a, a)

    def elements(self) -> range:
        return range(self.order)


GF2 = GF(1)


def vec_add(a: Vec, b: Vec) -> Vec:
    return tuple(x ^ y for x, y in zip(a, b))


def vec_is_zero(a: Vec) -> bool:
    return not any(a)


def zero_vec(n: int) -> Vec:
    return (0,) * n


def basis_vec(n: int, i: int) -> Vec:
    return tuple(1 if j == i else 0 for j in range(n))


def pack_bits(vec: Sequence[int], width: int = 1) -> int:
    """Pack a GF(2^width) vector into an int, coordinate i in bits from i*width."""
    x = 0
    for i, v in enumerate(vec):
        if v:
            x |= v << (i * width)
    return x


def unpack_bits(x: int, n: int, width: int = 1) -> Vec:
    mask = (1 << width) - 1
    return tuple((x >> (i * width)) & mask for i in range(n))


@lru_cache(maxsize=None)
def alpha_map(gf: GF, n: int) -> Callable[[int], int]:
    """Multiplication by alpha (the class of x) on packed vectors of gf^n:
    each coordinate shifts up a bit and a carry out of it adds the modulus."""
    k, low = gf.degree, gf.modulus ^ gf.order
    top = sum(1 << (i * k + k - 1) for i in range(n))
    return lambda x: ((x & ~top) << 1) ^ (((x & top) >> (k - 1)) * low)


def _invert_rows(rows: Sequence[int], n: int) -> Optional[List[int]]:
    work = [rows[r] | (1 << (n + r)) for r in range(n)]
    for col in range(n):
        piv = -1
        for r in range(col, n):
            if (work[r] >> col) & 1:
                piv = r
                break
        if piv < 0:
            return None
        work[col], work[piv] = work[piv], work[col]
        for r in range(n):
            if r != col and (work[r] >> col) & 1:
                work[r] ^= work[col]
    return [w >> n for w in work]


@lru_cache(maxsize=None)
def gl_matrices(n: int) -> Tuple[Tuple[Tuple[int, ...], Tuple[int, ...]], ...]:
    """All invertible n x n matrices over F2 with inverses, rows as bit ints.

    Bit c of row r is entry (r, c).  The order is that of the code
    sum(rows[r] << (n * r)), so every caller sees the same enumeration.
    """
    if n > 4:
        raise DimensionTooLarge("GL sweep is limited to dimension 4")
    out = []
    for code in range(1 << (n * n)):
        rows = tuple((code >> (n * r)) & ((1 << n) - 1) for r in range(n))
        inv = _invert_rows(rows, n)
        if inv is not None:
            out.append((rows, tuple(inv)))
    return tuple(out)


def _rref_packed(rows: List[int], ncols: int) -> Tuple[List[int], List[int]]:
    """RREF of F2 rows packed as ints; returns reduced rows and pivot columns."""
    basis: List[int] = []
    pivots: List[int] = []
    for r in rows:
        for b, p in zip(basis, pivots):
            if (r >> p) & 1:
                r ^= b
        if r == 0:
            continue
        p = (r & -r).bit_length() - 1
        for i, b in enumerate(basis):
            if (b >> p) & 1:
                basis[i] = b ^ r
        basis.append(r)
        pivots.append(p)
    order = sorted(range(len(basis)), key=lambda i: pivots[i])
    return [basis[i] for i in order], sorted(pivots)


class Mat:
    """Dense matrix over a GF field."""

    __slots__ = ("gf", "nrows", "ncols", "rows")

    def __init__(self, gf: GF, rows: Iterable[Iterable[int]], ncols: Optional[int] = None):
        rws = tuple(tuple(r) for r in rows)
        if rws:
            ncols = len(rws[0])
            for r in rws:
                if len(r) != ncols:
                    raise InvalidInput("ragged matrix rows")
        elif ncols is None:
            raise InvalidInput("empty matrix needs an explicit column count")
        self.gf = gf
        self.rows = rws
        self.nrows = len(rws)
        self.ncols = ncols

    @staticmethod
    def identity(gf: GF, n: int) -> "Mat":
        return Mat(gf, [[1 if i == j else 0 for j in range(n)] for i in range(n)], ncols=n)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Mat) and other.gf == self.gf and other.rows == self.rows \
            and other.ncols == self.ncols

    def __hash__(self) -> int:
        return hash((self.gf, self.ncols, self.rows))

    def __repr__(self) -> str:
        return f"Mat({self.gf!r}, {self.nrows}x{self.ncols})"

    def add(self, other: "Mat") -> "Mat":
        if (other.nrows, other.ncols) != (self.nrows, self.ncols):
            raise InvalidInput("shape mismatch in matrix add")
        return Mat(self.gf, [vec_add(a, b) for a, b in zip(self.rows, other.rows)],
                   ncols=self.ncols)

    def mul(self, other: "Mat") -> "Mat":
        if other.nrows != self.ncols:
            raise InvalidInput("shape mismatch in matrix mul")
        gf = self.gf
        cols = other.ncols
        out = []
        for row in self.rows:
            acc = [0] * cols
            for a, orow in zip(row, other.rows):
                if a:
                    acc = [x ^ y for x, y in zip(acc, orow if a == 1 else gf.scale(a, orow))]
            out.append(acc)
        return Mat(gf, out, ncols=cols)

    def mul_vec(self, v: Sequence[int]) -> Vec:
        """Matrix times column vector."""
        if len(v) != self.ncols:
            raise InvalidInput("length mismatch in mat-vec")
        gf = self.gf
        out = []
        for row in self.rows:
            s = 0
            for a, x in zip(row, v):
                if a and x:
                    s ^= a if x == 1 else gf.mul(a, x)
            out.append(s)
        return tuple(out)

    def transpose(self) -> "Mat":
        if not self.rows:
            return Mat(self.gf, [[] for _ in range(self.ncols)], ncols=0)
        return Mat(self.gf, list(zip(*self.rows)), ncols=self.nrows)

    def rref(self) -> Tuple["Mat", Tuple[int, ...]]:
        """Reduced row echelon form and its pivot columns; zero rows dropped."""
        gf = self.gf
        if gf.degree == 1:
            packed = [pack_bits(r) for r in self.rows]
            red, piv = _rref_packed(packed, self.ncols)
            rows = [unpack_bits(r, self.ncols) for r in red]
            return Mat(gf, rows, ncols=self.ncols), tuple(piv)
        rows = [list(r) for r in self.rows]
        pivots: List[int] = []
        rix = 0
        for col in range(self.ncols):
            sel = None
            for i in range(rix, len(rows)):
                if rows[i][col]:
                    sel = i
                    break
            if sel is None:
                continue
            rows[rix], rows[sel] = rows[sel], rows[rix]
            rows[rix] = gf.scale(gf.inv(rows[rix][col]), rows[rix])
            for i in range(len(rows)):
                if i != rix and rows[i][col]:
                    rows[i] = [x ^ y for x, y in
                               zip(rows[i], gf.scale(rows[i][col], rows[rix]))]
            pivots.append(col)
            rix += 1
            if rix == len(rows):
                break
        return Mat(gf, rows[:rix], ncols=self.ncols), tuple(pivots)

    def rank(self) -> int:
        return len(self.rref()[1])

    def kernel(self) -> List[Vec]:
        """Basis of the right null space {x : self @ x = 0}."""
        red, pivots = self.rref()
        pivset = set(pivots)
        free = [c for c in range(self.ncols) if c not in pivset]
        out = []
        for f in free:
            v = [0] * self.ncols
            v[f] = 1
            for r, p in enumerate(pivots):
                v[p] = red.rows[r][f]
            out.append(tuple(v))
        return out

    def solve(self, b: Sequence[int]) -> Optional[Vec]:
        """One solution x of self @ x = b, or None if inconsistent."""
        if len(b) != self.nrows:
            raise InvalidInput("rhs length mismatch in solve")
        aug = Mat(self.gf, [list(r) + [bb] for r, bb in zip(self.rows, b)],
                  ncols=self.ncols + 1)
        if self.nrows == 0:
            return (0,) * self.ncols
        red, pivots = aug.rref()
        if pivots and pivots[-1] == self.ncols:
            return None
        x = [0] * self.ncols
        for r, p in enumerate(pivots):
            x[p] = red.rows[r][self.ncols]
        return tuple(x)


class Subspace:
    """Row span in canonical form: RREF basis rows, compared by tuple equality."""

    __slots__ = ("gf", "ambient", "rows", "pivots")

    def __init__(self, gf: GF, ambient: int, vectors: Iterable[Sequence[int]] = ()):
        vecs = [tuple(v) for v in vectors]
        for v in vecs:
            if len(v) != ambient:
                raise InvalidInput("vector length does not match ambient dimension")
        if vecs:
            red, piv = Mat(gf, vecs, ncols=ambient).rref()
            self.rows = red.rows
            self.pivots = piv
        else:
            self.rows = ()
            self.pivots = ()
        self.gf = gf
        self.ambient = ambient

    @property
    def dim(self) -> int:
        return len(self.rows)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Subspace) and other.gf == self.gf \
            and other.ambient == self.ambient and other.rows == self.rows

    def __hash__(self) -> int:
        return hash((self.gf, self.ambient, self.rows))

    def __repr__(self) -> str:
        return f"Subspace(dim={self.dim}, ambient={self.ambient})"

    def reduce(self, vec: Sequence[int]) -> Vec:
        """Canonical representative of vec modulo this subspace."""
        gf = self.gf
        v = list(vec)
        for row, p in zip(self.rows, self.pivots):
            c = v[p]
            if c:
                v = [x ^ y for x, y in zip(v, row if c == 1 else gf.scale(c, row))]
        return tuple(v)

    def contains(self, vec: Sequence[int]) -> bool:
        return vec_is_zero(self.reduce(vec))

    def contains_subspace(self, other: "Subspace") -> bool:
        return all(self.contains(r) for r in other.rows)

    def add(self, other: "Subspace") -> "Subspace":
        if other.ambient != self.ambient or other.gf != self.gf:
            raise InvalidInput("subspace mismatch in sum")
        return Subspace(self.gf, self.ambient, self.rows + other.rows)

    def add_vec(self, vec: Sequence[int]) -> "Subspace":
        return Subspace(self.gf, self.ambient, self.rows + (tuple(vec),))

    def intersect(self, other: "Subspace") -> "Subspace":
        """Intersection via the kernel of the stacked basis matrix."""
        if other.ambient != self.ambient or other.gf != self.gf:
            raise InvalidInput("subspace mismatch in intersection")
        if self.dim == 0 or other.dim == 0:
            return Subspace(self.gf, self.ambient)
        stacked = Mat(self.gf, list(self.rows) + list(other.rows),
                      ncols=self.ambient).transpose()
        return Subspace(self.gf, self.ambient,
                        [self.combo(k[:self.dim]) for k in stacked.kernel()])

    def combo(self, coeffs: Sequence[int]) -> Vec:
        """Linear combination of the canonical basis rows."""
        gf = self.gf
        v = [0] * self.ambient
        for c, row in zip(coeffs, self.rows):
            if c:
                v = [x ^ y for x, y in zip(v, row if c == 1 else gf.scale(c, row))]
        return tuple(v)

    def coords(self, vec: Sequence[int]) -> Optional[Vec]:
        """Coordinates of vec in the canonical basis, or None if outside."""
        c = tuple(vec[p] for p in self.pivots)
        return c if self.combo(c) == tuple(vec) else None

    def vectors(self):
        """Iterate every vector in the span; feasible only for tiny spaces."""
        return map(self.combo, coefficient_vectors(self.gf, self.dim))


def coefficient_vectors(gf: GF, d: int) -> Iterator[Vec]:
    """All d-tuples over gf, in ascending order of sum_i c[i] q^i."""
    return (c[::-1] for c in product(gf.elements(), repeat=d))


def full_space(gf: GF, n: int) -> Subspace:
    return Subspace(gf, n, [basis_vec(n, i) for i in range(n)])
