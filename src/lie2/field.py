"""Exact arithmetic over GF(2^k) and the linear algebra built on it.

Field elements are plain ints: bit i holds the coefficient of x^i, reduced
modulo the smallest irreducible polynomial of the requested degree (smallest
as an integer among bit encodings, e.g. degree 2 uses x^2+x+1 = 7, degree 3
uses x^3+x+1 = 11).  Everything is exact; no floats.

Products, inverses, powers and square roots in GF(2^k), k >= 2, are table
lookups: a generator g of the multiplicative group is found by search, and
the tables exp[i] = g^i (doubled to length 2(q-1), so a sum of two logs
needs no reduction) and log[g^i] = i are built with `_poly_mul`/`_poly_mod`
on first use per degree (3q - 2 entries, under 200,000 at k = 16).  GF(2)
multiplies with `a & b`.

Linear algebra runs on the restriction of scalars to F2: a vector of
GF(2^k)^n is one int with coordinate i in bits ik..ik+k-1 (`pack_bits`),
and multiplication by alpha, the class of x, is the F2-linear `alpha_map`.
A `Subspace` is the fully reduced F2 echelon of its restriction, canonical,
so two spans are equal exactly when their echelons are; its GF rows are
read off that echelon (see `Subspace`).  A matrix is its rows: ranks are
`Subspace.dim` and null spaces `Subspace.null_basis`.  The packed core
(`f2_apply`, `f2_reduce`, `f2_eliminate`, `f2_solver`) also serves the
bracket tables of `liealg`.

`FIELD_CAVEAT` says what a result computed over GF(2^k), and not over an
algebraic closure, does and does not prove; every report carries it.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

from .errors import DimensionTooLarge, InvalidInput

Vec = Tuple[int, ...]

MAX_DEGREE = 16
FIELD_CAVEAT = ("computed over GF(2^k), not an algebraic closure; "
                "toral ranks are lower bounds and maximality is relative to this field")


def is_json_int(x) -> bool:
    """True for a JSON integer, an int that is not a bool (JSON true and
    false); a plain type test, as `Subspace` runs it on every entry."""
    return type(x) is int


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
        if not is_json_int(degree):
            raise InvalidInput(f"field degree {degree!r} is not an integer")
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
        if not is_json_int(a) or not 0 <= a < self.order:
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


def alpha_fold(gf: GF, n: int) -> Callable[[Sequence[int]], int]:
    """sum_a alpha^a planes[a] of packed vectors of gf^n, by Horner's rule
    with the step of `alpha_map` written out (k - 1 steps for k planes)."""
    k, low = gf.degree, gf.modulus ^ gf.order
    top = sum(1 << (i * k + k - 1) for i in range(n))
    keep, shift = ~top, k - 1

    def fold(planes: Sequence[int]) -> int:
        rest = reversed(planes)
        out = next(rest)
        for p in rest:
            out = ((out & keep) << 1) ^ ((out & top) >> shift) * low ^ p
        return out
    return fold


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
    Rows are chosen from rows[n-1] down to rows[0], each ascending and
    outside the span of the rows chosen before it, so only invertible
    matrices are reached, in code order, and only they are inverted.
    """
    if n > 4:
        raise DimensionTooLarge("GL sweep is limited to dimension 4")
    out = []

    def extend(rows: Tuple[int, ...], span: frozenset) -> None:
        if len(rows) == n:
            out.append((rows, tuple(_invert_rows(rows, n))))
            return
        for row in range(1 << n):
            if row not in span:
                extend((row,) + rows, span | {s ^ row for s in span})

    extend((), frozenset([0]))
    return tuple(out)


# ---------------------------------------------------------------------------
# bit-packed F2 core: bit m of an int is coordinate m


def f2_apply(cols: Sequence[int], x: int) -> int:
    """Packed image of packed x under the map whose column m is cols[m]."""
    u = 0
    while x:
        low = x & -x
        u ^= cols[low.bit_length() - 1]
        x ^= low
    return u


def f2_reduce(slots: List[int], v: int) -> int:
    """Reduce v against the echelon slots (slot b leads with bit b).

    A nonzero remainder is stored in its slot and returned; 0 means v was
    already in the span.
    """
    while v:
        top = v.bit_length() - 1
        if not slots[top]:
            slots[top] = v
            return v
        v ^= slots[top]
    return 0


def f2_residue(slots: Sequence[int], v: int) -> int:
    """v reduced against the echelon slots, which are left unchanged; 0
    means v is in their span."""
    while v:
        row = slots[v.bit_length() - 1]
        if not row:
            return v
        v ^= row
    return 0


def f2_eliminate(cols: Sequence[int], n: int, rhs: Sequence[int] = ()
                 ) -> Tuple[List[int], List[Optional[int]]]:
    """Kernel basis of the packed map A with columns cols[0..n-1], and a
    solution y of A y = b (None if there is none) for each b in rhs."""
    kernel, solve = f2_solver(cols, n)
    return kernel, [solve(b) for b in rhs]


def f2_solver(cols: Sequence[int], n: int
              ) -> Tuple[List[int], Callable[[int], Optional[int]]]:
    """Kernel basis of the packed map A with columns cols[0..n-1], and a
    function giving a solution y of A y = b, or None if there is none.

    Column m enters the echelon slots tagged, cols[m] << n | 1 << m, so the
    slots below bit n span the kernel by their tags, and reducing b << n on
    the slots from n up leaves the tag of a solution."""
    width = n + max((c.bit_length() for c in cols), default=0)
    slots = [0] * width
    for m, c in enumerate(cols):
        f2_reduce(slots, c << n | 1 << m)

    def solve(b: int) -> Optional[int]:
        v = b << n
        while v >> n and v.bit_length() <= width and slots[v.bit_length() - 1]:
            v ^= slots[v.bit_length() - 1]
        return None if v >> n else v
    return [v for v in slots[:n] if v], solve


def _f2_rref(vectors: Iterable[int], rows: Sequence[int] = (), lows: Sequence[int] = ()
             ) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """Fully reduced F2 echelon (rows, pivots) of the span of the echelon
    (rows, lows) and the vectors.  A row's pivot is its lowest set bit, kept
    as the mask 1 << bit, which no other row has; rows are sorted by pivot."""
    rows, lows = list(rows), list(lows)
    for v in vectors:
        for r, m in zip(rows, lows):
            if v & m:
                v ^= r
        if v:
            low = v & -v
            for i, r in enumerate(rows):
                if r & low:
                    rows[i] = r ^ v
            rows.append(v)
            lows.append(low)
    order = sorted(range(len(rows)), key=lows.__getitem__)
    return tuple(rows[i] for i in order), tuple(lows[i] for i in order)


def alpha_multiples(gf: GF, n: int, vectors: Iterable[int], step: int = 1) -> List[int]:
    """v, alpha^step v, ..., alpha^(step(k-1)) v for each packed v of gf^n.
    With step 1 they are an F2 basis of the line GF(2^k) v when v != 0;
    with step 2 they are the Frobenius multiples (alpha^a)^2 v."""
    if gf.degree == 1:
        return list(vectors)
    times_alpha = alpha_map(gf, n)
    out = []
    for v in vectors:
        for _ in range(gf.degree):
            out.append(v)
            for _ in range(step):
                v = times_alpha(v)
    return out


class Subspace:
    """A subspace of GF(2^k)^ambient, kept as the fully reduced F2 echelon
    of its restriction of scalars.

    `echelon` holds packed vectors (`pack_bits` with width k) sorted by
    pivot bit, the lowest set bit of a row; no row has a bit set at another
    row's pivot.  It is the RREF over F2 of the span of alpha^a v, v in the
    subspace, which is unique, so two spans are equal exactly when their
    echelons are.

    The GF rows are read off it.  Let r_0, ..., r_{d-1} be the RREF over
    GF(2^k), r_i with pivot column p_i.  The vectors alpha^a r_i (a < k)
    span the restriction, and the block of alpha^a r_i at coordinate p_i is
    alpha^a, the single bit a, with zero blocks at the other p_j.  So they
    are the F2 RREF: its pivots are whole blocks, echelon[ik + a] =
    alpha^a r_i, and each block's bit-0 row echelon[ik] is the GF row r_i.
    `rows` and `pivots` are those rows, unpacked, and GF coordinates c in
    the basis `rows` are the F2 coordinates pack_bits(c, k) in the basis
    `echelon`.
    """

    __slots__ = ("gf", "ambient", "echelon", "_lows", "_rows")

    def __init__(self, gf: GF, ambient: int, vectors: Iterable[Sequence[int]] = ()):
        if not is_json_int(ambient):
            raise InvalidInput(f"ambient dimension {ambient!r} is not an integer")
        k = gf.degree
        packed = []
        for v in vectors:
            if len(v) != ambient or not all(map(is_json_int, v)) or \
                    (v and not 0 <= min(v) <= max(v) < gf.order):
                raise InvalidInput(f"{v!r} is not a vector of {ambient} elements of {gf!r}")
            packed.append(pack_bits(v, k))
        self.gf, self.ambient, self._rows = gf, ambient, None
        self.echelon, self._lows = _f2_rref(alpha_multiples(gf, ambient, packed))

    @classmethod
    def restriction(cls, gf: GF, ambient: int, vectors: Iterable[int]) -> "Subspace":
        """The subspace whose restriction of scalars is the F2 span of the
        packed vectors.  That span must be closed under alpha, as kernels of
        GF-linear maps, ideals and intersections of subspaces are."""
        return cls(gf, ambient)._extended(vectors)

    def _extended(self, vectors: Iterable[int]) -> "Subspace":
        out = Subspace(self.gf, self.ambient)
        out.echelon, out._lows = _f2_rref(vectors, self.echelon, self._lows)
        return out

    @property
    def rows(self) -> Tuple[Vec, ...]:
        if self._rows is None:
            n, k = self.ambient, self.gf.degree
            self._rows = tuple(unpack_bits(r, n, k) for r in self.echelon[::k])
        return self._rows

    @property
    def pivots(self) -> Tuple[int, ...]:
        k = self.gf.degree
        return tuple((m.bit_length() - 1) // k for m in self._lows[::k])

    @property
    def dim(self) -> int:
        return len(self.echelon) // self.gf.degree

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Subspace) and other.gf == self.gf \
            and other.ambient == self.ambient and other.echelon == self.echelon

    def __hash__(self) -> int:
        return hash((self.gf, self.ambient, self.echelon))

    def __repr__(self) -> str:
        return f"Subspace(dim={self.dim}, ambient={self.ambient})"

    def reduce_packed(self, v: int) -> int:
        """Packed v with its pivot blocks cleared; 0 iff v is in the span."""
        for r, m in zip(self.echelon, self._lows):
            if v & m:
                v ^= r
        return v

    def coords_packed(self, v: int) -> int:
        """F2 coordinates of packed v in the basis `echelon` (its pivot
        bits, gathered); meaningful for v in the span."""
        k = self.gf.degree
        return sum(((v >> (m.bit_length() - 1)) & ((1 << k) - 1)) << (i * k)
                   for i, m in enumerate(self._lows[::k]))

    def add_packed(self, v: int) -> "Subspace":
        return self._extended(alpha_multiples(self.gf, self.ambient, [v]))

    def reduce(self, vec: Sequence[int]) -> Vec:
        """Canonical representative of vec modulo this subspace."""
        k = self.gf.degree
        return unpack_bits(self.reduce_packed(pack_bits(vec, k)), self.ambient, k)

    def contains(self, vec: Sequence[int]) -> bool:
        return not self.reduce_packed(pack_bits(vec, self.gf.degree))

    def contains_subspace(self, other: "Subspace") -> bool:
        return not any(map(self.reduce_packed, other.echelon[::other.gf.degree]))

    def add(self, other: "Subspace") -> "Subspace":
        if other.ambient != self.ambient or other.gf != self.gf:
            raise InvalidInput("subspace mismatch in sum")
        return self._extended(other.echelon)

    def intersect(self, other: "Subspace") -> "Subspace":
        """Intersection from the kernel of (y, z) -> sum y_m u_m + sum z_m w_m
        over the two echelons: the vectors sum y_m u_m."""
        if other.ambient != self.ambient or other.gf != self.gf:
            raise InvalidInput("subspace mismatch in intersection")
        mine = self.echelon
        kernel, _ = f2_eliminate(mine + other.echelon, len(mine) + len(other.echelon))
        low = (1 << len(mine)) - 1
        return Subspace.restriction(self.gf, self.ambient,
                                    [f2_apply(mine, y & low) for y in kernel])

    def combo(self, coeffs: Sequence[int]) -> Vec:
        """Linear combination of the canonical basis rows."""
        k = self.gf.degree
        return unpack_bits(f2_apply(self.echelon, pack_bits(coeffs, k)), self.ambient, k)

    def coords(self, vec: Sequence[int]) -> Optional[Vec]:
        """Coordinates of vec in the canonical basis, or None if outside."""
        k = self.gf.degree
        v = pack_bits(vec, k)
        c = self.coords_packed(v)
        return unpack_bits(c, self.dim, k) if f2_apply(self.echelon, c) == v else None

    def null_basis(self) -> Tuple[Vec, ...]:
        """Basis of {x : r . x = 0 for every row r}, one vector per free
        column f in ascending order: x_f = 1, and x_p = r[f] at the pivot p
        of each row r."""
        pivots, n = self.pivots, self.ambient
        out = []
        for f in sorted(set(range(n)) - set(pivots)):
            x = [0] * n
            x[f] = 1
            for row, p in zip(self.rows, pivots):
                x[p] = row[f]
            out.append(tuple(x))
        return tuple(out)


def full_space(gf: GF, n: int) -> Subspace:
    return Subspace.restriction(gf, n, [1 << m for m in range(n * gf.degree)])
