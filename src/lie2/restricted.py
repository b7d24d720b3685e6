"""Restricted (2-map) structure on characteristic-2 Lie algebras.

A 2-map is determined by its basis images: on a general vector it expands
quadratically, squares of coordinates on the basis images plus the mixed
bracket terms; this runs on the F2 restriction of scalars (see `liealg`)
with packed basis squares f_{ik+a}^[2] = alpha^(2a) e_i^[2].  The key exact
subroutines here are synthesis of a 2-map from the bracket alone (one
elimination of y -> ([y, e_l])_l gives the center and solves every
ad(y) = ad(e_i)^2, or names the first basis element with no solution) and
the semisimple part of an element read off a torus: `torus_part` squares x
until a 2-power lands in the torus and undoes those squarings there, where
squaring is injective; `jcs_decompose` runs it on the torus spanned by the
late 2-powers of x, and `toruscartan` on the torus of a Cartan split.
Squaring is only semilinear over GF(2^k), but by Jacobson's formula
(x + y)^[2] = x^[2] + y^[2] + [x, y] it is additive on an abelian span, an
F2-linear map on its restriction: `square_columns`.  On the whole space it
is the quadratic form x^[2] = sum_m x_m f_m^[2] + sum_{l<m} x_l x_m
[f_l, f_m] in the F2 coordinates x_m of x, which `toruscartan` tabulates to
find the fixpoints.

`validate_restricted` checks ad(x^[2]) = ad(x)^2 on the basis and Frobenius
homogeneity on the table of basis squares, and on random vectors
bit-sliced, like `liealg.validate_lie`, what neither can settle: that
`packed_square` is the sliced square, and the addition rule.  The identity
on every x follows from these (Jacobson's theorem).  The sliced square is
`liealg.SlicedBracket.square` of the packed basis squares
`RestrictedAlgebra.squares`, so the slice layout stays in `liealg`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, List, Optional, Sequence, Tuple

from .errors import InternalInconsistency, InvalidInput
from .field import (Subspace, Vec, alpha_map, alpha_multiples, f2_apply, f2_solver,
                    pack_bits, unpack_bits)
from .liealg import (LieAlgebra, SlicedBracket, ad_kernel, check_tables, lane_batches,
                     nibble_apply)


@dataclass(frozen=True)
class RestrictedAlgebra:
    """Algebra plus the 2-map's images of the basis vectors."""
    algebra: LieAlgebra
    two_map: Tuple[Vec, ...]

    def __post_init__(self):
        n = self.algebra.dim
        if len(self.two_map) != n or any(len(v) != n for v in self.two_map):
            raise InvalidInput("two_map must give one image vector per basis element")
        for v in self.two_map:
            for c in v:
                self.algebra.gf.check(c)

    @cached_property
    def squares(self) -> List[int]:
        """Packed f_{ik+a}^[2] = alpha^(2a) e_i^[2] on the F2 restriction."""
        gf = self.algebra.gf
        return alpha_multiples(gf, self.algebra.dim,
                               [pack_bits(v, gf.degree) for v in self.two_map], 2)


def packed_square(ra: RestrictedAlgebra, x: int) -> int:
    """x^[2] of a packed vector via quadratic expansion: bit by bit, x^[2]
    gains f_m^[2] + [y, f_m] with y the bits below m."""
    nib, squares = ra.algebra.ad_nibbles, ra.squares
    out = seen = 0
    while x:
        low = x & -x
        m = low.bit_length() - 1
        out ^= squares[m]
        for shift, table in nib[m]:
            out ^= table[seen >> shift & 15]
        seen |= low
        x ^= low
    return out


def square_columns(ra: RestrictedAlgebra, span: Subspace) -> Optional[List[int]]:
    """F2 coordinates, in the basis `span.echelon`, of the square of each
    echelon row, or None when a square leaves the span.

    echelon[ik + a] = alpha^a r_i and (alpha^a r)^[2] = alpha^(2a) r^[2], so
    one packed square per GF row r_i gives its whole block."""
    k = span.gf.degree
    squares = alpha_multiples(span.gf, span.ambient,
                              [packed_square(ra, r) for r in span.echelon[::k]], 2)
    if any(map(span.reduce_packed, squares[::k])):
        return None
    return [span.coords_packed(sq) for sq in squares]


def torus_part(ra: RestrictedAlgebra, torus: Subspace
               ) -> Optional[Callable[[int], Optional[int]]]:
    """The semisimple parts that lie in a torus T: a function taking packed
    x to its packed semisimple part s when s lies in T, else to None.  In
    place of the function, None when T is no torus: squaring leaves it or
    is not injective on it.  T must be abelian.

    On T squaring is the F2-linear map A of `square_columns`, injective, so
    one solver inverts it.  The function squares x until the first 2-power
    x^[2^m] in T, m <= nk, and returns A^(-m) x^[2^m].  Proof: write x = s +
    n, the Jordan-Chevalley-Seligman decomposition (Strade and Farnsteiner
    1988, ch. 2): s semisimple, n 2-nilpotent, [s, n] = 0, both in the span
    W of the 2-power iterates of x, so x^[2^m] = s^[2^m] + n^[2^m], and
    n^[2^m] = 0 for m >= dim_F2 W.  If s lies in T, so do its 2-powers, and
    x^[2^m] lands in T by m = dim_F2 W <= nk.  At the first such m,
    n^[2^m] = x^[2^m] + s^[2^m] lies in T and is 2-nilpotent; T holds no
    nonzero 2-nilpotent element, as A is injective, so n^[2^m] = 0 and
    x^[2^m] = s^[2^m] = A^m s.  Conversely, x^[2^m] in T puts every later
    2-power of x in T, hence s^[2^j] = x^[2^j] for every j >= dim_F2 W, and
    these span s: squaring is onto the span of the 2-powers of a
    semisimple s, so the span of those from the j-th on still holds s.
    """
    cols = square_columns(ra, torus)
    if cols is None:
        return None
    kernel, solve = f2_solver(cols, len(cols))
    if kernel:
        return None

    def part(x: int) -> Optional[int]:
        for m in range(len(ra.squares) + 1):  # m <= nk
            if not torus.reduce_packed(x):
                c = torus.coords_packed(x)
                for _ in range(m):
                    c = solve(c)
                return f2_apply(torus.echelon, c)
            x = packed_square(ra, x)
        return None
    return part


def two_map_eval(ra: RestrictedAlgebra, x: Sequence[int]) -> Vec:
    """Value of the 2-map on an arbitrary vector."""
    alg = ra.algebra
    k = alg.gf.degree
    return unpack_bits(packed_square(ra, pack_bits(x, k)), alg.dim, k)


@dataclass
class RestrictedReport:
    ok: bool
    failing_indices: List[int]
    random_checked: int


def validate_restricted(ra: RestrictedAlgebra, random_checks: int = 100,
                        seed: int = 0) -> RestrictedReport:
    """Check ad(e_i^[2]) = ad(e_i)^2 on the basis, then the tables, then
    randomized identities on random_checks random vectors, run lane-sliced
    in batches of up to LANES.

    On the basis the identity is checked as [e_i^[2], f_l] = [e_i, [e_i,
    f_l]], with ad(e_i) read off `ad_columns`.  Besides `check_tables`, the
    table check is Frobenius homogeneity, squares[ik + a] = alpha^2
    squares[ik + a - 1]: with it, `packed_square` over the GF-bilinear
    `ad_columns` is sum c_i^2 e_i^[2] + sum_{i<j} c_i c_j [e_i, e_j] at
    x = sum c_i e_i, so (lam x)^[2] = lam^2 x^[2] for every lam and x.
    Each sample compares `packed_square` with `SlicedBracket.square`.  The
    addition rule (x + y)^[2] = x^[2] + y^[2] + [x, y] holds for the sliced
    square by construction; for `packed_square` it follows from
    `check_tables`, and it is checked on the first sample of each batch.

    ad(x^[2]) = ad(x)^2 needs no samples (Jacobson's theorem, Strade and
    Farnsteiner 1988, ch. 2).  By the addition rule and Jacobi,
    ad((x + y)^[2]) = ad(x^[2]) + ad(y^[2]) + [ad x, ad y], and ad(x + y)^2
    = ad(x)^2 + ad(y)^2 + [ad x, ad y] in characteristic 2, so the x where
    the identity holds are closed under sums; by Frobenius homogeneity they
    are closed under scalars too.  They hold the basis, so they are every x.
    """
    alg = ra.algebra
    n, k = alg.dim, alg.gf.degree
    nib, ad, squares, basis = alg.ad_nibbles, alg.ad_columns, ra.squares, range(0, n * k, k)
    bad = [i for i, m in enumerate(basis)
           if any(nibble_apply(nib[l], squares[m]) != f2_apply(ad[m], ad[m][l]) for l in basis)]
    batches = lane_batches(random_checks)
    if bad or not batches:
        return RestrictedReport(not bad, bad, 0)
    check_tables(alg)
    times_alpha = alpha_map(alg.gf, n)
    if any(squares[m] != times_alpha(times_alpha(squares[m - 1]))
           for m in range(1, n * k) if m % k):
        raise InternalInconsistency("2-map is not Frobenius-homogeneous")
    sliced, rng = SlicedBracket(alg), random.Random(seed)
    for lanes in batches:
        xs = [rng.getrandbits(n * k) for _ in range(lanes)]
        (x,), y = sliced.slices(xs), rng.getrandbits(n * k)
        packed = [packed_square(ra, v) for v in xs]
        if sliced.slices(packed)[0] != sliced.square(x, squares):
            raise InternalInconsistency("packed_square disagrees with the sliced square")
        if packed_square(ra, xs[0] ^ y) != (packed[0] ^ packed_square(ra, y)
                                            ^ alg.packed_bracket(xs[0], y)):
            raise InternalInconsistency("2-map addition rule failed")
    return RestrictedReport(True, bad, sum(batches))


@dataclass
class SynthesisReport:
    """Outcome of solving ad(y_i) = ad(e_i)^2 for every basis element."""
    two_map: Optional[Tuple[Vec, ...]]
    unique: bool
    center_dim: int
    missing_index: Optional[int] = None

    @property
    def restrictable(self) -> bool:
        return self.two_map is not None


def synthesize_two_map(alg: LieAlgebra) -> SynthesisReport:
    """Recover a 2-map from the bracket, or certify that none exists.

    The image y of e_i solves [y, e_l] = [e_i, [e_i, e_l]] for every l.  One
    elimination of y -> ([y, e_l])_l gives the center (its kernel) and every
    solution.  Images are unique exactly when the center vanishes; otherwise
    each is reduced modulo the center to the least representative of its coset.
    """
    n, k = alg.dim, alg.gf.degree
    ad, basis = alg.ad_columns, range(0, n * k, k)
    rhs = [sum(f2_apply(ad[i], ad[i][l]) << (l * n) for l in basis) for i in basis]
    cen, solutions = ad_kernel(alg, [1 << l for l in basis], rhs=rhs)
    images = []
    for i, y in enumerate(solutions):
        if y is None:
            return SynthesisReport(None, False, cen.dim, missing_index=i)
        images.append(unpack_bits(cen.reduce_packed(y), n, k))
    return SynthesisReport(tuple(images), cen.dim == 0, cen.dim)


# ---------------------------------------------------------------------------
# element classification and semisimple/nilpotent splitting


def _iterate_span(ra: RestrictedAlgebra, x: int) -> Subspace:
    """Span of packed x and its 2-power iterates.

    Iterates pairwise commute, so once an iterate lands in the span of the
    earlier ones the span is invariant under the 2-map and the chain stops.
    """
    alg = ra.algebra
    span = Subspace(alg.gf, alg.dim)
    for _ in range(alg.dim + 2):
        if not span.reduce_packed(x):
            return span
        span = span.add_packed(x)
        x = packed_square(ra, x)
    raise InternalInconsistency("2-power iterate span failed to stabilize")


@dataclass
class ElementClass:
    label: str
    semisimple: bool
    two_nilpotent: bool
    nil_steps: Optional[int] = None


def classify_element(ra: RestrictedAlgebra, x: Sequence[int]) -> ElementClass:
    """Semisimple means x lies in the span of its own higher 2-powers."""
    alg = ra.algebra
    x = pack_bits(x, alg.gf.degree)
    if not x:
        return ElementClass("semisimple", True, True, nil_steps=0)
    nil_steps = None
    v = x
    for m in range(1, alg.dim + 2):
        v = packed_square(ra, v)
        if not v:
            nil_steps = m
            break
    semisimple = not _iterate_span(ra, packed_square(ra, x)).reduce_packed(x)
    if semisimple and nil_steps is not None:
        raise InternalInconsistency("nonzero element both semisimple and 2-nilpotent")
    if semisimple:
        return ElementClass("semisimple", True, False)
    if nil_steps is not None:
        return ElementClass("two_nilpotent", False, True, nil_steps=nil_steps)
    return ElementClass("mixed", False, False)


@dataclass
class JcsParts:
    semisimple: Vec
    nilpotent: Vec


def jcs_decompose(ra: RestrictedAlgebra, x: Sequence[int]) -> JcsParts:
    """Split x into commuting semisimple and 2-nilpotent parts.

    The semisimple part is `torus_part` on the torus T spanned by the
    2-power iterates of y = x^[2^d], d the F2 dimension of the iterate span
    W of x; the nilpotent part is the rest.  Squaring is the F2-linear map
    A on W, and y lies in A^d W, where A is injective, so T is a torus.
    The semisimple part s of x lies in T: with n the nilpotent part,
    x^[2^j] = s^[2^j] for j >= d, and those 2-powers, the iterates of y,
    span s (see `torus_part`).  All claimed properties are re-verified
    before returning.
    """
    alg, k = ra.algebra, ra.algebra.gf.degree
    px = y = pack_bits(x, k)
    for _ in range(len(_iterate_span(ra, px).echelon)):
        y = packed_square(ra, y)
    part = torus_part(ra, _iterate_span(ra, y))
    ps = part(px) if part else None
    if ps is None:
        raise InternalInconsistency("no semisimple part on the late 2-power torus")
    s, nl = unpack_bits(ps, alg.dim, k), unpack_bits(ps ^ px, alg.dim, k)
    if not classify_element(ra, s).semisimple:
        raise InternalInconsistency("claimed semisimple part is not semisimple")
    if not classify_element(ra, nl).two_nilpotent:
        raise InternalInconsistency("claimed nilpotent part is not 2-nilpotent")
    if alg.packed_bracket(ps, ps ^ px):
        raise InternalInconsistency("semisimple and nilpotent parts do not commute")
    return JcsParts(s, nl)
