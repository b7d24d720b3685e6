"""Restricted (2-map) structure on characteristic-2 Lie algebras.

A 2-map is determined by its basis images: on a general vector it expands
quadratically, squares of coordinates on the basis images plus the mixed
bracket terms; this runs on the F2 restriction of scalars (see `liealg`)
with packed basis squares f_{ik+a}^[2] = alpha^(2a) e_i^[2].  The key exact
subroutines here are synthesis of a 2-map from the bracket alone (one
elimination of y -> ([y, e_l])_l gives the center and solves every
ad(y) = ad(e_i)^2, or names the first basis element with no solution) and
the semisimple/nilpotent decomposition obtained from the Fitting
decomposition of the squaring operator on the span of 2-power iterates.
Squaring is only semilinear over GF(2^k), but by Jacobson's formula
(x + y)^[2] = x^[2] + y^[2] + [x, y] it is additive on an abelian span, an
F2-linear map on its restriction: `square_columns`.  `square_sweep`
tabulates x -> x^[2] on a closed subalgebra by one Gray-code sweep.

`validate_restricted` checks ad(x^[2]) = ad(x)^2 on the basis, and on
random vectors bit-sliced, like `liealg.validate_lie`, what the basis cannot
settle: that `packed_square` is the sliced square, the addition rule and
Frobenius homogeneity.  The identity on every x follows from these
(Jacobson's theorem).  `sliced_square` evaluates x^[2] for every lane at
once, its linear part from `RestrictedAlgebra.squares` and its cross terms
from the pair loop of `liealg.SlicedBracket`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

from .errors import InternalInconsistency, InvalidInput, NotTwoMapClosed
from .field import (Subspace, Vec, alpha_map, alpha_multiples, f2_apply, f2_eliminate,
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

    @cached_property
    def squares(self) -> List[int]:
        """Packed f_{ik+a}^[2] = alpha^(2a) e_i^[2] on the F2 restriction."""
        gf, n = self.algebra.gf, self.algebra.dim
        k, times_alpha = gf.degree, alpha_map(gf, n)
        out = []
        for v in self.two_map:
            p = pack_bits(v, k)
            for _ in range(k):
                out.append(p)
                p = times_alpha(times_alpha(p))
        return out


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
    times_alpha = alpha_map(span.gf, span.ambient)
    cols = []
    for r in span.echelon[::span.gf.degree]:
        sq = packed_square(ra, r)
        if span.reduce_packed(sq):
            return None
        for _ in range(span.gf.degree):
            cols.append(span.coords_packed(sq))
            sq = times_alpha(times_alpha(sq))
    return cols


def square_sweep(ra: RestrictedAlgebra, span: Subspace) -> Iterator[Tuple[int, int]]:
    """(x, coordinates of x^[2]) for every F2 coordinate vector x of span in
    the basis `span.echelon`, by a Gray-code sweep from x = 0.

    span must be a subalgebra closed under the 2-map.  Flipping b_m changes
    the square by b_m^[2] + [x, b_m] (Jacobson's formula).  The coordinates
    of [x, b_j] for every j ride side by side in one int, d bits each, to
    which flipping m adds those of [b_m, b_j]."""
    alg, basis, code = ra.algebra, span.echelon, span.coords_packed
    squares = square_columns(ra, span)
    if squares is None:
        raise NotTwoMapClosed("swept span is not closed under the 2-map")
    d = len(basis)
    flips = [sum(code(alg.packed_bracket(b, c)) << (j * d) for j, c in enumerate(basis))
             for b in basis]
    mask = (1 << d) - 1
    x = square = brackets = 0
    yield x, square
    for step in range(1, 1 << d):
        m = (step & -step).bit_length() - 1
        square ^= squares[m] ^ ((brackets >> (m * d)) & mask)
        brackets ^= flips[m]
        x ^= 1 << m
        yield x, square


def two_map_eval(ra: RestrictedAlgebra, x: Sequence[int]) -> Vec:
    """Value of the 2-map on an arbitrary vector."""
    alg = ra.algebra
    k = alg.gf.degree
    return unpack_bits(packed_square(ra, pack_bits(x, k)), alg.dim, k)


def sliced_square(ra: RestrictedAlgebra,
                  sliced: SlicedBracket) -> Callable[[Sequence[int]], List[int]]:
    """x -> x^[2] on sliced vectors (see `SlicedBracket`): the cross terms
    x_i x_j [e_i, e_j] plus, for each slice x_m, x_m `squares`[m]."""
    n, k = ra.algebra.dim, ra.algebra.gf.degree
    # the slices of squares[m], in the order of the slices x_m
    bits = [sliced.slices_of(ra.squares[c * k + t]) for t in range(k) for c in range(n)]

    def square(x: Sequence[int]) -> List[int]:
        out = sliced.cross_terms(x)
        for s, slices in zip(x, bits):
            if s:
                for t in slices:
                    out[t] ^= s
        return out
    return square


@dataclass
class RestrictedReport:
    ok: bool
    failing_indices: List[int]
    random_checked: int


def validate_restricted(ra: RestrictedAlgebra, random_checks: int = 100,
                        seed: int = 0) -> RestrictedReport:
    """Check ad(b_i) = ad(e_i)^2 on the basis, then randomized identities on
    random_checks random vectors, run lane-sliced in batches of up to LANES.

    On the basis, ad(x^[2]) = ad(x)^2 is checked as [x^[2], e_l] =
    [x, [x, e_l]] on packed vectors, with ad(x) built once: [x, alpha^a e_l]
    = alpha^a [x, e_l].  The samples check (lam x)^[2] = lam^2 x^[2] for a
    random lam per sample, on x^[2] from `sliced_square`, which is compared
    with `packed_square` on every sample.  The addition rule (x + y)^[2] =
    x^[2] + y^[2] + [x, y] holds for the sliced square by construction; for
    `packed_square` it follows from `check_tables`, and it is checked on the
    first sample of each batch.

    ad(x^[2]) = ad(x)^2 needs no samples (Jacobson's theorem, Strade and
    Farnsteiner 1988, ch. 2).  By the addition rule and Jacobi,
    ad((x + y)^[2]) = ad(x^[2]) + ad(y^[2]) + [ad x, ad y], and ad(x + y)^2
    = ad(x)^2 + ad(y)^2 + [ad x, ad y] in characteristic 2, so the x where
    the identity holds are closed under sums; by Frobenius homogeneity they
    are closed under scalars too.  They hold the basis, so they are every x,
    and a square that breaks the identity somewhere breaks homogeneity,
    which the samples check.
    """
    alg = ra.algebra
    n, k = alg.dim, alg.gf.degree
    nib, basis = alg.ad_nibbles, range(0, n * k, k)

    def squares_to(x: int, sq: int) -> bool:
        adx = alpha_multiples(alg.gf, n, [nibble_apply(nib[l], x) for l in basis])
        return all(nibble_apply(nib[l], sq) == f2_apply(adx, adx[l]) for l in basis)

    bad = [i for i in range(n) if not squares_to(1 << (i * k), ra.squares[i * k])]
    batches = lane_batches(random_checks)
    if bad or not batches:
        return RestrictedReport(not bad, bad, 0)
    check_tables(alg)
    sliced, rng = SlicedBracket(alg), random.Random(seed)
    square = sliced_square(ra, sliced)
    for lanes in batches:
        xs = [rng.getrandbits(n * k) for _ in range(lanes)]
        lam = [rng.getrandbits(lanes) for _ in range(k)]
        (x,), y = sliced.slices(xs), rng.getrandbits(n * k)
        sq, packed = square(x), [packed_square(ra, v) for v in xs]
        if sliced.slices(packed)[0] != sq:
            raise InternalInconsistency("packed_square disagrees with the sliced square")
        if packed_square(ra, xs[0] ^ y) != (packed[0] ^ packed_square(ra, y)
                                            ^ alg.packed_bracket(xs[0], y)):
            raise InternalInconsistency("2-map addition rule failed")
        if square(sliced.scale(lam, x)) != sliced.scale(lam, sliced.scale(lam, sq)):
            raise InternalInconsistency("2-map is not Frobenius-homogeneous")
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

    Works inside W, the span of all 2-power iterates of x.  Iterates
    commute, so squaring is additive on W: in the F2 coordinates of W's
    echelon it is the F2-linear map A of `square_columns`.  For N >= dim_F2 W the image and the
    kernel of A^N are the Fitting decomposition W = W_inf + N_inf, and
    projecting x onto the two summands yields the parts.  All claimed
    properties are re-verified before returning.
    """
    alg = ra.algebra
    n, k = alg.dim, alg.gf.degree
    px = pack_bits(x, k)
    w = _iterate_span(ra, px)
    d = len(w.echelon)
    cols = square_columns(ra, w)
    if cols is None:
        raise InternalInconsistency("iterate span is not 2-map invariant")
    for _ in range(d.bit_length()):  # A^(2^t) with 2^t > d
        cols = [f2_apply(cols, c) for c in cols]
    # W = image + kernel of A^N exactly when the two together have rank d
    kernel = f2_eliminate(cols, d)[0]
    overlap, (tag,) = f2_eliminate(cols + kernel, d + len(kernel), [w.coords_packed(px)])
    if len(overlap) != len(kernel) or tag is None:
        raise InternalInconsistency("Fitting decomposition of squaring failed")
    ps = f2_apply(w.echelon, f2_apply(cols, tag & ((1 << d) - 1)))
    s, nl = unpack_bits(ps, n, k), unpack_bits(ps ^ px, n, k)
    if not classify_element(ra, s).semisimple:
        raise InternalInconsistency("claimed semisimple part is not semisimple")
    if not classify_element(ra, nl).two_nilpotent:
        raise InternalInconsistency("claimed nilpotent part is not 2-nilpotent")
    if alg.packed_bracket(ps, ps ^ px):
        raise InternalInconsistency("semisimple and nilpotent parts do not commute")
    return JcsParts(s, nl)
