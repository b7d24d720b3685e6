"""Lie algebras over GF(2^k) given by sparse structure constants.

The bracket is stored only on basis pairs i < j; characteristic 2 makes the
bracket symmetric ([x,y] = -[y,x] = [y,x]), so the i > j values are the same
vectors and [x,x] = 0 holds automatically.  Everything downstream (series,
ideals, simplicity, centralizers) reduces to exact linear algebra.

Every bracket runs on the packed table of the restriction of scalars to F2:
the nk-dimensional F2 algebra with basis f_{ik+a} = alpha^a e_i, alpha the
class of x in GF(2^k).  A vector is one int with coordinate i in bits
ik..ik+k-1 (`field.pack_bits`); over F2 bit i is coordinate i.

ad(f_m) is applied through nibble tables (the Method of Four Russians): for
each 4-bit chunk of the input whose four columns are not all zero, a table
of the 16 images of that chunk, so [x, f_m] costs one lookup per such chunk
instead of one column per set bit of x.  An all-zero chunk stores nothing
and costs nothing, so an abelian table brackets at the cost of its packing.
The tables are built on first use.  `validate_lie` checks the basis
triples with `field.f2_apply`, one column per set bit, so a table that is
only checked there (as the census checks its survivors) never pays for
them; `f2_apply` also serves the ideal closure and `ad_kernel`
(centralizers, root spaces and 2-map synthesis), whose kernels and
closures are `Subspace`s directly.  The
packed F2 core (`f2_apply`, `f2_reduce`, `f2_eliminate`) lives in `field`,
and is imported here.

The randomized checks of `validate_lie` and `restricted.validate_restricted`
run bit-sliced (Biham's bitslicing, in the GF(2^k) layout of Boothby and
Bradshaw): up to LANES random samples at once, one int per GF(2^k)
coordinate holding k planes of one bit (lane) per sample, so a GF(2^k)
product of all samples is k ANDs of whole ints (`SlicedBracket`).  Each
sample checks only what can still fail there: its [x, y] is compared with
`packed_bracket`.  Alternation and bilinearity hold for the sliced bracket
by construction, and for the packed one they are checked exhaustively, on
its tables (`check_tables`).  Jacobi is then trilinear and alternating, so
the basis triples settle it for every triple, and no random triple is drawn.
The sliced vectors carry no scalar product: the one identity that needs
scalars, Frobenius homogeneity of the 2-map, is checked on its table of
basis squares.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import BudgetExceeded, InternalInconsistency, InvalidInput
from .field import (GF, GF2, Subspace, Vec, alpha_map, alpha_multiples,
                    f2_apply, f2_eliminate, f2_reduce, full_space, pack_bits,
                    unpack_bits, vec_is_zero, zero_vec)

MAX_DIM = 128


def check_dim(dim: int) -> None:
    if not 1 <= dim <= MAX_DIM:
        raise InvalidInput("algebra dimension must be positive" if dim < 1
                           else f"algebra dimension {dim} exceeds {MAX_DIM}")


class LieAlgebra:
    """Finite-dimensional algebra with an alternating bracket in char 2."""

    __slots__ = ("gf", "dim", "name", "labels", "table", "_ad", "_nib", "_tables_ok")

    def __init__(self, gf: GF, dim: int, table: Dict[Tuple[int, int], Sequence[int]],
                 name: str = "", labels: Optional[Sequence[str]] = None):
        check_dim(dim)
        clean: Dict[Tuple[int, int], Vec] = {}
        for (i, j), v in table.items():
            if not (0 <= i < j < dim):
                raise InvalidInput(f"bad basis pair ({i},{j}) for dim {dim}")
            vv = tuple(v)
            if len(vv) != dim:
                raise InvalidInput("structure constant vector has wrong length")
            for c in vv:
                gf.check(c)
            if not vec_is_zero(vv):
                clean[(i, j)] = vv
        if labels is not None and len(labels) != dim:
            raise InvalidInput("label count does not match dimension")
        self.gf = gf
        self.dim = dim
        self.table = clean
        self.name = name
        self.labels = tuple(labels) if labels is not None else None
        self._ad = None
        self._nib = None
        self._tables_ok = False

    @property
    def ad_columns(self) -> List[List[int]]:
        """ad[m][l] is the packed [f_l, f_m] = alpha^(a+b) [e_i, e_j] of the
        F2 restriction (m = ik+a, l = jk+b); built on first use."""
        if self._ad is None:
            k, nk = self.gf.degree, self.dim * self.gf.degree
            times_alpha = alpha_map(self.gf, self.dim)
            self._ad = ad = [[0] * nk for _ in range(nk)]
            for (i, j), c in self.table.items():
                p = pack_bits(c, k)
                for s in range(2 * k - 1):  # p = alpha^s [e_i, e_j]
                    for a in range(max(0, s - k + 1), min(s, k - 1) + 1):
                        m, l = i * k + a, j * k + s - a
                        ad[m][l] = ad[l][m] = p
                    p = times_alpha(p)
        return self._ad

    @property
    def ad_nibbles(self) -> List[List[Tuple[int, List[int]]]]:
        """nibble_tables(ad_columns[m]) for every m; built on first use."""
        if self._nib is None:
            self._nib = [nibble_tables(col) for col in self.ad_columns]
        return self._nib

    def packed_bracket(self, px: int, py: int) -> int:
        """[x, y] of packed vectors: the sum of [x, f_m] over the bits m of y."""
        nib = self.ad_nibbles
        out = 0
        while py:
            low = py & -py
            for shift, table in nib[low.bit_length() - 1]:
                out ^= table[px >> shift & 15]
            py ^= low
        return out

    def bracket(self, x: Sequence[int], y: Sequence[int]) -> Vec:
        """[x, y] of coordinate vectors, through the packed bracket."""
        k = self.gf.degree
        return unpack_bits(self.packed_bracket(pack_bits(x, k), pack_bits(y, k)),
                           self.dim, k)

    def __repr__(self) -> str:
        tag = self.name or "LieAlgebra"
        return f"{tag}(dim={self.dim}, {self.gf!r})"


@dataclass
class ValidationReport:
    ok: bool
    failing_triples: List[Tuple[int, int, int, Vec]]
    triples_checked: int
    random_checked: int


def validate_lie(alg: LieAlgebra, random_checks: int = 200, seed: int = 0) -> ValidationReport:
    """Jacobi on every basis triple, then `packed_bracket` against the
    sliced bracket on random_checks random pairs, run lane-sliced in batches
    of up to LANES samples.

    Jacobi needs no random triples.  The sliced bracket is GF-bilinear and
    alternating by construction, and reads the same pair values [e_i, e_j]
    of `ad_columns` as the basis triples, so its Jacobiator
    J(x, y, z) = [[x, y], z] + [[y, z], x] + [[z, x], y] is GF-trilinear and
    alternating, and vanishes everywhere once it vanishes on the triples
    i < j < k.  `packed_bracket` is alternating and bilinear by
    `check_tables` (checked exhaustively on its tables), and every sample's
    [x, y] is compared with it, so a fault in packed_bracket itself shows
    too.  With random_checks=0 only the basis triples are checked, and no
    nibble tables are built.
    """
    n, w = alg.dim, alg.gf.degree
    # ad[k w] is ad(e_k) on packed vectors and ad[i w][j w] is [e_i, e_j]
    ad = alg.ad_columns
    failures = []
    count = 0
    for i in range(n):
        adi = ad[i * w]
        for j in range(i + 1, n):
            adj, bij = ad[j * w], adi[j * w]
            for k in range(j + 1, n):
                adk = ad[k * w]
                r = (f2_apply(adk, bij) ^ f2_apply(adi, adj[k * w])
                     ^ f2_apply(adj, adk[i * w]))
                count += 1
                if r:
                    failures.append((i, j, k, unpack_bits(r, n, w)))
    batches = lane_batches(random_checks)
    if failures or not batches:
        return ValidationReport(not failures, failures, count, 0)
    check_tables(alg)
    sliced, rng, nk = SlicedBracket(alg), random.Random(seed), n * w
    mask = (1 << nk) - 1
    for lanes in batches:
        samples = [rng.getrandbits(2 * nk) for _ in range(lanes)]  # x, y per lane
        xy = sliced.bracket(*sliced.slices(samples, 2))
        pairs = [(s & mask, s >> nk) for s in samples]
        if sliced.slices([alg.packed_bracket(a, b) for a, b in pairs])[0] != xy:
            raise InternalInconsistency(_packed_fault(alg, pairs, sliced.lanes(xy, lanes)))
    return ValidationReport(True, failures, count, sum(batches))


def _packed_fault(alg: LieAlgebra, pairs: Sequence[Tuple[int, int]],
                  want: Sequence[int]) -> str:
    """What `packed_bracket` breaks at the first pair (x, y) where it is not
    want, the bracket of the tables: alternation, bilinearity (its value is
    not the sum of its values at (f_l, f_m) over the bits l of x and m of
    y), or else agreement with the sliced bracket of its tables."""
    bracket = alg.packed_bracket
    x, y = next(p for p, v in zip(pairs, want) if bracket(*p) != v)
    if bracket(x, x) or bracket(y, y):
        return "bracket is not alternating"
    expansion = 0
    for l in bit_positions(x):
        for m in bit_positions(y):
            expansion ^= bracket(1 << l, 1 << m)
    if bracket(x, y) != expansion:
        return "bracket is not bilinear"
    return "packed_bracket disagrees with the sliced bracket"


def check_tables(alg: LieAlgebra) -> None:
    """Check, on every input, that `packed_bracket` is alternating and
    bilinear: ad_columns is symmetric with a zero diagonal, and the nibble
    tables of each column are `nibble_tables` of it, so that every entry is
    the sum of the chunk's columns that its chunk value picks.  Both tables
    are built once per object, so a passed check is not repeated."""
    if alg._tables_ok:
        return
    ad = alg.ad_columns
    if any(col[m] for m, col in enumerate(ad)) or list(zip(*ad)) != list(map(tuple, ad)):
        raise InternalInconsistency("bracket is not alternating")
    if any(chunks != nibble_tables(col) for col, chunks in zip(ad, alg.ad_nibbles)):
        raise InternalInconsistency("bracket is not bilinear")
    alg._tables_ok = True


def subspace_bracket(alg: LieAlgebra, u: Subspace, v: Subspace) -> Subspace:
    """Span of the brackets of the packed GF rows of u and v."""
    gf, n, k = alg.gf, alg.dim, alg.gf.degree
    brackets = [alg.packed_bracket(a, b) for a in u.echelon[::k] for b in v.echelon[::k]]
    return Subspace.restriction(gf, n, alpha_multiples(gf, n, brackets))


def is_subalgebra(alg: LieAlgebra, s: Subspace) -> bool:
    return s.contains_subspace(subspace_bracket(alg, s, s))


def is_ideal(alg: LieAlgebra, s: Subspace) -> bool:
    return s.contains_subspace(subspace_bracket(alg, full_space(alg.gf, alg.dim), s))


@dataclass
class SeriesReport:
    kind: str
    dims: Tuple[int, ...]
    spaces: Tuple[Subspace, ...]


def _series(alg: LieAlgebra, central: bool, g: Optional[Subspace] = None) -> SeriesReport:
    """From a subalgebra g, the whole algebra by default, bracket each term
    with g (central) or with itself until it stabilizes."""
    if g is None:
        g = full_space(alg.gf, alg.dim)
    cur = g
    spaces = [cur]
    while cur.dim:
        nxt = subspace_bracket(alg, g if central else cur, cur)
        if nxt == cur:
            break
        spaces.append(nxt)
        cur = nxt
    return SeriesReport("lower_central" if central else "derived",
                        tuple(s.dim for s in spaces), tuple(spaces))


def derived_series(alg: LieAlgebra) -> SeriesReport:
    """g, [g,g], [[g,g],[g,g]], ... until the dimension stabilizes."""
    return _series(alg, central=False)


def lower_central_series(alg: LieAlgebra) -> SeriesReport:
    """g, [g,g], [g,[g,g]], ... until the dimension stabilizes."""
    return _series(alg, central=True)


def is_nilpotent_algebra(alg: LieAlgebra) -> bool:
    return lower_central_series(alg).dims[-1] == 0


def is_solvable_algebra(alg: LieAlgebra) -> bool:
    return derived_series(alg).dims[-1] == 0


def ideal_closure(alg: LieAlgebra, seed: Subspace | Sequence[int]) -> Subspace:
    """Smallest ideal containing the seed, by the packed closure `f2_ideal`
    under the GF columns ad(e_i)."""
    if not isinstance(seed, Subspace):
        seed = Subspace(alg.gf, alg.dim, [seed])
    k = alg.gf.degree
    return Subspace.restriction(alg.gf, alg.dim,
                                f2_ideal(alg.ad_columns[::k], alg.dim * k, seed.echelon))


def center(alg: LieAlgebra) -> Subspace:
    """Elements commuting with the whole algebra."""
    return centralizer(alg, full_space(alg.gf, alg.dim))


def centralizer(alg: LieAlgebra, s: Subspace) -> Subspace:
    """Elements commuting with every vector of the subspace."""
    return ad_kernel(alg, s.echelon[::alg.gf.degree])[0]


def bracket_columns(alg: LieAlgebra, rows: Sequence[int]) -> List[int]:
    """Packed columns of x -> ([r_j, x])_j for packed r_j, block j at bit
    j nk: the part of every `ad_kernel` map that does not depend on lam."""
    nk = alg.dim * alg.gf.degree
    return [sum(f2_apply(col, p) << (j * nk) for j, p in enumerate(rows))
            for col in alg.ad_columns]


def ad_kernel(alg: LieAlgebra, rows: Sequence[int], lam: Sequence[int] = (),
              rhs: Sequence[int] = (), cols: Optional[Sequence[int]] = None
              ) -> Tuple[Subspace, List[Optional[int]]]:
    """Kernel of x -> ([r_j, x] + lam_j x)_j for packed r_j and lam_j in F2
    (default 0), and a packed solution or None for each rhs (block j at bit
    j nk).  The map is GF-linear, so its F2 kernel is the restriction of
    the kernel subspace.  A caller that solves for several lam passes cols,
    the `bracket_columns` of the rows, built once."""
    nk = alg.dim * alg.gf.degree
    if cols is None:
        cols = bracket_columns(alg, rows)
    spread = sum(c << (j * nk) for j, c in enumerate(lam))  # lam_j at bit j nk
    kernel, solutions = f2_eliminate([col ^ spread << m for m, col in enumerate(cols)],
                                     nk, rhs)
    return Subspace.restriction(alg.gf, alg.dim, kernel), solutions


@dataclass
class SimplicityReport:
    simple: bool
    witness: Optional[Subspace]
    seeds_checked: int
    reason: str = ""


def is_simple(alg: LieAlgebra, budget: int = 1 << 20) -> SimplicityReport:
    """Sweep ideal closures of every 1-dimensional seed (projective points).

    One packed closure (`f2_ideal`) under the GF columns ad(e_i) of the F2
    restriction decides the derived algebra and each seed, whose line v,
    alpha v, ..., alpha^(k-1) v it starts from, and spans the witness of a
    failing check.

    Seeds v (lead coordinate 1) are swept by lead coordinate, then packed
    value, and a seed whose closure is skipped still counts as checked.
    When the sweep reaches v, every earlier seed u has been shown to
    generate L.  If some nonzero [v, e_i] = c u, then u lies in the ideal
    of v, a GF-subspace, so that ideal holds the ideal of u, which is L:
    v's closure is skipped.  The skip needs ideal(v) = L, so it never
    passes over a seed in a proper ideal, and the verdict, seed count,
    reason and witness are those of the full sweep.
    """
    gf, n, q, k = alg.gf, alg.dim, alg.gf.order, alg.gf.degree
    if n < 2:
        return SimplicityReport(False, None, 0, "dimension below 2")
    ad, nk = alg.ad_columns[::k], n * k
    # the derived algebra is the ideal that the brackets [f_l, e_i] generate,
    # an alpha-closed span: alpha^b [e_j, e_i] for every b < k
    derived = f2_ideal(ad, nk, [v for col in ad for v in col])
    if not derived:
        return SimplicityReport(False, None, 0, "abelian")
    if len(derived) < nk:
        return SimplicityReport(False, Subspace.restriction(gf, n, derived), 0,
                                "derived subalgebra is a proper ideal")
    points = (q ** n - 1) // (q - 1)
    if points > budget:
        raise BudgetExceeded(f"{points} projective seeds exceed budget {budget}")

    def follows_earlier(v: int, lead: int) -> bool:
        """Whether some nonzero [v, e_i] spans the line of an earlier seed."""
        for col in ad:
            w = f2_apply(col, v)
            if not w:
                continue
            low = ((w & -w).bit_length() - 1) // k  # the lead coordinate of w
            if low == lead:
                c = (w >> (lead * k)) & (q - 1)
                if c != 1:  # scale the lead coordinate to 1
                    inv = gf.inv(c)
                    w = sum(gf.mul(inv, (w >> (j * k)) & (q - 1)) << (j * k)
                            for j in range(lead, n))
            if low < lead or (low == lead and w < v):
                return True
        return False

    checked = 0
    for lead in range(n):
        # one seed per line: coordinate lead is 1 and the packed tail after
        # it runs up through sum_i v[i] q^i
        for tail in range(q ** (n - lead - 1)):
            checked += 1
            v = (1 | tail << k) << (lead * k)
            if follows_earlier(v, lead):
                continue
            ideal = f2_ideal(ad, nk, alpha_multiples(gf, n, [v]))
            if len(ideal) < nk:
                return SimplicityReport(False, Subspace.restriction(gf, n, ideal), checked,
                                        "proper ideal from seed")
    return SimplicityReport(True, None, checked, "all seeds generate the algebra")


# ---------------------------------------------------------------------------
# packed F2 maps: bit m of an int is coordinate m


def nibble_tables(cols: Sequence[int]) -> List[Tuple[int, List[int]]]:
    """Four-Russians form of the packed map with columns cols: one (shift,
    table) per 4-bit input chunk with a nonzero column, table[v] being the
    image of v << shift (a last chunk of c < 4 columns has 2^c entries);
    chunks whose columns are all zero are left out."""
    out = []
    for shift in range(0, len(cols), 4):
        four = cols[shift:shift + 4]
        if any(four):
            table = [0]
            for c in four:  # a new list each time: exactly sized, unlike +=
                table = table + [t ^ c for t in table]
            out.append((shift, table))
    return out


def nibble_apply(chunks: Sequence[Tuple[int, Sequence[int]]], x: int) -> int:
    """Packed image of packed x under the map whose nibble tables are chunks."""
    u = 0
    for shift, table in chunks:
        u ^= table[x >> shift & 15]
    return u


def f2_ideal(ad: Sequence[Sequence[int]], n: int, seeds: Sequence[int]) -> List[int]:
    """F2 basis of the closure of the packed seeds under the maps with
    columns ad: each new basis vector goes through every map, and what
    `f2_reduce` keeps joins it.

    With ad the GF columns `ad_columns[::k]`, ad(e_i), this is the ideal the
    seeds generate whenever their span S is closed under alpha: ad(e_i) is
    GF-linear, alpha [v, e_i] = [alpha v, e_i], so the span of the words
    ad(e_i1) ... ad(e_ir) s over s in S is closed under alpha too, hence
    under every ad(alpha^a e_i) = alpha^a ad(e_i), that is under all nk
    columns f_m."""
    slots = [0] * n
    work = [r for r in (f2_reduce(slots, s) for s in seeds) if r]
    for w in work:
        if len(work) == n:
            break
        for col in ad:
            red = f2_reduce(slots, f2_apply(col, w))
            if red:
                work.append(red)
    return work


# ---------------------------------------------------------------------------
# lane-sliced vectors: L = LANES samples (lanes) of a vector of GF(2^k)^n
# are n ints, one per coordinate: bit tL + l of int c is bit t of coordinate
# c in lane l, and bits tL .. tL + L - 1 of it are its plane t.  The spacing
# is fixed, so a lane-wise GF(2^k) product is k ANDs: plane t of one factor,
# repeated into all k planes (times R = sum_s 2^(sL)), ANDed with the other
# factor and shifted up t planes.  The field polynomial then reduces a
# product by shifted XORs of its planes from k up.

LANES = 256  # lanes of one batch of randomized checks
PLANE = (1 << LANES) - 1  # the lanes of plane 0


def lane_batches(count: int) -> List[int]:
    """Lane counts of the batches that together hold count samples."""
    return [min(LANES, count - start) for start in range(0, count, LANES)]


def transpose(rows: Sequence[int], width: int) -> List[int]:
    """The bit matrix with rows of width bits, transposed: bit l of out[m]
    is bit m of rows[l].  The rows are laid end to end in one binary string,
    step bits each, whose column m is then every step-th character."""
    if not rows:
        return [0] * width
    size = (width + 7) // 8
    step = 8 * size
    whole = int.from_bytes(b"".join([r.to_bytes(size, "little") for r in rows]), "little")
    bits = format(whole, f"0{step * len(rows)}b")[::-1]  # character l step + m is bit m of row l
    return [int(bits[m::step][::-1], 2) for m in range(width)]


def bit_positions(x: int) -> List[int]:
    """The set bits of x, ascending."""
    out = []
    while x:
        low = x & -x
        out.append(low.bit_length() - 1)
        x ^= low
    return out


class SlicedBracket:
    """The bracket of an algebra, and its 2-map, on sliced vectors.

    [x, y] is the sum over the table pairs i < j of d [e_i, e_j], d = x_i y_j
    + x_j y_i.  A set bit ck + u of the pack [e_i, e_j] of `ad_columns` adds
    alpha^u d to coordinate c: d, unreduced, goes into int c shifted up u
    planes, and each coordinate is reduced once, at the end.  A batch costs
    O(n^3 k) operations on ints of 3k - 2 planes, against O((nk)^2) per
    sample for `packed_bracket`.  The square adds its reduced linear part
    after that reduction.
    """

    __slots__ = ("n", "k", "taps", "repeat", "pairs", "bits")

    def __init__(self, alg: LieAlgebra):
        from array import array  # here, not at import: only the random checks need it
        k, ad = alg.gf.degree, alg.ad_columns
        self.n, self.k = alg.dim, k
        self.taps = bit_positions(alg.gf.modulus ^ alg.gf.order)
        self.repeat = sum(1 << (t * LANES) for t in range(k))
        self.pairs = list(alg.table)
        # the set bits ck + u of each pack [e_i, e_j], two bytes each
        self.bits = [array("H", bit_positions(ad[i * k][j * k])) for i, j in self.pairs]

    def slices(self, vectors: Sequence[int], count: int = 1) -> List[List[int]]:
        """The count sliced vectors whose lanes are packed in vectors: lane l
        of sliced vector v is bits v nk .. v nk + nk - 1 of vectors[l]."""
        n, k = self.n, self.k
        columns = transpose(vectors, count * n * k)
        coords = [sum(columns[m + t] << (t * LANES) for t in range(k))
                  for m in range(0, count * n * k, k)]
        return [coords[v:v + n] for v in range(0, count * n, n)]

    def lanes(self, x: Sequence[int], count: int) -> List[int]:
        """The packed vectors in the first count lanes of x."""
        return transpose([c >> (t * LANES) & PLANE for c in x for t in range(self.k)], count)

    def _pair_sum(self, x: Sequence[int], y: Sequence[int], polar: bool) -> List[int]:
        """Sum of (x_i y_j + x_j y_i) [e_i, e_j] over the table pairs when
        polar, else of x_i y_j [e_i, e_j].  alpha^k is the sum of alpha^t
        over taps, so the planes from k up of a coordinate are cut off and
        added back shifted up t planes for each tap t, until none is left."""
        k = self.k
        shifts = [t * LANES for t in range(k)]
        rep = [[(c >> s & PLANE) * self.repeat for s in shifts] for c in y]
        out = [0] * self.n
        for (i, j), bits in zip(self.pairs, self.bits):
            xi, xj, yi, yj = x[i], x[j], rep[i], rep[j]
            d = 0
            for s, yj_s, yi_s in zip(shifts, yj, yi):
                d ^= ((xi & yj_s) ^ (xj & yi_s) if polar else xi & yj_s) << s
            if d:
                moved = [d << s for s in shifts]  # alpha^u d, unreduced
                for b in bits:
                    out[b // k] ^= moved[b % k]
        top = k * LANES
        for c, v in enumerate(out):
            while v >> top:
                high, v = v >> top, v & ((1 << top) - 1)
                for t in self.taps:
                    v ^= high << (t * LANES)
            out[c] = v
        return out

    def bracket(self, x: Sequence[int], y: Sequence[int]) -> List[int]:
        """[x, y], lane by lane."""
        return self._pair_sum(x, y, True)

    def square(self, x: Sequence[int], squares: Sequence[int]) -> List[int]:
        """x^[2], lane by lane, for the 2-map with packed basis squares
        squares[ck + t] = f_{ck+t}^[2]: the cross terms x_i x_j [e_i, e_j]
        plus, for each bit t of each x_c, that bit times squares[ck + t]."""
        k = self.k
        out = self._pair_sum(x, x, False)
        for m, sq in enumerate(squares):
            plane = x[m // k] >> (m % k * LANES) & PLANE
            if plane:
                for b in bit_positions(sq):
                    out[b // k] ^= plane << (b % k * LANES)
        return out


# ---------------------------------------------------------------------------
# catalog


@dataclass
class CatalogEntry:
    algebra: LieAlgebra
    two_map: Optional[Tuple[Vec, ...]]
    description: str = ""


def _mat_mul(n: int, a: int, b: int) -> int:
    """Product of n x n F2 matrices packed with entry (r, c) at bit r*n + c:
    row r of ab sums the rows of b picked by row r of a."""
    mask = (1 << n) - 1
    rows = [(b >> (r * n)) & mask for r in range(n)]
    return sum(f2_apply(rows, (a >> (r * n)) & mask) << (r * n) for r in range(n))


def algebra_from_matrices(name: str, n: int, mats: Sequence[int],
                          labels: Sequence[str],
                          with_squares: bool,
                          description: str = "") -> CatalogEntry:
    """Span of packed n x n F2 matrices (see `_mat_mul`) under commutator;
    optional squaring 2-map.  Every commutator and square is solved against
    the matrices in one elimination."""
    d = len(mats)
    products = [_mat_mul(n, a, b) ^ _mat_mul(n, b, a)
                for i, a in enumerate(mats) for b in mats[i + 1:]]
    if with_squares:
        products += [_mat_mul(n, m, m) for m in mats]
    _, solutions = f2_eliminate(mats, d, products)
    if None in solutions:
        raise InvalidInput(f"{name}: span not closed under the required product")
    coords = [unpack_bits(y, d) for y in solutions]
    pairs = [(i, j) for i in range(d) for j in range(i + 1, d)]
    alg = LieAlgebra(GF2, d, dict(zip(pairs, coords)), name=name, labels=labels)
    two_map = tuple(coords[len(pairs):]) if with_squares else None
    return CatalogEntry(alg, two_map, description)


def _unit(n: int, r: int, c: int) -> int:
    return 1 << (r * n + c)


def _gl_entry(n: int) -> CatalogEntry:
    mats, labels = [], []
    for r in range(n):
        for c in range(n):
            mats.append(_unit(n, r, c))
            labels.append(f"E{r + 1}{c + 1}")
    return algebra_from_matrices(
        f"gl{n}", n, mats, labels, with_squares=True,
        description=f"all {n}x{n} matrices over F2 with commutator bracket "
                    "and matrix squaring as 2-map")


def _sl_entry(n: int, description: str = "") -> CatalogEntry:
    """Trace-zero n x n matrices over F2 in the basis E_rc (r != c, row by
    row), then h_i = E_ii + E_(i+1)(i+1), with matrix squaring as 2-map."""
    pos = [(r, c) for r in range(n) for c in range(n) if r != c]
    mats = [_unit(n, r, c) for r, c in pos] + \
        [_unit(n, i, i) ^ _unit(n, i + 1, i + 1) for i in range(n - 1)]
    labels = [f"E{r + 1}{c + 1}" for r, c in pos] + [f"h{i + 1}" for i in range(n - 1)]
    return algebra_from_matrices(f"sl{n}", n, mats, labels, with_squares=True,
                                 description=description)


def _sl3_entry() -> CatalogEntry:
    return _sl_entry(3, "trace-zero 3x3 matrices over F2; simple, "
                        "restrictable, toral rank 2 over the prime field")


def _psl4_entry() -> CatalogEntry:
    """sl4 modulo its centre, spanned by I = h1 + h3: h3 is read as h1 in
    every bracket and square.  I is central and I^[2] = I, so the 2-map
    (x + I)^[2] = x^[2] + I is well defined on the quotient."""
    sl4 = _sl_entry(4)
    d = sl4.algebra.dim - 1  # h3 is the last basis vector

    def fold(v: Vec) -> Vec:
        return v[:d - 2] + (v[d - 2] ^ v[d], v[d - 1])

    table = {(i, j): fold(v) for (i, j), v in sl4.algebra.table.items() if j < d}
    alg = LieAlgebra(GF2, d, table, name="psl4", labels=sl4.algebra.labels[:d])
    return CatalogEntry(alg, tuple(fold(v) for v in sl4.two_map[:d]),
                        "sl4 modulo its centre (the scalar matrices) over F2; simple, "
                        "restrictable, toral rank 2 over the prime field")


def _sl2_entry() -> CatalogEntry:
    e, f = _unit(2, 0, 1), _unit(2, 1, 0)
    h = _unit(2, 0, 0) ^ _unit(2, 1, 1)
    return algebra_from_matrices(
        "sl2", 2, [e, f, h], ["e", "f", "h"], with_squares=True,
        description="trace-zero 2x2 matrices over F2; not simple in "
                    "characteristic 2 (the identity spans a central ideal)")


def _o3_entry() -> CatalogEntry:
    e1 = _unit(3, 1, 2) ^ _unit(3, 2, 1)
    e2 = _unit(3, 0, 2) ^ _unit(3, 2, 0)
    e3 = _unit(3, 0, 1) ^ _unit(3, 1, 0)
    return algebra_from_matrices(
        "o3", 3, [e1, e2, e3], ["e1", "e2", "e3"], with_squares=False,
        description="cross-product algebra on F2^3; simple but carries "
                    "no 2-map (squares leave the span)")


def _heis3_entry() -> CatalogEntry:
    alg = LieAlgebra(GF2, 3, {(0, 1): (0, 0, 1)}, name="heis3",
                     labels=["x", "y", "z"])
    zero = (zero_vec(3),) * 3
    return CatalogEntry(alg, zero,
                        "Heisenberg algebra: [x,y]=z central, zero 2-map")


def _w11_p2_entry() -> CatalogEntry:
    alg = LieAlgebra(GF2, 2, {(0, 1): (1, 0)}, name="w11_p2",
                     labels=["d", "xd"])
    return CatalogEntry(alg, ((0, 0), (0, 1)),
                        "rank-1 Witt algebra in characteristic 2: "
                        "[d,xd]=d, d^[2]=0, (xd)^[2]=xd")


def _abelian_entry(n: int) -> CatalogEntry:
    alg = LieAlgebra(GF2, n, {}, name=f"abelian({n})")
    return CatalogEntry(alg, tuple(zero_vec(n) for _ in range(n)),
                        f"abelian algebra of dimension {n} with zero 2-map")


def _strictly_upper_entry(n: int) -> CatalogEntry:
    pos = [(r, c) for r in range(n) for c in range(r + 1, n)]
    mats = [_unit(n, r, c) for r, c in pos]
    labels = [f"E{r + 1}{c + 1}" for r, c in pos]
    return algebra_from_matrices(
        f"strictly_upper({n})", n, mats, labels, with_squares=True,
        description=f"strictly upper triangular {n}x{n} matrices; "
                    "nilpotent, closed under squaring")


_PARAM_RE = re.compile(r"^(abelian|strictly_upper)\((\d+)\)$")
_FIXED = {"o3": _o3_entry, "heis3": _heis3_entry, "sl2": _sl2_entry,
          "gl2": lambda: _gl_entry(2), "sl3": _sl3_entry, "gl3": lambda: _gl_entry(3),
          "w11_p2": _w11_p2_entry,
          "psl4": _psl4_entry}  # the fixed catalog entries, in listing order


def catalog_names() -> List[str]:
    return list(_FIXED) + ["abelian(n)", "strictly_upper(n)"]


def catalog(name: str) -> CatalogEntry:
    """Built-in example algebras; parametrized families take (n)."""
    if name in _FIXED:
        return _FIXED[name]()
    m = _PARAM_RE.match(name)
    if m:
        n = int(m.group(2))
        if not 1 <= n <= 12:
            raise InvalidInput("family parameter must be in 1..12")
        if m.group(1) == "abelian":
            return _abelian_entry(n)
        if n < 2:
            raise InvalidInput("strictly_upper needs n >= 2")
        return _strictly_upper_entry(n)
    raise InvalidInput(f"unknown catalog name {name!r}; known: {catalog_names()}")


# ---------------------------------------------------------------------------
# JSON serialization


def _sparse_vec(v: Sequence[int]) -> List[List[int]]:
    return [[k, int(c)] for k, c in enumerate(v) if c]


def is_json_int(x) -> bool:
    """True for a JSON integer; JSON true and false do not count."""
    return isinstance(x, int) and not isinstance(x, bool)


def _dense_vec(pairs, dim: int, gf: GF) -> Vec:
    v = [0] * dim
    last = -1
    try:
        for k, c in pairs:
            if not (is_json_int(k) and 0 <= k < dim):
                raise InvalidInput(f"bad coordinate index {k!r}")
            if not is_json_int(c):
                raise InvalidInput(f"{c!r} is not an element of {gf!r}")
            v[k] = gf.check(c)
            last = k if k > last else dim  # dim: out of order, so maybe repeated
        if last == dim and len({k for k, _c in pairs}) < len(pairs):
            raise InvalidInput("sparse vector lists a coordinate twice")
    except (TypeError, ValueError) as exc:
        raise InvalidInput(f"bad sparse vector: {exc}") from exc
    return tuple(v)


def to_json(alg: LieAlgebra, two_map: Optional[Sequence[Sequence[int]]] = None) -> dict:
    doc = {
        "name": alg.name,
        "field": {"degree": alg.gf.degree, "modulus_bits": alg.gf.modulus},
        "dim": alg.dim,
        "bracket": [[i, j, _sparse_vec(v)] for (i, j), v in sorted(alg.table.items())],
    }
    if alg.labels is not None:
        doc["labels"] = list(alg.labels)
    if two_map is not None:
        doc["two_map"] = [[i, _sparse_vec(v)] for i, v in enumerate(two_map)]
    return doc


def from_json(doc) -> Tuple[LieAlgebra, Optional[Tuple[Vec, ...]]]:
    if isinstance(doc, (str, bytes)):
        try:
            doc = json.loads(doc)
        except (json.JSONDecodeError, RecursionError, UnicodeDecodeError) as exc:
            raise InvalidInput(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise InvalidInput("algebra document must be a JSON object")
    try:
        fdeg = doc["field"]["degree"]
        dim = doc["dim"]
    except (KeyError, TypeError) as exc:
        raise InvalidInput(f"missing required field: {exc}") from exc
    if not is_json_int(fdeg) or not is_json_int(dim):
        raise InvalidInput("field degree and dim must be integers")
    check_dim(dim)
    gf = GF(fdeg)
    stated = doc["field"].get("modulus_bits", gf.modulus)
    if stated != gf.modulus:
        raise InvalidInput(
            f"modulus_bits {stated} does not match the canonical modulus {gf.modulus}")
    bracket = doc.get("bracket", [])
    if not isinstance(bracket, list):
        raise InvalidInput("bracket must be a list of [i, j, vector] entries")
    labels = doc.get("labels")
    if labels is not None and not (isinstance(labels, list)
                                   and all(isinstance(x, str) for x in labels)):
        raise InvalidInput("labels must be a list of strings")
    table = {}
    for entry in bracket:
        try:
            i, j, pairs = entry
        except (TypeError, ValueError) as exc:
            raise InvalidInput(f"bad bracket entry {entry!r}") from exc
        if not (is_json_int(i) and is_json_int(j) and i < j):
            raise InvalidInput(f"bracket entry needs i < j, got ({i!r},{j!r})")
        table[(i, j)] = _dense_vec(pairs, dim, gf)
    if len(table) < len(bracket):
        raise InvalidInput("bracket lists a basis pair twice")
    alg = LieAlgebra(gf, dim, table, name=str(doc.get("name", "")), labels=labels)
    two_map = None
    if "two_map" in doc:
        if not isinstance(doc["two_map"], list):
            raise InvalidInput("two_map must be a list of [i, vector] entries")
        images = [zero_vec(dim)] * dim
        seen = set()
        for entry in doc["two_map"]:
            try:
                i, pairs = entry
            except (TypeError, ValueError) as exc:
                raise InvalidInput(f"bad two_map entry {entry!r}") from exc
            if not is_json_int(i) or not 0 <= i < dim or i in seen:
                raise InvalidInput(f"bad two_map basis index {i!r}")
            seen.add(i)
            images[i] = _dense_vec(pairs, dim, gf)
        two_map = tuple(images)
    return alg, two_map
