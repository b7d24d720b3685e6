"""Tori, Cartan subalgebras, weight space decompositions, and their audits.

A torus here is an abelian subspace closed under the 2-map on which squaring
is injective.  Toral bases (bases of 2-map fixpoints) give commuting
idempotent ad-operators, so joint eigenspaces over the prime field decompose
the algebra; the four audit passes re-verify the eigenvalue equations and
the structural facts the downstream case analysis relies on.

Everything is computed over the given finite field, of any degree, on
packed vectors of the F2 restriction of scalars (see `liealg`); a span is
kept as F2 echelon slots holding every alpha^a v.  The 2-map fixpoints of
the whole space are the zeros of q(x) = x^[2] + x, read off truth tables
block by block (`_fixpoints`).  A torus is injective and has a toral basis
by the kernels of A and A + I, A its squaring map from
`restricted.square_columns`.  A Cartan split checks that its span is a
torus, reads the semisimple part of each centralizer row off it
(`restricted.torus_part`, one solver of A per torus), and its nil part
is 2-nilpotent exactly when it is nilpotent and A is nilpotent on its
centre.
The maximal torus search is a branch and bound over int bitsets of the
fixpoints' commutation graph (`_commutation_graph`) that reaches each torus
through its greedy basis only.  It is pruned by one clique lemma: a torus
that adds g basis elements below a node puts 2^g - 1 pairwise commuting
fixpoints among its candidates, from its first pick on.  So a node returns
when its candidates colour greedily into fewer classes of pairwise
non-commuting ones (`_colours_reach`), and stops trying candidates once too
few of them are left.  It is exhaustive when it fits in the node budget,
otherwise greedy with seeded restarts, and either way the reported rank is
a lower bound for the rank over an algebraic closure (`max_tori`).

The weight decomposition and its audits run packed too: on the GF rows
`echelon[::k]` of each span, with `packed_bracket` and `packed_square`,
and span membership by `Subspace.reduce_packed`.  Toral coordinates come
from one solver per decomposition, an elimination of the alpha-multiples
of the toral basis followed by the nil echelon, which splits any x in
torus + nil into its toral-basis and nil coordinates
(`CartanDecomposition._solve`).  The tuple methods `toral_coords`,
`toral_part` and `root_value` wrap it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field as dc_field
from functools import cached_property
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .errors import (BudgetExceeded, InternalInconsistency, InvalidInput,
                     NotSimultaneouslyDiagonalizable, NotTwoMapClosed, SplitFailed)
from .field import (FIELD_CAVEAT, Subspace, Vec, alpha_map, alpha_multiples, f2_apply,
                    f2_eliminate, f2_reduce, f2_residue, f2_solver, pack_bits, unpack_bits)
from .liealg import (LieAlgebra, _series, ad_kernel, bit_positions, bracket_columns,
                     centralizer, f2_columns, nibble_apply, nibble_tables, subspace_bracket,
                     transpose)
from .restricted import RestrictedAlgebra, packed_square, square_columns, torus_part

SWEEP_BUDGET = 1 << 20  # default bound on the vectors of a whole-space sweep
BLOCK_BITS = 16  # low F2 coordinates of one block of fixpoint truth tables
COMBO_LIMIT = 1 << 10  # the iso rule scans root spaces of up to this many vectors in full


def check_sweep_budget(alg: LieAlgebra, budget: int = SWEEP_BUDGET) -> None:
    """Raise BudgetExceeded when the whole-space sweep of alg, q^n vectors,
    exceeds budget; it reads only the field and dimension, so a command can
    check it before validating."""
    total = alg.gf.order ** alg.dim
    if total > budget:
        raise BudgetExceeded(f"sweep of {total} vectors exceeds budget {budget}")


def _truth_columns(c: int) -> List[int]:
    """X_l for l < c: the 2^c-bit int whose bit x is bit l of x.  Its bytes
    repeat 0xAA, 0xCC or 0xF0 for l < 3, and from l = 3 up 2^(l-3) zero
    bytes then 2^(l-3) 0xFF bytes."""
    size = max(1 << c >> 3, 1)
    cols = []
    for l in range(c):
        half = 1 << l >> 3
        pattern = bytes([(0xAA, 0xCC, 0xF0)[l]]) if l < 3 else bytes(half) + b"\xff" * half
        cols.append(int.from_bytes(pattern * (size // len(pattern)), "little"))
    return [x & ((1 << (1 << c)) - 1) for x in cols]


def _clear_bits(x: int, width: int) -> List[int]:
    """The clear bits among the low width bits of x, ascending."""
    text = format(x, f"0{width}b")[::-1]  # character j is bit j
    out, j = [], text.find("0")
    while j >= 0:
        out.append(j)
        j = text.find("0", j + 1)
    return out


def _fixpoints(ra: RestrictedAlgebra, budget: int) -> List[int]:
    """Packed 2-map fixpoints in ascending order: the zeros of q(x) = x^[2]
    + x, read off its truth tables.

    In the F2 coordinates x_m of x, x^[2] = sum_m x_m f_m^[2] + sum_{l<m}
    x_l x_m [f_l, f_m], so on the truth tables X_l of `_truth_columns` bit r
    of q is the XOR of X_m over the m with bit r in f_m^[2] + f_m and of
    X_l & X_m over the l < m with bit r in [f_l, f_m]; the fixpoints are
    the clear bits of the OR of those tables over r.

    x is split as lo + hi, lo its low c = min(nk, BLOCK_BITS) bits, and by
    Jacobson's formula q(lo + hi) = q(lo) + q(hi) + [lo, hi].  The tables
    of q(lo) are built once.  The block of 2^c values sharing hi adds the
    constant q(hi) and [lo, hi], linear in lo: its bit r is the XOR of X_l
    over the l with bit r in [f_l, hi].  Both are read through the nibble
    tables of X_0 .. X_(c-1) and the all-ones table, so memory is O(nk 2^c)
    bits at any budget, and the blocks come out in ascending order."""
    check_sweep_budget(ra.algebra, budget)
    ad, squares = f2_columns(ra.algebra), ra.squares
    d = len(squares)
    c = min(d, BLOCK_BITS)
    cols = _truth_columns(c)
    ones = (1 << (1 << c)) - 1
    low = [cols[r] if r < c else 0 for r in range(d)]  # bit r of q(lo)
    for m in range(c):
        for r in bit_positions(squares[m]):
            low[r] ^= cols[m]
        for l in range(m):
            if ad[m][l]:
                both = cols[l] & cols[m]
                for r in bit_positions(ad[m][l]):
                    low[r] ^= both
    # slot r (width bits) of the block's mask: bit l < c is bit r of
    # [f_l, hi], bit c is bit r of q(hi)
    width = c + 1
    nib = nibble_tables(cols + [ones])
    linear = [sum(1 << (r * width + l) for l in range(c) for r in bit_positions(ad[m][l]))
              if m >= c else 0 for m in range(d)]
    constant = [1 << (r * width + c) for r in range(d)]
    slot = (1 << width) - 1
    out = []
    for hi in range(0, 1 << d, 1 << c):
        mask = f2_apply(linear, hi) ^ f2_apply(constant, packed_square(ra, hi) ^ hi)
        clash = 0
        for r, table in enumerate(low):
            part = mask >> (r * width) & slot
            clash |= table ^ nibble_apply(nib, part) if part else table
            if clash == ones:
                break
        else:
            out.extend(hi | j for j in _clear_bits(clash, 1 << c))
    return out


def toral_elements(ra: RestrictedAlgebra, budget: int = SWEEP_BUDGET) -> List[Vec]:
    """All fixpoints of the 2-map, ascending in the packed value (the order
    of sum_i v[i] q^i, by which the torus search breaks ties): the zeros of
    q(x) = x^[2] + x, read off truth tables by `_fixpoints`; budget bounds
    the q^n vectors they cover."""
    alg = ra.algebra
    return [unpack_bits(x, alg.dim, alg.gf.degree) for x in _fixpoints(ra, budget)]


@dataclass
class Torus:
    space: Subspace
    toral_basis: Optional[Tuple[Vec, ...]]

    @property
    def rank(self) -> int:
        return self.space.dim


@dataclass
class TorusReport:
    is_torus: bool
    abelian: bool
    injective: bool
    torus: Optional[Torus]


def is_torus(ra: RestrictedAlgebra, s: Subspace) -> TorusReport:
    """Closure is a precondition (raises NotTwoMapClosed); the rest is reported.

    On an abelian s squaring is additive and sigma-semilinear, so on the F2
    coordinates of `s.echelon` it is the F2-linear map A of
    `square_columns`, and it is injective exactly when ker A = 0."""
    alg, rows = ra.algebra, s.echelon[::s.gf.degree]
    pairs = [(i, alg.packed_bracket(a, b)) for i, a in enumerate(rows) for b in rows[i + 1:]]
    outside = min((i for i, w in pairs if s.reduce_packed(w)), default=len(rows))
    cols = square_columns(ra, s)
    if cols is None:
        # row i's square is checked before its brackets with the later rows
        i = next(i for i, r in enumerate(rows) if s.reduce_packed(packed_square(ra, r)))
        if i <= outside:
            raise NotTwoMapClosed(f"square of basis row {i} leaves the subspace")
    if outside < len(rows):
        raise NotTwoMapClosed("bracket of basis rows leaves the subspace")
    if any(w for _, w in pairs):
        return TorusReport(False, False, False, None)
    if f2_eliminate(cols, len(cols))[0]:
        return TorusReport(False, True, False, None)
    return TorusReport(True, True, True, Torus(s, _toral_basis(s, cols)))


def _toral_basis(s: Subspace, cols: List[int]) -> Optional[Tuple[Vec, ...]]:
    """Basis of fixpoints spanning the torus s, or None when fixpoints span less.

    The fixpoints are ker(A + I) for the squaring map A of `square_columns`.
    F2-independent fixpoints are GF-independent (a fixed GF combination of
    fixpoints has coefficients c = c^2, in F2), so they span s exactly when
    that kernel has F2 dimension dim s.  The basis is then the kernel's
    fully reduced echelon with top-bit pivots, in ascending order: the
    greedy pick of fixpoints in ascending packed value of their coordinates
    in `s.echelon`."""
    kernel = f2_eliminate([c ^ 1 << i for i, c in enumerate(cols)], len(cols))[0]
    if len(kernel) != s.dim:
        return None
    for i, r in enumerate(kernel):  # clear each row's top bit from the later rows
        top = r.bit_length() - 1
        kernel[i + 1:] = [v ^ r if v >> top & 1 else v for v in kernel[i + 1:]]
    return tuple(unpack_bits(f2_apply(s.echelon, c), s.ambient, s.gf.degree) for c in kernel)


@dataclass
class MaxTorusReport:
    rank_lb: int
    torus: Torus
    exhaustive: bool
    method: str
    fixpoints_seen: int
    nodes: int
    caveat: str = FIELD_CAVEAT


def _commutation_graph(alg, items: Sequence[int], planes: Sequence[int]) -> List[int]:
    """Bit j of row i is set when packed fixpoints i and j commute (i != j).

    W[l][r], the set of j with bit r of [f_l, items[j]] set, is the XOR of
    planes[m] over the m where [f_l, f_m] = f2_columns[l][m] has bit r.  Bit
    r of [x, y] is the XOR of bit r of [f_l, y] over the bits l of x, so the
    j that do not commute with x = items[i] are OR_r XOR_{l in x} W[l][r].
    W[l] is packed into one int, slot r of it holding W[l][r]; the XOR over
    the bits of x is read through 16-entry nibble tables per 4 bits of x,
    and the OR over the slots is folded by halves.
    """
    m = len(items)
    size = (m + 7) // 8
    packed = []
    for col in f2_columns(alg):
        w = [0] * len(planes)
        for b, plane in zip(col, planes):
            if b and plane:
                for r in bit_positions(b):
                    w[r] ^= plane
        packed.append(int.from_bytes(b"".join([v.to_bytes(size, "little") for v in w]),
                                     "little"))
    nib = nibble_tables(packed)
    folds, count = [], len(planes)
    while count > 1:  # OR the upper half of count slots onto the lower
        count = (count + 1) // 2
        folds.append((8 * size * count, (1 << (8 * size * count)) - 1))
    full = (1 << m) - 1
    comm = []
    for i, x in enumerate(items):
        clash = nibble_apply(nib, x)
        for shift, lower in folds:
            clash = clash & lower | clash >> shift
        comm.append(full & ~clash & ~(1 << i))
    return comm


def _colours_reach(cand: int, comm: Sequence[int], bound: int) -> bool:
    """Whether a greedy colouring of the index set cand into classes of
    pairwise non-commuting fixpoints (comm as from `_commutation_graph`)
    has at least bound classes.  Each class takes the least index left,
    drops the ones commuting with it, and repeats; the colouring stops once
    bound - 1 classes leave indices over.  Pairwise commuting fixpoints
    fall into distinct classes, so False proves that cand holds no bound of
    them."""
    rest = cand
    while rest and bound > 1:
        bound -= 1
        free = rest  # what the class may still take
        while free:
            v = free & -free
            rest ^= v
            free ^= free & comm[v.bit_length() - 1] | v
    return rest != 0


def max_tori(ra: RestrictedAlgebra, sweep_budget: int = SWEEP_BUDGET,
             node_budget: int = 1 << 20, restarts: int = 32,
             seed: int = 0) -> MaxTorusReport:
    """Largest independent pairwise-commuting set of 2-map fixpoints.

    The span of such a set is a torus with that set as toral basis, and every
    torus with a toral basis arises this way, so over the given field this is
    the maximal achievable toral rank through toral bases.

    Exhaustive branch and bound under the node budget: candidates are tried
    in increasing fixpoint order, and a child keeps the later candidates
    that commute with the one taken.  The answer is the lexicographically
    first maximum index set.  One lemma cuts the search.

    Clique lemma.  Let need = len(best) - len(chosen).  A set found below
    the node adds g picks to chosen, and replaces best only if g > need.
    The picks are candidates here (a child's candidates are a subset of its
    parent's), so each is clear at the top bits of chosen and exceeds the
    last chosen fixpoint c while clear at its top bit, hence has its top
    bit above that of c; and each pick exceeds the picks before it while
    clear at their top bits, so the picks have distinct top bits.  A
    nonzero F2 sum of picks is therefore clear at the top bits of chosen,
    and its top bit is that of its highest pick, so it is at least the
    first pick and exceeds c; there are 2^g - 1 such sums, distinct, and
    each is a fixpoint of the torus that chosen and the picks span, so each
    commutes with chosen.  So all 2^g - 1 sums are candidates of this node
    from the first pick on, and they commute pairwise.

    Clique bound.  A class of pairwise non-commuting candidates holds at
    most one of the sums, so any colouring of the candidates into such
    classes has at least 2^g - 1 >= 2^(need+1) - 1 classes.  The node
    colours greedily (`_colours_reach`) until it has 2^(need+1) - 1
    classes, and returns if it has fewer.  With need >= 1, one class is a
    node whose candidates pairwise do not commute.  A child with fewer
    than 2^need - 1 candidates, need taken at the parent, would return on
    entry (a colouring has at most one class per candidate), so it is not
    called.

    Count cut.  A set whose first pick is candidate t puts its 2^g - 1 sums
    among the candidates t, t+1, ..., so before t is tried, with need read
    again there, the node returns when fewer than 2^(need+1) - 1 of them
    remain.  The candidates from a later t on are a subset, so none of them
    could start a larger set either.

    Neither cut changes the answer.  Without them the search visits the
    index sets in lexicographic order and replaces best only by a strictly
    larger set, so best ends as the lexicographically first maximum set.
    Both drop only subtrees whose sets are no larger than best at that
    moment; none of them would have replaced best, so by induction over the
    visiting order best takes the same values at every node that is still
    visited, and ends the same.  The cuts therefore only lower `nodes`.

    Each torus is visited through one basis only, its greedy one.  The
    fixpoints of a torus spanned by chosen fixpoints are their F2 span W
    ((sum c_i t_i)^[2] = sum c_i^2 t_i), so the lexicographically first
    maximum set is the greedy basis of W in ascending order, and each of its
    elements x is the least of its coset x + W_prev over the earlier ones.
    A candidate x with min(x + W) < x is therefore dropped, and stays
    dropped below, since W only grows.  min(x + W) < x exactly when x has a
    bit at a leading bit of W, and those are the top bits of the chosen
    fixpoints, so a child drops the candidates that have the top bit of the
    one taken.  `nodes` counts the candidates tried, which are only these
    coset-minimal ones.  When the budget runs out, greedy over seeded
    candidate orders.
    """
    alg, k = ra.algebra, ra.algebra.gf.degree
    items = [x for x in _fixpoints(ra, sweep_budget) if x]
    m = len(items)
    if m == 0:
        return MaxTorusReport(0, Torus(Subspace(alg.gf, alg.dim), ()), True,
                              "exhaustive", 0, 0)
    planes = transpose(items, alg.dim * k)  # bit j of planes[l] is bit l of items[j]
    comm = _commutation_graph(alg, items, planes)
    times_alpha = alpha_map(alg.gf, alg.dim)

    def insert(slots: List[int], v: int) -> bool:
        """Add GF(2^k) v to the echelon slots in place; False, and the slots
        unchanged, if v is already in their span."""
        if not f2_reduce(slots, v):
            return False
        for _ in range(k - 1):
            v = times_alpha(v)
            f2_reduce(slots, v)
        return True

    best: List[int] = []
    nodes = 0
    aborted = False

    def search(cand: int, chosen: List[int], span: List[int]) -> None:
        nonlocal best, nodes, aborted
        if len(chosen) > len(best):
            best = list(chosen)
        need = len(best) - len(chosen)
        if not _colours_reach(cand, comm, (2 << need) - 1):
            return  # clique bound
        while cand.bit_count() >= (2 << need) - 1:  # count cut
            if nodes == node_budget:
                aborted = True
                return
            nodes += 1
            idx = (cand & -cand).bit_length() - 1
            cand ^= 1 << idx
            x = items[idx]
            if not f2_residue(span, x):
                raise InternalInconsistency("a coset-minimal fixpoint lies in the chosen span")
            below = cand & comm[idx] & ~planes[x.bit_length() - 1]
            if below.bit_count() >= (1 << need) - 1:  # else the child fails the clique bound
                child = list(span)
                insert(child, x)
                chosen.append(idx)
                search(below, chosen, child)
                chosen.pop()
                need = len(best) - len(chosen)

    search((1 << m) - 1, [], [0] * (alg.dim * k))
    method = "exhaustive"
    if aborted:
        method = "greedy"
        rng = random.Random(seed)
        for _ in range(restarts):
            order = list(range(m))
            rng.shuffle(order)
            chosen: List[int] = []
            span = [0] * (alg.dim * k)
            allowed = (1 << m) - 1
            for idx in order:
                if allowed >> idx & 1 and insert(span, items[idx]):
                    chosen.append(idx)
                    allowed &= comm[idx]
            if len(chosen) > len(best):
                best = chosen
    basis = tuple(unpack_bits(items[i], alg.dim, k) for i in best)
    span = Subspace(alg.gf, alg.dim, basis)
    if span.dim != len(basis):
        raise InternalInconsistency("chosen fixpoints are not independent")
    return MaxTorusReport(span.dim, Torus(span, basis), not aborted, method, m, nodes)


@dataclass
class CartanSplit:
    torus: Torus
    h: Subspace
    nil: Subspace


def _all_two_nilpotent(ra: RestrictedAlgebra, nil: Subspace) -> bool:
    """Whether every element of the 2-map closed subalgebra nil is 2-nilpotent.

    Exactly when nil is nilpotent, its lower central series (`_series` from
    nil) ending in 0, and squaring is nilpotent on its centre Z (Strade and
    Farnsteiner 1988, ch. 2).  Necessary: ad(x)^(2^m) = ad(x^[2^m]), so
    Engel's theorem applies.  Sufficient: for x in Z_(i+1)
    of the upper central series, [x^[2], y] = [x, [x, y]] lies in Z_(i-1),
    so x^[2] lies in Z_i, and x^[2^(c-1)] in Z_1 = Z for every x.  Z is
    abelian and 2-map closed, so squaring on it is the F2-linear map A of
    `square_columns`, nilpotent iff A^(2^t) = 0 for 2^t above its size.
    """
    if _series(ra.algebra, True, nil).dims[-1]:
        return False
    centre = centralizer(ra.algebra, nil).intersect(nil)
    cols = square_columns(ra, centre)
    if cols is None:
        raise InternalInconsistency("centre of a 2-map closed subalgebra is not 2-map closed")
    for _ in range(len(cols).bit_length()):
        cols = [f2_apply(cols, c) for c in cols]
    return not any(cols)


def cartan_split(ra: RestrictedAlgebra, torus: Torus) -> CartanSplit:
    """Centralizer of the torus split as torus plus 2-nilpotent part.

    The nil part must be 2-nilpotent, which `_all_two_nilpotent` decides
    exactly.
    """
    return _split(ra, torus, centralizer(ra.algebra, torus.space))


def _split(ra: RestrictedAlgebra, torus: Torus, h: Subspace) -> CartanSplit:
    """`cartan_split` with the centralizer h of the torus already known.

    The span must be a torus.  The nil part is spanned by b + s over the GF
    rows b of h, s the semisimple part of b, which must lie in the torus:
    `torus_part` reads it off the torus with one solver, on packed ints.
    """
    alg, space = ra.algebra, torus.space
    if not h.contains_subspace(space):
        raise SplitFailed("torus is not abelian, centralizer misses it")
    part = torus_part(ra, space)
    if part is None:
        raise SplitFailed("span is not a torus: squaring leaves it or kills part of it")
    nil_vecs = []
    for b in h.echelon[::alg.gf.degree]:
        s = part(b)
        if s is None:
            raise SplitFailed(
                "semisimple part of a centralizer element falls outside the torus; "
                "the torus is not maximal over this field")
        nil_vecs.append(b ^ s)
    nil = Subspace.restriction(alg.gf, alg.dim, alpha_multiples(alg.gf, alg.dim, nil_vecs))
    if space.intersect(nil).dim != 0:
        raise SplitFailed("torus and nilpotent part overlap")
    if space.add(nil) != h:
        raise SplitFailed("torus plus nilpotent part does not fill the centralizer")
    if not nil.contains_subspace(subspace_bracket(alg, nil, nil)):
        raise SplitFailed("nilpotent part is not a subalgebra")
    if square_columns(ra, nil) is None:
        raise SplitFailed("nilpotent part is not 2-map closed")
    if not _all_two_nilpotent(ra, nil):
        raise SplitFailed("nilpotent part contains a non-2-nilpotent element")
    return CartanSplit(torus, h, nil)


@dataclass
class CartanDecomposition:
    ra: RestrictedAlgebra
    torus: Torus
    h: Subspace
    nil: Subspace
    weights: Dict[Tuple[int, ...], Subspace]

    @property
    def rank(self) -> int:
        return len(self.torus.toral_basis or ())

    def roots(self) -> List[Tuple[int, ...]]:
        return sorted(self.weights)

    @cached_property
    def _solve(self) -> Callable[[int], Optional[int]]:
        """The solver of packed x = t + u, t in the torus and u in nil, built
        once: one elimination of the columns alpha^a b_i of the toral basis
        b, then `nil.echelon`.  The bits of its answer below rank * k are the
        packed GF coordinates of t in the toral basis, those above the F2
        coordinates of u in `nil.echelon`; None when x is outside torus + nil."""
        gf, n = self.ra.algebra.gf, self.ra.algebra.dim
        cols = alpha_multiples(gf, n, [pack_bits(b, gf.degree)
                                       for b in self.torus.toral_basis or ()])
        cols += self.nil.echelon
        return f2_solver(cols, len(cols))[1]

    def _parts(self, x: int) -> Tuple[int, int]:
        """The toral and nil coordinates of `_solve` for packed x in h."""
        y, r = self._solve(x), self.rank * self.ra.algebra.gf.degree
        if y is None:
            raise InvalidInput("element is not in the centralizer of the torus")
        return y & ((1 << r) - 1), y >> r

    def _root_at(self, root: Sequence[int], coords: int) -> int:
        """A root (toral-basis functional) at packed toral coordinates."""
        gf, acc = self.ra.algebra.gf, 0
        for i, r in enumerate(root):
            c = coords >> (i * gf.degree) & (gf.order - 1)
            if r and c:
                acc ^= c if r == 1 else gf.mul(r, c)
        return acc

    def toral_coords(self, t: Sequence[int]) -> Vec:
        """Coordinates of a torus element in the toral basis."""
        k = self.ra.algebra.gf.degree
        y = self._solve(pack_bits(t, k))
        if y is None or y >> (self.rank * k):
            raise InvalidInput("vector is not in the torus")
        return unpack_bits(y, self.rank, k)

    def root_value(self, root: Sequence[int], t: Sequence[int]) -> int:
        """Evaluate a root (toral-basis functional) on a torus element."""
        return self._root_at(root, pack_bits(self.toral_coords(t), self.ra.algebra.gf.degree))

    def toral_part(self, x: Sequence[int]) -> Tuple[Vec, Vec]:
        """Split an element of the centralizer as torus part plus nil part."""
        n, k = self.ra.algebra.dim, self.ra.algebra.gf.degree
        px = pack_bits(x, k)
        u = f2_apply(self.nil.echelon, self._parts(px)[1])
        return unpack_bits(px ^ u, n, k), unpack_bits(u, n, k)

    def dim_pattern(self) -> Dict[str, object]:
        return {
            "toral_rank": self.rank,
            "nil_dim": self.nil.dim,
            "root_dims": {"".join(map(str, r)): self.weights[r].dim
                          for r in self.roots()},
        }


def weight_decompose(ra: RestrictedAlgebra, torus: Torus) -> CartanDecomposition:
    """Joint eigenspace decomposition for the toral basis, eigenvalues in F2.

    The ad operators of toral basis elements are commuting idempotents, so
    the prime-field eigenvalue tuples must account for the whole algebra;
    anything else raises NotSimultaneouslyDiagonalizable.
    """
    alg, basis = ra.algebra, torus.toral_basis
    if basis is None:
        raise InvalidInput("torus has no toral basis over this field")
    r, n = len(basis), alg.dim
    lams = [tuple((code >> i) & 1 for i in range(r)) for code in range(1 << r)]
    packed = [pack_bits(t, alg.gf.degree) for t in basis]
    cols = bracket_columns(alg, packed)  # lam-free, so built once for every lam
    spaces = {lam: ad_kernel(alg, packed, lam, cols=cols)[0] for lam in lams}
    total = sum(s.dim for s in spaces.values())
    if total != n:
        raise NotSimultaneouslyDiagonalizable(
            f"joint eigenspaces cover {total} of {n} dimensions")
    h = spaces.pop((0,) * r)  # the kernel of every ad(t): the centralizer of the torus
    return CartanDecomposition(ra, torus, h, _split(ra, torus, h).nil,
                               {lam: s for lam, s in spaces.items() if s.dim})


# ---------------------------------------------------------------------------
# audits


@dataclass
class AuditCheck:
    name: str
    passed: bool
    checked: int
    triggered: int = 0
    failures: List[str] = dc_field(default_factory=list)


@dataclass
class AuditReport:
    checks: Dict[str, AuditCheck]

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks.values())


def _audit_eigen(dec: CartanDecomposition) -> AuditCheck:
    """Re-verify [t_i, v] = lambda_i v for every weight vector and h."""
    alg, k = dec.ra.algebra, dec.ra.algebra.gf.degree
    basis = [pack_bits(t, k) for t in dec.torus.toral_basis]
    checked = 0
    fails: List[str] = []
    items = [((0,) * len(basis), dec.h)] + [(lam, sp) for lam, sp in dec.weights.items()]
    for lam, sp in items:
        for v in sp.echelon[::k]:
            for i, t in enumerate(basis):
                checked += 1
                if alg.packed_bracket(t, v) != (v if lam[i] else 0):
                    fails.append(f"eigen equation failed at weight {lam}, basis {i}")
    return AuditCheck("eigen_recheck", not fails, checked, failures=fails)


def _audit_one_dim(dec: CartanDecomposition) -> AuditCheck:
    """Nil part of the Cartan must annihilate every 1-dimensional root space."""
    alg, k = dec.ra.algebra, dec.ra.algebra.gf.degree
    checked = triggered = 0
    fails: List[str] = []
    for lam, sp in dec.weights.items():
        if sp.dim != 1:
            continue
        triggered += 1
        for u in dec.nil.echelon[::k]:
            checked += 1
            if alg.packed_bracket(u, sp.echelon[0]):
                fails.append(f"nil part acts nontrivially on 1-dim root space {lam}")
    return AuditCheck("one_dim_root_annihilation", not fails, checked, triggered, fails)


def _audit_toral_brackets(dec: CartanDecomposition) -> AuditCheck:
    """Toral parts of [g_xi, g_xi] must lie in the kernel of xi."""
    alg, k = dec.ra.algebra, dec.ra.algebra.gf.degree
    checked = 0
    fails: List[str] = []
    for lam, sp in dec.weights.items():
        rows = sp.echelon[::k]
        for i, a in enumerate(rows):
            for b in rows[i + 1:]:
                w = alg.packed_bracket(a, b)
                checked += 1
                if dec.h.reduce_packed(w):
                    fails.append(f"[g_xi, g_xi] left the Cartan at root {lam}")
                    continue
                if dec._root_at(lam, dec._parts(w)[0]) != 0:
                    fails.append(f"toral part of a root-space bracket escapes Ker xi "
                                 f"at root {lam}")
    return AuditCheck("root_bracket_kernel", not fails, checked, failures=fails)


def _audit_iso_rule(dec: CartanDecomposition) -> AuditCheck:
    """Dimension transport: nonzero toral squares pair root spaces bijectively.

    For e in g_xi with square t + n and t nonzero, every root eta with
    eta(t) = 1 must satisfy dim g_eta = dim g_eta+xi, with ad(e) injective in
    both directions.  e runs over the nonzero F2 sums of each root space's
    basis rows (the witnesses are sums), or over the rows past COMBO_LIMIT.
    """
    alg = dec.ra.algebra
    gf, n, k = alg.gf, alg.dim, alg.gf.degree
    roots = dec.roots()
    checked = triggered = 0
    fails: List[str] = []
    for lam, sp in dec.weights.items():
        rows = sp.echelon[::k]
        elems = list(rows) if 1 << sp.dim > COMBO_LIMIT else \
            [f2_apply(rows, code) for code in range(1, 1 << sp.dim)]
        for e in elems:
            sq = packed_square(dec.ra, e)
            if not sq:
                continue
            if dec.h.reduce_packed(sq):
                fails.append(f"square of a root vector left the Cartan at {lam}")
                continue
            t = dec._parts(sq)[0]
            if not t:
                continue
            for eta in roots:
                if dec._root_at(eta, t) == 0:
                    continue
                triggered += 1
                target = tuple(a ^ b for a, b in zip(eta, lam))
                tgt_space = dec.weights.get(target, Subspace(gf, n)) if any(target) else dec.h
                src_space = dec.weights[eta]
                checked += 1
                if src_space.dim != tgt_space.dim:
                    fails.append(
                        f"root dims differ under transport: {eta} has {src_space.dim}, "
                        f"{target} has {tgt_space.dim}")
                    continue
                for space, other in ((src_space, tgt_space), (tgt_space, src_space)):
                    images = [alg.packed_bracket(e, v) for v in space.echelon[::k]]
                    if any(map(other.reduce_packed, images)):
                        fails.append(f"ad(e) image left the target root space "
                                     f"({eta} vs {target})")
                    elif f2_eliminate(alpha_multiples(gf, n, images), k * space.dim)[0]:
                        fails.append(f"ad(e) not injective between {eta} and {target}")
    return AuditCheck("iso_rule_transport", not fails, checked, triggered, fails)


def audit_decomposition(dec: CartanDecomposition) -> AuditReport:
    checks = [
        _audit_eigen(dec),
        _audit_one_dim(dec),
        _audit_toral_brackets(dec),
        _audit_iso_rule(dec),
    ]
    return AuditReport({c.name: c for c in checks})
