"""Logarithmic signatures: the data type, the minimal-length bound, cyclic
set refinement, the geometric block constructions for the orthogonal
families, projection to projective quotients, and verification.

A canonical signature for O/SO is assembled stage by stage: a block A
mapping a base totally singular subspace onto the members of a verified
partial spread that partitions the singular points, a Singer coset block B
acting on the base subspace, and the point stabilizer expanded as
[Siegel p-blocks, GL1 block, recursive sub-signature].  Every stage is
verified at construction time; when a literal cyclic block fails its
sharp-transitivity assertions the construction falls back, first to a
twisted torus layering and finally to a Schreier transversal over the
point set (always valid and tame, no longer minimal).  The literal and
twisted rungs are tried only up to n = 4; from n = 5 the point
transversal is taken at once.
"""

from __future__ import annotations

import itertools
import math
import operator
import random
from functools import cache, reduce
from types import MappingProxyType

import numpy as np

from . import fields
from .fields import (
    FieldError, FqContext, Record, check_tower_size, factorint, fq_context, product_rows, read_only, replace,
)
from .matgroups import (
    ConstructionMismatch,
    GroupDescriptor,
    Mat,
    element_order,
    family_of,
    group_order,
    maximal_ts_count,
    mulclose,
    powers,
    singer_generator,
    split_family,
    standard_generators,
)
from . import forms
from .forms import GeometryError, QuadraticSpace, build_space
from . import spreads as spr
from .spreads import PartialSpread


class LsError(RuntimeError):
    pass


class CodeError(LsError):
    """A decoder was handed an entry that is not a code of its field."""


class InjectivityFail(LsError):
    def __init__(self, msg, witnesses=None):
        super().__init__(msg)
        self.witnesses = witnesses or []


class UnsupportedFamily(LsError):
    pass


# ----------------------------------------------------------------------


@cache
def min_length_bound(order: int) -> int:
    """Sum of a_j * p_j over the prime factorization of the order."""
    if order < 1:
        raise ValueError("order must be >= 1")
    return sum(a * p for p, a in factorint(order).items()) if order > 1 else 0


class LogSignature(Record):
    """Ordered blocks of group elements with unique-product coverage."""

    group: GroupDescriptor | None
    blocks: list
    claimed_order: int
    meta: dict = {}
    # the decoder (a _Plan) and the ProductTables, not fields, so neither
    # serialized nor compared: set only by `from_stacks`; a file's or a
    # caller's blocks are lists, which may be edited in place
    plan = None
    tables = None

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.group, self.blocks, self.claimed_order, self.meta)
                == (other.group, other.blocks, other.claimed_order, other.meta))

    def __post_init__(self):
        # the sizes, read by every bounds check, rank and unrank
        object.__setattr__(self, "sizes", tuple(len(b) for b in self.blocks))
        if 0 in self.sizes:
            raise LsError("empty block")
        prod = math.prod(self.sizes)
        if prod != self.claimed_order:
            raise LsError(f"block sizes multiply to {prod}, claimed {self.claimed_order}")

    @classmethod
    def from_stacks(cls, group, fq: FqContext, n: int, stacks, claimed_order: int, meta: dict,
                    plan=None, tables=None) -> LogSignature:
        """A finished signature from its blocks as (k, n, n) int16 stacks,
        made read-only: each element wrapped in a `Mat` once, in tuples
        that keep the tables true, meta frozen (`_recast`), the plan, and
        the product tables of the stacks, built here unless given."""
        read_only(stacks)
        ls = cls(group, tuple(tuple(Mat(fq, a) for a in S) for S in stacks), claimed_order,
                 _recast(meta, MappingProxyType, tuple))
        object.__setattr__(ls, "plan", plan)
        object.__setattr__(ls, "tables", ProductTables.build(fq, n, stacks) if tables is None else tables)
        return ls

    @property
    def length(self):
        return sum(len(b) for b in self.blocks)

    def block_sizes(self):
        return list(self.sizes)

    def product_tables(self) -> ProductTables:
        """The tables built with the signature, else tables built now from
        the blocks it holds."""
        if self.tables is not None:
            return self.tables
        if self.blocks:
            fq, n = self.blocks[0][0].fq, self.blocks[0][0].n
        elif self.group is not None:
            fq, n = fq_context(self.group.p, self.group.e), self.group.n
        else:
            raise LsError("cannot multiply the blocks of an empty signature without a descriptor")
        return ProductTables.build(fq, n, self.blocks)

    def to_json(self):
        return {
            "group": self.group.to_json() if self.group else None,
            "claimed_order": self.claimed_order,
            "blocks": [[m.to_json() for m in b] for b in self.blocks],
            "meta": {k: _recast(v, dict, list) for k, v in self.meta.items() if _jsonable(v)},
        }


def _jsonable(v):
    return isinstance(v, (str, int, float, bool, list, tuple, dict, MappingProxyType, type(None)))


def _recast(v, mapping, sequence):
    """A meta value with every mapping in it a `mapping` and every list or
    tuple a `sequence`: read-only (MappingProxyType, tuple), or JSON types."""
    if isinstance(v, (dict, MappingProxyType)):
        return mapping({k: _recast(x, mapping, sequence) for k, x in v.items()})
    if isinstance(v, (list, tuple)):
        return sequence(_recast(x, mapping, sequence) for x in v)
    return v


class ProductTables(Record):
    """The block products of a signature, by segments.  From the end, each
    run of blocks whose sizes multiply to at most fields.CHUNK (one block
    at least) is a segment, and its table holds every product of one
    element per block of the run, in itertools.product order (the last
    block varies fastest).  No blocks make one empty segment, whose table
    is the identity.  Every product of the signature is one row of each
    table, multiplied across the segments: for a stack (sampled
    verification) by `products`, for one element (`compose`) by `product`.
    The tables and weights are read-only."""

    fq: FqContext
    n: int
    sizes: tuple
    tables: tuple          # the (N, n, n) int16 table of each segment, left to right
    weights: np.ndarray    # (blocks, segments): ivs @ weights are the table rows
    segments: tuple        # (lo, hi, weights) of each segment: its blocks lo..hi-1 and
                           # their weights, as Python ints

    @staticmethod
    def build(fq: FqContext, n: int, blocks) -> ProductTables:
        """The tables of the blocks, one stacked product per block.  A
        block is a list of `Mat` or a (k, n, n) stack: `np.asarray` stacks
        either."""
        sizes = tuple(len(b) for b in blocks)
        bounds, t = [], len(sizes)
        while t or not bounds:
            stop, size = t, 1
            while t and (t == stop or size * sizes[t - 1] <= fields.CHUNK):
                t -= 1
                size *= sizes[t]
            bounds.insert(0, (t, stop))
        weights = np.zeros((len(sizes), len(bounds)), dtype=np.int64)
        segments = tuple((lo, hi, tuple(math.prod(sizes[b + 1:hi]) for b in range(lo, hi))) for lo, hi in bounds)
        for s, (lo, hi, w) in enumerate(segments):
            weights[lo:hi, s] = w
        tables = tuple(reduce(lambda P, X: fq.mat_mul(P[:, None], X[None]).reshape(-1, n, n),
                              (np.asarray(blk, dtype=np.int16) for blk in blocks[lo:hi]), fq.identity(n)[None])
                       for lo, hi in bounds)
        return ProductTables(fq, n, sizes, read_only(tables), read_only(weights), segments)

    def products(self, ivs):
        """The left-to-right block products of the index vectors of ivs, a
        (k, blocks) array, as a (k, n, n) int16 stack: one gathered row per
        segment and one stacked `mat_mul` per segment after the first."""
        rows = np.asarray(ivs, dtype=np.int64).dot(self.weights)
        return reduce(self.fq.mat_mul, [T.take(r, axis=0) for T, r in zip(self.tables, rows.T)])

    def product(self, indices):
        """The left-to-right block product of one index vector, a tuple of
        Python ints, as an (n, n) int16 array, a view of the table row when
        there is one segment: what `products([indices])[0]` holds."""
        P = None
        for T, (lo, hi, w) in zip(self.tables, self.segments):
            X = T[sum(map(operator.mul, indices[lo:hi], w))]
            P = X if P is None else self.fq.mat_mul(P, X)
        return P

    def every(self, dtype=np.int64):
        """Every block product and its index vector, in itertools.product
        order (the last block varies fastest): an (N, n, n) int16 stack and
        an (N, blocks) array of the dtype."""
        mats = np.concatenate(list(self.walk()))
        return mats, np.indices(self.sizes, dtype=dtype).reshape(len(self.sizes), len(mats)).T

    def walk(self):
        """Every block product, in itertools.product order, as consecutive
        (k, n, n) stacks.  Each stack is a run of the products of the
        segments before the last, walked the same way, times the last
        table, so it holds at most fields.CHUNK products, or the last
        table alone when that is larger; the first segment's table is the
        first stack."""
        chunks = iter(self.tables[:1])
        for T in self.tables[1:]:
            chunks = self._times(chunks, T)
        return chunks

    def _times(self, chunks, T):
        step = max(1, fields.CHUNK // len(T))
        for L in chunks:
            for lo in range(0, len(L), step):
                yield self.fq.mat_mul(L[lo:lo + step, None], T[None]).reshape(-1, self.n, self.n)


def _first_indices(keys):
    """For each key of a 1-d array, the index of its first occurrence, from
    one stable argsort: what np.unique gives, but np.unique imports numpy.ma
    on its first call, about 1 MB and 17 ms in every command that verifies."""
    order = np.argsort(keys, kind="stable")
    s = keys[order]
    starts = np.flatnonzero(np.concatenate([[True], s[1:] != s[:-1]]))
    first = np.empty(len(keys), dtype=np.intp)
    first[order] = np.repeat(order[starts], np.diff(np.append(starts, len(keys))))
    return first


def _distinct_products(fq, blocks, n):
    """How many distinct canonical lifts the block products make."""
    keys = [fields.keys(canonical_lift(fq, A)) for A in ProductTables.build(fq, n, blocks).walk()]
    first = _first_indices(np.concatenate(keys))
    return int((first == np.arange(len(first))).sum())


# ----------------------------------------------------------------------
# cyclic sets


def _mixed_radices(s: int) -> list[int]:
    out = []
    for p, a in sorted(factorint(s).items()):
        out.extend([p] * a)
    return out


def cyclic_blocks(fq: FqContext, x, s: int) -> tuple[list, list[int]]:
    """Prime-size blocks {x^(j*M_t)} realizing the cyclic set {x^i : i < s}
    of an (n, n) array x, as (r, n, n) int16 stacks: the rows j*M_t of one
    table of the running powers of x."""
    return _power_blocks(powers(fq, x, s), s)


def _power_blocks(P, s):
    """`cyclic_blocks` read off the table P of the powers x^0, .., x^(s-1)."""
    if s <= 0:
        raise LsError("cyclic set size must be positive")
    radices = _mixed_radices(s)
    blocks, M = [], 1
    for r in radices:
        blocks.append(P[np.arange(r) * M])
        M *= r
    return blocks, radices


def cyclic_set_mls(fq: FqContext, x, s: int) -> LogSignature:
    """A minimal signature of the cyclic set {x^i : 0 <= i < s} of an
    (n, n) array x.  The s powers are distinct exactly when x is
    invertible and no x^i, 0 < i < s, is I, which the table of
    `cyclic_blocks` shows: FieldError for a singular x, and LsError naming
    the order when s exceeds it.

    Index sums over any block choice stay below s, so products never wrap:
    the set is covered uniquely.
    """
    if fq.det(x) == 0:
        raise FieldError("singular matrix has no order")
    P = powers(fq, x, s)
    hit = np.flatnonzero((P[1:] == P[0]).all(axis=(1, 2)))
    if len(hit):
        raise LsError(f"cyclic set size {s} exceeds element order {hit[0] + 1}")
    blocks, radices = _power_blocks(P, s)
    return LogSignature.from_stacks(None, fq, len(x), blocks, s, {"set": "cyclic", "radices": radices})


# ----------------------------------------------------------------------
# the construction ladder for the A part


class SpreadPlan(Record):
    """The A part of a stage, built once per space and determinant
    condition (`spread_construction`) and shared by every caller: frozen,
    with read-only arrays, `layers` and `notes` tuples and `partition` a
    read-only mapping, recast as `LogSignature.meta` is."""

    shape: str                   # empty | literal | cyclic | twisted | transversal
    W0: np.ndarray | None        # the (r, n) echelon basis of the base subspace
    members: PartialSpread | None
    layers: tuple                # (("cyc", (n, n) gen, size), ..) or (("trans", (k, n, n) moves),)
    notes: tuple
    partition: MappingProxyType | None

    def __post_init__(self):
        for name in ("layers", "notes", "partition"):
            object.__setattr__(self, name, _recast(getattr(self, name), MappingProxyType, tuple))
        read_only((self.W0, self.layers))

    @property
    def literal_ok(self):
        return self.shape in ("empty", "literal")


def ts_subspace_transporters(space, det1):
    """Transporters from the default base, the span of e_0, .., e_{r-1}
    (rows already reduced), to every totally singular r-space reachable in
    the chosen group, r the Witt index: all of them by Witt transitivity,
    except that on the plus type SO has two orbits of equal size.  Returns
    the (bases, moves) stacks of `spreads.schreier_transversal`."""
    r = space.witt_index
    size = maximal_ts_count(space.kind, space.q, r)
    if det1 and space.kind == "plus":
        size //= 2
    gens = _walk_generators(space, det1, size)
    return spr.schreier_transversal(space.fq, np.eye(r, space.n, dtype=np.int16), gens, size)


def _walk_generators(space, det1, size):
    """The generators of a transversal walk of `size` subspaces: every
    reflection for O, r_0 r_i for SO.  The walk's caps are checked on the
    count of the reflections, one per non-singular point, before any is
    built (`spreads.check_walk`)."""
    spr.check_walk(size, len(space.points()) - len(space.isotropic_points()) - det1)
    return forms.so_generators(space) if det1 else forms.o_generators(space)


def _try_layers(fq, shape, layers, members, at, L, notes):
    # the members are images of a totally singular subspace under
    # isometries, so two that meet share a singular point, which the
    # partition report (of their points' positions `at` in L) covers twice
    rep = spr.partition_report(at, L)
    return SpreadPlan(shape, members[0], PartialSpread(members, fq), layers, notes, rep) if rep["ok"] else None


def _spread_orbits(orbits, at, size):
    """The bases, in order, whose orbit has `size` members and is a partial
    spread, row j of `at` the positions in L of the points of base j: one
    test for each such orbit, which holds for all its members alike."""
    full = np.flatnonzero(orbits.ret == size)
    meet = {w: spr.first_meeting(at[orbits.rows[w]]) for w in set(orbits.orbit[full].tolist())}
    return full[[meet[w] is None for w in orbits.orbit[full].tolist()]]


def spread_construction(space: QuadraticSpace, family: str) -> SpreadPlan:
    """Verified partial-spread layer for the given family on this space.

    For n = 3 and 4, one walk moves every totally singular base subspace
    under the literal cyclic block.  The first base whose orbit is a
    partition of the singular points gives the literal plan; otherwise the
    half orbits of that walk are tried as twisted layerings, and finally
    the always-valid transversal over the trivial point spread is taken.
    From n = 5 that transversal is taken at once.  On the hyperbolic
    plane, where no literal recipe applies, the first generator of the
    family that swaps the two singular points is the cyclic block; SO
    fixes both, so there it raises LsError.  Only the determinant
    condition of the family matters, so the plan is built once per space
    for O and once for SO.
    """
    return _spread_construction(space, split_family(family)[1] == "SO")


@cache
def _spread_construction(space: QuadraticSpace, det1: bool) -> SpreadPlan:
    # each rung builds the plan with the notes of the rungs before it
    L = space.isotropic_points()
    if not len(L):
        return SpreadPlan("empty", None, None, (), (), None)
    # a singular point makes the Witt index r at least 1
    fq, q, n, r = space.fq, space.q, space.n, space.witt_index
    M = len(L) * (q - 1) // (q ** r - 1)
    notes = []
    if n < 3:
        notes.append("no literal cyclic recipe applies at this rank; block found by search")
        # the hyperbolic plane: M = 2, and a generator whose orbit on W0
        # has two members swaps the two singular points
        gens = forms.so_generators(space) if det1 else forms.o_generators(space)
        W0 = np.eye(r, n, dtype=np.int16)
        img = spr.act_rref(fq, gens, W0)[0]
        back = spr.act_rref(fq, gens, img)[0]
        hit = np.flatnonzero((img != W0).any(axis=(1, 2)) & (back == W0).all(axis=(1, 2)))
        if not len(hit):
            # nor a point transversal: the group is not transitive on L
            raise LsError(f"{'SO' if det1 else 'O'} of the hyperbolic plane fixes both singular points, "
                          "so no block moves one onto the other")
        notes.append("sharply transitive cyclic block found by element scan")
        members = np.stack([W0, img[hit[0]]])
        plan = _try_layers(fq, "cyclic", (("cyc", gens[hit[0]], 2),), members, spr.point_positions(fq, members, L),
                           L, notes)
        if plan:
            return plan
    elif n <= 4:
        try:
            desc = GroupDescriptor(family_of("SO" if det1 else "O", space.kind), q, n)
            lit, gnotes = standard_generators(desc, space)
        except ConstructionMismatch as exc:
            notes.append(f"literal generator construction failed: {exc}")
        else:
            notes.extend(gnotes)
            bases, moves = ts_subspace_transporters(space, det1)
            # every point of a totally singular base is singular: row j
            # holds the positions in L of the points of base j
            at = spr.point_positions(fq, bases, L)
            orbits = spr.cyclic_orbits(fq, powers(fq, lit, M + 1)[1:], bases)
            # M = q^k + 1 is even; a twisted layering starts from a base
            # whose orbit is a partial spread of M / 2 members
            literal, halves = _spread_orbits(orbits, at, M), _spread_orbits(orbits, at, M // 2)
            for i in literal:
                on = orbits.rows_on(i, M)
                plan = _try_layers(fq, "literal", (("cyc", lit, M),), bases[on], at[on], L, notes)
                if plan:
                    return plan
            notes.append(
                "literal cyclic block is not sharply transitive on any "
                "totally singular base orbit (construction mismatch)"
            )
            # a twisted layering: the half orbit of base i and that of a base
            # j, moved onto it by the transporter of j; the orbits of <a> are
            # disjoint, so j's orbit misses the points of i's when j does
            twisted = notes + ["using twisted layering: half torus orbit times an orbit-moving twist element"]
            for i in halves:
                on = orbits.rows_on(i, M // 2)
                covered = np.zeros(len(L), dtype=bool)
                covered[at[on]] = True
                for j in halves[~covered[at[halves]].any(axis=1)]:
                    both = np.concatenate([on, orbits.rows_on(j, M // 2)])
                    layers = (("cyc", lit, M // 2), ("cyc", moves[j], 2))
                    plan = _try_layers(fq, "twisted", layers, bases[both], at[both], L, twisted)
                    if plan:
                        return plan
    why = (f"no {M}-member spread of {r}-dimensional totally singular subspaces admits a layered block here"
           if n <= 4 else "the layered rungs are tried only up to n = 4")
    notes.append(f"{why}; degrading to the trivial point spread with a transversal block")
    # a canonical point is the echelon basis of its 1-space; the members
    # are the points in order, from w0 = L[0], member t holding L[t] alone
    bases, moves = spr.schreier_transversal(fq, L[:1], _walk_generators(space, det1, len(L)), len(L))
    layers = (("trans", moves[fields.lookup(fields.row_index(bases), L)]),)
    return _try_layers(fq, "transversal", layers, L[:, None], np.arange(len(L))[:, None], L, notes)


# ----------------------------------------------------------------------
# canonical signatures


def _count(mask):
    """The rows a mask flags; None flags none."""
    return 0 if mask is None else int(mask.sum())


def _tuples(A):
    """The rows of a 2-d array as a tuple of tuples of ints."""
    return tuple(map(tuple, A.tolist()))


def _reject(errors, rows, bad, exc_type, msg):
    """Record an exc_type(msg) for each row flagged in bad; returns bad."""
    for r in rows[bad]:
        errors[int(r)] = exc_type(msg)
    return bad


class _Plan:
    """A tame decoder, with two paths over the same tables, each table one
    dict on the entry bytes (`Mat.key`) of its rows.  `decode_many` decodes
    a whole (k, n, n) stack at once, one vectorized stage step at a time,
    and names the error of each element that fails.  `decode` serves one
    element: `_decode_one(Z)` takes one (n, n) int16 array of codes
    (`tobytes` reads it in C order whatever its layout) and returns its
    digits as a list, or None where the stack path would fail; `decode`
    then goes down that path to name the error.  Each path checks the code
    range once, at its top: `decode_many` in `_codes`, `decode` on the
    element's bytes before `_decode_one`, whose every lower level is handed
    a product of codes.
    Plans are framed: a plan for the input frame C decodes Z where C^-1 Z C
    is the element in the coordinates of its own space."""

    # a plan holds whole tables, which the field repr of a record would print
    __repr__ = object.__repr__

    def _codes(self, A):
        """A as a (k, n, n) int16 stack of codes of the plan's field; an
        LsError for any other shape, a dtype that is not an integer one, or
        an entry outside 0..q-1.  The entries are read unsigned, at a width
        of at least two bytes, where a negative one is at least 2^15 > q."""
        A = np.asarray(A)
        if A.ndim != 3 or A.shape[1:] != (self.n, self.n):
            raise LsError(f"expected a stack of {self.n}x{self.n} matrices, got shape {A.shape}")
        q = self.fq.q
        if A.dtype.kind not in "iu":
            raise LsError(f"expected integer codes of F_{q}, got dtype {A.dtype}")
        if A.itemsize < 2:
            A = A.astype(np.int16)
        if A.size and A.view(f"u{A.itemsize}").max() >= q:
            raise CodeError(f"stack has an entry outside the codes 0..{q - 1} of F_{q}")
        return A.astype(np.int16, copy=False)

    def decode_many(self, A, stats=None):
        """Index vectors of a (k, n, n) stack, as (digits, errors): digits
        is a (k, blocks) int64 array and errors maps the position of each
        element that cannot be decoded to its exception (an LsError, or the
        GeometryError of a singular matrix); the digit rows of those
        elements are meaningless.  A failing element does not stop the
        others.  A stack of the wrong shape, or with an entry that is not a
        code of the field, raises an LsError.  stats, when given,
        accumulates the per-element counts: `mults` (matrix products) and
        `lookups` (product-table hits)."""
        A = self._codes(A)
        out = np.zeros((len(A), self.width), dtype=np.int64)
        errors = {}
        self._decode_into(A, np.arange(len(A)), out, errors, 0, stats)
        return out, errors

    def decode(self, g: Mat):
        """The digits of one element, as a list of ints; raises what
        decode_many names for it.  An (n, n) `Mat`, already C-contiguous
        int16, whose bytes (`Mat.key`) hold codes of the field only, goes
        to `_decode_one`, which answers an exact table hit, or a stage path
        whose every border passes: the plan checks the code range before
        its first product.  A miss, an entry outside the codes and a `Mat`
        of another size go down decode_many as a one-element stack, which
        names the error."""
        a = g.a
        if a.shape == (self.n, self.n) and self.fq.holds_codes(g.key):
            digits = self._decode_one(a)
            if digits is not None:
                return digits
        out, errors = self.decode_many(a[None])
        if errors:
            raise errors[0]
        return out[0].tolist()


class _TablePlan(_Plan, Record):
    """The record and decoder of a base level, and the front or stabilizer
    table of a stage: the blocks and the table of all their products
    (small groups only), keyed by the entry bytes of the products in the
    frame they are looked up in.  Its arrays are read-only."""

    fq: FqContext
    n: int
    blocks: tuple      # the (k, n, n) int16 stacks, in the frame they were built in
    mats: np.ndarray   # (N, n, n) products
    ivs: np.ndarray    # (N, width) their index vectors, int16: no block of a table
                       # has more than max(fields.CHUNK, q + 1) < 2^15 elements

    def __post_init__(self):
        read_only((self.blocks, self.mats, self.ivs))
        object.__setattr__(self, "_rows", fields.row_index(self.mats))

    @property
    def width(self):
        return len(self.blocks)

    @staticmethod
    def build(fq: FqContext, n: int, blocks, tables: ProductTables | None = None):
        """The table of every product of the blocks (the identity for no
        blocks), from the walk of their product tables, built here unless
        given."""
        mats, ivs = (ProductTables.build(fq, n, blocks) if tables is None else tables).every(np.int16)
        plan = _TablePlan(fq, n, tuple(blocks), mats, ivs)
        if len(plan._rows) < len(mats):
            raise LsError("base-case products collide")
        return plan

    def framed(self, C, Cinv):
        return replace(self, mats=self.fq.mat_mul(self.fq.mat_mul(C, self.mats), Cinv))

    def _decode_one(self, Z):
        row = self._rows.get(Z.tobytes())
        return None if row is None else self.ivs[row].tolist()

    def _answer(self, Z, rows, out, col):
        """Writes the index vectors of the rows of Z found in the table;
        returns which were not found, or None when every row was."""
        at = fields.lookup(self._rows, Z)
        miss = at < 0
        if not miss.any():
            out[rows, col:col + self.width] = self.ivs.take(at, axis=0)
            return None
        out[rows[~miss], col:col + self.width] = self.ivs.take(at[~miss], axis=0)
        return miss

    def _decode_into(self, Z, rows, out, errors, col, stats):
        if not len(rows):
            return
        if stats is not None:
            stats["lookups"] = stats.get("lookups", 0) + len(rows)
        miss = self._answer(Z, rows, out, col)
        if miss is not None:
            _reject(errors, rows, miss, LsError, "element is not covered by this signature")


class _StagePlan(_Plan, Record):
    """The record of one level n >= 3 of the construction, built once per
    descriptor (`_staged_ls`), and its decoder.  The record is the fields
    up to `phi`, the Siegel and GL1 tables and `sub`: the head blocks (A,
    which carry the base subspace W0 onto the members of the spread, and
    the Singer block B) carry w to every singular point, and every block
    past them fixes the line of w.

    Each singular point p has a strip T^-1 b^-j a^-i C^-1 and the digits
    (i, j) of the A and B blocks that carry w to p; one dict on entry
    bytes, read by both decode paths, maps each nonzero vector of the line
    C p to p.  With `enter` = C T, an element Z for which C^-1 Z C sends w
    to p becomes strip(p) Z C T = T^-1 (b^-j a^-i C^-1 Z C) T, which fixes
    the line of e_0 in the working frame.  The rest is read off that matrix
    hw: the GL1 discrete log lam from its corner and the Siegel coordinates
    u = lam hw[SP, R] from column R, on the span SP of the basis vectors
    other than e_0 and f_0.  The Siegel table holds every product E(u) of
    the Siegel blocks in the working frame, a row per u by its digits, and
    E(-u) on the same row.  hw = E(u) d(lam) (1 + 1 + ysub) exactly when the
    border (rows and columns 0 and R) of Y = E(-u) hw, one gathered
    product, is that of d(lam), and ysub = Y[SP, SP] is decoded by `sub`.
    A copy `framed` by C keeps the record's own fields as built.  Every
    array of the record, and of each framed copy, is read-only; so are its
    derived arrays, set with the dicts the one-element path reads in
    `__post_init__`.

    A stage whose products are one segment (order <= fields.CHUNK) keeps
    them as the `front` table, which answers its elements before the point
    is found, and the rest go down the stage path, so a non-member fails
    with the same error as without it.  A larger stage whose stabilizer
    products fit one batch keeps them as the `stab` table, which answers
    hw; hw does not depend on the input frame, so neither does `stab`.

    One element (`_decode_one`) finds the row of u by the bytes of
    lam hw[:, R], column R of E(u) for a member, and compares border bytes.
    It ends at once on a table miss or a failed border: a miss is no
    member, and the stack path names the error.  It checks no code range:
    `decode` has checked the element's before the first product, and
    every array a lower level gets is a product of codes.  The digits of
    each head, Siegel and GL1 row are tuples, made once in
    `__post_init__`.
    """

    space: QuadraticSpace
    blocks: tuple        # the level's blocks, global frame, read-only stacks
    bounds: tuple        # (s, g, t): blocks[:s] head, [s:g] Siegel, [g:t] GL1, [t:] tail
    w: np.ndarray        # the base point, global frame
    T: np.ndarray        # the working Witt frame, columns in global coordinates
    phi: np.ndarray      # the frame of the model of SP in which `sub` decodes
    vectors: np.ndarray  # every nonzero vector on a singular line, input frame
    point: np.ndarray    # the index of each vector's line in strips and head
    strips: np.ndarray   # (|L|, n, n)
    head: np.ndarray     # (|L|, A and B digits)
    enter: np.ndarray    # C T
    R: int               # Witt index; e_0 and f_0 are basis vectors 0 and R
    SP: np.ndarray       # positions of the basis vectors other than e_0 and f_0
    work_gram: np.ndarray       # G, the form in the working frame: G e_0 = e_R, G e_R = e_0
    siegel: np.ndarray          # (q^|SP|, n, n) E(u), working frame, row by the digits of u
    siegel_inv: np.ndarray      # E(-u) on the row of u
    siegel_digits: np.ndarray   # the digits of u on each row, base p, the first most significant
    siegel_weights: np.ndarray  # the row of u is its digits dot these
    gl1_digits: np.ndarray      # digits of the discrete log of each unit (row 0 unused)
    sub: _Plan                  # the record of level n - 2, framed by phi
    front: _TablePlan | None    # every product of the stage, for a small group
    stab: _TablePlan | None     # every stabilizer product, working frame, for a small stabilizer

    def __post_init__(self):
        fq, n, R = self.space.fq, self.space.n, self.R
        # flat positions in hw: the border, column 0 first, and Y[SP, SP]
        rest = np.zeros((n, n), dtype=bool)
        rest[[0, R]] = rest[:, R] = True
        rest[:, 0] = False
        border = np.concatenate([np.arange(0, n * n, n), np.flatnonzero(rest)])
        # the border of d(lam) = diag(lam at 0, lam^-1 at R), one row per lam
        d = np.tile(fq.identity(n).reshape(1, -1), (fq.q, 1))
        d[:, 0], d[:, R * (n + 1)] = np.arange(fq.q), fq.INV
        # _siegel_rows, the one-element index of the Siegel table, maps the
        # bytes of column R of each E(u), which is lam hw[:, R] when
        # hw = E(u) d(lam) y, to the row of u; the residue positions are a
        # (|SP|, |SP|) array, so that a `take` gives Y[SP, SP] in its shape
        derived = {"n": n, "fq": fq, "width": self.bounds[2] + self.sub.width,
                   "_points": fields.row_index(self.vectors, self.point.tolist()),
                   "_siegel_rows": fields.row_index(self.siegel[:, :, R]),
                   "_border_pos": border, "_residue_pos": self.SP[:, None] * n + self.SP,
                   "_d_border": d[:, border], "_d_bytes": tuple(fields.keys(d[:, border]).tolist()),
                   "_head_digits": _tuples(self.head), "_siegel_row_digits": _tuples(self.siegel_digits),
                   "_gl1_row_digits": _tuples(self.gl1_digits)}
        for name, value in derived.items():
            object.__setattr__(self, name, value)
        # not through vars(self), which would materialise the instance dict
        # and slow every later attribute read
        read_only([*(getattr(self, name) for name in self._fields), *derived.values()])

    def framed(self, C, Cinv):
        fq = self.fq
        return replace(self, vectors=fq.mat_mul(self.vectors, np.ascontiguousarray(C.T)),
                       strips=fq.mat_mul(self.strips, Cinv), enter=fq.mat_mul(C, self.enter),
                       front=self.front.framed(C, Cinv) if self.front else None)

    def _decode_one(self, Z):
        if self.front is not None:
            return self.front._decode_one(Z)
        # Z holds codes (`decode`), so every product below does too
        fq = self.fq
        ZT = fq.mat_mul(Z, self.enter)
        pt = self._points.get(ZT[:, 0].tobytes())
        if pt is None:
            return None
        hw = fq.mat_mul(self.strips[pt], ZT)
        if self.stab is not None:
            rest = self.stab._decode_one(hw)
            return None if rest is None else [*self._head_digits[pt], *rest]
        lam = hw[0, 0]
        # lam hw[:, R] is a row of the MUL table read at codes, one `take`
        # over any field
        row = self._siegel_rows.get(fq.MUL[lam].take(hw[:, self.R]).tobytes())
        if row is None:
            return None
        Y = fq.mat_mul(self.siegel_inv[row], hw)
        if Y.take(self._border_pos).tobytes() != self._d_bytes[lam]:
            return None
        rest = self.sub._decode_one(Y.take(self._residue_pos))
        if rest is None:
            return None
        return [*self._head_digits[pt], *self._siegel_row_digits[row], *self._gl1_row_digits[lam], *rest]

    def _decode_into(self, Z, rows, out, errors, col, stats):
        # a failing row goes on through the arithmetic (every gather stays in
        # range) and is dropped before the recursion; it keeps its first error
        if not len(rows):
            return
        if self.front is not None:
            miss = self.front._answer(Z, rows, out, col)
            if stats is not None:
                stats["lookups"] = stats.get("lookups", 0) + len(rows) - _count(miss)
            if miss is None:
                return
            Z, rows = Z[miss], rows[miss]
        fq, n = self.fq, self.n
        ZT = fq.mat_mul(Z, self.enter)
        pt = fields.lookup(self._points, ZT[:, :, 0])
        alive = pt >= 0
        failed = not alive.all()
        if failed:
            for r, v in zip(rows[~alive].tolist(), ZT[~alive, :, 0]):
                errors[r] = (LsError("element does not move the base point inside the singular set") if v.any()
                             else GeometryError("zero vector has no projective point"))
            pt[~alive] = 0  # a missed row goes on through point 0
        hw = fq.mat_mul(self.strips.take(pt, axis=0), ZT)
        if stats is not None:
            # the products into the frame and hw for each element on a
            # singular line
            stats["mults"] = stats.get("mults", 0) + len(rows) + int(alive.sum())
        # the digits go straight into out: head, Siegel, GL1, then the tail's
        siegel = col + self.head.shape[1]
        gl1 = siegel + len(self.SP) * fq.e
        tail = gl1 + self.gl1_digits.shape[1]
        out[rows, col:siegel] = self.head.take(pt, axis=0)
        if self.stab is not None:
            # a hit is an exact product of the stabilizer blocks, so the
            # element is a member; only the misses go on for their errors
            miss = self.stab._answer(hw, rows, out, siegel)
            if stats is not None:
                stats["lookups"] = stats.get("lookups", 0) + len(rows) - _count(miss)
            if miss is None:
                return
            hw, rows, alive = hw[miss], rows[miss], alive[miss]
        k = len(hw)
        lam = hw[:, 0, 0]
        u = fq.v_scale(lam[:, None], hw[:, self.SP, self.R])
        # over a prime field a code is its one digit
        u_digits = u if fq.fast else fq.digits.take(u, axis=0).reshape(k, -1)
        Y = fq.mat_mul(self.siegel_inv.take(u_digits.dot(self.siegel_weights), axis=0), hw).reshape(k, n * n)
        off = Y.take(self._border_pos, axis=1) != self._d_border.take(lam, axis=0)
        out[rows, siegel:gl1] = u_digits
        out[rows, gl1:tail] = self.gl1_digits.take(lam, axis=0)
        fixes = alive  # on a singular line and fixing the line of e_0
        if off.any():
            failed = True
            moved = off[:, :n].any(axis=1)  # column 0: Y[0, 0] = lam wherever Y[1:, 0] = 0
            _reject(errors, rows, alive & moved, LsError, "element does not stabilize the base point")
            fixes = alive & ~moved
            alive = fixes & ~_reject(errors, rows, fixes & off[:, n:].any(axis=1), LsError,
                                     "stabilizer residue is not block diagonal")
        if stats is not None:
            # E(-u) and E(-u) hw for each element that fixes the line of
            # e_0, as the matrix path counts them
            stats["mults"] += 2 * int(fixes.sum())
        if failed:
            Y, rows = Y[alive], rows[alive]
        ysub = Y.take(self._residue_pos, axis=1)
        self.sub._decode_into(ysub, rows, out, errors, tail, stats)


@cache
def space_for(desc: GroupDescriptor) -> QuadraticSpace:
    """The quadratic space of the descriptor, built once per descriptor:
    decoding and verification look it up for every element.  Every command
    comes through here, so this is where a space past the envelope
    (`check_tower_size`) is turned away, before anything is built."""
    check_tower_size(desc.q, desc.m)
    return build_space(desc.kind, fq_context(desc.p, desc.e), desc.m)


@cache
def canonical_ls(desc: GroupDescriptor) -> LogSignature:
    """The canonical tame signature for the descriptor.

    Supports the O and SO families directly and the PSO families through
    projection.  Minimal length is achieved whenever the layered spread
    construction succeeds; the transversal fallback stays valid and tame
    but leaves one unrefined block (reported in meta).
    """
    base = desc.base_family()
    if base == "PSO":
        return project_ls(canonical_ls(desc.with_base("SO")))
    if base not in ("O", "SO"):
        raise UnsupportedFamily(
            f"canonical construction covers O, SO and PSO families, not {desc.family}"
        )
    # each claims the group order, which its constructor checks
    if desc.n <= 2:
        return _base_case_ls(desc)
    return _staged_ls(desc)


def _base_case_ls(desc: GroupDescriptor) -> LogSignature:
    """A signature for n = 1 or 2, decoded by the table of all its products."""
    space, base = space_for(desc), desc.base_family()
    fq = space.fq
    if desc.n == 1:
        one = fq.identity(1)
        blocks = [np.stack([one, fq.v_neg(one)])] if base == "O" else []
    else:
        els = forms.enumerate_isometry_group(space, "O")
        # in the order of their entry bytes
        els = els[np.argsort(fields.keys(els), kind="stable")]
        det1 = fq.det(els) == 1
        so = els[det1]
        # every element of SO_2 has an order dividing |SO_2|; a generator has
        # that order
        target = len(so)
        gen = next((g for g in so if element_order(fq, g, target) == target), None)
        if gen is None:
            raise LsError("rank-1 special orthogonal group is not cyclic here")  # pragma: no cover
        blocks = cyclic_blocks(fq, gen, target)[0]
        if base == "O":
            blocks.append(np.stack([fq.identity(2), els[~det1][0]]))
    blocks = tuple(blocks)
    tables = ProductTables.build(fq, desc.n, blocks)
    return LogSignature.from_stacks(desc, fq, desc.n, blocks, group_order(desc),
                                    {"shape": "base", "kind": desc.kind, "minimal": True},
                                    plan=_TablePlan.build(fq, desc.n, blocks, tables), tables=tables)


def _staged_ls(desc: GroupDescriptor) -> LogSignature:
    """The signature of one level n >= 3, finished with its stage record
    (`_StagePlan`) as the plan."""
    space = space_for(desc)
    fq, n, R = space.fq, space.n, space.witt_index
    sp_plan = spread_construction(space, desc.family)
    stacks, layers_meta = [], []

    # A layers
    for layer in sp_plan.layers:
        if layer[0] == "cyc":
            _, gen, size = layer
            cyc, radices = cyclic_blocks(fq, gen, size)
            stacks.extend(cyc)
            layers_meta.append({"type": "cyclic", "size": size, "radices": radices})
        else:
            stacks.append(layer[1])
            layers_meta.append({"type": "transversal", "size": len(layer[1])})

    # adapted frame
    W0 = sp_plan.W0
    T, Rw = forms._witt_decompose(fq, space.gram, W0)
    Tinv = fq.mat_inv(T)
    if Rw != R:
        raise LsError("adapted frame lost hyperbolic pairs")  # pragma: no cover
    work_gram = fq.mat_mul(fq.mat_mul(np.ascontiguousarray(T.T), space.gram), T)
    # the decoder reads u off column R and checks the border against d(lam):
    # both rest on G e_0 = e_R and G e_R = e_0
    if not np.array_equal(work_gram[:, [0, R]], fq.identity(n)[:, [R, 0]]):
        raise LsError("working frame: (e_0, f_0) is not a hyperbolic pair apart from the rest")  # pragma: no cover

    # the blocks after the A layers are built in the working frame and
    # moved to the global frame together by one product T X T^-1

    # B block: Singer coset representatives acting on W0
    r_dim = len(W0)
    t = (space.q ** r_dim - 1) // (space.q - 1)
    B = []
    if t > 1:
        D = singer_generator(r_dim, fq)
        bw = fq.identity(n)
        bw[:r_dim, :r_dim] = D
        bw[R:R + r_dim, R:R + r_dim] = fq.mat_inv(np.ascontiguousarray(D.T))
        if not forms.preserves_form(fq, work_gram, bw):
            raise LsError("Singer block is not an isometry of the working frame")
        # conjugation by T keeps the order
        if element_order(fq, bw, space.q ** r_dim) != space.q ** r_dim - 1:
            raise LsError("Singer block has the wrong order")
        B = cyclic_blocks(fq, bw, t)[0]

    # the Siegel table: the maps E(u) along every u on SP in the working
    # frame, one stacked Eichler map, row by the base-p digits of u in
    # itertools.product order (digit i e + j the coefficient of x^j in the
    # entry at SP[i]).  The maps along e_0 form an abelian group, E(u) E(v)
    # = E(u + v): the Siegel block (pos, theta) is the rows of one nonzero
    # digit, each product of the blocks the row of its digits, and E(-u)
    # the row of the negated digits; one stacked product checks every row
    SP = np.array(list(range(1, R)) + list(range(R + 1, 2 * R)) + list(range(2 * R, n)))
    digits = product_rows(fq.p, len(SP) * fq.e, 0, fq.p ** (len(SP) * fq.e))
    weights = fq.p ** np.arange(digits.shape[1] - 1, -1, -1)
    U = np.zeros((len(digits), n), dtype=np.int16)
    U[:, SP] = digits.reshape(len(digits), len(SP), fq.e).dot(fq.p ** np.arange(fq.e))
    E = forms.eichler(fq, work_gram, 0, U)
    siegel = [E[np.arange(fq.p) * w] for w in weights]
    E_inv = E[(-digits % fq.p).dot(weights)]
    if not (fq.mat_mul(E, E_inv) == fq.identity(n)).all():
        raise LsError("Siegel table: E(u) E(-u) is not the identity on every row")  # pragma: no cover

    # GL1 block: the powers of d(mu) = diag(mu at 0, mu^-1 at R)
    d_mu = fq.identity(n)
    d_mu[0, 0], d_mu[R, R] = fq.generator, fq.inv(fq.generator)
    gl1, gl1_radices = cyclic_blocks(fq, d_mu, space.q - 1)
    # d(mu)^k has corner mu^k, and mu generates F_q^*: k is the log of the
    # corner, and its digits are low radix first
    gl1_digits = np.zeros((space.q, len(gl1_radices)), dtype=np.int64)
    gl1_digits[1:] = np.transpose(np.unravel_index(fq.log[1:], gl1_radices[::-1]))[:, ::-1]

    # recursive tail on the model space of dimension n - 2, from the
    # stacks of its record
    sub_desc = replace(desc, n=desc.n - 2)
    sub_ls = canonical_ls(sub_desc)
    sub_gram = np.ascontiguousarray(work_gram[np.ix_(SP, SP)])
    phi, lam = forms.align_spaces(space_for(sub_desc), sub_gram, fq)
    phi_inv = fq.mat_inv(phi)
    # every element of the tail: phi x phi^-1 on SP, the identity on e_0
    # and f_0, in one stacked product
    tail = []
    if sub_ls.blocks:
        X = np.concatenate(sub_ls.plan.blocks)
        full = np.broadcast_to(fq.identity(n), (len(X), n, n)).copy()
        full[:, SP[:, None], SP] = fq.mat_mul(fq.mat_mul(phi, X), phi_inv)
        tail = np.split(full, np.cumsum(sub_ls.sizes)[:-1])

    # the blocks past the head multiply to the stabilizer of the point of w;
    # B and they move to the global frame together
    stab = siegel + gl1 + tail
    glob = fq.mat_mul(fq.mat_mul(T, np.concatenate(B + stab)), Tinv)
    blocks = tuple(stacks + np.split(glob, np.cumsum([len(S) for S in B + stab])[:-1]))
    bounds = tuple(itertools.accumulate(map(len, (stacks + B, siegel, gl1))))
    order = group_order(desc)
    tables = ProductTables.build(fq, n, blocks)

    # the head table, one row per singular point p: the index vector of the
    # one product h of the A and B blocks whose image of w lies on p, and
    # the strip T^-1 h^-1
    w = W0[0]
    points = space.isotropic_points()
    heads, ivs = ProductTables.build(fq, n, blocks[:bounds[0]]).every()
    hit = fields.lookup(fields.row_index(points), space.canon(fq.mat_vec(heads, w)))
    if not np.array_equal(np.sort(hit), np.arange(len(points))):
        raise LsError("the A and B blocks do not carry the base point once to each singular point")
    which = np.empty(len(points), dtype=np.intp)
    which[hit] = np.arange(len(heads))
    plan = _StagePlan(
        space=space, blocks=blocks, bounds=bounds, w=w, T=T, phi=phi,
        vectors=np.concatenate([fq.v_scale(c, points) for c in range(1, fq.q)]),
        point=np.tile(np.arange(len(points)), fq.q - 1),
        strips=fq.mat_mul(Tinv, forms.isometry_inverse(space, heads[which])),
        head=ivs[which], enter=T,
        R=R, SP=SP, work_gram=work_gram,
        siegel=E, siegel_inv=E_inv, siegel_digits=digits, siegel_weights=weights,
        gl1_digits=gl1_digits, sub=sub_ls.plan.framed(phi, phi_inv),
        front=_TablePlan.build(fq, n, blocks, tables) if order <= fields.CHUNK else None,
        stab=(_TablePlan.build(fq, n, stab)
              if order > fields.CHUNK and math.prod(map(len, stab)) <= fields.CHUNK else None),
    )
    return LogSignature.from_stacks(desc, fq, n, blocks, order, {
        "shape": sp_plan.shape,
        "literal_block_ok": sp_plan.literal_ok,
        "notes": sp_plan.notes,
        "a_layers": layers_meta,
        "similarity_scale": int(lam),
        "minimal": sp_plan.shape != "transversal" and bool(sub_ls.meta.get("minimal")),
    }, plan=plan, tables=tables)


# ----------------------------------------------------------------------
# parabolic subgroups


def parabolic_ls(space: QuadraticSpace, k: int, family: str = "O") -> LogSignature:
    """[R, Q]: unipotent radical and Levi blocks of the stabilizer of a
    totally singular k-space, in the O or SO family.
    """
    if family not in ("O", "SO"):
        raise LsError(f"parabolic signatures cover the O and SO families, not {family}")
    if k < 1:
        raise LsError(f"k = {k} is not in 1..{space.witt_index}, from 1 up to the Witt index")
    if k > space.witt_index:
        raise LsError(f"k = {k} exceeds the Witt index {space.witt_index}")
    fq = space.fq
    n, R = space.n, space.witt_index
    q = space.q
    # unipotent radical: closure of pairwise Eichler maps, along u = theta
    # e_pos for each pair i, each other position pos and each basis
    # element theta of F_q over F_p, one stacked Eichler map per pair
    gens = []
    mid_pos, mid_space = _middle_space(space, k)
    thetas = [fq.from_coeffs([0] * t + [1]) for t in range(fq.e)]
    for i in range(k):
        upos = [j for j in range(k) if j != i] + list(mid_pos)
        U = np.zeros((len(upos), fq.e, n), dtype=np.int16)
        for a, pos in enumerate(upos):
            U[a, :, pos] = thetas
        gens.append(forms.eichler(fq, space.gram, i, U.reshape(-1, n)))
    Rgrp = mulclose(fq, np.concatenate(gens))
    expected_R = q ** (k * (k - 1) // 2 + k * (n - 2 * k))
    if len(Rgrp) != expected_R:
        raise LsError(f"unipotent radical has size {len(Rgrp)}, expected {expected_R}")
    # Levi: GL_k x O(middle), D + D^-T on the first k pairs times an
    # isometry of the middle, D-major
    gl = _all_gl(fq, k)
    DM = np.broadcast_to(fq.identity(n), (len(gl), n, n)).copy()
    DM[:, :k, :k] = gl
    DM[:, R:R + k, R:R + k] = fq.mat_inv(np.swapaxes(gl, -1, -2))
    if mid_space is not None:
        mid = forms.enumerate_isometry_group(mid_space, "O")
    elif mid_pos:  # one middle position, where the isometries are +-1
        mid = np.array([1, fq.neg(1)], dtype=np.int16).reshape(2, 1, 1)
    else:
        mid = np.zeros((1, 0, 0), dtype=np.int16)
    if family == "SO" and mid_pos:
        mid = mid[fq.det(mid) == 1]
    M = np.broadcast_to(fq.identity(n), (len(mid), n, n)).copy()
    M[:, np.array(mid_pos, dtype=np.intp)[:, None], mid_pos] = mid
    Qblk = fq.mat_mul(DM[:, None], M[None]).reshape(-1, n, n)
    common = Qblk[fields.lookup(fields.row_index(Rgrp), Qblk) >= 0]
    if not len(common) or (common != fq.identity(n)).any():
        raise LsError("R and Q overlap beyond the identity")
    return LogSignature.from_stacks(None, fq, n, [Rgrp, Qblk], len(Rgrp) * len(Qblk),
                                    {"shape": "parabolic", "k": k, "family": family,
                                     "R_size": len(Rgrp), "Q_size": len(Qblk)})


@cache
def _middle_space(space: QuadraticSpace, k: int):
    """The positions of the Witt vectors outside the first k hyperbolic
    pairs, a tuple, and the space they span (None below dimension 2), built
    once per space and k so that its isometry group is enumerated once."""
    R, n = space.witt_index, space.n
    mid_pos = (*range(k, R), *range(R + k, 2 * R), *range(2 * R, n))
    if len(mid_pos) < 2:
        return mid_pos, None
    mid_gram = np.ascontiguousarray(space.gram[np.ix_(mid_pos, mid_pos)])
    return mid_pos, QuadraticSpace(space.kind, space.fq, mid_gram)


def _all_gl(fq, k):
    """Every invertible k x k matrix, in lexicographic order of entries, as
    a (g, k, k) stack, tested fields.CHUNK at a time with one stacked
    determinant."""
    total, step = fq.q ** (k * k), fields.CHUNK
    mats = (product_rows(fq.q, k * k, lo, min(lo + step, total)).astype(np.int16).reshape(-1, k, k)
            for lo in range(0, total, step))
    return np.concatenate([X[fq.det(X) != 0] for X in mats])


# ----------------------------------------------------------------------
# projection to projective quotients


def canonical_lift(fq: FqContext, A):
    """For each matrix g of a (k, n, n) stack, whichever of g and -g has
    the first entry bytes (`Mat.key`): the element that stands for the
    class of g in the quotient by {I, -I}."""
    A = np.ascontiguousarray(A, dtype=np.int16)
    neg = fq.v_neg(A)
    a, b = (X.reshape(len(X), -1).view(np.uint8) for X in (A, neg))
    rows, first = np.arange(len(A)), (a != b).argmax(axis=1)
    return np.where((a[rows, first] <= b[rows, first])[:, None, None], A, neg)


def project_ls(ls: LogSignature) -> LogSignature:
    """Blockwise image of a signature of SO under the quotient by the
    scalars of SO, relabelled PSO.  In odd dimension -I is not in SO, so
    the image is the signature itself with its plan and tables.  In even
    dimension the quotient is by {I, -I}, and one block is halved so the
    sizes match the quotient order.  A signature labelled with another
    family raises UnsupportedFamily; an unlabelled one needs a block.
    """
    if ls.group is not None and ls.group.base_family() != "SO":
        raise UnsupportedFamily(f"projection covers the SO families, not {ls.group.family}")
    if ls.group is None and not ls.blocks:
        raise LsError("an unlabelled signature with no blocks has no dimension to project in")
    qdesc = ls.group.with_base("PSO") if ls.group is not None else None
    n = ls.group.n if ls.group is not None else ls.blocks[0][0].n
    stacks = [np.asarray(b, dtype=np.int16) for b in ls.blocks]
    if n % 2 == 1:
        tables = ls.product_tables()
        return LogSignature.from_stacks(qdesc, tables.fq, n, stacks, ls.claimed_order, ls.meta,
                                        plan=ls.plan, tables=tables)
    fq = ls.blocks[0][0].fq
    target = ls.claimed_order // 2

    # g and -g both in a block make an aliased pair, named by its lift
    aliased = []
    for t, A in enumerate(stacks):
        paired = fields.lookup(fields.row_index(A), fq.v_neg(A)) >= 0  # -g lies in the block
        lifted = (canonical_lift(fq, A) == A).all(axis=(1, 2))
        if paired.any():
            aliased.append((t, paired & lifted, paired & ~lifted))

    def witnesses(found):
        return [(t, [Mat(fq, g).to_json() for g in stacks[t][lifts]]) for t, lifts, _ in found]

    if len(aliased) > 1:
        raise InjectivityFail("multiple blocks identify elements across the center",
                              witnesses=witnesses(aliased))

    candidates = []
    if len(aliased) == 1:
        t, _, drop = aliased[0]
        half = stacks[t][~drop]
        if len(half) * 2 != len(stacks[t]):
            raise InjectivityFail("aliased block cannot be halved cleanly", witnesses=witnesses(aliased))
        candidates.append((t, half))
    else:
        for t in range(len(stacks) - 1, -1, -1):
            sz = len(stacks[t])
            if sz % 2 == 0:
                candidates.append((t, stacks[t][: sz // 2]))

    for t, half in candidates:
        blocks2 = _fold_singletons(stacks[:t] + [half] + stacks[t + 1:], fq, n)
        if math.prod(len(b) for b in blocks2) == target == _distinct_products(fq, blocks2, n):
            lifts = [canonical_lift(fq, b) for b in blocks2]
            meta = dict(ls.meta)
            meta.update({"projected": True, "halved_block": t,
                         "minimal": ls.meta.get("minimal", False)})
            return LogSignature.from_stacks(qdesc, fq, n, lifts, target, meta)
    raise InjectivityFail("no single-block halving yields a transversal of the center")


def _fold_singletons(blocks, fq, n):
    """Remove the size-1 blocks of a list of (k, n, n) stacks; a
    nonidentity singleton folds into the next block (left translation),
    the last one into the block before, which preserves the unique-product
    property."""
    out = []
    carry = None  # element to left-multiply into the next block
    for blk in blocks:
        if carry is not None:
            blk, carry = fq.mat_mul(carry, blk), None
        if len(blk) == 1:
            if (blk[0] != fq.identity(n)).any():
                carry = blk[0]
            continue
        out.append(blk)
    if carry is not None:
        if out:
            out[-1] = fq.mat_mul(out[-1], carry)
        else:
            out.append(carry[None])
    return out


# ----------------------------------------------------------------------
# verification


class VerifyReport(Record):
    valid: bool
    mode: str
    length: int
    bound: int
    mls: bool
    claimed_order: int
    products_checked: int
    collisions: list
    not_in_group: int
    seed: int | None
    notes: list

    def to_json(self):
        # shallow: a long collision list is not copied
        return {**vars(self), "collisions": self.collisions[:3]}


# exhaustive verification walks at most this many products by default
EXHAUSTIVE_BUDGET = 1_000_000


def check_exhaustive_budget(order: int, budget: int) -> None:
    """Raises LsError when exhaustive verification of a signature of this
    order would walk more than `budget` products, before it is built."""
    if order > budget:
        raise LsError(f"exhaustive verification needs claimed_order <= {budget}")


def check_projection_budget(desc: GroupDescriptor, budget: int) -> None:
    """Raises LsError before `canonical_ls` builds a projective group in
    even dimension past `budget`: there `project_ls` keeps a key for each
    of the group_order(desc) products of the halved SO signature.  In odd
    dimension the quotient is the SO signature relabelled and walks
    nothing.  A space past the envelope is refused first, as in `verify_ls`."""
    if desc.projective and desc.n % 2 == 0:
        space_for(desc)
        if (order := group_order(desc)) > budget:
            raise LsError(f"projection walks the {order} products of the halved SO signature, "
                          f"past --budget {budget}")


def verify_ls(ls: LogSignature, mode="exhaustive", samples=10_000, seed=42,
              budget=EXHAUSTIVE_BUDGET) -> VerifyReport:
    """Exhaustive: every index-vector product is distinct, lies in the
    group, and the count equals the claimed order.  The products come from
    the walk of the product tables, one stack at a time: each stack is
    tested for membership, and the keys of all of them (of the canonical
    lifts for a projective group) go through one stable sort, which names
    the first index vector of each key.  Collisions are listed in product
    order.  Sampled: random index vectors round-trip through tame
    factorization.  In both modes a signature that names a group of
    closed-form order must claim that order.
    """
    bound = min_length_bound(ls.claimed_order)
    length = ls.length
    notes = []
    projective = ls.group is not None and ls.group.projective
    # a group past the parameter envelope raises here, before any check
    space = space_for(ls.group) if ls.group is not None else None
    if mode == "exhaustive":
        check_exhaustive_budget(ls.claimed_order, budget)
        tables = ls.product_tables()
        keys = []
        bad = 0
        for A in tables.walk():
            if space is not None:
                bad += len(A) - int(forms.membership_many(space, A, ls.group.family).sum())
            keys.append(fields.keys(canonical_lift(tables.fq, A) if projective else A))
        first = _first_indices(np.concatenate(keys))
        # every product whose key came earlier, in product order, with the
        # first index vector of that key
        again = np.flatnonzero(first != np.arange(len(first)))
        collisions = []
        if len(again):
            ivs, others = (np.stack(np.unravel_index(x, ls.block_sizes()), axis=1).tolist()
                           for x in (again, first[again]))
            collisions = [{"iv": iv, "other": other} for iv, other in zip(ivs, others)]
        order_ok = _claims_group_order(ls, notes)
        valid = not collisions and bad == 0 and len(first) == ls.claimed_order and order_ok
        return VerifyReport(valid, mode, length, bound, valid and length == bound,
                            ls.claimed_order, len(first), collisions, bad, None, notes)
    if mode == "sampled":
        if samples < 1:
            raise LsError(f"sampled verification needs samples >= 1, got {samples}")
        rng = random.Random(seed)
        if ls.plan is None:
            return _sampled_through_canonical(ls, samples, seed, rng, space, notes)
        failures, checked = [], 0
        for ivs, A in _sampled_products(rng, ls, samples):
            digits, errors = ls.plan.decode_many(A)
            checked += len(A)
            for r, (iv, got) in enumerate(zip(ivs, digits.tolist())):
                if r in errors:
                    raise errors[r]
                if got != iv:
                    failures.append({"iv": iv, "got": got})
                    if len(failures) > 5:
                        break
            if len(failures) > 5:
                break
        order_ok = _claims_group_order(ls, notes)
        valid = not failures and order_ok
        return VerifyReport(valid, mode, length, bound, valid and length == bound,
                            ls.claimed_order, checked, failures, 0, seed, notes)
    raise LsError(f"unknown mode {mode!r}")


def _claims_group_order(ls, notes):
    """Whether the signature claims the order of the group it names; a note
    says why when it does not, or when that group has no closed-form order
    (POmega, whose order depends on whether -I lies in Omega), which then
    leaves the claim to the other checks."""
    if ls.group is None:
        return True
    try:
        order = group_order(ls.group)
    except ValueError as exc:
        notes.append(f"claimed order not compared with the group order: {exc}")
        return True
    if ls.claimed_order != order:
        notes.append(f"claimed order {ls.claimed_order} is not the group order {order}")
        return False
    return True


def _sampled_products(rng, ls, samples):
    """Uniform index vectors and their products, in chunks of fields.CHUNK;
    rng is drawn one vector at a time, in sample order.  Each digit below s is
    drawn as `rng.randrange(s)` draws it, getrandbits(s.bit_length()) again
    while it is at least s, without its two calls per digit."""
    tables = ls.product_tables()
    draw = rng.getrandbits
    radices = [(s, s.bit_length()) for s in tables.sizes]
    for start in range(0, samples, fields.CHUNK):
        ivs = []
        for _ in range(min(fields.CHUNK, samples - start)):
            iv = []
            for s, k in radices:
                x = draw(k)
                while x >= s:
                    x = draw(k)
                iv.append(x)
            ivs.append(iv)
        yield ivs, tables.products(ivs)


def _sampled_through_canonical(ls, samples, seed, rng, space, notes):
    """Sampled check of a signature that carries no decoding tables, such
    as one read from a file: each sampled product must lie in the group,
    and distinct index vectors must decode to distinct canonical index
    vectors (a birthday test for colliding products)."""
    ref = canonical_ls(ls.group) if ls.group is not None else None
    if ref is None or ref.plan is None:
        raise LsError("sampled verification needs a decodable plan")
    notes.append("signature has no decoding tables; sampled products are decoded "
                  "through the canonical construction")
    order_ok = _claims_group_order(ls, notes)
    decoded = {}
    collisions = []
    bad = 0
    for ivs, A in _sampled_products(rng, ls, samples):
        member = forms.membership_many(space, A, ls.group.family)
        digits, errors = ref.plan.decode_many(A[member])
        # row r of digits belongs to the r-th member of the chunk
        for iv, is_member, r in zip(ivs, member, (np.cumsum(member) - 1).tolist()):
            if not is_member:
                bad += 1
                continue
            if r in errors:
                if not isinstance(errors[r], LsError):
                    raise errors[r]
                bad += 1  # the canonical tables cover the whole group
                continue
            other = decoded.setdefault(tuple(digits[r].tolist()), iv)
            if other != iv:
                collisions.append({"iv": iv, "other": other})
    valid = not collisions and bad == 0 and order_ok
    bound = min_length_bound(ls.claimed_order)
    return VerifyReport(valid, "sampled", ls.length, bound, valid and ls.length == bound,
                        ls.claimed_order, samples, collisions, bad, seed, notes)
