"""Subspaces in canonical echelon form, classical field spreads, orbit
walks under cyclic groups and partition verification against point sets.

A subspace is its reduced echelon basis, an (r, n) int16 array whose bytes
are its key; a set of r-spaces is an (s, r, n) stack of such bases.  Two
subspaces meet exactly when they share a canonical point."""

from __future__ import annotations

import itertools

import numpy as np

from . import fields
from .fields import FqContext, Record, projective_points, read_only
from .matgroups import closure, powers, singer_generator


class NotAPartialSpread(ValueError):
    def __init__(self, msg, witness=None):
        super().__init__(msg)
        self.witness = witness


def act_rref(fq: FqContext, mats, bases):
    """Canonical bases of g_i(B_i) for a (k, n, n) stack of matrices g_i,
    or of g(B) for one matrix g: `bases` is one r x n basis shared by all
    g_i or a (k, r, n) stack, and row v of a basis maps to g v.  Returns
    `FqContext.rref` of the images: echelon forms, ranks, pivot products."""
    return fq.rref(fq.mat_mul(bases, np.swapaxes(mats, -1, -2)))


def subspace(fq: FqContext, vectors):
    """The reduced echelon basis of the row span of `vectors`."""
    R, rank, _ = fq.rref(np.atleast_2d(np.asarray(vectors, dtype=np.int16)))
    return R[:rank]


def act_subspace(fq: FqContext, g, S):
    """The reduced echelon basis of g(S) for an (n, n) array g, S given by
    its basis."""
    R, rank, _ = act_rref(fq, g, S)
    return R[:rank]


class CyclicOrbits(Record):
    """The orbits of k distinct echelon bases under one cyclic group <a>,
    each walked once: base i lies at position shift[i] of walks[orbit[i]],
    an (s, r, n) stack [W, aW, .., a^(s-1)W] whose images are the bases
    rows[orbit[i]] (-1 for none).  ret[i] is the size of the orbit of base
    i, or 0 when it exceeds the steps walked; then the walk is base i's
    alone, starts there and holds as many images as steps."""

    ret: np.ndarray
    orbit: np.ndarray
    shift: np.ndarray
    walks: list
    rows: list

    def walk(self, i, size):
        """The images a^t(B_i), t < size, of base i, as a (size, r, n)
        stack: its orbit's walk, rotated to start at B_i."""
        return np.roll(self.walks[self.orbit[i]], -int(self.shift[i]), axis=0)[:size]

    def rows_on(self, i, size):
        """The bases that `walk` gives, by position (-1 for none)."""
        return np.roll(self.rows[self.orbit[i]], -int(self.shift[i]))[:size]


def cyclic_orbits(fq: FqContext, pows, bases) -> CyclicOrbits:
    """The orbits of the distinct echelon bases of a (k, r, n) stack under
    <a>, from the (steps, n, n) stack a^1, .., a^steps.

    The next bases on no walk yet, in order, are moved by every power at
    once, at most fields.CHUNK images to one `act_rref`.  The orbit of a base
    that returns home within `steps` is the walk of each of its members
    among the bases, at its position; one that does not is the walk of that
    base alone.  A base that an earlier one's orbit reached in the same
    call is skipped.
    """
    steps, (k, r, n) = len(pows), bases.shape
    index = fields.row_index(bases)
    ret = np.zeros(k, dtype=np.intp)
    orbit = np.full(k, -1, dtype=np.intp)
    shift = np.zeros(k, dtype=np.intp)
    walks, rows = [], []
    chunk = fields.CHUNK
    per = max(1, chunk // steps)  # bases one call walks
    while len(todo := np.flatnonzero(orbit < 0)[:per]):
        mats = np.tile(pows, (len(todo), 1, 1))
        homes = np.repeat(bases[todo], steps, axis=0)
        imgs = np.concatenate([act_rref(fq, mats[lo:lo + chunk], homes[lo:lo + chunk])[0]
                               for lo in range(0, len(mats), chunk)]).reshape(len(todo), steps, r, n)
        for i, I in zip(todo, imgs):
            if orbit[i] >= 0:
                continue
            back = (I == bases[i]).all(axis=(1, 2))
            t = int(back.argmax()) + 1 if back.any() else 0
            walk = np.concatenate([bases[i][None], I[:(t or steps) - 1]])
            j = fields.lookup(index, walk)
            s = np.flatnonzero(j >= 0) if t else [0]
            ret[j[s]], orbit[j[s]], shift[j[s]] = t, len(walks), s
            walks.append(walk)
            rows.append(j)
    return CyclicOrbits(ret, orbit, shift, walks, rows)


def span_points(fq: FqContext, S):
    """Canonical reps of all projective points inside a subspace, as an
    (N, n) array in `fields.projective_points` order of its reduced basis,
    or inside each of an (s, r, n) stack of them, as an (s, N, n) array."""
    return projective_points(fq, S)


def point_positions(fq: FqContext, members, points):
    """The (s, N) positions in `points`, distinct canonical points, of the
    `span_points` of an (s, r, n) stack of bases; -1 for one not there."""
    spans = span_points(fq, members)
    return fields.lookup(fields.row_index(points), spans.reshape(-1, spans.shape[-1])).reshape(spans.shape[:2])


def _first_holders(ids):
    """The one partial-spread rule: two subspaces meet exactly when they
    share a canonical point.  For an (s, N) array of ids of the points of
    s members (positions or `fields.keys`; equal ids, one point), the first
    member holding each; rows i < j meet exactly when j holds a point that
    i holds first."""
    order = np.argsort(ids, axis=None, kind="stable")
    flat = ids.reshape(-1)[order]
    first = np.ones(len(flat), dtype=bool)
    first[1:] = flat[1:] != flat[:-1]
    held = np.empty_like(order)
    held[order] = order[first][np.cumsum(first) - 1] // ids.shape[1]
    return held.reshape(ids.shape)


def first_meeting(ids):
    """The first pair (i, j), i < j in row-major order, of members that
    share a point of the (s, N) ids (see `_first_holders`), or None."""
    held = _first_holders(ids)
    j, t = np.nonzero(held != np.arange(len(ids))[:, None])
    i = held[j, t]
    return (int(i.min()), int(j[i == i.min()].min())) if len(j) else None


class PartialSpread:
    """r-spaces that pairwise meet trivially, as one read-only (s, r, n)
    int16 stack `members` of their echelon bases, a copy of those given;
    duplicate members are rejected."""

    def __init__(self, members, fq: FqContext):
        self.members = read_only(np.array(members, dtype=np.int16, order="C"))
        self.fq = fq
        if len(fields.row_index(self.members)) != len(self.members):
            raise NotAPartialSpread("duplicate members", witness=fields.keys(self.members).tolist())

    def __len__(self):
        return len(self.members)

    def check_pairwise(self):
        """Raises NotAPartialSpread at the first pair (i, j), i < j in
        row-major order, whose members share a canonical point."""
        spans = span_points(self.fq, self.members)
        pair = first_meeting(fields.keys(spans.reshape(-1, spans.shape[-1])).reshape(spans.shape[:2]))
        if pair:
            raise NotAPartialSpread(f"members {pair[0]} and {pair[1]} intersect nontrivially", witness=pair)


def classical_spread(fq: FqContext, m: int) -> PartialSpread:
    """The q^m + 1 multiplicative translates A^i W, i = 0, .., q^m, of W =
    F_{q^m} inside F_{q^2m} = F_q[A], A = `singer_generator`(2m): W is
    spanned by g^t e_0, t < m, for g = A^(q^m + 1), which generates the
    units of F_{q^m}.  Each member is the echelon form of its m spanning
    vectors.

    Partitions the nonzero vectors of V.
    """
    if m < 1:
        raise ValueError(f"the classical spread needs m >= 1, got {m}")
    A = singer_generator(2 * m, fq)
    W = powers(fq, fq.mat_pow(A, fq.q ** m + 1), m)[:, :, 0]
    vecs = fq.mat_mul(W, np.swapaxes(powers(fq, A, fq.q ** m + 1), 1, 2))
    sp = PartialSpread(fq.rref(vecs)[0], fq)
    sp.check_pairwise()
    return sp


def partition_report(at, points):
    """Whether the members whose points sit at the (s, N) positions `at`
    (-1 for none) in the distinct `points` partition them, each carrying
    equally many; violations, the points covered again in row-major order
    and then the first point left uncovered, are report content."""
    held = _first_holders(at)
    own = (at >= 0) & (held == np.arange(len(at))[:, None])
    violations = [{"kind": "double_cover", "point": points[at[i, t]].tolist(), "members": [int(held[i, t]), i]}
                  for i, t in np.argwhere((at >= 0) & ~own)[:5].tolist()]
    covered = np.zeros(len(points), dtype=bool)
    covered[at[own]] = True
    uncovered = len(points) - int(covered.sum())
    if uncovered:
        violations.append({"kind": "uncovered", "point": points[covered.argmin()].tolist()})
    counts = own.sum(axis=1).tolist()
    equal = len(set(counts)) <= 1 and (not counts or counts[0] > 0)
    return {"ok": not violations and equal, "members": len(at), "points": len(points),
            "points_per_member": counts[0] if counts and equal else counts, "uncovered": uncovered,
            "violations": violations[:5]}


def verify_partition(spread: PartialSpread, points, fq: FqContext):
    """`partition_report` of a spread against a point set, each distinct
    point once, in the order it first appears."""
    points = np.asarray(points, dtype=np.int16)
    points = points[list(fields.row_index(points).values())]
    return partition_report(point_positions(fq, spread.members, points), points)


_TRANSVERSAL_CAP = 200_000


def schreier_transversal(fq: FqContext, start, gens, size):
    """Transversal of the orbit of a subspace, given by its echelon basis
    `start`, under the group generated by the (k, n, n) stack `gens`, when
    that orbit has `size` members: returns (bases, moves), the (size, r, n)
    echelon bases of the orbit and the (size, n, n) transporters, with
    moves[t](start) = bases[t].

    The orbit is the `matgroups.closure` of `start` under `act_rref` with
    the whole generator stack, so the bases come in BFS order; the walk
    stops once `size` bases are known, which skips expanding the nodes
    found last.  The transporter of a node is the generator that found it
    times the transporter of its parent, one stacked product per parent.
    The result is deterministic for a fixed generator order.  Raises
    RuntimeError when `size` exceeds _TRANSVERSAL_CAP or the orbit is
    smaller than `size`.
    """
    if size > _TRANSVERSAL_CAP:
        raise RuntimeError("transversal exceeded cap")
    nodes, parent, via = closure([np.ascontiguousarray(start, dtype=np.int16)],
                                 lambda x: act_rref(fq, gens, x)[0], size)
    if len(nodes) < size:
        raise RuntimeError(f"orbit has {len(nodes)} members, expected {size}")
    moves = np.empty((size,) + gens.shape[1:], dtype=np.int16)
    moves[0] = fq.identity(gens.shape[-1])
    for t, run in itertools.groupby(range(1, size), parent.__getitem__):
        run = list(run)
        moves[run] = fq.mat_mul(gens[[via[u] for u in run]], moves[t])
    return np.stack(nodes), moves
