"""Subspaces in canonical echelon form, classical field spreads, orbit
walks under cyclic groups and partition verification against point sets.

A subspace is its reduced echelon basis, an (r, n) int16 array whose bytes
are its key; a set of r-spaces is an (s, r, n) stack of such bases."""

from __future__ import annotations

import itertools

import numpy as np

from . import fields
from .fields import FqContext, projective_points, read_only
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


# a plain class: as a dataclass it would add about 0.3 ms to the import of
# every command
class CyclicOrbits:
    """The orbits of k distinct echelon bases under one cyclic group <a>,
    each walked once: base i lies at position shift[i] of walks[orbit[i]],
    an (s, r, n) stack [W, aW, .., a^(s-1)W].  ret[i] is the size of the
    orbit of base i, or 0 when it exceeds the steps walked; then the walk
    is base i's alone, starts there and holds as many images as steps."""

    def __init__(self, ret, orbit, shift, walks):
        self.ret, self.orbit, self.shift, self.walks = ret, orbit, shift, walks

    def walk(self, i, size):
        """The images a^t(B_i), t < size, of base i, as a (size, r, n)
        stack: its orbit's walk, rotated to start at B_i."""
        return np.roll(self.walks[self.orbit[i]], -int(self.shift[i]), axis=0)[:size]


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
    walks = []
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
            j = fields.lookup(index, walk if t else walk[:1])
            s = np.flatnonzero(j >= 0)
            ret[j[s]], orbit[j[s]], shift[j[s]] = t, len(walks), s
            walks.append(walk)
    return CyclicOrbits(ret, orbit, shift, walks)


def span_points(fq: FqContext, S):
    """Canonical reps of all projective points inside a subspace, as an
    (N, n) array in `fields.projective_points` order of its reduced basis,
    or inside each of an (s, r, n) stack of them, as an (s, N, n) array."""
    return projective_points(fq, S)


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
        row-major order, whose members meet nontrivially: the bases of all
        pairs are stacked and ranked against 2r by `FqContext.rank` in
        chunks of fields.CHUNK pairs."""
        B = self.members
        I, J = np.triu_indices(len(B), 1)
        for lo in range(0, len(I), fields.CHUNK):
            i, j = I[lo:lo + fields.CHUNK], J[lo:lo + fields.CHUNK]
            bad = np.flatnonzero(self.fq.rank(np.concatenate([B[i], B[j]], axis=1)) != 2 * B.shape[1])
            if len(bad):
                i, j = int(i[bad[0]]), int(j[bad[0]])
                raise NotAPartialSpread(
                    f"members {i} and {j} intersect nontrivially",
                    witness=(i, j),
                )


def orbits_are_partial_spreads(fq: FqContext, orbits):
    """For a (k, s, r, n) stack of orbits [W, gW, .., g^{s-1}W] of
    r-spaces, each of s members, whether each orbit is a partial spread.

    g^iW and g^jW meet as g^i(W ∩ g^{j-i}W), so an orbit is one exactly
    when W meets no g^tW, t = 1..s-1; those k(s-1) pairs are ranked in
    stacks of fields.CHUNK pairs.
    """
    k, s, r, n = orbits.shape
    pairs = np.concatenate([np.broadcast_to(orbits[:, :1], (k, s - 1, r, n)), orbits[:, 1:]],
                           axis=2).reshape(-1, 2 * r, n)
    ok = np.empty(len(pairs), dtype=bool)
    for lo in range(0, len(pairs), fields.CHUNK):
        ok[lo:lo + fields.CHUNK] = fq.rank(pairs[lo:lo + fields.CHUNK]) == 2 * r
    return ok.reshape(k, s - 1).all(axis=1)


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


def verify_partition(spread: PartialSpread, points, fq: FqContext):
    """Checks every point lies in exactly one member and the members carry
    equally many points.  Violations are report content, not exceptions.
    """
    index = fields.row_index(points)  # each distinct point, at its last position
    owner: dict[int, int] = {}
    counts = [0] * len(spread)
    violations = []
    for i, span in enumerate(projective_points(fq, spread.members)):
        for t, p in enumerate(fields.lookup(index, span).tolist()):
            if p < 0:
                continue
            if p in owner:
                violations.append({"kind": "double_cover", "point": span[t].tolist(), "members": [owner[p], i]})
            else:
                owner[p] = i
                counts[i] += 1
    uncovered = len(index) - len(owner)
    if uncovered:
        p = next(p for p in index.values() if p not in owner)
        violations.append({"kind": "uncovered", "point": np.asarray(points[p], dtype=np.int16).tolist()})
    equal = len(set(counts)) <= 1 and (not counts or counts[0] > 0)
    ok = not violations and equal and uncovered == 0
    return {
        "ok": bool(ok),
        "members": len(spread),
        "points": len(index),
        "points_per_member": counts[0] if counts and equal else counts,
        "uncovered": uncovered,
        "violations": violations[:5],
    }


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
