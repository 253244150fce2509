"""Tame factorization through canonical signatures and the mixed-radix
rank/unrank bijection between Z_|G| and index vectors.

Decoding never searches the group: it is hash lookups on precomputed
spread and point tables, one discrete logarithm on a tiny table, and a
linear solve for the unipotent coordinates, recursively down the stages.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import forms
from .lscore import LogSignature, LsError, space_for
from .matgroups import Mat


class FactorError(LsError):
    pass


@dataclass(frozen=True)
class IndexVector:
    indices: tuple

    def __iter__(self):
        return iter(self.indices)

    def __len__(self):
        return len(self.indices)

    def to_json(self):
        return list(self.indices)


def check_bounds(iv, ls: LogSignature):
    sizes = ls.block_sizes()
    if len(iv.indices) != len(sizes):
        raise FactorError(f"index vector has {len(iv.indices)} entries, signature has {len(sizes)} blocks")
    for i, (x, s) in enumerate(zip(iv.indices, sizes)):
        if not 0 <= x < s:
            raise FactorError(f"index {x} out of range [0, {s}) in block {i}")


def tame_factor(g: Mat, ls: LogSignature, stats: dict | None = None) -> IndexVector:
    """The unique index vector whose block product equals g.

    g is decoded first, and group membership is consulted only when the
    decode fails, to choose between "element is not in <family>" and the
    decode's own error.  A successful decode proves membership: a table hit
    matches a product of block elements exactly, and at a stage the border
    check fixes every entry of the stage matrix hw outside hw[SP, SP],
    which the sub-plan then matches in turn, so g is the product of the
    block elements its digits index.  stats gets the decode's counts,
    except for a non-member, which leaves it as it was."""
    if ls.plan is None:
        raise FactorError("signature carries no decoding tables (not canonical)")
    n = ls.plan.n
    if g.n != n:
        raise FactorError(f"element is {g.n}x{g.n}, signature acts on {n}x{n} matrices")
    before = None if stats is None else dict(stats)
    try:
        digits = ls.plan.decode(g, stats)
    except (LsError, ValueError):
        if ls.group is not None and not forms.membership(space_for(ls.group), g, ls.group.family):
            if stats is not None:
                stats.clear()
                stats.update(before)
            raise FactorError(f"element is not in {ls.group.family}") from None
        raise
    iv = IndexVector(tuple(digits))
    check_bounds(iv, ls)
    return iv


def compose(iv: IndexVector, ls: LogSignature) -> Mat:
    """Product of the indexed block elements: one row of each product
    table, multiplied across the segments."""
    check_bounds(iv, ls)
    if not ls.blocks:
        raise FactorError("signature has no blocks")
    return Mat(ls.blocks[0][0].fq, ls.product_tables().products([iv.indices])[0])


def rank(iv: IndexVector, ls: LogSignature) -> int:
    """Mixed-radix value, first block fastest-varying."""
    check_bounds(iv, ls)
    out = 0
    mult = 1
    for x, s in zip(iv.indices, ls.block_sizes()):
        out += x * mult
        mult *= s
    return out


def unrank(v: int, ls: LogSignature) -> IndexVector:
    if not 0 <= v < ls.claimed_order:
        raise FactorError(f"rank {v} out of range [0, {ls.claimed_order})")
    out = []
    for s in ls.block_sizes():
        out.append(v % s)
        v //= s
    return IndexVector(tuple(out))
