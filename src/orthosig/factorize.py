"""Tame factorization through canonical signatures and the mixed-radix
rank/unrank bijection between Z_|G| and index vectors.

Decoding never searches the group: it is hash lookups on precomputed
spread and point tables, one discrete logarithm on a tiny table, and one
Siegel table lookup for the unipotent coordinates, down the stages.
"""

from __future__ import annotations

import operator

from . import forms
from .lscore import CodeError, LogSignature, LsError, space_for
from .matgroups import Mat


class FactorError(LsError):
    pass


def check_bounds(indices, ls: LogSignature) -> tuple:
    """The entries of a sequence of indices, each an integer in the range
    of its block, as a tuple of Python ints; FactorError otherwise.  Numpy
    integers are accepted; a float or any other non-integer is not."""
    sizes = ls.sizes
    if len(indices) != len(sizes):
        raise FactorError(f"index vector has {len(indices)} entries, signature has {len(sizes)} blocks")
    for x, s in zip(indices, sizes):
        if type(x) is not int or not 0 <= x < s:
            return _checked(indices, sizes)
    return tuple(indices)


def _checked(indices, sizes) -> tuple:
    out = []
    for i, (x, s) in enumerate(zip(indices, sizes)):
        try:
            x = operator.index(x)
        except TypeError:
            raise FactorError(f"index {x!r} in block {i} is not an integer") from None
        if not 0 <= x < s:
            raise FactorError(f"index {x} out of range [0, {s}) in block {i}")
        out.append(x)
    return tuple(out)


def tame_factor(g: Mat, ls: LogSignature) -> tuple:
    """The unique index vector, a tuple of ints, whose block product
    equals g.

    g is decoded first (`plan.decode`), and group membership is consulted
    only when the decode fails, to choose between "element is not in
    <family>" and the decode's own error.  A successful decode proves
    membership: a table hit matches a product of block elements byte for
    byte, and at a stage the border check fixes every entry of the stage
    matrix hw outside hw[SP, SP], which the sub-plan then matches in turn,
    so g is the product of the block elements its digits index; the plan
    checks the code range before its first product, once, on the bytes of
    g (`Mat.key`), and its lower levels take products of codes."""
    plan = ls.plan
    if plan is None:
        raise FactorError("signature carries no decoding tables")
    n, fq = plan.n, plan.fq
    if g.n != n:
        raise FactorError(f"element is {g.n}x{g.n}, signature acts on {n}x{n} matrices")
    if g.fq is not fq and (g.fq.p, g.fq.e) != (fq.p, fq.e):
        raise FactorError(f"element is over F_{g.fq.q}, signature is over F_{fq.q}")
    try:
        digits = plan.decode(g)
    except CodeError:
        raise FactorError(f"element has an entry outside the codes 0..{fq.q - 1} of F_{fq.q}") from None
    except (LsError, ValueError):
        if ls.group is not None and not forms.membership(space_for(ls.group), g, ls.group.family):
            raise FactorError(f"element is not in {ls.group.family}") from None
        raise
    # a plan's digits index rows of tables built from these blocks: in range
    return tuple(digits)


def compose(indices, ls: LogSignature) -> Mat:
    """Product of the indexed block elements, by the one-element
    `ProductTables.product`: read-only, and on one segment a table row.
    No blocks make the trivial group, whose one product is I."""
    indices = check_bounds(indices, ls)
    tables = ls.product_tables()
    return Mat(tables.fq, tables.product(indices))


def rank(indices, ls: LogSignature) -> int:
    """Mixed-radix value, first block fastest-varying.  The pass that
    accumulates it checks each index as `check_bounds` does, and hands
    anything but an in-range Python int to `check_bounds`, which raises or
    returns the indices as Python ints."""
    sizes = ls.sizes
    if len(indices) == len(sizes):
        out, mult = 0, 1
        for x, s in zip(indices, sizes):
            if type(x) is not int or not 0 <= x < s:
                break
            out += x * mult
            mult *= s
        else:
            return out
    return rank(check_bounds(indices, ls), ls)


def unrank(v: int, ls: LogSignature) -> tuple:
    try:
        v = operator.index(v)
    except TypeError:
        raise FactorError(f"rank {v!r} is not an integer") from None
    if not 0 <= v < ls.claimed_order:
        raise FactorError(f"rank {v} out of range [0, {ls.claimed_order})")
    out = []
    for s in ls.sizes:
        v, x = divmod(v, s)
        out.append(x)
    return tuple(out)
