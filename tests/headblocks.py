"""The head blocks of a stage signature of an O or SO group, read from the
signature and its spread construction, not from the decoder: the A blocks
come first, as many as the layers of meta["a_layers"] make, and the Singer
B blocks follow them, multiplying to the number of points of the base
subspace W0."""

import math

from orthosig.lscore import space_for, spread_construction


def stage_spread(ls):
    """The spread construction the top stage of ls is built on."""
    return spread_construction(space_for(ls.group), ls.group.family)


def head_blocks(ls):
    """(A blocks, B blocks) of the top stage of ls; no B blocks when W0 is
    a point."""
    a = sum(len(layer["radices"]) if layer["type"] == "cyclic" else 1 for layer in ls.meta["a_layers"])
    q, dim = ls.group.q, len(stage_spread(ls).W0)
    t = (q ** dim - 1) // (q - 1)
    b = a
    while math.prod(len(blk) for blk in ls.blocks[a:b]) < t:
        b += 1
    assert math.prod(len(blk) for blk in ls.blocks[a:b]) == t
    return ls.blocks[:a], ls.blocks[a:b]


def singer_b(ls):
    """b, the Singer generator: element 1 of the first B block, or None."""
    B = head_blocks(ls)[1]
    return B[0][1] if B else None
