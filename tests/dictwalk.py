"""Reference exhaustive verification shared by the test modules, written
apart from the package's stacked product walk: one product per index
vector, one membership test per product and a dict of keys."""

import itertools

from orthosig import forms
from orthosig.lscore import space_for
from orthosig.matgroups import Mat


def verify_by_dict_walk(ls):
    """(collisions, not_in_group, distinct keys) of a walk over every index
    vector in itertools.product order; a collision names the index vector
    of a repeated key and the first one that had it.  For a projective
    group the key of g is the smaller of the keys of g and -g."""
    desc = ls.group
    space = space_for(desc)
    one = Mat(space.fq, space.fq.identity(desc.n))
    minus = Mat(space.fq, space.fq.v_neg(space.fq.identity(desc.n)))
    seen, collisions, outside = {}, [], 0
    for iv in itertools.product(*[range(len(b)) for b in ls.blocks]):
        g = one
        for blk, i in zip(ls.blocks, iv):
            g = g * blk[i]
        key = min(g.key, (minus * g).key) if desc.projective else g.key
        if key in seen:
            collisions.append({"iv": list(iv), "other": seen[key]})
        else:
            seen[key] = list(iv)
        outside += not forms.membership(space, g, desc.family)
    return collisions, outside, len(seen)
