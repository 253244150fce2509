"""JSON file encodings for signatures and related artifacts."""

from __future__ import annotations

import json

from .fields import fq_context, is_int
from .lscore import LogSignature
from .matgroups import GroupDescriptor, Mat, check_matrix_record


def save_ls(ls: LogSignature, path: str):
    # dumps runs the C encoder; json.dump streams through the pure-Python one
    text = json.dumps(ls.to_json(), sort_keys=True)
    with open(path, "w") as fh:
        fh.write(text + "\n")


def load_ls(path: str) -> LogSignature:
    """The signature of a file `save_ls` wrote.  Before any field or matrix
    is built, the document must be an object with a group descriptor, an
    int `claimed_order`, `blocks` a list of lists of matrix records
    (`check_matrix_record`, labelled with the group's n) and, if any, a dict
    `meta`; anything else raises a ValueError."""
    with open(path) as fh:
        d = json.load(fh)
    if not isinstance(d, dict) or not isinstance(d.get("group"), dict):
        raise ValueError("signature file carries no group descriptor")
    desc = GroupDescriptor.from_json(d["group"])
    if not is_int(d.get("claimed_order")):
        raise ValueError(f"claimed_order must be an int, got {d.get('claimed_order')!r}")
    blocks, n = d.get("blocks"), desc.n
    if not isinstance(blocks, list) or not all(isinstance(b, list) for b in blocks):
        raise ValueError("blocks must be a list of lists of matrix records")
    for i, b in enumerate(blocks):
        for j, m in enumerate(b):
            try:
                check_matrix_record(m, n)
            except ValueError as exc:
                raise ValueError(f"element {j} of block {i} is not a {n}x{n} matrix record: {exc}") from None
    if not isinstance(d.get("meta", {}), dict):
        raise ValueError(f"meta must be an object, got {d['meta']!r}")
    fq = fq_context(desc.p, desc.e)
    blocks = [[Mat.from_json(fq, m) for m in b] for b in blocks]
    return LogSignature(desc, blocks, d["claimed_order"], meta=d.get("meta", {}))
