"""JSON file encodings for signatures and related artifacts."""

from __future__ import annotations

import json

from .fields import fq_context, is_int
from .lscore import LogSignature
from .matgroups import GroupDescriptor, Mat


def save_ls(ls: LogSignature, path: str):
    with open(path, "w") as fh:
        json.dump(ls.to_json(), fh, sort_keys=True)
        fh.write("\n")


def load_ls(path: str) -> LogSignature:
    with open(path) as fh:
        d = json.load(fh)
    if d.get("group") is None:
        raise ValueError("signature file carries no group descriptor")
    desc = GroupDescriptor.from_json(d["group"])
    if not is_int(d["claimed_order"]):
        raise ValueError(f"claimed_order must be an int, got {d['claimed_order']!r}")
    fq = fq_context(desc.p, desc.e)
    blocks = [[Mat.from_json(fq, m) for m in b] for b in d["blocks"]]
    return LogSignature(desc, blocks, d["claimed_order"], meta=d.get("meta", {}))

