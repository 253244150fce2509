"""Batch front-end: construct, verify, factor, count, spread-check,
parabolic, project, pgm-demo and omega-check commands.

Every command prints a stable JSON report to stdout followed by
human-readable summary lines prefixed with '#'.  Identical command lines
produce byte-identical stdout; wall-clock timing goes to stderr only.
Exit codes: 0 all checks pass, 1 a verification found violations,
2 usage or construction error.
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import sys
import time

from . import __version__
from . import forms, pgm
from .factorize import compose, rank, tame_factor, unrank
from .fields import fq_context, projective_points
from .lscore import (
    EXHAUSTIVE_BUDGET,
    canonical_ls,
    check_exhaustive_budget,
    check_projection_budget,
    min_length_bound,
    parabolic_ls,
    space_for,
    spread_construction,
    verify_ls,
)
from .matgroups import FAMILIES, SUFFIXES, Mat, descriptor, family_of, group_order, isotropic_point_count
from .serial import load_ls, save_ls
from .spreads import classical_spread, verify_partition


def _add_group_args(sp, need_family=True):
    if need_family:
        sp.add_argument("--family", required=True, choices=FAMILIES)
    sp.add_argument("--q", type=int, required=True)
    g = sp.add_mutually_exclusive_group(required=True)
    g.add_argument("--m", type=int)
    g.add_argument("--n", type=int)


def _int_at_least(low):
    """The argparse type of an int of at least low; argparse exits 2 on
    anything else."""
    def parse(text):
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    return parse


def _add_common(sp):
    sp.add_argument("--seed", type=int, default=42)
    sp.add_argument("--samples", type=_int_at_least(1), default=10_000)
    sp.add_argument("--budget", type=_int_at_least(0), default=EXHAUSTIVE_BUDGET)


def build_parser():
    ap = argparse.ArgumentParser(
        prog="orthosig",
        description="logarithmic signatures for finite orthogonal groups (odd q)",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    c = sub.add_parser("counts", help="singular point count vs closed form")
    c.add_argument("--kind", required=True, choices=list(SUFFIXES))
    _add_group_args(c, need_family=False)
    _add_common(c)

    c = sub.add_parser("construct", help="build the canonical signature")
    _add_group_args(c)
    c.add_argument("--out", required=True)
    _add_common(c)

    c = sub.add_parser("verify", help="verify a signature file")
    c.add_argument("--in", dest="infile", required=True)
    c.add_argument("--mode", choices=["exhaustive", "sampled"], default="exhaustive")
    _add_common(c)

    c = sub.add_parser("factor", help="factor an element through the canonical signature")
    c.add_argument("--in", dest="infile", required=True)
    which = c.add_mutually_exclusive_group()
    which.add_argument("--rank", type=int, default=None, help="factor the element of this rank")
    which.add_argument("--element-file", default=None, help="JSON matrix to factor")
    _add_common(c)

    c = sub.add_parser("spread-check", help="classical spread and construction spread reports")
    c.add_argument("--kind", required=True, choices=list(SUFFIXES))
    _add_group_args(c, need_family=False)
    _add_common(c)

    c = sub.add_parser("parabolic", help="[R, Q] signature of the k-space stabilizer")
    _add_group_args(c)
    c.add_argument("--k", type=int, default=1)
    _add_common(c)

    c = sub.add_parser("project", help="project an SO signature to the PSO quotient")
    _add_group_args(c)
    c.add_argument("--out", default=None)
    _add_common(c)

    c = sub.add_parser("pgm-demo", help="signature-keyed permutation cipher demo")
    _add_group_args(c)
    c.add_argument("--messages", type=_int_at_least(0), default=8)
    _add_common(c)

    c = sub.add_parser("omega-check", help="even-rank criterion vs commutator-closure oracle")
    _add_group_args(c)
    _add_common(c)
    return ap


def _descriptor(args, family=None):
    return descriptor(family or args.family, args.q, m=args.m, n=args.n)


def _report(args, payload, summary_lines, code):
    doc = {
        "tool": "orthosig",
        "version": __version__,
        "command": args.command,
        "config": dict(sorted(vars(args).items())),
        "seed": getattr(args, "seed", None),
        "budgets": {
            "samples": getattr(args, "samples", None),
            "budget": getattr(args, "budget", None),
        },
        "result": payload,
    }
    print(json.dumps(doc, sort_keys=True, indent=2))
    for line in summary_lines:
        print(f"# {line}")
    return code


def cmd_counts(args):
    desc = _descriptor(args, family_of("O", args.kind))
    space = space_for(desc)
    pts = forms.enumerate_isotropic_points(space, check_count=False)
    expected = isotropic_point_count(args.kind, args.q, desc.m)
    match = len(pts) == expected
    payload = {"kind": args.kind, "q": args.q, "m": desc.m, "count": len(pts), "closed_form": expected,
               "match": match}
    return _report(args, payload, [f"isotropic points: {len(pts)} (closed form {expected})"],
                   0 if match else 1)


def cmd_construct(args):
    desc = _descriptor(args)
    check_projection_budget(desc, args.budget)
    ls = canonical_ls(desc)
    save_ls(ls, args.out)
    bound = min_length_bound(ls.claimed_order)
    payload = {
        "group": desc.to_json(),
        "order": ls.claimed_order,
        "length": ls.length,
        "bound": bound,
        "block_sizes": ls.block_sizes(),
        "shape": ls.meta.get("shape"),
        "notes": ls.meta.get("notes", []),
        "minimal_claimed": ls.meta.get("minimal", False),
        "out": args.out,
    }
    lines = [
        f"constructed signature for {desc.family} n={desc.n} q={desc.q}: "
        f"order {ls.claimed_order}, length {ls.length}, bound {bound}",
        f"written to {args.out}",
    ]
    return _report(args, payload, lines, 0)


def cmd_verify(args):
    ls_file = load_ls(args.infile)
    desc = ls_file.group
    notes = []
    if args.mode == "sampled":
        # a canonical file round-trips through its own tables; any other
        # file is sampled from its own blocks
        check_projection_budget(desc, args.budget)
        ls = canonical_ls(desc)
        if list(map(list, ls.blocks)) != ls_file.blocks:
            notes.append("file does not match the canonical construction")
            ls = ls_file
        rep = verify_ls(ls, mode="sampled", samples=args.samples, seed=args.seed, budget=args.budget)
    else:
        rep = verify_ls(ls_file, mode="exhaustive", budget=args.budget)
    payload = rep.to_json()
    payload["notes"] = payload["notes"] + notes
    ok = rep.valid
    lines = [
        f"{'VALID' if ok else 'INVALID'} ({args.mode}): length {rep.length}, bound {rep.bound}, "
        f"mls {'yes' if rep.mls else 'no'}",
    ]
    if rep.collisions:
        lines.append(f"first collision witness: {rep.collisions[0]}")
    return _report(args, payload, lines, 0 if ok else 1)


def cmd_factor(args):
    ls_file = load_ls(args.infile)
    if args.rank is None and args.element_file is None:
        return _report(args, {"error": "need --rank or --element-file"}, ["nothing to factor"], 2)
    desc = ls_file.group
    check_projection_budget(desc, args.budget)
    ls = canonical_ls(desc)
    if ls_file.claimed_order != ls.claimed_order:
        raise ValueError(f"signature file claims order {ls_file.claimed_order}, but {desc.family} n={desc.n} "
                         f"q={desc.q} has order {ls.claimed_order}")
    mismatch = list(map(list, ls.blocks)) != ls_file.blocks
    if args.rank is not None:
        iv = unrank(args.rank, ls)
        g = compose(iv, ls)
    else:
        with open(args.element_file) as fh:
            g = Mat.from_json(fq_context(desc.p, desc.e), json.load(fh))
    got = tame_factor(g, ls)
    back = compose(got, ls)
    payload = {
        "group": desc.to_json(),
        "indices": list(got),
        "rank": rank(got, ls),
        "recomposes": back.key == g.key,
        "canonical_mismatch": mismatch,
    }
    ok = back.key == g.key
    return _report(args, payload, [f"indices {list(got)} (rank {payload['rank']})"], 0 if ok else 1)


def cmd_spread_check(args):
    desc = _descriptor(args, family_of("O", args.kind))
    space = space_for(desc)  # the envelope check comes before V is enumerated
    fq = space.fq
    cls = classical_spread(fq, desc.m)
    cls_rep = verify_partition(cls, projective_points(fq, fq.identity(2 * desc.m)), fq)
    plan = spread_construction(space, desc.family)
    payload = {
        "classical": {"members": len(cls), "partition_of_V": cls_rep["ok"],
                      "points_per_member": cls_rep["points_per_member"]},
        "construction": {
            "shape": plan.shape,
            "members": len(plan.members) if plan.members else 0,
            "literal_block_ok": plan.literal_ok,
            "partition_of_L": plan.partition["ok"] if plan.partition else True,
            "notes": plan.notes,
        },
    }
    ok = cls_rep["ok"] and (plan.partition is None or plan.partition["ok"])
    lines = [
        f"classical spread: {len(cls)} members, partitions V\\0: {cls_rep['ok']}",
        f"construction spread ({plan.shape}): partitions singular points: "
        f"{plan.partition['ok'] if plan.partition else 'vacuous'}",
    ]
    return _report(args, payload, lines, 0 if ok else 1)


def cmd_parabolic(args):
    desc = _descriptor(args)
    space = space_for(desc)
    ls = parabolic_ls(space, args.k, desc.base_family())
    L = len(forms.enumerate_isotropic_points(space))
    stab = None
    if args.k == 1:
        stab = group_order(desc) // L
    payload = {
        "group": desc.to_json(),
        "k": args.k,
        "R_size": ls.meta["R_size"],
        "Q_size": ls.meta["Q_size"],
        "order": ls.claimed_order,
        "point_stabilizer_order": stab,
        "orbit_stabilizer_match": (stab == ls.claimed_order) if stab is not None else None,
    }
    ok = stab is None or stab == ls.claimed_order
    return _report(args, payload,
                   [f"|R| = {ls.meta['R_size']}, |Q| = {ls.meta['Q_size']}, |R||Q| = {ls.claimed_order}"],
                   0 if ok else 1)


def cmd_project(args):
    desc = _descriptor(args)
    if desc.base_family() != "SO":
        return _report(args, {"error": "project starts from an SO family"}, ["unsupported"], 2)
    pdesc = desc.with_base("PSO")
    # refused before the build as verify_ls refuses: envelope, then budget
    space_for(pdesc)
    check_exhaustive_budget(group_order(pdesc), args.budget)
    pls = canonical_ls(pdesc)
    rep = verify_ls(pls, mode="exhaustive", budget=args.budget)
    if args.out:
        save_ls(pls, args.out)
    payload = {
        "from": desc.to_json(),
        "to": pls.group.to_json(),
        "order": pls.claimed_order,
        "length": pls.length,
        "bound": rep.bound,
        "valid": rep.valid,
        "mls": rep.mls,
    }
    return _report(args, payload,
                   [f"projected order {pls.claimed_order}, length {pls.length}, valid {rep.valid}"],
                   0 if rep.valid else 1)


def cmd_pgm_demo(args):
    desc = _descriptor(args)
    check_projection_budget(desc, args.budget)
    key = pgm.keygen(desc, args.seed)
    order = key.order
    exhaustive = order <= 5000
    if exhaustive:
        seen = set()
        ok = True
        for msg in range(order):
            ct = pgm.encrypt(key, msg)
            if ct in seen or pgm.decrypt(key, ct) != msg:
                ok = False
                break
            seen.add(ct)
        bij = ok and len(seen) == order
    else:
        rng = random.Random(args.seed)
        bij = True
        for _ in range(min(args.samples, 2000)):
            msg = rng.randrange(order)
            if pgm.decrypt(key, pgm.encrypt(key, msg)) != msg:
                bij = False
                break
    demo = [[m, pgm.encrypt(key, m)] for m in range(min(args.messages, order))]
    payload = {
        "group": desc.to_json(),
        "order": order,
        "mode": "exhaustive" if exhaustive else "sampled",
        "permutation_verified": bij,
        "sample": demo,
    }
    return _report(args, payload,
                   [f"encrypt on Z_{order}: permutation verified = {bij}"],
                   0 if bij else 1)


def cmd_omega_check(args):
    desc = _descriptor(args)
    space = space_for(desc)
    # the audit closes O under its k reflections, and Omega under k^2
    # commutators and k conjugations; Omega has no closed order for n <= 2,
    # where SO stands in
    k = (desc.q ** desc.n - 1) // (desc.q - 1) - isotropic_point_count(desc.kind, desc.q, desc.m)
    omega = group_order(desc.with_base("Omega" if desc.n > 2 else "SO"))
    products = group_order(desc.with_base("O")) * k + omega * (k * k + k)
    if products > args.budget:
        raise ValueError(f"omega-check forms {products} products, past --budget {args.budget}")
    audit = forms.omega_audit(space)
    payload = {
        "group": desc.to_json(),
        "special_group_size": audit["group_size"],
        "commutator_subgroup_size": audit["omega_size"],
        "agreement": audit["agreement"],
        "disagreements": len(audit["disagreements"]),
        "first_disagreements": audit["disagreements"][:2],
    }
    lines = [
        f"rank criterion vs commutator oracle on {audit['group_size']} elements: "
        + ("full agreement" if audit["agreement"] else f"{len(audit['disagreements'])} disagreements"),
    ]
    return _report(args, payload, lines, 0)


COMMANDS = {
    "counts": cmd_counts,
    "construct": cmd_construct,
    "verify": cmd_verify,
    "factor": cmd_factor,
    "spread-check": cmd_spread_check,
    "parabolic": cmd_parabolic,
    "project": cmd_project,
    "pgm-demo": cmd_pgm_demo,
    "omega-check": cmd_omega_check,
}


def main(argv=None):
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    t0 = time.monotonic()
    try:
        code = COMMANDS[args.command](args)
    except (RuntimeError, ValueError, KeyError, OSError, MemoryError) as exc:
        # construction failures (LsError, OrderNotFound, ConstructionMismatch,
        # closure caps, a build that outgrows memory) and unreadable or
        # malformed input files
        doc = {"tool": "orthosig", "version": __version__, "command": args.command,
               "error": str(exc)}
        print(json.dumps(doc, sort_keys=True, indent=2))
        print(f"# error: {exc}")
        code = 2
    print(f"[timing] {args.command}: {time.monotonic() - t0:.3f}s", file=sys.stderr)
    return code


def entry():
    """The process entry of both launchers, `python -m orthosig` and the
    `orthosig` script.  Once the imports are done it freezes what they
    made into the collector's permanent generation, so neither `main` nor
    the interpreter's exit walks that graph again.  In-process callers call
    `main`, which leaves their heap alone."""
    gc.freeze()
    return main()
