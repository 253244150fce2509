"""One job of a workload, run in a fresh interpreter by run.py.

    python3 perfbench/worker.py '<json spec>'

The spec names the job (`build`, `decode` or `verify`), the seed, how many
rounds to run, whether to trace, and `t_spawn`, the
`time.perf_counter()` reading taken by the parent just before it started
this process (a system-wide monotonic clock on Linux), so set-up time
counts interpreter start.  The last line of stdout is one JSON object.
"""

from __future__ import annotations

import contextlib
import json
import os
import random
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import reference as ref  # noqa: E402

# decode-stream inputs
FACTOR_GROUPS = [("O-", 5, 2), ("O-", 9, 2), ("Oodd", 3, 2), ("O+", 3, 3)]
FACTOR_PER_GROUP = 50
SAMPLED_GROUP = ("O+", 3, 3)
SAMPLED_CALLS = 8
SAMPLED_PER_CALL = 25
PGM_EXHAUSTIVE = ("O-", 3, 2)
PGM_SAMPLED = ("O+", 5, 2)
PGM_ROUND_MESSAGES = 40

# verify-exhaustive inputs
VERIFY_GROUPS = [("O-", 5, 2), ("O+", 5, 2), ("Oodd", 3, 2), ("PSO+", 5, 2)]
NEGATIVE_CONTROL = ("O-", 3, 2)

SPOT_PRODUCTS = 24


def label(group):
    fam, q, m = group
    return f"{fam}{ref.dimension(fam, m)}({q})"


def tamper(blocks):
    """Swap element 1 of block 0 with element 1 of block 1, in place.
    The swap is fixed, so the control does not depend on the seed."""
    blocks[0][1], blocks[1][1] = blocks[1][1], blocks[0][1]


def check_exhaustive(report, order) -> list[str]:
    """Problems with an exhaustive report that should certify a signature
    of the given closed-form order."""
    problems = []
    if not report.valid:
        problems.append("exhaustive verification reports INVALID")
    if report.products_checked != order:
        problems.append(f"{report.products_checked} products checked, closed form {order}")
    if report.not_in_group:
        problems.append(f"{report.not_in_group} products outside the group")
    if report.collisions:
        problems.append(f"{len(report.collisions)} colliding products")
    if report.mls != (report.length == ref.min_length(order)):
        problems.append("mls flag disagrees with the minimal bound")
    return problems


def span_of(rec):
    """The recorder's span context manager, or a no-op when not tracing."""
    return rec.span if rec else (lambda name: contextlib.nullcontext())


def spot_check(ls, group, seed) -> list[str]:
    """Order and length against the closed forms; for prime q, the form
    and seeded products with the mod-p reference arithmetic."""
    fam, q, m = group
    problems = ref.check_signature(fam, q, m, ls.claimed_order, ls.block_sizes(),
                                   ls.length, ls.meta.get("minimal"))
    p, e = ref.split_q(q)
    if e == 1:
        from orthosig.lscore import space_for

        gram = space_for(ls.group).gram
        problems += ref.check_gram(gram, ref.kind(fam), p, m)
        rng = random.Random(f"{seed}/spot/{label(group)}")
        sizes = ls.block_sizes()
        ivs = {tuple(rng.randrange(s) for s in sizes) for _ in range(SPOT_PRODUCTS)}
        blocks = [[g.a for g in b] for b in ls.blocks]
        problems += ref.check_products(blocks, gram, p, sorted(ivs),
                                       projective=fam.startswith("PSO"))
    return [f"{label(group)}: {x}" for x in problems]


# ----------------------------------------------------------------------


def job_build(spec, rec):
    from orthosig.lscore import canonical_ls
    from orthosig.matgroups import descriptor

    group = tuple(spec["group"])
    fam, q, m = group
    desc = descriptor(fam, q, m=m)
    t0 = perf_counter()
    ls = canonical_ls(desc)
    build_s = perf_counter() - t0
    return {
        "group": label(group),
        "build_s": build_s,
        "shape": ls.meta.get("shape"),
        "minimal": bool(ls.meta.get("minimal")),
        "length": ls.length,
        "bound": ref.min_length(ref.group_order(fam, q, m)),
        "attempted": 1,
        "problems": spot_check(ls, group, spec["seed"]),
    }


def job_decode(spec, rec):
    from orthosig import pgm
    from orthosig.factorize import compose, rank, tame_factor, unrank
    from orthosig.lscore import canonical_ls, verify_ls
    from orthosig.matgroups import descriptor

    seed = spec["seed"]
    span = span_of(rec)
    with span("bench.setup"):
        sigs = {g: canonical_ls(descriptor(g[0], g[1], m=g[2])) for g in FACTOR_GROUPS}
        small = pgm.keygen(descriptor(*PGM_EXHAUSTIVE[:2], m=PGM_EXHAUSTIVE[2]), seed)
        big = pgm.keygen(descriptor(*PGM_SAMPLED[:2], m=PGM_SAMPLED[2]), seed)
    t_ready = perf_counter()

    problems = []
    for g, ls in sigs.items():
        problems += spot_check(ls, g, seed)
    problems += spot_check(small.alpha_ls, PGM_EXHAUSTIVE, seed)
    problems += spot_check(big.alpha_ls, PGM_SAMPLED, seed)
    prime = {g: ref.split_q(g[1])[1] == 1 for g in FACTOR_GROUPS}

    def pgm_roundtrip(key, msg):
        ct = pgm.encrypt(key, msg)
        back = pgm.decrypt(key, ct)
        if back != msg or not 0 <= ct < key.order:
            problems.append(f"pgm {key.group.family}: message {msg} -> {ct} -> {back}")
        return ct

    # encryption is a bijection on Z_|G| of the small key, checked once per
    # worker over every message, apart from the timed rounds
    with span("bench.pgm_bijection"):
        if len({pgm_roundtrip(small, msg) for msg in range(small.order)}) != small.order:
            problems.append(f"pgm {label(PGM_EXHAUSTIVE)}: encryption is not a bijection")

    # every round repeats the same operations, so that each one's fastest
    # repeat can be taken (run.py, best_parts)
    rng = random.Random(f"{seed}/decode")
    ranks = {g: [rng.randrange(ls.claimed_order) for _ in range(FACTOR_PER_GROUP)]
             for g, ls in sigs.items()}
    sampled_seeds = [rng.randrange(2 ** 31) for _ in range(SAMPLED_CALLS)]
    messages = [(key, rng.sample(range(key.order), PGM_ROUND_MESSAGES)) for key in (small, big)]

    def one_round():
        factor_us, parts = [], {}
        for g, ls in sigs.items():
            sizes = ls.block_sizes()
            for i, v in enumerate(ranks[g]):
                with span("bench.factor"):
                    t0 = perf_counter()
                    iv = unrank(v, ls)
                    elem = compose(iv, ls)
                    t1 = perf_counter()
                    got = tame_factor(elem, ls)
                    t2 = perf_counter()
                factor_us.append((t2 - t1) * 1e6)
                parts[f"factor {label(g)} {i}"] = t2 - t0
                if got != iv or list(iv) != ref.digits(v, sizes) or unrank(rank(iv, ls), ls) != iv:
                    problems.append(f"{label(g)}: rank {v} does not round-trip")
                elif prime[g]:
                    want = ref.mat_product([ls.blocks[b][j].a for b, j in enumerate(iv)], g[1])
                    if not (want == elem.a).all():
                        problems.append(f"{label(g)}: compose({list(iv)}) differs from "
                                        "the reference product")
        for i, s in enumerate(sampled_seeds):
            with span("bench.sampled_verify"):
                t0 = perf_counter()
                rep = verify_ls(sigs[SAMPLED_GROUP], mode="sampled", samples=SAMPLED_PER_CALL,
                                seed=s)
                parts[f"sampled {i}"] = perf_counter() - t0
            if not rep.valid or rep.products_checked != SAMPLED_PER_CALL:
                problems.append(f"sampled verify of {label(SAMPLED_GROUP)}: {rep.to_json()}")
        for key, msgs in messages:
            for msg in msgs:
                with span("bench.pgm_roundtrip"):
                    t0 = perf_counter()
                    pgm_roundtrip(key, msg)
                    parts[f"pgm {key.group.family} {msg}"] = perf_counter() - t0
        return {"parts": parts, "factor_us": factor_us,
                "ops": len(factor_us) + SAMPLED_CALLS + 2 * PGM_ROUND_MESSAGES}

    rounds = [one_round() for _ in range(spec["rounds"])]
    return {"t_ready": t_ready, "rounds": rounds,
            "attempted": small.order + sum(r["ops"] for r in rounds), "problems": problems}


def job_verify(spec, rec):
    from orthosig.lscore import canonical_ls, verify_ls
    from orthosig.matgroups import descriptor
    from orthosig.serial import load_ls, save_ls

    seed = spec["seed"]
    span = span_of(rec)
    os.makedirs(spec["files"], exist_ok=True)
    with span("bench.setup"):
        loaded = {}
        for g in VERIFY_GROUPS + [NEGATIVE_CONTROL]:
            path = os.path.join(spec["files"], f"{label(g)}.json")
            save_ls(canonical_ls(descriptor(g[0], g[1], m=g[2])), path)
            loaded[g] = load_ls(path)
        tampered = loaded.pop(NEGATIVE_CONTROL)
        tamper(tampered.blocks)
    t_ready = perf_counter()

    problems = []
    for g, ls in loaded.items():
        problems += spot_check(ls, g, seed)
    orders = {g: ref.group_order(*g) for g in loaded}

    def one_round():
        parts, products = {}, 0
        for g, ls in loaded.items():
            with span("bench.verify"):
                t0 = perf_counter()
                rep = verify_ls(ls, mode="exhaustive")
                parts[label(g)] = perf_counter() - t0
            products += rep.products_checked
            problems.extend(f"{label(g)}: {x}" for x in check_exhaustive(rep, orders[g]))
        verified = list(parts)
        with span("bench.negative_control"):
            t0 = perf_counter()
            rep = verify_ls(tampered, mode="exhaustive")
            parts["negative control"] = perf_counter() - t0
        if rep.valid:
            problems.append(f"tampered {label(NEGATIVE_CONTROL)} passes exhaustive verification")
        return {"parts": parts, "verified": verified, "products": products,
                "ops": len(loaded) + 1}

    rounds = [one_round() for _ in range(spec["rounds"])]
    return {"t_ready": t_ready, "rounds": rounds,
            "attempted": sum(r["ops"] for r in rounds), "problems": problems}


JOBS = {"build": job_build, "decode": job_decode, "verify": job_verify}


def main():
    spec = json.loads(sys.argv[1])
    import numpy

    import orthosig.cli  # noqa: F401  (loads every module of the package)

    rec = None
    if spec.get("trace"):
        import layers

        rec = layers.Recorder()
        layers.install(rec)
    import_s = perf_counter() - spec["t_spawn"]
    result = JOBS[spec["job"]](spec, rec)
    result["import_s"] = import_s
    result["t_spawn"] = spec["t_spawn"]
    result["numpy"] = numpy.__version__
    if rec is not None:
        result["trace"] = rec.layer_table()
        rec.dump(spec["spans_path"])
    print(json.dumps(result))


if __name__ == "__main__":
    main()
