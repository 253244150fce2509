"""The cli-session workload: a fixed script of `python -m orthosig`
commands, run one at a time, each in its own interpreter.

Each round is one pass of the script; every pass repeats the command
lines of the first, and their stdout must be byte-identical.  Every command
has a documented exit code (0 checks pass, 1 violations found, 2 usage or
construction error) and a check of its JSON report against the reference
computations.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from time import perf_counter

import reference as ref
import worker

TIMING = re.compile(r"^\[timing\] [\w-]+: ([0-9.]+)s$", re.M)
IMPORT_PROBES = 2
SAMPLED_CHECKS = "300"
PGM_SAMPLES = "200"


def _report(stdout: str) -> dict:
    return json.loads(stdout.split("\n# ", 1)[0])["result"]


def _signature_check(fam, q, m):
    def check(res):
        return ref.check_signature(fam, q, m, res["order"], res["block_sizes"],
                                   res["length"], res["minimal_claimed"])
    return check


def _exhaustive_check(fam, q, m):
    def check(res):
        order = ref.group_order(fam, q, m)
        problems = [] if res["valid"] else ["reported INVALID"]
        if res["products_checked"] != order or res["not_in_group"]:
            problems.append(f"checked {res['products_checked']} of {order}, "
                            f"{res['not_in_group']} outside the group")
        return problems
    return check


def _invalid(res):
    return [] if not res["valid"] else ["tampered signature reported VALID"]


def script(seed: int, files: str):
    """[(name, argv, expected exit code, check of the report, known fault)].

    The seed picks the sampled-verify seed, the factored rank and the PGM
    key.  The sampled negative control keeps a fixed seed: it fails on
    every seed because `verify --mode sampled` samples the canonical
    construction instead of the file it is given.
    """
    f43 = os.path.join(files, "O-4(3).json")
    f45 = os.path.join(files, "O+4(5).json")
    bad = os.path.join(files, "O-4(3)-swapped.json")
    rank = (seed * 7919) % ref.group_order("O+", 5, 2)

    def factor_check(res):
        with open(f45) as fh:
            sizes = [len(b) for b in json.load(fh)["blocks"]]
        problems = [] if res["recomposes"] else ["does not recompose"]
        if res["indices"] != ref.digits(rank, sizes) or res["rank"] != rank:
            problems.append(f"indices {res['indices']} are not the digits of rank {rank}")
        return problems

    def pgm_check(res):
        return [] if res["permutation_verified"] and res["order"] == ref.group_order("O+", 5, 2) \
            else ["sampled messages do not round-trip"]

    def project_check(res):
        ok = res["valid"] and res["order"] == ref.group_order("PSO-", 3, 2)
        return [] if ok else [f"projection: {res}"]

    def counts_check(res):
        want = ref.singular_points("minus", 3, 2)
        return [] if res["count"] == want == res["closed_form"] else [f"count {res}"]

    def spread_check(res):
        return [] if res["construction"]["partition_of_L"] else ["spread does not partition L"]

    return [
        ("counts", ["counts", "--kind", "minus", "--q", "3", "--m", "2"], 0, counts_check, False),
        ("spread-check", ["spread-check", "--kind", "minus", "--q", "3", "--m", "2"], 0,
         spread_check, False),
        ("construct O-4(3)", ["construct", "--family", "O-", "--q", "3", "--m", "2", "--out", f43],
         0, _signature_check("O-", 3, 2), False),
        ("construct O+4(5)", ["construct", "--family", "O+", "--q", "5", "--m", "2", "--out", f45],
         0, _signature_check("O+", 5, 2), False),
        ("verify exhaustive O-4(3)", ["verify", "--in", f43, "--mode", "exhaustive"], 0,
         _exhaustive_check("O-", 3, 2), False),
        ("verify sampled O+4(5)", ["verify", "--in", f45, "--mode", "sampled",
                                   "--samples", SAMPLED_CHECKS, "--seed", str(seed)], 0,
         lambda res: [] if res["valid"] else ["reported INVALID"], False),
        ("factor O+4(5)", ["factor", "--in", f45, "--rank", str(rank)], 0, factor_check, False),
        ("project SO-4(3)", ["project", "--family", "SO-", "--q", "3", "--m", "2"], 0,
         project_check, False),
        ("pgm-demo O+4(5)", ["pgm-demo", "--family", "O+", "--q", "5", "--m", "2",
                             "--seed", str(seed), "--samples", PGM_SAMPLES], 0, pgm_check, False),
        ("verify exhaustive swapped O-4(3)", ["verify", "--in", bad, "--mode", "exhaustive"], 1,
         _invalid, False),
        ("verify sampled swapped O-4(3)", ["verify", "--in", bad, "--mode", "sampled",
                                           "--samples", SAMPLED_CHECKS, "--seed", "42"], 1,
         _invalid, True),
        ("construct q=4", ["construct", "--family", "O-", "--q", "4", "--m", "2",
                           "--out", os.path.join(files, "never.json")], 2, None, False),
    ]


def write_swapped(src: str, dst: str):
    """Copy of a signature file with element 1 of blocks 0 and 1 swapped."""
    with open(src) as fh:
        doc = json.load(fh)
    worker.tamper(doc["blocks"])
    with open(dst, "w") as fh:
        json.dump(doc, fh, sort_keys=True)
        fh.write("\n")


class Session:
    """Runs the script; `prefix` is the interpreter command line that
    stands for `python -m orthosig` (the traced run uses a shim)."""

    def __init__(self, root, env, files, timeout):
        self.root, self.env, self.files, self.timeout = root, env, files, timeout

    def _run(self, argv):
        t0 = perf_counter()
        proc = subprocess.run(argv, cwd=self.root, env=self.env, capture_output=True,
                              text=True, timeout=self.timeout)
        return proc, perf_counter() - t0

    def import_probe(self) -> float:
        """Interpreter start plus `import orthosig.cli`, timed from outside."""
        proc, wall = self._run([sys.executable, "-c", "import orthosig.cli"])
        if proc.returncode != 0:
            raise RuntimeError(f"importing orthosig.cli failed:\n{proc.stderr[-2000:]}")
        return wall

    def one_pass(self, seed, prefix, problems, tag=""):
        """Run the script once; returns per-command records."""
        os.makedirs(self.files, exist_ok=True)
        records = []
        for i, (name, args, want, check, known_fault) in enumerate(script(seed, self.files)):
            argv = [a.format(i=i, tag=tag) for a in prefix] + args
            proc, wall = self._run(argv)
            timing = TIMING.findall(proc.stderr)
            rec = {"name": name, "command": args[0], "exit": proc.returncode, "wall_s": wall,
                   "timing_s": float(timing[-1]) if timing else None,
                   "stdout": proc.stdout, "failed": False}
            if proc.returncode != want:
                if known_fault and proc.returncode == 0:
                    rec["failed"] = True
                else:
                    problems.append(f"{name}: exit {proc.returncode}, expected {want}: "
                                    f"{proc.stderr[-500:]}")
            elif check is not None:
                try:
                    problems.extend(f"{name}: {x}" for x in check(_report(proc.stdout)))
                except (ValueError, KeyError) as exc:
                    problems.append(f"{name}: unreadable report ({exc})")
            if name == "construct O-4(3)" and proc.returncode == 0:
                write_swapped(os.path.join(self.files, "O-4(3).json"),
                              os.path.join(self.files, "O-4(3)-swapped.json"))
            records.append(rec)
        return records

    def passes(self, seed, prefix, problems, count, tag=""):
        """Run the script `count` times, each pass after IMPORT_PROBES import
        probes; every pass must repeat the first pass's stdout byte for
        byte.  Returns one record per pass."""
        out = []
        for k in range(count):
            probes = [self.import_probe() for _ in range(IMPORT_PROBES)]
            records = self.one_pass(seed, prefix, problems, f"{tag}{k}")
            for a, b in zip(out[0]["records"] if out else records, records):
                if a["stdout"] != b["stdout"]:
                    problems.append(f"{a['name']}: stdout differs between identical command lines")
            out.append({
                "records": records,
                "wall_s": sum(r["wall_s"] for r in records),
                "parts": {r["name"]: r["wall_s"] for r in records},
                "probes": probes,
                "ops": len(records),
                "failed": sum(r["failed"] for r in records),
                "commands": [{k: v for k, v in r.items() if k != "stdout"} for r in records],
            })
        for p in out:
            del p["records"]
        return out
