"""orthosig benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py [--seed N --seconds S --trace 0|1]   # all four

Run from the root of a source checkout; the program is imported from
`src/`.  Every run spawns its worker interpreters one at a time, checks
every output against the reference computations in `reference.py`, prints
one `detail` line per workload-specific metric and one `layer` line per
per-layer metric, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json;
with --trace 1 they are its per-layer metrics, from one untraced and one
traced round.  Results also go to .perfbench_out/ with the git SHA,
interpreter and numpy versions, nproc and seed.  See README.md.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
sys.path.insert(0, HERE)

import clisession  # noqa: E402
import layers  # noqa: E402
import worker  # noqa: E402

WORKLOADS = ["build-ladder", "decode-stream", "verify-exhaustive", "cli-session"]

# literal O+4(q), twisted O-4(q) (q = 9 uses table arithmetic), transversal
BUILD_GRID = [("O+", 3, 2), ("O+", 5, 2), ("O+", 7, 2),
              ("O-", 3, 2), ("O-", 5, 2), ("O-", 9, 2),
              ("Oodd", 3, 2), ("O+", 3, 3), ("O-", 3, 3)]
SETUP_REPEATS = 3
# whole rounds in a run at --seconds 50, scaled linearly for other values.
# On a 2-core reference machine a round takes about 12 s (build-ladder,
# one sweep of the grid), 0.4 s (decode-stream), 11 s (verify-exhaustive)
# and 5 s (cli-session, one pass of the script); with its set-ups a run at
# --seconds 50 takes about 50 s
ROUNDS_AT_50S = {"build-ladder": 4, "decode-stream": 54, "verify-exhaustive": 4,
                 "cli-session": 9}
WORKER_TIMEOUT = 170

ENV = dict(os.environ)
ENV["PYTHONPATH"] = SRC + (os.pathsep + ENV["PYTHONPATH"] if ENV.get("PYTHONPATH") else "")
for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    ENV[var] = "1"


class BenchError(RuntimeError):
    pass


def spawn(spec) -> dict:
    """Run one worker job to its end; returns its JSON result."""
    spec = dict(spec)
    argv = [sys.executable, os.path.join(HERE, "worker.py")]
    spec["t_spawn"] = perf_counter()
    proc = subprocess.run(argv + [json.dumps(spec)], cwd=ROOT, env=ENV,
                          capture_output=True, text=True, timeout=WORKER_TIMEOUT)
    if proc.returncode != 0:
        raise BenchError(f"worker {spec['job']} exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024


def merge_traces(tables) -> dict:
    out = {"layers": {}, "counters": {}, "spans": 0}
    for t in tables:
        for name, row in t["layers"].items():
            acc = out["layers"].setdefault(name, {"calls": 0, "self_s": 0.0})
            acc["calls"] += row["calls"]
            acc["self_s"] += row["self_s"]
        for name, v in t["counters"].items():
            out["counters"][name] = out["counters"].get(name, 0) + v
        out["spans"] += t["spans"]
    return out


def percentile_tail(values, pct):
    """(value at pct, samples beyond it), or None with fewer than ten beyond."""
    xs = sorted(values)
    v = xs[min(len(xs) - 1, int(len(xs) * pct / 100))]
    beyond = sum(x > v for x in xs)
    return (v, beyond) if beyond >= 10 else None


# ----------------------------------------------------------------------
# workloads; each returns a dict with e2e, detail, attempted, failed,
# problems and, when traced, trace and overhead


def best_parts(rounds, names=None, prefix="") -> float:
    """Sum over the parts of a round of each part's fastest time in the run.

    Neighbouring load on a shared host slows a machine by up to 1.6x,
    often for a fraction of a second, sometimes for a minute, and never
    speeds it up; the fastest of many repeats of a short part, spread over
    the run, estimates the program's own cost more steadily than their
    median.
    """
    names = rounds[0]["parts"] if names is None else names
    return sum(min(r["parts"][name] for r in rounds) for name in names
               if name.startswith(prefix))


def rounds_for(workload, seconds) -> int:
    """Whole rounds in a run: fixed by --seconds, never by the clock, so that
    every run with the same --seconds does the same work."""
    return max(1, round(seconds * ROUNDS_AT_50S[workload] / 50))


def build_ladder(seed, seconds, trace):
    """Each group built cold in its own interpreter, one sweep a round."""
    def sweep(traced):
        workers = [spawn({"job": "build", "group": g, "seed": seed, "trace": traced,
                          "spans_path": os.path.join(OUT, f"spans-build-{i}.txt")})
                   for i, g in enumerate(BUILD_GRID)]
        return {"workers": workers, "parts": {w["group"]: w["build_s"] for w in workers}}

    sweeps = [sweep(False) for _ in range(1 if trace else rounds_for("build-ladder", seconds))]
    workers = [w for s in sweeps for w in s["workers"]]
    minimal = {w["group"] for w in workers if w["minimal"]}
    res = {
        "attempted": len(workers), "failed": 0,
        "problems": [p for w in workers for p in w["problems"]],
        "e2e": {"setup_s": statistics.median(w["import_s"] for w in workers),
                "round_s": best_parts(sweeps), "peak_rss_mb": peak_rss_mb()},
        "detail": {
            "construct_minimal_s": (best_parts(sweeps, minimal), "s"),
            "construct_fallback_s": (best_parts(sweeps, set(sweeps[0]["parts"]) - minimal), "s"),
        },
        "groups": {w["group"]: w for w in sweeps[0]["workers"]},
    }
    if trace:
        traced = sweep(True)
        res["trace"] = merge_traces(w["trace"] for w in traced["workers"])
        res["overhead"] = best_parts([traced]) / best_parts(sweeps) - 1
        res["attempted"] += len(traced["workers"])
        res["problems"] += [p for w in traced["workers"] for p in w["problems"]]
    return res


def _setup_and_rounds(job, workload, seed, seconds, trace, extra=None):
    """SETUP_REPEATS fresh workers, each setting up and then running its
    share of the rounds; with trace, one untraced and one traced worker
    with one round each."""
    base = {"job": job, "seed": seed, **(extra or {})}
    if trace:
        plain = spawn({**base, "rounds": 1})
        traced = spawn({**base, "rounds": 1, "trace": True,
                        "spans_path": os.path.join(OUT, f"spans-{job}.txt")})
        return [plain, traced]
    total = max(SETUP_REPEATS, rounds_for(workload, seconds))
    return [spawn({**base, "rounds": total // SETUP_REPEATS + (i < total % SETUP_REPEATS)})
            for i in range(SETUP_REPEATS)]


def _common(workers, trace):
    rounds = workers[0]["rounds"] if trace else [r for w in workers for r in w["rounds"]]
    res = {
        "attempted": sum(w["attempted"] for w in workers), "failed": 0,
        "problems": [p for w in workers for p in w["problems"]],
        "e2e": {"setup_s": statistics.median(w["t_ready"] - w["t_spawn"] for w in workers),
                "round_s": best_parts(rounds),
                "peak_rss_mb": peak_rss_mb()},
    }
    if trace:
        res["trace"] = workers[1]["trace"]
        res["overhead"] = best_parts(workers[1]["rounds"]) / best_parts(rounds) - 1
    return res, rounds


def decode_stream(seed, seconds, trace):
    workers = _setup_and_rounds("decode", "decode-stream", seed, seconds, trace)
    res, rounds = _common(workers, trace)
    factor_us = [x for r in rounds for x in r["factor_us"]]
    per_s = lambda prefix: (sum(p.startswith(prefix) for p in rounds[0]["parts"])  # noqa: E731
                            / best_parts(rounds, prefix=prefix))
    res["detail"] = {
        "factor_per_s": (per_s("factor "), "elements/s"),
        "factor_us.p50": (statistics.median(factor_us), "us"),
        "sampled_checks_per_s": (per_s("sampled ") * worker.SAMPLED_PER_CALL, "samples/s"),
        "pgm_roundtrips_per_s": (per_s("pgm "), "messages/s"),
    }
    tail = percentile_tail(factor_us, 99)
    if tail:
        res["detail"]["factor_us.p99"] = (tail[0], "us", f"{len(factor_us)} samples, "
                                          f"{tail[1]} beyond")
    return res


def verify_exhaustive(seed, seconds, trace):
    files = os.path.join(OUT, "verify-files")
    workers = _setup_and_rounds("verify", "verify-exhaustive", seed, seconds, trace,
                                {"files": files})
    res, rounds = _common(workers, trace)
    products = rounds[0]["products"]
    res["detail"] = {
        "verify_products_per_s": (products / best_parts(rounds, rounds[0]["verified"]),
                                  "products/s"),
    }
    return res


def cli_session(seed, seconds, trace):
    """Passes of the script; every pass must repeat the first's stdout."""
    files = os.path.join(OUT, "cli-files")
    shutil.rmtree(files, ignore_errors=True)
    session = clisession.Session(ROOT, ENV, files, WORKER_TIMEOUT)
    plain = [sys.executable, "-m", "orthosig"]
    problems = []
    passes = session.passes(seed, plain, problems,
                            2 if trace else max(2, rounds_for("cli-session", seconds)))
    probes = [x for p in passes for x in p["probes"]]
    res = {
        "attempted": sum(p["ops"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "problems": problems,
        "e2e": {"setup_s": statistics.median(probes),
                "round_s": best_parts(passes), "peak_rss_mb": peak_rss_mb()},
        "detail": {"cli_session_s": (statistics.median(p["wall_s"] for p in passes), "s"),
                   "cli.import_s": (statistics.median(probes), "s")},
        "commands": passes[0]["commands"],
    }
    if trace:
        stems = os.path.join(OUT, "cli-spans")
        shutil.rmtree(stems, ignore_errors=True)
        os.makedirs(stems)
        shim = [sys.executable, os.path.join(HERE, "cli_shim.py"),
                os.path.join(stems, "{tag}-{i}")]
        traced = session.passes(seed, shim, problems, 2, tag="t")
        res["attempted"] += sum(p["ops"] for p in traced)
        res["failed"] += sum(p["failed"] for p in traced)
        tables = []
        for name in sorted(os.listdir(stems)):
            if name.endswith(".json"):
                with open(os.path.join(stems, name)) as fh:
                    tables.append(json.load(fh))
        res["trace"] = merge_traces(tables)
        res["trace"]["counters"]["cli.commands"] = sum(p["ops"] for p in traced)
        res["overhead"] = best_parts(traced) / best_parts(passes) - 1
    return res


RUNNERS = {"build-ladder": build_ladder, "decode-stream": decode_stream,
           "verify-exhaustive": verify_exhaustive, "cli-session": cli_session}


# ----------------------------------------------------------------------


def layer_metrics(tr, overhead) -> dict:
    m = {}
    rows, counters = tr["layers"], tr["counters"]
    for name in layers.LAYER_NAMES:
        row = rows.get(name, {"calls": 0, "self_s": 0.0})
        m[f"{name}.calls"] = (row["calls"], "count")
        m[f"{name}.self_s"] = (row["self_s"], "s")
    for rung in layers.RUNGS:
        key = f"lscore.spread_construction.{rung}.calls"
        m[key] = (counters.get(key, 0), "count")
    m["lscore.verify_ls.products_checked"] = (counters.get("lscore.verify_ls.products_checked", 0), "count")
    m["serial.save_ls.bytes"] = (counters.get("serial.save_ls.bytes", 0), "B")
    m["serial.load_ls.bytes"] = (counters.get("serial.load_ls.bytes", 0), "B")
    m["cli.commands"] = (counters.get("cli.commands", 0), "count")
    m["trace.spans"] = (tr["spans"], "count")
    m["trace.round_overhead_pct"] = (100 * overhead, "%")
    return m


def git_sha() -> str:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def run_one(workload, seed, seconds, trace) -> dict:
    res = RUNNERS[workload](seed, seconds, bool(trace))
    if trace:
        metrics = layer_metrics(res["trace"], res["overhead"])
    else:
        units = {"setup_s": "s", "round_s": "s", "peak_rss_mb": "MB"}
        metrics = {k: (v, units[k]) for k, v in res["e2e"].items()}
    import numpy

    meta = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
            "git_sha": git_sha(), "python": platform.python_version(),
            "numpy": numpy.__version__, "nproc": len(os.sched_getaffinity(0)),
            "attempted": res["attempted"], "failed": res["failed"]}
    for name, (value, unit, *note) in sorted(res["detail"].items()):
        print(f"detail {workload} {name} = {value:.6g} {unit}" + (f" ({note[0]})" if note else ""))
    for name, w in sorted(res.get("groups", {}).items()):
        print(f"detail {workload} build_s[{name}] = {w['build_s']:.4g} s "
              f"({w['shape']}, length {w['length']}, bound {w['bound']})")
    for c in res.get("commands", []):
        print(f"detail {workload} cli[{c['name']}] wall {c['wall_s']:.4g} s, "
              f"[timing] {c['timing_s']} s, exit {c['exit']}")
    if trace:
        for name, row in res["trace"]["layers"].items():
            print(f"layer {workload} {name} calls={row['calls']} self_s={row['self_s']:.6f}")
        for name, v in sorted(res["trace"]["counters"].items()):
            print(f"layer {workload} {name} = {v}")
        print(f"layer {workload} trace overhead on one round: {100 * res['overhead']:.1f}%")
    for p in res["problems"][:20]:
        print(f"PROBLEM {workload}: {p}")
    print("meta " + json.dumps(meta, sort_keys=True))
    result = {
        "correct": not res["problems"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"result-{workload}-seed{seed}-trace{trace}.json"), "w") as fh:
        json.dump({"meta": meta, "result": result, "detail": res["detail"],
                   "problems": res["problems"], "trace": res.get("trace")}, fh, indent=1)
    return result


def run_all(seed, seconds, trace) -> dict:
    """Each workload in its own run.py interpreter, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in WORKLOADS:
        proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--workload", w,
                               "--seed", str(seed), "--seconds", str(seconds),
                               "--trace", str(trace)], cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise BenchError(f"{w} exited {proc.returncode}:\n{proc.stderr[-3000:]}")
        print("\n".join(lines[:-1]))
        res = json.loads(lines[-1])
        for name, m in res["metrics"].items():
            print(f"{w:18s} {name:40s} {m['value']:.6g} {m['unit']}")
            combined["metrics"][f"{w}/{name}"] = m
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
    return combined


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=50)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "orthosig", "__init__.py")):
        print(f"no orthosig sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    compileall.compile_dir(SRC, quiet=1)
    compileall.compile_dir(HERE, quiet=1)
    try:
        if args.workload:
            result = run_one(args.workload, args.seed, args.seconds, args.trace)
        else:
            result = run_all(args.seed, args.seconds, args.trace)
    except (BenchError, subprocess.TimeoutExpired, OSError, ValueError, KeyError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
