"""Self-test of the benchmark: every workload at a tiny run length, the
negative controls, the reference computations and the refusal to run
without sources.  Takes a few minutes.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import reference as ref  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402  (puts src/ on the path)

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    BENCH = json.load(fh)

# every workload run.py offers, the gated ones of BENCHMARK.json among them
WORKLOADS = run.WORKLOADS


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join("perfbench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=600)


def last_json(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


def test_benchmark_json_fields():
    assert set(BENCH) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                          "per_layer"}
    names = [m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]]
    assert len(names) == len(set(names))
    assert all(set(m) == {"name", "unit", "better", "bound"} for m in BENCH["end_to_end"])
    assert all(set(m) == {"name", "unit", "better"} for m in BENCH["per_layer"])
    setup = [m for m in BENCH["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["bound"] == max(m["bound"] for m in BENCH["end_to_end"])
    assert {w["name"] for w in BENCH["workloads"]} <= set(WORKLOADS)
    per_layer = {m["name"] for m in BENCH["per_layer"]}
    assert all(f"{n}.calls" in per_layer and f"{n}.self_s" in per_layer
               for n in run.layers.LAYER_NAMES)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_prints_every_metric(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "7", "--seconds", "1",
                     "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr[-3000:]
    res = last_json(proc.stdout)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"], [l for l in proc.stdout.splitlines() if l.startswith("PROBLEM")]
    want = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert {k: v["unit"] for k, v in res["metrics"].items()} == {m["name"]: m["unit"] for m in want}
    assert res["attempted"] >= 1
    if workload == "cli-session":
        # the sampled-verify negative control, once a pass, fails until
        # `verify --mode sampled` checks the file it is given
        assert res["failed"] * 12 == res["attempted"]
    else:
        assert res["failed"] == 0
    if not trace:
        assert all(v["value"] > 0 for v in res["metrics"].values())


def test_negative_control_trips_exhaustive_check():
    from orthosig.lscore import LogSignature, canonical_ls, verify_ls
    from orthosig.matgroups import descriptor

    ls = canonical_ls(descriptor("O-", 3, m=2))
    order = ref.group_order("O-", 3, 2)
    assert worker.check_exhaustive(verify_ls(ls), order) == []
    blocks = [list(b) for b in ls.blocks]
    worker.tamper(blocks)
    swapped = LogSignature(ls.group, blocks, ls.claimed_order)
    assert not verify_ls(swapped).valid


def test_reference_closed_forms():
    assert ref.group_order("O-", 3, 2) == 1440
    assert ref.group_order("O+", 5, 2) == 28800
    assert ref.group_order("Oodd", 3, 2) == 103680
    assert ref.group_order("PSO+", 5, 2) == 7200
    assert ref.group_order("PSO-", 3, 2) == 360
    assert ref.group_order("O+", 3, 3) == 24261120
    assert ref.group_order("O-", 3, 3) == 26127360
    assert ref.min_length(1440) == 21
    assert ref.singular_points("minus", 3, 2) == 10
    assert ref.singular_points("plus", 5, 2) == 36
    assert ref.singular_points("odd", 3, 2) == 40
    assert ref.digits(23, [2, 3, 5]) == [1, 2, 3]
    assert ref.split_q(9) == (3, 2)


def test_reference_product_check_flags_bad_products():
    import numpy as np

    gram = np.array([[0, 1], [1, 0]])
    swap = np.array([[0, 1], [1, 0]])
    ident = np.eye(2, dtype=int)
    assert ref.check_products([[ident, swap]], gram, 3, [(0,), (1,)]) == []
    assert ref.check_products([[ident, ident]], gram, 3, [(0,), (1,)])
    shear = np.array([[1, 1], [0, 1]])
    assert ref.check_products([[shear]], gram, 3, [(0,)])


def test_refuses_to_run_without_sources():
    bare = os.path.join(ROOT, ".perfbench_out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = run_bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=bare)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
