import json
import operator
import os
import subprocess
import sys
from functools import reduce

import pytest

import orthosig

# the subprocesses import the package from the same directory as this
# interpreter, with or without PYTHONPATH in the caller's environment
ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    filter(None, [os.path.dirname(os.path.dirname(orthosig.__file__)), os.environ.get("PYTHONPATH")]))}


def run_cli(*args):
    proc = subprocess.run(
        [sys.executable, "-m", "orthosig", *args],
        capture_output=True,
        text=True,
        env=ENV,
    )
    return proc


def parse_stdout(out):
    """Split the stable JSON document from the '#' summary lines."""
    lines = out.splitlines()
    json_lines, summary = [], []
    for ln in lines:
        (summary if ln.startswith("#") else json_lines).append(ln)
    return json.loads("\n".join(json_lines)), summary


def test_counts_minus_32():
    proc = run_cli("counts", "--kind", "minus", "--q", "3", "--m", "2")
    assert proc.returncode == 0
    doc, summary = parse_stdout(proc.stdout)
    assert doc["result"]["count"] == 10
    assert doc["result"]["match"] is True
    assert any("10" in s for s in summary)


def test_construct_then_verify(tmp_path):
    out = tmp_path / "ls.json"
    proc = run_cli("construct", "--family", "O-", "--q", "3", "--m", "2", "--out", str(out))
    assert proc.returncode == 0
    doc, _ = parse_stdout(proc.stdout)
    assert doc["result"]["order"] == 1440
    assert doc["result"]["length"] == 21 == doc["result"]["bound"]
    proc2 = run_cli("verify", "--in", str(out), "--mode", "exhaustive")
    assert proc2.returncode == 0
    doc2, _ = parse_stdout(proc2.stdout)
    assert doc2["result"]["valid"] and doc2["result"]["mls"]


def test_verify_tampered_exits_1(tmp_path):
    out = tmp_path / "ls.json"
    run_cli("construct", "--family", "O-", "--q", "3", "--m", "1", "--out", str(out))
    data = json.loads(out.read_text())
    data["blocks"][0][1] = data["blocks"][0][0]  # duplicate an element
    out.write_text(json.dumps(data))
    proc = run_cli("verify", "--in", str(out), "--mode", "exhaustive")
    assert proc.returncode == 1
    doc, _ = parse_stdout(proc.stdout)
    assert doc["result"]["valid"] is False
    assert doc["result"]["collisions"]


def test_reports_byte_identical():
    a = run_cli("counts", "--kind", "plus", "--q", "3", "--m", "2")
    b = run_cli("counts", "--kind", "plus", "--q", "3", "--m", "2")
    assert a.stdout == b.stdout
    assert a.returncode == b.returncode == 0
    # timing goes to stderr only
    assert "timing" in a.stderr


def test_report_embeds_config_and_version():
    proc = run_cli("counts", "--kind", "odd", "--q", "3", "--m", "1")
    doc, _ = parse_stdout(proc.stdout)
    assert doc["tool"] == "orthosig"
    assert doc["version"]
    assert doc["config"]["kind"] == "odd"
    assert doc["seed"] == 42
    assert doc["budgets"]["samples"] == 10000


def test_factor_roundtrip(tmp_path):
    out = tmp_path / "ls.json"
    run_cli("construct", "--family", "Oodd", "--q", "3", "--m", "1", "--out", str(out))
    proc = run_cli("factor", "--in", str(out), "--rank", "17")
    assert proc.returncode == 0
    doc, _ = parse_stdout(proc.stdout)
    assert doc["result"]["rank"] == 17
    assert doc["result"]["recomposes"] is True


def test_factor_takes_a_rank_or_an_element_file_not_both(tmp_path):
    # both once exited 0, factoring the rank and never reading the file
    out = tmp_path / "ls.json"
    run_cli("construct", "--family", "O-", "--q", "3", "--m", "2", "--out", str(out))
    proc = run_cli("factor", "--in", str(out), "--rank", "5", "--element-file", str(out))
    assert proc.returncode == 2 and proc.stdout == ""
    assert "argument --element-file: not allowed with argument --rank" in proc.stderr
    proc = run_cli("factor", "--in", str(out))
    assert proc.returncode == 2
    doc, summary = parse_stdout(proc.stdout)
    assert doc["result"] == {"error": "need --rank or --element-file"}
    assert summary == ["# nothing to factor"]


def test_factor_with_nothing_to_factor_answers_before_building(tmp_path, monkeypatch, capsys):
    # the arguments are checked right after the file is read: the budget
    # check and the canonical build once ran first, for an answer that
    # needs neither
    from orthosig import cli

    out = tmp_path / "ls.json"
    assert cli.main(["construct", "--family", "O-", "--q", "3", "--m", "2", "--out", str(out)]) == 0
    capsys.readouterr()

    def fail(*args):
        raise AssertionError("called")

    monkeypatch.setattr(cli, "canonical_ls", fail)
    monkeypatch.setattr(cli, "check_projection_budget", fail)
    assert cli.main(["factor", "--in", str(out)]) == 2
    doc, summary = parse_stdout(capsys.readouterr().out)
    assert doc["result"] == {"error": "need --rank or --element-file"}
    assert summary == ["# nothing to factor"]


def test_factor_rejects_an_element_of_the_wrong_size(tmp_path):
    out = tmp_path / "ls.json"
    run_cli("construct", "--family", "O-", "--q", "3", "--m", "2", "--out", str(out))
    elem = tmp_path / "elem.json"
    elem.write_text(json.dumps({"n": 3, "entries": [[[int(i == j)] for j in range(3)] for i in range(3)]}))
    proc = run_cli("factor", "--in", str(out), "--element-file", str(elem))
    assert proc.returncode == 2
    doc, _ = parse_stdout(proc.stdout)
    assert "3x3" in doc["error"] and "4x4" in doc["error"]
    assert "Traceback" not in proc.stderr
    # an element file that is no matrix record: the first three once ended
    # in a TypeError traceback (exit 1), the 4x4 entries labelled "n": 3
    # factored (exit 0) and the record without entries exited 2 with the
    # error 'entries'
    identity = [[[int(i == j)] for j in range(4)] for i in range(4)]
    for record, error in (([1, 2], "a matrix record is an object, got list"),
                          ("x", "a matrix record is an object, got str"),
                          ({"n": 4, "entries": 5}, '"entries" of a record labelled "n": 4 must be 4 lists of 4'),
                          ({"n": 3, "entries": identity}, '"entries" of a record labelled "n": 3 must be 3 lists'),
                          ({"n": 4}, '"entries" of a record labelled "n": 4 must be'),
                          ({"n": "4", "entries": identity}, 'needs an int "n" of at least 1, got \'4\'')):
        elem.write_text(json.dumps(record))
        proc = run_cli("factor", "--in", str(out), "--element-file", str(elem))
        assert proc.returncode == 2, record
        assert error in parse_stdout(proc.stdout)[0]["error"]
        assert "Traceback" not in proc.stderr


def test_factor_rejects_entries_that_are_not_codes(tmp_path):
    # 7 and -1 are not coefficients of F_3 (they are not reduced mod 3 into
    # I or -I), and an entry of F_3 has exactly one coefficient
    out = tmp_path / "ls.json"
    run_cli("construct", "--family", "O-", "--q", "3", "--m", "2", "--out", str(out))
    elem = tmp_path / "elem.json"
    for diag in ([7], [-1], [1, 0], []):
        entries = [[diag if i == j else [0] for j in range(4)] for i in range(4)]
        elem.write_text(json.dumps({"n": 4, "entries": entries}))
        proc = run_cli("factor", "--in", str(out), "--element-file", str(elem))
        assert proc.returncode == 2, diag
        doc, _ = parse_stdout(proc.stdout)
        assert "coefficient" in doc["error"]
        assert "Traceback" not in proc.stderr


def test_verify_rejects_a_signature_with_an_entry_out_of_range(tmp_path):
    out = tmp_path / "ls.json"
    run_cli("construct", "--family", "O-", "--q", "3", "--m", "1", "--out", str(out))
    data = json.loads(out.read_text())
    data["blocks"][0][1]["entries"][0][0] = [3]
    out.write_text(json.dumps(data))
    for mode in ("exhaustive", "sampled"):
        proc = run_cli("verify", "--in", str(out), "--mode", mode)
        assert proc.returncode == 2
        doc, _ = parse_stdout(proc.stdout)
        assert "[0, 3)" in doc["error"]
        assert "Traceback" not in proc.stderr


def test_construct_rejects_q_past_the_int16_code_limit(tmp_path):
    # 32771 is prime; the descriptor rejects it before any table is built
    proc = run_cli("construct", "--family", "O-", "--q", "32771", "--n", "2", "--out", str(tmp_path / "x.json"))
    assert proc.returncode == 2
    doc, _ = parse_stdout(proc.stdout)
    assert "2^15" in doc["error"]
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "x.json").exists()


@pytest.mark.parametrize("argv", [
    ["construct", "--family", "O-", "--q", "4099", "--n", "2"],
    ["construct", "--family", "O-", "--q", "2809", "--n", "4"],
    ["counts", "--kind", "minus", "--q", "4099", "--m", "1"],
    ["spread-check", "--kind", "plus", "--q", "4099", "--m", "1"],
    ["spread-check", "--kind", "minus", "--q", "2809", "--m", "1"],
])
def test_q_past_the_table_budget_exits_2_before_any_table_is_built(argv, tmp_path, capsys):
    # 4099 is the first prime past q <= 4096, 2809 = 53^2 the first q = p^e
    # with e > 1 past q <= 2590.  Run in this process, so that tracemalloc
    # sees every array
    import tracemalloc

    from orthosig.cli import main

    if argv[0] == "construct":
        argv = argv + ["--out", str(tmp_path / "x.json")]
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        code = main(argv)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert code == 2
    doc, _ = parse_stdout(capsys.readouterr().out)
    assert "64 MiB" in doc["error"] and f"q = {argv[argv.index('--q') + 1]}" in doc["error"]
    assert peak < 2 ** 20
    assert not (tmp_path / "x.json").exists()


@pytest.mark.parametrize("argv", [
    ["construct", "--family", "O-", "--q", "1549", "--n", "2"],
    ["construct", "--family", "PSO+", "--q", "1681", "--n", "2"],
    ["counts", "--kind", "minus", "--q", "41", "--m", "2"],
    ["parabolic", "--family", "Oodd", "--q", "41", "--n", "5"],
    ["spread-check", "--kind", "plus", "--q", "49", "--m", "2"],
])
def test_a_top_field_past_the_table_budget_exits_2_before_any_table_is_built(argv, tmp_path, capsys):
    # V = F_q^2m is bounded by q^2m (4em + 24) <= 64 MiB: 1549 and 41^2
    # are the first prime and e > 1 values of q past the bound for m = 1,
    # 41 and 7^2 for m = 2.  Run in this process, so that
    # tracemalloc sees every array
    import tracemalloc

    from orthosig.cli import main

    if argv[0] == "construct":
        argv = argv + ["--out", str(tmp_path / "x.json")]
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        code = main(argv)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert code == 2
    doc, _ = parse_stdout(capsys.readouterr().out)
    assert "64 MiB" in doc["error"] and "q^2m" in doc["error"]
    assert f"q = {argv[argv.index('--q') + 1]}" in doc["error"]
    assert peak < 2 ** 20
    assert not (tmp_path / "x.json").exists()


def test_spread_check():
    proc = run_cli("spread-check", "--kind", "minus", "--q", "3", "--m", "2")
    assert proc.returncode == 0
    doc, _ = parse_stdout(proc.stdout)
    assert doc["result"]["classical"]["partition_of_V"] is True
    assert doc["result"]["construction"]["partition_of_L"] is True


def test_parabolic_command():
    proc = run_cli("parabolic", "--family", "O-", "--q", "3", "--m", "2", "--k", "1")
    assert proc.returncode == 0
    doc, _ = parse_stdout(proc.stdout)
    assert doc["result"]["R_size"] == 9
    assert doc["result"]["Q_size"] == 16
    assert doc["result"]["orbit_stabilizer_match"] is True


@pytest.mark.parametrize("k,error", [("0", "k = 0 is not in 1..1, from 1 up to the Witt index"),
                                     ("-1", "k = -1 is not in 1..1, from 1 up to the Witt index"),
                                     ("5", "k = 5 exceeds the Witt index 1")])
def test_parabolic_k_outside_the_witt_range_exits_2_naming_the_range(k, error, capsys):
    # k = 0 once exited with "k = 0 exceeds the Witt index 1"
    from orthosig.cli import main

    assert main(["parabolic", "--family", "O-", "--q", "3", "--m", "2", "--k", k]) == 2
    out = capsys.readouterr()
    assert parse_stdout(out.out)[0]["error"] == error
    assert "Traceback" not in out.err


@pytest.mark.parametrize("family", ["Omega+", "PSO+", "POmega+"])
def test_parabolic_of_a_family_past_o_and_so_exits_2_naming_them(family, capsys):
    # these once ran the O construction: Omega+ and PSO+ exited 1 with the
    # O stabilizer (72 against 18 at q = 3, m = 2), POmega+ exited 2 with
    # a group-order error
    from orthosig.cli import main

    assert main(["parabolic", "--family", family, "--q", "3", "--m", "2"]) == 2
    out = capsys.readouterr()
    base = family[:-1]
    assert parse_stdout(out.out)[0]["error"] == f"parabolic signatures cover the O and SO families, not {base}"
    assert "Traceback" not in out.err


def test_project_command(tmp_path):
    proc = run_cli("project", "--family", "SO-", "--q", "3", "--m", "2")
    assert proc.returncode == 0
    doc, _ = parse_stdout(proc.stdout)
    assert doc["result"]["order"] == 360
    assert doc["result"]["valid"] is True


def test_pgm_demo_command():
    proc = run_cli("pgm-demo", "--family", "O-", "--q", "3", "--m", "1", "--seed", "42")
    assert proc.returncode == 0
    doc, _ = parse_stdout(proc.stdout)
    assert doc["result"]["permutation_verified"] is True


def test_omega_check_command():
    proc = run_cli("omega-check", "--family", "SO-", "--q", "3", "--m", "2")
    assert proc.returncode == 0
    doc, _ = parse_stdout(proc.stdout)
    assert doc["result"]["special_group_size"] == 720
    assert doc["result"]["commutator_subgroup_size"] == 360
    assert doc["result"]["agreement"] is False


@pytest.mark.parametrize("argv,products,budget", [
    (["--family", "SO-", "--q", "9", "--m", "2"], 145_681_377_120, 1_000_000),
    (["--family", "SO-", "--q", "3", "--m", "2", "--budget", "377999"], 378_000, 377_999),
])
def test_omega_check_past_the_budget_exits_2_before_the_audit(argv, products, budget, monkeypatch, capsys):
    # |O| k + |Omega| (k^2 + k) products, k the reflections: for SO-4(3),
    # 1,440 * 30 + 360 * 930 = 378,000
    from orthosig import cli

    def audit(space):
        raise AssertionError("omega_audit was called")

    monkeypatch.setattr(cli.forms, "omega_audit", audit)
    assert cli.main(["omega-check", *argv]) == 2
    error = f"omega-check forms {products} products, past --budget {budget}"
    assert parse_stdout(capsys.readouterr().out) == (
        {"command": "omega-check", "error": error, "tool": "orthosig", "version": orthosig.__version__},
        [f"# error: {error}"])


def test_unknown_family_exits_2():
    proc = run_cli("construct", "--family", "Omega-", "--q", "3", "--m", "2", "--out", "/tmp/x.json")
    assert proc.returncode == 2


@pytest.mark.parametrize("argv,error", [
    (["counts", "--kind", "odd", "--q", "3", "--n", "4"], "odd-dimension family needs odd n, got 4"),
    (["spread-check", "--kind", "plus", "--q", "3", "--n", "5"], "family O+ needs even n >= 2, got 5"),
    (["counts", "--kind", "odd", "--q", "3", "--m", "-1"], "odd-dimension family needs n >= 1, got -1"),
])
def test_a_dimension_the_kind_cannot_have_exits_2(argv, error, capsys):
    # these once reported the next smaller space, or a space of the wrong size
    from orthosig.cli import main

    assert main(argv) == 2
    doc, _ = parse_stdout(capsys.readouterr().out)
    assert doc["error"] == error


@pytest.mark.parametrize("family", ["GL", "parabolic"])
def test_a_file_naming_a_family_nothing_builds_exits_2(family, tmp_path, capsys):
    from orthosig.cli import main
    from orthosig.lscore import canonical_ls
    from orthosig.matgroups import descriptor

    doc = canonical_ls(descriptor("O-", 3, n=4)).to_json()
    doc["group"]["family"] = family
    path = tmp_path / "ls.json"
    path.write_text(json.dumps(doc))
    for mode in ("exhaustive", "sampled"):
        assert main(["verify", "--in", str(path), "--mode", mode]) == 2
        doc_out, _ = parse_stdout(capsys.readouterr().out)
        assert doc_out["error"] == f"unknown family {family!r}"


def test_usage_error_exits_2():
    proc = run_cli("counts", "--kind", "minus", "--q", "12", "--m", "1")
    assert proc.returncode == 2


def test_project_writes_loadable_file(tmp_path):
    out = tmp_path / "pso.json"
    proc = run_cli("project", "--family", "SO-", "--q", "3", "--m", "2", "--out", str(out))
    assert proc.returncode == 0
    proc2 = run_cli("verify", "--in", str(out), "--mode", "exhaustive")
    assert proc2.returncode == 0
    doc, _ = parse_stdout(proc2.stdout)
    assert doc["result"]["valid"] and doc["result"]["claimed_order"] == 360


@pytest.mark.parametrize("family,q,m", [
    ("SO-", 3, 2), ("SO+", 5, 2), ("SO+", 3, 1), ("SOodd", 3, 1), ("SOodd", 5, 0),
])
def test_project_writes_the_signature_construct_writes(family, q, m, tmp_path, capsys):
    # one projection serves both commands; for odd n it only relabels the SO signature
    from orthosig.cli import main

    group = ["--q", str(q), "--m", str(m)]
    projected, constructed = tmp_path / "project.json", tmp_path / "construct.json"
    assert main(["project", "--family", family, *group, "--out", str(projected)]) == 0
    doc, _ = parse_stdout(capsys.readouterr().out)
    assert doc["result"]["to"]["family"] == "P" + family
    assert main(["construct", "--family", "P" + family, *group, "--out", str(constructed)]) == 0
    assert projected.read_bytes() == constructed.read_bytes()


@pytest.mark.parametrize("argv,budget", [
    (["--family", "SO+", "--q", "3", "--m", "3"], 1_000_000),
    (["--family", "SO-", "--q", "3", "--m", "2", "--budget", "359"], 359),
])
def test_project_past_the_budget_exits_2_before_building(argv, budget, monkeypatch, capsys):
    # PSO+6(3) has order 6,065,280 and PSO-4(3) 360: the order is checked
    # against --budget first, with the message exhaustive verify gives
    from orthosig import cli

    def build(desc):
        raise AssertionError(f"{desc.family} was built")

    monkeypatch.setattr(cli, "canonical_ls", build)
    assert cli.main(["project", *argv]) == 2
    out = capsys.readouterr().out
    error = f"exhaustive verification needs claimed_order <= {budget}"
    assert parse_stdout(out) == ({"command": "project", "error": error, "tool": "orthosig",
                                  "version": orthosig.__version__}, [f"# error: {error}"])


def test_a_projective_construct_past_the_budget_exits_2_before_building(tmp_path, monkeypatch, capsys):
    # PSO-6(5) has order 1.47e10, inside the envelope: its quotient once
    # walked every product of SO-6(5) and died of a MemoryError
    from orthosig import cli

    def build(desc):
        raise AssertionError(f"{desc.family} was built")

    monkeypatch.setattr(cli, "canonical_ls", build)
    argv = ["construct", "--family", "PSO-", "--q", "5", "--m", "3", "--out", str(tmp_path / "ls.json")]
    assert cli.main(argv) == 2
    doc, _ = parse_stdout(capsys.readouterr().out)
    assert doc["error"] == ("projection walks the 14742000000 products of the halved SO signature, "
                            "past --budget 1000000")
    assert not (tmp_path / "ls.json").exists()


def test_an_odd_dimension_projective_construct_past_the_budget_keeps_its_bytes(tmp_path, monkeypatch, capsys):
    # in odd dimension the quotient is the SO signature relabelled, with no
    # product walk, so PSOodd5(5) (order 9,360,000) builds at the default
    # budget; the digests of stdout and the file were recorded at 1ec3a8c,
    # and again when the layered rungs stopped above n = 4, which left the
    # blocks as they were and made meta.notes the one transversal note
    import hashlib
    from orthosig import cli

    monkeypatch.chdir(tmp_path)
    argv = ["construct", "--family", "PSOodd", "--q", "5", "--n", "5", "--out", "PSOodd5(5).json"]
    assert cli.main(argv) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == (
        "156009fb5d786c74a1d043b2b00e46cbf17c274f3d8b8267cdf684de9748605e")
    assert hashlib.sha256((tmp_path / "PSOodd5(5).json").read_bytes()).hexdigest() == (
        "5b23bd814b58cb5bba528f53bd5e41590360e72711120a8a121eed68604d3d6a")


def test_a_command_out_of_memory_exits_2_with_the_error_report(monkeypatch, capsys):
    from orthosig import cli

    def command(args):
        raise MemoryError("out of memory")

    monkeypatch.setitem(cli.COMMANDS, "counts", command)
    assert cli.main(["counts", "--kind", "minus", "--q", "3", "--m", "2"]) == 2
    assert parse_stdout(capsys.readouterr().out) == (
        {"command": "counts", "error": "out of memory", "tool": "orthosig", "version": orthosig.__version__},
        ["# error: out of memory"])


def _swapped_o4_3(tmp_path):
    """The O-4(3) signature with element 1 of blocks 0 and 1 swapped."""
    out = tmp_path / "ls.json"
    run_cli("construct", "--family", "O-", "--q", "3", "--m", "2", "--out", str(out))
    data = json.loads(out.read_text())
    data["blocks"][0][1], data["blocks"][1][1] = data["blocks"][1][1], data["blocks"][0][1]
    bad = tmp_path / "swapped.json"
    bad.write_text(json.dumps(data))
    return out, bad


def test_sampled_verify_checks_the_file(tmp_path):
    good, bad = _swapped_o4_3(tmp_path)
    proc = run_cli("verify", "--in", str(bad), "--mode", "sampled", "--samples", "300")
    assert proc.returncode == 1
    doc, summary = parse_stdout(proc.stdout)
    assert doc["result"]["valid"] is False
    assert doc["result"]["collisions"] and doc["result"]["not_in_group"] == 0
    assert summary[0].startswith("# INVALID (sampled)")
    # the canonical file still round-trips through its own tables
    proc = run_cli("verify", "--in", str(good), "--mode", "sampled", "--samples", "300")
    assert proc.returncode == 0
    doc, _ = parse_stdout(proc.stdout)
    assert doc["result"]["valid"] is True and doc["result"]["notes"] == []


@pytest.mark.parametrize("samples", ["0", "-5"])
def test_fewer_than_one_sample_exits_2(samples, tmp_path, capsys):
    # a sampled check of no samples once reported a valid file and a
    # verified permutation; argparse rejects the count at parse time
    from orthosig.cli import main

    good = tmp_path / "ls.json"
    assert main(["construct", "--family", "O-", "--q", "3", "--m", "2", "--out", str(good)]) == 0
    capsys.readouterr()
    assert main(["verify", "--in", str(good), "--mode", "sampled", "--samples", samples]) == 2
    assert main(["pgm-demo", "--family", "O+", "--q", "5", "--m", "2", "--samples", samples]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.count(f"argument --samples: must be at least 1, got {samples}") == 2


@pytest.mark.parametrize("option", ["--budget", "--messages"])
def test_a_negative_budget_or_message_count_exits_2(option, tmp_path, capsys):
    # verify --budget -1 once exited 2 only after loading the file, and
    # pgm-demo --messages -1 exited 0 with an empty sample; argparse now
    # rejects both at parse time, and 0 stays valid
    from orthosig.cli import main

    good = tmp_path / "ls.json"
    assert main(["construct", "--family", "O-", "--q", "3", "--m", "2", "--out", str(good)]) == 0
    capsys.readouterr()
    pgm_demo = ["pgm-demo", "--family", "O-", "--q", "3", "--m", "1"]
    runs = [pgm_demo] + ([["verify", "--in", str(good)]] if option == "--budget" else [])
    for argv in runs:
        assert main(argv + [option, "-1"]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.count(f"argument {option}: must be at least 0, got -1") == len(runs)
    assert main(pgm_demo + [option, "0"]) == 0
    doc, _ = parse_stdout(capsys.readouterr().out)
    assert doc["result"]["permutation_verified"] is True
    if option == "--messages":
        assert doc["result"]["sample"] == []


def test_verify_missing_file_exits_2(tmp_path):
    proc = run_cli("verify", "--in", str(tmp_path / "missing.json"))
    assert proc.returncode == 2
    doc, _ = parse_stdout(proc.stdout)
    assert "No such file" in doc["error"]
    assert "Traceback" not in proc.stderr


def test_verify_file_without_blocks_exits_2(tmp_path):
    out = tmp_path / "ls.json"
    run_cli("construct", "--family", "O-", "--q", "3", "--m", "1", "--out", str(out))
    data = json.loads(out.read_text())
    del data["blocks"]
    out.write_text(json.dumps(data))
    for mode in ("exhaustive", "sampled"):
        proc = run_cli("verify", "--in", str(out), "--mode", mode)
        assert proc.returncode == 2
        doc, _ = parse_stdout(proc.stdout)
        assert "blocks" in doc["error"]
        assert "Traceback" not in proc.stderr


def test_factor_flags_a_file_that_is_not_canonical(tmp_path):
    # the swapped file has the canonical block sizes, so only the element
    # comparison can tell it apart
    good, bad = _swapped_o4_3(tmp_path)
    for path, mismatch in ((good, False), (bad, True)):
        proc = run_cli("factor", "--in", str(path), "--rank", "5")
        assert proc.returncode == 0
        doc, _ = parse_stdout(proc.stdout)
        assert doc["result"]["canonical_mismatch"] is mismatch
        assert doc["result"]["rank"] == 5 and doc["result"]["recomposes"] is True


def test_cli_commands_never_import_numpy_random(tmp_path):
    # the self-checks of the quadratic spaces draw their probes from the
    # stdlib generator
    out = tmp_path / "ls.json"
    code = (
        "import sys\n"
        "from orthosig import cli\n"
        f"assert cli.main(['construct', '--family', 'O+', '--q', '5', '--m', '2', '--out', {str(out)!r}]) == 0\n"
        f"assert cli.main(['verify', '--in', {str(out)!r}, '--mode', 'sampled', '--samples', '50']) == 0\n"
        "assert cli.main(['pgm-demo', '--family', 'O+', '--q', '5', '--m', '2', '--samples', '20']) == 0\n"
        "print('numpy.random' in sys.modules, file=sys.stderr)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=ENV)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.splitlines()[-1] == "False"


def test_set_up_and_exhaustive_verify_never_import_numpy_ma():
    # np.unique imports numpy.ma, about 1 MB and 17 ms a command; the
    # construction ladder and the exhaustive verification find repeated keys
    # without it
    code = (
        "import sys\n"
        "from orthosig import pgm\n"
        "from orthosig.lscore import canonical_ls, verify_ls\n"
        "from orthosig.matgroups import descriptor\n"
        "sigs = [canonical_ls(descriptor(f, q, m=m)) for f, q, m in "
        "[('O-', 5, 2), ('O-', 9, 2), ('Oodd', 3, 2), ('O+', 3, 3)]]\n"
        "keys = [pgm.keygen(descriptor('O-', 3, m=2), 1), pgm.keygen(descriptor('O+', 5, m=2), 1)]\n"
        "assert verify_ls(keys[0].alpha_ls, 'exhaustive').valid\n"
        "print('numpy.ma' in sys.modules, file=sys.stderr)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=ENV)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.splitlines()[-1] == "False"


def test_set_up_multiplies_no_mat_and_wraps_no_reflection():
    # a cold set-up of the decode-stream groups and both PGM keys: element
    # orders come from stacked powers and key translations from stacked
    # products, so no Mat product is taken, the reflections stay one array
    # from producer to consumer, and the spread layer keeps subspaces and
    # transversals as stacks, so spreads.py constructs no Mat
    code = (
        "import sys\n"
        "from orthosig import forms, pgm, spreads\n"
        "from orthosig.lscore import canonical_ls\n"
        "from orthosig.matgroups import Mat, descriptor\n"
        "counts = {'mul': 0, 'refl_init': 0, 'spreads_init': 0}\n"
        "mul, init = Mat.__mul__, Mat.__init__\n"
        "refl = forms.reflections.__wrapped__.__code__\n"
        "def counted_mul(self, other):\n"
        "    counts['mul'] += 1\n"
        "    return mul(self, other)\n"
        "def counted_init(self, *args):\n"
        "    f = sys._getframe(1)\n"
        "    counts['spreads_init'] += f.f_code.co_filename == spreads.__file__\n"
        "    while f is not None and f.f_code is not refl:\n"
        "        f = f.f_back\n"
        "    counts['refl_init'] += f is not None\n"
        "    init(self, *args)\n"
        "Mat.__mul__, Mat.__init__ = counted_mul, counted_init\n"
        "sigs = [canonical_ls(descriptor(f, q, m=m)) for f, q, m in "
        "[('O-', 5, 2), ('O-', 9, 2), ('Oodd', 3, 2), ('O+', 3, 3)]]\n"
        "keys = [pgm.keygen(descriptor('O-', 3, m=2), 1), pgm.keygen(descriptor('O+', 5, m=2), 1)]\n"
        "assert forms.reflections.cache_info().currsize > 0\n"
        "print(counts['mul'], counts['refl_init'], counts['spreads_init'], file=sys.stderr)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=ENV)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.splitlines()[-1] == "0 0 0"


def test_demo_pipeline_script_runs_end_to_end(tmp_path):
    # from another directory and without PYTHONPATH: the script finds the
    # package in the src/ of its own checkout
    script = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                          "scripts", "demo_pipeline.py")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, script], capture_output=True, text=True, env=env, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    factored = [ln for ln in lines if ln.startswith("rank ")]
    assert len(factored) == 3 and all(ln.endswith("factored back: True") for ln in factored)
    cipher = [ln for ln in lines if ln.startswith("cipher demo: ")]
    assert len(cipher) == 1
    msgs, cts, back = cipher[0][len("cipher demo: "):].split(" -> ")
    assert msgs == back and cts != msgs


def test_survey_script_prints_a_verified_row_per_case():
    # one row per case of its CASES, each verified exactly or by sampling,
    # with the compose and decode timings (decode "-" only where the
    # signature has no decoding tables), and the decode step of each level
    # of the plan down to the first table that answers a member
    import ast

    from orthosig.lscore import canonical_ls
    from orthosig.matgroups import descriptor

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    script = os.path.join(root, "scripts", "survey_constructions.py")
    with open(script) as fh:
        cases = next(ast.literal_eval(node.value) for node in ast.parse(fh.read()).body
                     if isinstance(node, ast.Assign) and node.targets[0].id == "CASES")
    proc = subprocess.run([sys.executable, script], capture_output=True, text=True, env=ENV)
    assert proc.returncode == 0, proc.stderr
    header, *rows = proc.stdout.splitlines()
    assert header.split()[-4:] == ["compose", "µs", "decode", "µs"]
    assert len(rows) == len(cases)
    for row, (fam, q, n) in zip(rows, cases):
        group, *_, verdict, _, compose_us, decode_us = row.split()
        assert group == f"{fam}{n}({q})" and verdict in ("exact", "sampled")
        float(compose_us)
        if canonical_ls(descriptor(fam, q, n=n)).plan is not None:
            float(decode_us)
        else:
            assert decode_us == "-"
    assert header.split()[5:7] == ["steps", "verified"]
    steps = {row.split()[0]: row.split()[5] for row in rows}
    assert (steps["O-4(3)"], steps["O-4(5)"], steps["O+6(3)"], steps["O-4(9)"], steps["PSO-4(3)"]) == \
        ("front", "stab", "siegel>front", "siegel>table", "-")


def test_verify_checks_the_claimed_order(tmp_path):
    # two blocks of the canonical O-4(3) claim an order of 10: every product
    # is distinct and lies in the group, but the group has 1,440 elements
    from orthosig.lscore import LogSignature, canonical_ls
    from orthosig.matgroups import descriptor
    from orthosig.serial import save_ls

    ls = canonical_ls(descriptor("O-", 3, n=4))
    out = tmp_path / "two_blocks.json"
    save_ls(LogSignature(ls.group, ls.blocks[:2], 10), str(out))
    for mode in ("exhaustive", "sampled"):
        proc = run_cli("verify", "--in", str(out), "--mode", mode)
        assert proc.returncode == 1
        doc, summary = parse_stdout(proc.stdout)
        assert doc["result"]["valid"] is False
        assert "claimed order 10 is not the group order 1440" in doc["result"]["notes"]
        assert summary[0].startswith(f"# INVALID ({mode})")


def _set_code(value):
    def mutate(doc):
        doc["blocks"][0][0]["entries"][0][0] = [value]
    return mutate


def _set(key, value, under=None):
    def mutate(doc):
        (doc[under] if under else doc)[key] = value
    return mutate


@pytest.mark.parametrize("mutate", [_set_code("x"), _set_code(1.5), _set_code(True), _set("q", 3.0, "group"),
                                    _set("n", 4.0, "group"), _set("claimed_order", 1440.0)],
                         ids=["string-code", "float-code", "bool-code", "float-q", "float-n", "float-order"])
def test_a_number_that_is_not_an_int_in_a_signature_file_exits_2(mutate, tmp_path, capsys):
    # every number of a signature file is an int: each mutation exits 2
    # with an error report (no traceback) from verify in both modes and
    # factor, while the untouched file passes all three
    from orthosig.cli import main
    from orthosig.lscore import canonical_ls
    from orthosig.matgroups import descriptor
    from orthosig.serial import save_ls

    good, bad = tmp_path / "good.json", tmp_path / "bad.json"
    save_ls(canonical_ls(descriptor("O-", 3, n=4)), str(good))
    doc = json.loads(good.read_text())
    mutate(doc)
    bad.write_text(json.dumps(doc))
    for args in (["verify", "--mode", "exhaustive"], ["verify", "--mode", "sampled", "--samples", "20"],
                 ["factor", "--rank", "5"]):
        assert main(args + ["--in", str(good)]) == 0
        capsys.readouterr()
        assert main(args + ["--in", str(bad)]) == 2, args
        out = capsys.readouterr()
        assert "error" in parse_stdout(out.out)[0] and "Traceback" not in out.err


@pytest.mark.parametrize("argv,q", [
    (["counts", "--kind", "minus", "--q", "-3", "--m", "2"], -3),
    (["construct", "--family", "O-", "--q", "0", "--m", "2", "--out", "OUT"], 0),
    (["factor", "--rank", "5", "--in", "FILE"], -3),
], ids=["counts", "construct", "file"])
def test_a_q_below_2_exits_2_naming_q(argv, q, tmp_path, capsys):
    # from the command line and from a saved O-4(3) file edited to "q": -3,
    # the error names q, not the helper that factors it
    from orthosig.cli import main
    from orthosig.lscore import canonical_ls
    from orthosig.matgroups import descriptor
    from orthosig.serial import save_ls

    path = tmp_path / "sig.json"
    save_ls(canonical_ls(descriptor("O-", 3, n=4)), str(path))
    doc = json.loads(path.read_text())
    doc["group"]["q"] = -3
    path.write_text(json.dumps(doc))
    argv = [str(tmp_path / "out.json") if a == "OUT" else str(path) if a == "FILE" else a for a in argv]
    assert main(argv) == 2
    out = capsys.readouterr()
    assert parse_stdout(out.out)[0]["error"] == f"q = {q} is not a prime power"
    assert "Traceback" not in out.err
    assert not (tmp_path / "out.json").exists()


def _set_block(i, value):
    def mutate(doc):
        doc["blocks"][i] = value
    return mutate


def _set_record(key, value=None):
    # value None deletes the key
    def mutate(doc):
        record = doc["blocks"][0][0]
        if value is None:
            del record[key]
        else:
            record[key] = value
    return mutate


def _relabel_n(doc):
    doc["group"]["n"] = 6


def _delete(key, under=None):
    def mutate(doc):
        del (doc[under] if under else doc)[key]
    return mutate


def _set_entry(value):
    # the code of entry (0, 0) of the first record, as the file spells it
    def mutate(doc):
        doc["blocks"][0][0]["entries"][0][0] = value
    return mutate


def _set_row(value):
    def mutate(doc):
        rows = doc["blocks"][0][0]["entries"]
        rows[0] = rows[0][:-1] if value is None else value
    return mutate


# the schema mutations of a saved O-4(3) file: every field deleted,
# retyped, out of range or reshaped; a mutation that returns a value
# replaces the whole document
SCHEMA_MUTATIONS = {
    "block-string": _set_block(0, "abc"), "blocks-dict": _set("blocks", {"a": 1}),
    "record-not-dict": _set_block(0, [[1, 2]]), "record-without-n": _set_record("n"),
    "record-n-3": _set_record("n", 3), "group-n-6": _relabel_n, "meta-list": _set("meta", [1]),
    "no-group": _delete("group"), "no-blocks": _delete("blocks"), "no-claimed-order": _delete("claimed_order"),
    "no-family": _delete("family", "group"), "no-q": _delete("q", "group"), "no-n": _delete("n", "group"),
    "q-4": _set("q", 4, "group"), "q-minus-3": _set("q", -3, "group"), "n-0": _set("n", 0, "group"),
    "n-string": _set("n", "4", "group"), "blocks-empty": _set("blocks", []), "block-empty": _set_block(0, []),
    "block-null": _set_block(0, None), "record-without-entries": _set_record("entries"),
    "entries-string": _set_record("entries", "abc"), "row-short": _set_row(None), "row-int": _set_row(1),
    "code-empty": _set_entry([]), "code-two-digits": _set_entry([1, 1]), "code-3": _set_entry([3]),
    "code-minus-1": _set_entry([-1]), "code-nested": _set_entry([[1]]), "code-null": _set_entry([None]),
    "code-int": _set_entry(1), "order-1441": _set("claimed_order", 1441), "order-minus-1": _set("claimed_order", -1),
    "order-string": _set("claimed_order", "1440"), "document-list": lambda doc: [doc],
}


@pytest.mark.parametrize("mutate", SCHEMA_MUTATIONS.values(), ids=SCHEMA_MUTATIONS.keys())
def test_a_signature_file_of_the_wrong_shape_exits_2(mutate, tmp_path, capsys):
    # the file's shape is checked before anything is built: each mutation
    # exits 2 with an error report and no traceback from verify in both
    # modes and factor, where the first three once exited 1 with a
    # traceback and the next four 0 (but for the group n = 6 under verify);
    # the untouched file exits 0 from all three
    from orthosig.cli import main
    from orthosig.lscore import canonical_ls
    from orthosig.matgroups import descriptor
    from orthosig.serial import save_ls

    good, bad = tmp_path / "good.json", tmp_path / "bad.json"
    save_ls(canonical_ls(descriptor("O-", 3, n=4)), str(good))
    doc = json.loads(good.read_text())
    bad.write_text(json.dumps(mutate(doc) or doc))
    for args in (["verify", "--mode", "exhaustive"], ["verify", "--mode", "sampled", "--samples", "20"],
                 ["factor", "--rank", "5"]):
        assert main(args + ["--in", str(good)]) == 0
        capsys.readouterr()
        assert main(args + ["--in", str(bad)]) == 2, args
        out = capsys.readouterr()
        # a sentence naming the fault, not a bare KeyError such as 'q'
        assert " " in parse_stdout(out.out)[0]["error"] and "Traceback" not in out.err


# values of another type than the node they replace, or out of range for it
CORPUS_VALUES = {
    int: [-1, 3, 2 ** 15, 2 ** 70, 2.5, "3", None, True, [], {}],
    bool: [0, 2, "true", None, []],
    str: ["", "O", "O-x", 3, None, [], {}],
    list: [[], [[]], [0], "abc", 1, None, {}, [[0] * 4] * 3],
    dict: [{}, [], "abc", 4, None, {"n": 4}],
    type(None): [0, "", [], {}],
}


def _corpus_nodes(node, path=()):
    # the path of every node below node, containers before their children
    for key in (list(node) if isinstance(node, dict) else range(len(node))):
        yield path + (key,)
        if isinstance(node[key], (dict, list)):
            yield from _corpus_nodes(node[key], path + (key,))


def _corpus_mutation(doc, rng):
    # picks a node, half the time uniformly among all nodes (mostly the
    # codes and rows of the records), otherwise by a walk down from the top
    # to a random child at each level that stops at a leaf or, with
    # probability 1/3, at a container; replaces it and returns its path and
    # the new value
    if rng.random() < 1 / 2:
        path = list(rng.choice(list(_corpus_nodes(doc))))
    else:
        path, node = [], doc
        while isinstance(node, (dict, list)) and node and (not path or rng.random() >= 1 / 3):
            path.append(rng.choice(list(node) if isinstance(node, dict) else range(len(node))))
            node = node[path[-1]]
    *up, key = path
    parent = reduce(operator.getitem, up, doc)
    old = parent[key]
    pool = [v for v in CORPUS_VALUES[type(old)] if v != old or type(v) is not type(old)]
    parent[key] = value = rng.choice(pool)
    return path, value


@pytest.mark.parametrize("case", range(40))
def test_a_seeded_corpus_of_mutated_signature_files_never_crashes(case, tmp_path, capsys):
    # a saved O-4(3) file with one node replaced by a value of another type
    # or out of range: verify in both modes and factor each print a report
    # and exit 0, 1 or 2, never a traceback, and a file load_ls rejects
    # exits 2 from all three
    import random as _random

    from orthosig.cli import main
    from orthosig.lscore import canonical_ls
    from orthosig.matgroups import descriptor
    from orthosig.serial import load_ls, save_ls

    path = tmp_path / "sig.json"
    save_ls(canonical_ls(descriptor("O-", 3, n=4)), str(path))
    doc = json.loads(path.read_text())
    where, value = _corpus_mutation(doc, _random.Random(f"corpus/{case}"))
    path.write_text(json.dumps(doc))
    try:
        load_ls(str(path))
        loads = True
    except (RuntimeError, ValueError, KeyError):
        loads = False
    for args in (["verify", "--mode", "exhaustive"], ["verify", "--mode", "sampled", "--samples", "20"],
                 ["factor", "--rank", "5"]):
        code = main(args + ["--in", str(path)])
        out = capsys.readouterr()
        assert code in (0, 1, 2) and "Traceback" not in out.err, (where, value, args)
        parse_stdout(out.out)
        assert loads or code == 2, (where, value, args)


def test_factor_of_the_trivial_group_exits_0(tmp_path):
    path = tmp_path / "so1.json"
    assert run_cli("construct", "--family", "SOodd", "--q", "3", "--n", "1", "--out", str(path)).returncode == 0
    proc = run_cli("factor", "--in", str(path), "--rank", "0")
    assert proc.returncode == 0, proc.stdout
    doc, summary = parse_stdout(proc.stdout)
    assert doc["result"]["indices"] == [] and doc["result"]["recomposes"]
    assert summary[0] == "# indices [] (rank 0)"


def test_factor_exits_2_on_a_file_that_does_not_claim_its_group_order(tmp_path):
    # a file with no blocks that claims order 1, and the O-4(3) blocks
    # relabelled O+ (1,440 elements claimed, |O+4(3)| = 1,152): factor once
    # decoded through the canonical plan and exited 0; verify still reports
    # each file INVALID (exit 1) with the claimed-order note
    from orthosig.lscore import canonical_ls
    from orthosig.matgroups import descriptor
    from orthosig.serial import save_ls

    good = tmp_path / "good.json"
    save_ls(canonical_ls(descriptor("O-", 3, n=4)), str(good))
    doc = json.loads(good.read_text())
    empty, relabelled = tmp_path / "empty.json", tmp_path / "relabelled.json"
    empty.write_text(json.dumps({**doc, "blocks": [], "claimed_order": 1}))
    relabelled.write_text(json.dumps({**doc, "group": {**doc["group"], "family": "O+"}}))
    assert run_cli("factor", "--in", str(good), "--rank", "5").returncode == 0
    for path, claimed, order in ((empty, 1, 1440), (relabelled, 1440, 1152)):
        proc = run_cli("factor", "--in", str(path), "--rank", "0")
        assert proc.returncode == 2 and "Traceback" not in proc.stderr
        error = parse_stdout(proc.stdout)[0]["error"]
        assert f"claims order {claimed}" in error and f"has order {order}" in error
        for mode in ("exhaustive", "sampled"):
            proc = run_cli("verify", "--in", str(path), "--mode", mode, "--samples", "20")
            assert proc.returncode == 1
            notes = parse_stdout(proc.stdout)[0]["result"]["notes"]
            assert f"claimed order {claimed} is not the group order {order}" in notes


# SHA-256 of the stdout of `verify --in swapped.json --mode sampled --seed 42`
# run from the file's directory, recorded before the sampled digits were
# drawn through getrandbits
SWAPPED_SAMPLED_STDOUT_SHA256 = "92f4bf112fb674f8adfcf49ab90b498cf752cc24f79520e60292579c6c03662b"


def test_sampled_verify_of_the_swapped_file_keeps_its_stdout(tmp_path):
    import hashlib

    _, bad = _swapped_o4_3(tmp_path)
    proc = subprocess.run([sys.executable, "-m", "orthosig", "verify", "--in", bad.name, "--mode", "sampled",
                           "--seed", "42"], capture_output=True, text=True, env=ENV, cwd=tmp_path)
    assert proc.returncode == 1
    assert parse_stdout(proc.stdout)[0]["result"]["collisions"][0] == {
        "iv": [4, 1, 2, 1, 0, 1, 1, 0], "other": [0, 0, 2, 1, 1, 1, 0, 0]}
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == SWAPPED_SAMPLED_STDOUT_SHA256


def test_a_loaded_signature_edited_in_place_fails_verification(tmp_path):
    # compose through the canonical signature and through the loaded copy
    # first: a loaded signature keeps no tables, so the in-place swap is seen
    from orthosig.factorize import compose, unrank
    from orthosig.lscore import canonical_ls, verify_ls
    from orthosig.matgroups import descriptor
    from orthosig.serial import load_ls, save_ls

    ls = canonical_ls(descriptor("O-", 3, n=4))
    compose(unrank(5, ls), ls)
    path = tmp_path / "ls.json"
    save_ls(ls, str(path))
    loaded = load_ls(str(path))
    assert compose(unrank(5, loaded), loaded) == compose(unrank(5, ls), ls)
    assert verify_ls(loaded, "exhaustive").valid
    loaded.blocks[0][1], loaded.blocks[1][1] = loaded.blocks[1][1], loaded.blocks[0][1]
    assert compose(unrank(1, loaded), loaded) == loaded.blocks[0][1]
    assert not verify_ls(loaded, "exhaustive").valid
    save_ls(loaded, str(path))
    assert run_cli("verify", "--in", str(path), "--mode", "sampled").returncode == 1


def test_bench_fields_script_prints_one_row_per_field_and_operation():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    proc = subprocess.run([sys.executable, os.path.join(root, "scripts", "bench_fields.py")],
                          capture_output=True, text=True, env=ENV)
    assert proc.returncode == 0, proc.stderr
    header, *rows = proc.stdout.splitlines()
    assert header.split() == ["field", "operation", "µs"]
    ops = ["FqContext cold", "mat_mul pair", "mat_mul stack 25", "mat_mul stack 4096", "rref one",
           "rref stack 4096", "v_scale"]
    assert [(row.split()[0], " ".join(row.split()[1:-1])) for row in rows] == \
        [(field, op) for field in ("F_3", "F_5", "F_9") for op in ops]
    assert all(float(row.split()[-1]) > 0 for row in rows)


def test_bench_decode_script_prints_one_row_per_group_and_operation():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    proc = subprocess.run([sys.executable, os.path.join(root, "scripts", "bench_decode.py")],
                          capture_output=True, text=True, env=ENV)
    assert proc.returncode == 0, proc.stderr
    header, *rows = proc.stdout.splitlines()
    assert header.split() == ["group", "operation", "µs"]
    chain = ["unrank", "compose", "tame_factor", "rank"]
    assert [(row.split()[0], " ".join(row.split()[1:-1])) for row in rows] == \
        [(group, op) for group in ("O-4(5)", "O-4(9)", "Oodd5(3)", "O+6(3)") for op in chain] + \
        [("O+6(3)", "sampled verify 25"), ("O-4(3)", "pgm round trip"), ("O+4(5)", "pgm round trip")]
    assert all(float(row.split()[-1]) > 0 for row in rows)


@pytest.mark.parametrize("args", [["spread-check", "--kind", "odd", "--q", "37", "--m", "2"],
                                  ["construct", "--family", "Oodd", "--q", "37", "--m", "2", "--out", "never.json"]],
                         ids=["spread-check", "construct"])
def test_a_transversal_walk_past_its_limit_exits_2_before_any_reflection_is_built(args, tmp_path):
    # Oodd5(37) would walk its 52,060 totally singular lines meeting each
    # with all 1,874,161 reflections, and used to run without end; the
    # count of the reflections is checked before any is built
    from orthosig.spreads import _WALK_CAP

    proc = subprocess.run([sys.executable, "-m", "orthosig", *args], capture_output=True, text=True, env=ENV,
                          cwd=tmp_path, timeout=60)
    assert proc.returncode == 2, proc.stderr
    doc, _ = parse_stdout(proc.stdout)
    assert doc["error"].startswith(f"transversal walk past its limit of {_WALK_CAP:,} images")
    assert "1,874,161 generators" in doc["error"]
    assert not (tmp_path / "never.json").exists()


def test_a_signature_without_decoding_tables_is_named_as_such(tmp_path, capsys):
    # the canonical even-n PSO signature has no decoder: factor and
    # pgm-demo exit 2 and say so, without calling it non-canonical
    from orthosig.cli import main

    path = tmp_path / "PSO-4(3).json"
    assert main(["construct", "--family", "PSO-", "--q", "3", "--m", "2", "--out", str(path)]) == 0
    capsys.readouterr()
    for argv in (["factor", "--in", str(path), "--rank", "5"], ["pgm-demo", "--family", "PSO+", "--q", "3", "--n", "4"]):
        assert main(argv) == 2
        doc, summary = parse_stdout(capsys.readouterr().out)
        assert doc["error"] == "signature carries no decoding tables"
        assert summary == ["# error: signature carries no decoding tables"]
