"""The process entry: both launchers, `python -m orthosig` and the
installed `orthosig` script, call `cli.entry`, which freezes the import
graph before `main`; `cli.main` itself leaves the collector alone."""

import gc
import importlib
import json
import pathlib
import runpy
import subprocess
import sys

import pytest

from orthosig import cli

from test_cli import ENV

ROOT = pathlib.Path(__file__).parents[1]


def test_both_launchers_enter_through_one_function(monkeypatch):
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    with open(ROOT / "pyproject.toml", "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["orthosig"]
    module, _, name = target.partition(":")
    assert getattr(importlib.import_module(module), name) is cli.entry
    # `python -m orthosig` runs __main__, which must call the script's target
    entered = []
    monkeypatch.setattr(cli, "entry", lambda: entered.append(name) or 3)
    with pytest.raises(SystemExit) as stop:
        runpy.run_module("orthosig", run_name="__main__")
    assert entered == [name] and stop.value.code == 3


def test_the_launcher_prints_and_exits_as_main_does(tmp_path, capsys):
    good, bad = tmp_path / "ls.json", tmp_path / "swapped.json"
    assert cli.main(["construct", "--family", "O-", "--q", "3", "--m", "2", "--out", str(good)]) == 0
    data = json.loads(good.read_text())
    data["blocks"][0][1], data["blocks"][1][1] = data["blocks"][1][1], data["blocks"][0][1]
    bad.write_text(json.dumps(data))
    capsys.readouterr()
    for argv, code in [
        (["counts", "--kind", "minus", "--q", "3", "--m", "2"], 0),
        (["verify", "--in", str(bad), "--mode", "exhaustive"], 1),
        (["construct", "--family", "O-", "--q", "4", "--m", "2", "--out", str(tmp_path / "x.json")], 2),
    ]:
        assert cli.main(argv) == code
        proc = subprocess.run([sys.executable, "-m", "orthosig", *argv], capture_output=True, env=ENV)
        assert (proc.returncode, proc.stdout) == (code, capsys.readouterr().out.encode())


@pytest.mark.parametrize("argv", [["counts", "--kind", "minus", "--q", "3", "--m", "2"],
                                  ["construct", "--family", "O-", "--q", "4", "--m", "2", "--out", "x.json"]])
def test_a_closed_stdout_ends_the_command_with_141_and_no_traceback(argv, tmp_path):
    # the reader of the pipe is gone before the command writes its report,
    # or its error report (q = 4 exits 2 before anything is built)
    proc = subprocess.Popen([sys.executable, "-m", "orthosig", *argv], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=ENV, cwd=tmp_path)
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 141
    assert "Traceback" not in err and "Exception ignored" not in err, err


def test_the_launcher_freezes_the_import_graph():
    probe = ("import atexit, gc, runpy, sys\n"
             "atexit.register(lambda: print('frozen', gc.get_freeze_count()))\n"
             "sys.argv = ['orthosig', 'counts', '--kind', 'minus', '--q', '3', '--m', '2']\n"
             "runpy.run_module('orthosig', run_name='__main__')\n")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=ENV)
    assert proc.returncode == 0
    frozen = proc.stdout.splitlines()[-1].split()
    assert frozen[0] == "frozen" and int(frozen[1]) > 0


def test_main_leaves_the_collector_alone(capsys):
    before = gc.get_freeze_count()
    assert cli.main(["counts", "--kind", "minus", "--q", "3", "--m", "2"]) == 0
    assert gc.get_freeze_count() == before


def test_importing_the_cli_loads_no_dataclass_machinery():
    # the package's records are `fields.Record`s, which compile nothing at
    # import; `dataclasses` and the `copy` it pulls in stay unloaded
    probe = "import sys, orthosig.cli\nprint(sorted({'dataclasses', 'copy'} & set(sys.modules)))\n"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=ENV)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_bench_startup_prints_one_row_per_command(capsys):
    script = runpy.run_path(str(ROOT / "scripts" / "bench_startup.py"))
    script["main"](1)
    header, *rows = capsys.readouterr().out.splitlines()
    assert header.split() == ["command", "best", "ms", "+ms"]
    assert [" ".join(row.split()[:-2]) for row in rows] == \
        ["python -c pass", "import numpy", "import orthosig.cli", "construct, exits 2"]
    assert all(float(row.split()[-2]) > 0 for row in rows)
