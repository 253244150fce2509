"""The same bytes: the stdout, the exit code and the written files of a
fixed grid of command lines, run in-process through `cli.main` in a
temporary working directory with relative paths, against digests recorded
once.  A change that keeps every report and every file passes unedited."""

import contextlib
import hashlib
import io
import json
import os

import pytest

from orthosig import cli

# the benchmark's cli-session script; its seed picks the sampled-verify
# seed, the factored rank (seed * 7919 mod |O+4(5)| = 28,800) and the PGM key
SESSION = [
    "counts --kind minus --q 3 --m 2",
    "spread-check --kind minus --q 3 --m 2",
    "construct --family O- --q 3 --m 2 --out O-4(3).json",
    "swap O-4(3).json O-4(3)-swapped.json",
    "construct --family O+ --q 5 --m 2 --out O+4(5).json",
    "verify --in O-4(3).json --mode exhaustive",
    "verify --in O+4(5).json --mode sampled --samples 300 --seed {seed}",
    "factor --in O+4(5).json --rank {rank}",
    "project --family SO- --q 3 --m 2",
    "pgm-demo --family O+ --q 5 --m 2 --seed {seed} --samples 200",
    "verify --in O-4(3)-swapped.json --mode exhaustive",
    "verify --in O-4(3)-swapped.json --mode sampled --samples 300 --seed 42",
    "construct --family O- --q 4 --m 2 --out never.json",
]

# every command: n = 1, F_9, F_25, spread-check of every kind, parabolic,
# project, omega-check and the refusals (exit 2)
GRID = [
    "counts --kind odd --q 3 --n 1",
    "construct --family Oodd --q 3 --n 1 --out Oodd1(3).json",
    "verify --in Oodd1(3).json --mode exhaustive",
    "factor --in Oodd1(3).json --rank 1",
    "pgm-demo --family Oodd --q 5 --n 1",
    "pgm-demo --family SOodd --q 3 --n 1",
    "project --family SOodd --q 7 --n 1",
    "omega-check --family Oodd --q 3 --n 1",
    "construct --family O- --q 9 --m 2 --out O-4(9).json",
    "verify --in O-4(9).json --mode sampled --samples 200 --seed 5",
    "verify --in O-4(9).json --mode exhaustive",
    "factor --in O-4(9).json --rank 123456",
    "pgm-demo --family O- --q 9 --m 2 --samples 50",
    "construct --family PSO- --q 9 --m 2 --out PSO-4(9).json",
    "parabolic --family O- --q 9 --m 2",
    "construct --family O- --q 25 --m 2 --out O-4(25).json",
    "spread-check --kind plus --q 9 --m 1",
    *(f"spread-check --kind {kind} --q 3 --m {m}" for kind in ("minus", "plus", "odd") for m in (1, 2, 3)),
    "parabolic --family O+ --q 3 --m 3 --k 2",
    "omega-check --family SO- --q 3 --m 2",
    "omega-check --family SO+ --q 3 --m 2",
    "project --family SO+ --q 5 --m 2 --out PSO+4(5).json",
    "project --family SO+ --q 3 --m 3",
    "construct --family O- --q 3 --m 5 --out O-10(3).json",
    "construct --family Omega- --q 3 --m 2 --out Omega-4(3).json",
    "construct --family O- --q 41 --m 2 --out O-4(41).json",
]


def _swap(src, dst):
    """dst: the signature file src with element 1 of blocks 0 and 1
    swapped, written as the benchmark writes its negative control."""
    with open(src) as fh:
        doc = json.load(fh)
    blocks = doc["blocks"]
    blocks[0][1], blocks[1][1] = blocks[1][1], blocks[0][1]
    with open(dst, "w") as fh:
        json.dump(doc, fh, sort_keys=True)
        fh.write("\n")


def digests(lines):
    """The SHA-256 of each command line, run in turn through `cli.main` in
    the working directory: of its exit code, its stdout and the name and
    bytes of every file in the directory after it.  `swap a b` is no
    command: `_swap` writes b, and it has no digest."""
    out = {}
    for line in lines:
        argv = line.split()
        if argv[0] == "swap":
            _swap(*argv[1:])
            continue
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        h = hashlib.sha256(f"{code}\n{buf.getvalue()}".encode())
        for name in sorted(os.listdir()):
            with open(name, "rb") as fh:
                h.update(f"\n{name}\n".encode() + fh.read())
        out[line] = h.hexdigest()
    return out


def cases():
    """(name, command lines) of the two benchmark seeds and the grid."""
    seeds = [(f"session-{seed}", [line.format(seed=seed, rank=seed * 7919 % 28_800) for line in SESSION])
             for seed in (42, 7)]
    return [*seeds, ("grid", GRID)]


# Recorded at commit 77151eb, with this module copied into that checkout's
# tests/: `digests(lines)` of each of `cases()`, each run in a fresh empty
# directory.  A digest that moves names a report or a file whose bytes
# changed; it is never re-recorded to make a change pass.
DIGESTS = {
    "session-42": {
        "counts --kind minus --q 3 --m 2":
            "75c8c9aadcc47fc8c3610538bdd6bc9072ae0846220d4805c8e221d6ad4fd9d6",
        "spread-check --kind minus --q 3 --m 2":
            "4170b3fec90c3b29b535bb49a624f2f821c652fa4b2d1c88fa866cc92203e54c",
        "construct --family O- --q 3 --m 2 --out O-4(3).json":
            "cb854093ccfdd098f7df082db8f3646ab411fa8ae75a1a6393386bc124c331b3",
        "construct --family O+ --q 5 --m 2 --out O+4(5).json":
            "cebffae48b05686d57ad52f2ba9559f9967cdb0112932338d89d83b73c21abc1",
        "verify --in O-4(3).json --mode exhaustive":
            "d76bb2f2e1558f5ce5069ca85255357559a7429df979c242567ba99f34117d2f",
        "verify --in O+4(5).json --mode sampled --samples 300 --seed 42":
            "c86aeb924b5a6ce8f075978cafddbd6de59ed4177a20ff6b6daff4a309023dcf",
        "factor --in O+4(5).json --rank 15798":
            "269b9d2bfb235e23a3eda2d4a307691ebf396704c58263c501cfd619568ffed8",
        "project --family SO- --q 3 --m 2":
            "7907092b249ed16937f60501273ca2067eb5c156662e42fa7d1257fb7354bd05",
        "pgm-demo --family O+ --q 5 --m 2 --seed 42 --samples 200":
            "a3dd9aca7bc732b1012a290939256604bd238351c1b780dc75feb48dbef6b418",
        "verify --in O-4(3)-swapped.json --mode exhaustive":
            "48057e2a899e1c42200a9bce8dde490ee20d09f5c8c5c745f166c920c5a8d652",
        "verify --in O-4(3)-swapped.json --mode sampled --samples 300 --seed 42":
            "ae78e3857ec3d4fe31ddeb9129fcd44f977517e928114c9ada5b0c302860c488",
        "construct --family O- --q 4 --m 2 --out never.json":
            "8ddcdf329ea4473abe53b3f68766f043a605b7e319d05890ba0b8e62e48b1176",
    },
    "session-7": {
        "counts --kind minus --q 3 --m 2":
            "75c8c9aadcc47fc8c3610538bdd6bc9072ae0846220d4805c8e221d6ad4fd9d6",
        "spread-check --kind minus --q 3 --m 2":
            "4170b3fec90c3b29b535bb49a624f2f821c652fa4b2d1c88fa866cc92203e54c",
        "construct --family O- --q 3 --m 2 --out O-4(3).json":
            "cb854093ccfdd098f7df082db8f3646ab411fa8ae75a1a6393386bc124c331b3",
        "construct --family O+ --q 5 --m 2 --out O+4(5).json":
            "cebffae48b05686d57ad52f2ba9559f9967cdb0112932338d89d83b73c21abc1",
        "verify --in O-4(3).json --mode exhaustive":
            "d76bb2f2e1558f5ce5069ca85255357559a7429df979c242567ba99f34117d2f",
        "verify --in O+4(5).json --mode sampled --samples 300 --seed 7":
            "e7a51da3ff9b3025c33f941124c0ea97e3ea25d7ca5dd142569c368a45c010a0",
        "factor --in O+4(5).json --rank 26633":
            "ce9ff14f121cd0ddc9c1d168e9f558764061dd8c19aef6f62b9b2418c23f8e1a",
        "project --family SO- --q 3 --m 2":
            "7907092b249ed16937f60501273ca2067eb5c156662e42fa7d1257fb7354bd05",
        "pgm-demo --family O+ --q 5 --m 2 --seed 7 --samples 200":
            "99a7320b673d9fae8f547c8a63602dda5d54d51df8d5c1b8b667c49b846cb18e",
        "verify --in O-4(3)-swapped.json --mode exhaustive":
            "48057e2a899e1c42200a9bce8dde490ee20d09f5c8c5c745f166c920c5a8d652",
        "verify --in O-4(3)-swapped.json --mode sampled --samples 300 --seed 42":
            "ae78e3857ec3d4fe31ddeb9129fcd44f977517e928114c9ada5b0c302860c488",
        "construct --family O- --q 4 --m 2 --out never.json":
            "8ddcdf329ea4473abe53b3f68766f043a605b7e319d05890ba0b8e62e48b1176",
    },
    "grid": {
        "counts --kind odd --q 3 --n 1":
            "700375106b20142aacac6831040d623fa62a982725a8a0d0f0c1c04ed71fb9f5",
        "construct --family Oodd --q 3 --n 1 --out Oodd1(3).json":
            "f9142ad8d10bcd5d570b5003198098ddce84da0b32b67e0433a5165bf5c67ce9",
        "verify --in Oodd1(3).json --mode exhaustive":
            "37e74afa65861db91491dfd5f5e2eb37e2b5c6ecc1dd6a2757bf90e04c1dac86",
        "factor --in Oodd1(3).json --rank 1":
            "76a7c43a20395919f9503c1146a3eff1df25cac8ad689a522510f7163c4beb4f",
        "pgm-demo --family Oodd --q 5 --n 1":
            "6327b911ba55f84c098a061a52c882dde9ac1b1d90db85d284b5b4fd1debcda5",
        "pgm-demo --family SOodd --q 3 --n 1":
            "34a51acbb849ce462d6887c775c176b04937716d851156c9bc17ae8573caadfb",
        "project --family SOodd --q 7 --n 1":
            "eb5b6228c6833cabb98d46adbcce11641f8503886550f000956431aa0ea83551",
        "omega-check --family Oodd --q 3 --n 1":
            "cb08dbdd066801d5cf35409ff4b26171d74cf23401d6cf7b4bb149929b4b0e8c",
        "construct --family O- --q 9 --m 2 --out O-4(9).json":
            "f501388d63069d6aff1cfffc91b4ac5d9174017d6c07dc615db07a933643f9f2",
        "verify --in O-4(9).json --mode sampled --samples 200 --seed 5":
            "e51cb1b05c0fc959fd4bc539d88b22386deb948aca40bcf39703a3a66030ded0",
        "verify --in O-4(9).json --mode exhaustive":
            "8a21d3739e9414980b8f0c0a8a205251eec0fa9d35e5e25adc44b8d7ba21d347",
        "factor --in O-4(9).json --rank 123456":
            "ab77fc6e9747b8a6e60bd6f33cc2ebf6ebdb8d6986cb856eadf40312f19ae33b",
        "pgm-demo --family O- --q 9 --m 2 --samples 50":
            "2b61bfce8a9c6268f4a86564131e65da65f82f51c720a60cf735bfb43c9de248",
        "construct --family PSO- --q 9 --m 2 --out PSO-4(9).json":
            "762879c3c1aa836c7b219d0805e43fe7c801ce44e0e3e7842f2ca12cce7dbb51",
        "parabolic --family O- --q 9 --m 2":
            "c19b0211522a10defc674c6b8dda52d535b29d8cc09bccf1275077efda154097",
        "construct --family O- --q 25 --m 2 --out O-4(25).json":
            "1d56a8ade88474f48e91d358d60acb6a5e52d92401936ef63c3ceb5bf9e441a8",
        "spread-check --kind plus --q 9 --m 1":
            "ba13f03fcb35780cb3acc26bf558bf4a4dfb34a154df519ebba5e91da2c18c98",
        "spread-check --kind minus --q 3 --m 1":
            "2782a60e5a07597f8c3233106fba302d6d1350a5a074985937ec34b2993d2576",
        "spread-check --kind minus --q 3 --m 2":
            "230a3f6fd3089c5fe55f5b702309e3e71b356b9df5aeb9275640206fba35eced",
        "spread-check --kind minus --q 3 --m 3":
            "3c158ba7968df82e6944b47ff66fe102ea688e4aae32b0ae68135dc9dbd04f44",
        "spread-check --kind plus --q 3 --m 1":
            "f9b84e95e0b6acc19f089572fc2483343a36ce18c8fde7e851a31da49201243e",
        "spread-check --kind plus --q 3 --m 2":
            "557e6f37ec2e1e45ed4309c66ca31b32bfbbca9477f5651d93068b145ffb3205",
        "spread-check --kind plus --q 3 --m 3":
            "f8fc60d3392b432b95c1521db406718555867e92cc8383503127fdf63a629945",
        "spread-check --kind odd --q 3 --m 1":
            "9afad24a0d6d0d7fcb6c0579d608f1c5495abfdb6c856123d65a1c871cebf4ba",
        "spread-check --kind odd --q 3 --m 2":
            "ce6592bc4af94274b075bd240f74e020e08940366e8e3a987a62fd48d9f10279",
        "spread-check --kind odd --q 3 --m 3":
            "f081853abbb158902cc0ba632cdefe26e5e568867ef8173dcd47365829f0b310",
        "parabolic --family O+ --q 3 --m 3 --k 2":
            "7e12ad7e4ec827a4409565a3ce1819a24a1a7fd114694689d581226f770d10e7",
        "omega-check --family SO- --q 3 --m 2":
            "8e40d72efc15a5f2fce3b135f4f3b7a807ca4a73875f71337e0e613b59698f66",
        "omega-check --family SO+ --q 3 --m 2":
            "5ab9dc4d94ead735ca598dd1b278ac8664a59de1de4015a0fe34c3a3308807fc",
        "project --family SO+ --q 5 --m 2 --out PSO+4(5).json":
            "e70bb422b90c6f4feabe5b1aa6c3b3aece0e6a3601405d6bede61b256253c9d2",
        "project --family SO+ --q 3 --m 3":
            "e0cdeee71bba6f23d4bab3ae55513df3cd535186ecf5515843d82462ff95b74e",
        "construct --family O- --q 3 --m 5 --out O-10(3).json":
            "c4f6776dd97d9f0939ed1334cb3cdccd2b90884d2e5730da191287e4d560fd71",
        "construct --family Omega- --q 3 --m 2 --out Omega-4(3).json":
            "b04db5fd22bd0d2e89c39b37906812e01d7b0463671c61721fe3e37150db2761",
        "construct --family O- --q 41 --m 2 --out O-4(41).json":
            "ba350bbdc01843a2e67290cadd2e769d6c338f8a8d97e0ac8dab49a55af4057c",
    },
}


@pytest.mark.parametrize("name,lines", cases(), ids=[name for name, _ in cases()])
def test_every_command_keeps_its_stdout_exit_code_and_files(name, lines, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert digests(lines) == DIGESTS[name]
