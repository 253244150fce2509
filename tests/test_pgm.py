import pytest

from orthosig import pgm
from orthosig.lscore import verify_ls
from orthosig.matgroups import descriptor


def test_keygen_deterministic():
    d = descriptor("O-", 3, n=2)
    k1 = pgm.keygen(d, seed=42)
    k2 = pgm.keygen(d, seed=42)
    assert [[m.key for m in b] for b in k1.beta_ls.blocks] == [
        [m.key for m in b] for b in k2.beta_ls.blocks
    ]
    assert [pgm.encrypt(k1, m) for m in range(8)] == [pgm.encrypt(k2, m) for m in range(8)]


def test_beta_ls_valid_exhaustive_o2minus():
    d = descriptor("O-", 3, n=2)
    key = pgm.keygen(d, seed=9)
    rep = verify_ls(key.beta_ls, "exhaustive")
    assert rep.valid


def test_different_seeds_differ():
    d = descriptor("O-", 3, n=4)
    base = pgm.keygen(d, seed=0)
    diffs = 0
    for s in range(1, 11):
        k = pgm.keygen(d, seed=s)
        if any(pgm.encrypt(k, m) != pgm.encrypt(base, m) for m in range(30)):
            diffs += 1
    assert diffs >= 9


def test_encrypt_decrypt_small_exhaustive():
    d = descriptor("O-", 3, n=2)
    key = pgm.keygen(d, seed=3)
    for m in range(8):
        assert pgm.decrypt(key, pgm.encrypt(key, m)) == m


def test_encrypt_bijection_o4minus():
    d = descriptor("O-", 3, n=4)
    key = pgm.keygen(d, seed=42)
    image = {pgm.encrypt(key, m) for m in range(1440)}
    assert len(image) == 1440
    for m in range(0, 1440, 97):
        assert pgm.decrypt(key, pgm.encrypt(key, m)) == m


def test_out_of_range():
    d = descriptor("O-", 3, n=2)
    key = pgm.keygen(d, seed=1)
    with pytest.raises(pgm.PgmError):
        pgm.encrypt(key, 8)
    with pytest.raises(pgm.PgmError):
        pgm.decrypt(key, -1)


def test_key_serialization():
    d = descriptor("O-", 3, n=2)
    key = pgm.keygen(d, seed=5)
    blob = key.to_json()
    assert blob["seed"] == 5
    assert blob["alpha"]["claimed_order"] == 8
    assert blob["beta"]["claimed_order"] == 8
