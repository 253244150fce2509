"""A demonstration secret-key cipher keyed by a pair of logarithmic
signatures for the same group.

Encryption composes the index-to-element bijection of one signature with
the inverse (tame factorization) of the other.  Key derivation applies
only transformations that provably preserve the signature property:
in-block shuffles and telescoped per-block translations.  This is a
correctness demonstration of the keyed bijection; no security properties
are claimed or implied.
"""

from __future__ import annotations

import operator
import random
from dataclasses import dataclass

import numpy as np

from .factorize import compose, rank, tame_factor, unrank
from .forms import isometry_inverse
from .lscore import LogSignature, LsError, canonical_ls, space_for
from .matgroups import GroupDescriptor, Mat


class PgmError(LsError):
    pass


@dataclass
class PgmKey:
    group: GroupDescriptor
    alpha_ls: LogSignature
    beta_ls: LogSignature
    seed: int
    inverse_perms: list  # per block: the beta index of each alpha index

    @property
    def order(self):
        return self.alpha_ls.claimed_order

    def to_json(self):
        return {
            "group": self.group.to_json(),
            "seed": self.seed,
            "alpha": self.alpha_ls.to_json(),
            "beta": self.beta_ls.to_json(),
        }


def keygen(desc: GroupDescriptor, seed: int) -> PgmKey:
    """Derive a key pair: the canonical signature and a seeded variant.

    The variant shuffles elements inside each block and conjoins
    telescoping left translations g_{i-1}^-1 B_i g_i (with g_0 = g_s = 1),
    both of which keep the unique-product property.
    """
    alpha = canonical_ls(desc)
    if not alpha.blocks:
        raise PgmError("group is trivial; nothing to key")
    fq, n = alpha.blocks[0][0].fq, alpha.blocks[0][0].n
    rng = random.Random(seed)
    perms = []
    for blk in alpha.blocks:
        idx = list(range(len(blk)))
        rng.shuffle(idx)
        perms.append(idx)
    pool = [g for blk in alpha.blocks for g in blk]
    one = fq.identity(n)
    translations = np.stack([one] + [pool[rng.randrange(len(pool))].a for _ in alpha.blocks[1:]] + [one])
    # the translations are isometries: one stacked isometry inverse
    invs = isometry_inverse(space_for(desc), translations[:-1])
    beta_blocks = [fq.mat_mul(fq.mat_mul(invs[i], np.stack([blk[j].a for j in perm])), translations[i + 1])
                   for i, (blk, perm) in enumerate(zip(alpha.blocks, perms))]
    beta = LogSignature.from_stacks(desc, fq, n, beta_blocks, alpha.claimed_order,
                                    {"derived_from": "canonical", "seed": seed})
    inverse_perms = [np.argsort(perm).tolist() for perm in perms]
    return PgmKey(desc, alpha, beta, seed, inverse_perms)


def _beta_factor(key: PgmKey, g: Mat) -> tuple:
    """Tame factorization through beta: beta products with indices j equal
    alpha products with indices perm[j], so decode via alpha and unmap."""
    return tuple(map(operator.getitem, key.inverse_perms, tame_factor(g, key.alpha_ls)))


def encrypt(key: PgmKey, msg: int) -> int:
    if not 0 <= msg < key.order:
        raise PgmError(f"message {msg} out of range [0, {key.order})")
    g = compose(unrank(msg, key.alpha_ls), key.alpha_ls)
    return rank(_beta_factor(key, g), key.beta_ls)


def decrypt(key: PgmKey, ct: int) -> int:
    if not 0 <= ct < key.order:
        raise PgmError(f"ciphertext {ct} out of range [0, {key.order})")
    g = compose(unrank(ct, key.beta_ls), key.beta_ls)
    return rank(tame_factor(g, key.alpha_ls), key.alpha_ls)

