"""What the package computes does not depend on `fields.CHUNK`.  The
product segments and walks, the sampled batches and the candidate scans
that CHUNK sizes, and the front and stabilizer tables whose presence it
decides, are caches: each group is rebuilt from cleared caches at a small
CHUNK, and its signature, decode and `tame_factor` results, verify reports
and parabolic signatures must hash as recorded at the default.

PLAN_SHA256 is not compared: a plan records whether a stage keeps a front
or stabilizer table, and that is what CHUNK decides."""

import pytest
import test_factorize
import test_lscore

from orthosig import fields, forms, lscore, matgroups, spreads


def _clear_caches():
    """Empties every `functools.cache` of the package, methods included."""
    for mod in (fields, forms, matgroups, spreads, lscore):
        for obj in vars(mod).values():
            for f in (obj, *vars(obj).values()) if isinstance(obj, type) else (obj,):
                if hasattr(f, "cache_clear"):
                    f.cache_clear()


@pytest.fixture
def chunk(request, monkeypatch):
    _clear_caches()
    monkeypatch.setattr(fields, "CHUNK", request.param)
    yield request.param
    monkeypatch.undo()
    _clear_caches()


GROUPS = sorted(set(test_factorize.DECODE_SHA256)
                | {key[:3] for key in test_lscore.VERIFY_REPORT_SHA256})
SMALLEST = [("O-", 3, 4), ("PSO-", 3, 4), ("SO+", 3, 4)]


@pytest.mark.parametrize("chunk,group", [(64, g) for g in GROUPS] + [(7, g) for g in SMALLEST],
                         indirect=["chunk"])
def test_results_do_not_depend_on_the_batch_size(chunk, group):
    if group in test_lscore.GOLDEN_SHA256:
        test_lscore.test_canonical_signatures_match_golden_hashes(*group)
    if group in test_factorize.DECODE_SHA256:
        test_factorize.test_decode_results_match_golden_hashes(*group)
        test_factorize.test_tame_factor_results_match_golden_hashes(*group)
    for key in test_lscore.VERIFY_REPORT_SHA256:
        if key[:3] == group:
            test_lscore.test_verify_reports_match_golden_hashes(*key)


@pytest.mark.parametrize("chunk", [7], indirect=True)
def test_parabolic_signatures_do_not_depend_on_the_batch_size(chunk):
    for key in sorted(test_lscore.PARABOLIC_SHA256):
        test_lscore.test_parabolic_signatures_match_golden_hashes(*key)
