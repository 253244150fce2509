"""The contract of `fields.Record`, the package's one record type, on every
record class: construction by position or name, the TypeErrors of a
missing or unknown argument, frozen fields, `replace` running
`__post_init__` again, and which records compare by value."""

from collections.abc import Mapping

import pytest

from orthosig.fields import FrozenInstanceError, Record, replace
from orthosig.lscore import (
    LogSignature, ProductTables, SpreadPlan, VerifyReport, _StagePlan, _TablePlan, canonical_ls, space_for,
    spread_construction, verify_ls,
)
from orthosig.forms import reflections
from orthosig.matgroups import GroupDescriptor, descriptor, powers
from orthosig.pgm import PgmKey, keygen
from orthosig.spreads import CyclicOrbits, cyclic_orbits

DESC = descriptor("O-", 3, m=2)


def _records():
    ls = canonical_ls(DESC)
    space = space_for(DESC)
    return {
        GroupDescriptor: DESC,
        LogSignature: ls,
        ProductTables: ls.tables,
        SpreadPlan: spread_construction(space, DESC.family),
        _TablePlan: ls.plan.front,
        _StagePlan: ls.plan,
        VerifyReport: verify_ls(ls),
        PgmKey: keygen(DESC, 7),
        CyclicOrbits: cyclic_orbits(space.fq, powers(space.fq, reflections(space)[0], 3)[1:],
                                    space.isotropic_points()[:, None]),
    }


RECORDS = _records()


def test_every_record_class_is_a_record():
    assert all(issubclass(cls, Record) and type(r) is cls for cls, r in RECORDS.items())


def _same(a, b):
    """Whether two field values hold the same objects: a record's
    `__post_init__` may recast a container (SpreadPlan makes its lists
    tuples and its dicts read-only mappings), never what it holds."""
    if isinstance(a, (tuple, list)) and isinstance(b, (tuple, list)):
        return len(a) == len(b) and all(map(_same, a, b))
    if isinstance(a, Mapping) and isinstance(b, Mapping):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    return a is b


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_positional_and_keyword_construction_agree(cls):
    record = RECORDS[cls]
    values = [getattr(record, name) for name in cls._fields]
    by_position, by_name = cls(*values), cls(**dict(zip(cls._fields, values)))
    for built in (by_position, by_name):
        assert all(_same(getattr(built, name), value) for name, value in zip(cls._fields, values))
    # what __post_init__ derives is derived alike
    assert vars(by_position).keys() == vars(by_name).keys()


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_a_missing_or_unknown_argument_raises_type_error(cls):
    record = RECORDS[cls]
    values = {name: getattr(record, name) for name in cls._fields}
    first = cls._fields[0]
    with pytest.raises(TypeError, match=f"missing field '{first}'"):
        cls(**{name: v for name, v in values.items() if name != first})
    with pytest.raises(TypeError, match="no field 'bogus'"):
        cls(**values, bogus=1)
    with pytest.raises(TypeError, match="takes"):
        cls(*values.values(), None)
    with pytest.raises(TypeError, match="twice"):
        cls(*values.values(), **{first: values[first]})


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_no_field_can_be_rebound_or_deleted(cls):
    record = RECORDS[cls]
    for name in (*cls._fields, "not_a_field"):
        with pytest.raises(FrozenInstanceError):
            setattr(record, name, None)
        with pytest.raises(FrozenInstanceError):
            delattr(record, name)
    assert issubclass(FrozenInstanceError, AttributeError)


def test_replace_runs_post_init_again():
    with pytest.raises(ValueError, match="even n"):
        replace(DESC, n=3)
    odd = replace(DESC, family="SOodd", n=5)
    assert (odd.kind, odd.p, odd.e, odd.projective) == ("odd", 3, 1, False)
    nine = replace(DESC, family="PSO-", q=9)
    assert (nine.kind, nine.p, nine.e, nine.projective) == ("minus", 3, 2, True)
    plan = RECORDS[_StagePlan]
    again = replace(plan)
    assert again.width == plan.width and again._points is not plan._points


def test_a_mutable_default_is_fresh_for_each_record():
    a, b = LogSignature(None, [], 1), LogSignature(None, [], 1)
    a.meta["edited"] = True
    assert b.meta == {} and LogSignature.meta == {}
    assert a.plan is None and a.tables is None


def test_a_descriptor_compares_and_hashes_on_family_q_and_n():
    same = GroupDescriptor("O-", 3, 4)
    assert same == DESC and hash(same) == hash(DESC) == hash(("O-", 3, 4))
    assert {DESC: 1}[same] == 1
    assert DESC != GroupDescriptor("O+", 3, 4) and DESC != GroupDescriptor("O-", 5, 4)
    assert DESC != ("O-", 3, 4)


def test_a_signature_compares_on_its_fields_and_not_its_plan():
    ls = RECORDS[LogSignature]
    bare = replace(ls)
    assert bare.plan is None and bare.tables is None and bare == ls
    assert replace(ls, meta={}) != ls
    with pytest.raises(TypeError, match="unhashable"):
        hash(ls)


def test_plans_and_tables_compare_by_identity():
    ls = RECORDS[LogSignature]
    fq, n = ls.plan.fq, ls.plan.n
    assert ProductTables.build(fq, n, ls.plan.blocks) != ProductTables.build(fq, n, ls.plan.blocks)
    front = RECORDS[_TablePlan]
    assert _TablePlan.build(fq, n, front.blocks) != _TablePlan.build(fq, n, front.blocks)
    for cls in (_StagePlan, SpreadPlan, VerifyReport, PgmKey, CyclicOrbits):
        record = RECORDS[cls]
        assert record == record and replace(record) != record
