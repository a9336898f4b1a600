"""The library's records are plain slotted classes, frozen once built: each
keeps the repr, equality and hashing it had as a dataclass."""

import copy
import importlib
import pickle
import pkgutil
from fractions import Fraction

import pytest

import idealforge
from idealforge import FiniteIdealSpec, IdealId, NatSet, Report, RnhCase1Bundle, \
    RnhCase2Bundle, ScaleParams, SearchBudget, SparseBasis, Transcript, VerySparseFlag
from idealforge.adversary import TranscriptStep
from idealforge.ideals import Record
from idealforge.reduction import SearchOutcome
from idealforge.report import CheckItem, StepChecks

CHECKS = StepChecks("nat", ">", 2, ((3,), (4,)), (5, 6))

# Each record beside its repr as a dataclass gave it.
REPRS = [
    (SearchBudget(), "SearchBudget(max_element=32768, max_steps=10, candidate_cap=8)"),
    (CHECKS, "StepChecks(kind='nat', relation='>', bound=2, args=((3,), (4,)), values=(5, 6))"),
    (TranscriptStep(0, (3,), CHECKS),
     "TranscriptStep(index=0, chosen=(3,), threshold=2, relation='>', checks=StepChecks("
     "kind='nat', relation='>', bound=2, args=((3,), (4,)), values=(5, 6)), note='')"),
    (Transcript("w-summable", {"nmax": 1}, [], {"blocks": []}, [2, 1], Fraction(2)),
     "Transcript(strategy='w-summable', params={'nmax': 1}, steps=[], witness={'blocks': []}, "
     "image=NatSet([1, 2]), certified_sum=Fraction(5, 6), majorant=Fraction(2, 1), "
     "coloring=None)"),
    (RnhCase1Bundle(1, SparseBasis([1, 2]), [3], [SparseBasis([4])]),
     "RnhCase1Bundle(k=1, D=SparseBasis([1, 2]), xs=[3], Ds=[SparseBasis([4])])"),
    (RnhCase2Bundle([1], [0], [2], [frozenset({1})], [3], [SparseBasis([4])]),
     "RnhCase2Bundle(ns=[1], js=[0], ks=[2], Fs=[frozenset({1})], xs=[3], "
     "Ds=[SparseBasis([4])])"),
    (ScaleParams(tau="1/3"),
     "ScaleParams(ap_len=5, clique_size=4, fs_size=3, tau=Fraction(1, 3), window=256)"),
    (FiniteIdealSpec(IdealId.RAMSEY, ScaleParams(ap_len=3), 4),
     "FiniteIdealSpec(ideal=<IdealId.RAMSEY: 'ramsey'>, params=ScaleParams(ap_len=3, "
     "clique_size=4, fs_size=3, tau=Fraction(2, 1), window=256), ground=4)"),
    (SearchOutcome({0: 1}, False, 3), "SearchOutcome(found={0: 1}, exhausted=False, nodes=3)"),
    (CheckItem("a", True), "CheckItem(name='a', passed=True, detail='')"),
    (Report().add("a", False, "x"),
     "Report(items=[CheckItem(name='a', passed=False, detail='x')], meta={})"),
    (VerySparseFlag(False, (1, 2)), "VerySparseFlag(verified=False, counterexample=(1, 2))"),
]


@pytest.mark.parametrize("record, text", REPRS, ids=[type(r).__name__ for r, _ in REPRS])
def test_repr_is_the_dataclass_text(record, text):
    assert repr(record) == text


# Two equal hashable records built apart, and one that differs in the last field.
HASHABLE = [
    (lambda: SearchBudget(max_steps=4), SearchBudget(max_steps=4, candidate_cap=9)),
    (lambda: StepChecks("pair", "==", 0, ((1, 2), (1, 3)), (0, 0)),
     StepChecks("pair", "==", 0, ((1, 2), (1, 3)), (0, 1))),
    (lambda: ScaleParams(tau=Fraction(1, 2)), ScaleParams(tau="1/2", window=9)),
    (lambda: FiniteIdealSpec(IdealId.VDW, ScaleParams(), NatSet([0, 1])),
     FiniteIdealSpec(IdealId.VDW, ScaleParams(), NatSet([0]))),
    (lambda: VerySparseFlag(False, (1, 2)), VerySparseFlag(False, (1, 3))),
    (lambda: TranscriptStep(0, (3,), CHECKS), TranscriptStep(0, (3,), CHECKS, "x")),
    (lambda: CheckItem("a", False), CheckItem("a", False, "x")),
]


@pytest.mark.parametrize("make, other", HASHABLE, ids=[type(o).__name__ for _, o in HASHABLE])
def test_hashable_records_compare_and_hash_by_value_and_refuse_assignment(make, other):
    a, b = make(), make()
    assert a is not b and a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a != other and other not in {a}
    name = type(a).__slots__[0]
    with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
        setattr(a, name, getattr(b, name))
    with pytest.raises(AttributeError):
        delattr(a, name)
    with pytest.raises(AttributeError):
        a.extra = 1
    assert a == b


def test_every_record_class_in_the_library_is_in_the_repr_table():
    for info in pkgutil.iter_modules(idealforge.__path__):
        importlib.import_module(f"idealforge.{info.name}")
    classes, todo = set(), [Record]
    while todo:
        cls = todo.pop()
        todo += cls.__subclasses__()
        if cls.__module__.startswith("idealforge.") and cls is not Record:
            classes.add(cls)
    assert classes == {type(r) for r, _ in REPRS}


@pytest.mark.parametrize("record, text", REPRS, ids=[type(r).__name__ for r, _ in REPRS])
def test_every_record_refuses_assignment_and_deletion_of_each_field(record, text):
    for name in type(record).__slots__:
        with pytest.raises(AttributeError, match=f"^cannot assign to field '{name}'$"):
            setattr(record, name, None)
        with pytest.raises(AttributeError, match=f"^cannot delete field '{name}'$"):
            delattr(record, name)
    assert repr(record) == text


@pytest.mark.parametrize("record, text", REPRS, ids=[type(r).__name__ for r, _ in REPRS])
def test_every_record_survives_copy_deepcopy_and_a_pickle_round_trip(record, text):
    for twin in (copy.copy(record), copy.deepcopy(record),
                 pickle.loads(pickle.dumps(record))):
        assert type(twin) is type(record) and twin is not record
        assert twin == record and repr(twin) == text
        name = type(record).__slots__[0]
        with pytest.raises(AttributeError, match=f"^cannot assign to field '{name}'$"):
            setattr(twin, name, None)
    # a shallow copy shares each field; a deep copy shares no container
    shallow, deep = copy.copy(record), copy.deepcopy(record)
    for name, value in record.fields().items():
        assert getattr(shallow, name) is value
        if type(value) in (list, dict):
            assert getattr(deep, name) is not value


class _Slotless(StepChecks):
    """A record subclass that declares no slot of its own."""

    __slots__ = ()


def test_a_subclass_without_slots_of_its_own_keeps_its_parents_fields():
    a = _Slotless("nat", ">=", 2, ((3,),), (3,))
    b = _Slotless("nat", ">=", 9, ((4,),), (9,))
    assert _Slotless._field_names == StepChecks._field_names == StepChecks.__slots__
    assert a.fields() == {"kind": "nat", "relation": ">=", "bound": 2, "args": ((3,),),
                          "values": (3,)}
    assert repr(a) == "_Slotless(kind='nat', relation='>=', bound=2, args=((3,),), values=(3,))"
    assert a != b and a == _Slotless("nat", ">=", 2, ((3,),), (3,))
    assert a != StepChecks("nat", ">=", 2, ((3,),), (3,))  # another class
    assert hash(a) == hash(tuple(a.fields().values())) != hash(())
    for twin in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert type(twin) is _Slotless and twin == a and repr(twin) == repr(a)
    with pytest.raises(AttributeError, match="^cannot assign to field 'bound'$"):
        a.bound = 3


def _built(cls, *values):
    record = object.__new__(cls)  # a transcript derives some fields, so no re-build
    record._fill(*values)
    return record


# The records that hold a list or a dict, as a tuple may hold one.
HOLDERS = [r for r, _ in REPRS
           if any(type(v) in (list, dict) for v in r.fields().values())]


@pytest.mark.parametrize("record", HOLDERS, ids=[type(r).__name__ for r in HOLDERS])
def test_a_record_holding_a_list_or_a_dict_is_unhashable_and_compares_field_by_field(record):
    with pytest.raises(TypeError, match="unhashable"):
        hash(record)
    values = list(record.fields().values())
    twin = _built(type(record), *values)
    assert twin == record and twin is not record
    assert _built(type(record), *values[:-1], object()) != record and record != object()


def test_the_records_holding_a_list_or_a_dict_are_the_five_containers():
    assert [type(r).__name__ for r in HOLDERS] == [
        "Transcript", "RnhCase1Bundle", "RnhCase2Bundle", "SearchOutcome", "Report"]


def test_step_checks_hold_columns_and_no_rows():
    checks = StepChecks("pair", ">", 2, ((1, 2), (1, 3)), (5, 6))
    assert len(checks) == 2 and checks.args == ((1, 2), (1, 3)) and checks.values == (5, 6)
    assert checks != ((1, 2, 5), (1, 3, 6))  # a column record equals only a column record
    for rows in (iter, lambda c: c[0]):
        with pytest.raises(TypeError):
            rows(checks)
    with pytest.raises(ValueError, match="1 check points vs 0 values"):
        StepChecks("nat", ">", 0, ((1,),), ())


def test_report_fields_default_to_fresh_containers():
    a, b = Report(), Report()
    a.add("x", True)
    a.meta["k"] = 1
    assert b.items == [] and b.meta == {}
    assert a != b


def test_a_report_is_true_exactly_when_every_item_passed():
    report = Report()
    assert report
    report.add("a", True)
    assert report
    report.add("b", False, "x")
    assert not report and not report.passed
