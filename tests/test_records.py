"""The package's result records are immutable values.

Every record is a ``typing.NamedTuple``: assigning to a field raises
``AttributeError``, and two records built from equal fields are equal and
hash alike.  ``StructureSet`` holds a dict and a polytope, so it is a
slotted class that compares and hashes by identity.
"""

import inspect

import pytest

from conepack import (exactmath, geometry, ilp, oracle, scheduling, solver,
                      structure)
from conepack.geometry import box_polytope
from conepack.structure import StructureSet, compute_structure_set

RECORDS = sorted(
    {cls for module in (exactmath, geometry, ilp, oracle, scheduling, solver,
                        structure)
     for _name, cls in inspect.getmembers(module, inspect.isclass)
     if issubclass(cls, tuple) and hasattr(cls, "_fields")},
    key=lambda cls: cls.__name__)


def test_the_records_are_found():
    assert {cls.__name__ for cls in RECORDS} == {
        "LinearSolveResult", "LpResult", "EllipsoidResult", "IlpResult",
        "CoverReport", "ScheduleSolution", "EdfResult", "CycleLayout",
        "PackingSolution", "IntConeResult", "SelectResult", "WindowBasis"}


@pytest.mark.parametrize("cls", RECORDS, ids=[c.__name__ for c in RECORDS])
def test_a_record_is_an_immutable_value(cls):
    def build():
        return cls(*((i,) for i in range(len(cls._fields))))

    record, twin = build(), build()
    assert record == twin and hash(record) == hash(twin)
    for field in cls._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, None)
    assert record == twin


def test_a_structure_set_compares_by_identity():
    poly = box_polytope([0], [2])
    sset, twin = compute_structure_set(poly), compute_structure_set(poly)
    assert type(sset) is StructureSet
    assert sset == sset and sset != twin
    assert len({sset, twin}) == 2 and hash(sset) == object.__hash__(sset)
    assert sset.special_points == twin.special_points
