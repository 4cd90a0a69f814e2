"""Which classes are dataclasses, and why.

Importing a module builds its dataclasses by generating and compiling their
methods: on CPython 3.11 a frozen dataclass of three fields and a method
builds in about 0.6 ms, the same ``typing.NamedTuple`` in under 0.1 ms, and
start-up is most of a CLI run. So a record type is a NamedTuple unless it
needs what a dataclass gives: being mutated, caching in ``__dict__``, work
when built, attribute reads at half the cost of a NamedTuple's, which
counts where a record is read per match or per token, or not being a tuple,
which a public result type keeps.
"""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import pkgutil

import pytest

import catamerge

MUTATED = "mutated after it is built"
PER_MATCH = "read per match (eval_term, the matcher)"
RESULT = "a public result: as a tuple it would unpack, order and equal plain tuples"

# module -> the classes it defines that are dataclasses -> why
DATACLASSES = {
    "chase": {
        "ChaseConfig": "checks max_rounds when built (__post_init__)",
        "ChaseResult": RESULT,
        "UniversalityResult": RESULT,
        "TraceEntry": MUTATED,
        "ChaseTrace": MUTATED,
    },
    "instance": {
        "VirtualElem": PER_MATCH,
        "ConstraintCheck": RESULT,
        "MergeReport": MUTATED,
        "SatisfactionReport": MUTATED,
    },
    "integrate": {
        "CombinedSchema": MUTATED,
        "TableDelta": MUTATED,
        "RoundTripReport": MUTATED,
    },
    "parser": {
        "SourceDocument": "caches its line starts (a cached_property needs __dict__)",
        "Token": "read per token",
        "Document": MUTATED,
    },
    "query": {
        "ResultTable": MUTATED,
        "JoinPlan": RESULT,
    },
    "schema": {
        "Path": PER_MATCH,
        "Var": PER_MATCH,
        "PathApp": PER_MATCH,
        "Const": PER_MATCH,
        "FunApp": PER_MATCH,
        "Eq": PER_MATCH,
        "Cmp": PER_MATCH,
        "Constraint": "caches its plan (a cached_property needs __dict__)",
        "Schema": "builds its lookup tables when built (__post_init__)",
        "ValidationReport": MUTATED,
        "AcyclicityResult": RESULT,
    },
}


def _own_classes() -> dict[str, dict[str, type]]:
    """Per module of the package, the classes it defines."""
    out = {}
    for info in pkgutil.iter_modules(catamerge.__path__):
        module = importlib.import_module(f"catamerge.{info.name}")
        out[info.name] = {
            name: cls for name, cls in vars(module).items()
            if inspect.isclass(cls) and cls.__module__ == module.__name__
        }
    return out


def _records() -> list[type]:
    return [cls for classes in _own_classes().values() for cls in classes.values()
            if issubclass(cls, tuple) and hasattr(cls, "_fields")]


def test_dataclasses_are_the_ones_with_a_reason():
    found = {
        module: {name for name, cls in classes.items() if dataclasses.is_dataclass(cls)}
        for module, classes in _own_classes().items()
    }
    assert {m: names for m, names in found.items() if names} == {
        m: set(reasons) for m, reasons in DATACLASSES.items()
    }


@pytest.mark.parametrize("cls", _records(), ids=lambda cls: cls.__name__)
def test_records_read_as_frozen_dataclasses(cls):
    """A NamedTuple record prints (``ForeignKey(name='f', source='A',
    target='B')``), hashes and refuses writes as the frozen dataclass with
    its fields would, so traces, artifacts and set and dict orders do not
    depend on which of the two it is."""
    values = [f"v{i}" for i in range(len(cls._fields))]
    record = cls(*values)
    twin = dataclasses.make_dataclass(cls.__name__, cls._fields, frozen=True)(*values)
    assert repr(record) == repr(twin)
    assert hash(record) == hash(tuple(record)) == hash(twin)
    with pytest.raises(AttributeError):
        setattr(record, cls._fields[0], "w")
