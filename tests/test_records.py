"""The records of the package are plain slotted classes.  The frozen ones
refuse assignment, and the compared ones (:class:`fdc.qexact.Value`)
compare and hash exactly as a frozen dataclass of the same fields does."""

import dataclasses
import itertools
import os

import pytest

from fdc.chi_data import BaseChange
from fdc.compare import run_compare
from fdc.galois_roots import (
    HoweFiltration,
    OrbitInfo,
    TorusLatticeData,
)
from fdc.qexact import Frozen, PrimePower, QMonomial, Value, exp_q, qmon
from fdc.scenario import Scenario, generator_templates, load_scenario

SCEN_DIR = os.path.join(os.path.dirname(__file__), "..", "src", "fdc", "scenarios")
BUNDLED = sorted(fn[:-5] for fn in os.listdir(SCEN_DIR) if fn.endswith(".json"))

# Each scenario loaded twice: equal records that are distinct objects.
SCENARIOS = [load_scenario(os.path.join(SCEN_DIR, name + ".json"))
             for name in BUNDLED for _ in range(2)]


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def frozen_records():
    """One instance of every frozen record class of the package."""
    scen = next(s for s in SCENARIOS if s.chi is not None)
    report = run_compare(scen)
    frame, datum = scen.frame, scen.datum
    base = BaseChange(scen.chi, datum, frame, scen.orbits)
    return [
        scen.pp, report.value_automorphic, frame, datum,
        scen.orbits[0], scen.filtration, scen.torus, base.top[0],
        scen.depth_zero, scen.jumps, report.galois.toral, report.galois.root, report.galois,
        generator_templates()[0],
    ]


def test_every_frozen_record_is_covered():
    assert {type(r) for r in frozen_records()} == set(_subclasses(Frozen)) - {Value}


@pytest.mark.parametrize("record", frozen_records(), ids=lambda r: type(r).__name__)
def test_frozen_record_refuses_assignment(record):
    for name in type(record).__slots__:
        value = getattr(record, name)
        with pytest.raises(AttributeError):
            setattr(record, name, value)
        with pytest.raises(AttributeError):
            delattr(record, name)
        assert getattr(record, name) is value
    with pytest.raises(AttributeError):
        record.extra = 1
    assert not hasattr(record, "__dict__")


def test_mutable_records_have_slots_except_scenario():
    """Scenario keeps an instance dict for its cached torus data."""
    scen = next(s for s in SCENARIOS if s.chi is not None)
    report = run_compare(scen)
    base = BaseChange(scen.chi, scen.datum, scen.frame, scen.orbits)
    for record in (scen.chi, base.choices, report):
        assert not hasattr(record, "__dict__")
    assert isinstance(scen, Scenario) and "torus" in vars(scen)


def value_pools():
    """Instances of every compared record class: equal pairs that are
    distinct objects, and unequal ones."""
    pp3, pp9, pp5 = PrimePower(3, 1), PrimePower(3, 2), PrimePower(5, 1)
    return {
        PrimePower: [pp3, PrimePower(3, 1), pp9, pp5, PrimePower(5, 1)],
        QMonomial: [exp_q(1, pp3), exp_q(1, PrimePower(3, 1)), exp_q(2, pp3), exp_q(1, pp9),
                    qmon(pp3, 2, 1), qmon(pp3, 2, 1), qmon(pp5, 2, 1), qmon(pp3, -2, 1)],
        OrbitInfo: [o for s in SCENARIOS for o in s.orbits],
        HoweFiltration: [s.filtration for s in SCENARIOS],
        TorusLatticeData: [s.torus for s in SCENARIOS] + [s.with_q(PrimePower(7, 1)).torus
                                                          for s in SCENARIOS[:2]],
    }


def test_compared_records_are_the_values():
    assert set(_subclasses(Value)) == set(value_pools())


@pytest.mark.parametrize("cls", list(value_pools()), ids=lambda c: c.__name__)
def test_value_equality_and_hash_match_a_frozen_dataclass(cls):
    reference = dataclasses.make_dataclass(cls.__name__, cls.__slots__, frozen=True)

    def ref(record):
        return reference(*(getattr(record, name) for name in cls.__slots__))

    pool = value_pools()[cls]
    equal_pairs = 0
    for x, y in itertools.product(pool, repeat=2):
        assert (x == y) is (ref(x) == ref(y))
        assert (x != y) is (ref(x) != ref(y))
        equal_pairs += x is not y and x == y
    assert equal_pairs and any(x != y for x, y in itertools.product(pool, repeat=2))
    for x in pool:
        assert hash(x) == hash(ref(x))
        assert x != ref(x) and x != tuple(getattr(x, n) for n in cls.__slots__)
