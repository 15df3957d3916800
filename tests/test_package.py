import math
import types
from fractions import Fraction

import pytest

import graphconvex
from graphconvex import (
    ClaimReport,
    ConvexityWitness,
    LatticeSpec,
    MeanComparison,
    MidpointVerdict,
    MidpointWitness,
    NearestNeighborVerdict,
    NearestNeighborWitness,
    SearchWitness,
    cycle,
)


def test_all_lists_public_names_and_no_modules():
    assert len(set(graphconvex.__all__)) == len(graphconvex.__all__)
    for name in graphconvex.__all__:
        value = getattr(graphconvex, name)
        assert not isinstance(value, types.ModuleType), name
    namespace = {}
    exec("from graphconvex import *", namespace)
    assert "theorems" not in namespace and "lattice" not in namespace
    assert {"Graph", "is_midpoint_convex_at", "verify_degree2_equivalence"} <= set(namespace)


# Per record: its fields, its repr, one field changed, and the defaults.
RECORDS = [
    (ConvexityWitness, {"x": 1, "y": 3, "lhs": 2, "rhs": Fraction(3, 2)},
     "ConvexityWitness(x=1, y=3, lhs=2, rhs=Fraction(3, 2))", {"x": 3}, {}),
    (MeanComparison, {"vertex": (1, 1), "f_value": 2, "neighborhood_mean": Fraction(5, 4),
                         "total_weight": 4, "verdict": "neither"},
     "MeanComparison(vertex=(1, 1), f_value=2, neighborhood_mean=Fraction(5, 4), "
     "total_weight=4, verdict='neither')", {"verdict": "harmonic"}, {}),
    (MidpointWitness, {"z": (1, 0), "lhs": 4, "rhs": 3},
     "MidpointWitness(z=(1, 0), lhs=4, rhs=3)", {"z": (0, 1)}, {}),
    (MidpointVerdict, {"ok": False, "vertex": (0, 0), "witness": MidpointWitness((1, 0), 4, 3)},
     "MidpointVerdict(ok=False, vertex=(0, 0), witness=MidpointWitness(z=(1, 0), lhs=4, rhs=3))",
     {"vertex": (1, 0)}, {"witness": None}),
    (NearestNeighborWitness, {"y1": (0,), "y2": (2,), "z": (1,)},
     "NearestNeighborWitness(y1=(0,), y2=(2,), z=(1,))", {"z": (3,)}, {}),
    (NearestNeighborVerdict, {"ok": False, "witness": NearestNeighborWitness((0,), (2,), (1,))},
     "NearestNeighborVerdict(ok=False, witness=NearestNeighborWitness(y1=(0,), y2=(2,), z=(1,)))",
     {"witness": NearestNeighborWitness((0,), (2,), (3,))}, {"witness": None}),
    (ClaimReport, {"claim": "thm1", "instance": "C4", "checked": 4, "hypothesis_fired": 3,
                      "verdict": "refuted", "witness": {"vertex": "2"}},
     "ClaimReport(claim='thm1', instance='C4', checked=4, hypothesis_fired=3, "
     "verdict='refuted', witness={'vertex': '2'})", {"checked": 5}, {"witness": None}),
    (SearchWitness, {"instance": "C4", "function": "f#0", "vertex": 2, "graph": cycle(4),
                        "values": {0: 1}, "detail": {"verdict": "neither"}},
     "SearchWitness(instance='C4', function='f#0', vertex=2, graph=Graph(vertices=4, edges=4), "
     "values={0: 1}, detail={'verdict': 'neither'})", {"values": {0: 2}}, {"detail": {}}),
    (LatticeSpec, {"dimension": 2, "norm": "L1", "radius": 1.5, "window": [[0, 3], [-1, 2]]},
     "LatticeSpec(dimension=2, norm='l1', radius=1.5, window=((0, 3), (-1, 2)))",
     {"norm": "linf"}, {}),
]


@pytest.mark.parametrize("cls, fields, text, change, defaults", RECORDS,
                         ids=[r[0].__name__ for r in RECORDS])
def test_records_keep_their_behaviour(cls, fields, text, change, defaults):
    record = cls(**fields)
    assert repr(record) == text
    assert record == cls(**fields) and record != cls(**{**fields, **change})
    for name in cls.__match_args__:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert repr(record) == text
    required = {name: value for name, value in fields.items() if name not in defaults}
    bare, again = cls(**required), cls(**required)
    assert {name: getattr(bare, name) for name in defaults} == defaults
    for name, default in defaults.items():
        if isinstance(default, dict):  # a new one per record
            assert getattr(bare, name) is not getattr(again, name)


@pytest.mark.parametrize("args, message", [
    ((0, "l1", 1, ()), "dimension must be at least 1"),
    ((1, "l7", 1, ((0, 1),)), "unknown norm 'l7'; expected one of ('l1', 'l2', 'linf')"),
    ((1, "l1", 0, ((0, 1),)), "radius must be positive and finite as a float, got 0"),
    ((1, "l1", math.inf, ((0, 1),)), "radius must be positive and finite as a float, got inf"),
    ((1, "l1", 10**400, ((0, 1),)), "radius must be positive and finite as a float, got 1000"),
    ((1, "l1", True, ((0, 1),)), "radius must be positive and finite as a float, got True"),
    ((1, "l1", "1", ((0, 1),)), "radius must be positive and finite as a float, got '1'"),
    ((2, "l1", 1, ((0, 1),)), "window must give one (lo, hi) range per dimension"),
    ((1, "l1", 1, ((3, 2),)), "empty window axis 3:2"),
    ((True, "l1", 1, ((0, 1),)), "dimension must be at least 1, as an int, got True"),
    ((1.0, "l1", 1, ((0, 1),)), "dimension must be at least 1, as an int, got 1.0"),
    ((1, 1, 1, ((0, 1),)), "unknown norm 1"),
    ((1, None, 1, ((0, 1),)), "unknown norm None"),
    ((1, "l1", 1, ((0, 2.7),)), "window bounds must be ints, got ((0, 2.7),)"),
    ((1, "l1", 1, (("0", 3),)), "window bounds must be ints, got (('0', 3),)"),
    ((1, "l1", 1, ((0, True),)), "window bounds must be ints, got ((0, True),)"),
])
def test_lattice_spec_rejects_bad_fields(args, message):
    with pytest.raises(ValueError) as info:
        LatticeSpec(*args)
    assert str(info.value).startswith(message)
