"""Value semantics of every record class of wfci: equality, hashing,
immutability, repr, constructor validation and pickling."""

import importlib
import inspect
import pickle
from fractions import Fraction

import pytest

from wfci.cylinder import (ChangeOp, CylinderVerdict, HypersurfaceCylinder,
                           LinearCone, NormalFormResult, Projection, TableNonCyl)
from wfci.poly import Coeff, GradedPolynomial
from wfci.search import CandidateRecord, SearchConfig
from wfci.tables import FamilyRow, VerifyReport, Violation
from wfci.wci import AdjunctionData, QsVerdict, SubsetWitness, WciDescriptor
from wfci.wps import (ChartDescription, NormalizationTrace, SingularStratum,
                      WeightVector, WpsChart)

F = Fraction


def _poly():
    return GradedPolynomial((1, 1, 2), 2, {(2, 0, 0): 1, (0, 0, 1): F(1, 2)})


def _chart():
    return ChartDescription((1, 2, 3), (0,), ((1, 0, 0), (0, 1, 0), (0, 0, 1)), 0, 2)


def _trace():
    return NormalizationTrace(WeightVector((2, 4, 6)), 2, (1, 1, 1), (1, 1, 1),
                              (1, 2, 3), WeightVector((1, 2, 3)))


def _verdict():
    return CylinderVerdict("Cylindrical", Projection((0,), ((3,),)), ("cite",), True,
                           ("note",), {"linear_cone": False}, ("T1", 4, 2))


# Projection, one sample per JSON kind it emits (c = 1, 2, 3)
PROJECTIONS = {
    "SumOfTwoWeights": lambda: Projection((1,), ((3,),)),
    "Codim2Projection": lambda: Projection((0, 1), ((2, 3), (4, 5))),
    "CodimCGeneralized": lambda: Projection((0, 1, 2), ((3, 4, 5), (6, 7, 8), (9, 10, 11))),
}
# One sample per record class; each call builds a new, equal instance.
SAMPLES = {
    WeightVector: lambda: WeightVector((3, 1, 2)),
    NormalizationTrace: _trace,
    SingularStratum: lambda: SingularStratum(frozenset({1, 2}), 2),
    ChartDescription: _chart,
    WciDescriptor: lambda: WciDescriptor(WeightVector((1, 1, 2, 3)), (6,)),
    SubsetWitness: lambda: SubsetWitness((0, 1), "partner", ((1, 1, 0, 1),),
                                         ((3, (1, 0, 0, 1)),)),
    QsVerdict: lambda: QsVerdict(False, (SubsetWitness((0,), "pure", ((6, 0, 0, 0),)),),
                                 (2, 3)),
    AdjunctionData: lambda: AdjunctionData(-1, "Fano", 1),
    Coeff: lambda: Coeff(F(1, 2), F(3), 5),
    SearchConfig: lambda: SearchConfig(2, 1, 9, 1, "Fano", False),
    CandidateRecord: lambda: CandidateRecord(WciDescriptor(WeightVector((1, 1, 2, 3)), (6,)),
                                             _verdict()),
    FamilyRow: lambda: FamilyRow("T1", 4, (0, 1), (1, 2), (2,), (3,), "k=1"),
    Violation: lambda: Violation("T1", 11, 3, "ambient not well-formed"),
    VerifyReport: lambda: VerifyReport(5, (Violation("T2", 1, None, "reason"),)),
    Projection: PROJECTIONS["Codim2Projection"],
    TableNonCyl: lambda: TableNonCyl("T2", 7, None),
    WpsChart: lambda: WpsChart(_trace(), _chart(), ((0, F(3, 2)), (1, F(3, 2)))),
    LinearCone: lambda: LinearCone(0, 3, (1, 1, 2), (2,), Projection((0,), ((1,),))),
    CylinderVerdict: _verdict,
    ChangeOp: lambda: ChangeOp("substitute", 2, _poly(), Coeff(F(-1))),
    NormalFormResult: lambda: NormalFormResult(
        (0, 1), (1, 0), (ChangeOp("scale", factor=Coeff(F(2))),), _poly(), _poly(), 5),
    HypersurfaceCylinder: lambda: HypersurfaceCylinder((0, 3), 0, 3, (1, 2, 3), _chart(),
                                                       (0,), ((0, F(6)),)),
}
# CylinderVerdict holds a dict of flags, CandidateRecord such a verdict
HOLDS_DICT = {CylinderVerdict, CandidateRecord}
# classes in wfci modules that are not records
NOT_RECORDS = {"GradedPolynomial", "_Terms", "_ReportEncoder", "_Progressions", "_GcdRows"}
# (class, sample) per case, named by the class, and Projection's by JSON kind
CASES = {**{cls.__name__: (cls, make) for cls, make in SAMPLES.items()
            if cls is not Projection},
         **{kind: (Projection, make) for kind, make in PROJECTIONS.items()}}
RECORDS = sorted(CASES.items())


def each_case(exclude=()):
    """Parametrize over the cases (cls, make) whose class is not in `exclude`."""
    cases = [(name, case) for name, case in RECORDS if case[0] not in exclude]
    return pytest.mark.parametrize("cls, make", [case for _, case in cases],
                                   ids=[name for name, _ in cases])


def _fields(cls):
    return tuple(inspect.signature(cls).parameters)


def test_samples_cover_every_record_class():
    found = set()
    for name in ("cli", "cylinder", "poly", "search", "tables", "wci", "wps"):
        module = importlib.import_module(f"wfci.{name}")
        found |= {cls for cls in vars(module).values()
                  if isinstance(cls, type) and cls.__module__ == module.__name__
                  and not issubclass(cls, Exception) and cls.__name__ not in NOT_RECORDS}
    assert found == set(SAMPLES)
    assert len(found) == 22


def test_projection_json_kind_follows_the_codimension():
    assert PROJECTIONS["SumOfTwoWeights"]().to_json() == \
        {"kind": "SumOfTwoWeights", "i": 1, "j": 3}
    for kind in ("Codim2Projection", "CodimCGeneralized"):
        p = PROJECTIONS[kind]()
        assert p.to_json() == {"kind": kind, "pivots": list(p.pivots),
                               "partners": [list(row) for row in p.partners]}


@each_case()
def test_equal_fields_compare_and_hash_equal(cls, make):
    a, b = make(), make()
    assert a is not b and a == b and not a != b
    assert tuple(vars(a)) == _fields(cls)
    assert a.__eq__(object()) is NotImplemented and a != (a,)
    if cls not in HOLDS_DICT:
        assert hash(a) == hash(b) == hash(tuple(vars(a).values()))


@each_case(exclude={WeightVector, WciDescriptor, Coeff, SearchConfig})
def test_each_field_takes_part_in_equality(cls, make):
    a = make()
    for name in _fields(cls):
        if name == "table_hit":
            continue
        other = cls(**{**vars(a), name: object()})
        assert other != a and a != other


def test_verdicts_differing_only_in_table_hit_are_equal():
    a = _verdict()
    b = CylinderVerdict(a.status, a.certificate, a.citations,
                        a.conjectural_prediction, a.notes, dict(a.flags), None)
    assert a == b and a.table_hit != b.table_hit
    assert a != CylinderVerdict(a.status, a.certificate, a.citations,
                                a.conjectural_prediction, a.notes, {}, a.table_hit)
    assert CylinderVerdict("Unknown", None).flags == {}
    assert CylinderVerdict("Unknown", None).flags is not CylinderVerdict("Unknown", None).flags


@each_case()
def test_frozen_records_refuse_assignment_and_deletion(cls, make):
    a = make()
    before = dict(vars(a))
    for name in _fields(cls) + ("extra",):
        with pytest.raises(AttributeError):
            setattr(a, name, None)
        if name != "extra":
            with pytest.raises(AttributeError):
                delattr(a, name)
    assert vars(a) == before


@each_case()
def test_repr_names_every_field(cls, make):
    a = make()
    fields = ", ".join(f"{name}={getattr(a, name)!r}" for name in _fields(cls))
    assert repr(a) == f"{cls.__qualname__}({fields})"


def test_repr_examples():
    assert repr(SingularStratum(frozenset({1, 2}), 2)) == \
        "SingularStratum(indices=frozenset({1, 2}), stratum_gcd=2)"
    assert repr(Coeff(F(1, 2))) == "Coeff(base=Fraction(1, 2), rad=Fraction(0, 1), m=1)"
    assert repr(Violation("T1", 3, None, "r")) == \
        "Violation(table_id='T1', row_id=3, n=None, reason='r')"


@each_case()
def test_pickle_round_trips(cls, make):
    a = make()
    b = pickle.loads(pickle.dumps(a))
    assert type(b) is cls and b == a and vars(b) == vars(a)
    with pytest.raises(AttributeError):
        setattr(b, _fields(cls)[0], None)


def test_constructors_normalize():
    assert WeightVector((3, 1, 2)).weights == (1, 2, 3)
    d = WciDescriptor((3, 1, 1, 2, 1), [4, 3])
    assert d.ambient == WeightVector((1, 1, 1, 2, 3)) and d.multidegree == (3, 4)
    assert Coeff(F(2), F(3), 1) == Coeff(F(5))        # sqrt(1) collapses
    assert Coeff(F(2), F(0), 7).m == 1                # no radical, no radicand
    assert Coeff(F(2), F(3), 7).m == 7
    assert SearchConfig(2, 1, 5).exclude_linear_cones is True


@pytest.mark.parametrize("build", [
    lambda: WeightVector((4,)),
    lambda: WeightVector((0, 1)),
    lambda: WciDescriptor((1, 1, 2), ()),
    lambda: WciDescriptor((1, 1, 2), (0,)),
    lambda: WciDescriptor((1, 1, 2), (2, 2)),         # codimension 2 > n - 1
    lambda: SearchConfig(0, 1, 5),
    lambda: SearchConfig(2, 3, 5),
    lambda: SearchConfig(2, 1, 0),
    lambda: SearchConfig(2, 1, 5, index_filter=0),
])
def test_constructors_reject(build):
    with pytest.raises(ValueError):
        build()
