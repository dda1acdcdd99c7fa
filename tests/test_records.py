"""The package's frozen records behave like the frozen dataclasses they
replace: each is checked against a reference built by
dataclasses.make_dataclass from the same fields, hidden fields and defaults."""

import dataclasses

import pytest

from weilsf import (GeometricDecomposition, IsogenyFactorization, MomentReport,
                    NewtonPolygonData, Partial, RelationLattice, RootSystem,
                    SerreFrobeniusGroup, SupersingularMatch, TraceHistogram,
                    WeilPolynomial)
from weilsf._intpoly import Record

RECORDS = [WeilPolynomial, RootSystem, NewtonPolygonData, IsogenyFactorization,
           SupersingularMatch, RelationLattice, SerreFrobeniusGroup, Partial,
           GeometricDecomposition, TraceHistogram, MomentReport]


def _reference(cls):
    """The frozen dataclass with the fields, hidden fields and defaults of cls."""
    spec = []
    for name in cls.__annotations__:
        opts = {"compare": False, "repr": False} if name in cls._hidden else {}
        if name in vars(cls):
            opts["default"] = vars(cls)[name]
        spec.append((name, object, dataclasses.field(**opts)))
    return dataclasses.make_dataclass(cls.__name__, spec, frozen=True)


def _values(cls):
    # distinct and hashable, with nested tuples and strings in the repr
    return {name: (i, "v%d" % i, (i,)) for i, name in enumerate(cls.__annotations__)}


def test_all_records_are_covered():
    package = {c for c in Record.__subclasses__()
               if c.__module__.startswith("weilsf.")}
    assert package == set(RECORDS)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_record_matches_the_dataclass(cls):
    ref = _reference(cls)
    values = _values(cls)
    rec, want = cls(**values), ref(**values)
    assert repr(rec) == repr(want)
    assert hash(rec) == hash(want)
    assert cls(*values.values()) == rec
    assert vars(rec) == dataclasses.asdict(want)
    # change one field at a time: a shown field breaks equality, a hidden
    # field does not, exactly as for the dataclass
    for name in values:
        other = dict(values, **{name: ("other",)})
        assert (cls(**other) == rec) == (ref(**other) == want)
        assert (hash(cls(**other)) == hash(rec)) == (hash(ref(**other)) == hash(want))
        assert repr(cls(**other)) == repr(ref(**other))
    for name in ("g", *values):
        with pytest.raises(AttributeError):
            setattr(rec, name, 1)
        with pytest.raises(AttributeError):
            delattr(rec, name)
    assert vars(rec) == dataclasses.asdict(want)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_record_refuses_bad_arguments(cls):
    ref = _reference(cls)
    values = _values(cls)
    required = [n for n in values if n not in vars(cls)]
    for name in required:
        partial = {k: v for k, v in values.items() if k != name}
        for make in (cls, ref):
            with pytest.raises(TypeError):
                make(**partial)
            # as many keywords as fields, one of them unknown
            with pytest.raises(TypeError, match="unexpected keyword argument 'no_such_field'"):
                make(**partial, no_such_field=1)
    for make in (cls, ref):
        with pytest.raises(TypeError):
            make(**values, no_such_field=1)
        with pytest.raises(TypeError):
            make(*values.values(), 1)
        with pytest.raises(TypeError):
            make(list(values.values())[0], **values)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_records_of_different_types_differ(cls):
    twin = type(cls.__name__, (Record,), {
        "__annotations__": dict(cls.__annotations__), "_hidden": cls._hidden})
    values = _values(cls)
    rec, other = cls(**values), twin(**values)
    assert repr(rec) == repr(other) and hash(rec) == hash(other)
    assert rec != other and not rec == other
    assert rec.__eq__(other) is NotImplemented
    assert rec != tuple(values.values())


def test_defaults_and_hidden_fields():
    assert RelationLattice.basis == ()
    lat = RelationLattice(g=1, precision=64, relations=(), rank=0,
                          torsion_order=1, thetas=(0.25,))
    assert lat.basis == () and lat.thetas == (0.25,)
    assert repr(lat) == ("RelationLattice(g=1, precision=64, relations=(), "
                         "rank=0, torsion_order=1, basis=())")
    assert WeilPolynomial._hidden == ("h",)
    assert RelationLattice._hidden == ("thetas", "smith")
