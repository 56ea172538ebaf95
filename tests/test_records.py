"""The records whose constructor checks or normalises its fields: every
way the type offers to build one runs the check, as RamProfile's sort
does (tests/test_covergraphs.py::test_ram_profile)."""

import copy
import pickle
from fractions import Fraction

import pytest

from orbiquint.classify import ClassifyError, StableCurveDesc, VertexDesc
from orbiquint.orbiscroll import CQSData
from orbiquint.parity import ParityError, SectionClass
from orbiquint.recillas import Perm, PermError
from orbiquint.resolve import Chain, CurveConfig, Edge, ResolveError, Role, Vertex

_A, _B = Vertex("a", -1, Role.FIBER), Vertex("b", 0, Role.MAIN)
_GENUS_1 = VertexDesc(1)

# type: (fields it is built from, what every path must give, fields it
# refuses, the error it raises)
_CHECKED = {
    CQSData: ((3, 5), lambda c: (c.r, c.q, c.smooth), (3, 2, False), (0, 1), ValueError),
    SectionClass: (
        ([1, "1/2", Fraction(1, 2)],), lambda s: (s.pieces, s.total, "total" in repr(s)),
        ((1, Fraction(1, 2), Fraction(1, 2)), 2, False), ([Fraction(1, 3)],), ParityError),
    Perm: (([2, 1, 3, 4],), lambda p: (p.images, str(p)), ((2, 1, 3, 4), "(1 2)"),
           ((1, 1, 3, 4),), PermError),
    Chain: (((2, 3),), lambda c: c.ints, (2, 3), ((2, 1),), ResolveError),
    StableCurveDesc: (
        ((_GENUS_1,) * 2, ((0, 1),)), lambda d: (d.vertices, d.edges),
        ((_GENUS_1,) * 2, ((0, 1),)), ((_GENUS_1,) * 3, ((0, 1, 2), (0, 1))), ClassifyError),
    CurveConfig: (
        ([_A, _B], [Edge("a", "b", 2)]), lambda c: (c.vertices, c.edges),
        ([_A, _B], [Edge("a", "b", 2)]), ([_A, _A], []), ResolveError),
}


def _forged(cls, fields):
    """An instance holding fields its constructor refuses, built past the
    constructor, as a stand-in for a copy or pickle of a bad record."""
    if issubclass(cls, tuple):
        return tuple.__new__(cls, fields)
    record = object.__new__(cls)
    for name, value in zip(cls.__slots__, fields):
        setattr(record, name, value)
    return record


@pytest.mark.parametrize("cls", list(_CHECKED), ids=lambda cls: cls.__name__)
def test_checked_record_construction_paths(cls):
    good, view, want, bad, error = _CHECKED[cls]
    record = cls(*good)
    made = [record, copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))]
    if hasattr(cls, "_make"):
        made.append(cls._make(good))
    if hasattr(cls, "_replace"):
        made.append(record._replace(**dict(zip(cls._fields, good))))
    assert [(type(r), view(r)) for r in made] == [(cls, want)] * len(made)

    attempts = [lambda: cls(*bad)]
    attempts += [lambda f=f: f(_forged(cls, bad)) for f in
                 (copy.copy, copy.deepcopy, lambda r: pickle.loads(pickle.dumps(r)))]
    if hasattr(cls, "_make"):
        attempts.append(lambda: cls._make(bad))
    if hasattr(cls, "_replace"):
        attempts.append(lambda: record._replace(**dict(zip(cls._fields, bad))))
    for attempt in attempts:
        with pytest.raises(error):
            attempt()
