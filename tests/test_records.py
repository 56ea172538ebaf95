"""The records whose constructor checks or normalises its fields: every
way the type offers to build one runs the check, as RamProfile's sort
does (tests/test_covergraphs.py::test_ram_profile)."""

import copy
import pickle
from fractions import Fraction

import pytest

import orbiquint
from orbiquint import classify, covergraphs, orbiscroll, recillas
from orbiquint.classify import ClassifyError, StableCurveDesc, VertexDesc
from orbiquint.orbiscroll import CQSData
from orbiquint.parity import ParityError, SectionClass
from orbiquint.recillas import Perm, PermError
from orbiquint.resolve import Chain, CurveConfig, Edge, ResolveError, Role, Vertex, hj_expand

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


@pytest.mark.parametrize("cls", list(_CHECKED), ids=lambda cls: cls.__name__)
def test_checked_record_construction_paths(cls):
    good, view, want, bad, error = _CHECKED[cls]
    record = cls(*good)
    made = [record, copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record)),
            cls._make(good), record._replace(**dict(zip(cls._fields, good)))]
    assert [(type(r), view(r)) for r in made] == [(cls, want)] * len(made)

    attempts = [lambda: cls(*bad), lambda: cls._make(bad),
                lambda: record._replace(**dict(zip(cls._fields, bad)))]
    # a record built past its constructor, holding the refused fields,
    # stands in for a copy or pickle of a bad record
    attempts += [lambda f=f: f(tuple.__new__(cls, bad)) for f in
                 (copy.copy, copy.deepcopy, lambda r: pickle.loads(pickle.dumps(r)))]
    for attempt in attempts:
        with pytest.raises(error):
            attempt()


def _tuple_records() -> list[tuple]:
    """One instance of each tuple record class of the package, read off
    what the package computes."""
    rows = classify.table1()
    models = classify.local_models()
    entry = models["c2"][2][0]
    family = covergraphs.enumerate_boundary_types(3)[0]
    graph = family.graphs[0]
    sigma = Perm.from_cycles([(1, 2, 3)])
    item = classify.diagram_items(rows)[1]
    config = item.contract()
    singularities = orbiscroll.coarse_singularities(5, "2/5")
    return [
        rows[0], classify.THEOREM_DESCRIPTIONS[4], classify.THEOREM_DESCRIPTIONS[4].vertices[0],
        classify.theorem_divisors(rows, models)[0], entry, entry.components[0],
        entry.provenance, classify.TABLE2_ROWS[0],
        family, graph, graph.components[0], graph.node_edges[0], graph.components[0].profiles[0][1],
        orbiscroll.tetragonal_branch_relation(Fraction(1, 3), 6), singularities,
        singularities.at_sigma,
        sigma, recillas.fix_counts(sigma), recillas.tetragonal_to_trigonal([sigma]),
        hj_expand(7, 3), item, SectionClass([1, "1/2", "1/2"]),
        config, config.vertices[0], config.edges[0],
    ]


def test_tuple_records_copy_and_pickle():
    # every tuple record class of the package comes back from copy,
    # deepcopy and pickle as an equal instance of its class, and holds no
    # __dict__: a subclass of a namedtuple base that leaves out
    # __slots__ = () gains one
    records = _tuple_records()
    classes = {obj for name in orbiquint.__all__ if name != "__version__"
               for obj in vars(getattr(orbiquint, name)).values()
               if isinstance(obj, type) and issubclass(obj, tuple)
               and obj.__module__.startswith("orbiquint.")}
    assert sorted(map(repr, {type(r) for r in records})) == sorted(map(repr, classes))
    for record in records:
        made = [copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))]
        assert [(type(r), r) for r in made] == [(type(record), record)] * 3
        assert not hasattr(record, "__dict__"), type(record)
