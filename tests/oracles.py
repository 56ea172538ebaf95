"""Oracles shared by the test files: models the acceptance criteria state
that the package itself does not need.

The parity bit of a limiting theta characteristic (criterion 10): a
two-torsion twist at a pair of points flips it, normalizing an orbinode
whose automorphism acts nontrivially keeps it.  The package decides
parities from section classes instead (``parity.section_parity``).

The 24 elements of S4, D4 = Stab({{1,2},{3,4}}) inside S4 and its block
swap (criterion 7).

The cycle-notation pattern ``recillas.parse_perm`` used before its
separator was rewritten to backtrack in linear time; the two must accept
the same strings.

The 13 diagram items as the paper draws them, which
``classify.diagram_items`` derives from Table 1, and the Fraction route to
where the main curve meets the central fiber, which the package reads in
integers (``classify._main_curve_contacts``).

The isomorphism test of curve configurations as first written, which
``resolve.config_isomorphic`` must agree with: every bijection of vertex
ids, each image vertex found by a scan of the vertex list.

The one-node degree splits of shapes I-III (criterion 4), read off the
one-node types the enumerator builds.
"""

import itertools
from fractions import Fraction
from math import floor

from orbiquint.classify import ClassifyError, node_cycle_type
from orbiquint.covergraphs import BaseShape, ShapeError, _one_node_types
from orbiquint.parity import ParityError
from orbiquint.recillas import Perm, PermError
from orbiquint.resolve import CurveConfig, DiagramItem, Vertex, hj_expand


class ParityState:
    """h^0 mod 2 of a limiting theta characteristic."""

    __slots__ = ("h0_mod2",)

    def __init__(self, h0_mod2: int = 0):
        if h0_mod2 not in (0, 1):
            raise ParityError("h0_mod2 must be a bit")
        self.h0_mod2 = h0_mod2


def epsilon_twist(state: ParityState) -> ParityState:
    """Twist by a two-torsion bundle supported at a pair of points: h^0
    changes by exactly one."""
    return ParityState(1 - state.h0_mod2)


def orbinode_normalize(state: ParityState) -> ParityState:
    """Push forward through the normalization of an orbinode whose
    automorphism acts nontrivially: h^0 is unchanged."""
    return ParityState(state.h0_mod2)


def s4_elements() -> list[Perm]:
    return [Perm(p) for p in itertools.permutations(range(1, 5))]


_BLOCKS = ({1, 2}, {3, 4})


def d4_elements() -> list[Perm]:
    """The elements of S4 that map the block {1,2} onto a block."""
    return [s for s in s4_elements() if {s(1), s(2)} in _BLOCKS]


def blocks_swapped(pi: Perm) -> bool:
    """Whether pi in D4 exchanges the blocks {1,2} and {3,4}."""
    if pi.n != 4 or {pi(1), pi(2)} not in _BLOCKS:
        raise PermError("blocks_swapped needs an element of D4 = Stab({{1,2},{3,4}})")
    return {pi(1), pi(2)} == {3, 4}


# The separator's three parts overlap on whitespace, so a refused string
# with a long run of it backtracks in quadratic time.
CYCLE_NOTATION_REFERENCE = r"(\(\s*\d+(\s*[,\s]\s*\d+)*\s*\))+"


# Each item's (r, a) and the points where the main curve meets the central
# fiber, in the order the diagrams list them.
RECORDED_DIAGRAM_ITEMS = {
    1: DiagramItem(2, Fraction(1, 2), (("F", 1), ("F", 1))),
    2: DiagramItem(2, Fraction(1, 2), (("s1", 1), ("F", 1), ("t1", 1))),
    3: DiagramItem(2, Fraction(1, 2), (("sigma", 1), ("F", 1), ("F", 1))),
    4: DiagramItem(2, Fraction(1, 2), (("s1", 1), ("F", 1), ("t1", 1), ("sigma", 1))),
    5: DiagramItem(3, Fraction(1, 3), (("s1", 1), ("F", 1))),
    6: DiagramItem(3, Fraction(1, 3), (("sigma", 1), ("F", 1), ("t1", 1))),
    7: DiagramItem(3, Fraction(2, 3), (("F", 1), ("t2", 1))),
    8: DiagramItem(3, Fraction(2, 3), (("s1", 1), ("F", 1))),
    9: DiagramItem(4, Fraction(1, 4), (("sigma", 1), ("F", 1))),
    10: DiagramItem(4, Fraction(3, 4), (("F", 1),)),
    11: DiagramItem(2, Fraction(3, 2), (("F", 1), ("t1", 1))),
    12: DiagramItem(3, Fraction(4, 3), (("F", 1),)),
    13: DiagramItem(3, Fraction(5, 3), (("F", 1),)),
}


def fraction_main_curve_contacts(r, a, m, disc, b):
    """Where the main curve C of the component (r, a, m, disc, b) meets the
    resolved central fiber, with C.sigma = m - 4a (0 on the residual of a
    disc component) as a Fraction; classify._main_curve_contacts reads the
    same rule in integers."""
    c_sigma = Fraction(0) if disc else m - 4 * a
    cycle = node_cycle_type(r, b, 3 if disc else 4)
    on_s1 = c_sigma.denominator > 1
    at_tau = cycle.count(1) - on_s1
    if at_tau not in (0, 1) or c_sigma < 0:
        raise ClassifyError(f"r={r}, a={a}, m={m}: C.sigma = {c_sigma}, "
                            f"{at_tau} fixed sheets at tau(0)")
    last_t = f"t{len(hj_expand(r, int(r * a) % r).ints)}"
    return tuple([("sigma", 1)] * floor(c_sigma) + [("s1", 1)] * on_s1
                 + [("F", 1)] * cycle.count(r) + [(last_t, 1)] * at_tau)


def config_vertex(c: CurveConfig, vid: str) -> Vertex:
    """The vertex of c with id vid, by a scan of the vertex list."""
    return next(v for v in c.vertices if v.id == vid)


def brute_config_isomorphic(c1: CurveConfig, c2: CurveConfig) -> bool:
    """Whether some bijection of vertex ids carries c1 onto c2, matching
    roles, self-intersections and the multiset of (edge ends,
    multiplicity)."""
    if len(c1.vertices) != len(c2.vertices) or len(c1.edges) != len(c2.edges):
        return False

    def sig(v: Vertex) -> tuple:
        return (v.role.value, v.self_int)

    if sorted(map(sig, c1.vertices)) != sorted(map(sig, c2.vertices)):
        return False

    def edge_multiset(c: CurveConfig, mapping: dict) -> list:
        return sorted(
            (*sorted((mapping.get(e.v, e.v), mapping.get(e.w, e.w))), e.mult)
            for e in c.edges
        )

    target = edge_multiset(c2, {})
    ids2 = [v.id for v in c2.vertices]
    for perm in itertools.permutations(ids2):
        mapping = {}
        ok = True
        for v1, id2 in zip(c1.vertices, perm):
            if sig(v1) != sig(config_vertex(c2, id2)):
                ok = False
                break
            mapping[v1.id] = id2
        if ok and edge_multiset(c1, mapping) == target:
            return True
    return False


def degree_splits(shape: BaseShape, total_degree: int) -> list[tuple[int, int]]:
    """Unordered two-component main degree splits for shapes I-III, as
    ``covergraphs._one_node_types`` derives them, less the recorded
    exclusions."""
    if shape is BaseShape.IV:
        raise ShapeError("degree_splits applies to shapes I-III")
    return [split for s, split, _ in _one_node_types(total_degree) if s is shape]
