"""Assembly of the boundary-divisor classification.

Builds the 16-row table of one-node splittings (types 1-5), the
parameterized analyses of the one-tail types (6)-(8) with their local
model lists and combination tables, and the final list of 13 boundary
divisors, each validated by exact genus arithmetic.

Stable curves are compared in one way, by `match`, which returns the
theorem divisors whose description a curve fits; each description must
fit only itself.  The irreducible type (6) cases are mapped by it: the
hyperelliptic tail over an A_{i-1} point meets the main at a Weierstrass
point when i is odd (one branch) and at a conjugate pair when i is even
(two branches), and a tail of genus >= 3 is tagged hyperelliptic.
"""

from __future__ import annotations

import enum
import itertools
from collections import namedtuple
from fractions import Fraction
from math import gcd, lcm
from types import MappingProxyType
from typing import TYPE_CHECKING, Callable, Iterable, Mapping, Optional, Sequence

import orbiquint

from . import covergraphs
from .covergraphs import R_OPTIONS, rh_ramification, unreached
from .orbiscroll import (
    BranchRelation, adjunction_degree, frac, smooth_twist, tetragonal_branch_relation,
)
from .recillas import CYCLE_TYPES

if TYPE_CHECKING:
    from .parity import Parity
    from .resolve import AttachSpec, DiagramItem

# resolve and parity are read as attributes of the package (orbiquint.resolve,
# orbiquint.parity), which load them on first use (PEP 562): table1 loads
# neither, and no call runs an import statement.


class ClassifyError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Table 1: the one-node types (1)-(5)


# row, graph_type, r: int; v1, v2: Fraction, the signed bundle degree on
# each component; m1, m2: Fraction; g1, g2: int; disc1, disc2: bool, the
# component is the disjoint union of the directrix and a residual; b1, b2:
# int, the branch points on each component
Table1Row = namedtuple("Table1Row", "row graph_type r v1 v2 m1 m2 g1 g2 disc1 disc2 b1 b2")


def _branch_pairs() -> dict[int, tuple[int, int]]:
    """Branch-count pairs (b1, b2) per graph type (t), from the t-th
    one-node degree split of shapes I-III in order, all read from one
    run of ``_one_node_types``; the first component has more branch
    points."""
    return {t: (max(split), min(split))
            for t, (_, split, _) in enumerate(covergraphs._one_node_types(18), 1)}


def node_cycle_type(r: int, b: int, sheets: int = 4) -> tuple[int, ...]:
    """Cycle type of the node monodromy on the sheets over the node: the
    one cycle type of the order-r elements of S_sheets that makes the
    ramification b + sheets - orbits even, as an integral genus needs.
    At r = 2 on 4 sheets that parity chooses between (2,2) and (2,1,1)."""
    types = [t for t in CYCLE_TYPES[sheets].get(r, ()) if (b + sheets - len(t)) % 2 == 0]
    if len(types) != 1:
        raise ClassifyError(f"no node cycle type of order {r} on {sheets} letters "
                            f"gives an integral genus at b={b}")
    return types[0]


def _tetragonal_genus(ram: int | Fraction, where: str) -> int:
    """Genus g of a degree-4 cover of P^1 with total ramification ram, so
    that rh_ramification(4, g) = ram; it must be an integer >= -1."""
    two_g = ram - rh_ramification(4, 0)  # the kernel has slope 2 in g
    if two_g % 2:
        raise ClassifyError(f"non-integral genus for {where}")
    g = int(two_g) // 2
    if g < -1:
        raise ClassifyError(f"genus {g} < -1 for {where}")
    return g


def component_genus(r: int, b: int) -> int:
    """Genus of a tetragonal component with b branch points and an
    orbinode of order r: the ramification is b + (4 - orbits)."""
    return _tetragonal_genus(b + 4 - len(node_cycle_type(r, b)), f"r={r}, b={b}")


def component_genus_adjunction(r: int, m: Fraction, a: Fraction, b: int) -> int:
    """Same genus with the branch points counted by the relative dualizing
    sheaf of the curve in |4 sigma + m F|: deg omega = (n-1)(2m-an)."""
    ram = adjunction_degree(4, m, a) + 4 - len(node_cycle_type(r, b))
    return _tetragonal_genus(ram, f"r={r}, b={b}, a={a}, m={m} (adjunction route)")


def _smooth_twists(r: int, b: int) -> dict[int, BranchRelation]:
    """Branch relation of each nonnegative twist a = k/r with denominator
    exactly r that passes the smoothness criterion, keyed by k = r*a; the
    criterion is tested in integers, so only those relations are built."""
    return {k: tetragonal_branch_relation(Fraction(k, r), b)
            for k in range(r * b // 6 + 1) if gcd(k, r) == 1 and smooth_twist(k, r, b)}


def _twist_pairs(
    r: int, b1: int, b2: int
) -> list[tuple[int, int, BranchRelation, BranchRelation]]:
    """Signed numerators (k1, k2), sorted, of smooth twists v = k/r with
    |v1 + v2| = 1, i.e. k1 + k2 = +-r, with the relations of |k1| and |k2|.

    One pair per class under the overall sign: k1 >= 0, and k2 > 0 when
    k1 = 0.  When b1 = b2 the swap folds too, keeping the pair least
    under (|k1|, |k2|, k1, k2); that is the one with k1 <= |k2|, since
    |k1| = |k2| only for k1 = k2 = r/2.
    """
    tw1, tw2 = _smooth_twists(r, b1), _smooth_twists(r, b2)
    return [
        (k1, k2, rel1, tw2[abs(k2)])
        for k1, rel1 in tw1.items()
        for k2 in (-r - k1, r - k1)
        if abs(k2) in tw2 and (k1 > 0 or k2 > 0)
        and not (b1 == b2 and abs(k2) < k1)
    ]


def table1() -> list[Table1Row]:
    """The 16 possibilities for the one-node types (1)-(5).

    Each row's m and disc come from the branch relations that admitted
    its twists; Fractions v = k/r are built only for the rows.
    """
    rows: list[Table1Row] = []
    for t, (b1, b2) in _branch_pairs().items():
        for r in R_OPTIONS[t]:
            g1, g2 = component_genus(r, b1), component_genus(r, b2)
            for k1, k2, rel1, rel2 in _twist_pairs(r, b1, b2):
                rows.append(Table1Row(
                    len(rows) + 1, t, r, Fraction(k1, r), Fraction(k2, r),
                    rel1.m, rel2.m, g1, g2, rel1.disc, rel2.disc, b1, b2,
                ))
    return rows


def _main_curve_contacts(r: int, k: int, m_num: int, m_den: int, disc: bool,
                         b: int) -> AttachSpec:
    """Where the main curve C of a component with twist a = k/r and m =
    m_num/m_den meets the resolved central fiber, as DiagramItem.attach
    lists it.

    The node monodromy acts on C's sheets over the node: 4, or 3 on the
    residual of a disc component, which misses sigma.  C.sigma is m - 4a,
    or 0 on a residual, read in integers as n/d, and floor(C.sigma) points
    of C lie on sigma.  One fixed sheet sits at sigma(0), on s1, exactly
    when C.sigma is not an integer; each free orbit meets F once; a
    remaining fixed sheet sits at tau(0), on the last t.  More than one
    remaining fixed sheet, fewer than none, or a negative C.sigma is
    refused."""
    n, d = (0, 1) if disc else (m_num * r - 4 * k * m_den, m_den * r)
    cycle = node_cycle_type(r, b, 3 if disc else 4)
    on_s1 = n % d != 0
    at_tau = cycle.count(1) - on_s1
    if at_tau not in (0, 1) or n < 0:
        raise ClassifyError(f"r={r}, a={Fraction(k, r)}, m={Fraction(m_num, m_den)}: "
                            f"C.sigma = {Fraction(n, d)}, {at_tau} fixed sheets at tau(0)")
    last_t = f"t{len(orbiquint.resolve.hj_expand(r, k % r).ints)}"
    return tuple([("sigma", 1)] * (n // d) + [("s1", 1)] * on_s1
                 + [("F", 1)] * cycle.count(r) + [(last_t, 1)] * at_tau)


def diagram_items(rows: list[Table1Row]) -> dict[int, DiagramItem]:
    """The resolution-contraction diagram items: one per distinct Table 1
    component (r, a = |v|, m, disc, b) with non-integral a and genus 1 to
    5, numbered as in the paper, by (ceil(a), r, a, m).  Components are
    keyed in integers, by k = r*a and m's numerator and denominator; m is
    ordered by its numerator over the common denominator."""
    components = {
        (row.r, abs(v.numerator) * row.r // v.denominator, m.numerator, m.denominator, disc, b)
        for row in rows
        for v, m, g, disc, b in ((row.v1, row.m1, row.g1, row.disc1, row.b1),
                                 (row.v2, row.m2, row.g2, row.disc2, row.b2))
        if v.denominator > 1 and 1 <= g <= 5}
    den = lcm(*[c[3] for c in components])
    order = sorted(components, key=lambda c: (-(-c[1] // c[0]), c[0], c[1], c[2] * den // c[3],
                                              c[4], c[5]))
    return {n: orbiquint.resolve.DiagramItem(c[0], Fraction(c[1], c[0]), _main_curve_contacts(*c))
            for n, c in enumerate(order, 1)}


# ---------------------------------------------------------------------------
# Stable-curve descriptions and the 13 divisors


class Tag(enum.Enum):
    HYPERELLIPTIC = "Hyperelliptic"
    PLANE_QUARTIC = "PlaneQuartic"
    NODAL_PLANE_QUINTIC = "NodalPlaneQuintic"
    CUSPIDAL_QUINTIC_NORMALIZATION = "CuspidalQuinticNormalization"
    MARONI_SPECIAL = "MaroniSpecial"


class Mark(enum.Enum):
    WEIERSTRASS = "Weierstrass"
    HYP_CONJUGATE_PAIR = "HyperellipticConjugatePair"
    BITANGENT = "Bitangent"
    HYPERFLEX = "Hyperflex"
    G13_FIBER = "G13Fiber"
    G13_RAMIFICATION = "G13RamificationPoint"
    TANGENT_THIRD_POINT = "TangentLineThirdPoint"


# genus: int; tags: frozenset[Tag]; marks: frozenset[Mark]
VertexDesc = namedtuple("VertexDesc", "genus tags marks", defaults=(frozenset(), frozenset()))


class StableCurveDesc(namedtuple("StableCurveDesc", "vertices edges")):
    """A stable curve as its dual graph: one vertex per component, with
    its genus and what is known of its tags and marked points, and one
    edge per node as a pair of vertex indices; (i, i) is a loop, a node
    of component i with itself.  vertices: tuple[VertexDesc, ...];
    edges: tuple[tuple[int, int], ...]."""

    __slots__ = ()
    # namedtuple's _make, which _replace calls, would skip __new__'s check
    _make = classmethod(lambda cls, fields: cls(*fields))

    def __new__(cls, vertices: tuple[VertexDesc, ...],
                edges: tuple[tuple[int, int], ...]) -> StableCurveDesc:
        unpaired = [e for e in edges if len(e) != 2]
        if unpaired:
            raise ClassifyError(f"edges {unpaired} are not vertex pairs")
        phantom = [e for e in edges if not all(0 <= v < len(vertices) for v in e)]
        if phantom:
            raise ClassifyError(f"edges {phantom} name no vertex of {len(vertices)}")
        return super().__new__(cls, vertices, edges)


def arithmetic_genus(genera: Sequence[int], delta: int) -> int:
    """Arithmetic genus sum g + delta - |components| + 1 of a connected
    curve: its normalization has components of these genera, and delta is
    the total delta invariant (the node count of a nodal curve)."""
    return sum(genera) + delta - len(genera) + 1


def stable_pa(desc: StableCurveDesc) -> int:
    """Arithmetic genus of the nodal curve: sum g_v + |E| - |V| + 1."""
    if not desc.vertices or unreached(range(len(desc.vertices)), desc.edges):
        raise ClassifyError("disconnected stable curve")
    return arithmetic_genus([v.genus for v in desc.vertices], len(desc.edges))


def _v(genus, tags=(), marks=()):
    return VertexDesc(genus, frozenset(tags), frozenset(marks))


# The 13 boundary divisors, in the order of the main theorem, read-only:
# match searches them through an index built from this mapping at import.
# recorded: main theorem — the vertex tags and marks are geometry no code here computes
THEOREM_DESCRIPTIONS: Mapping[int, StableCurveDesc] = MappingProxyType({
    1: StableCurveDesc((_v(5, [Tag.NODAL_PLANE_QUINTIC]),), ((0, 0),)),
    2: StableCurveDesc((_v(5, [Tag.HYPERELLIPTIC]),), ((0, 0),)),
    3: StableCurveDesc(
        (_v(5, [Tag.CUSPIDAL_QUINTIC_NORMALIZATION]), _v(1)), ((0, 1),)
    ),
    4: StableCurveDesc(
        (_v(2, [], [Mark.WEIERSTRASS]),
         _v(4, [Tag.MARONI_SPECIAL], [Mark.G13_RAMIFICATION])),
        ((0, 1),),
    ),
    5: StableCurveDesc(
        (_v(3, [Tag.PLANE_QUARTIC], [Mark.BITANGENT]),
         _v(3, [Tag.HYPERELLIPTIC], [Mark.WEIERSTRASS])),
        ((0, 1),),
    ),
    6: StableCurveDesc(
        (_v(3, [Tag.PLANE_QUARTIC], [Mark.HYPERFLEX]), _v(3, [Tag.HYPERELLIPTIC])),
        ((0, 1),),
    ),
    7: StableCurveDesc(
        (_v(4, [Tag.HYPERELLIPTIC], [Mark.WEIERSTRASS]), _v(2)), ((0, 1),)
    ),
    8: StableCurveDesc((_v(1), _v(5, [Tag.HYPERELLIPTIC])), ((0, 1),)),
    9: StableCurveDesc(
        (_v(4, [Tag.MARONI_SPECIAL], [Mark.G13_FIBER]), _v(1)), ((0, 1), (0, 1))
    ),
    10: StableCurveDesc(
        (_v(3, [Tag.HYPERELLIPTIC]), _v(2, [], [Mark.WEIERSTRASS])),
        ((0, 1), (0, 1)),
    ),
    11: StableCurveDesc(
        (_v(2, [], [Mark.HYP_CONJUGATE_PAIR]),
         _v(3, [Tag.PLANE_QUARTIC], [Mark.TANGENT_THIRD_POINT])),
        ((0, 1), (0, 1)),
    ),
    12: StableCurveDesc(
        (_v(3, [Tag.HYPERELLIPTIC], [Mark.HYP_CONJUGATE_PAIR]), _v(2)),
        ((0, 1), (0, 1)),
    ),
    13: StableCurveDesc(
        (_v(3, [Tag.HYPERELLIPTIC]), _v(1)), ((0, 1), (0, 1), (0, 1))
    ),
})


def _shape(desc: StableCurveDesc) -> tuple[int, tuple[int, ...]]:
    """A curve's edge count and sorted genera: a fit keeps both."""
    return len(desc.edges), tuple(sorted([v.genus for v in desc.vertices]))


def _index_by_shape(descriptions: Mapping[int, StableCurveDesc]) -> dict[tuple, list[tuple]]:
    """The descriptions by shape, in ascending index order, each as its
    index, its vertices and its edges as sorted pairs, sorted."""
    by_shape: dict[tuple, list[tuple]] = {}
    for index, desc in sorted(descriptions.items()):
        by_shape.setdefault(_shape(desc), []).append(
            (index, desc.vertices, sorted([sorted(e) for e in desc.edges])))
    return by_shape


_THEOREM_BY_SHAPE = _index_by_shape(THEOREM_DESCRIPTIONS)


def match(curve: StableCurveDesc, main_lacks: frozenset[Tag] = frozenset()) -> list[int]:
    """Theorem indices, ascending, of the descriptions the curve fits.

    A fit is a bijection of vertices that keeps each genus, maps the
    curve's edge multiset onto the description's (loops included) and
    maps each vertex's tags and marks to a superset of them; the image of
    the curve's first vertex carries no tag in main_lacks.  Only the
    descriptions with the curve's edge count and sorted genera are
    searched, looked up in an index built once at import.
    """
    cv, ce = curve.vertices, curve.edges
    hits = []
    for index, verts, edges in _THEOREM_BY_SHAPE.get(_shape(curve), ()):
        for image in itertools.permutations(range(len(verts))):
            ws = [verts[k] for k in image]  # the image of each curve vertex
            if (all([v.genus == w.genus and v.tags <= w.tags and v.marks <= w.marks
                     for v, w in zip(cv, ws)])
                    and not (ws and ws[0].tags & main_lacks)
                    and sorted([sorted((image[a], image[b])) for a, b in ce]) == edges):
                hits.append(index)
                break
    return hits


# theorem_index: int; desc: StableCurveDesc; sources: tuple[str, ...]
DivisorRecord = namedtuple("DivisorRecord", "theorem_index desc sources")


def _records(pairs: Iterable[tuple[int, str]]) -> list[DivisorRecord]:
    """One record per theorem divisor named in the (theorem index, source)
    pairs, in theorem order, with its sources in the order given."""
    by_theorem: dict[int, list[str]] = {}
    for index, source in pairs:
        by_theorem.setdefault(index, []).append(source)
    return [
        DivisorRecord(index, THEOREM_DESCRIPTIONS[index], tuple(sources))
        for index, sources in sorted(by_theorem.items())
    ]


# ---------------------------------------------------------------------------
# Types (1)-(5): Table 1 rows to divisors

# Rows whose images have dimension at most 10.
# recorded: Table 1 discussion — prose dimension counts; every row's graph has moduli dimension 12
ROWS_LOW_DIMENSION = frozenset({2, 5, 6, 13, 14})

# Surviving rows to theorem divisors.
# recorded: Table 1 discussion — the genus-and-edge rule leaves rows 7, 8, 11, 12 ambiguous
ROW_TO_THEOREM = {1: 13, 3: 9, 4: 9, 7: 6, 8: 1, 11: 6, 12: 10}


def classify_type_1_5(rows: list[Table1Row]) -> list[DivisorRecord]:
    """Divisors of the one-node types from the Table 1 rows."""
    if len(rows) != 16:
        raise ClassifyError(f"Table 1 has {len(rows)} rows, expected 16")
    # a genus-6 component leaves the other one rational, and
    # stabilization contracts it: the row maps to the interior
    return _records(
        (ROW_TO_THEOREM[row.row], f"type({row.graph_type}) row {row.row}")
        for row in rows
        if 6 not in (row.g1, row.g2) and row.row not in ROWS_LOW_DIMENSION
    )


# ---------------------------------------------------------------------------
# Type (6)


def hyperelliptic_tail_genus(i: int) -> int:
    """Genus of the hyperelliptic tail over a node of local degree i: the
    stable tail of an A_k point, k = i - 1, has genus floor(k/2)
    (Hassett, Local stable reduction of plane curve singularities, 2000).

    The A_k point has one branch when i is odd and two when i is even, so
    the tail meets the rest of the curve at one Weierstrass point or at
    two hyperelliptic conjugate points; a genus-2 tail carries that mark
    untagged, and a tail of genus >= 3 is also tagged hyperelliptic."""
    if i < 1:
        raise ClassifyError("i must be >= 1")
    return (i - 1) // 2


# Local degrees i of the irreducible type (6) cases, odd (one node) first.
# recorded: type (6) analysis, irreducible — the paper bounds i; nothing here derives the bound
_TYPE6_IRREDUCIBLE = (3, 5, 7, 9, 2, 4, 6, 8)
# recorded: type (6) analysis, directrix split off — the divisor needs geometry not modelled
_TYPE6_REDUCIBLE = {2: 3, 4: 6, 6: 8}


def type6_main_genus(i: int) -> int:
    """Genus of the normalization of a curve of class 4s + 5F on F_1
    with an A_{i-1} singularity."""
    return orbiquint.resolve.geometric_genus(orbiquint.resolve.pa_hirzebruch(1, 4, 5), [i - 1])


def _type6_curve(i: int) -> StableCurveDesc:
    """Stable curve of the irreducible type (6) case i: the main (vertex 0)
    joined to the hyperelliptic tail, decorated as hyperelliptic_tail_genus
    says, by one node for odd i and two for even i.  A rational tail is
    contracted: its two nodes become one loop on the main, its one node
    none."""
    nodes = 1 if i % 2 else 2
    main, g = VertexDesc(type6_main_genus(i)), hyperelliptic_tail_genus(i)
    if g == 0:
        return StableCurveDesc((main,), ((0, 0),) * (nodes - 1))
    mark = Mark.WEIERSTRASS if nodes == 1 else Mark.HYP_CONJUGATE_PAIR
    tail = _v(g, [Tag.HYPERELLIPTIC] if g >= 3 else [], [mark] if g >= 2 else [])
    return StableCurveDesc((main, tail), ((0, 1),) * nodes)


def classify_type_6() -> list[DivisorRecord]:
    """Divisors of type (6).  Each irreducible case gives the one divisor
    its stable curve matches with the main's image not hyperelliptic.

    The main is the normalization of a curve of class 4s + 5F = 5H - s on
    F_1, a plane quintic through the blown-up point.  Projecting from its
    singular point, a double point, gives a base-point-free g^1_3 on the
    normalization; when its genus is >= 3, a hyperelliptic curve has none
    (a pencil of degree 3 <= g on it is the g^1_2 plus a base point).  At
    genus 2 every curve is hyperelliptic, and no description tags a
    genus-2 vertex, so the rule excludes nothing there.
    """
    pairs = []
    for i in _TYPE6_IRREDUCIBLE:
        source = f"type(6) i={i}" if i % 2 else f"type(6) i={i} irreducible"
        if len(hits := match(_type6_curve(i), frozenset({Tag.HYPERELLIPTIC}))) != 1:
            raise ClassifyError(f"{source} fits divisors {hits}, expected exactly one")
        pairs.append((hits[0], source))
    pairs += [(t, f"type(6) i={i} reducible")
              for i, t in sorted(_TYPE6_REDUCIBLE.items())]
    records = _records(pairs)
    if len(records) != 10:
        raise ClassifyError(f"type (6) gives {len(records)} divisors, expected 10")
    return records


# ---------------------------------------------------------------------------
# Local models at the tail nodes (types (7) and (8))


# genus: int; top, bottom: tuple[int, ...], the attaching multiplicities on
# the A side and on the B side; side: tuple[int, ...], those of a component
# whose monodromy switches the sides
ModelComponent = namedtuple("ModelComponent", "genus top bottom side", defaults=((), (), ()))


# Singular model: curve of class n*s + m*F on F_l with A-singularities;
# l, n, m: int; sings: tuple[int, ...], the A_k indices.  _entry derives it
# in integers from the family, the node local, the entry's l and whether a
# component switches sides.  A side-switching model has its family's class
# in _MODEL_CLASSES.  Any other has n = 4 and m = 2l plus the family's
# offset: 4s + (1+2l)F for c1, 4s + (2+2l)F for c2, with p_a as in
# Hartshorne, Algebraic Geometry, V.2.  The singularity is one A_{local-1},
# except where a template splits it.
Provenance = namedtuple("Provenance", "l n m sings")


class LocalModelEntry(namedtuple("LocalModelEntry", "family label tag param components "
                                                    "sigmaA2 sigmaB2 provenance")):
    """A local model: family: str, "c1" or "c2"; label: str, e.g. "1.1"
    within c1, "2.3" within c2; tag: str; param: Optional[int], p where
    applicable; components: tuple[ModelComponent, ...]; sigmaA2, sigmaB2:
    Optional[Fraction]; provenance: Provenance."""

    __slots__ = ()

    def half_edge_total(self) -> int:
        return sum(
            sum(c.top) + sum(c.bottom) + sum(c.side) for c in self.components
        )

    def sigma_halves(self) -> tuple[Optional[int], Optional[int]]:
        """sigma_A^2 and sigma_B^2 as integer half units (parity.half_units),
        None where one is None; one outside (1/2)Z is a ClassifyError."""
        parity = orbiquint.parity
        try:
            return tuple(s if s is None else parity.half_units(s)
                         for s in (self.sigmaA2, self.sigmaB2))
        except parity.ParityError as exc:
            raise ClassifyError(f"{self.family} {self.label}: {exc}") from None

    def validate(self) -> None:
        if self.half_edge_total() != 4:
            raise ClassifyError(f"{self.family} {self.label}: half-edges != 4")
        switches = any([c.side for c in self.components])
        if switches != (self.sigmaA2 is None) or switches != (self.sigmaB2 is None):
            raise ClassifyError(f"{self.family} {self.label}: sigma^2 must exist exactly "
                                "when no component switches sides")
        resolve, p = orbiquint.resolve, self.provenance
        delta = sum(resolve.delta_invariant(k) for k in p.sings)
        pa = arithmetic_genus([c.genus for c in self.components], delta)
        if pa != (model_pa := resolve.pa_hirzebruch(p.l, p.n, p.m)):
            raise ClassifyError(f"{self.family} {self.label}: components give arithmetic "
                                f"genus {pa}, the model {model_pa}")
        self.sigma_halves()


# Each family's m - 2l on a model with no side-switching component, and
# the class (l, n, m) of a model with one; validate() checks both against
# the components by genus arithmetic.
_MODEL_CLASSES = {"c1": (1, (2, 2, 4)), "c2": (2, (2, 3, 6))}


def _entry(family, local, label, tag, param, comps, l=None, sA=None, sB=None,
           sings=None) -> LocalModelEntry:
    """A validated entry at node local `local`.  l and the sigma^2 pair are
    written only for a model with no side-switching component, and sings
    only where a template splits the A_{local-1} point; the Provenance is
    derived from them."""
    components = tuple(ModelComponent(*c) for c in comps)
    offset, switched = _MODEL_CLASSES[family]
    l, n, m = switched if any([c.side for c in components]) else (l, 4, offset + 2 * l)
    e = LocalModelEntry(
        family, label, tag, param, components,
        None if sA is None else frac(sA),
        None if sB is None else frac(sB),
        Provenance(l, n, m, sings or (local - 1,)),
    )
    e.validate()
    return e


def model_locals(family: str) -> range:
    """Node locals with local models: i for c1 (the degree-6 main), j for
    c2 (the degree-12 main), as the shape IV enumeration ranges them."""
    return covergraphs.node_local_range({"c1": 6, "c2": 12}[family])


def _require_local(family: str, name: str, value: int) -> None:
    locals_ = model_locals(family)
    if value not in locals_:
        raise ClassifyError(f"{family} models need 1 <= {name} <= {locals_[-1]}")


# The c1 entries at each node local i: (label, components, then l and the
# sigma^2 pair when no component switches sides, then the split sings).
# recorded: c1 model list — which labels exist, their components and sigma^2; class, singularities and sigma^2's presence are derived
_C1_MODEL_DATA = {
    1: (("1.1", [(0, (2,), (1, 1))], 0, Fraction(-1, 2), 0),
        ("1.2", [(0, (), (1,)), (1, (2,), (1,))], 1, Fraction(1, 2), -1),
        ("1.3", [(1, (), (), (4,))])),
    2: (("2.1", [(0, (1,)), (0, (1,), (1, 1))], 0, -1, 0),
        ("2.2", [(0, (2,), (2,))], 0, Fraction(-1, 2), Fraction(-1, 2), (0, 0)),
        ("2.3", [(0, (), (), (2, 2))])),
    3: (("3.1", [(0, (), (1,)), (0, (2,), (1,))], 1, Fraction(-1, 2), 1),
        ("3.2", [(0, (), (), (4,))])),
    4: (("4.1", [(0, (1,)), (0, (1,), (1,)), (0, (), (1,))], 0, 1, 1),
        ("4.2", [(0, (), (), (2,)), (0, (), (), (2,))])),
}


def enumerate_c1_models(i: int) -> list[LocalModelEntry]:
    """Local models of the degree-6 main component at a node of local
    degree i, each labelled and tagged "i.k", with no param.

    Each entry of _C1_MODEL_DATA writes its components, and its l and
    sigma^2 pair when no component switches sides.  _entry derives the
    rest: the class 4s + (1+2l)F, or the side-switching class of
    _MODEL_CLASSES, and the singularity A_{i-1}, which template 2.2
    splits into A_0 and A_0."""
    _require_local("c1", "i", i)
    return [_entry("c1", i, label, label, None, comps, *rest)
            for label, comps, *rest in _C1_MODEL_DATA[i]]


def enumerate_c2_models(j: int) -> list[LocalModelEntry]:
    """Local models of the degree-12 main component at a node of local
    degree j = 2p + 1 or 2p, each with param p.

    Each entry writes its label, tag and components, and its l and sigma^2
    pair when no component switches sides.  _entry derives the rest: the
    class 4s + (2+2l)F, or the side-switching class of _MODEL_CLASSES, and
    the singularity A_{j-1}, which templates 2.11 and 2.12 split into
    A_{j-2} and A_0."""
    _require_local("c2", "j", j)
    p, half = j // 2, Fraction(1, 2)
    # recorded: c2 model list — which labels exist, their components and sigma^2; class, singularities and sigma^2's presence are derived
    if j % 2:  # j = 2p + 1
        data = [("2.1", "odd1", [(3 - p, (2,), (1, 1))], 0, p + half, 1),
                ("2.2", "odd2", [(3 - p, (2,), (1, 1))], 0, p - half, 0)] if p <= 3 else []
        data += [("2.3", "odd3", [(4 - p, (2,), (1,)), (0, (), (1,))], 2, p - half, 0),
                 ("2.4", "odd4", [(4 - p, (), (), (4,))])]
    else:  # j = 2p
        data = [("2.5", "even1", [(3 - p, (1, 1), (1, 1))], 0, p + 1, 1),
                ("2.6", "even2", [(3 - p, (1, 1), (1, 1))], 0, p, 0)] if p <= 3 else []
        data.append(("2.7", "even3", [(4 - p, (1, 1), (1,)), (0, (), (1,))], 2, p, 0))
        if p == 4:
            pair = [(0, (1,), (1,)), (0, (1,), (1,))]
            data += [("2.8", "even4", pair, 0, 1, 1), ("2.9", "even5", pair, 0, 0, 0),
                     ("2.10", "even6", [(0, (1,)), (1, (1,), (1,)), (0, (), (1,))], 0, 0, 0)]
        # 2.11 and 2.12 split the A_{j-1} point into A_{j-2} and A_0
        data += [(label, tag, [(4 - p, (2,), (2,))], 1, p - s, s, (j - 2, 0))
                 for label, tag, s in (("2.11", "even7", Fraction(3, 2)), ("2.12", "even7.5", half))]
        data.append(("2.13", "even8", [(4 - p, (), (), (2, 2))]))
        if p == 4:
            data.append(("2.14", "even9", [(1, (), (), (2,)), (0, (), (), (2,))]))
    return [_entry("c2", j, label, tag, p, comps, *rest) for label, tag, comps, *rest in data]


# Each family's local-model lists, keyed by family ("c1", "c2") and node local.
LocalModels = dict[str, dict[int, list[LocalModelEntry]]]


def local_models() -> LocalModels:
    """Every c1 and c2 local-model list, each built and validated once."""
    return {"c1": {i: enumerate_c1_models(i) for i in model_locals("c1")},
            "c2": {j: enumerate_c2_models(j) for j in model_locals("c2")}}


ModelLookup = Callable[[str, Optional[int]], LocalModelEntry]


def _model_lookup(models: LocalModels) -> ModelLookup:
    """Look up the local models the combination tables name by (label, p).

    Reads the c1 lists i = 3, 4 (labels written "1.i.k", as in the
    tables; a trailing ' marks the flip) and the nine c2 lists.  p may be
    None only for a label that occurs once.
    """
    by_label: dict[str, list[LocalModelEntry]] = {}
    for i in (3, 4):
        for e in models["c1"][i]:
            by_label.setdefault(f"1.{e.label}", []).append(e)
    for es in models["c2"].values():
        for e in es:
            by_label.setdefault(e.label, []).append(e)
    by_key = {(label, e.param): e for label, es in by_label.items() for e in es}
    by_key.update({(label, None): es[0]
                   for label, es in by_label.items() if len(es) == 1})

    def lookup(label: str, p: Optional[int]) -> LocalModelEntry:
        entry = by_key.get((label.rstrip("'"), p))
        if entry is None:
            raise ClassifyError(f"no local model {label} with p={p}")
        return entry

    return lookup


# ---------------------------------------------------------------------------
# Type (7): the two combination tables


# c1: tuple[str, ...], c1 entry labels (a trailing ' marks the flip); c2:
# str; c2_p: Optional[int]; tail_genera: tuple[int, ...], (g1, g2) for
# trivial G, (g,) otherwise; theorem_index: int
Type7Row = namedtuple("Type7Row", "c1 c2 c2_p tail_genera theorem_index")


# Divisors of type (7) with trivial intermediate double cover.
# recorded: Table 2 — which combinations glue is not computed; no model named switches sides
TABLE2_ROWS: tuple[Type7Row, ...] = (
    Type7Row(("1.3.1", "1.4.1"), "2.2", 0, (0, 1), 13),
    Type7Row(("1.4.1",), "2.2", 0, (2, -1), 10),
    Type7Row(("1.3.1", "1.4.1"), "2.3", 0, (2, -1), 4),
    Type7Row(("1.3.1", "1.4.1"), "2.3", 1, (3, -1), 5),
    Type7Row(("1.3.1", "1.4.1"), "2.3", 2, (4, -1), 7),
    Type7Row(("1.3.1", "1.4.1"), "2.3", 2, (0, 3), 10),
    Type7Row(("1.3.1", "1.4.1"), "2.7", 1, (2, -1), 12),
    Type7Row(("1.3.1", "1.4.1"), "2.7", 2, (3, -1), 12),
    Type7Row(("1.3.1'", "1.4.1"), "2.7", 2, (-1, 3), 10),
    Type7Row(("1.4.1",), "2.7", 4, (5, -1), 2),
    Type7Row(("1.4.1",), "2.9", None, (5, -1), 2),
    Type7Row(("1.3.1", "1.4.1"), "2.11", 1, (0, 2), 10),
)

# Divisors of type (7) with nontrivial intermediate double cover.
# recorded: Table 3 — which combinations glue is not computed; every model named switches sides
TABLE3_ROWS: tuple[Type7Row, ...] = (
    Type7Row(("1.3.2", "1.4.2"), "2.4", 0, (2,), 4),
    Type7Row(("1.3.2", "1.4.2"), "2.4", 1, (3,), 5),
    Type7Row(("1.3.2", "1.4.2"), "2.4", 2, (4,), 7),
    Type7Row(("1.3.2", "1.4.2"), "2.13", 1, (2,), 11),
    Type7Row(("1.3.2", "1.4.2"), "2.13", 2, (3,), 12),
)


# Trivial-cover rows where no choice of section ends gives an odd
# integral self-intersection sum, so the naive section sum cannot
# confirm the parity.
# recorded: Table 2 row 12 — the paper's limiting-theta argument is not modelled
PARITY_UNCONFIRMED_ROWS = frozenset({12})


def type7_section_parities(row: Type7Row, lookup: ModelLookup) -> list[Parity]:
    """Parities of all consistent glued sections for a trivial-cover row:
    each end section of C1 and C2 with each tail bundle, keeping only the
    combinations with integral total self-intersection.

    Each model's sigma_A^2 and sigma_B^2 and each tail's contribution b/2
    are read once per row as integer half units (parity.half_units), and
    each combination's total is an integer sum whose parity
    parity.halves_parity reads.  A sigma^2 outside (1/2)Z raises
    ClassifyError."""
    parity = orbiquint.parity
    c2 = lookup(row.c2, row.c2_p).sigma_halves()
    # a hyperelliptic tail of genus g has b = 2g + 2 ramification points
    tails = [parity.half_units(parity.tail_section_contribution(rh_ramification(2, g)))
             for g in row.tail_genera]
    out = []
    for label in row.c1:
        for h1 in lookup(label, None).sigma_halves():
            for h2 in c2:
                for t in tails:
                    if (h := h1 + h2 + t) % 2 == 0:  # an integral total
                        out.append(parity.halves_parity(h))
    return out


def type7_row_parity(row: Type7Row, index: int | None, lookup: ModelLookup) -> Parity:
    """Parity of a combination-table row.  A row whose local models
    switch sides under the monodromy has a nontrivial intermediate double
    cover and moot parity.  Trivial-cover rows are odd; for all but the
    rows in PARITY_UNCONFIRMED_ROWS this is confirmed by an odd
    glued-section self-intersection."""
    Parity = orbiquint.parity.Parity
    models = [lookup(label, None) for label in row.c1] + [lookup(row.c2, row.c2_p)]
    if any(c.side for model in models for c in model.components):
        return Parity.MOOT
    parities = type7_section_parities(row, lookup)
    if not parities:
        raise ClassifyError(f"no consistent section for table row {row}")
    if Parity.ODD not in parities and index not in PARITY_UNCONFIRMED_ROWS:
        raise ClassifyError(f"no odd section for table row {row}")
    return Parity.ODD


def classify_type_7(models: LocalModels) -> list[DivisorRecord]:
    """Divisors of type (7) from the combination tables, whose rows name
    local models in these lists."""
    Parity = orbiquint.parity.Parity
    lookup = _model_lookup(models)
    pairs = []
    for k, row in enumerate(TABLE2_ROWS, 1):
        if type7_row_parity(row, k, lookup) is not Parity.ODD:
            raise ClassifyError(f"table row {k}: expected odd parity")
        pairs.append((row.theorem_index, f"type(7) trivial-cover row {k}"))
    for k, row in enumerate(TABLE3_ROWS, 1):
        if type7_row_parity(row, None, lookup) is not Parity.MOOT:
            raise ClassifyError(f"nontrivial-cover row {k}: expected moot parity")
        pairs.append((row.theorem_index, f"type(7) nontrivial-cover row {k}"))
    records = _records(pairs)
    if len(records) != 8:
        raise ClassifyError(f"type (7) gives {len(records)} divisors, expected 8")
    return records


# ---------------------------------------------------------------------------
# Type (8)


def classify_type_8() -> list[DivisorRecord]:
    # recorded: type (8) analysis — no combination table is built for three mains
    return _records([
        (2, "type(8) trivial cover: C1=C2=1.4.1, C3 in {1.3.1, 1.4.1}, "
            "tails genus (-1, 5)"),
        (2, "type(8) nontrivial cover: C1, C2 in {1.3.2, 1.4.2}, C3=1.4.1"),
        (13, "type(8) trivial cover: C1=C2=1.4.1, C3 in {1.3.1, 1.4.1}, "
             "tails genus (1, 3)"),
    ])


# ---------------------------------------------------------------------------
# The main theorem


def theorem_divisors(rows: list[Table1Row], models: LocalModels) -> list[DivisorRecord]:
    """The 13 boundary divisors, each with the sources of every type that
    gives it, from the Table 1 rows and the local-model lists; each of the
    13 descriptions must have arithmetic genus 6 and match only itself, so
    none is isomorphic to or refines another."""
    for index, desc in THEOREM_DESCRIPTIONS.items():
        if stable_pa(desc) != 6:
            raise ClassifyError(f"description {index} has wrong genus")
        if (hits := match(desc)) != [index]:
            raise ClassifyError(f"description collision: item {index} fits items {hits}")
    records = classify_type_1_5(rows) + classify_type_6()
    records += classify_type_7(models) + classify_type_8()
    out = _records((r.theorem_index, s) for r in records for s in r.sources)
    if [r.theorem_index for r in out] != list(range(1, 14)):
        raise ClassifyError("theorem assembly does not give items 1-13")
    return out
