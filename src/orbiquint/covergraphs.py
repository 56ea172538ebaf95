"""Dual graphs of admissible covers of one-tail degenerations.

The generic cover is a degree-6d map from a rational curve to the
4-pointed base with ramification profile all 2s over 0, all 3s over 1,
and etale over infinity.  At the boundary the base breaks into a main
component M and a tail T joined at a node t; the cover breaks into
components over M and over T, joined at nodes with matching local
degrees.  Exactly one tail component, E, is non-redundant; the
"redundant" ones are unramified away from the node and the tail's marked
point and are determined uniquely by the rest of the graph.  A component
is keyed by (side, id), so a main and a tail may share an id, and one
plain search over those keys checks that the dual graph is connected.

The enumerator implements the constrained search: base shapes I-IV by
the location of the marked points, the tail-moduli filter b - 2 <=
max(0, s-3), redundant-tail integrality, and nonnegative integral
Riemann-Hurwitz branch counts.  The filter admits only the minimal tail
of shapes I-III, whatever the total degree; three probes per shape check
this once, at import.  Where the tail's marked point sits decides the
one-node splits: full profiles make each main degree a multiple of the
lcm of the parts over its marked points, matching node degrees split the
tail's degree among the mains, and redundant tails fill each main's
remaining node fiber.  Every record is a tuple, hashed and compared in
C: graphs, families, components and node edges are ``namedtuple``s,
copied with ``_replace``, and a ramification profile is a tuple of its
parts whose one constructor sorts them.  Memoised constructors build each
distinct component, edge and profile once, and the graphs of an
enumeration share them: each graph is assembled from one memoised block
per main, keyed by small ints (the main, its edge to E, its redundant
tails and their edges), and the tail E.  ``to_json`` writes a graph in
one join: its family's template, rendered once and cut at the params,
components and edges, with the memoised text of each component and edge
between the pieces.  It reads an enumerated graph's text by the same
blocks: each block has a slot that ``to_json`` alone fills, on first
use, with references to its records' texts, and a block is taken when
its records equal the graph's; any other graph is written record by
record.
"""

from __future__ import annotations

import enum
import functools
import itertools
from collections import defaultdict, namedtuple
from math import lcm
from typing import Hashable, Iterable, Optional, Sequence

from . import jsontext

MARKED = ("0", "1", "inf")

# Profile part sizes over the three marked points.
PART = {"0": 2, "1": 3, "inf": 1}


class ShapeError(ValueError):
    pass


class BaseShape(enum.Enum):
    """Position of the marked points 0, 1, infinity on main vs tail."""

    I = "I"      # all three on the main component
    II = "II"    # 0 on the tail
    III = "III"  # 1 on the tail
    IV = "IV"    # infinity on the tail

    # members are singletons that compare by identity: hash them in C too
    # (Enum's own __hash__ is a Python function, run on every memo lookup)
    __hash__ = object.__hash__

    @property
    def tail_marked(self) -> tuple[str, ...]:
        return _TAIL_MARKED[self]

    @property
    def main_marked(self) -> tuple[str, ...]:
        return _MAIN_MARKED[self]

    @property
    def redundant_degree(self) -> int:
        """Degree (= node local degree) of a redundant tail component."""
        return _REDUNDANT_DEGREE[self]


def _part_lcm(marked: tuple[str, ...]) -> int:
    """The lcm of the profile parts over these marked points: a component
    with full profiles there has a degree that is a multiple of it."""
    return lcm(*(PART[p] for p in marked))


_TAIL_MARKED = {BaseShape.I: (), BaseShape.II: ("0",), BaseShape.III: ("1",),
                BaseShape.IV: ("inf",)}
_MAIN_MARKED = {s: tuple(p for p in MARKED if p not in t) for s, t in _TAIL_MARKED.items()}
# a redundant tail has the least degree its full profile allows
_REDUNDANT_DEGREE = {s: _part_lcm(t) for s, t in _TAIL_MARKED.items()}


class RamProfile(tuple):
    """A ramification profile: the tuple of its parts, which its one
    constructor sorts.  It offers no ``_replace`` or ``_make`` that could
    skip the sort."""

    __slots__ = ()

    def __new__(cls, parts: Iterable[int]) -> RamProfile:
        return super().__new__(cls, sorted(parts))

    def __repr__(self) -> str:
        return f"RamProfile(parts={self.parts!r})"

    @property
    def parts(self) -> tuple[int, ...]:
        return tuple(self)

    @property
    def ram(self) -> int:
        return sum(self) - len(self)


class Component(namedtuple("Component", "id side degree genus redundant profiles beta")):
    """id: str; side: str, "main" or "tail"; degree, genus: int; redundant:
    bool; profiles: tuple[tuple[str, RamProfile], ...], over the marked
    points on its side; beta: int, the moving branch points on it."""

    __slots__ = ()

    def to_json_dict(self) -> dict:
        return {
            "id": self.id,
            "side": self.side,
            "degree": self.degree,
            "genus": self.genus,
            "redundant": self.redundant,
            "profiles": {p: list(prof.parts) for p, prof in self.profiles},
            "beta": self.beta,
        }


class NodeEdge(namedtuple("NodeEdge", "main_id tail_id local_degree")):
    """main_id, tail_id: str; local_degree: int."""

    __slots__ = ()

    def to_json_dict(self) -> dict:
        return {"main": self.main_id, "tail": self.tail_id, "local": self.local_degree}


def _nest(text: str, depth: int) -> str:
    """``text``, a JSON value rendered at nesting 0, laid out as a list
    element at nesting ``depth``."""
    pad = "  " * depth
    return pad + text.replace("\n", "\n" + pad)


@functools.lru_cache(maxsize=1 << 12)
def _json_fragment(item: Component | NodeEdge) -> str:
    """One component or edge, laid out where it sits in a graph record:
    an element of its list at nesting 2."""
    return _nest(jsontext.dumps(item.to_json_dict()), 2)


def _split_template(text: str, keys: tuple[str, ...]) -> tuple[str, ...]:
    """``text``, a rendered record holding ``"key": []`` for each of
    ``keys`` in that order, cut at those empty lists: the pieces before,
    between and after them, each key and its colon ending the piece
    before its list.  The package's one splice of rendered JSON."""
    pieces = []
    for key in keys:
        head, _, text = text.partition(f'"{key}": []')
        pieces.append(f'{head}"{key}": ')
    return (*pieces, text)


@functools.lru_cache(maxsize=1 << 8)
def _graph_template(d: int, shape: BaseShape, type_index: Optional[int],
                    r_options: tuple[int, ...]) -> tuple[str, ...]:
    """A graph record with no params, components or edges, rendered once
    per family and cut at those three lists."""
    return _split_template(
        jsontext.dumps(CoverGraph(d, shape, (), (), type_index, (), r_options).to_json_dict()),
        ("params", "components", "edges"))


class CoverGraph(namedtuple("CoverGraph", "d shape components node_edges type_index params "
                                          "r_options", defaults=(None, (), ()))):
    """d: int; shape: BaseShape; components: tuple[Component, ...];
    node_edges: tuple[NodeEdge, ...]; type_index: Optional[int]; params,
    r_options: tuple[int, ...]."""

    __slots__ = ()

    # -- accessors ----------------------------------------------------------

    def mains(self) -> list[Component]:
        return [c for c in self.components if c.side == "main"]

    # -- serialization ------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "d": self.d,
            "shape": self.shape.value,
            "type": self.type_index,
            "params": list(self.params),
            "r_options": list(self.r_options),
            "components": [c.to_json_dict() for c in self.components],
            "edges": [e.to_json_dict() for e in self.node_edges],
        }

    def to_json(self) -> str:
        """Byte-identical to ``json.dumps(self.to_json_dict(), indent=2)``
        when every field holds its annotated type, as this module builds
        them (``1 == True`` and ``2 == 2.0`` share a fragment): the
        family's template with the params, and the components and edges
        as memoised fragments, written between its pieces in one join.

        The fragments of a graph laid out as ``_skeleton`` builds it come
        from its mains' blocks (``_main_block``), found from the leading
        edges to E: each main and its edge must equal its block's, and the
        blocks' redundant tails and their edges must be exactly the rest
        of the graph, so only E's fragment is looked up.  A block's pieces
        are filled here the first time it is taken, all in one step.  Any
        other graph, or a block that cannot be built, takes one memoised
        fragment per component and edge.  Records are tuples, compared
        and hashed in C, with no Python-level ``__hash__`` or ``__eq__``."""
        d, shape, comps, node_edges, type_index, params, r_options = self
        head, after_params, after_components, end = _graph_template(
            d, shape, type_index, r_options)
        # the mains and their edges to E lead, as _skeleton lays them out:
        # main n's block is keyed by its degree, its local and the tails
        # before it, and is taken only when its records are the graph's
        main_pieces, edge_pieces, tail_pieces, tail_edge_pieces = [], [], [], []
        tails = tail_edges = ()
        n = 0  # a counter, not enumerate, which builds a tuple per main
        for main, edge in zip(comps, node_edges):
            if edge.tail_id != "E":
                break
            n += 1
            try:
                block_main, block_edge, block_tails, block_tail_edges, pieces = _main_block(
                    shape, n, main.degree, edge.local_degree, len(tails))
            except ShapeError:
                tails = None
                break
            if block_main != main or block_edge != edge:
                tails = None
                break
            if not pieces:
                # first use: each record's separator and a reference to its
                # fragment text, in four lists (the main, its edge, the
                # tails, the tail edges) added to the slot in one step
                records = (block_main, block_edge, *block_tails, *block_tail_edges)
                flat = [",\n"] * (2 * len(records))
                flat[1::2] = map(_json_fragment, records)
                cut = 4 + 2 * len(block_tails)
                pieces += flat[:2], flat[2:4], flat[4:cut], flat[cut:]
            main_pieces += pieces[0]
            edge_pieces += pieces[1]
            tail_pieces += pieces[2]
            tail_edge_pieces += pieces[3]
            tails += block_tails
            tail_edges += block_tail_edges
        # map and join keep the per-item loops in C; to_json runs once per graph
        params = ",\n    ".join(map(str, params))
        # each list opens and closes at nesting 1, its elements at nesting 2
        params = f"[\n    {params}\n  ]" if params else "[]"
        # the blocks' tails and tail edges must be all the graph holds after
        # its mains and E, and after its edges to E
        if 0 < n < len(comps) and tails == comps[n + 1:] and tail_edges == node_edges[n:]:
            # a piece is a separator then a fragment; the first separator
            # of each list opens it instead
            main_pieces[0] = edge_pieces[0] = "[\n"
            return "".join([
                head, params, after_params, *main_pieces, ",\n", _json_fragment(comps[n]),
                *tail_pieces, "\n  ]", after_components, *edge_pieces, *tail_edge_pieces,
                "\n  ]", end])
        components = ",\n".join(map(_json_fragment, comps))
        edges = ",\n".join(map(_json_fragment, node_edges))
        return "".join((
            head, params, after_params, f"[\n{components}\n  ]" if components else "[]",
            after_components, f"[\n{edges}\n  ]" if edges else "[]", end))


# type_index: int; shape: BaseShape; param_ranges: tuple[tuple[int, int],
# ...], an inclusive (lo, hi) per parameter; graphs: tuple[CoverGraph, ...]
BoundaryType = namedtuple("BoundaryType", "type_index shape param_ranges graphs")


def families_json(families: Iterable[BoundaryType]) -> str:
    """The family list of ``boundary-graphs --format json``: byte-identical
    to ``json.dumps(records, indent=2)``, each record holding a family's
    type, shape, param ranges, graph count and its graphs'
    ``to_json_dict()``.  Each graph is its ``to_json()`` text, nested at
    depth 3."""
    records = []
    for fam in families:
        head, end = _split_template(_nest(jsontext.dumps({
            "type": fam.type_index,
            "shape": fam.shape.name,
            "param_ranges": [list(r) for r in fam.param_ranges],
            "count": len(fam.graphs),
            "graphs": [],
        }), 1), ("graphs",))
        # each graph nested at 3 in a list that closes at 2; the records at 1
        graphs = ",\n".join([_nest(g.to_json(), 3) for g in fam.graphs])
        records.append(f"{head}[\n{graphs}\n    ]{end}" if graphs else f"{head}[]{end}")
    body = ",\n".join(records)
    return f"[\n{body}\n]" if body else "[]"


# ---------------------------------------------------------------------------
# Elementary counts and filters


def rh_ramification(degree: int, genus: int) -> int:
    """Total ramification of a degree-d cover of P^1 by a curve of genus
    g, from Riemann-Hurwitz: 2g - 2 = -2d + ram.  This is the package's
    one Riemann-Hurwitz kernel."""
    return 2 * genus - 2 + 2 * degree


def generic_branch_count(d: int) -> int:
    """Moving branch points of the generic degree-6d cover: the component
    kernel's count for a rational cover with full profiles over 0, 1 and
    infinity and no node."""
    if d < 1:
        raise ShapeError("d must be >= 1")
    return _component_beta(6 * d, 0, _profiles_for(MARKED, 6 * d), ())


def branch_count_tail(shape: BaseShape, e: int, s: int) -> int:
    """Branch points of the non-redundant tail component away from the
    node (including the tail's marked point when it is ramified over it):
    Riemann-Hurwitz for a rational degree-e tail with s points over the
    node and all parts u (the redundant degree) over its marked point,
    which gives e+s-2 (I), e/2+s-1 (II), e/3+s-1 (III)."""
    if s < 1:
        raise ShapeError("s must be >= 1")
    if shape is BaseShape.IV:
        raise ShapeError("branch_count_tail applies to shapes I-III")
    u = shape.redundant_degree
    if e % u:
        raise ShapeError(f"case {shape.value} needs e divisible by {u}")
    return rh_ramification(e, 0) - (e - s) - (e - e // u) + (u > 1)


def tail_moduli_filter(shape: BaseShape, e: int, s: int) -> bool:
    """Generic-finiteness filter: b - 2 <= max(0, s - 3)."""
    return branch_count_tail(shape, e, s) - 2 <= max(0, s - 3)


def _check_minimal_tail() -> None:
    """Shapes I-III: the tail-moduli filter admits the minimal tail
    (e, s) = (max(u, 2), 2), u the redundant degree, and no other tail of
    any degree.  b is linear in s with slope 1 and rises with e, so three
    probes decide it: at s = 2 the filter reads b <= 2, which must hold at
    the minimal e and fail one step up; from s = 3 on it reads b - s <= -1,
    where s cancels, which must fail at the minimal e."""
    for shape in (BaseShape.I, BaseShape.II, BaseShape.III):
        u = shape.redundant_degree
        e = max(u, 2)
        for probe, admitted in (((e, 2), True), ((e + u, 2), False), ((e, 3), False)):
            if tail_moduli_filter(shape, *probe) != admitted:
                raise ShapeError(f"shape {shape.value}: tail-moduli filter "
                                 f"{'refuses' if admitted else 'admits'} (e, s) = {probe}, "
                                 f"expected only the minimal tail {(e, 2)}")


_check_minimal_tail()


def _main_splits(total: int, step: int, n: int) -> list[tuple[int, ...]]:
    """The n-part splits of ``total`` into positive multiples of
    ``step``, each a descending tuple, in ascending lexicographic order."""
    parts = range(total - total % step, 0, -step)
    # combinations of the descending parts come in descending order
    return [split for split in itertools.combinations_with_replacement(parts, n)
            if sum(split) == total][::-1]


# recorded: shape III boundary pictures — (4, 14) passes every stated filter, yet is not drawn
_EXCLUDED_SPLITS = {(BaseShape.III, 18): {(4, 14)}}


def _one_node_types(
    total_degree: int,
) -> list[tuple[BaseShape, tuple[int, int], tuple[int, int]]]:
    """The (shape, main degree split, node locals) of shapes I-III in type
    order, derived from where the tail's marked point sits.

    Each main degree is a multiple of ``_part_lcm`` of its marked points;
    the node locals split the tail E's degree max(u, 2) (u the redundant
    degree; the only tail the filter admits, as ``_check_minimal_tail`` checks)
    into one part per main; each main's degree less its local is a
    nonnegative multiple of u, filled by redundant tails.  Within a shape
    the most balanced split comes first, ascending within each pair.
    """
    out = []
    for shape in (BaseShape.I, BaseShape.II, BaseShape.III):
        u, step = shape.redundant_degree, _part_lcm(shape.main_marked)
        tail_degree = max(u, 2)
        for big, small in _main_splits(total_degree, step, 2):
            split = (small, big)
            if split in _EXCLUDED_SPLITS.get((shape, total_degree), ()):
                continue
            for l1 in range(1, tail_degree):
                locals_ = (l1, tail_degree - l1)
                if all(k >= l and (k - l) % u == 0 for k, l in zip(split, locals_)):
                    out.append((shape, split, locals_))
    return out


def degree_splits(shape: BaseShape, total_degree: int) -> list[tuple[int, int]]:
    """Unordered two-component main degree splits for shapes I-III, as
    ``_one_node_types`` derives them, less the recorded exclusions."""
    if shape is BaseShape.IV:
        raise ShapeError("degree_splits applies to shapes I-III")
    return [split for s, split, _ in _one_node_types(total_degree) if s is shape]


# ---------------------------------------------------------------------------
# Graph assembly


def _component_beta(
    degree: int, genus: int, profiles: Iterable[tuple[str, RamProfile]],
    node_locals: Sequence[int],
) -> int:
    """Moving branch count: the ramification Riemann-Hurwitz requires,
    less what the fixed profiles and the node fibers already carry."""
    ram = sum([p.ram for _, p in profiles]) + sum(node_locals) - len(node_locals)
    return rh_ramification(degree, genus) - ram


def _node_fibers(edges: Iterable[NodeEdge]) -> defaultdict[tuple[str, str], list[int]]:
    """Node local degrees of each component, keyed by (side, id)."""
    fibers: defaultdict[tuple[str, str], list[int]] = defaultdict(list)
    for e in edges:
        fibers["main", e.main_id].append(e.local_degree)
        fibers["tail", e.tail_id].append(e.local_degree)
    return fibers


# Memoised constructors: equal components, edges and profiles are one
# shared tuple (tails E built from different node locals meet in
# ``_component``).  Arguments always go in positionally, so a value has
# one cache entry; a ShapeError is raised again, never cached.
_component = functools.lru_cache(maxsize=1 << 12)(Component)
_node_edge = functools.lru_cache(maxsize=1 << 12)(NodeEdge)


@functools.lru_cache(maxsize=1 << 12)
def _profiles_for(marked: tuple[str, ...], degree: int) -> tuple[tuple[str, RamProfile], ...]:
    for pt in marked:
        if degree % PART[pt]:
            raise ShapeError(f"degree {degree} not divisible by profile part over {pt}")
    return tuple((pt, RamProfile((PART[pt],) * (degree // PART[pt]))) for pt in marked)


@functools.lru_cache(maxsize=1 << 12)
def _make_component(
    cid: str, side: str, degree: int, marked: tuple[str, ...],
    node_locals: tuple[int, ...], redundant: bool,
) -> Component:
    """A rational component with its Riemann-Hurwitz branch count: the
    one constructor of mains, the tail E and the redundant tails."""
    profiles = _profiles_for(marked, degree)
    beta = _component_beta(degree, 0, profiles, node_locals)
    if beta < 0:
        raise ShapeError(f"negative branch count for component {cid}")
    return _component(cid, side, degree, 0, redundant, profiles, beta)


def node_local_range(k: int) -> range:
    """Node local degrees of a main of degree k with full profiles over 0
    and 1 (shape IV): from 1 to the last local at which the main's
    Riemann-Hurwitz branch count is still >= 0.  Each unit of local
    above 1 takes one branch point, so the last local is the count of a
    main with no node plus one (5k/6 - 1)."""
    no_node = _component_beta(k, 0, _profiles_for(BaseShape.IV.main_marked, k), ())
    return range(1, no_node + 2)


def _redundant_block(main_id: str, u: int, tmark: tuple[str, ...], start: int,
                     residual: int) -> tuple[tuple[Component, ...], tuple[NodeEdge, ...]]:
    """The redundant tails R{start+1}, ... of degree ``u`` filling the
    ``residual`` node-fiber degree of main ``main_id``, and their edges,
    from the memoised constructors; fails when the residual is not a
    nonnegative multiple of ``u``."""
    if residual < 0 or residual % u:
        raise ShapeError(
            f"no integral redundant completion: component {main_id} has "
            f"residual node-fiber degree {residual} (redundant degree {u})"
        )
    ids = [f"R{i}" for i in range(start + 1, start + residual // u + 1)]
    return (tuple(_make_component(cid, "tail", u, tmark, (u,), True) for cid in ids),
            tuple(_node_edge(main_id, cid, u) for cid in ids))


def complete_redundant(graph: CoverGraph) -> CoverGraph:
    """Fill in the uniquely determined redundant tail components.

    Each main component's node fiber must consist of its non-redundant
    locals plus redundant tails of the shape's fixed degree; fails when
    the residual degree is not a nonnegative multiple of that degree.
    Idempotent and order-free; enumerated graphs are built complete.
    """
    shape = graph.shape
    stamped = {(c.side, c.id) for c in graph.components if c.side == "tail" and c.redundant}
    comps = [c for c in graph.components if (c.side, c.id) not in stamped]
    edges = [e for e in graph.node_edges if ("tail", e.tail_id) not in stamped]
    used = _node_fibers(edges)
    new_comps: list[Component] = []
    for main in sorted(graph.mains(), key=lambda c: c.id):
        residual = main.degree - sum(used["main", main.id])
        tails, tail_edges = _redundant_block(main.id, shape.redundant_degree, shape.tail_marked,
                                             len(new_comps), residual)
        new_comps += tails
        edges += tail_edges
    all_edges = tuple(edges)
    fibers = _node_fibers(all_edges)

    def rebeta(c: Component) -> Component:
        beta = _component_beta(c.degree, c.genus, c.profiles, fibers[c.side, c.id])
        if beta < 0:
            raise ShapeError(f"negative branch count for component {c.id}")
        return c if beta == c.beta else _component(
            c.id, c.side, c.degree, c.genus, c.redundant, c.profiles, beta)

    final = tuple(rebeta(c) for c in comps + new_comps)
    return graph._replace(components=final, node_edges=all_edges)


def unreached(nodes: Sequence[Hashable],
              links: Iterable[tuple[Hashable, Hashable]]) -> list[Hashable]:
    """The nodes that the first node does not reach over ``links``, each an
    unordered pair of nodes (a loop joins a node to itself; an end that is
    no node is a KeyError): the package's one connectivity search, for
    cover dual graphs and stable curves."""
    neighbours: dict[Hashable, list[Hashable]] = {node: [] for node in nodes}
    for a, b in links:
        neighbours[a].append(b)
        neighbours[b].append(a)
    order = list(nodes[:1])  # grows while it is walked
    reached = set(order)
    for node in order:
        for other in neighbours[node]:
            if other not in reached:
                reached.add(other)
                order.append(other)
    return [node for node in nodes if node not in reached]


def check_cover(graph: CoverGraph) -> list[str]:
    """Admissibility diagnostics; empty list means valid.  Each component
    is checked locally (degrees, profiles, node fibers, Riemann-Hurwitz),
    and the graph globally: its dual graph, keyed by (side, id), is a tree
    (connected by the one ``unreached`` search, with one edge fewer than
    components), exactly one tail is non-redundant, and its moving branch
    points number ``generic_branch_count(d)`` (a ShapeError for d < 1)."""
    diags: list[str] = []
    shape = graph.shape
    total = 6 * graph.d
    comps, edges = graph.components, graph.node_edges
    # the components field by field (each a tuple, so this runs in C)
    ids, sides, degrees, genera, redundant, profiles, betas = (
        zip(*comps) if comps else ((),) * len(Component._fields))
    keys = list(zip(sides, ids))
    known = set(keys)
    links = [(("main", e.main_id), ("tail", e.tail_id)) for e in edges]
    if not known.issuperset(itertools.chain.from_iterable(links)):
        unknown = next(e for e, link in zip(edges, links) if not known.issuperset(link))
        return [f"edge references unknown component: {unknown}"]

    # the source degenerates from a rational curve: its dual graph is a
    # tree, connected with one edge fewer than components
    if len(edges) != len(comps) - 1:
        diags.append(f"{len(edges)} node edges on {len(comps)} components, "
                     f"a tree has {len(comps) - 1}")
    cut_off = unreached(keys, links)
    if cut_off:
        diags.append(f"dual graph is not connected: {', '.join(cid for _, cid in cut_off)} "
                     f"not reached from {ids[0]}")

    for side in ("main", "tail"):
        deg = sum(k for s, k in zip(sides, degrees) if s == side)
        if deg != total:
            diags.append(f"total degree over {side} is {deg}, expected {total}")

    # node fibers: every component's node locals must sum to its degree
    node_fibers = _node_fibers(edges)
    fibers = [node_fibers[key] for key in keys]
    for cid, degree, fiber in zip(ids, degrees, fibers):
        if sum(fiber) != degree:
            diags.append(f"node fiber of {cid} sums to {sum(fiber)}, expected {degree}")

    # marked-point profiles: what each component holds over pt, and all of it
    by_point = list(map(dict, profiles))
    on_side = {"main": set(shape.main_marked), "tail": set(shape.tail_marked)}
    misplaced = [(s, cid, held) for (s, cid), held in zip(keys, by_point)
                 if held.keys() != on_side.get(s, set())]
    for pt in MARKED:
        part, side = PART[pt], "tail" if pt in shape.tail_marked else "main"
        parts = tuple(sorted(itertools.chain.from_iterable(
            held[pt] for held in by_point if pt in held)))
        if sum(parts) != total:
            diags.append(f"profile over {pt} sums to {sum(parts)}, expected {total}")
        if parts.count(part) != len(parts):
            diags.append(f"profile over {pt} must be all {part}s, got {parts}")
        for s, cid, held in misplaced:
            if (pt in held) != (s == side):
                diags.append(f"profile over {pt} on wrong side for {cid}")

    # per-component Riemann-Hurwitz: beta = rh_ramification(deg, g) - ram
    for cid, degree, genus, profs, beta, fiber in zip(ids, degrees, genera, profiles, betas,
                                                      fibers):
        two_g = beta - _component_beta(degree, 0, profs, fiber)
        if two_g % 2:
            diags.append(f"non-integral genus for {cid}")
        elif two_g // 2 != genus:
            diags.append(f"genus of {cid} is {two_g // 2} by Riemann-Hurwitz, stored {genus}")
        elif genus < 0:
            diags.append(f"negative genus for {cid}")
        if beta < 0:
            diags.append(f"negative moving branch count for {cid}")

    beta, expected = sum(betas), generic_branch_count(graph.d)
    if beta != expected:
        diags.append(f"moving branch points sum to {beta}, expected {expected}")

    nonred = sum(s == "tail" and not r for s, r in zip(sides, redundant))
    if nonred == 0:
        diags.append("no non-redundant tail component")
    elif nonred > 1:
        diags.append("more than one non-redundant tail component")
    for (s, cid), r, beta, fiber in zip(keys, redundant, betas, fibers):
        if r and s == "tail" and (beta != 0 or len(fiber) != 1):
            diags.append(f"component {cid} marked redundant but ramified")
    return diags


# ---------------------------------------------------------------------------
# Enumeration


@functools.lru_cache(maxsize=1 << 12)
def _main_block(shape: BaseShape, i: int, k: int, l: int, start: int) -> tuple[
        Component, NodeEdge, tuple[Component, ...], tuple[NodeEdge, ...], list[list[str]]]:
    """Main M{i} of degree ``k`` with its full node fiber, its edge of local
    ``l`` to the tail E, and the redundant tails R{start+1}, ... filling
    the rest of that fiber, with their edges: main i's share of a graph,
    keyed by small ints so that a hit hashes no node-locals tuple.  Last
    comes an empty slot for the records' JSON pieces, which only
    ``CoverGraph.to_json`` fills, so an enumeration renders no text."""
    main_id, u = f"M{i}", shape.redundant_degree
    tails, edges = _redundant_block(main_id, u, shape.tail_marked, start, k - l)
    main = _make_component(main_id, "main", k, shape.main_marked, (l,) + (u,) * len(tails), False)
    return main, _node_edge(main_id, "E", l), tails, edges, []


def _skeleton(
    d: int, shape: BaseShape, degrees: tuple[int, ...], locals_: tuple[int, ...],
    type_index: int, params: tuple[int, ...], r_options: tuple[int, ...],
) -> CoverGraph:
    """Mains with their full node fibers, the non-redundant tail E (its
    degree the sum of the node locals), then each main's redundant tails;
    the edges to E, then each main's redundant edges."""
    mains, edges, tails, tail_edges = [], [], (), ()
    i = 0  # a counter, not enumerate, which builds a tuple per main
    for k, l in zip(degrees, locals_):
        i += 1
        main, edge, reds, red_edges, _ = _main_block(shape, i, k, l, len(tails))
        mains.append(main)
        edges.append(edge)
        tails += reds
        tail_edges += red_edges
    # the table, not the tail_marked property: a dict hit runs no Python frame
    tail = _make_component("E", "tail", sum(locals_), _TAIL_MARKED[shape], locals_, False)
    # tuple.__new__ skips the namedtuple's Python-level __new__ (it checks nothing)
    return tuple.__new__(CoverGraph, (d, shape, (*mains, tail, *tails),
                                      (*edges, *tail_edges), type_index, params, r_options))


# Orbinode orders r for the one-node types at d = 3: the S4 element
# orders with 6 | r*b and an integral genus for both components' branch
# counts b (tests check this).
# recorded: Table 1 — type 1 excludes r = 3, which the derivation admits
R_OPTIONS = {1: (1, 2), 2: (2, 4), 3: (2, 4), 4: (3,), 5: (3,)}


def enumerate_boundary_types(d: int) -> list[BoundaryType]:
    """The boundary-divisor dual-graph families for covering degree 6d.

    Validated at d = 3 only: ``R_OPTIONS`` is keyed by type index at
    total degree 18 and ``_EXCLUDED_SPLITS`` applies only there, so at
    other d the r_options land on other families unchecked."""
    if d < 1:
        raise ShapeError("d must be >= 1")
    total = 6 * d
    families: list[BoundaryType] = []

    for index, (shape, split, locals_) in enumerate(_one_node_types(total), 1):
        graph = _skeleton(d, shape, split, locals_, index, (), R_OPTIONS.get(index, ()))
        families.append(BoundaryType(index, shape, (), (graph,)))

    # shape IV: 1, 2, or 3 main components, their degrees stepped as in I-III
    step = _part_lcm(BaseShape.IV.main_marked)
    main_splits = [split for n in (1, 2, 3) for split in _main_splits(total, step, n)]
    for index, degrees in enumerate(main_splits, len(families) + 1):
        locals_ranges = [node_local_range(k) for k in degrees]
        ranges = tuple((r[0], r[-1]) for r in locals_ranges)
        graphs = tuple([_skeleton(d, BaseShape.IV, degrees, locals_, index, locals_, ())
                        for locals_ in itertools.product(*locals_ranges)])
        families.append(BoundaryType(index, BaseShape.IV, ranges, graphs))
    return families


def perturbations(graph: CoverGraph) -> list[CoverGraph]:
    """All +-1 perturbations of a single local degree or component degree."""
    out = []
    edges, comps = graph.node_edges, graph.components
    for i, e in enumerate(edges):
        for delta in (-1, 1):
            if e.local_degree + delta >= 1:
                moved = e._replace(local_degree=e.local_degree + delta)
                out.append(graph._replace(node_edges=edges[:i] + (moved,) + edges[i + 1:]))
    for i, c in enumerate(comps):
        for delta in (-1, 1):
            if c.degree + delta >= 1:
                moved = c._replace(degree=c.degree + delta)
                out.append(graph._replace(components=comps[:i] + (moved,) + comps[i + 1:]))
    return out
