"""Hirzebruch-Jung resolution chains and blow-down of curve configurations.

The central objects are CurveConfig dual graphs: vertices are curves on a
smooth surface (components of the fiber over 0, the directrix sigma, and
the main curve C) labeled by self-intersection, edges are intersection
points labeled by the local intersection multiplicity (an edge of
multiplicity k is a single k-fold contact; parallel unit edges are
distinct transverse points).

A DiagramItem is the left-hand side of one of the paper's thirteen
resolution-contraction diagrams.  This module builds and contracts it;
classify.diagram_items derives the items from Table 1, so no diagram
is recorded here.

contract_minus_ones blows down exceptional (-1)-curves on one branch
table: a branch is one curve through one point, a point is the list of
its branches, and contact orders are kept per branch pair.  Blowing down
v merges the points on v into one image point, and each surviving branch
pair gains d*e contact (d, e the branches' contacts with v), while
distinct branches stay distinct (this produces the tangency cells in the
golden diagrams).  Summed over branches this is the blow-down formula
D.D' += (D.v)(D'.v) (Hartshorne V.3).  Eligible vertices are the
(-1)-vertices other than the main curve; among them the one with the
smallest total intersection with the main curve is contracted first
(ties broken by position along the chain, reading from the directrix
end).  Free choice among all (-1)-vertices is genuinely not confluent,
and the primary key alone does not decide it: over the thirteen golden
diagrams it is tied at 12 of the 41 blow-down steps (items 2, 4, 5, 6, 7
and 9).  The chain-position tie-break is a convention the golden
diagrams depend on: in item 2, s1 and F tie at the second step, and
contracting F first ends at a non-isomorphic configuration.
"""

from __future__ import annotations

import enum
import itertools
from collections import namedtuple
from math import ceil, gcd
from typing import TYPE_CHECKING, Iterable, Sequence

import orbiquint

if TYPE_CHECKING:
    from .orbiscroll import FracLike

# orbiscroll is read as an attribute of the package (orbiquint.orbiscroll),
# which loads it, and fractions with it, on first use (PEP 562): the chains,
# the genus arithmetic and the blow-down load neither.


class ResolveError(ValueError):
    """Structured domain error for resolution/genus computations."""


# ---------------------------------------------------------------------------
# Hirzebruch-Jung chains


class Chain(namedtuple("Chain", "ints")):
    """Self-intersection chain b_1..b_k of a minimal CQS resolution:
    ints: tuple[int, ...]."""

    __slots__ = ()
    # namedtuple's _make, which _replace calls, would skip __new__'s check
    _make = classmethod(lambda cls, fields: cls(*fields))

    def __new__(cls, ints: tuple[int, ...]) -> Chain:
        if any(b < 2 for b in ints):
            raise ResolveError("chain entries must all be >= 2")
        return super().__new__(cls, ints)


def hj_expand(r: int, q: int) -> Chain:
    """The chain with r/q = b1 - 1/(b2 - 1/(...)), all bi >= 2."""
    if r == 1 and q == 0:
        return Chain(())
    if not (0 < q < r):
        raise ResolveError(f"need 0 < q < r, got ({r}, {q})")
    if gcd(r, q) != 1:
        raise ResolveError(f"({r}, {q}) not coprime")
    ints = []
    while q > 0:
        b = -(-r // q)  # ceil(r/q)
        ints.append(b)
        r, q = q, b * q - r
    return Chain(tuple(ints))


def hj_reconstruct(chain: Chain) -> tuple[int, int]:
    """Inverse of hj_expand; the empty chain is the smooth marker (1, 0)."""
    r, q = 1, 0
    for b in reversed(chain.ints):
        r, q = b * r - q, r
    return r, q


# ---------------------------------------------------------------------------
# Curve configurations


class Role(enum.Enum):
    FIBER = "FiberComponent"
    DIRECTRIX = "Directrix"
    MAIN = "MainCurve"


# id: str; self_int: int; role: Role
Vertex = namedtuple("Vertex", "id self_int role")
# v, w: str (vertex ids); mult: int
Edge = namedtuple("Edge", "v w mult")


class CurveConfig(namedtuple("CurveConfig", "vertices edges")):
    """Dual graph of a curve configuration; edges form a multiset.
    vertices: list[Vertex]; edges: list[Edge]."""

    __slots__ = ()
    # namedtuple's _make, which _replace calls, would skip __new__'s check
    _make = classmethod(lambda cls, fields: cls(*fields))

    def __new__(cls, vertices: list[Vertex], edges: list[Edge]) -> CurveConfig:
        ids = [v.id for v in vertices]
        if len(set(ids)) != len(ids):
            raise ResolveError("duplicate vertex ids")
        for role in (Role.DIRECTRIX, Role.MAIN):
            if sum(1 for v in vertices if v.role is role) > 1:
                raise ResolveError(f"at most one {role.value} vertex")
        idset = set(ids)
        for e in edges:
            if e.v == e.w:
                raise ResolveError("self-loops are not allowed")
            if e.mult < 1:
                raise ResolveError("edge multiplicities must be >= 1")
            if e.v not in idset or e.w not in idset:
                raise ResolveError(f"edge references unknown vertex: {e}")
        return super().__new__(cls, vertices, edges)

    # -- serialization ------------------------------------------------------

    def to_text(self) -> str:
        lines = [f"v {v.id} {v.self_int} {v.role.value}" for v in self.vertices]
        lines += [f"e {e.v} {e.w} {e.mult}" for e in sorted(self.edges)]
        return "\n".join(lines) + "\n"


def config_isomorphic(c1: CurveConfig, c2: CurveConfig) -> bool:
    """Graph isomorphism respecting roles, self-intersections, and edge
    multiplicity multisets.  Brute force; configs here are tiny."""
    if len(c1.vertices) != len(c2.vertices) or len(c1.edges) != len(c2.edges):
        return False

    def sig(v: Vertex) -> tuple:
        return (v.role.value, v.self_int)

    sig2 = {v.id: sig(v) for v in c2.vertices}
    if sorted(map(sig, c1.vertices)) != sorted(sig2.values()):
        return False

    def edge_multiset(c: CurveConfig, mapping: dict[str, str]) -> list:
        return sorted(
            (*sorted((mapping.get(e.v, e.v), mapping.get(e.w, e.w))), e.mult)
            for e in c.edges
        )

    target = edge_multiset(c2, {})
    for perm in itertools.permutations(sig2):
        mapping = {}
        for v1, id2 in zip(c1.vertices, perm):
            if sig(v1) != sig2[id2]:
                break
            mapping[v1.id] = id2
        else:
            if edge_multiset(c1, mapping) == target:
                return True
    return False


# ---------------------------------------------------------------------------
# Building the resolved central-fiber configuration

AttachSpec = Sequence[tuple[str, int]]


def build_coarse_fiber_config(
    r: int, a: FracLike, attach_spec: AttachSpec = ()
) -> CurveConfig:
    """Central fiber of the minimal resolution of the coarse scroll F_a.

    Vertices: directrix "sigma" (self-int -ceil(a)), the sigma-side
    Hirzebruch-Jung chain "s1".. (resolution chain read from sigma
    toward the fiber: hj_expand(r, (-ra) mod r)), the fiber proper
    transform "F" (-1), the tau-side chain "t1".. (hj_expand(r, ra mod
    r), read from F outward), and, when attach_spec is nonempty, the
    main curve "C" attached at the listed (vertex, multiplicity) points
    (repeated entries are distinct transverse points; multiplicity k > 1
    is a single k-fold tangency).  For r = 1 (or integral a) the fiber
    is the single 0-vertex.

    The sigma side (sigma, the s-chain, F) matches the toric fan of the
    coarse scroll on all 90 non-integral fibers with r <= 12, a <= 2.
    The tau-side chain is verified only for r <= 4, where every chain is
    a palindrome: in the other 40 of those fibers, the first at r = 5,
    a = 2/5, it is read the wrong way round (the fan gives t1, t2 = -2,
    -3; this builds -3, -2), and the fiber components' intersection
    matrix has a zero kernel, so Zariski's lemma fails there.  Reversing
    the sigma-side chain instead also satisfies Zariski's lemma, but
    builds the mirror image of the fan's fiber.
    """
    orbiscroll = orbiquint.orbiscroll
    a = orbiscroll.frac(a)
    sings = orbiscroll.coarse_singularities(r, a)
    vertices: list[Vertex] = []
    edges: list[Edge] = []

    if sings.at_sigma.smooth and sings.at_tau.smooth:
        vertices.append(Vertex("F", 0, Role.FIBER))
    else:
        ra = r * a.numerator // a.denominator  # coarse_singularities checked r*a is an integer
        schain = hj_expand(r, (-ra) % r).ints
        tchain = hj_expand(r, ra % r).ints
        vertices.append(Vertex("sigma", -ceil(a), Role.DIRECTRIX))
        vertices += [Vertex(f"s{i}", -b, Role.FIBER) for i, b in enumerate(schain, 1)]
        vertices.append(Vertex("F", -1, Role.FIBER))
        vertices += [Vertex(f"t{i}", -b, Role.FIBER) for i, b in enumerate(tchain, 1)]
        edges.extend(Edge(v.id, w.id, 1) for v, w in zip(vertices, vertices[1:]))

    if attach_spec:
        vertices.append(Vertex("C", 0, Role.MAIN))
        known = {v.id for v in vertices}
        for target, mult in attach_spec:
            if target not in known:
                raise ResolveError(f"attach_spec references unknown vertex {target!r}")
            edges.append(Edge("C", target, mult))
    return CurveConfig(vertices, edges)


# ---------------------------------------------------------------------------
# Blow-down

# recorded: resolution-contraction diagrams — they need this tie-break; none is stated
def _chain_rank(vid: str) -> tuple:
    """Position along the resolution chain from the directrix end, read
    from the canonical ids sigma, s1.., F, t1..; the id comes last."""
    for group, prefix in enumerate(("sigma", "s", "F", "t")):
        if vid.startswith(prefix):
            digits = vid[len(prefix):]
            if not digits or digits.isdecimal():  # decimal digits of any script
                return (group, int(digits or 0), vid)
    return (4, 0, vid)


def contract_minus_ones(config: CurveConfig) -> CurveConfig:
    """Repeatedly blow down eligible (-1)-curves until none remain.

    Eligible: self-intersection -1 and not the main curve.  Selection
    among eligible vertices: minimal total intersection with the main
    curve, then position along the resolution chain from the directrix
    end (encoded in the canonical vertex ids sigma, s1.., F, t1..), so
    the result is independent of the presentation order of vertices and
    edges.  The first key ties at some steps of the golden diagrams, so
    the result depends on the chain naming too (see the module
    docstring).  The main curve's self-intersection entry is not tracked
    (the source diagrams never label it); it stays as given.

    Each curve's branches are listed when the table is built (a blow-down
    moves branches between points but makes none), so the points on the
    contracted curve are those its branches meet, and only that curve's
    contacts are dropped.  Each step sums every other curve's
    self-intersection gain in one pass over the merged point's branches.
    Vertices keep their order, and edges come out point by point, in the
    order the points were made.
    """
    # per vertex id: its position, its self-intersection, its branches
    # (below) and, until it is contracted, the vertex
    order, self_int, branches, alive, main = {}, {}, {}, {}, None
    for k, v in enumerate(config.vertices):
        u = v.id
        order[u], self_int[u], branches[u], alive[u] = k, v.self_int, [], v
        if v.role is Role.MAIN:
            main = u

    # The branch table (see the module docstring); each edge starts as a
    # point with two branches, branches[u] lists curve u's branches, and
    # contact[i][j] = contact[j][i] is the contact of branches i and j.
    curve: list[str] = []
    points: list[list[int]] = []
    contact: list[dict[int, int]] = []
    for e in config.edges:
        i = len(curve)
        curve += [e.v, e.w]
        branches[e.v].append(i)
        branches[e.w].append(i + 1)
        points.append([i, i + 1])
        contact += [{i + 1: e.mult}, {i: e.mult}]
    on_main = branches[main] if main is not None else []

    while True:
        eligible = [u for u in alive if self_int[u] == -1 and u != main]
        if not eligible:
            break
        vid = eligible[0]
        if len(eligible) > 1:
            # least contact with the main curve, then chain position; the
            # chain rank ends with the id, so the least key names the curve
            keys = []
            for u in eligible:
                c = 0
                for i in branches[u]:
                    for j in on_main:
                        c += contact[i].get(j, 0)
                keys.append((c, *_chain_rank(u)))
            vid = min(keys)[-1]

        # Merge the points on v (see the module docstring): each surviving
        # branch i joins the merged point with d, its contact with v, which
        # is taken out of i's contacts as it is read (v's own branches are
        # never read again).
        on_v = set(branches[vid])
        kept, merged = [], []
        for p in points:
            if on_v.isdisjoint(p):
                kept.append(p)
                continue
            for i in p:
                if i not in on_v:
                    ci = contact[i]
                    d = 0
                    for k in p:
                        if k in on_v:
                            d += ci.pop(k, 0)
                    merged.append((i, d))
        gain: dict[str, int] = {}
        for a, (i, d) in enumerate(merged):
            b, ci = curve[i], contact[i]
            gain[b] = gain.get(b, 0) + d
            for j, e in merged[a + 1:]:
                c = ci.get(j, 0) + d * e
                if c:
                    ci[j] = contact[j][i] = c
        kept.append([i for i, _ in merged])
        points = kept
        gain.pop(main, None)
        for b, g in gain.items():
            self_int[b] += g * g
        del alive[vid]

    vertices = [Vertex(u, self_int[u], v.role) for u, v in alive.items()]
    edges = []
    for p in points:
        for a, i in enumerate(p):
            for j in p[a + 1:]:
                v, w = curve[i], curve[j]
                c = contact[i].get(j, 0)
                if c and v != w:  # a curve's self-contact is not drawn
                    edges.append(Edge(v, w, c) if order[v] < order[w] else Edge(w, v, c))
    return CurveConfig(vertices, edges)


# ---------------------------------------------------------------------------
# A_k singularities and genus arithmetic


def delta_invariant(k: int) -> int:
    """delta(A_k) = ceil(k/2) for the A_k curve singularity germ; zero for
    the degenerate labels A_{-1} (a smooth unramified double point datum)
    and A_0 (a smooth ramified one)."""
    if k < -1:
        raise ResolveError("k must be >= -1")
    if k <= 0:
        return 0
    return (k + 1) // 2


def pa_hirzebruch(l: int, n: int, m: int) -> int:
    """Arithmetic genus of a curve in |n sigma + m F| on the Hirzebruch
    surface F_l: (n-1)(m-1) - l n(n-1)/2.  Here sigma^2 = -l, so the
    classes holding a curve are those with n, m >= 0, other than 0."""
    if l < 0 or n < 0 or m < 0 or n == m == 0:
        raise ResolveError(f"no curve in {n} sigma + {m} F on F_{l}: need l, n, m >= 0, n + m > 0")
    return (n - 1) * (m - 1) - l * n * (n - 1) // 2


def geometric_genus(pa: int, ks: Iterable[int]) -> int:
    """pa minus the total delta invariant of the imposed A_k singularities."""
    g = pa - sum(delta_invariant(k) for k in ks)
    if g < 0:
        raise ResolveError(f"negative geometric genus {g}")
    return g


# ---------------------------------------------------------------------------
# The resolution-contraction diagram items


class DiagramItem(namedtuple("DiagramItem", "r a attach")):
    """Left-hand side of a resolution-contraction diagram: the central
    fiber of the resolved coarse scroll F_a over P^1(r-th root of 0),
    with the main curve attached at the listed (vertex, multiplicity)
    points.  classify.diagram_items derives the paper's 13 items from
    the Table 1 components and their node monodromy.  r: int; a:
    Fraction; attach: tuple[tuple[str, int], ...]."""

    __slots__ = ()

    def build(self) -> CurveConfig:
        return build_coarse_fiber_config(self.r, self.a, self.attach)

    def contract(self) -> CurveConfig:
        return contract_minus_ones(self.build())
