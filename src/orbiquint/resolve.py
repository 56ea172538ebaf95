"""Hirzebruch-Jung resolution chains and blow-down of curve configurations.

The central objects are CurveConfig dual graphs: vertices are curves on a
smooth surface (components of the fiber over 0, the directrix sigma, and
the main curve C) labeled by self-intersection, edges are intersection
points labeled by the local intersection multiplicity (an edge of
multiplicity k is a single k-fold contact; parallel unit edges are
distinct transverse points).

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
import re
from dataclasses import dataclass, field
from fractions import Fraction
from math import ceil, gcd
from typing import Iterable, Sequence

from .orbiscroll import FracLike, coarse_singularities, frac


class ResolveError(ValueError):
    """Structured domain error for resolution/genus computations."""


# ---------------------------------------------------------------------------
# Hirzebruch-Jung chains


@dataclass(frozen=True)
class Chain:
    """Self-intersection chain b_1..b_k of a minimal CQS resolution."""

    ints: tuple[int, ...]

    def __post_init__(self) -> None:
        if any(b < 2 for b in self.ints):
            raise ResolveError("chain entries must all be >= 2")


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


def hj_reconstruct(chain: Chain | Sequence[int]) -> tuple[int, int]:
    """Inverse of hj_expand; the empty chain is the smooth marker (1, 0)."""
    if not isinstance(chain, Chain):
        chain = Chain(tuple(chain))
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


@dataclass(frozen=True)
class Vertex:
    id: str
    self_int: int
    role: Role


@dataclass(frozen=True)
class Edge:
    v: str
    w: str
    mult: int


@dataclass
class CurveConfig:
    """Dual graph of a curve configuration; edges form a multiset."""

    vertices: list[Vertex] = field(default_factory=list)
    edges: list[Edge] = field(default_factory=list)

    def __post_init__(self) -> None:
        ids = [v.id for v in self.vertices]
        if len(set(ids)) != len(ids):
            raise ResolveError("duplicate vertex ids")
        for role in (Role.DIRECTRIX, Role.MAIN):
            if sum(1 for v in self.vertices if v.role is role) > 1:
                raise ResolveError(f"at most one {role.value} vertex")
        idset = set(ids)
        for e in self.edges:
            if e.v == e.w:
                raise ResolveError("self-loops are not allowed")
            if e.mult < 1:
                raise ResolveError("edge multiplicities must be >= 1")
            if e.v not in idset or e.w not in idset:
                raise ResolveError(f"edge references unknown vertex: {e}")

    def vertex(self, vid: str) -> Vertex:
        for v in self.vertices:
            if v.id == vid:
                return v
        raise KeyError(vid)

    # -- serialization ------------------------------------------------------

    def to_text(self) -> str:
        lines = [f"v {v.id} {v.self_int} {v.role.value}" for v in self.vertices]
        for e in sorted(self.edges, key=lambda e: (e.v, e.w, e.mult)):
            lines.append(f"e {e.v} {e.w} {e.mult}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "CurveConfig":
        vertices, edges = [], []
        for line in text.splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if parts[0] == "v" and len(parts) == 4:
                vertices.append(Vertex(parts[1], int(parts[2]), Role(parts[3])))
            elif parts[0] == "e" and len(parts) == 4:
                edges.append(Edge(parts[1], parts[2], int(parts[3])))
            else:
                raise ResolveError(f"bad config line: {line!r}")
        return cls(vertices, edges)

    def to_dot(self) -> str:
        lines = ["graph config {"]
        for v in self.vertices:
            shape = {"Directrix": "box", "MainCurve": "doublecircle"}.get(
                v.role.value, "circle"
            )
            lines.append(
                f'  "{v.id}" [label="{v.id} ({v.self_int})", shape={shape}];'
            )
        for e in sorted(self.edges, key=lambda e: (e.v, e.w, e.mult)):
            label = f' [label="{e.mult}"]' if e.mult != 1 else ""
            lines.append(f'  "{e.v}" -- "{e.w}"{label};')
        lines.append("}")
        return "\n".join(lines) + "\n"


def config_isomorphic(c1: CurveConfig, c2: CurveConfig) -> bool:
    """Graph isomorphism respecting roles, self-intersections, and edge
    multiplicity multisets.  Brute force; configs here are tiny."""
    if len(c1.vertices) != len(c2.vertices) or len(c1.edges) != len(c2.edges):
        return False

    def sig(v: Vertex) -> tuple:
        return (v.role.value, v.self_int)

    if sorted(map(sig, c1.vertices)) != sorted(map(sig, c2.vertices)):
        return False

    def edge_multiset(c: CurveConfig, mapping: dict[str, str]) -> list:
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
            if sig(v1) != sig(c2.vertex(id2)):
                ok = False
                break
            mapping[v1.id] = id2
        if ok and edge_multiset(c1, mapping) == target:
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

    The chains are verified only for r <= 4, where every chain is a
    palindrome.  For r >= 5 the sigma-side chain can be read the wrong
    way round: in 40 of the 90 non-integral fibers with r <= 12, a <= 2,
    the first at r = 5, a = 2/5, the fiber components' intersection
    matrix has a zero kernel, so Zariski's lemma fails there.
    """
    a = frac(a)
    sings = coarse_singularities(r, a)
    vertices: list[Vertex] = []
    edges: list[Edge] = []

    if sings.at_sigma.smooth and sings.at_tau.smooth:
        vertices.append(Vertex("F", 0, Role.FIBER))
    else:
        ra = (r * a).numerator
        schain = hj_expand(r, (-ra) % r).ints
        tchain = hj_expand(r, ra % r).ints
        vertices.append(Vertex("sigma", -ceil(a), Role.DIRECTRIX))
        path = ["sigma"]
        for i, b in enumerate(schain, 1):
            vertices.append(Vertex(f"s{i}", -b, Role.FIBER))
            path.append(f"s{i}")
        vertices.append(Vertex("F", -1, Role.FIBER))
        path.append("F")
        for i, b in enumerate(tchain, 1):
            vertices.append(Vertex(f"t{i}", -b, Role.FIBER))
            path.append(f"t{i}")
        edges.extend(Edge(v, w, 1) for v, w in zip(path, path[1:]))

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
    """

    def chain_rank(vid: str) -> tuple:
        m = re.fullmatch(r"(sigma|s|F|t)(\d*)", vid)
        if not m:
            return (4, 0, vid)
        group = {"sigma": 0, "s": 1, "F": 2, "t": 3}[m.group(1)]
        return (group, int(m.group(2) or 0), vid)

    order = {v.id: i for i, v in enumerate(config.vertices)}
    self_int = {v.id: v.self_int for v in config.vertices}
    role = {v.id: v.role for v in config.vertices}
    main = next((v.id for v in config.vertices if v.role is Role.MAIN), None)

    # The branch table (see the module docstring); each edge starts as a
    # point with two branches.
    curve: list[str] = []
    points: list[list[int]] = []
    contact: dict[tuple[int, int], int] = {}
    for e in config.edges:
        i = len(curve)
        curve += [e.v, e.w]
        points.append([i, i + 1])
        contact[(i, i + 1)] = e.mult

    def pair(i: int, j: int) -> tuple[int, int]:
        return (i, j) if i < j else (j, i)

    alive = [v.id for v in config.vertices]
    while True:
        eligible = [u for u in alive if self_int[u] == -1 and u != main]
        if not eligible:
            break
        main_contact = dict.fromkeys(eligible, 0)
        for (i, j), c in contact.items():
            if curve[j] == main and curve[i] in main_contact:
                main_contact[curve[i]] += c
            elif curve[i] == main and curve[j] in main_contact:
                main_contact[curve[j]] += c
        vid = min(eligible, key=lambda u: (main_contact[u], chain_rank(u)))

        # Merge the points on v (see the module docstring); d[i] is the
        # contact of surviving branch i with v.
        on_v = [p for p in points if vid in map(curve.__getitem__, p)]
        points = [p for p in points if vid not in map(curve.__getitem__, p)]
        d = {i: sum(contact.get(pair(i, k), 0) for k in p if curve[k] == vid)
             for p in on_v for i in p if curve[i] != vid}
        merged = list(d)
        for a, i in enumerate(merged):
            for j in merged[a + 1:]:
                c = contact.get(pair(i, j), 0) + d[i] * d[j]
                if c:
                    contact[pair(i, j)] = c
        contact = {(i, j): c for (i, j), c in contact.items()
                   if vid not in (curve[i], curve[j])}
        points.append(merged)
        for b in {curve[i] for i in merged} - {main}:
            self_int[b] += sum(d[i] for i in merged if curve[i] == b) ** 2
        alive.remove(vid)

    vertices = [Vertex(vid, self_int[vid], role[vid]) for vid in alive]
    edges = []
    for p in points:
        for a, i in enumerate(p):
            for j in p[a + 1:]:
                c = contact.get(pair(i, j), 0)
                if c and curve[i] != curve[j]:  # a curve's self-contact is not drawn
                    v, w = sorted((curve[i], curve[j]), key=order.__getitem__)
                    edges.append(Edge(v, w, c))
    return CurveConfig(vertices, edges)


# ---------------------------------------------------------------------------
# A_k singularities and genus arithmetic


@dataclass(frozen=True)
class AkSing:
    """A_k curve singularity germ; A_{-1} is a smooth unramified double
    point datum and A_0 a smooth ramified one."""

    k: int

    def __post_init__(self) -> None:
        if self.k < -1:
            raise ResolveError("k must be >= -1")


def delta_invariant(sing: AkSing | int) -> int:
    """delta(A_k) = ceil(k/2); zero for the degenerate labels A_{-1}, A_0."""
    k = sing.k if isinstance(sing, AkSing) else AkSing(k=sing).k
    if k <= 0:
        return 0
    return (k + 1) // 2


def pa_hirzebruch(l: int, n: int, m: int) -> int:
    """Arithmetic genus of a curve in |n sigma + m F| on the Hirzebruch
    surface F_l: (n-1)(m-1) - l n(n-1)/2."""
    if l < 0 or n < 0:
        raise ResolveError("need l, n >= 0")
    return (n - 1) * (m - 1) - l * n * (n - 1) // 2


def geometric_genus(pa: int, sings: Iterable[AkSing | int]) -> int:
    """pa minus the total delta invariant of the imposed singularities."""
    g = pa - sum(delta_invariant(s) for s in sings)
    if g < 0:
        raise ResolveError(f"negative geometric genus {g}")
    return g


# ---------------------------------------------------------------------------
# The 13 resolution-contraction diagram items


@dataclass(frozen=True)
class DiagramItem:
    """Left-hand side of a resolution-contraction diagram: the central
    fiber of the resolved coarse scroll F_a over P^1(r-th root of 0),
    with the main curve attached at the listed (vertex, multiplicity)
    points."""

    r: int
    a: Fraction
    attach: tuple[tuple[str, int], ...]

    def build(self) -> CurveConfig:
        return build_coarse_fiber_config(self.r, self.a, self.attach)

    def contract(self) -> CurveConfig:
        return contract_minus_ones(self.build())


DIAGRAM_ITEMS: dict[int, DiagramItem] = {
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
