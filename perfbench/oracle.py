"""References and independent checks for the benchmark's output oracle.

Nothing in this module imports orbiquint.  Every expected value is either
a number stated by the source paper, a known answer of the documented
CLI, a textbook formula re-derived here, or (clearly labelled) a
regression pin measured once on the seed code.  A check returns None when
the output is right and a one-line reason when it is wrong.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import ceil, gcd, lcm

# -- paper references --------------------------------------------------------

# Boundary enumeration at covering degree 6d = 18: the one-tail types 6, 7
# and 8 have 14, 36 and 64 dual graphs, the 64 type-8 graphs have 20
# canonical parameter tuples, and types 1-5 are single graphs.
PAPER_D3_TYPE_COUNTS = {1: 1, 2: 1, 3: 1, 4: 1, 5: 1, 6: 14, 7: 36, 8: 64}
PAPER_D3_CANONICAL_TYPE8 = 20

# The main theorem lists 13 boundary divisors, each a stable curve of
# arithmetic genus 6.
THEOREM_INDICES = list(range(1, 14))
THEOREM_GENUS = 6

# Documented CLI answer: `orbiquint resolve --r 3 --q 2` prints [2,2].
KNOWN_RESOLVE = {(3, 2): [2, 2]}

# -- regression pins (seed code, not references) -----------------------------

# (families, graphs, total bytes of CoverGraph.to_json over all graphs) as
# produced by the seed code.  The paper gives no counts beyond d = 3, so
# these only detect a change of output, not a wrong one.
ENUM_PINS = {
    3: (8, 119, 486800),
    4: (12, 308, 1583679),
    5: (15, 784, 4916279),
    6: (19, 2041, 14991383),
}

# -- S4 character table ------------------------------------------------------

# Fixed points of an element of S4, by cycle type, on the 4 points, the 3
# pair-partitions and the 6 transpositions (permutation characters of S4).
S4_FIX = {
    (1, 1, 1, 1): (4, 3, 6),
    (2, 1, 1): (2, 1, 2),
    (2, 2): (0, 3, 2),
    (3, 1): (1, 0, 0),
    (4,): (0, 1, 0),
}


def cycle_type(images: tuple[int, ...]) -> tuple[int, ...]:
    """Cycle type of a permutation given by its 1-based image tuple."""
    seen, lengths = set(), []
    for start in range(1, len(images) + 1):
        n, x = 0, start
        while x not in seen:
            seen.add(x)
            x = images[x - 1]
            n += 1
        if n:
            lengths.append(n)
    return tuple(sorted(lengths, reverse=True))


def fixed_points(images) -> int:
    return sum(1 for i, x in enumerate(images, 1) if i == x)


def cycle_notation(images: tuple[int, ...]) -> str:
    """Cycle notation accepted by the CLI, e.g. "(1 2 3)"; "id" for 1."""
    seen, out = set(), []
    for start in range(1, len(images) + 1):
        cyc, x = [], start
        while x not in seen:
            seen.add(x)
            cyc.append(x)
            x = images[x - 1]
        if len(cyc) > 1:
            out.append("(" + " ".join(map(str, cyc)) + ")")
    return "".join(out) or "id"


# -- arithmetic re-derived here ----------------------------------------------


def hj_chain(r: int, q: int) -> list[int]:
    """Hirzebruch-Jung continued fraction of r/q, 0 < q < r: all entries >= 2."""
    ints = []
    while q > 0:
        b = -(-r // q)
        ints.append(b)
        r, q = q, b * q - r
    return ints


def chain_value(ints) -> Fraction:
    """b1 - 1/(b2 - 1/(...)) for a Hirzebruch-Jung chain."""
    value = Fraction(ints[-1])
    for b in reversed(ints[:-1]):
        value = b - 1 / value
    return value


def check_hj_chain(r: int, q: int, ints) -> str | None:
    ints = list(ints)
    if not ints or any(b < 2 for b in ints):
        return f"chain {ints} for {r}/{q} has an entry < 2"
    if chain_value(ints) != Fraction(r, q):
        return f"chain {ints} evaluates to {chain_value(ints)}, not {r}/{q}"
    return None


def delta_ak(k: int) -> int:
    """delta invariant of an A_k curve singularity: ceil(k/2)."""
    return (k + 1) // 2 if k > 0 else 0


def genus_reference(l: int, n: int, m: int, aks) -> tuple[int, int]:
    """(arithmetic genus of n sigma + m F on F_l, geometric genus)."""
    pa = (n - 1) * (m - 1) - l * n * (n - 1) // 2
    return pa, pa - sum(delta_ak(k) for k in aks)


def parity_reference(pieces) -> str | None:
    """"Even"/"Odd" by the total, None when the total is not integral."""
    total = sum((Fraction(p) for p in pieces), Fraction(0))
    if total.denominator != 1:
        return None
    return "Even" if total.numerator % 2 == 0 else "Odd"


def coarse_reference(r: int, a: Fraction) -> dict:
    """Coarse singularities of F_a over P^1(r-th root of 0), non-integral a:
    1/r(1, ra) at sigma(0), 1/r(1, -ra) at tau(0); the fiber multiplicity
    is the denominator of a."""
    ra = int(r * a)
    return {
        "at_sigma": {"r": r, "q": ra % r},
        "at_tau": {"r": r, "q": (-ra) % r},
        "fiber_multiplicity": a.denominator,
    }


def tetragonal_genus(r: int, b: int) -> int | None:
    """Genus of a degree-4 cover of P^1 with b simple branch points and an
    orbinode whose monodromy has order r: 2g - 2 = -8 + b + (4 - orbits).
    The orbits are those of an order-r element of S4; genus integrality
    picks between the two cycle types of order 2.  None when no genus
    >= -1 exists."""
    orbits = [len(ct) for ct in S4_FIX if lcm(*ct) == r and (b - len(ct)) % 2 == 0]
    if len(orbits) != 1:
        return None
    g = (b - orbits[0] - 2) // 2
    return g if g >= -1 else None


def fiber_config(r: int, a: Fraction, attach) -> tuple[list, list]:
    """Resolved central fiber of the coarse scroll F_a over P^1(r-th root
    of 0), non-integral a, as documented: directrix sigma (-ceil a), the
    chain hj(r, -ra mod r) from sigma, F (-1), the chain hj(r, ra mod r),
    and the main curve C at the attach points when there are any.
    Vertices are (id, (role, self-intersection)), edges (v, w, mult)."""
    ra = int(r * a)
    schain, tchain = hj_chain(r, (-ra) % r), hj_chain(r, ra % r)
    verts = [("sigma", ("Directrix", -ceil(a)))]
    verts += [(f"s{i}", ("FiberComponent", -b)) for i, b in enumerate(schain, 1)]
    verts += [("F", ("FiberComponent", -1))]
    verts += [(f"t{i}", ("FiberComponent", -b)) for i, b in enumerate(tchain, 1)]
    path = [vid for vid, _ in verts]
    edges = [(v, w, 1) for v, w in zip(path, path[1:])]
    if attach:
        verts.append(("C", ("MainCurve", 0)))
        edges += [("C", target, mult) for target, mult in attach]
    return verts, edges


def stable_genus(vertices, edges) -> int:
    """Arithmetic genus of a nodal curve: sum g_v + |E| - |V| + 1."""
    return sum(v["genus"] for v in vertices) + len(edges) - len(vertices) + 1


# -- configuration invariant -------------------------------------------------


def refinement_signatures(configs) -> list:
    """Colour-refinement signature of each configuration, comparable across
    the given list.  Each config is (vertices, edges) with vertices as
    (id, label) pairs and edges as (v, w, mult) triples.  Different
    signatures prove two configurations non-isomorphic."""
    palette: dict = {}
    colours = []
    for verts, _ in configs:
        colours.append({vid: palette.setdefault(("init", lab), len(palette))
                        for vid, lab in verts})
    for _ in range(max(len(v) for v, _ in configs)):
        new = []
        for (verts, edges), col in zip(configs, colours):
            nbrs = {vid: [] for vid, _ in verts}
            for v, w, mult in edges:
                nbrs[v].append((col[w], mult))
                nbrs[w].append((col[v], mult))
            new.append({
                vid: palette.setdefault((col[vid], tuple(sorted(nbrs[vid]))),
                                        len(palette))
                for vid, _ in verts
            })
        colours = new
    return [sorted(col.values()) for col in colours]


# -- cover graphs ------------------------------------------------------------

PART = {"0": 2, "1": 3, "inf": 1}


def node_locals(graph) -> dict[tuple[str, str], list[int]]:
    locs: dict[tuple[str, str], list[int]] = {}
    for e in graph.node_edges:
        locs.setdefault(("main", e.main_id), []).append(e.local_degree)
        locs.setdefault(("tail", e.tail_id), []).append(e.local_degree)
    return locs


def degree_violation(graph) -> str | None:
    """A degree-count reason why a cover graph is inadmissible, or None.

    Over each side of the base the component degrees sum to 6d, and the
    node locals at each component sum to its degree."""
    total = 6 * graph.d
    for side in ("main", "tail"):
        deg = sum(c.degree for c in graph.components if c.side == side)
        if deg != total:
            return f"{side} degree {deg} != {total}"
    locs = node_locals(graph)
    for c in graph.components:
        if sum(locs.get((c.side, c.id), [])) != c.degree:
            return f"node fiber of {c.id} does not sum to {c.degree}"
    return None


def cover_violation(graph) -> str | None:
    """Full admissibility re-derived here: degree counts, profiles of all
    2s over 0, 3s over 1, 1s over infinity, Riemann-Hurwitz on every
    component, and conservation of the 5d - 2 moving branch points."""
    why = degree_violation(graph)
    if why:
        return why
    locs = node_locals(graph)
    for c in graph.components:
        ram = 0
        for pt, prof in c.profiles:
            if any(p != PART[pt] for p in prof.parts) or sum(prof.parts) != c.degree:
                return f"bad profile over {pt} on {c.id}"
            ram += sum(p - 1 for p in prof.parts)
        ram += sum(x - 1 for x in locs.get((c.side, c.id), []))
        if 2 * c.genus - 2 != -2 * c.degree + ram + c.beta or c.beta < 0:
            return f"Riemann-Hurwitz fails on {c.id}"
    beta = sum(c.beta for c in graph.components)
    if beta != 5 * graph.d - 2:
        return f"branch points {beta} != {5 * graph.d - 2}"
    return None


def perturbation_count(graph) -> int:
    """Number of single +-1 perturbations that keep every degree >= 1."""
    return (sum(2 if e.local_degree > 1 else 1 for e in graph.node_edges)
            + sum(2 if c.degree > 1 else 1 for c in graph.components))


def check_enumeration(d: int, families, json_bytes: int) -> str | None:
    """Oracle for one enumerate op: paper counts at d = 3, regression pins
    at every d, and branch-point conservation on every graph."""
    counts = {f.type_index: len(f.graphs) for f in families}
    graphs = sum(counts.values())
    if d == 3:
        if counts != PAPER_D3_TYPE_COUNTS:
            return f"d=3 family counts {counts}"
        canon = {tuple(sorted(g.params)) for f in families if f.type_index == 8
                 for g in f.graphs}
        if len(canon) != PAPER_D3_CANONICAL_TYPE8:
            return f"d=3 type 8 has {len(canon)} canonical tuples"
    if d in ENUM_PINS and (len(families), graphs, json_bytes) != ENUM_PINS[d]:
        return (f"d={d} (families, graphs, bytes) = "
                f"{(len(families), graphs, json_bytes)}, pinned {ENUM_PINS[d]}")
    for f in families:
        for g in f.graphs:
            beta = sum(c.beta for c in g.components)
            if beta != 5 * d - 2:
                return f"d={d} type {f.type_index}: {beta} branch points"
    return None


def check_boundary_json(d: int, text: str) -> str | None:
    """Oracle for `boundary-graphs --d 3 --format json`."""
    fams = json.loads(text)
    counts = {f["type"]: f["count"] for f in fams}
    if d == 3 and counts != PAPER_D3_TYPE_COUNTS:
        return f"family counts {counts}"
    for f in fams:
        if f["count"] != len(f["graphs"]):
            return f"type {f['type']}: count field disagrees with graphs"
        for g in f["graphs"]:
            if sum(c["beta"] for c in g["components"]) != 5 * d - 2:
                return f"type {f['type']}: branch points not conserved"
    canon = {tuple(sorted(g["params"])) for f in fams if f["type"] == 8
             for g in f["graphs"]}
    if d == 3 and len(canon) != PAPER_D3_CANONICAL_TYPE8:
        return f"{len(canon)} canonical type-8 tuples"
    return None


def check_theorem(records) -> str | None:
    """Oracle for the classification: items 1-13, each of genus 6."""
    if [r["index"] for r in records] != THEOREM_INDICES:
        return f"indices {[r['index'] for r in records]}"
    for r in records:
        sc = r["stable_curve"]
        if stable_genus(sc["vertices"], sc["edges"]) != THEOREM_GENUS:
            return f"item {r['index']} does not have genus {THEOREM_GENUS}"
        if not r["sources"]:
            return f"item {r['index']} has no source"
    return None


def coprime_pair(rng, r_max: int) -> tuple[int, int]:
    """A random (r, q) with 0 < q < r <= r_max and gcd(r, q) = 1."""
    while True:
        r = rng.randint(2, r_max)
        q = rng.randint(1, r - 1)
        if gcd(r, q) == 1:
            return r, q
