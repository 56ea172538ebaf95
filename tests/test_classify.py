import itertools
from fractions import Fraction
from math import gcd
from pathlib import Path
from types import MappingProxyType

import pytest
from hypothesis import given, strategies as st

from orbiquint import classify, covergraphs
from orbiquint.classify import (
    ClassifyError,
    Mark,
    PARITY_UNCONFIRMED_ROWS,
    ROWS_LOW_DIMENSION,
    StableCurveDesc,
    TABLE2_ROWS,
    TABLE3_ROWS,
    THEOREM_DESCRIPTIONS,
    Table1Row,
    Tag,
    VertexDesc,
    classify_type_1_5,
    classify_type_6,
    classify_type_7,
    classify_type_8,
    component_genus,
    component_genus_adjunction,
    enumerate_c1_models,
    enumerate_c2_models,
    hyperelliptic_tail_genus,
    local_models,
    diagram_items,
    match,
    node_cycle_type,
    stable_pa,
    table1,
    theorem_divisors,
    type6_main_genus,
    type7_row_parity,
    type7_section_parities,
)
from orbiquint.covergraphs import R_OPTIONS, enumerate_boundary_types, rh_ramification
from orbiquint.orbiscroll import tetragonal_branch_relation
from orbiquint.parity import Parity, SectionClass, section_parity, tail_section_contribution
from orbiquint.recillas import CYCLE_TYPES

from oracles import RECORDED_DIAGRAM_ITEMS, fraction_main_curve_contacts


def test_table1_shape():
    rows = table1()
    assert len(rows) == 16
    assert [r.graph_type for r in rows] == [1] * 4 + [2] * 3 + [3] * 3 + [4] * 4 + [5] * 2
    assert [r.row for r in rows] == list(range(1, 17))
    # spot checks against the printed table
    r4 = rows[3]
    assert (r4.r, r4.v1, r4.v2) == (2, Fraction(1, 2), Fraction(1, 2))
    assert (r4.m1, r4.m2, r4.g1, r4.g2) == (3, 2, 4, 1)
    r8 = rows[7]
    assert (r8.g1, r8.g2, r8.disc2) == (5, -1, True)
    r14 = rows[13]
    assert (r14.v1, r14.v2, r14.disc1) == (Fraction(5, 3), Fraction(-2, 3), True)


def test_table1_signed_sum():
    for r in table1():
        assert abs(r.v1 + r.v2) == 1


def test_node_cycle_type():
    assert node_cycle_type(1, 12) == (1, 1, 1, 1)
    assert node_cycle_type(2, 12) == (2, 2)
    assert node_cycle_type(2, 9) == (2, 1, 1)
    assert node_cycle_type(3, 10) == (3, 1)
    assert node_cycle_type(4, 9) == (4,)
    with pytest.raises(ClassifyError):
        node_cycle_type(5, 9)


def _node_orbit_count_literal(r, b):
    """Oracle: the orbit count as first written, one cycle type per order,
    with the parity of b choosing at r = 2."""
    if r == 1:
        return 4
    if r == 2:
        return 2 if b % 2 == 0 else 3
    if r == 3:
        return 2
    if r == 4:
        return 1
    raise ValueError(r)


def test_node_cycle_type_is_s4_cycle_count():
    # the orbit count of the type read off S4 is the literal's wherever the
    # literal gives an even ramification b + 4 - orbits, and is refused
    # everywhere else: odd b at r = 1 and 3, even b at r = 4, and orders
    # S4 does not have
    assert CYCLE_TYPES[4] == {1: ((1, 1, 1, 1),), 2: ((2, 2), (2, 1, 1)), 3: ((3, 1),), 4: ((4,),)}
    for r in range(1, 5):
        for b in range(41):
            old = _node_orbit_count_literal(r, b)
            if (b + 4 - old) % 2 == 0:
                assert len(node_cycle_type(r, b)) == old, (r, b)
            else:
                with pytest.raises(ClassifyError, match=f"order {r} on 4 .* at b={b}$"):
                    node_cycle_type(r, b)
    for r in (0, 5):
        for b in range(41):
            with pytest.raises(ClassifyError):
                node_cycle_type(r, b)


def test_node_cycle_type_on_three_sheets():
    # the residual of a disc component has 3 sheets: S3 has one type per
    # order, kept where b + 3 - orbits is even, and no element of order 4
    assert CYCLE_TYPES[3] == {1: ((1, 1, 1),), 2: ((2, 1),), 3: ((3,),)}
    for b in range(41):
        for r, cycle in ((1, (1, 1, 1)), (2, (2, 1)), (3, (3,))):
            if (b + 3 - len(cycle)) % 2 == 0:
                assert node_cycle_type(r, b, sheets=3) == cycle, (r, b)
            else:
                with pytest.raises(ClassifyError, match=f"order {r} on 3 .* at b={b}$"):
                    node_cycle_type(r, b, sheets=3)
        with pytest.raises(ClassifyError):
            node_cycle_type(4, b, sheets=3)
    assert node_cycle_type(2, 9, sheets=3) == (2, 1)
    assert node_cycle_type(3, 8, sheets=3) == (3,)


def test_diagram_items_match_the_recorded_diagrams():
    # the derived items have the drawn (r, a) and the drawn contacts of
    # the main curve, in the drawn order except on item 4, which lists
    # sigma last while the derivation lists it first (as items 3, 6, 9 do)
    items = diagram_items(table1())
    assert sorted(items) == sorted(RECORDED_DIAGRAM_ITEMS) == list(range(1, 14))
    for n, item in items.items():
        recorded = RECORDED_DIAGRAM_ITEMS[n]
        assert (item.r, item.a) == (recorded.r, recorded.a), n
        assert sorted(item.attach) == sorted(recorded.attach), n
        assert (item.attach == recorded.attach) is (n != 4), n
    assert items[4].attach[0] == ("sigma", 1)


def _row(graph_type, r, v, m, disc=False):
    """A synthetic Table 1 row whose two components are both (v, m), with
    the branch counts of its graph type."""
    b1, b2 = classify._branch_pairs()[graph_type]
    return Table1Row(1, graph_type, r, v, v, m, m, 2, 2, disc, disc, b1, b2)


def test_diagram_items_refuse_sheets_the_rule_does_not_place():
    # type 2 has b = 9: at r = 2 the node is (2,1,1), two fixed sheets,
    # and C.sigma = 3 - 2 = 1 is integral, so neither sits at sigma(0);
    # type 1 has b = 12 and 6: (2,2) has no fixed sheet, yet
    # C.sigma = 5/2 - 2 is not integral; and C.sigma = 1 - 2 is negative
    half = Fraction(1, 2)
    for row in (_row(2, 2, half, Fraction(3)), _row(1, 2, half, Fraction(5, 2)),
                _row(1, 2, half, Fraction(1))):
        with pytest.raises(ClassifyError, match="fixed sheets"):
            diagram_items([row])
    # a component of genus 6, or with integral a, gives no item
    assert diagram_items([_row(1, 2, half, Fraction(5, 2))._replace(g1=6, g2=0)]) == {}
    assert diagram_items([_row(1, 2, Fraction(1), Fraction(3))]) == {}


def _contacts_or_refusal(route, *args):
    try:
        return route(*args)
    except ClassifyError as exc:
        return str(exc)


def test_main_curve_contacts_match_the_fraction_route():
    # the integer route gives the Fraction route's attach tuple, or its
    # refusal word for word, over r = 1..4, k coprime to r with k/r <= 3,
    # b = 0..40 and both disc values, with m on the branch relation and
    # off it by -1, -1/2, 1/3 and 1/2 (as _row(2, 2, 1/2, 3) is off it)
    outcomes = set()
    for r in range(1, 5):
        for k in (k for k in range(3 * r + 1) if gcd(k, r) == 1):
            a = Fraction(k, r)
            for b in range(41):
                on = tetragonal_branch_relation(a, b).m
                for m in (on + d for d in (0, -1, Fraction(-1, 2), Fraction(1, 3), Fraction(1, 2))):
                    for disc in (False, True):
                        want = _contacts_or_refusal(fraction_main_curve_contacts,
                                                    r, a, m, disc, b)
                        got = _contacts_or_refusal(classify._main_curve_contacts, r, k,
                                                   m.numerator, m.denominator, disc, b)
                        assert got == want, (r, a, m, disc, b)
                        outcomes.add(type(want))
    assert outcomes == {tuple, str}


def test_dual_route_genus():
    for r in table1():
        pair = classify._branch_pairs()[r.graph_type]
        assert component_genus(r.r, pair[0]) == r.g1
        assert component_genus_adjunction(r.r, r.m1, abs(r.v1), pair[0]) == r.g1
        assert component_genus_adjunction(r.r, r.m2, abs(r.v2), pair[1]) == r.g2


def _genus_or_none(route, *args):
    try:
        return route(*args)
    except ClassifyError:
        return None


def test_genus_routes_agree_on_grid():
    # the Riemann-Hurwitz and adjunction routes give the same genus, or
    # both refuse (non-integral or below -1, e.g. r = 1, b = 0 gives -3),
    # over r = 1..4, b = 0..40 and every twist a = k/r <= 3
    for r in range(1, 5):
        for b in range(41):
            rh = _genus_or_none(component_genus, r, b)
            assert rh is None or rh >= -1
            for k in range(3 * r + 1):
                a = Fraction(k, r)
                m = tetragonal_branch_relation(a, b).m
                assert _genus_or_none(component_genus_adjunction, r, m, a, b) == rh, (r, b, a)


def test_hyperelliptic_tail_ramification():
    # the tail count of type7_section_parities: 2g + 2 Weierstrass points
    # on a hyperelliptic tail, none on the empty tail g = -1
    for g in range(-1, 11):
        assert rh_ramification(2, g) == (0 if g < 0 else 2 * g + 2)


def test_table1_disc_is_disjoint_directrix():
    # disc marks a component that is the directrix plus a residual curve:
    # C.sigma = m - 4|v| equals -|v|, i.e. |v| = b/6
    pairs = classify._branch_pairs()
    for row in table1():
        for v, m, b, disc in zip((row.v1, row.v2), (row.m1, row.m2),
                                 pairs[row.graph_type], (row.disc1, row.disc2)):
            assert disc == (m - 4 * abs(v) == -abs(v)) == (abs(v) == Fraction(b, 6))


def _sign_search_pairs(r, b1, b2):
    """Reference route to classify._twist_pairs: every sign choice on the
    smooth numerators k = r*a (12k <= rb or 6k = rb, gcd(k, r) = 1) with
    |k1 + k2| = r, each pair folded to its least form under the overall
    sign and, when b1 = b2, the swap."""
    def smooth(b):
        return [k for k in range(r * b // 6 + 1)
                if gcd(k, r) == 1 and (12 * k <= r * b or 6 * k == r * b)]

    def sign_canon(p):
        first = p[0] if p[0] != 0 else p[1]
        return (-p[0], -p[1]) if first < 0 else p

    found = set()
    for k1, k2 in itertools.product(smooth(b1), smooth(b2)):
        for s1, s2 in itertools.product((1, -1), repeat=2):
            if (k1 == 0 and s1 < 0) or (k2 == 0 and s2 < 0):
                continue
            if abs(s1 * k1 + s2 * k2) != r:
                continue
            v = (s1 * k1, s2 * k2)
            reps = [sign_canon(v)] + ([sign_canon(v[::-1])] if b1 == b2 else [])
            found.add(min(reps, key=lambda p: (abs(p[0]), abs(p[1]), p[0], p[1])))
    return sorted(found)


def test_twist_pairs_match_sign_search():
    # the canonical pairs listed directly equal the folded four-way sign
    # search over r <= 8 and b1, b2 <= 36, and each pair carries the
    # branch relations of its twists |k1|/r and |k2|/r
    for r in range(1, 9):
        for b1 in range(37):
            for b2 in range(37):
                got = classify._twist_pairs(r, b1, b2)
                assert [p[:2] for p in got] == _sign_search_pairs(r, b1, b2), (r, b1, b2)
                for k1, k2, rel1, rel2 in got:
                    assert rel1 == tetragonal_branch_relation(Fraction(abs(k1), r), b1)
                    assert rel2 == tetragonal_branch_relation(Fraction(abs(k2), r), b2)


def test_table1_builds_one_relation_per_candidate_twist(monkeypatch):
    # m and disc are read off the relations that admitted each twist: the
    # smoothness criterion is tested in integers first, so one relation
    # per smooth coprime candidate k/r and branch count (33 of the 42
    # candidates), none rebuilt per row
    calls = []
    real = classify.tetragonal_branch_relation

    def counted(a, b):
        calls.append((a, b))
        return real(a, b)

    monkeypatch.setattr(classify, "tetragonal_branch_relation", counted)
    table1()
    assert len(calls) == 33


def test_hyperelliptic_tail_genus():
    assert [hyperelliptic_tail_genus(i) for i in (2, 3, 4, 5, 6, 7, 8, 9)] == [
        0, 1, 1, 2, 2, 3, 3, 4,
    ]
    # the even-i value i/2 - 1 the main theorem's items at i = 4, 6, 8
    # need is the A_{i-1} floor, not a separate case
    assert all(hyperelliptic_tail_genus(i) == i // 2 - 1 for i in range(2, 2000, 2))
    with pytest.raises(ClassifyError):
        hyperelliptic_tail_genus(0)


def test_type6_main_genus():
    # normalization of a one-nodal plane quintic model
    assert type6_main_genus(2) == 5
    assert type6_main_genus(9) == 2


# the type (6) divisor map as the paper records it, kept as the oracle
# for the matcher that now derives it
_TYPE6_ODD = {3: 3, 5: 4, 7: 5, 9: 7}
_TYPE6_EVEN = {2: 1, 4: 9, 6: 11, 8: 12}


def test_type6_map_matches_the_recorded_tables():
    pairs = [(t, f"type(6) i={i}") for i, t in _TYPE6_ODD.items()]
    pairs += [(t, f"type(6) i={i} irreducible") for i, t in _TYPE6_EVEN.items()]
    pairs += [(3, "type(6) i=2 reducible"), (6, "type(6) i=4 reducible"),
              (8, "type(6) i=6 reducible")]
    assert classify_type_6() == classify._records(pairs)


def _use_descriptions(monkeypatch, descriptions):
    # the descriptions are read-only and match searches them through an
    # index built at import, so a test swaps in other descriptions and
    # their index together
    monkeypatch.setattr(classify, "THEOREM_DESCRIPTIONS", MappingProxyType(descriptions))
    monkeypatch.setattr(classify, "_THEOREM_BY_SHAPE", classify._index_by_shape(descriptions))


def test_type6_refuses_two_candidates(monkeypatch):
    # description 6's hyperelliptic genus-3 vertex given a Weierstrass
    # point now also fits the i = 7 curve, whose tail carries one
    six = THEOREM_DESCRIPTIONS[6]
    hyp = six.vertices[1]._replace(marks=frozenset({Mark.WEIERSTRASS}))
    _use_descriptions(monkeypatch, {
        **THEOREM_DESCRIPTIONS, 6: StableCurveDesc((six.vertices[0], hyp), six.edges)})
    assert match(classify._type6_curve(7), frozenset({Tag.HYPERELLIPTIC})) == [5, 6]
    with pytest.raises(ClassifyError, match=r"type\(6\) i=7 fits divisors \[5, 6\]"):
        classify_type_6()


def test_type6_refuses_no_candidate(monkeypatch):
    # description 7's genus-4 vertex stripped of its Weierstrass point no
    # longer fits the i = 9 tail
    seven = THEOREM_DESCRIPTIONS[7]
    bare = seven.vertices[0]._replace(marks=frozenset())
    _use_descriptions(monkeypatch, {
        **THEOREM_DESCRIPTIONS, 7: StableCurveDesc((bare, seven.vertices[1]), seven.edges)})
    with pytest.raises(ClassifyError, match=r"type\(6\) i=9 fits divisors \[\]"):
        classify_type_6()


def test_type6_curves():
    # i = 2 has a rational tail, contracted into a loop on the main
    assert classify._type6_curve(2) == StableCurveDesc((VertexDesc(5),), ((0, 0),))
    # genus-2 tails carry a mark and no tag; genus >= 3 tails are tagged too
    assert classify._type6_curve(5).vertices[1] == VertexDesc(
        2, frozenset(), frozenset({Mark.WEIERSTRASS}))
    assert classify._type6_curve(8) == StableCurveDesc(
        (VertexDesc(2), VertexDesc(3, frozenset({Tag.HYPERELLIPTIC}),
                                   frozenset({Mark.HYP_CONJUGATE_PAIR}))),
        ((0, 1), (0, 1)))
    for i in classify._TYPE6_IRREDUCIBLE:
        assert stable_pa(classify._type6_curve(i)) == 6


def test_record_counts():
    assert len(classify_type_1_5(table1())) == 5
    assert len(classify_type_6()) == 10
    assert len(classify_type_7(local_models())) == 8
    assert len(classify_type_8()) == 2


def test_theorem_divisors():
    recs = theorem_divisors(table1(), local_models())
    assert [r.theorem_index for r in recs] == list(range(1, 14))
    for r in recs:
        assert stable_pa(r.desc) == 6
        assert r.sources
    # each description fits exactly itself: none is isomorphic to or
    # refines another
    assert all(match(r.desc) == [r.theorem_index] for r in recs)


def test_theorem_divisors_refuses_isomorphic_descriptions(monkeypatch):
    # item 6 redrawn as item 5 with its two vertices listed the other way
    five = THEOREM_DESCRIPTIONS[5]
    _use_descriptions(monkeypatch, {
        **THEOREM_DESCRIPTIONS, 6: StableCurveDesc(five.vertices[::-1], ((1, 0),))})
    with pytest.raises(ClassifyError,
                       match=r"description collision: item 5 fits items \[5, 6\]"):
        theorem_divisors(table1(), local_models())


def test_descriptions_are_read_only():
    # an edit would leave match's index stale
    with pytest.raises(TypeError):
        THEOREM_DESCRIPTIONS[6] = THEOREM_DESCRIPTIONS[5]


def test_theorem_divisors_refuses_wrong_genus(monkeypatch):
    _use_descriptions(monkeypatch, {
        **THEOREM_DESCRIPTIONS, 13: StableCurveDesc((VertexDesc(3), VertexDesc(1)), ((0, 1),) * 2)})
    with pytest.raises(ClassifyError, match="description 13 has wrong genus"):
        theorem_divisors(table1(), local_models())


def test_records_group_sources_in_order():
    recs = classify._records([(9, "a"), (1, "b"), (9, "c")])
    assert [(r.theorem_index, r.sources) for r in recs] == [(1, ("b",)), (9, ("a", "c"))]
    assert all(r.desc is THEOREM_DESCRIPTIONS[r.theorem_index] for r in recs)


def test_stable_pa():
    one_vertex = StableCurveDesc((VertexDesc(6),), ())
    assert stable_pa(one_vertex) == 6
    loop = StableCurveDesc((VertexDesc(5),), (((0, 0)),))
    assert stable_pa(loop) == 6
    with pytest.raises(ClassifyError):
        stable_pa(StableCurveDesc((VertexDesc(1), VertexDesc(2)), ()))
    # a chain reached from vertex 0 only through the last vertex, and two
    # components joined to each other but not to vertex 0
    v = [VertexDesc(1)] * 4
    assert stable_pa(StableCurveDesc(tuple(v), ((2, 3), (1, 2), (0, 3)))) == 4
    with pytest.raises(ClassifyError):
        stable_pa(StableCurveDesc(tuple(v), ((0, 1), (2, 3))))
    with pytest.raises(ClassifyError, match="disconnected"):
        stable_pa(StableCurveDesc((), ()))
    # an edge end that names no vertex is refused at construction, before
    # it could count as a node or reach match()
    for edges in (((0, 1), (2, 3)), ((1, -1),), ((0, 2),)):
        with pytest.raises(ClassifyError, match="name no vertex of 2"):
            StableCurveDesc((VertexDesc(1), VertexDesc(2)), edges)
    # and so is an edge that is not a pair of vertices
    for edges in (((0, 1, 2), (0, 1)), ((0,),), ((),)):
        with pytest.raises(ClassifyError, match="not vertex pairs"):
            StableCurveDesc((VertexDesc(1),) * 3, edges)
    assert classify.arithmetic_genus([3, 2], 2) == 6
    assert classify.arithmetic_genus([5], 1) == 6


def test_match_symmetry(monkeypatch):
    a = StableCurveDesc((VertexDesc(2), VertexDesc(4)), ((0, 1),))
    b = StableCurveDesc((VertexDesc(4), VertexDesc(2)), ((1, 0),))
    _use_descriptions(monkeypatch, {1: a})
    assert match(a) == match(b) == [1]
    # a tag on the curve must be on its image; one on the image need not
    # be on the curve
    tagged = StableCurveDesc((VertexDesc(4, frozenset({Tag.HYPERELLIPTIC})), VertexDesc(2)),
                             ((0, 1),))
    assert match(tagged) == []
    _use_descriptions(monkeypatch, {1: tagged})
    assert match(b) == [1]
    assert match(b, frozenset({Tag.HYPERELLIPTIC})) == []
    assert match(a, frozenset({Tag.HYPERELLIPTIC})) == [1]


def test_match_tied_labels(monkeypatch):
    # swapping the two genus-1 vertices maps one edge set to the other
    verts = (VertexDesc(1), VertexDesc(1), VertexDesc(2))
    a = StableCurveDesc(verts, ((0, 1), (1, 2)))
    b = StableCurveDesc(verts, ((0, 1), (0, 2)))
    c = StableCurveDesc(verts, ((0, 2), (1, 2)))
    _use_descriptions(monkeypatch, {1: a, 2: c})
    assert match(a) == match(b) == [1]
    assert match(c) == [2]


@given(st.sampled_from(sorted(THEOREM_DESCRIPTIONS)), st.data())
def test_match_ignores_vertex_order(index, data):
    # reverse the vertex order, relabel and flip each edge and shuffle
    # the edge list: the description still fits itself and nothing else
    desc = THEOREM_DESCRIPTIONS[index]
    last = len(desc.vertices) - 1
    edges = data.draw(st.permutations([(last - b, last - a) for a, b in desc.edges]))
    flipped = StableCurveDesc(desc.vertices[::-1], tuple(edges))
    assert match(flipped) == match(desc) == [index]


def _match_reference(curve, main_lacks=frozenset()):
    # match before its index: every description scanned, its genera
    # sorted on each call
    cv, ce = curve.vertices, curve.edges
    genera = sorted(v.genus for v in cv)
    hits = []
    for index, desc in THEOREM_DESCRIPTIONS.items():
        verts = desc.vertices
        if len(desc.edges) != len(ce) or sorted(w.genus for w in verts) != genera:
            continue
        for image in itertools.permutations(range(len(verts))):
            ws = [verts[k] for k in image]
            if (all(v.genus == w.genus and v.tags <= w.tags and v.marks <= w.marks
                    for v, w in zip(cv, ws))
                    and not (ws and ws[0].tags & main_lacks)
                    and sorted(sorted((image[a], image[b])) for a, b in ce)
                    == sorted(sorted(e) for e in desc.edges)):
                hits.append(index)
                break
    return sorted(hits)


_MAIN_LACKS = [frozenset(), frozenset({Tag.HYPERELLIPTIC}), frozenset(Tag)]


def test_match_agrees_with_full_scan():
    curves = [*THEOREM_DESCRIPTIONS.values(),
              *map(classify._type6_curve, classify._TYPE6_IRREDUCIBLE)]
    assert len(curves) == 13 + 8
    for curve in curves:
        for lacks in _MAIN_LACKS:
            assert match(curve, lacks) == _match_reference(curve, lacks)


@st.composite
def _decorated_curves(draw):
    """A curve of 1-3 vertices: either drawn freely, with at most one tag
    and one mark a vertex, or a description with its vertices reordered
    and some of its tags and marks dropped, so that many draws fit."""
    if draw(st.booleans()):
        n = draw(st.integers(1, 3))
        verts = [VertexDesc(draw(st.integers(0, 6)),
                            draw(st.frozensets(st.sampled_from(Tag), max_size=1)),
                            draw(st.frozensets(st.sampled_from(Mark), max_size=1)))
                 for _ in range(n)]
        ends = st.integers(0, n - 1)
        edges = draw(st.lists(st.tuples(ends, ends), max_size=3))
        return StableCurveDesc(tuple(verts), tuple(edges))
    desc = THEOREM_DESCRIPTIONS[draw(st.sampled_from(sorted(THEOREM_DESCRIPTIONS)))]
    order = draw(st.permutations(range(len(desc.vertices))))
    verts = [VertexDesc(v.genus,
                        frozenset(t for t in v.tags if draw(st.booleans())),
                        frozenset(m for m in v.marks if draw(st.booleans())))
             for v in (desc.vertices[k] for k in order)]
    edges = tuple((order.index(a), order.index(b)) for a, b in desc.edges)
    return StableCurveDesc(tuple(verts), edges)


@given(_decorated_curves(), st.sampled_from(_MAIN_LACKS))
def test_match_agrees_with_full_scan_on_drawn_curves(curve, lacks):
    assert match(curve, lacks) == _match_reference(curve, lacks)


def test_local_model_counts():
    assert [len(enumerate_c1_models(i)) for i in (1, 2, 3, 4)] == [3, 3, 2, 2]
    assert len(enumerate_c2_models(8)) == 8
    assert len(enumerate_c2_models(9)) == 2
    with pytest.raises(ClassifyError, match=r"c1 models need 1 <= i <= 4"):
        enumerate_c1_models(5)
    with pytest.raises(ClassifyError, match=r"c2 models need 1 <= j <= 9"):
        enumerate_c2_models(0)
    with pytest.raises(ClassifyError, match=r"c2 models need 1 <= j <= 9"):
        enumerate_c2_models(10)


def test_model_locals_are_the_shape_iv_ranges():
    # the c2 and c1 models sit on the degree-12 and degree-6 mains of
    # family 7 at d = 3; they accept exactly that family's param ranges
    family7 = next(f for f in enumerate_boundary_types(3) if f.type_index == 7)
    (j_lo, j_hi), (i_lo, i_hi) = family7.param_ranges
    assert classify.model_locals("c2") == range(j_lo, j_hi + 1) == range(1, 10)
    assert classify.model_locals("c1") == range(i_lo, i_hi + 1) == range(1, 5)


def test_local_model_half_edges_and_genus():
    # over all 54 entries, the rules the derived Provenance rests on: a
    # component switches sides exactly when sigma^2 is absent and n < 4,
    # and then (l, n, m) is (2, 2, 4) for c1 and (2, 3, 6) for c2;
    # otherwise n = 4 and m = 1 + 2l for c1, 2 + 2l for c2.  The one
    # singularity is A_{local-1} but on three templates, which give
    # (A_{local-2}, A_0) at even locals: c1 2.2 and c2 2.11, 2.12
    from orbiquint import cli

    models = local_models()
    entries = [(family, k, e) for family, lists in models.items()
               for k, es in lists.items() for e in es]
    assert len(entries) == 54
    split = 0
    for family, k, e in entries:
        assert e.half_edge_total() == 4
        e.validate()
        l, n, m, sings = e.provenance
        switches = any(c.side for c in e.components)
        assert (e.sigmaA2 is None) == (e.sigmaB2 is None) == switches == (n < 4)
        if switches:
            assert (l, n, m) == {"c1": (2, 2, 4), "c2": (2, 3, 6)}[family]
        else:
            assert (n, m) == (4, {"c1": 1, "c2": 2}[family] + 2 * l)
        if (family, e.label) in {("c1", "2.2"), ("c2", "2.11"), ("c2", "2.12")}:
            assert k % 2 == 0 and sings == (k - 2, 0)
            split += 1
        else:
            assert sings == (k - 1,)
    assert split == 9
    # the derived entries are the ones the golden model lists record
    golden = Path(cli.__file__).parent / "golden"
    assert cli.gen_c1_models_json(models) == (golden / "c1_models.json").read_text()
    assert cli.gen_c2_models_json(models) == (golden / "c2_models.json").read_text()


def test_c1_first_entries():
    entries = enumerate_c1_models(1)
    assert entries[0].sigmaA2 == Fraction(-1, 2)
    assert entries[0].sigmaB2 == 0
    assert entries[2].sigmaA2 is None  # side-switching entry


def test_c2_even_p4_entries():
    labels = {e.label for e in enumerate_c2_models(8)}
    assert {"2.8", "2.9", "2.10", "2.14"} <= labels


def test_c2_entry_finds_every_entry():
    # the c2 (and c1) entries the combination tables name, looked up by
    # (label, p) in the lists classify_type_7 reads
    lookup = classify._model_lookup(local_models())
    for j in range(1, 10):
        for e in enumerate_c2_models(j):
            assert lookup(e.label, e.param) == e
    for i in (3, 4):
        for e in enumerate_c1_models(i):
            assert lookup(f"1.{e.label}", None) == e
            assert lookup(f"1.{e.label}'", None) == e  # the flip mark
    assert lookup("2.9", None) == next(
        e for e in enumerate_c2_models(8) if e.label == "2.9")
    for label, p in (("2.1", 4), ("2.5", 0), ("2.3", None), ("2.15", 1),
                     ("1.3", 1), ("2.x", 1), ("1.3.1", 0), ("1.1.1", None)):
        with pytest.raises(ClassifyError, match="no local model"):
            lookup(label, p)


def test_model_lookup_p_omitted_only_for_p4_labels():
    # a c2 label found without p occurs once: exactly the p = 4-only labels
    lookup = classify._model_lookup(local_models())
    labels = {e.label for j in range(1, 10) for e in enumerate_c2_models(j)}
    found = set()
    for label in labels:
        try:
            assert lookup(label, None).param == 4
            found.add(label)
        except ClassifyError:
            pass
    assert found == {"2.8", "2.9", "2.10", "2.14"}


def test_verify_golden_derives_each_table_once_per_call(monkeypatch):
    # one verify_golden call builds Table 1 once, its branch pairs from one
    # run of the one-node split derivation (shapes I-III together), and
    # each of the four c1 and nine c2 local-model lists at most once;
    # table1.tsv, theorem.json, the diagram items and the model artifacts
    # read those copies
    from orbiquint.cli import _golden_dir, verify_golden

    calls = {"table1": [], "splits": [], "c1": [], "c2": []}
    for key, module, name in (("table1", classify, "table1"),
                              ("splits", covergraphs, "_one_node_types"),
                              ("c1", classify, "enumerate_c1_models"),
                              ("c2", classify, "enumerate_c2_models")):
        build = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *a, build=build, log=calls[key]:
                            log.append(a) or build(*a))
    assert verify_golden(_golden_dir())[0]
    first = {key: len(log) for key, log in calls.items()}
    assert first["table1"] == 1 and first["c1"] <= 4 and first["c2"] <= 9
    assert calls["splits"] == [(18,)]
    # nothing is kept between calls: the second call does the same work
    assert verify_golden(_golden_dir())[0]
    assert {key: len(log) for key, log in calls.items()} == {
        key: 2 * n for key, n in first.items()}
    assert calls["splits"] == [(18,), (18,)]


def test_validate_recomputes_genus():
    e = enumerate_c1_models(2)[0]
    e.validate()
    bad = e._replace(components=(e.components[0]._replace(genus=1),) + e.components[1:])
    with pytest.raises(ClassifyError, match="arithmetic genus"):
        bad.validate()
    # sigma^2 exists exactly when no component switches sides: moving a
    # component's half-edges to the switching side (their total stays 4),
    # or dropping a sigma^2, is refused before the genus is compared
    first, *rest = e.components
    switched = e._replace(components=(first._replace(top=(), side=first.top), *rest))
    for bad in (switched, e._replace(sigmaA2=None), e._replace(sigmaB2=None)):
        with pytest.raises(ClassifyError, match=r"c1 2\.1: sigma\^2 must exist exactly"):
            bad.validate()


def test_validate_refuses_a_sigma_square_outside_half_integers():
    # validate reads each sigma^2 through parity.half_units, the one (1/2)Z
    # check, and names the entry in the classifier's error
    e = enumerate_c1_models(2)[0]
    for bad in (e._replace(sigmaA2=Fraction(1, 3)), e._replace(sigmaB2=Fraction(1, 3))):
        with pytest.raises(ClassifyError, match=rf"c1 {e.label}: piece 1/3 is not in \(1/2\)Z"):
            bad.validate()


def test_table_split_is_side_switching():
    # Table 3 names only models whose components all switch sides under
    # the monodromy; Table 2 names none with a side-switching component
    lookup = classify._model_lookup(local_models())

    def models(row):
        return [lookup(label, None) for label in row.c1] + [lookup(row.c2, row.c2_p)]

    for row in TABLE3_ROWS:
        assert all(c.side for e in models(row) for c in e.components), row
    for row in TABLE2_ROWS:
        assert not any(c.side for e in models(row) for c in e.components), row


def test_r_options_are_s4_orders_with_integral_genera():
    # r runs over the S4 element orders with 6 | r*b for both branch
    # counts and a genus (integral, >= -1) for both components; only
    # type 1's exclusion of r = 3 is not derived
    derived = {
        t: tuple(r for r in CYCLE_TYPES[4]
                 if all((r * b) % 6 == 0 and _genus_or_none(component_genus, r, b) is not None
                        for b in pair))
        for t, pair in classify._branch_pairs().items()
    }
    assert derived == {**R_OPTIONS, 1: (1, 2, 3)}
    assert R_OPTIONS[1] == (1, 2)


def test_table_parities():
    lookup = classify._model_lookup(local_models())
    counts = []
    for k, row in enumerate(TABLE2_ROWS, 1):
        assert type7_row_parity(row, k, lookup) is Parity.ODD
        parities = type7_section_parities(row, lookup)
        assert parities  # an integral section always exists
        if k not in PARITY_UNCONFIRMED_ROWS:
            assert Parity.ODD in parities
        counts.append((parities.count(Parity.ODD), parities.count(Parity.EVEN)))
    # (odd, even) glued sections per Table 2 row, from the models' sigma^2
    assert counts == [(4, 4), (2, 2), (4, 4), (6, 2), (4, 4), (4, 4),
                      (6, 6), (12, 0), (12, 0), (8, 0), (8, 0), (0, 4)]
    for row in TABLE3_ROWS:
        assert type7_row_parity(row, None, lookup) is Parity.MOOT
    assert PARITY_UNCONFIRMED_ROWS == frozenset({12})


def _reference_section_parities(row, lookup):
    """type7_section_parities through the SectionClass route: one
    SectionClass per combination, and section_parity on each integral one."""
    out = []
    c2 = lookup(row.c2, row.c2_p)
    for label in row.c1:
        c1 = lookup(label, None)
        for s1 in (c1.sigmaA2, c1.sigmaB2):
            for s2 in (c2.sigmaA2, c2.sigmaB2):
                for g in row.tail_genera:
                    sc = SectionClass([s1, s2, tail_section_contribution(rh_ramification(2, g))])
                    if sc.halves % 2 == 0:
                        out.append(section_parity(sc))
    return out


def test_section_parities_match_the_section_class_route():
    lookup = classify._model_lookup(local_models())
    for row in TABLE2_ROWS:
        assert type7_section_parities(row, lookup) == _reference_section_parities(row, lookup)


def test_type7_refuses_a_sigma_square_outside_half_integers():
    # a model entry built past LocalModelEntry.validate, with sigma_A^2 =
    # 1/3: the half-unit reading refuses it with the classifier's error,
    # and the check is a raise, so it holds under python -O too
    models = local_models()
    k, entry = next((k, e) for k, e in enumerate(models["c1"][3]) if e.label == "3.1")
    models["c1"][3][k] = entry._replace(sigmaA2=Fraction(1, 3))
    with pytest.raises(ClassifyError, match=r"c1 3\.1: piece 1/3 is not in \(1/2\)Z"):
        classify_type_7(models)


def test_row_parity_follows_its_models():
    # the Table 2/3 split is read off the models the row names, not off
    # its tail-genus count: a Table 2 row re-pointed at Table 3's
    # side-switching c2 model is moot, and so is a Table 3 row given two
    # tail genera
    lookup = classify._model_lookup(local_models())
    row = TABLE2_ROWS[2]
    assert (row.c2, row.c2_p, len(row.tail_genera)) == ("2.3", 0, 2)
    assert type7_row_parity(row, 3, lookup) is Parity.ODD
    switched = row._replace(c2="2.4")
    assert all(c.side for c in lookup(switched.c2, switched.c2_p).components)
    assert type7_row_parity(switched, 3, lookup) is Parity.MOOT
    two_tails = TABLE3_ROWS[0]._replace(tail_genera=(2, -1))
    assert type7_row_parity(two_tails, None, lookup) is Parity.MOOT


def test_interior_rows():
    # the rows classify_type_1_5 drops as interior are the genus-6 rows
    kept = {int(src.rsplit(" ", 1)[1]) for r in classify_type_1_5(table1()) for src in r.sources}
    assert set(range(1, 17)) - kept - ROWS_LOW_DIMENSION == {9, 10, 15, 16}
    assert {r.row for r in table1() if 6 in (r.g1, r.g2)} == {9, 10, 15, 16}


def test_row_to_theorem_consistency():
    # every table row points to a description of arithmetic genus 6
    for row in TABLE2_ROWS + TABLE3_ROWS:
        assert stable_pa(THEOREM_DESCRIPTIONS[row.theorem_index]) == 6
