"""Acceptance suite: the eleven primary criteria.

Each test is labeled with its criterion number.  Golden data lives in
the package (src/orbiquint/golden) and was transcribed from the source
tables; verify-golden recomputes it from scratch.
"""

import json
import random
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest

from orbiquint import classify, cli, covergraphs
from orbiquint.covergraphs import BaseShape
from orbiquint.orbiscroll import smooth_twist, tetragonal_branch_relation
from orbiquint.parity import (
    Parity,
    ParityError,
    SectionClass,
    section_parity,
    tail_section_contribution,
)
from orbiquint.recillas import (
    Perm,
    induced_on_partitions,
    induced_on_transpositions,
    recillas_character_check,
    tetragonal_to_trigonal,
)
from orbiquint.resolve import (
    CurveConfig,
    Edge,
    Role,
    Vertex,
    config_isomorphic,
    contract_minus_ones,
    hj_expand,
    hj_reconstruct,
    pa_hirzebruch,
)

from oracles import (
    ParityState, blocks_swapped, d4_elements, degree_splits, epsilon_twist, orbinode_normalize,
    s4_elements,
)

GOLDEN = Path(cli.__file__).parent / "golden"
# the diagram items, derived from Table 1
DIAGRAM_ITEMS = classify.diagram_items(classify.table1())


# -- criterion 1: Table 1 reproduction --------------------------------------


def test_c1_table1_byte_exact():
    text = cli.gen_table1_tsv(classify.table1())
    assert text == (GOLDEN / "table1.tsv").read_text()
    assert len(text.splitlines()) == 17  # header + 16 rows


def test_c1_table1_rows_pass_the_branch_relation():
    # table1 admits twists by the criterion in integers; each side of each
    # row must also pass the public branch relation, with its m and disc
    pairs = classify._branch_pairs()
    for row in classify.table1():
        b1, b2 = pairs[row.graph_type]
        for v, m, disc, b in ((row.v1, row.m1, row.disc1, b1), (row.v2, row.m2, row.disc2, b2)):
            rel = tetragonal_branch_relation(abs(v), b)
            assert smooth_twist(abs(v).numerator, abs(v).denominator, b), (row.row, v, b)
            assert (rel.m, rel.disc) == (m, disc), (row.row, v, b)


# -- criterion 2: boundary enumeration --------------------------------------


def test_c2_boundary_enumeration():
    fams = covergraphs.enumerate_boundary_types(3)
    assert len(fams) == 8
    by_type = {f.type_index: f for f in fams}
    assert by_type[6].param_ranges == ((1, 14),)
    assert by_type[7].param_ranges == ((1, 9), (1, 4))
    assert by_type[8].param_ranges == ((1, 4), (1, 4), (1, 4))
    assert len(by_type[6].graphs) == 14
    assert len(by_type[7].graphs) == 36
    assert len(by_type[8].graphs) == 64
    # the params up to order: each canonical (nondecreasing) representative
    canon = {tuple(sorted(g.params)) for g in by_type[8].graphs}
    assert len(canon) == 20


# -- criterion 3: branch-point conservation ---------------------------------


def test_c3_branch_point_conservation():
    for fam in covergraphs.enumerate_boundary_types(3):
        for g in fam.graphs:
            assert sum(c.beta for c in g.components) == 13
            # "main-side sum 12" realized as the moduli dimension: the
            # main-side branch freedom plus the one-dimensional base
            # modulus, minus the gauge freedom of the tail.  The single
            # exception is type 6 at i = 1, whose tail is entirely
            # redundant (that graph corresponds to a smooth curve and is
            # discarded downstream).
            expected = 13 if (fam.type_index == 6 and g.params == (1,)) else 12
            # moving branch points on the main base, plus the node
            # position when the main carries all three marked points
            # (shape I), plus the tail branch points surviving the pointed
            # automorphisms of the tail base
            dim = sum(c.beta for c in g.components if c.side == "main")
            if g.shape is BaseShape.I:
                dim += 1
            tail_moving = sum(c.beta for c in g.components if c.side == "tail")
            tail_gauge = 2 if g.shape is BaseShape.I else 1
            dim += max(0, tail_moving - tail_gauge)
            assert dim == expected
    for d in range(1, 11):
        b = covergraphs.generic_branch_count(d)
        assert b == 5 * d - 2
        assert -2 == -12 * d + 3 * d + 4 * d + b


# -- criterion 4: degree-split forcing --------------------------------------


def test_c4_degree_splits():
    assert set(degree_splits(BaseShape.I, 18)) == {(6, 12)}
    assert set(degree_splits(BaseShape.II, 18)) == {(9, 9), (3, 15)}
    assert set(degree_splits(BaseShape.III, 18)) == {(8, 10), (2, 16)}
    # (4, 14) satisfies every stated congruence for shape III (4 = 1 + 3,
    # 14 = 2 + 4*3, both summands divisible by 3) and is excluded as
    # recorded data; it must not be emitted.
    assert (4, 14) not in degree_splits(BaseShape.III, 18)
    assert (4, 14) in covergraphs._EXCLUDED_SPLITS[(BaseShape.III, 18)]


# -- criterion 5: diagram golden suite with confluence fuzz ------------------


@pytest.mark.parametrize("item", sorted(DIAGRAM_ITEMS))
def test_c5_diagram_golden(item):
    # the golden file's "v id self_int role" and "e v w mult" lines
    lines = [line.split() for line in
             (GOLDEN / "diagrams" / f"item{item:02d}.txt").read_text().splitlines()]
    expected = CurveConfig(
        [Vertex(v, int(self_int), Role(role)) for kind, v, self_int, role in lines if kind == "v"],
        [Edge(v, w, int(mult)) for kind, v, w, mult in lines if kind == "e"])
    assert {kind for kind, *_ in lines} == {"v", "e"}
    left = DIAGRAM_ITEMS[item].build()
    assert config_isomorphic(contract_minus_ones(left), expected)

    rng = random.Random(1000 + item)
    for _ in range(100):
        verts = left.vertices[:]
        edges = left.edges[:]
        rng.shuffle(verts)
        rng.shuffle(edges)
        got = contract_minus_ones(CurveConfig(verts, edges))
        assert config_isomorphic(got, expected)


# -- criterion 6: dual-route genus ------------------------------------------


def test_c6_dual_route_genus():
    pairs = classify._branch_pairs()
    for row in classify.table1():
        b1, b2 = pairs[row.graph_type]
        # Riemann-Hurwitz route (branch count)
        assert classify.component_genus(row.r, b1) == row.g1
        assert classify.component_genus(row.r, b2) == row.g2
        # adjunction route (divisor class on the scroll)
        assert classify.component_genus_adjunction(row.r, row.m1, abs(row.v1), b1) == row.g1
        assert classify.component_genus_adjunction(row.r, row.m2, abs(row.v2), b2) == row.g2
        # for integral twists the curve lives on an honest Hirzebruch
        # surface and the arithmetic genus agrees directly
        if row.r == 1:
            assert pa_hirzebruch(int(abs(row.v1)), 4, int(row.m1)) == row.g1
            assert pa_hirzebruch(int(abs(row.v2)), 4, int(row.m2)) == row.g2


# -- criterion 7: Recillas character identity --------------------------------


def test_c7_recillas():
    elements = s4_elements()
    assert len(elements) == 24
    for s in elements:
        assert recillas_character_check(s)
    def compose(p, q):  # (p q)(x) = p(q(x))
        return Perm(tuple(p(q(x)) for x in range(1, p.n + 1)))

    for a in elements:
        for b in elements:
            for induced in (induced_on_partitions, induced_on_transpositions):
                assert induced(compose(a, b)) == compose(induced(a), induced(b))
    d4 = d4_elements()
    assert len(d4) == 8
    # blocks_swapped agrees with the action on the pair {(12), (34)}
    from orbiquint.recillas import TRANSPOSITIONS

    i12 = TRANSPOSITIONS.index(frozenset({1, 2})) + 1
    i34 = TRANSPOSITIONS.index(frozenset({3, 4})) + 1
    for pi in d4:
        induced = induced_on_transpositions(pi)
        assert blocks_swapped(pi) == (induced(i12) == i34)


# -- criterion 8: Hirzebruch-Jung round trip ---------------------------------


def test_c8_hj_round_trip():
    for r in range(2, 201):
        for q in range(1, r):
            if gcd(r, q) != 1:
                continue
            chain = hj_expand(r, q)
            assert all(b >= 2 for b in chain.ints)
            assert hj_reconstruct(chain) == (r, q)


# -- criterion 9: classification totals --------------------------------------


def test_c9_classification_totals():
    rows, models = classify.table1(), classify.local_models()
    assert len(classify.classify_type_1_5(rows)) == 5
    assert len(classify.classify_type_6()) == 10
    assert len(classify.classify_type_7(models)) == 8
    assert len(classify.classify_type_8()) == 2
    recs = classify.theorem_divisors(rows, models)
    assert [r.theorem_index for r in recs] == list(range(1, 14))
    assert all(classify.match(r.desc) == [r.theorem_index] for r in recs)
    for r in recs:
        assert classify.stable_pa(r.desc) == 6
        assert r.sources
    # tables 2 and 3 row-for-row
    assert cli.gen_table2_tsv() == (GOLDEN / "table2.tsv").read_text()
    assert cli.gen_table3_tsv() == (GOLDEN / "table3.tsv").read_text()
    assert len(classify.TABLE2_ROWS) == 12
    assert len(classify.TABLE3_ROWS) == 5


# -- criterion 10: parity suite ----------------------------------------------


def test_c10_parity_suite():
    s = ParityState(0)
    assert epsilon_twist(epsilon_twist(s)).h0_mod2 == 0
    assert orbinode_normalize(s).h0_mod2 == 0
    assert orbinode_normalize(ParityState(1)).h0_mod2 == 1

    rng = random.Random(42)
    rejected = accepted = 0
    for _ in range(10_000):
        pieces = [Fraction(rng.randint(-40, 40), 2)
                  for _ in range(rng.randint(1, 8))]
        sc = SectionClass(pieces)
        total = sum(pieces)
        if total.denominator != 1:
            rejected += 1
            with pytest.raises(ParityError):
                section_parity(sc)
        else:
            accepted += 1
            expected = Parity.EVEN if total % 2 == 0 else Parity.ODD
            assert section_parity(sc) is expected
    assert rejected > 0 and accepted > 0


def test_c10_worked_example():
    # C1 with sigma_B^2 = 1, C2 with sigma_B^2 = 0, section through the
    # tail bundle containing the genus-(p+1) tail component: the matching
    # that makes all pieces integral.  Parity comes out p+1 mod 2.
    for p in range(0, 4):
        pieces = [1, 0, tail_section_contribution(2 * (p + 1) + 2)]
        parity = section_parity(SectionClass(pieces))
        expected = Parity.ODD if (p + 1) % 2 == 1 else Parity.EVEN
        assert parity is expected


# -- criterion 11: fuzz negativity -------------------------------------------


def test_c11_perturbation_fuzz():
    fams = covergraphs.enumerate_boundary_types(3)
    valid_jsons = {g.to_json() for fam in fams for g in fam.graphs}
    total = invalid = 0
    survivors = []
    for fam in fams:
        for g in fam.graphs:
            for mut in covergraphs.perturbations(g):
                total += 1
                if covergraphs.check_cover(mut):
                    invalid += 1
                else:
                    survivors.append(mut)
    assert total > 0
    assert invalid / total >= 0.99
    for mut in survivors:
        assert mut.to_json() in valid_jsons
