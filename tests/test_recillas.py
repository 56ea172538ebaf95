import re
from math import lcm

import pytest
from hypothesis import example, given, strategies as st

from orbiquint.recillas import (
    CYCLE_NOTATION,
    PAIR_PARTITIONS,
    TRANSPOSITIONS,
    Perm,
    PermError,
    fix_counts,
    induced_on_partitions,
    induced_on_transpositions,
    parse_perm,
    recillas_character_check,
    tetragonal_to_trigonal,
)

from oracles import CYCLE_NOTATION_REFERENCE, blocks_swapped, d4_elements, s4_elements

perm_st = st.permutations(range(1, 5)).map(lambda p: Perm(tuple(p)))


def _compose(a, b):
    """(a b)(x) = a(b(x)); the package itself never composes permutations."""
    return Perm(tuple(a(b(x)) for x in range(1, a.n + 1)))


def _cycle_type(p):
    return tuple(sorted(map(len, p.cycles()), reverse=True))


@given(perm_st)
def test_perm_algebra(p):
    e = Perm.identity()
    assert all(e(x) == x for x in range(1, 5))
    assert Perm.from_cycles(p.cycles()) == p
    assert parse_perm(str(p)) == p


def test_perm_parsing():
    assert parse_perm("(1 2 3)") == Perm((2, 3, 1, 4))
    assert parse_perm("(1,2)(3,4)") == Perm((2, 1, 4, 3))
    assert parse_perm("id") == Perm.identity()
    assert parse_perm("(1 2)(3)") == Perm((2, 1, 3, 4))
    with pytest.raises(PermError):
        parse_perm("(1 2")
    with pytest.raises(PermError):
        parse_perm("(1 1)")
    with pytest.raises(PermError):
        parse_perm("(1 2)(2 3)")


# Strings over the notation's characters "(),1234x", space and tab: drawn
# char by char, or as cycles of points and separators, valid or not, which
# reach accepted strings more often.
_separators = st.sampled_from(["", " ", "\t", ",", " , ", ",\t ", ",,", "  ", "(", ")"])
_cycles = st.tuples(
    _separators, st.lists(st.tuples(st.sampled_from(["1", "2", "34", "x"]), _separators),
                          min_size=1, max_size=4),
).map(lambda t: "(" + t[0] + "".join(point + sep for point, sep in t[1]) + ")")
_notation_texts = st.one_of(st.text("(),1234x \t", max_size=24),
                            st.lists(_cycles, min_size=1, max_size=3).map("".join))


@given(_notation_texts)
@example("(1 2)(3,4)")
@example("( 1 ,\t2 \t)(3  4)")
@example("(1 ,, 2)")
def test_cycle_notation_accepts_what_the_reference_accepts(text):
    assert ((re.fullmatch(CYCLE_NOTATION, text) is None)
            == (re.fullmatch(CYCLE_NOTATION_REFERENCE, text) is None))


@pytest.mark.parametrize("text, point", [
    ("(1 5)", 5), ("(5 1)", 5), ("(0 2)", 0), ("(1 2)(3 4000000000)", 4000000000),
])
def test_parse_perm_is_s4_only(text, point):
    # a point outside 1..4 is refused before any image list is built, so
    # the cost does not grow with the number typed
    with pytest.raises(PermError, match=f"point {point} out of range 1..4"):
        parse_perm(text)


def test_cycle_type_and_order():
    assert parse_perm("(1 2 3 4)").cycles() == [(1, 2, 3, 4)]
    assert _cycle_type(parse_perm("(1 2)(3 4)")) == (2, 2)
    assert lcm(*map(len, parse_perm("(1 2 3)").cycles())) == 3
    assert str(Perm.identity()) == "id"


def test_finite_sets():
    assert len(TRANSPOSITIONS) == 6
    assert len(PAIR_PARTITIONS) == 3
    assert len(s4_elements()) == 24
    assert len(d4_elements()) == 8


def test_fix_counts_examples():
    c = fix_counts(Perm.identity())
    assert (c.fix4, c.fix3, c.fix6) == (4, 3, 6)
    c = fix_counts(parse_perm("(1 2)"))
    assert (c.fix4, c.fix3, c.fix6) == (2, 1, 2)
    c = fix_counts(parse_perm("(1 2 3 4)"))
    assert (c.fix4, c.fix3, c.fix6) == (0, 1, 0)


def test_character_identity_all():
    assert all(recillas_character_check(s) for s in s4_elements())


def _relabel(s, obj):
    return frozenset(_relabel(s, x) if isinstance(x, frozenset) else s(x) for x in obj)


def test_fix_counts_are_fixed_points_on_the_s4_sets():
    # fix3 and fix6 count the pair-partitions and transpositions that
    # sigma's relabelling leaves in place, on all of S4
    for s in s4_elements():
        c = fix_counts(s)
        assert c.fix4 == sum(s(x) == x for x in range(1, 5))
        assert c.fix3 == sum(_relabel(s, p) == p for p in PAIR_PARTITIONS)
        assert c.fix6 == sum(_relabel(s, t) == t for t in TRANSPOSITIONS)
    with pytest.raises(PermError, match="needs an element of S4"):
        fix_counts(Perm((1, 2, 3, 4, 5)))


def test_induced_multiplicative_sample():
    a, b = parse_perm("(1 2 3)"), parse_perm("(1 2)(3 4)")
    for induced in (induced_on_partitions, induced_on_transpositions):
        assert induced(_compose(a, b)) == _compose(induced(a), induced(b))


def test_correspondence_data():
    data = tetragonal_to_trigonal([parse_perm("(1 2 3)")])
    assert _cycle_type(data.trigonal[0]) == (3,)
    assert _cycle_type(data.double[0]) == (3, 3)
    # Klein four (the identity and the double transpositions) acts
    # trivially on the partitions
    klein_four = [s for s in s4_elements() if _cycle_type(s) in ((1, 1, 1, 1), (2, 2))]
    assert len(klein_four) == 4
    for v in klein_four:
        assert induced_on_partitions(v) == Perm((1, 2, 3))


def test_blocks_swapped():
    assert blocks_swapped(parse_perm("(1 3)(2 4)"))
    assert blocks_swapped(parse_perm("(1 3 2 4)"))
    assert not blocks_swapped(parse_perm("(1 2)"))
    assert not blocks_swapped(Perm.identity())
    with pytest.raises(PermError):
        blocks_swapped(parse_perm("(2 3)"))  # not in D4
