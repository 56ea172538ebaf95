import pytest
from hypothesis import given, strategies as st

from orbiquint.recillas import (
    PAIR_PARTITIONS,
    TRANSPOSITIONS,
    Perm,
    PermError,
    blocks_swapped,
    d4_elements,
    fix_counts,
    induced_on_partitions,
    induced_on_transpositions,
    parse_perm,
    recillas_character_check,
    s4_elements,
    tetragonal_to_trigonal,
)

perm_st = st.permutations(range(1, 5)).map(lambda p: Perm(tuple(p)))


@given(perm_st)
def test_perm_algebra(p):
    e = Perm.identity(4)
    assert p * e == p and e * p == p
    assert parse_perm(str(p)) == p


@given(perm_st, perm_st, perm_st)
def test_perm_associative(a, b, c):
    assert (a * b) * c == a * (b * c)


def test_perm_parsing():
    assert parse_perm("(1 2 3)") == Perm((2, 3, 1, 4))
    assert parse_perm("(1,2)(3,4)") == Perm((2, 1, 4, 3))
    assert parse_perm("id") == Perm.identity(4)
    assert parse_perm("(1 2)(3)") == Perm((2, 1, 3, 4))
    with pytest.raises(PermError):
        parse_perm("(1 2")
    with pytest.raises(PermError):
        parse_perm("(1 1)")
    with pytest.raises(PermError):
        parse_perm("(1 2)(2 3)")


def test_cycle_type_and_order():
    assert parse_perm("(1 2 3 4)").cycle_type() == (4,)
    assert parse_perm("(1 2)(3 4)").cycle_type() == (2, 2)
    assert parse_perm("(1 2 3)").order() == 3
    assert str(Perm.identity(4)) == "id"


def test_finite_sets():
    assert len(TRANSPOSITIONS) == 6
    assert len(PAIR_PARTITIONS) == 3
    assert len(s4_elements()) == 24
    assert len(d4_elements()) == 8


def test_fix_counts_examples():
    c = fix_counts(Perm.identity(4))
    assert (c.fix4, c.fix3, c.fix6) == (4, 3, 6)
    c = fix_counts(parse_perm("(1 2)"))
    assert (c.fix4, c.fix3, c.fix6) == (2, 1, 2)
    c = fix_counts(parse_perm("(1 2 3 4)"))
    assert (c.fix4, c.fix3, c.fix6) == (0, 1, 0)


def test_character_identity_all():
    assert all(recillas_character_check(s) for s in s4_elements())


def test_induced_multiplicative_sample():
    a, b = parse_perm("(1 2 3)"), parse_perm("(1 2)(3 4)")
    assert induced_on_partitions(a * b) == induced_on_partitions(
        a
    ) * induced_on_partitions(b)
    assert induced_on_transpositions(a * b) == induced_on_transpositions(
        a
    ) * induced_on_transpositions(b)


def test_correspondence_data():
    data = tetragonal_to_trigonal([parse_perm("(1 2 3)")])
    assert data.trigonal[0].cycle_type() == (3,)
    assert data.double[0].cycle_type() == (3, 3)
    # Klein four (the identity and the double transpositions) acts
    # trivially on the partitions
    klein_four = [s for s in s4_elements() if s.cycle_type() in ((1, 1, 1, 1), (2, 2))]
    assert len(klein_four) == 4
    for v in klein_four:
        assert induced_on_partitions(v) == Perm.identity(3)


def test_blocks_swapped():
    assert blocks_swapped(parse_perm("(1 3)(2 4)"))
    assert blocks_swapped(parse_perm("(1 3 2 4)"))
    assert not blocks_swapped(parse_perm("(1 2)"))
    assert not blocks_swapped(Perm.identity(4))
    with pytest.raises(PermError):
        blocks_swapped(parse_perm("(2 3)"))  # not in D4
