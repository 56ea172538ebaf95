from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from orbiquint.parity import (
    Parity,
    ParityError,
    SectionClass,
    section_parity,
    tail_section_contribution,
)

from oracles import ParityState, epsilon_twist, orbinode_normalize

# a half-integer k/2 as a SectionClass piece: a Fraction, a "k/2" string,
# or an int when k is even
half_int = st.integers(min_value=-20, max_value=20).flatmap(
    lambda k: st.sampled_from([Fraction(k, 2), f"{k}/2", *([k // 2] if k % 2 == 0 else [])]))


def test_state_bit_validation():
    with pytest.raises(ParityError):
        ParityState(2)


def test_epsilon_twist_involution():
    s = ParityState(0)
    assert epsilon_twist(epsilon_twist(s)).h0_mod2 == s.h0_mod2
    assert epsilon_twist(s).h0_mod2 == 1


def test_orbinode_preserves():
    s = ParityState(1)
    out = orbinode_normalize(s)
    assert out.h0_mod2 == 1


@given(st.lists(st.sampled_from([epsilon_twist, orbinode_normalize]), max_size=12),
       st.integers(min_value=0, max_value=1))
def test_replay(events, bit):
    s = ParityState(bit)
    for event in events:
        s = event(s)
    flips = events.count(epsilon_twist)
    assert s.h0_mod2 == (bit + flips) % 2


def test_section_class_validation():
    sc = SectionClass([1, "1/2", Fraction(1, 2)])
    assert sc.total == 2
    with pytest.raises(ParityError):
        SectionClass([Fraction(1, 3)])


@given(st.lists(half_int, max_size=8))
def test_section_parity_property(pieces):
    # the total is summed in integer half units, section_parity decides
    # integrality and parity from that sum, and total is still the exact
    # Fraction sum of the pieces
    sc = SectionClass(pieces)
    total = sum(map(Fraction, pieces), Fraction(0))
    assert sc.halves == 2 * total and type(sc.halves) is int
    assert sc.total == total and type(sc.total) is Fraction
    if total.denominator != 1:
        with pytest.raises(ParityError, match=f"self-intersection {total} is not"):
            section_parity(sc)
    else:
        expected = Parity.EVEN if total % 2 == 0 else Parity.ODD
        assert section_parity(sc) is expected


def test_parity_ambient():
    assert Parity.EVEN.ambient == "F0"
    assert Parity.ODD.ambient == "F1"
    assert Parity.MOOT.ambient is None


def test_tail_section_contribution():
    assert tail_section_contribution(6) == 3
    assert tail_section_contribution(5) == Fraction(5, 2)
    with pytest.raises(ParityError):
        tail_section_contribution(-1)


def test_section_class_total_is_not_compared():
    sc = SectionClass([1, "1/2", Fraction(1, 2)])
    assert sc.total == 2
    same = SectionClass([Fraction(1), Fraction(1, 2), Fraction(1, 2)])
    assert sc == same and hash(sc) == hash(same)
    assert sc != SectionClass([2])  # equal totals, different pieces
    assert "total" not in repr(sc)
