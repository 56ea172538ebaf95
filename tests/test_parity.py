from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from orbiquint.parity import (
    Parity,
    ParityError,
    ParityState,
    SectionClass,
    TwistEvent,
    epsilon_twist,
    orbinode_normalize,
    section_parity,
    tail_section_contribution,
)

half_int = st.integers(min_value=-20, max_value=20).map(lambda k: Fraction(k, 2))


def test_state_bit_validation():
    with pytest.raises(ParityError):
        ParityState(2)


def test_epsilon_twist_involution():
    s = ParityState(0)
    assert epsilon_twist(epsilon_twist(s)).h0_mod2 == s.h0_mod2
    assert epsilon_twist(s).h0_mod2 == 1
    assert epsilon_twist(s).twist_log == (TwistEvent.EPSILON,)


def test_orbinode_preserves():
    s = ParityState(1)
    out = orbinode_normalize(s)
    assert out.h0_mod2 == 1
    assert out.twist_log == (TwistEvent.ORBINODE,)


@given(st.lists(st.sampled_from(list(TwistEvent)), max_size=12),
       st.integers(min_value=0, max_value=1))
def test_replay(events, bit):
    s = ParityState(bit)
    for e in events:
        s = epsilon_twist(s) if e is TwistEvent.EPSILON else orbinode_normalize(s)
    assert s.twist_log == tuple(events)
    flips = sum(1 for e in events if e is TwistEvent.EPSILON)
    assert s.h0_mod2 == (bit + flips) % 2


def test_section_class_validation():
    sc = SectionClass([1, "1/2", Fraction(1, 2)])
    assert sc.total == 2
    with pytest.raises(ParityError):
        SectionClass([Fraction(1, 3)])


@given(st.lists(half_int, min_size=1, max_size=8))
def test_section_parity_property(pieces):
    sc = SectionClass(pieces)
    total = sum(pieces)
    if total.denominator != 1:
        with pytest.raises(ParityError):
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
