import pytest
from fractions import Fraction

from hypothesis import given, strategies as st

from orbiquint.orbiscroll import (
    CQSData,
    adjunction_degree,
    coarse_singularities,
    frac,
    smooth_twist,
    tetragonal_branch_relation,
)

fractions_st = st.fractions(
    min_value=-1000, max_value=1000, max_denominator=1000
)


@given(fractions_st)
def test_frac_str_round_trip(x):
    assert frac(str(x)) == x


def test_frac_coercions():
    assert frac(3) == Fraction(3)
    assert frac("5/2") == Fraction(5, 2)
    assert frac(Fraction(1, 3)) == Fraction(1, 3)
    with pytest.raises(TypeError):
        frac(1.5)
    # strings: p/q, integers and plain decimals; exponent notation is
    # refused before Fraction expands it
    assert [frac(t) for t in ("-7/4", " 12 ", "1.25", "-.5")] == [
        Fraction(-7, 4), Fraction(12), Fraction(5, 4), Fraction(-1, 2)]
    for text in ("1e3", "2E-1", "1.5e0", "1e30000000"):
        with pytest.raises(ValueError, match="exponent notation is not accepted"):
            frac(text)
    with pytest.raises(ZeroDivisionError, match=r"Fraction\(1, 0\)"):
        frac("1/0")


def test_adjunction_degree():
    # (n-1)(2m - an) by hand
    assert adjunction_degree(4, 2, 0) == 12
    assert adjunction_degree(4, Fraction(7, 2), Fraction(1, 2)) == 15
    assert adjunction_degree(1, 5, 1) == 0
    with pytest.raises(ValueError):
        adjunction_degree(0, 1, 0)


@given(
    st.integers(min_value=0, max_value=60).map(lambda k: Fraction(k, 12)),
    st.integers(min_value=0, max_value=30).map(lambda b: 6 * b),
)
def test_branch_relation_matches_adjunction(a, b):
    # the defining relation m = b/6 + 2a makes deg omega = b exactly
    rel = tetragonal_branch_relation(a, b)
    assert adjunction_degree(4, rel.m, a) == b


def test_branch_relation_smoothness():
    # smooth exactly when a <= b/12 or a = b/6 (the disjoint-directrix case)
    b = 18
    rel = tetragonal_branch_relation(Fraction(b, 12), b)
    assert rel.m == Fraction(b, 6) + 2 * Fraction(b, 12)
    assert smooth_twist(b, 12, b)
    assert not smooth_twist(10 * b + 1, 120, b)  # a = b/12 + 1/120
    assert smooth_twist(b, 6, b)


def test_branch_relation_disc_grid():
    # m = b/6 + 2a, disc holds exactly at a = b/6, and smooth_twist, on
    # the reduced a and on the unreduced k/24, exactly when a <= b/12 or
    # disc, over a = k/24 <= 9 and b = 0..48
    for b in range(49):
        for k in range(24 * 9 + 1):
            a = Fraction(k, 24)
            rel = tetragonal_branch_relation(a, b)
            assert rel.m == Fraction(b, 6) + 2 * a, (a, b)
            assert rel.disc == (6 * a == b), (a, b)
            smooth = 12 * a <= b or rel.disc
            assert smooth_twist(a.numerator, a.denominator, b) == smooth, (a, b)
            assert smooth_twist(k, 24, b) == smooth, (a, b)


def test_coarse_singularities():
    # 1/r(1, ra) at sigma(0), 1/r(1, r-ra) at tau(0)
    cs = coarse_singularities(2, Fraction(1, 2))
    assert (cs.at_sigma.r, cs.at_sigma.q) == (2, 1)
    assert (cs.at_tau.r, cs.at_tau.q) == (2, 1)
    assert cs.fiber_multiplicity == 2

    cs = coarse_singularities(3, Fraction(2, 3))
    assert (cs.at_sigma.r, cs.at_sigma.q) == (3, 2)
    assert (cs.at_tau.r, cs.at_tau.q) == (3, 1)
    assert cs.fiber_multiplicity == 3

    cs = coarse_singularities(4, Fraction(3, 4))
    assert (cs.at_sigma.q, cs.at_tau.q) == (3, 1)

    cs = coarse_singularities(3, Fraction(4, 3))
    assert (cs.at_sigma.q, cs.at_tau.q) == (1, 2)

    cs = coarse_singularities(5, 2)
    assert cs.at_sigma.smooth and cs.at_tau.smooth
    assert cs.fiber_multiplicity == 1


@given(st.integers(min_value=1, max_value=30), st.integers(min_value=0, max_value=60))
def test_coarse_singularities_conjugate(r, k):
    a = Fraction(k, r)
    cs = coarse_singularities(r, a)
    if a.denominator > 1:
        # the two singularities are conjugate: q + q' = r
        assert (cs.at_sigma.q + cs.at_tau.q) % cs.at_sigma.r == 0
        assert cs.fiber_multiplicity == r // __import__("math").gcd(r, k)


@pytest.mark.parametrize("r, a, message", [
    (0, Fraction(1, 2), "r must be >= 1"),
    (-3, 1, "r must be >= 1"),
    (2, Fraction(-1, 2), "a must be >= 0"),
    (2, Fraction(1, 3), r"r\*a must be an integer"),
    (4, Fraction(1, 8), r"r\*a must be an integer"),
])
def test_coarse_singularities_domain(r, a, message):
    with pytest.raises(ValueError, match=message):
        coarse_singularities(r, a)


@pytest.mark.parametrize("a, b, message", [
    (Fraction(-1, 12), 18, "a must be >= 0"),
    (0, -6, "b must be >= 0"),
])
def test_branch_relation_domain(a, b, message):
    with pytest.raises(ValueError, match=message):
        tetragonal_branch_relation(a, b)


def test_cqs_canonicalization():
    assert CQSData(3, 5).q == 2
    assert CQSData(1, 7).q == 0
    assert CQSData(1, 0).smooth and CQSData(4, 0).smooth
    with pytest.raises(ValueError):
        CQSData(0, 1)
