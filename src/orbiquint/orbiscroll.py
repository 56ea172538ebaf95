"""Exact arithmetic on orbifold Hirzebruch scrolls.

F_a = P(O + O(-a)) over the projective line with a single orbifold point
of order r, with directrix sigma (sigma^2 = -a) and fiber class F.  This
module holds the adjunction degree of a curve in |n sigma + m F|, the
tetragonal branch relation m = b/6 + 2a with its smoothness criterion,
and the cyclic quotient singularities of the coarse space.  Everything
here is exact rational arithmetic; no floating point is ever used.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import NamedTuple, Union

FracLike = Union[int, Fraction, str]


def frac(x: FracLike) -> Fraction:
    """Coerce an int, Fraction, or "p/q", integer or plain decimal string
    to an exact Fraction.  Exponent notation is refused before Fraction
    sees it: Fraction expands "1e30000000" into 10**30000000."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        if "e" in x.lower():
            raise ValueError(f"exponent notation is not accepted: {x!r}")
        return Fraction(x)
    raise TypeError(f"not a rational: {x!r}")


class BranchRelation(NamedTuple):
    m: Fraction
    disc: bool  # a = b/6: the curve is the directrix plus a disjoint residual


class _CQSDataFields(NamedTuple):
    r: int
    q: int


class CQSData(_CQSDataFields):
    """A cyclic quotient singularity 1/r(1, q), canonicalized; r=1 is smooth."""

    __slots__ = ()
    # namedtuple's _make, which _replace calls, would skip __new__'s check
    _make = classmethod(lambda cls, fields: cls(*fields))

    def __new__(cls, r: int, q: int) -> CQSData:
        if r < 1:
            raise ValueError("r must be >= 1")
        return super().__new__(cls, r, q % r if r > 1 else 0)

    @property
    def smooth(self) -> bool:
        return self.r == 1 or self.q == 0


class CoarseSingularities(NamedTuple):
    at_sigma: CQSData
    at_tau: CQSData
    fiber_multiplicity: int


def adjunction_degree(n: int, m: FracLike, a: FracLike) -> Fraction:
    """deg omega_{C/P} = (n-1)(2m - a n) for C in |n sigma + m F| on F_a."""
    if n < 1:
        raise ValueError("n must be >= 1")
    m, a = frac(m), frac(a)
    return (n - 1) * (2 * m - a * n)


def tetragonal_branch_relation(a: FracLike, b: int) -> BranchRelation:
    """m = b/6 + 2a for a tetragonal class 4 sigma + m F with b branch points.

    The smoothness criterion, a <= b/12 or a = b/6 (disc), is
    smooth_twist's; this relation does not test it.
    """
    a = frac(a)
    if a < 0:
        raise ValueError("a must be >= 0")
    if b < 0:
        raise ValueError("b must be >= 0")
    k, r = a.numerator, a.denominator
    # decided in integers: a = b/6 is 6k = rb, and m = (rb + 12k) / 6r
    return BranchRelation(Fraction(r * b + 12 * k, 6 * r), 6 * k == r * b)


def smooth_twist(k: int, r: int, b: int) -> bool:
    """The smoothness criterion a <= b/12 or a = b/6 for a = k/r, r > 0,
    decided in integers: 12k <= rb or 6k = rb."""
    return 12 * k <= r * b or 6 * k == r * b


def coarse_singularities(r: int, a: FracLike) -> CoarseSingularities:
    """Singularities of the coarse space of F_a over P^1(r-th root of 0).

    1/r(1, ra mod r) at sigma(0) and 1/r(1, (r - ra) mod r) at tau(0);
    the fiber over 0 has multiplicity r / gcd(r, ra).  Integral a gives a
    smooth coarse space and multiplicity 1.
    """
    if r < 1:
        raise ValueError("r must be >= 1")
    a = frac(a)
    if a < 0:
        raise ValueError("a must be >= 0")
    ra = r * a
    if ra.denominator != 1:
        raise ValueError("r*a must be an integer")
    ra = ra.numerator
    if a.denominator == 1:
        return CoarseSingularities(CQSData(1, 0), CQSData(1, 0), 1)
    return CoarseSingularities(
        CQSData(r, ra % r),
        CQSData(r, (r - ra) % r),
        r // gcd(r, ra),
    )
