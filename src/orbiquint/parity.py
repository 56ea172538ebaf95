"""Theta-characteristic parity bookkeeping.

Parity means h^0 mod 2 of a (limiting) theta characteristic.  It is
read off a section class, a sum of half-integer self-intersections with
integral total: an even total means the ambient scroll is a
degeneration of F0, an odd one of F1.
"""

from __future__ import annotations

import enum
from collections import namedtuple
from fractions import Fraction
from typing import Sequence

from .orbiscroll import FracLike, frac


class ParityError(ValueError):
    pass


class Parity(enum.Enum):
    EVEN = "Even"
    ODD = "Odd"
    MOOT = "Moot"  # parity undeterminable but irrelevant

    @property
    def ambient(self) -> str | None:
        """Even sections live on degenerations of F0, odd ones of F1."""
        return {"Even": "F0", "Odd": "F1", "Moot": None}[self.value]


def half_units(x: FracLike) -> int:
    """x as an integer count of halves; x must lie in (1/2)Z.  This is
    the package's one (1/2)Z check on a self-intersection piece."""
    x = frac(x)
    if x.denominator == 2:
        return x.numerator
    if x.denominator == 1:
        return 2 * x.numerator
    raise ParityError(f"piece {x} is not in (1/2)Z")


class SectionClass(namedtuple("SectionClass", "pieces")):
    """Self-intersection pieces of a section through a scroll degeneration,
    pieces: tuple[Fraction, ...]; each piece lies in (1/2)Z and the total
    must be an integer.  The total is summed from the pieces when read, in
    integer half units (`halves`), so the tuple, and with it equality,
    hashing and the repr, holds only the pieces; `total` is that sum as a
    Fraction."""

    __slots__ = ()
    # namedtuple's _make, which _replace calls, would skip __new__'s check
    _make = classmethod(lambda cls, fields: cls(*fields))

    def __new__(cls, pieces: Sequence[FracLike]) -> SectionClass:
        pieces = tuple(frac(p) for p in pieces)
        for p in pieces:  # each in (1/2)Z, or a ParityError
            half_units(p)
        return super().__new__(cls, pieces)

    @property
    def halves(self) -> int:
        return sum([half_units(p) for p in self.pieces])

    @property
    def total(self) -> Fraction:
        return Fraction(self.halves, 2)


def halves_parity(halves: int) -> Parity:
    """Parity of a section self-intersection given in half units: it must
    be an integer (an even count of halves), and it is even when that
    count is 0 mod 4.  This is the package's one copy of the rule."""
    if halves % 2:
        raise ParityError(
            f"section self-intersection {Fraction(halves, 2)} is not an integer"
        )
    return Parity.EVEN if halves % 4 == 0 else Parity.ODD


def section_parity(sc: SectionClass) -> Parity:
    """Parity of the section self-intersection, read off its sum in half
    units; Even means the ambient surface is a degeneration of F0, Odd
    of F1."""
    return halves_parity(sc.halves)


def tail_section_contribution(b1: int) -> Fraction:
    """Self-intersection (mod 2) of the tail section: b1/2, where b1 is
    the number of ramification points on the tail."""
    if b1 < 0:
        raise ParityError("b1 must be >= 0")
    return Fraction(b1, 2)
