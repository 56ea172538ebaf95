"""Theta-characteristic parity bookkeeping.

Parity means h^0 mod 2 of a (limiting) theta characteristic.  Only the
bit is ever needed, so the state is a bit plus an event log: a
two-torsion twist at a pair of points flips the parity, normalizing an
orbinode with nontrivial automorphism action preserves it, and the
parity of a section class (a sum of half-integer self-intersections with
integral total) decides whether the ambient scroll is a degeneration of
F0 (even) or F1 (odd).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .orbiscroll import FracLike, frac, frac_str


class ParityError(ValueError):
    pass


class TwistEvent(enum.Enum):
    EPSILON = "epsilon_twist"
    ORBINODE = "orbinode_normalize"


@dataclass(frozen=True)
class ParityState:
    h0_mod2: int = 0
    twist_log: tuple[TwistEvent, ...] = ()

    def __post_init__(self) -> None:
        if self.h0_mod2 not in (0, 1):
            raise ParityError("h0_mod2 must be a bit")


def epsilon_twist(state: ParityState) -> ParityState:
    """Twist by a two-torsion bundle supported at a pair of points:
    h^0 changes by exactly one, so the parity bit flips."""
    return ParityState(
        (state.h0_mod2 + 1) % 2, state.twist_log + (TwistEvent.EPSILON,)
    )


def orbinode_normalize(state: ParityState) -> ParityState:
    """Push forward through the normalization of an orbinode whose
    automorphism acts nontrivially: h^0 is unchanged."""
    return ParityState(state.h0_mod2, state.twist_log + (TwistEvent.ORBINODE,))


class Parity(enum.Enum):
    EVEN = "Even"
    ODD = "Odd"
    MOOT = "Moot"  # parity undeterminable but irrelevant

    @property
    def ambient(self) -> str | None:
        """Even sections live on degenerations of F0, odd ones of F1."""
        return {"Even": "F0", "Odd": "F1", "Moot": None}[self.value]


@dataclass(frozen=True)
class SectionClass:
    """Self-intersection pieces of a section through a scroll degeneration;
    each piece lies in (1/2)Z and the total must be an integer.  The total
    is summed once here; equality and hashing use only the pieces."""

    pieces: tuple[Fraction, ...]

    def __init__(self, pieces: Sequence[FracLike]):
        object.__setattr__(self, "pieces", tuple(frac(p) for p in pieces))
        for p in self.pieces:
            if p.denominator not in (1, 2):
                raise ParityError(f"piece {frac_str(p)} is not in (1/2)Z")
        object.__setattr__(self, "total", sum(self.pieces, Fraction(0)))


def section_parity(sc: SectionClass) -> Parity:
    """Parity of the section self-intersection; Even means the ambient
    surface is a degeneration of F0, Odd of F1."""
    total = sc.total
    if total.denominator != 1:
        raise ParityError(
            f"section self-intersection {frac_str(total)} is not an integer"
        )
    return Parity.EVEN if total % 2 == 0 else Parity.ODD


def tail_section_contribution(b1: int) -> Fraction:
    """Self-intersection (mod 2) of the tail section: b1/2, where b1 is
    the number of ramification points on the tail."""
    if b1 < 0:
        raise ParityError("b1 must be >= 0")
    return Fraction(b1, 2)
