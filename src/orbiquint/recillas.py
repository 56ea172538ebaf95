"""Permutation side of the tetragonal-trigonal correspondence.

A degree-4 cover with monodromy in S4 induces a degree-3 cover (the
action on the three pair-partitions of {1,2,3,4}) and a degree-6 double
cover (the action on the six transpositions).  The character identity

    1 + fix6 = fix3 + fix4

holds for every element of S4 and is the finite-set shadow of the
structure-sheaf decomposition behind the correspondence.

The cycle types of the elements of S3 and S4, by element order
(`CYCLE_TYPES`), are the node monodromies that classify's Table 1
genera and diagram items read.

Conventions: permutations act on points on the left; the action on
transpositions and pair-partitions is by conjugation, sigma . tau =
sigma tau sigma^{-1} (equivalently, elementwise relabeling).
"""

from __future__ import annotations

import itertools
import re
from math import lcm
from typing import Iterable, NamedTuple, Sequence


class PermError(ValueError):
    pass


class _PermFields(NamedTuple):
    images: tuple[int, ...]


class Perm(_PermFields):
    """A permutation of {1..n}, stored as the image tuple (1-based)."""

    __slots__ = ()
    # namedtuple's _make, which _replace calls, would skip __new__'s check
    _make = classmethod(lambda cls, fields: cls(*fields))

    def __new__(cls, images: Iterable[int]) -> Perm:
        images = tuple(images)
        if sorted(images) != list(range(1, len(images) + 1)):
            raise PermError(f"not a bijection of 1..{len(images)}: {images}")
        return super().__new__(cls, images)

    @property
    def n(self) -> int:
        return len(self.images)

    def __call__(self, x: int) -> int:
        if not 1 <= x <= self.n:
            raise PermError(f"point {x} out of range 1..{self.n}")
        return self.images[x - 1]

    @classmethod
    def identity(cls) -> "Perm":
        """The identity of S4."""
        return cls((1, 2, 3, 4))

    @classmethod
    def from_cycles(cls, cycles: Iterable[Sequence[int]]) -> "Perm":
        """The element of S4 with these cycles."""
        images = [1, 2, 3, 4]
        for cyc in cycles:
            for a, b in zip(cyc, cyc[1:] + type(cyc)([cyc[0]])):
                if not 1 <= a <= 4:
                    raise PermError(f"point {a} out of range 1..4")
                images[a - 1] = b
        return cls(tuple(images))

    def cycles(self) -> list[tuple[int, ...]]:
        seen: set[int] = set()
        out = []
        for start in range(1, self.n + 1):
            if start in seen:
                continue
            cyc = [start]
            seen.add(start)
            x = self(start)
            while x != start:
                cyc.append(x)
                seen.add(x)
                x = self(x)
            out.append(tuple(cyc))
        return out

    def __str__(self) -> str:
        nontrivial = [c for c in self.cycles() if len(c) > 1]
        if not nontrivial:
            return "id"
        return "".join("(" + " ".join(map(str, c)) + ")" for c in nontrivial)


# Cycles of points separated by one comma, with whitespace around it
# allowed, or by whitespace alone.  A run of whitespace has one way to
# match a separator, so refusing a string takes linear time.
CYCLE_NOTATION = r"(\(\s*\d+((?:\s*,\s*|\s+)\d+)*\s*\))+"


def _point(digits: str) -> int:
    """The point a run of decimal digits (of any script) names.  Its value
    is read digit by digit and compared as text, so a run longer than
    int() converts is refused like any other point outside 1..4."""
    value = "".join([str(int(c)) for c in digits]).lstrip("0") or "0"
    if value not in ("1", "2", "3", "4"):
        raise PermError(f"point {value} out of range 1..4")
    return int(value)


def parse_perm(text: str) -> Perm:
    """Parse cycle notation on {1..4}: "(1 2 3)(4)" and "(1,2,3)" both
    accepted; a point outside 1..4 is refused."""
    text = text.strip()
    if text in ("id", "()", "e", ""):
        return Perm.identity()
    if not re.fullmatch(CYCLE_NOTATION, text):
        raise PermError(f"malformed cycle notation: {text!r}")
    cycles = []
    for body in re.findall(r"\(([^()]*)\)", text):
        cyc = [_point(t) for t in re.split(r"[,\s]+", body.strip()) if t]
        if len(cyc) != len(set(cyc)):
            raise PermError(f"repeated point in cycle: {body!r}")
        cycles.append(cyc)
    flat = [x for c in cycles for x in c]
    if len(flat) != len(set(flat)):
        raise PermError(f"overlapping cycles: {text!r}")
    return Perm.from_cycles(cycles)


# ---------------------------------------------------------------------------
# The finite S4-sets of the correspondence

# the 6-set of transpositions, in canonical order
TRANSPOSITIONS: tuple[frozenset[int], ...] = tuple(
    frozenset(p) for p in itertools.combinations(range(1, 5), 2)
)

# the 3-set of pair-partitions {{a,b},{c,d}}, in canonical order
PAIR_PARTITIONS: tuple[frozenset[frozenset[int]], ...] = tuple(
    frozenset({frozenset({1, k}), frozenset({1, 2, 3, 4}) - {1, k}})
    for k in (2, 3, 4)
)


def _cycle_types(n: int) -> dict[int, tuple[tuple[int, ...], ...]]:
    """Each element order of S_n, with the cycle types (cycle lengths,
    longest first) of its elements on n sheets."""
    types: dict[int, set[tuple[int, ...]]] = {}
    for p in itertools.permutations(range(1, n + 1)):
        lengths = tuple(sorted(map(len, Perm(p).cycles()), reverse=True))
        types.setdefault(lcm(*lengths), set()).add(lengths)
    return {r: tuple(sorted(t, reverse=True)) for r, t in sorted(types.items())}


# CYCLE_TYPES[n][r]: an orbinode's monodromy of order r has one of these
# cycle types on the n sheets over it, 4 on a tetragonal fiber and 3 on
# the residual of a component that contains the directrix
CYCLE_TYPES = {n: _cycle_types(n) for n in (3, 4)}


def _act_on_set(sigma: Perm, s: frozenset) -> frozenset:
    return frozenset(
        _act_on_set(sigma, x) if isinstance(x, frozenset) else sigma(x) for x in s
    )


def _induced(sigma: Perm, objects: Sequence[frozenset]) -> Perm:
    index = {obj: k + 1 for k, obj in enumerate(objects)}
    return Perm(tuple(index[_act_on_set(sigma, obj)] for obj in objects))


def induced_on_partitions(sigma: Perm) -> Perm:
    return _induced(sigma, PAIR_PARTITIONS)


def induced_on_transpositions(sigma: Perm) -> Perm:
    return _induced(sigma, TRANSPOSITIONS)


class FixCounts(NamedTuple):
    fix4: int
    fix3: int
    fix6: int


def fix_counts(sigma: Perm) -> FixCounts:
    """Fixed points of sigma on {1..4} and of its induced actions on the
    pair-partitions and the transpositions."""
    if sigma.n != 4:
        raise PermError("fix_counts needs an element of S4")
    return FixCounts(*(
        sum(k == x for k, x in enumerate(p.images, 1))
        for p in (sigma, induced_on_partitions(sigma), induced_on_transpositions(sigma))
    ))


def recillas_character_check(sigma: Perm) -> bool:
    """The permutation-character identity 1 + fix6 = fix3 + fix4."""
    c = fix_counts(sigma)
    return 1 + c.fix6 == c.fix3 + c.fix4


class CorrespondenceData(NamedTuple):
    trigonal: tuple[Perm, ...]  # induced actions on the 3 pair-partitions
    double: tuple[Perm, ...]  # induced actions on the 6 transpositions


def tetragonal_to_trigonal(mon: Sequence[Perm]) -> CorrespondenceData:
    """Monodromy of the induced trigonal curve and its 6-sheeted double cover."""
    for sigma in mon:
        if sigma.n != 4:
            raise PermError("monodromy must lie in S4")
    return CorrespondenceData(
        tuple(induced_on_partitions(s) for s in mon),
        tuple(induced_on_transpositions(s) for s in mon),
    )
