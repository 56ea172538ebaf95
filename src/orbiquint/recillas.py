"""Permutation side of the tetragonal-trigonal correspondence.

A degree-4 cover with monodromy in S4 induces a degree-3 cover (the
action on the three pair-partitions of {1,2,3,4}) and a degree-6 double
cover (the action on the six transpositions).  The character identity

    1 + fix6 = fix3 + fix4

holds for every element of S4 and is the finite-set shadow of the
structure-sheaf decomposition behind the correspondence.

Conventions: permutations act on points on the left; the action on
transpositions and pair-partitions is by conjugation, sigma . tau =
sigma tau sigma^{-1} (equivalently, elementwise relabeling).
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from typing import Iterable, Sequence


class PermError(ValueError):
    pass


@dataclass(frozen=True)
class Perm:
    """A permutation of {1..n}, stored as the image tuple (1-based)."""

    images: tuple[int, ...]

    def __post_init__(self) -> None:
        images = tuple(self.images)
        object.__setattr__(self, "images", images)
        if sorted(images) != list(range(1, len(images) + 1)):
            raise PermError(f"not a bijection of 1..{len(images)}: {images}")

    @property
    def n(self) -> int:
        return len(self.images)

    def __call__(self, x: int) -> int:
        if not 1 <= x <= self.n:
            raise PermError(f"point {x} out of range 1..{self.n}")
        return self.images[x - 1]

    def __mul__(self, other: "Perm") -> "Perm":
        """Composition: (self * other)(x) = self(other(x))."""
        if self.n != other.n:
            raise PermError("composition of permutations of different degree")
        return Perm(tuple(self(other(x)) for x in range(1, self.n + 1)))

    @classmethod
    def identity(cls, n: int = 4) -> "Perm":
        return cls(tuple(range(1, n + 1)))

    @classmethod
    def from_cycles(cls, cycles: Iterable[Sequence[int]], n: int = 4) -> "Perm":
        images = list(range(1, n + 1))
        for cyc in cycles:
            for a, b in zip(cyc, cyc[1:] + type(cyc)([cyc[0]])):
                if not 1 <= a <= n:
                    raise PermError(f"point {a} out of range 1..{n}")
                images[a - 1] = b
        p = cls(tuple(images))
        return p

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

    def cycle_type(self) -> tuple[int, ...]:
        return tuple(sorted((len(c) for c in self.cycles()), reverse=True))

    def order(self) -> int:
        from math import lcm

        return lcm(*(len(c) for c in self.cycles()))

    def __str__(self) -> str:
        nontrivial = [c for c in self.cycles() if len(c) > 1]
        if not nontrivial:
            return "id"
        return "".join("(" + " ".join(map(str, c)) + ")" for c in nontrivial)


def parse_perm(text: str, n: int = 4) -> Perm:
    """Parse cycle notation: "(1 2 3)(4)" and "(1,2,3)" both accepted."""
    text = text.strip()
    if text in ("id", "()", "e", ""):
        return Perm.identity(n)
    if not re.fullmatch(r"(\(\s*\d+(\s*[,\s]\s*\d+)*\s*\))+", text):
        raise PermError(f"malformed cycle notation: {text!r}")
    cycles = []
    for body in re.findall(r"\(([^()]*)\)", text):
        cyc = [int(t) for t in re.split(r"[,\s]+", body.strip()) if t]
        if len(cyc) != len(set(cyc)):
            raise PermError(f"repeated point in cycle: {body!r}")
        cycles.append(cyc)
    flat = [x for c in cycles for x in c]
    if len(flat) != len(set(flat)):
        raise PermError(f"overlapping cycles: {text!r}")
    n = max(n, max(flat))
    return Perm.from_cycles(cycles, n)


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


def s4_elements() -> list[Perm]:
    return [Perm(p) for p in itertools.permutations(range(1, 5))]


def _act_on_set(sigma: Perm, s: frozenset) -> frozenset:
    return frozenset(
        _act_on_set(sigma, x) if isinstance(x, frozenset) else sigma(x) for x in s
    )


@dataclass(frozen=True)
class FixCounts:
    fix4: int
    fix3: int
    fix6: int


def fix_counts(sigma: Perm) -> FixCounts:
    """Fixed points of sigma on {1..4}, the pair-partitions, the transpositions."""
    if sigma.n != 4:
        raise PermError("fix_counts needs an element of S4")
    fix4 = sum(1 for x in range(1, 5) if sigma(x) == x)
    fix3 = sum(1 for p in PAIR_PARTITIONS if _act_on_set(sigma, p) == p)
    fix6 = sum(1 for t in TRANSPOSITIONS if _act_on_set(sigma, t) == t)
    return FixCounts(fix4, fix3, fix6)


def recillas_character_check(sigma: Perm) -> bool:
    """The permutation-character identity 1 + fix6 = fix3 + fix4."""
    c = fix_counts(sigma)
    return 1 + c.fix6 == c.fix3 + c.fix4


@dataclass(frozen=True)
class CorrespondenceData:
    trigonal: tuple[Perm, ...]  # induced actions on the 3 pair-partitions
    double: tuple[Perm, ...]  # induced actions on the 6 transpositions


def _induced(sigma: Perm, objects: Sequence[frozenset]) -> Perm:
    index = {obj: k + 1 for k, obj in enumerate(objects)}
    return Perm(tuple(index[_act_on_set(sigma, obj)] for obj in objects))


def induced_on_partitions(sigma: Perm) -> Perm:
    return _induced(sigma, PAIR_PARTITIONS)


def induced_on_transpositions(sigma: Perm) -> Perm:
    return _induced(sigma, TRANSPOSITIONS)


def tetragonal_to_trigonal(mon: Sequence[Perm]) -> CorrespondenceData:
    """Monodromy of the induced trigonal curve and its 6-sheeted double cover."""
    for sigma in mon:
        if sigma.n != 4:
            raise PermError("monodromy must lie in S4")
    return CorrespondenceData(
        tuple(induced_on_partitions(s) for s in mon),
        tuple(induced_on_transpositions(s) for s in mon),
    )


# ---------------------------------------------------------------------------
# D4 and the block-swap criterion

_BLOCKS = frozenset({frozenset({1, 2}), frozenset({3, 4})})


def d4_elements() -> list[Perm]:
    """D4 = Stab({{1,2},{3,4}}) inside S4."""
    return [s for s in s4_elements() if _act_on_set(s, _BLOCKS) == _BLOCKS]


def blocks_swapped(pi: Perm) -> bool:
    """Whether pi in D4 exchanges the blocks {1,2} and {3,4}.

    Equivalent to pi acting nontrivially on the pair {(12),(34)} inside
    the 6-set of transpositions.
    """
    if pi.n != 4 or _act_on_set(pi, _BLOCKS) != _BLOCKS:
        raise PermError("blocks_swapped needs an element of D4 = Stab({{1,2},{3,4}})")
    return _act_on_set(pi, frozenset({1, 2})) == frozenset({3, 4})
