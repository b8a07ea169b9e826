"""Divisor-class lattices for the model geometries.

Four lattice kinds are supported: a smooth projective curve (rank 1,
generated by the point class), the projective plane (rank 1, generated by
the hyperplane class), a blowup of the plane at m points (rank 1 + m,
generated by the pulled-back hyperplane class and the exceptional classes),
and a smooth quadric surface (rank 2, generated by the two ruling fiber
classes).

Effectivity is modeled by the simplicial cone on the listed generators:
a class is effective exactly when all its coordinates are nonnegative.
On blowups this deliberately excludes classes such as H - E1 that are
effective on the variety itself; the cone is the bookkeeping device used
by the depth transfer laws, where increments are built from the generators
directly.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum

from .errors import NO_DECOMPOSITION, LatticeMismatch


class LatticeKind(Enum):
    CURVE = "curve"
    P2 = "p2"
    BLOWUP_P2 = "blowup_p2"
    P1XP1 = "p1xp1"


@dataclass(frozen=True)
class Lattice:
    kind: LatticeKind
    blowups: int = 0

    def __post_init__(self):
        if self.kind is LatticeKind.BLOWUP_P2:
            if self.blowups < 1:
                raise ValueError("a blowup lattice needs at least one center")
        elif self.blowups != 0:
            raise ValueError("blowups only apply to the blowup kind")

    @classmethod
    def curve(cls) -> "Lattice":
        return cls(LatticeKind.CURVE)

    @classmethod
    def p2(cls) -> "Lattice":
        return cls(LatticeKind.P2)

    @classmethod
    def blowup_p2(cls, m: int) -> "Lattice":
        return cls(LatticeKind.BLOWUP_P2, m)

    @classmethod
    def p1xp1(cls) -> "Lattice":
        return cls(LatticeKind.P1XP1)

    @property
    def rank(self) -> int:
        return len(self.generator_names)

    @property
    def generator_names(self) -> tuple[str, ...]:
        if self.kind is LatticeKind.CURVE:
            return ("P",)
        if self.kind is LatticeKind.P2:
            return ("H",)
        if self.kind is LatticeKind.P1XP1:
            return ("F1", "F2")
        return ("H",) + tuple(f"E{j}" for j in range(1, self.blowups + 1))

    def disjoint_representatives(self, i: int) -> bool:
        """Whether generator i moves in a family of pairwise disjoint curves.

        Point classes on a curve and the ruling fibers on the quadric do;
        so do the exceptional classes, which support repeated transform
        steps. The hyperplane class does not: two of its members always
        meet.
        """
        names = self.generator_names
        if i < 0 or i >= len(names):
            raise IndexError("generator index out of range")
        if self.kind is LatticeKind.CURVE:
            return True
        if self.kind is LatticeKind.P1XP1:
            return True
        if self.kind is LatticeKind.P2:
            return False
        return i >= 1  # blowup: H does not, every E_j does

    def divisor(self, *coeffs: int) -> "DivisorClass":
        return DivisorClass(self, tuple(int(c) for c in coeffs))

    def zero(self) -> "DivisorClass":
        return DivisorClass(self, (0,) * self.rank)

    def __repr__(self) -> str:
        if self.kind is LatticeKind.BLOWUP_P2:
            return f"Lattice(blowup_p2, m={self.blowups})"
        return f"Lattice({self.kind.value})"


@dataclass(frozen=True)
class DivisorClass:
    lattice: Lattice
    coeffs: tuple[int, ...]

    def __post_init__(self):
        if len(self.coeffs) != self.lattice.rank:
            raise ValueError(
                f"expected {self.lattice.rank} coefficients, "
                f"got {len(self.coeffs)}"
            )
        object.__setattr__(self, "coeffs", tuple(int(c) for c in self.coeffs))

    def _check(self, other: "DivisorClass"):
        if self.lattice != other.lattice:
            raise LatticeMismatch("divisor classes live in different lattices")

    def __add__(self, other: "DivisorClass") -> "DivisorClass":
        self._check(other)
        return DivisorClass(
            self.lattice,
            tuple(a + b for a, b in zip(self.coeffs, other.coeffs)),
        )

    def __sub__(self, other: "DivisorClass") -> "DivisorClass":
        self._check(other)
        return DivisorClass(
            self.lattice,
            tuple(a - b for a, b in zip(self.coeffs, other.coeffs)),
        )

    def __neg__(self) -> "DivisorClass":
        return DivisorClass(self.lattice, tuple(-a for a in self.coeffs))

    def __mul__(self, k: int) -> "DivisorClass":
        return DivisorClass(self.lattice, tuple(k * a for a in self.coeffs))

    __rmul__ = __mul__

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def notation(self) -> str:
        """Textual form in the generator basis, e.g. '5H+2E1+3E2'."""
        names = self.lattice.generator_names
        parts = []
        for c, name in zip(self.coeffs, names):
            if c == 0:
                continue
            sign = "-" if c < 0 else ("+" if parts else "")
            mag = abs(c)
            parts.append(f"{sign}{mag if mag != 1 else ''}{name}")
        if not parts:
            return "0"
        return "".join(parts)

    def __repr__(self) -> str:
        return f"DivisorClass({self.notation()} on {self.lattice!r})"


def intersect(a: DivisorClass, b: DivisorClass) -> int:
    """Intersection pairing in the generator basis.

    On the curve the pairing of aP with bP is a*b, so pairing against the
    point class returns the degree. On the blowup, H.H = 1, H.E_j = 0 and
    E_i.E_j = -delta_ij. On the quadric the two rulings meet once.
    """
    if a.lattice != b.lattice:
        raise LatticeMismatch("intersection needs both classes in one lattice")
    kind = a.lattice.kind
    if kind in (LatticeKind.CURVE, LatticeKind.P2):
        return a.coeffs[0] * b.coeffs[0]
    if kind is LatticeKind.P1XP1:
        return a.coeffs[0] * b.coeffs[1] + a.coeffs[1] * b.coeffs[0]
    total = a.coeffs[0] * b.coeffs[0]
    for x, y in zip(a.coeffs[1:], b.coeffs[1:]):
        total -= x * y
    return total


def is_effective(c: DivisorClass) -> bool:
    """Membership in the simplicial cone on the generators."""
    return all(x >= 0 for x in c.coeffs)


def decompose_max(c: DivisorClass):
    """Longest splitting of c into nonzero effective generator multiples.

    Unit steps along single generators realize the maximum, so the answer
    is the coefficient sum. Returns NO_DECOMPOSITION outside the cone.
    """
    if not is_effective(c):
        return NO_DECOMPOSITION
    return sum(c.coeffs)


def blowup_split(c: DivisorClass) -> tuple[DivisorClass, tuple[int, ...]]:
    """Split a blowup class into its plane part and exceptional multiples."""
    if c.lattice.kind is not LatticeKind.BLOWUP_P2:
        raise LatticeMismatch("blowup_split needs a blowup lattice class")
    plane = Lattice.p2().divisor(c.coeffs[0])
    return plane, tuple(c.coeffs[1:])


def pullback(c: DivisorClass, m: int) -> DivisorClass:
    """Pull a plane class back to the blowup at m points."""
    if c.lattice.kind is not LatticeKind.P2:
        raise LatticeMismatch("pullback starts from a plane class")
    return Lattice.blowup_p2(m).divisor(c.coeffs[0], *([0] * m))


_TERM_RE = re.compile(r"([+-]?\d*)([A-Za-z]\d*)?")


def parse_class(text: str, lattice: Lattice) -> DivisorClass:
    """Parse generator-basis notation such as '5H + 2E1 + 3E2' or '4P'.

    A bare integer is accepted on rank-one lattices (a multiple of the
    generator) and '0' means the zero class everywhere. Whitespace is
    ignored. Each term carries at most one sign. Raises ValueError on
    malformed input.
    """
    compact = "".join(text.split())
    if compact in ("0", "+0", "-0"):
        return lattice.zero()
    names = {n.upper(): i for i, n in enumerate(lattice.generator_names)}
    coeffs = [0] * lattice.rank
    terms = re.findall(r"[+-]?[^+-]+", compact)
    if not terms:
        raise ValueError(f"empty divisor class expression: {text!r}")
    # a sign no term takes up (a trailing '+', '++', '+-', '--') is malformed
    if "".join(terms) != compact:
        raise ValueError(f"stray sign in {text!r}")
    for term in terms:
        m = _TERM_RE.fullmatch(term)
        if not m:
            raise ValueError(f"bad divisor term {term!r} in {text!r}")
        num, gen = m.group(1), m.group(2)
        if gen is None:
            if lattice.rank != 1:
                raise ValueError(
                    f"bare coefficient {term!r} is ambiguous on a rank-"
                    f"{lattice.rank} lattice"
                )
            coeffs[0] += int(num)
            continue
        gen = gen.upper()
        if gen not in names:
            raise ValueError(
                f"unknown generator {gen!r} for {lattice!r} in {text!r}"
            )
        if num in ("", "+"):
            k = 1
        elif num == "-":
            k = -1
        else:
            k = int(num)
        coeffs[names[gen]] += k
    return DivisorClass(lattice, tuple(coeffs))
