"""Divisor-class lattices for the model geometries.

LATTICES describes every lattice. Its row, keyed by the lattice's name
(curve, p2, blowup_p2, p1xp1), gives the generator names, the intersection
form on them and which of them move in pairwise disjoint curves. The plane
blown up at m points is P2's row and E1..Em under one rule: E_j.E_j = -1,
E_j is orthogonal to every other generator and moves in disjoint curves.
SURFACES are the rows `depth --surface` takes.

Effectivity is modeled by the simplicial cone on the listed generators:
a class is effective exactly when all its coordinates are nonnegative.
On blowups this deliberately excludes classes such as H - E1 that are
effective on the variety itself; the cone is the bookkeeping device used
by the depth transfer laws, where increments are built from the generators
directly.
"""

from __future__ import annotations

import re
from collections import namedtuple
from dataclasses import dataclass
from functools import cache

from .errors import NO_DECOMPOSITION, LatticeMismatch

# form pairs two coefficient tuples on names; disjoint[i] is False where
# two members of generator i always meet, as two lines do. An exceptional
# row takes E1..Em of m >= 1 blowup centers after names; `depth --surface`
# takes the surface rows.
_Row = namedtuple("_Row", "names form disjoint exceptional surface", defaults=(False, False))

_PLANE = _Row(("H",), lambda a, b: a[0] * b[0], (False,))

LATTICES = {
    "curve": _Row(("P",), lambda a, b: a[0] * b[0], (True,)),
    "p2": _PLANE._replace(surface=True),
    "blowup_p2": _PLANE._replace(exceptional=True),
    "p1xp1": _Row(("F1", "F2"), lambda a, b: a[0] * b[1] + a[1] * b[0], (True, True),
                  surface=True),
}

SURFACES = tuple(name for name, row in LATTICES.items() if row.surface)


# worked out once per lattice, so building one only checks its pair
@cache
def _generator_names(name: str, blowups: int) -> tuple[str, ...]:
    return LATTICES[name].names + tuple(f"E{j}" for j in range(1, blowups + 1))


@dataclass(frozen=True)
class Lattice:
    """LATTICES[name] blown up at `blowups` centers; the pair is its identity."""

    name: str
    blowups: int = 0

    def __post_init__(self):
        row = LATTICES.get(self.name)
        if row is None:
            raise ValueError(f"unknown lattice {self.name!r}")
        if row.exceptional:
            if self.blowups < 1:
                raise ValueError("a blowup lattice needs at least one center")
        elif self.blowups != 0:
            raise ValueError("blowups only apply to the blowup kind")

    @classmethod
    def curve(cls) -> "Lattice":
        return cls("curve")

    @classmethod
    def p2(cls) -> "Lattice":
        return cls("p2")

    @classmethod
    def blowup_p2(cls, m: int) -> "Lattice":
        return cls("blowup_p2", m)

    @classmethod
    def p1xp1(cls) -> "Lattice":
        return cls("p1xp1")

    @property
    def rank(self) -> int:
        return len(_generator_names(self.name, self.blowups))

    @property
    def generator_names(self) -> tuple[str, ...]:
        return _generator_names(self.name, self.blowups)

    def disjoint_representatives(self, i: int) -> bool:
        """Whether generator i moves in a family of pairwise disjoint curves."""
        if i < 0 or i >= self.rank:
            raise IndexError("generator index out of range")
        disjoint = LATTICES[self.name].disjoint
        return i >= len(disjoint) or disjoint[i]

    def divisor(self, *coeffs: int) -> "DivisorClass":
        return DivisorClass(self, coeffs)

    def zero(self) -> "DivisorClass":
        return DivisorClass(self, (0,) * self.rank)

    def __repr__(self) -> str:
        if self.blowups:
            return f"Lattice({self.name}, m={self.blowups})"
        return f"Lattice({self.name})"


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
    """Intersection pairing: the row's form, then E_i.E_j = -delta_ij on a
    blowup. Against the curve's point class it returns the degree.
    """
    lat = a.lattice
    if lat != b.lattice:
        raise LatticeMismatch("intersection needs both classes in one lattice")
    row = LATTICES[lat.name]
    x, y = a.coeffs, b.coeffs
    total = row.form(x, y)
    for j in range(len(row.names), len(x)):
        total -= x[j] * y[j]
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
    if not c.lattice.blowups:
        raise LatticeMismatch("blowup_split needs a blowup lattice class")
    return Lattice.p2().divisor(c.coeffs[0]), c.coeffs[1:]


def pullback(c: DivisorClass, m: int) -> DivisorClass:
    """Pull a plane class back to the blowup at m points."""
    if c.lattice != Lattice.p2():
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
