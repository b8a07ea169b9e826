"""Split vector bundles as ordered sums of line-bundle classes."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import LatticeMismatch
from .picard import DivisorClass, Lattice, parse_class


@dataclass(frozen=True)
class SplitBundle:
    """Direct sum of line bundles, recorded by their divisor classes."""

    summands: tuple[DivisorClass, ...]

    def __post_init__(self):
        if not self.summands:
            raise ValueError("a split bundle needs at least one summand")
        object.__setattr__(self, "summands", tuple(self.summands))
        first = self.summands[0].lattice
        for s in self.summands[1:]:
            if s.lattice != first:
                raise LatticeMismatch("summands live in different lattices")

    @property
    def lattice(self) -> Lattice:
        return self.summands[0].lattice

    @property
    def rank(self) -> int:
        return len(self.summands)

    def det(self) -> DivisorClass:
        total = self.summands[0]
        for s in self.summands[1:]:
            total = total + s
        return total

    def __repr__(self) -> str:
        inner = "+".join(f"O({s.notation()})" for s in self.summands)
        return f"SplitBundle({inner})"


def parse_bundle(text: str, lattice: Lattice) -> SplitBundle:
    """Parse 'O(3)+O(1)+O(0)' style notation on the given lattice.

    Each summand is O(expr) where expr is divisor-class notation; bare
    integers are allowed on rank-one lattices. Whitespace is ignored.
    """
    compact = "".join(text.split())
    if not compact:
        raise ValueError("empty bundle expression")
    parts = []
    depth = 0
    current = []
    for ch in compact:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise ValueError(f"unbalanced parentheses in {text!r}")
        if ch == "+" and depth == 0:
            parts.append("".join(current))
            current = []
        else:
            current.append(ch)
    if depth != 0:
        raise ValueError(f"unbalanced parentheses in {text!r}")
    parts.append("".join(current))
    summands = []
    for part in parts:
        if not (part.startswith("O(") and part.endswith(")")):
            raise ValueError(f"bad bundle summand {part!r} in {text!r}")
        summands.append(parse_class(part[2:-1], lattice))
    return SplitBundle(tuple(summands))
