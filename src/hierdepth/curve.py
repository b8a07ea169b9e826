"""Maximal-depth transform chains on the projective line over F_p.

The depth M = sum(d_i) - deg(lambda0) is witnessed by M elementary
transforms (hecke) at distinct rational points; this module records such a
chain in closed form, without numpy.

The filtration builder uses standard covectors only, so each of its steps
cuts one summand's block and leaves the others alone: the subspace stays
the direct sum of one subspace per summand, and transforms at distinct
points commute. A block of width w_i that takes w_i points ends empty,
since no nonzero polynomial of degree below w_i vanishes at w_i distinct
points, and a block no step reaches keeps every section. So the picks,
dims and determinant degrees are closed form; bases are built when read.

When the plain section space is too thin to carry all requested steps
(negative degrees contribute nothing), the filtration builder shifts every
summand by a uniform twist. Transform kernels commute with twisting, and
depth is invariant under it, so the ledger still tracks the untwisted
determinant degree.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import accumulate

from .depth import HierFiltration
from .errors import NegativeM, NotEnoughPoints, WidthTooLarge
from .field import Field
from .picard import Lattice


@dataclass(frozen=True)
class RationalPoint:
    """Point of the projective line: an element of F_p, or infinity [1:0]."""

    coord: int | None = None

    @classmethod
    def affine(cls, value: int) -> "RationalPoint":
        return cls(int(value))

    @classmethod
    def infinity(cls) -> "RationalPoint":
        return cls(None)

    @property
    def is_infinity(self) -> bool:
        return self.coord is None

    def label(self) -> str:
        return "inf" if self.is_infinity else str(self.coord)

    def __repr__(self) -> str:
        return f"RationalPoint({self.label()})"


INFINITY = RationalPoint.infinity()


def point_at(j: int, p: int) -> RationalPoint:
    """The j-th rational point in the fixed order 0, 1, ..., p-1, inf."""
    if not 0 <= j <= p:
        raise IndexError(f"point index {j} outside 0..{p}")
    return INFINITY if j == p else RationalPoint.affine(j)


def point_labels(count: int, p: int) -> list[str]:
    """Labels of point_at(0, p), ..., point_at(count - 1, p), in that order."""
    if not 0 <= count <= p + 1:
        raise IndexError(f"point count {count} outside 0..{p + 1}")
    return [str(j) for j in range(min(count, p))] + [INFINITY.label()] * (count - p)


def enumerate_points(p: int) -> list[RationalPoint]:
    """The p + 1 rational points in the fixed order of point_at."""
    Field(p)
    return [point_at(j, p) for j in range(p + 1)]


def _widths(degrees, twist: int) -> tuple[int, ...]:
    """Block widths of the summands twisted by twist: d + twist + 1, or 0."""
    return tuple(max(d + twist + 1, 0) for d in degrees)


# Widest section space a model may have. A chain computes no basis, so the
# cap bounds only the ones its start and final build when read: one kernel
# per block left with sections, k x w for a block of width w that took k
# points. A full chain on one summand is the widest such kernel, 382 x 383;
# it takes 0.21 s at both p = 100003 and p = 2**31 - 1 (one Xeon core) and
# holds at most a few MAX_WIDTH**2 int64 arrays (1.1 MiB each).
MAX_WIDTH = 384


def _check_width(width: int) -> None:
    if width > MAX_WIDTH:
        raise WidthTooLarge(
            f"section space width {width} exceeds the maximum {MAX_WIDTH}"
        )


def _choose_twist(degrees, steps: int) -> int:
    # Up to twist -1 - max(degrees) every block is empty, so the search can
    # start there unless no step is needed; from there it takes at most
    # steps turns, since the widest block grows by one per turn.
    twist = max(0, -1 - max(degrees)) if steps else 0
    while sum(_widths(degrees, twist)) < steps:
        twist += 1
    return twist


@dataclass(frozen=True)
class TransformChain:
    """A chain of transforms at the points point_at(0, p), point_at(1, p), ...

    on O(d_i + twist); step j uses e_i, i = picks[j], and drops the dimension
    and the determinant ledger by one. start (the twisted full section space)
    and final are hecke models, built each time they are read: block i of
    final holds the forms of degree w_i - 1 vanishing at the points block i
    took, which is agcode.vanishing_basis on P1, and start is final with no
    picks.
    """

    degrees: tuple[int, ...]
    twist: int
    p: int
    picks: tuple[int, ...]

    @property
    def dims(self) -> list[int]:
        width = sum(_widths(self.degrees, self.twist))
        return list(range(width, width - len(self.picks) - 1, -1))

    @property
    def det_degrees(self) -> list[int]:
        top = sum(self.degrees)
        return list(range(top, top - len(self.picks) - 1, -1))

    @property
    def start(self):
        return replace(self, picks=()).final

    @property
    def final(self):
        from .hecke import _chain_final  # loads numpy
        return _chain_final(self)


def build_curve_filtration(degrees, lambda0_degree: int, p: int):
    """Maximal-depth chain of skyscraper transforms at distinct points.

    With M = sum(degrees) - lambda0_degree, records M transforms at the
    points point_at(0, p), ..., point_at(M - 1, p), each with the first
    usable standard covector on the current subspace, as
    hecke.first_usable_covector chooses it. Returns the determinant-level
    filtration (read bottom-up) together with the TransformChain from the
    full section space down to the final subsheaf.

    Raises NegativeM when the budget is negative, NotEnoughPoints when
    M exceeds the p + 1 rational points, and WidthTooLarge when the
    twisted section space is wider than MAX_WIDTH.
    """
    p = Field(p).p
    degrees = tuple(int(d) for d in degrees)
    if not degrees:
        raise ValueError("need at least one summand degree")
    steps = sum(degrees) - int(lambda0_degree)
    if steps < 0:
        raise NegativeM(f"degree budget {steps} is negative")
    if steps > p + 1:
        raise NotEnoughPoints(
            f"{steps} transforms need {steps} distinct points; only "
            f"{p + 1} available over F_{p}"
        )
    # the twisted width is at least steps; checking steps first keeps
    # _choose_twist from searching up to a huge twist
    _check_width(steps)
    twist = _choose_twist(degrees, steps)
    widths = _widths(degrees, twist)
    _check_width(sum(widths))
    # No nonzero polynomial of degree below w vanishes at w distinct points,
    # so step j uses e_i for the first block i that has taken fewer than w_i
    # points: block i takes the steps from its offset on, up to its width.
    taken = [min(max(steps - off, 0), w)
             for w, off in zip(widths, accumulate(widths, initial=0))]
    picks = tuple(i for i, k in enumerate(taken) for _ in range(k))
    curve = Lattice.curve()
    filtration = HierFiltration(
        lambda0=curve.divisor(int(lambda0_degree)),
        increments=(curve.divisor(1),) * steps,
        bundle_rank=len(degrees),
    )
    return filtration, TransformChain(degrees, twist, p, picks)
