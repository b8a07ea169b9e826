"""Elementary transforms of split bundles on the projective line over F_p.

A split bundle O(d_1) + ... + O(d_r) is modeled through a section space:
the summand of degree d contributes the polynomials of degree at most d,
stored as d + 1 coefficients (none when d < 0), concatenated into one flat
coordinate vector. A subsheaf obtained from rank-one skyscraper transforms
is represented by the subspace of sections it contains, kept in canonical
echelon form, together with a determinant-degree ledger.

An elementary transform at a rational point q with covector phi replaces
the subspace by the kernel of the functional s -> phi . s(q). Evaluation
at the point at infinity [1:0] reads the top coefficient of each block.
The transform is refused as vacuous when the functional already vanishes
on the whole subspace, since then no colength-one modification happens.

The filtration builder uses standard covectors only, so each of its steps
cuts one summand's block and leaves the others alone: the subspace stays
the direct sum of one subspace per summand, and transforms at distinct
points commute. A block of width w_i that takes w_i points ends empty,
since no nonzero polynomial of degree below w_i vanishes at w_i distinct
points, and a block no step reaches keeps every section. So the builder
cuts only the one block the chain leaves part full, in a raw echelon
array with a power table over that block's points, and assembles the
final basis block-diagonally once, wrapped without re-checking it.

When the plain section space is too thin to carry all requested steps
(negative degrees contribute nothing), the filtration builder shifts every
summand by a uniform twist. Transform kernels commute with twisting, and
depth is invariant under it, so the ledger still tracks the untwisted
determinant degree.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from . import gf
from .depth import HierFiltration
from .errors import (
    NegativeM,
    NotEnoughPoints,
    OverlappingSupport,
    VacuousTransform,
    WidthTooLarge,
)
from .gf import Field, FMatrix
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


@dataclass(frozen=True)
class PointFunctional:
    """Rank-one evaluation condition: a point and a fiber covector."""

    point: RationalPoint
    covector: tuple[int, ...]

    def __post_init__(self):
        cov = tuple(int(c) for c in self.covector)
        if not any(cov):
            raise ValueError("covector must be nonzero")
        object.__setattr__(self, "covector", cov)


@dataclass(frozen=True)
class SubsheafModel:
    """Subspace model of a subsheaf of a split bundle on the line.

    degrees holds the untwisted summand degrees; twist is the uniform
    shift applied to every block in the stored coordinates; det_degree
    ledgers the untwisted determinant degree, dropping by one per
    transform. The basis is in reduced echelon form: the constructors
    start from an identity and each transform keeps the form, so no step
    re-checks it; the filtration chain and the joint kernel rely on it.
    """

    degrees: tuple[int, ...]
    twist: int
    p: int
    basis: FMatrix
    det_degree: int

    @property
    def rank(self) -> int:
        return len(self.degrees)

    @property
    def dim(self) -> int:
        return self.basis.rows

    @property
    def block_widths(self) -> tuple[int, ...]:
        return _widths(self.degrees, self.twist)


def _widths(degrees, twist: int) -> tuple[int, ...]:
    """Block widths of the summands twisted by twist: d + twist + 1, or 0."""
    return tuple(max(d + twist + 1, 0) for d in degrees)


# Widest section space a model may have. The chain cuts only the block it
# leaves part full, so it costs w_j**2 per point for that block's width w_j,
# and nothing for the blocks it fills or does not reach. The worst case is
# one summand holding the whole width: a full chain at this width then takes
# 0.04 s at p = 100003 and 0.8 s at p = 2**31 - 1, where dot_mod computes
# over Python integers. The starting and final models each hold at most
# MAX_WIDTH**2 int64 entries (1.1 MiB).
MAX_WIDTH = 384


def _check_width(width: int) -> None:
    if width > MAX_WIDTH:
        raise WidthTooLarge(
            f"section space width {width} exceeds the maximum {MAX_WIDTH}"
        )


def full_sections(degrees, p: int) -> SubsheafModel:
    """Model holding every section of O(d_1) + ... + O(d_r).

    The dimension is the sum of d_i + 1 over nonnegative degrees; summands
    of negative degree contribute zero-width blocks. Raises WidthTooLarge
    when the dimension exceeds MAX_WIDTH.
    """
    p = Field(p).p
    degrees = tuple(int(d) for d in degrees)
    if not degrees:
        raise ValueError("need at least one summand degree")
    width = sum(_widths(degrees, 0))
    _check_width(width)
    basis = FMatrix.identity(p, width)
    return SubsheafModel(degrees, 0, p, basis, sum(degrees))


def _powers(coords, p: int, widths) -> np.ndarray:
    """coords[j]**k mod p for k < max(widths); entries < p keep products exact."""
    coords = np.asarray(coords, dtype=np.int64)
    pw = np.ones((coords.size, max(widths, default=0)), dtype=np.int64)
    for k in range(1, pw.shape[1]):
        pw[:, k] = pw[:, k - 1] * coords % p
    return pw


def _point_rows(m: SubsheafModel, point: RationalPoint) -> np.ndarray:
    """Width x rank: column i evaluates block i alone at point, by the
    powers 1, q, q^2, ... of an affine point q across the block, or at
    infinity by the block's top coefficient."""
    widths = m.block_widths
    rows = np.zeros((sum(widths), len(widths)), dtype=np.int64)
    pw = None if point.is_infinity else _powers([point.coord % m.p], m.p, widths)[0]
    for i, (w, off) in enumerate(zip(widths, accumulate(widths, initial=0))):
        if w and pw is None:
            rows[off + w - 1, i] = 1
        elif w:
            rows[off:off + w, i] = pw[:w]
    return rows


def _first_usable(values, point: RationalPoint) -> tuple[int, np.ndarray]:
    """The covector selection rule: the first block with nonzero values.

    values yields (block index, values of the sections at point on that
    block) in block order, and is read only up to the block chosen.
    Returns that index and its values.
    """
    for i, v in values:
        if v.any():
            return i, v
    raise VacuousTransform(f"no usable covector at point {point.label()}")


def _functional_row(m: SubsheafModel, phi: PointFunctional) -> np.ndarray:
    if len(phi.covector) != m.rank:
        raise ValueError(
            f"covector length {len(phi.covector)} does not match rank {m.rank}"
        )
    cov = np.array([c % m.p for c in phi.covector], dtype=np.int64)
    return gf.dot_mod(_point_rows(m, phi.point), cov, m.p)


def apply_transform(m: SubsheafModel, phi: PointFunctional) -> SubsheafModel:
    """Kernel of the evaluation functional inside the current subspace.

    Drops the subspace dimension and the determinant ledger by exactly
    one. Raises VacuousTransform when the functional vanishes on the
    whole subspace, which is exactly when the kernel keeps every row.
    """
    a = m.basis.array
    v = gf.dot_mod(a, _functional_row(m, phi), m.p)
    if not v.any():
        raise VacuousTransform(
            f"functional at {phi.point.label()} vanishes on the subspace"
        )
    basis = FMatrix(m.p, gf.cut(a, v, m.p), cols=m.basis.cols)
    return SubsheafModel(m.degrees, m.twist, m.p, basis, m.det_degree - 1)


def first_usable_covector(m: SubsheafModel,
                          point: RationalPoint) -> PointFunctional:
    """The first standard-basis covector not vacuous on the subspace at point.

    Raises VacuousTransform when every section of the subspace vanishes
    at the point.
    """
    values = gf.dot_mod(m.basis.array, _point_rows(m, point), m.p)
    i, _ = _first_usable(enumerate(values.T), point)
    return PointFunctional(point, tuple(int(k == i) for k in range(m.rank)))


@dataclass(frozen=True)
class CommuteReport:
    """Outcome of comparing transform routes against the joint kernel."""

    dim_start: int
    dim_v12: int
    dim_v21: int
    dim_joint: int
    equal: bool
    v12: FMatrix
    v21: FMatrix
    joint: FMatrix


def _same_point(a: RationalPoint, b: RationalPoint, p: int) -> bool:
    """Whether two points are the same point of the line over F_p."""
    if a.is_infinity or b.is_infinity:
        return a.is_infinity and b.is_infinity
    return (a.coord - b.coord) % p == 0


def _joint_kernel(m: SubsheafModel, f1, f2) -> FMatrix:
    # a row space is the kernel of its kernel, so stacking the functionals
    # under the basis's kernel checks the transforms without any cut; the
    # free-column kernel reads columns reversed, so they are turned back
    rows = np.concatenate((gf._free_column_kernel(m.basis.array, m.p)[:, ::-1],
                           [_functional_row(m, f1), _functional_row(m, f2)]))
    return gf.kernel_basis(FMatrix(m.p, rows, cols=m.basis.cols))


def _three_routes(m, f1, f2) -> CommuteReport:
    v12 = apply_transform(apply_transform(m, f1), f2).basis
    v21 = apply_transform(apply_transform(m, f2), f1).basis
    joint = _joint_kernel(m, f1, f2)
    equal = v12 == v21 == joint
    return CommuteReport(
        dim_start=m.dim,
        dim_v12=v12.rows,
        dim_v21=v21.rows,
        dim_joint=joint.rows,
        equal=equal,
        v12=v12,
        v21=v21,
        joint=joint,
    )


def commute_check(m: SubsheafModel, f1: PointFunctional,
                  f2: PointFunctional) -> CommuteReport:
    """Both transform orders against the joint kernel, for distinct points.

    With disjoint supports all three canonical bases coincide; the report
    records the dimensions and the comparison. Equal points, coordinates
    compared mod p, are refused, and a vacuous second step propagates as
    VacuousTransform.
    """
    if _same_point(f1.point, f2.point, m.p):
        raise OverlappingSupport(
            "transform points coincide; use probe_overlap"
        )
    return _three_routes(m, f1, f2)


def probe_overlap(m: SubsheafModel, f1: PointFunctional,
                  f2: PointFunctional) -> CommuteReport:
    """Same comparison at one shared point. No equality is guaranteed.

    The report simply states whether the routes happen to agree for these
    covectors. Distinct points belong to commute_check instead.
    """
    if not _same_point(f1.point, f2.point, m.p):
        raise ValueError("points differ; use commute_check")
    return _three_routes(m, f1, f2)


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

    start is the twisted full section space and final the subsheaf after
    the last step; step j used the standard covector e_i with i = picks[j].
    Each step drops the dimension and the determinant ledger by one.
    """

    start: SubsheafModel
    picks: tuple[int, ...]
    final: SubsheafModel

    @property
    def dims(self) -> list[int]:
        return list(range(self.start.dim, self.final.dim - 1, -1))

    @property
    def det_degrees(self) -> list[int]:
        return list(range(self.start.det_degree, self.final.det_degree - 1, -1))


def _block_values(block: np.ndarray, powers, p: int) -> np.ndarray:
    """Values at one point of the sections a block's rows hold: by the
    powers of an affine point, or at infinity (powers None) by the top
    coefficient."""
    if powers is None:
        return block[:, -1]
    return gf.dot_mod(block, powers[:block.shape[1]], p)


def build_curve_filtration(degrees, lambda0_degree: int, p: int):
    """Maximal-depth chain of skyscraper transforms at distinct points.

    With M = sum(degrees) - lambda0_degree, performs M transforms at the
    points point_at(0, p), ..., point_at(M - 1, p), choosing at each step
    the first usable standard covector on the current subspace, as
    first_usable_covector does. Returns the determinant-level filtration
    (read bottom-up) together with the TransformChain from the full
    section space down to the final subsheaf.

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
    # Transforms at distinct points with standard covectors commute, and no
    # nonzero polynomial of degree below w vanishes at w distinct points, so
    # step j uses e_i for the first block i that has taken fewer than w_i
    # points. A block the chain fills ends empty without a cut, a block it
    # does not reach keeps every section, and only the one block it leaves
    # part full is cut, point by point.
    offsets = list(accumulate(widths, initial=0))
    taken = [min(max(steps - off, 0), w) for w, off in zip(widths, offsets)]
    picks = tuple(i for i, k in enumerate(taken) for _ in range(k))
    blocks = [np.eye(w, dtype=np.int64) if k < w else np.zeros((0, w), dtype=np.int64)
              for w, k in zip(widths, taken)]
    for i in (i for i, (w, k) in enumerate(zip(widths, taken)) if 0 < k < w):
        first, stop = offsets[i], offsets[i] + taken[i]
        pw = _powers(range(first, min(stop, p)), p, [widths[i]])
        for j in range(first, stop):
            q = pw[j - first] if j < p else None
            _, v = _first_usable([(i, _block_values(blocks[i], q, p))], point_at(j, p))
            blocks[i] = gf.cut(blocks[i], v, p)
    rows = [b.shape[0] for b in blocks]
    a = np.zeros((sum(rows), sum(widths)), dtype=np.int64)
    corners = zip(accumulate(rows, initial=0), accumulate(widths, initial=0))
    for b, (r, c) in zip(blocks, corners):
        a[r:r + b.shape[0], c:c + b.shape[1]] = b
    chain = TransformChain(
        start=SubsheafModel(degrees, twist, p,
                            gf._trusted(p, np.eye(sum(widths), dtype=np.int64)),
                            sum(degrees)),
        picks=picks,
        final=SubsheafModel(degrees, twist, p, gf._trusted(p, a),
                            sum(degrees) - steps),
    )
    curve = Lattice.curve()
    filtration = HierFiltration(
        lambda0=curve.divisor(int(lambda0_degree)),
        increments=(curve.divisor(1),) * steps,
        bundle_rank=len(degrees),
    )
    return filtration, chain
