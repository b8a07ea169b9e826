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

A chain's start and final models (curve.TransformChain) are built here
when read, block by block from agcode's vanishing bases; curve.MAX_WIDTH
bounds a chain only through them.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from . import agcode, gf
from .curve import RationalPoint, _check_width, _widths, point_at
from .errors import OverlappingSupport, VacuousTransform
from .field import Field
from .gf import FMatrix


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
    transform. The basis is in reduced echelon form: full_sections starts
    from an identity, a chain's models stack kernels and each transform keeps
    the form, so no step re-checks it; the joint kernel relies on it.
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


def full_sections(degrees, p: int) -> SubsheafModel:
    """Model holding every section of O(d_1) + ... + O(d_r).

    The dimension is the sum of d_i + 1 over nonnegative degrees; summands
    of negative degree contribute zero-width blocks. Raises WidthTooLarge
    when the dimension exceeds curve.MAX_WIDTH.
    """
    p = Field(p).p
    degrees = tuple(int(d) for d in degrees)
    if not degrees:
        raise ValueError("need at least one summand degree")
    width = sum(_widths(degrees, 0))
    _check_width(width)
    basis = FMatrix.identity(p, width)
    return SubsheafModel(degrees, 0, p, basis, sum(degrees))


def _point_rows(m: SubsheafModel, point: RationalPoint) -> np.ndarray:
    """Width x rank: column i evaluates block i alone at point, by the
    powers 1, q, q^2, ... of an affine point q across the block, or at
    infinity by the block's top coefficient."""
    widths = m.block_widths
    rows = np.zeros((sum(widths), len(widths)), dtype=np.int64)
    pw = [1]
    if not point.is_infinity:
        q = point.coord % m.p
        for _ in range(max(widths) - 1):
            pw.append(pw[-1] * q % m.p)
    for i, (w, off) in enumerate(zip(widths, accumulate(widths, initial=0))):
        if w and point.is_infinity:
            rows[off + w - 1, i] = 1
        elif w:
            rows[off:off + w, i] = pw[:w]
    return rows


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
    for i, v in enumerate(values.T):
        if v.any():
            return PointFunctional(point, tuple(int(k == i) for k in range(m.rank)))
    raise VacuousTransform(f"no usable covector at point {point.label()}")


@dataclass(frozen=True)
class CommuteReport:
    """Outcome of comparing transform routes against the joint kernel."""

    dim_v12: int
    dim_v21: int
    dim_joint: int
    equal: bool
    v12: FMatrix
    v21: FMatrix
    joint: FMatrix


def _homogeneous(point: RationalPoint, p: int) -> tuple[int, int]:
    """The point of the line over F_p as (1, q mod p), or infinity as (0, 1)."""
    return (0, 1) if point.is_infinity else (1, point.coord % p)


def _joint_kernel(m: SubsheafModel, f1, f2) -> FMatrix:
    # a row space is the kernel of its kernel, so stacking the functionals
    # under the basis's kernel checks the transforms without any cut; the
    # free-column kernel reads columns reversed, so they are turned back
    rows = np.concatenate((gf._free_column_kernel(m.basis.array, m.p)[:, ::-1],
                           [_functional_row(m, f1), _functional_row(m, f2)]))
    return gf.kernel_basis(FMatrix(m.p, rows, cols=m.basis.cols))


def _chain_final(chain) -> SubsheafModel:
    """The subsheaf after a curve.TransformChain's last step.

    Each step cuts one block, so the basis is block-diagonal: block i holds
    agcode's forms of degree w_i - 1 vanishing at the points it took, in
    point_at's order. A filled block keeps no section and is not built; a
    block no step reached comes back as the identity from the same call.
    """
    p, widths = chain.p, _widths(chain.degrees, chain.twist)
    basis = np.zeros((chain.dims[-1], sum(widths)), dtype=np.int64)
    row = col = 0
    for i, w in enumerate(widths):
        # a block that took points follows only filled ones, which took a
        # point per column, so its points start at its offset
        k = chain.picks.count(i)
        if k < w:
            conditions = [agcode.VanishingCondition(_homogeneous(point_at(t, p), p))
                          for t in range(col, col + k)]
            block = agcode.vanishing_basis(w - 1, conditions, "P1", p).basis
            basis[row:row + block.rows, col:col + w] = block.array
            row += block.rows
        col += w
    return SubsheafModel(chain.degrees, chain.twist, p, FMatrix(p, basis), chain.det_degrees[-1])


def commute_check(m: SubsheafModel, f1: PointFunctional,
                  f2: PointFunctional) -> CommuteReport:
    """Both transform orders against the joint kernel, for distinct points.

    With disjoint supports all three canonical bases coincide; the report
    records the dimensions and the comparison. Equal points, coordinates
    compared mod p, are refused, and a vacuous second step propagates as
    VacuousTransform.
    """
    if _homogeneous(f1.point, m.p) == _homogeneous(f2.point, m.p):
        raise OverlappingSupport(
            "transform points coincide; routes are compared at distinct points only"
        )
    v12 = apply_transform(apply_transform(m, f1), f2).basis
    v21 = apply_transform(apply_transform(m, f2), f1).basis
    joint = _joint_kernel(m, f1, f2)
    return CommuteReport(
        dim_v12=v12.rows,
        dim_v21=v21.rows,
        dim_joint=joint.rows,
        equal=v12 == v21 == joint,
        v12=v12,
        v21=v21,
        joint=joint,
    )
