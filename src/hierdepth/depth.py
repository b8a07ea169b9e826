"""Hierarchical depth: exact values, bounds, and transfer laws.

A hierarchical filtration of a rank-r bundle E is a chain of same-rank
subsheaves E_0 in E_1 in ... in E_h = E whose determinants telescope:
det(E_i) = det(E_{i-1}) + D_i with every increment D_i a nonzero effective
class, and det(E_0) equal to a chosen normalization lambda0. The depth is
the maximal h over all such chains; when no chain reaches lambda0 the
depth is reported by the NO_FILTRATION sentinel rather than an integer.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .bundle import SplitBundle
from .errors import (
    NO_DECOMPOSITION,
    NO_FILTRATION,
    LatticeMismatch,
    NotEffective,
    ShapeMismatch,
)
from .picard import DivisorClass, LatticeKind, decompose_max, is_effective


@dataclass(frozen=True)
class HierFiltration:
    """Determinant-level record of a filtration chain.

    lambda0 is the determinant of the bottom term, increments are the
    determinant jumps from bottom to top, bundle_rank the common rank of
    all terms. Validity (effective nonzero increments, telescoping to the
    right determinant) is checked by verify_filtration, not at build time.
    """

    lambda0: DivisorClass
    increments: tuple[DivisorClass, ...]
    bundle_rank: int

    def __post_init__(self):
        if self.bundle_rank < 1:
            raise ValueError("bundle_rank must be positive")
        object.__setattr__(self, "increments", tuple(self.increments))

    @property
    def length(self) -> int:
        return len(self.increments)

    def top_determinant(self) -> DivisorClass:
        return _telescope(self.lambda0, _distinct(self.increments))


def _distinct(increments) -> Counter:
    """Each distinct increment with its count, hashing each run once.

    A chain repeats one shared DivisorClass, and hashing one walks its
    coefficients, its Lattice and the lattice kind, so a run of the
    identical object is counted with `is` and hashed once.
    """
    counts = Counter()
    run, k = None, 0
    for d in increments:
        if d is run:
            k += 1
        else:
            if k:
                counts[run] += k
            run, k = d, 1
    if k:
        counts[run] += k
    return counts


def _telescope(lambda0: DivisorClass, counts: Counter) -> DivisorClass:
    """lambda0 plus every distinct increment times its count."""
    total = lambda0
    for d, k in counts.items():
        total = total + k * d
    return total


def verify_filtration(f: HierFiltration, target: SplitBundle) -> bool:
    """Check f is a valid determinant chain for the target bundle.

    True when every increment is effective and nonzero and the chain
    telescopes from lambda0 to det(target). Classes from a different
    lattice raise LatticeMismatch.
    """
    lat = target.lattice
    if f.lambda0.lattice != lat:
        raise LatticeMismatch("lambda0 is in a different lattice")
    # each distinct increment once; every lattice first, so a mismatch wins
    distinct = _distinct(f.increments)
    for d in distinct:
        if d.lattice != lat:
            raise LatticeMismatch("increment in a different lattice")
    for d in distinct:
        if d.is_zero or not is_effective(d):
            return False
    return _telescope(f.lambda0, distinct) == target.det()


def curve_split_depth(degrees, lambda0_degree: int):
    """Exact depth of a split curve bundle with the given summand degrees.

    The degree budget M = sum(degrees) - lambda0_degree counts the
    skyscraper transforms available; the depth is exactly M when M >= 0
    and NO_FILTRATION when the budget is negative.
    """
    degrees = [int(d) for d in degrees]
    if not degrees:
        raise ValueError("need at least one summand degree")
    m = sum(degrees) - int(lambda0_degree)
    if m < 0:
        return NO_FILTRATION
    return m


def rank_one_bound(d: int, d0: int) -> int:
    """Upper bound d - d0 for chains of line bundles on a rank-one lattice."""
    return int(d) - int(d0)


def surface_split_depth(b: SplitBundle, lambda0: DivisorClass):
    """Lower and upper depth estimates for a split surface bundle.

    Upper bound: the longest splitting of delta = det(b) - lambda0 into
    nonzero effective pieces, i.e. its coefficient sum. The bounds agree
    whenever every generator appearing in delta moves in pairwise disjoint
    representatives. Otherwise the guaranteed construction normalizes each
    distinct summand class in one jump, so the lower bound is the number
    of distinct summand classes, capped by the upper bound.

    Non-effective delta means no chain at all: both entries come back as
    NO_FILTRATION.
    """
    lat = b.lattice
    if lat.kind not in (LatticeKind.P2, LatticeKind.P1XP1):
        raise LatticeMismatch("surface_split_depth expects P2 or P1xP1")
    if lambda0.lattice != lat:
        raise LatticeMismatch("lambda0 is in a different lattice")
    delta = b.det() - lambda0
    if not is_effective(delta):
        return NO_FILTRATION, NO_FILTRATION
    upper = decompose_max(delta)
    assert upper is not NO_DECOMPOSITION
    if upper == 0:
        return 0, 0
    if all(
        lat.disjoint_representatives(i)
        for i, c in enumerate(delta.coeffs)
        if c > 0
    ):
        return upper, upper
    distinct = len(set(b.summands))
    return min(distinct, upper), upper


def mmp_exact_depth(h_min, alpha, beta) -> int:
    """Depth after a chain of blowups, from the minimal-model depth.

    alpha[j] is the exceptional multiplicity of delta at step j, beta[j]
    the multiplicity of the normalization; each blowup contributes
    alpha[j] - beta[j] extra steps. All differences must be nonnegative.
    """
    h_min = int(h_min)
    if h_min < 0:
        raise ValueError("h_min must be nonnegative")
    alpha = [int(a) for a in alpha]
    beta = [int(x) for x in beta]
    if len(alpha) != len(beta):
        raise ShapeMismatch("alpha and beta must have the same length")
    for a, x in zip(alpha, beta):
        if a < x:
            raise NotEffective(
                f"exceptional multiplicity {a} below normalization {x}"
            )
    return h_min + sum(a - x for a, x in zip(alpha, beta))

