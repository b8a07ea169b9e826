"""Exact computation for hierarchical filtrations of split vector bundles.

The toolkit covers prime-field linear algebra (gf), divisor-class lattices
with intersection pairing (picard), split bundles with slopes and profiles
(bundle), depth formulas with bounds and transfer laws (depth), elementary
transforms on the projective line (hecke), block evaluation codes with
exact minimum distance and zero-block contraction (agcode), and a JSON
command line (cli).
"""

from .errors import (
    DistanceUnknown,
    DuplicatePoint,
    EmptyCode,
    EmptyMessageSpace,
    HierdepthError,
    LatticeMismatch,
    NegativeM,
    NotEffective,
    NotEnoughPoints,
    NotPrime,
    OverlappingSupport,
    Sentinel,
    ShapeMismatch,
    TooLarge,
    VacuousTransform,
    WidthTooLarge,
)
from .gf import Field, FMatrix, dot_mod, kernel_basis, rank, rref
from .picard import (
    NO_DECOMPOSITION,
    DivisorClass,
    Lattice,
    LatticeKind,
    blowup_split,
    decompose_max,
    intersect,
    is_effective,
    parse_class,
    pullback,
)
from .bundle import HNProfile, SplitBundle, parse_bundle
from .depth import (
    NO_FILTRATION,
    HierFiltration,
    blowup_delta,
    curve_split_depth,
    depth_monotonic_check,
    mmp_exact_depth,
    rank_one_bound,
    slope_profile,
    surface_split_depth,
    verify_filtration,
)
from .hecke import (
    INFINITY,
    PointFunctional,
    RationalPoint,
    SubsheafModel,
    apply_transform,
    build_curve_filtration,
    commute_check,
    enumerate_points,
    first_usable_covector,
    full_sections,
    point_at,
    probe_overlap,
)
from .agcode import (
    DEFAULT_BUDGET,
    INFEASIBLE,
    LinearCode,
    SectionBasis,
    VanishingCondition,
    all_rational_points,
    append_zero_blocks,
    build_code,
    min_distance,
    mmp_compare,
    normalized_distance,
    permute_points,
    vanishing_basis,
    zero_block_contract,
    zero_blocks,
)

__version__ = "0.1.0"
