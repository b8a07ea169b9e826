"""Exact computation for hierarchical filtrations of split vector bundles.

The toolkit covers prime moduli (field), prime-field linear algebra (gf),
divisor-class lattices with intersection pairing (picard), split bundles
and their parser (bundle), depth formulas with bounds and transfer laws
(depth), transform chains (curve) and elementary transforms (hecke)
on the line, block evaluation codes with exact minimum distance and
zero-block contraction (agcode), and a JSON command line (cli).

errors, picard, bundle and depth are imported with the package. field and
curve (pure integer code), gf, hecke and agcode (numpy) and their names
(hierdepth.Field, hierdepth.build_code, ...) are imported on first access
(PEP 562), so `import hierdepth` loads no numpy.
"""

from importlib import import_module as _import_module

from .errors import (
    INFEASIBLE,
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
from .bundle import SplitBundle, parse_bundle
from .depth import (
    NO_FILTRATION,
    HierFiltration,
    curve_split_depth,
    mmp_exact_depth,
    rank_one_bound,
    surface_split_depth,
    verify_filtration,
)

# Each name served on first access, with the module it comes from; a
# module's own name stands for the module.
_LAZY = {
    name: module
    for module, names in {
        "field": ("field", "Field"),
        "gf": ("gf", "FMatrix", "dot_mod", "kernel_basis", "rank", "rref"),
        "curve": ("curve", "INFINITY", "RationalPoint", "build_curve_filtration",
                  "enumerate_points", "point_at"),
        "hecke": (
            "hecke",
            "PointFunctional",
            "SubsheafModel",
            "apply_transform",
            "commute_check",
            "first_usable_covector",
            "full_sections",
        ),
        "agcode": (
            "agcode",
            "DEFAULT_BUDGET",
            "LinearCode",
            "SectionBasis",
            "VanishingCondition",
            "all_rational_points",
            "append_zero_blocks",
            "build_code",
            "min_distance",
            "mmp_compare",
            "permute_points",
            "vanishing_basis",
            "zero_block_contract",
            "zero_blocks",
        ),
    }.items()
    for name in names
}


def __getattr__(name):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # importing a submodule binds it on the package, so its own name is
    # looked up here only once; other names are read from the module each
    # time, so they are always the module's current object
    mod = _import_module(f".{module}", __name__)
    return mod if name == module else getattr(mod, name)


def __dir__():
    return sorted({*globals(), *_LAZY})


__version__ = "0.1.0"
