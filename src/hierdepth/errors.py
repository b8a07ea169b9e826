"""Shared exception types and sentinel answers.

Every module raises from this catalog so callers can distinguish malformed
input from domain-level failure without string matching. The sentinels
are answers that stand for "no such value"; they are not errors.
"""

from enum import Enum


class Sentinel(Enum):
    """Singleton answer standing in for a value that does not exist.

    Compare with `is`. Members keep their identity through copy and pickle.
    """

    NO_FILTRATION = "NoFiltration"
    NO_DECOMPOSITION = "NoDecomposition"
    INFEASIBLE = "Infeasible"

    def __repr__(self):
        return self.value

    __str__ = __repr__


# No filtration reaches the requested normalization.
NO_FILTRATION = Sentinel.NO_FILTRATION
# The class admits no decomposition into generators.
NO_DECOMPOSITION = Sentinel.NO_DECOMPOSITION
# Enumeration would exceed the codeword budget.
INFEASIBLE = Sentinel.INFEASIBLE


class HierdepthError(Exception):
    """Base class for all library errors."""


class NotPrime(HierdepthError):
    """Requested field modulus is not a prime in the supported range."""


class LatticeMismatch(HierdepthError):
    """Operands live in different divisor-class lattices."""


class ShapeMismatch(HierdepthError):
    """Sequence arguments that must align have different lengths."""


class NotEffective(HierdepthError):
    """A divisor class required to be effective is not."""


class TooLarge(HierdepthError):
    """Input whose listing or working space exceeds a supported maximum."""


class WidthTooLarge(TooLarge):
    """Section space wider than the supported maximum for transform chains."""


class VacuousTransform(HierdepthError):
    """Evaluation functional vanishes on the whole subspace; no transform."""


class OverlappingSupport(HierdepthError):
    """Transform points coincide where distinct points are required."""


class NotEnoughPoints(HierdepthError):
    """More transform points requested than the line has rational points."""


class NegativeM(HierdepthError):
    """Degree budget sum(d_i) - deg(lambda0) is negative."""


class DuplicatePoint(HierdepthError):
    """Evaluation point list contains a repeated point."""


class EmptyMessageSpace(HierdepthError):
    """No sections to evaluate; the message space has dimension zero."""


class EmptyCode(HierdepthError):
    """Code has no nonzero codeword."""
