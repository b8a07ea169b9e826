"""Evaluation codes from section spaces on the line and the plane.

A code is built from one section basis per bundle summand and a list of
rational evaluation points. Each point contributes a block of r coordinates
(one per summand); the codeword of a message is the list of section values
at every point, so the block layout mirrors the bundle fibers.

Evaluation at a point uses its normalized representative, first nonzero
coordinate scaled to one. Points of an exceptional locus upstairs are
modeled by evaluating at the blown-down point itself; when every section
vanishes there by construction the corresponding blocks are identically
zero, and contracting those blocks is the code-level shadow of running the
bundle through the blowdown. Contraction keeps the dimension and the exact
minimum distance while shortening the length, so the normalized distance
improves by the ratio of the lengths.

The generator is eliminated once per code: build_code keeps the echelon
form it reads the rank from, zero-block contraction keeps its columns,
and min_distance reads it. The minimum distance is exact and exhaustive.
The budget counts the projective message classes of the whole code;
within it, min_distance splits the echelon generator into connected
components (none spans two summands, since coordinates i, i + r, ... carry
only summand i) and visits every projective class of each component,
which is a direct summand. It counts zero coordinates with float32
products of 0/1 entries whose sums stay at most n < 2**24, so no rounding
can occur. Its table of combinations holds half a component's rows, which
balances making the table against making the words it is matched with,
and is at most 1 MiB.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import comb

import numpy as np

from . import gf
from .errors import (
    DuplicatePoint,
    EmptyCode,
    EmptyMessageSpace,
    INFEASIBLE,
    TooLarge,
)
from .gf import Field, FMatrix

DEFAULT_BUDGET = 10**7
# Most points all_rational_points lists: all of P2 for p < 512, of P1 for p < 2**18.
MAX_POINTS = 2**18
# Most monomials one summand may have: degree 89 on P2, 4095 on P1. P2 at
# degree 89 with two vanishing points builds in about half a second.
MAX_MONOMIALS = 2**12
# Most condition functionals x monomials**2 one summand may have; the kernel's
# one elimination is the cost. Timed at p = 5 and 2**31 - 1: P2 at degree 89
# (4095 monomials) with 55 functionals (9.2e8 cells) in 0.07 and 0.09 s, P2
# at degree 30 with an order-30 point (1.1e8) in 0.06 and 0.08 s, P1 at degree
# 1023 with an order-1024 point (1.07e9, the cap) in 0.3 and 1.3 s, 0.02 s
# of it building rows.
MAX_FUNCTIONAL_CELLS = 2**30

# Homogeneous coordinates of a point, per space.
SPACES = {"P1": 2, "P2": 3}


def monomial_exponents(degree: int, nvars: int) -> tuple[tuple[int, ...], ...]:
    """Exponent vectors of the degree-d monomials, in a fixed order."""
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    if nvars == 2:
        return tuple((a, degree - a) for a in range(degree, -1, -1))
    if nvars == 3:
        return tuple((a, b, degree - a - b)
                     for a in range(degree, -1, -1) for b in range(degree - a, -1, -1))
    raise ValueError("only 2 or 3 variables are supported")


def normalize_point(coords, p: int) -> tuple[int, ...]:
    """Scale so the first nonzero coordinate is one."""
    Field(p)
    return _normalize(coords, p)


def _normalize(coords, p: int) -> tuple[int, ...]:
    """normalize_point for callers that have already checked p."""
    pt = tuple(int(c) % p for c in coords)
    for c in pt:
        if c == 1:
            return pt  # already normalized, as every all-rational point is
        if c:
            inv = pow(c, p - 2, p)
            return tuple((x * inv) % p for x in pt)
    raise ValueError("all-zero coordinates do not define a point")


def all_rational_points(space: str, p: int) -> list[tuple[int, ...]]:
    """Every rational point of the space, normalized, in a fixed order.

    Raises TooLarge when the space has more than MAX_POINTS points.
    """
    if space not in SPACES:
        raise ValueError(f"unknown space {space!r}")
    Field(p)
    count = p + 1 if space == "P1" else p * p + p + 1
    if count > MAX_POINTS:
        raise TooLarge(f"{space} over F_{p} has {count} points, above the cap {MAX_POINTS}")
    if space == "P1":
        return [(1, t) for t in range(p)] + [(0, 1)]
    pts = [(1, b, c) for b in range(p) for c in range(p)]
    pts += [(0, 1, c) for c in range(p)]
    pts.append((0, 0, 1))
    return pts


@dataclass(frozen=True)
class VanishingCondition:
    """Vanishing to order at least `order` at a projective point."""

    point: tuple[int, ...]
    order: int = 1

    def __post_init__(self):
        if self.order < 1:
            raise ValueError("vanishing order must be at least 1")
        object.__setattr__(self, "point", tuple(int(c) for c in self.point))


@dataclass(frozen=True)
class SectionBasis:
    """Echelon basis of a space of degree-d forms, rows over the monomials."""

    space: str
    degree: int
    p: int
    basis: FMatrix

    @property
    def dim(self) -> int:
        return self.basis.rows

    @property
    def monomials(self) -> tuple[tuple[int, ...], ...]:
        return monomial_exponents(self.degree, SPACES[self.space])


def _point_on(space: str, pt, p: int) -> tuple[int, ...]:
    """The normalized point pt of the space; refuses a wrong coordinate count."""
    if len(pt) != SPACES[space]:
        raise ValueError(f"{space} points need {SPACES[space]} coordinates, not {tuple(pt)}")
    return _normalize(pt, p)


def _taylor(values, degree: int, order: int, p: int) -> np.ndarray:
    """Taylor table of the values x mod p, (degree + 1) x values.shape x order.

    Entry [e, ..., i] is C(e, i) * x**(e - i), the coefficient of t**i in
    (x + t)**e (zero for i > e); column 0 is the power table. The step
    T[e + 1] = x * T[e] + T[e] shifted right keeps every entry below p.
    """
    x = np.asarray(values, dtype=np.int64)[..., None]
    table = np.zeros((degree + 1,) + x.shape[:-1] + (order,), dtype=np.int64)
    table[0, ..., 0] = 1
    for e in range(degree):
        step = x * table[e]
        step[..., 1:] += table[e, ..., :-1]
        table[e + 1] = step % p
    return table


def _condition_rows(degree, nvars, points, orders, p) -> np.ndarray:
    """Hasse-derivative functionals at normalized points, stacked point by point.

    points is one point or a sequence of them, and orders the matching order
    or orders. Point c contributes a functional per multi-index i of total
    order below orders[c], zero in the chart (the first nonzero coordinate,
    which is one). Its entry at the monomial with exponents f is the product
    over v of C(f_v, i_v) * point_v**(f_v - i_v), one gather per variable
    from a Taylor table. The points of one order share one table, only as
    deep as that order, so a high-order point does not widen the table of
    many low-order ones. In small characteristic the binomials implement
    divided powers, so order-o vanishing is characterized correctly even
    when o exceeds p.
    """
    if isinstance(orders, int):
        points, orders = [points], [orders]
    monos = np.array(monomial_exponents(degree, nvars))
    blocks = [None] * len(orders)
    for order in set(orders):
        group = [c for c, o in enumerate(orders) if o == order]
        # degree + 1 x group x nvars x order
        table = _taylor([points[c] for c in group], degree, order, p)
        for k, c in enumerate(group):
            multi = np.array(monomial_exponents(order - 1, nvars))
            multi[:, int(np.flatnonzero(points[c])[0])] = 0
            # table entries lie below p, so the first gather needs no reduction
            rows = table[monos[None, :, 0], k, 0, multi[:, None, 0]]
            for v in range(1, nvars):
                rows = rows * table[monos[None, :, v], k, v, multi[:, None, v]] % p
            blocks[c] = rows
    return np.concatenate([np.zeros((0, len(monos)), dtype=np.int64), *blocks])


def vanishing_basis(degree: int, conditions, space: str,
                    p: int) -> SectionBasis:
    """Basis of the degree-d forms meeting all vanishing conditions.

    The dimension is the count of degree-d monomials minus the number of
    independent condition functionals. Orders above the degree add nothing,
    since every Hasse derivative of total order above d vanishes on
    degree-d forms, so each order is clamped at d + 1. Raises TooLarge,
    before any condition row is built, when there are more than
    MAX_MONOMIALS monomials or more than MAX_FUNCTIONAL_CELLS functionals x
    monomials**2.
    """
    if space not in SPACES:
        raise ValueError(f"unknown space {space!r}")
    Field(p)
    nvars = SPACES[space]
    count = comb(max(degree, 0) + nvars - 1, nvars - 1)
    if count > MAX_MONOMIALS:
        raise TooLarge(
            f"degree {degree} on {space} has {count} monomials, above the cap {MAX_MONOMIALS}"
        )
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    points = [_point_on(space, c.point, p) for c in conditions]
    orders = [min(c.order, degree + 1) for c in conditions]
    # order o gives one functional per multi-index of total order below o
    functionals = sum(comb(o + nvars - 2, nvars - 1) for o in orders)
    if functionals * count**2 > MAX_FUNCTIONAL_CELLS:
        raise TooLarge(
            f"{functionals} condition functionals over {count} monomials exceed"
            f" the cap of {MAX_FUNCTIONAL_CELLS} functionals x monomials**2"
        )
    rows = _condition_rows(degree, nvars, points, orders, p)
    basis = gf.kernel_basis(FMatrix(p, rows))
    return SectionBasis(space=space, degree=degree, p=p, basis=basis)


def _evaluate(basis: SectionBasis, points) -> np.ndarray:
    """Values of every basis form at every normalized point, dim x points.

    A monomial's values multiply entries of one power table per coordinate,
    each below p, so every product stays below 2**62 and is exact.
    """
    if not points:
        raise ValueError("need at least one evaluation point")
    p, coords = basis.p, np.array(points, dtype=np.int64)
    powers = _taylor(coords, basis.degree, 1, p)[..., 0]
    table = np.ones((basis.basis.cols, len(points)), dtype=np.int64)
    for v, exponents in enumerate(np.array(basis.monomials).T):
        table = table * powers[exponents, :, v] % p  # monomials x points
    return (basis.basis.array @ table) % p


def evaluate_basis(basis: SectionBasis, pt) -> np.ndarray:
    """Values of every basis form at a normalized point."""
    Field(basis.p)
    return _evaluate(basis, [_point_on(basis.space, pt, basis.p)])[:, 0]


@dataclass
class LinearCode:
    """Block evaluation code with r coordinates per point."""

    p: int
    r: int
    points: tuple[tuple[int, ...], ...]
    generator: FMatrix
    k: int
    message_dim: int
    d_min: int | None = field(default=None)
    # Canonical echelon form of the generator. build_code keeps the one it
    # computes k from; min_distance makes it on first use for a code built
    # by hand. Derived data, so equality and repr ignore it.
    echelon: FMatrix | None = field(default=None, compare=False, repr=False)
    # Indices of the zero blocks, scanned by zero_blocks on first use.
    zeros: tuple[int, ...] | None = field(default=None, compare=False, repr=False)

    @property
    def num_points(self) -> int:
        return len(self.points)

    @property
    def n(self) -> int:
        return self.r * len(self.points)


def build_code(bases, points, p: int, exceptional=()) -> LinearCode:
    """Evaluate one section basis per summand at the given points.

    Regular points must be pairwise distinct after normalization; the
    optional exceptional list is appended without that check, so a
    blown-down point may appear several times, once per upstairs point
    it models. The reported dimension k is the generator rank, which can
    fall below the message dimension when evaluation is degenerate; both
    are kept. The echelon form k is read from is kept on the code, so
    min_distance does not eliminate the generator again.
    """
    bases = list(bases)
    if not bases:
        raise ValueError("need at least one section basis")
    space = bases[0].space
    for b in bases:
        if b.p != p:
            raise ValueError("section basis over a different field")
        if b.space != space:
            raise ValueError("section bases on different spaces")
    Field(p)
    regular = [_point_on(space, pt, p) for pt in points]
    seen = set()
    for pt in regular:
        if pt in seen:
            raise DuplicatePoint(f"repeated evaluation point {pt}")
        seen.add(pt)
    extra = [_point_on(space, pt, p) for pt in exceptional]
    allpts = regular + extra
    message_dim = sum(b.dim for b in bases)
    if message_dim == 0:
        raise EmptyMessageSpace("no sections to evaluate")
    r = len(bases)
    width = r * len(allpts)
    rows = np.zeros((message_dim, width), dtype=np.int64)
    row = 0
    for i, b in enumerate(bases):
        rows[row:row + b.dim, i::r] = _evaluate(b, allpts)
        row += b.dim
    generator = FMatrix(p, rows, cols=width)
    echelon = gf.rref(generator)
    return LinearCode(
        p=p,
        r=r,
        points=tuple(allpts),
        generator=generator,
        k=echelon.rows,
        message_dim=message_dim,
        echelon=echelon,
    )


def _projective_class_count(p: int, k: int) -> int:
    return (p**k - 1) // (p - 1)


# Cells of the one-hot table, (n * p) x p**t float32: at most 1 MiB. It
# caps t only where k // 2 rows would not fit (_table_depth).
TABLE_CELLS = 1 << 18
# Cells of one chunk of head words: one-hot float32 rows, or int64 words
# when there is no table. Chunks of 2**17 to 2**22 cells time alike on
# workload codes; the small end keeps memory low.
CHUNK_CELLS = 1 << 18
# float32 holds every integer up to 2**24 exactly.
_EXACT_FLOAT32 = 1 << 24


def _combinations(rows: np.ndarray, p: int) -> np.ndarray:
    """All p**t combinations of the t given rows mod p; row 0 is zero."""
    n = rows.shape[1]
    table = np.zeros((1, n), dtype=np.int64)
    for row in rows:
        # only made when some row fits the table, so p is small here
        coeffs = np.arange(p, dtype=np.int64)[:, None, None]
        table = ((coeffs * row + table) % p).reshape(-1, n)
    return table


def _components(reduced: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Row and column masks of the connected components of an echelon matrix.

    Two rows are linked when they share a nonzero column; a component's
    columns are the union of its rows' supports, so all-zero columns lie in
    none. The links are one float32 product of the 0/1 nonzero mask, exact
    for any n since a sum of 0/1 terms with a 1 among them cannot round to
    zero; the components are then a search over the k rows.
    """
    nonzero = reduced != 0
    ones = nonzero.astype(np.float32)
    links = ((ones @ ones.T) > 0).tolist()
    seen = [False] * len(links)
    parts = []
    for first in range(len(links)):
        if seen[first]:
            continue
        seen[first] = True
        found = [first]
        for i in found:  # grows while it is read
            for j, linked in enumerate(links[i]):
                if linked and not seen[j]:
                    seen[j] = True
                    found.append(j)
        rows = np.zeros(len(links), dtype=bool)
        rows[found] = True
        parts.append((rows, nonzero[rows].any(axis=0)))
    return parts


def _echelon(code: LinearCode) -> FMatrix:
    """The code's canonical echelon generator, eliminated on first use."""
    if code.echelon is None:
        code.echelon = gf.rref(code.generator)
    return code.echelon


def min_distance(code: LinearCode, budget: int = DEFAULT_BUDGET):
    """Exact minimum weight by projective enumeration of the message space.

    Scaling a message scales the codeword, so one representative per
    projective class suffices: messages whose first nonzero entry is one,
    (p**k - 1) / (p - 1) of them over an echelon generator of rank k.
    Returns INFEASIBLE without enumerating when that count, for the whole
    code, exceeds the budget; otherwise caches the result on the code.
    The echelon generator is the one the code keeps, made here only when
    the code was built without one.

    Within the budget the echelon generator is split into its connected
    components (rows linked by a shared nonzero column). The code is their
    direct sum: weights add across components and all-zero columns never
    count, so d is the least component distance. A component is its rows
    restricted to its columns, which is again in echelon form, and each is
    enumerated on its own: sum (p**k_i - 1) / (p - 1) classes instead of
    (p**k - 1) / (p - 1). A code with one component loses only its all-zero
    columns, which never add weight.
    """
    if code.k < 1:
        raise EmptyCode("code has no nonzero codeword")
    if code.d_min is not None:
        return code.d_min
    p = code.p
    reduced = _echelon(code).array  # k x n, independent rows
    if _projective_class_count(p, len(reduced)) > budget:
        return INFEASIBLE
    best = min(
        _min_weight(reduced[np.ix_(rows, cols)], p) for rows, cols in _components(reduced)
    )
    code.d_min = best
    return best


def _table_depth(k: int, n: int, p: int) -> int:
    """Echelon rows t the one-hot table of a k x n generator holds.

    t is k // 2, or less when the table, (n * p) x p**t cells, would pass
    TABLE_CELLS; 0 when n >= 2**24, where float32 sums are no longer
    exact. Whatever t is, the float32 products total about
    p**k * n * p / (p - 1) multiply-adds. What t moves is the int64 work
    with %: about p**t * n to build and scatter the table, and about
    p**(k - t) * n to make and scatter the head words. Half the rows
    balance the two, so a deeper table pays only where memory binds, and
    there both rules pick the same t.
    """
    t = 0
    if n < _EXACT_FLOAT32:
        while t < k // 2 and p ** (t + 2) * n <= TABLE_CELLS:
            t += 1
    return t


def _min_weight(reduced: np.ndarray, p: int) -> int:
    """Least weight of a nonzero codeword of a k x n echelon generator.

    The enumeration is exhaustive over the projective classes. The last t
    echelon rows, t from _table_depth, are tabulated once: all p**t of
    their combinations, as a one-hot float32 table with a 1 at
    (j * p + value at j, combination), at most TABLE_CELLS = 2**18 cells
    (1 MiB). The classes with a zero head are the table's nonzero rows.
    Every other class is a head class (lead row plus later head rows) plus
    one table row. The table holds -x with every row x, so these classes
    are the differences w - x of a head word w and a table row x, and
    w - x is zero at j exactly where w_j = x_j. One product of the head
    words' one-hot rows with the table counts those coordinates for every
    pair, so a chunk of head classes costs one float32 matrix product. It
    is exact: every entry is 0 or 1 and every sum is at most n < 2**24,
    which float32 holds whatever the summation order. When no row fits
    the table (t = 0, as for large p or k = 1), each head word's weight is
    counted directly.
    """
    k, n = reduced.shape
    t = _table_depth(k, n, p)
    head = reduced[:k - t]
    table = _combinations(reduced[k - t:], p)
    best = int(np.count_nonzero(table[1:], axis=1).min()) if t else n
    # head classes per chunk: no more than the first lead row has
    width = n * p if t else n
    chunk = max(1, min(CHUNK_CELLS // width, p ** max(k - t - 1, 0)))
    if 0 < t < k:
        columns = np.arange(n, dtype=np.int64) * p
        onehot = np.zeros((width, p**t), dtype=np.float32)
        onehot[columns + table, np.arange(p**t)[:, None]] = 1
        # flat index of (head word c, coordinate j, value 0) in a chunk
        offsets = np.arange(chunk, dtype=np.int64)[:, None] * width + columns
    for lead in range(k - t):
        later = head[lead + 1:]
        total = p ** len(later)
        powers = p ** np.arange(len(later) - 1, -1, -1, dtype=np.int64)
        for start in range(0, total, chunk):
            idx = np.arange(start, min(start + chunk, total), dtype=np.int64)
            digits = (idx[:, None] // powers) % p
            words = (gf.dot_mod(digits, later, p) + head[lead]) % p
            if t:
                hits = np.zeros((len(idx), width), dtype=np.float32)
                hits.reshape(-1)[offsets[:len(idx)] + words] = 1
                low = n - int((hits @ onehot).max())
            else:
                low = int(np.count_nonzero(words, axis=1).min())
            if low < best:
                best = low
    return best


@dataclass(frozen=True)
class ContractionReport:
    """Zero blocks dropped, and the normalized distances when d is known."""

    zero_blocks: tuple[int, ...]
    n_points_before: int
    n_points_after: int
    k: int
    d_min: int | None
    delta_before: Fraction | None
    delta_after: Fraction | None

    @property
    def ratio(self) -> Fraction | None:
        """delta_after / delta_before; None while d is unknown."""
        if self.delta_before is None:
            return None
        return self.delta_after / self.delta_before

    @property
    def improved(self) -> bool:
        """Whether some block was dropped, which shortens the code."""
        return bool(self.zero_blocks)


def _scan_zero_blocks(code: LinearCode) -> tuple[int, ...]:
    arr = code.generator.array
    live = arr.reshape(arr.shape[0], code.num_points, code.r).any(axis=(0, 2))
    return tuple(np.flatnonzero(~live).tolist())


def zero_blocks(code: LinearCode) -> tuple[int, ...]:
    """Indices of the point blocks on which every codeword vanishes.

    Scanned once per code and kept on it, so a report's summary and the
    contraction share one scan.
    """
    if code.zeros is None:
        code.zeros = _scan_zero_blocks(code)
    return code.zeros


def _take_blocks(code: LinearCode, blocks, d_min=None, in_order=False) -> LinearCode:
    """The code on the point blocks listed; block j is block blocks[j].

    Callers leave out only zero blocks, which carry no rank, so k is kept.
    When the blocks are in_order (increasing), the same columns of the
    echelon form are taken too: zero columns are never pivots, so that
    slice is the result's canonical echelon form. Any other order breaks
    echelon form, and the result makes its own on first use.
    """
    r = code.r
    cols = [j * r + i for j in blocks for i in range(r)]

    def take(m: FMatrix) -> FMatrix:
        return FMatrix(m.p, m.array[:, cols], cols=len(cols))

    return LinearCode(
        p=code.p,
        r=r,
        points=tuple(code.points[j] for j in blocks),
        generator=take(code.generator),
        k=code.k,
        message_dim=code.message_dim,
        d_min=d_min,
        echelon=take(_echelon(code)) if in_order else None,
    )


def _contraction_report(code: LinearCode, zero, d) -> ContractionReport:
    """The report of dropping the zero blocks of code, whose distance is d."""
    n_after = code.num_points - len(zero)
    delta_before = delta_after = None
    if d is not None and n_after:
        delta_before = Fraction(d, code.n)
        delta_after = Fraction(d, code.r * n_after)
    return ContractionReport(
        zero_blocks=zero,
        n_points_before=code.num_points,
        n_points_after=n_after,
        k=code.k,
        d_min=d,
        delta_before=delta_before,
        delta_after=delta_after,
    )


def zero_block_contract(code: LinearCode):
    """Drop every point block on which all codewords vanish.

    Deleting identically zero coordinates changes no weight, so the
    dimension and the minimum distance survive while the length falls to
    r times the remaining point count. The contracted code is returned
    with its distance unset so callers can recompute it independently;
    the report carries the normalized-distance comparison when the input
    distance was already known. It keeps the columns of the code's echelon
    form that it keeps of the generator, so the contracted code needs no
    elimination of its own.
    """
    zero = zero_blocks(code)
    dropped = set(zero)
    keep = [j for j in range(code.num_points) if j not in dropped]
    return _take_blocks(code, keep, in_order=True), _contraction_report(code, zero, code.d_min)


def mmp_compare(code: LinearCode, budget: int = DEFAULT_BUDGET):
    """Contract zero blocks and compare normalized distances exactly.

    The distance is enumerated once on the contracted code; the original
    shares it because only zero coordinates were removed. The improvement
    ratio equals the length ratio before over after, which exceeds one
    precisely when some block was contracted. Returns the contraction
    report with that distance, or INFEASIBLE when the enumeration does not
    fit the budget.
    """
    contracted, report = zero_block_contract(code)
    if report.n_points_after == 0 or code.k < 1:
        raise EmptyCode("nothing left after contraction")
    d = min_distance(contracted, budget)
    if d is INFEASIBLE:
        return INFEASIBLE
    if code.d_min is None:
        code.d_min = d  # inherited: removed coordinates were zero
    report = _contraction_report(code, report.zero_blocks, d)
    assert report.ratio == Fraction(report.n_points_before, report.n_points_after)
    return report


def append_zero_blocks(code: LinearCode, points) -> LinearCode:
    """Lengthen the code by identically zero blocks at the given points.

    Used to model extra evaluation slots that no section reaches. The
    distance and the echelon form are left unset on the result.
    """
    points = list(points)
    arr = code.generator.array
    pad = np.zeros((arr.shape[0], code.r * len(points)), dtype=np.int64)
    generator = FMatrix(code.p, np.hstack([arr, pad]), cols=arr.shape[1] + pad.shape[1])
    extra = [_normalize(pt, code.p) for pt in points]  # p checked by FMatrix
    return LinearCode(
        p=code.p,
        r=code.r,
        points=code.points + tuple(extra),
        generator=generator,
        k=code.k,
        message_dim=code.message_dim,
    )


def permute_points(code: LinearCode, perm) -> LinearCode:
    """Reorder point blocks; block j of the result is block perm[j].

    A coordinate relabeling, so the cached distance carries over; the
    echelon form does not, and is made again on first use.
    """
    perm = [int(j) for j in perm]
    if sorted(perm) != list(range(code.num_points)):
        raise ValueError("perm must be a permutation of the point indices")
    return _take_blocks(code, perm, code.d_min)
