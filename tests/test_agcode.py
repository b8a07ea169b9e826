"""Evaluation codes: section spaces, exact distances, zero-block contraction."""

import itertools
import math
import random
import tracemalloc
from fractions import Fraction
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from hierdepth import agcode, gf
from hierdepth.agcode import (
    INFEASIBLE,
    LinearCode,
    VanishingCondition,
    all_rational_points,
    append_zero_blocks,
    build_code,
    evaluate_basis,
    min_distance,
    mmp_compare,
    monomial_exponents,
    normalize_point,
    permute_points,
    vanishing_basis,
    zero_block_contract,
    zero_blocks,
)
from hierdepth.errors import (
    DuplicatePoint,
    EmptyCode,
    EmptyMessageSpace,
    TooLarge,
    WidthTooLarge,
)
from hierdepth.gf import FMatrix


def oracle_min_weight(code):
    """Minimum weight by full message enumeration, pure Python."""
    rows = code.generator.tolist()
    p = code.p
    best = None
    for coeffs in itertools.product(range(p), repeat=len(rows)):
        if not any(coeffs):
            continue
        word = [0] * code.n
        for c, row in zip(coeffs, rows):
            if c:
                for j, x in enumerate(row):
                    word[j] = (word[j] + c * x) % p
        w = sum(1 for x in word if x)
        if w and (best is None or w < best):
            best = w
    return best


def oracle_rank(rows, p):
    """Row rank by hand-rolled elimination over the prime field."""
    mat = [list(r) for r in rows]
    rank = 0
    col = 0
    ncols = len(mat[0]) if mat else 0
    while rank < len(mat) and col < ncols:
        pivot = next((i for i in range(rank, len(mat)) if mat[i][col] % p), None)
        if pivot is None:
            col += 1
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        inv = pow(mat[rank][col] % p, p - 2, p)
        mat[rank] = [(x * inv) % p for x in mat[rank]]
        for i in range(len(mat)):
            if i != rank and mat[i][col] % p:
                f = mat[i][col] % p
                mat[i] = [(a - f * b) % p for a, b in zip(mat[i], mat[rank])]
        rank += 1
        col += 1
    return rank


def low_order_coeffs(coeff_row, monomials, pt, p, order):
    """Taylor coefficients below `order` of the dehomogenized form at pt.

    Expands each monomial around the point with binomials, in the chart
    where the first nonzero coordinate is one. Independent of the
    derivative machinery under test.
    """
    i0 = next(i for i, c in enumerate(pt) if c)
    rest = [i for i in range(len(pt)) if i != i0]
    low = {}
    for coeff, expo in zip(coeff_row, monomials):
        if coeff % p == 0:
            continue
        cur = {(): coeff % p}
        for idx in rest:
            e, a = expo[idx], pt[idx]
            nxt = {}
            for key, c in cur.items():
                for i in range(e + 1):
                    cc = (c * math.comb(e, i) * pow(a, e - i, p)) % p
                    nxt[key + (i,)] = (nxt.get(key + (i,), 0) + cc) % p
            cur = nxt
        for key, c in cur.items():
            if sum(key) < order:
                low[key] = (low.get(key, 0) + c) % p
    return low


def test_monomial_orders():
    line = monomial_exponents(3, 2)
    assert line == ((3, 0), (2, 1), (1, 2), (0, 3))
    plane = monomial_exponents(2, 3)
    assert len(plane) == 6
    assert plane[0] == (2, 0, 0) and plane[-1] == (0, 0, 2)
    assert len(monomial_exponents(3, 3)) == 10


def test_normalize_point():
    assert normalize_point((2, 4, 6), 7) == (1, 2, 3)
    assert normalize_point((0, 3, 3), 5) == (0, 1, 1)
    with pytest.raises(ValueError):
        normalize_point((0, 0, 0), 5)


def scaled_by_the_inverse(coords, p):
    """Normalization as a pow and a second tuple, for every point."""
    pt = tuple(int(c) % p for c in coords)
    lead = next(c for c in pt if c)
    inv = pow(lead, p - 2, p)
    return tuple((x * inv) % p for x in pt)


@pytest.mark.parametrize("p", [2, 3, 5, 65537, 2**31 - 1])
def test_normalize_returns_what_scaling_by_the_inverse_gives(p):
    # a leading 1 is returned as reduced, without scaling; the leads are
    # also given unreduced (p + 1, -1) and after zeros
    rnd = random.Random(p)
    for lead in (1, p - 1, p + 1, -1):
        for zeros in range(3):
            rest = [rnd.randrange(-p, 2 * p) for _ in range(rnd.randint(0, 2))]
            coords = [0] * zeros + [lead] + rest
            got = agcode._normalize(coords, p)
            assert got == scaled_by_the_inverse(coords, p)
            assert all(type(c) is int for c in got)


def test_rational_point_inventories():
    plane = all_rational_points("P2", 5)
    assert len(plane) == 31
    assert len(set(plane)) == 31
    for pt in plane:
        assert normalize_point(pt, 5) == pt
    line = all_rational_points("P1", 5)
    assert len(line) == 6 and line[-1] == (0, 1)


@pytest.mark.parametrize(
    "space,p,count",
    [
        ("P2", 509, 509**2 + 509 + 1),  # the largest plane under the cap
        ("P2", 521, None),
        ("P1", 2**18 - 5, 2**18 - 4),
        ("P1", 2**18 + 3, None),
    ],
)
def test_rational_point_listing_is_capped(space, p, count):
    assert issubclass(WidthTooLarge, TooLarge)
    if count is None:
        with pytest.raises(TooLarge):
            all_rational_points(space, p)
    else:
        assert count <= agcode.MAX_POINTS
        assert len(all_rational_points(space, p)) == count


@pytest.mark.parametrize("order, refused", [(256, False), (257, True)])
def test_condition_functionals_are_capped(order, refused, monkeypatch):
    # P1 at degree 511 has 512 monomials; order o gives o functionals. The
    # cap counts functionals x monomials**2; the real one sits at about a
    # second of building, so a smaller one pins where it bites.
    monkeypatch.setattr(agcode, "MAX_FUNCTIONAL_CELLS", 256 * 512**2)
    conds = [VanishingCondition((1, 0), order)]
    if refused:
        with pytest.raises(TooLarge):
            vanishing_basis(511, conds, "P1", 5)
    else:
        assert vanishing_basis(511, conds, "P1", 5).dim == 512 - order


@pytest.mark.parametrize("space, degree, point", [
    ("P1", -2, (1, 0)), ("P1", -7, (0, 1)), ("P2", -3, (1, 0, 0)), ("P2", -9, (1, 2, 3)),
])
def test_negative_degree_with_conditions_is_refused_as_before(space, degree, point):
    with pytest.raises(ValueError, match="degree must be nonnegative"):
        vanishing_basis(degree, [VanishingCondition(point, 2)], space, 5)


def reference_condition_rows(degree, nvars, pt, order, p):
    """Condition rows entry by entry, keyed by affine multi-index.

    The pure-Python per-entry formula: at a normalized point, the entry of
    multi-index i at the monomial with exponents f is the product over the
    affine coordinates v of C(f_v, i_v) mod p * pt_v**(f_v - i_v), and zero
    when some i_v exceeds f_v.
    """
    chart = next(v for v, c in enumerate(pt) if c)
    affine = [v for v in range(nvars) if v != chart]
    rows = {}
    for multi in itertools.product(range(order), repeat=len(affine)):
        if sum(multi) >= order:
            continue
        row = []
        for expo in monomial_exponents(degree, nvars):
            val = 1
            for v, i in zip(affine, multi):
                if expo[v] < i:
                    val = 0
                    break
                val = (val * (math.comb(expo[v], i) % p) * pow(pt[v], expo[v] - i, p)) % p
            row.append(val)
        rows[multi] = row
    return rows


@given(
    st.sampled_from([2, 3, 5, 7, 65537, 2**31 - 1]),
    st.sampled_from(["P1", "P2"]),
    st.data(),
    st.randoms(use_true_random=False),
)
def test_condition_rows_match_the_per_entry_formula(p, space, data, rnd):
    # Orders run past the degree and, at small p, past p: divided powers.
    nvars = agcode.SPACES[space]
    degree = data.draw(st.integers(0, 24 if space == "P1" else 9))
    order = data.draw(st.integers(1, degree + 2))
    chart = data.draw(st.integers(0, nvars - 1))
    pt = (0,) * chart + (1,) + tuple(rnd.randrange(p) for _ in range(nvars - chart - 1))
    want = reference_condition_rows(degree, nvars, pt, order, p)
    # one row per multi-index, in monomial_exponents(order - 1) order
    keys = [m[:chart] + m[chart + 1:] for m in monomial_exponents(order - 1, nvars)]
    assert sorted(keys) == sorted(want)
    assert agcode._condition_rows(degree, nvars, pt, order, p).tolist() == [
        want[k] for k in keys
    ]


def test_the_largest_accepted_condition_build_stays_small():
    # 1024 functionals over 1024 monomials: exactly MAX_FUNCTIONAL_CELLS.
    tracemalloc.start()
    try:
        b = vanishing_basis(1023, [VanishingCondition((1, 3), 1024)], "P1", 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert b.dim == 0
    assert peak < 64 * 2**20


class TestVanishingSpaces:
    def test_dimension_ladder_through_a_point(self):
        conds = [VanishingCondition((1, 2, 3))]
        dims = [
            vanishing_basis(d, conds, "P2", 7).dim if d else None
            for d in range(4)
        ]
        assert dims[1:] == [2, 5, 9]
        assert vanishing_basis(3, [], "P2", 7).dim == 10

    def test_order_two_takes_three_conditions(self):
        b = vanishing_basis(3, [VanishingCondition((1, 0, 0), order=2)], "P2", 7)
        assert b.dim == 7

    @pytest.mark.parametrize(
        "pt,order",
        [((1, 2, 3), 1), ((0, 1, 3), 1), ((1, 0, 0), 2), ((0, 1, 4), 2)],
    )
    def test_basis_rows_really_vanish(self, pt, order):
        for p in (7, 2**31 - 1):
            b = vanishing_basis(3, [VanishingCondition(pt, order=order)], "P2", p)
            assert b.dim == 10 - order * (order + 1) // 2
            for row in b.basis.tolist():
                low = low_order_coeffs(row, b.monomials, pt, p, order)
                assert all(v == 0 for v in low.values())

    @given(
        st.sampled_from([2, 5, 2**31 - 1]),
        st.sampled_from(["P1", "P2"]),
        st.integers(min_value=0, max_value=6),
        st.integers(min_value=1, max_value=4),
        st.randoms(use_true_random=False),
    )
    def test_orders_above_the_degree_add_nothing(self, p, space, degree, k, rnd):
        # Taylor coefficients of total order at most d determine a degree-d
        # form, independently in every characteristic: one point imposes
        # C(o - 1 + n, n) conditions for o <= d + 1, where only zero is
        # left, and no more past it.
        n = agcode.SPACES[space] - 1
        chart = rnd.randrange(n + 1)  # a normalized point in every chart
        pt = (0,) * chart + (1,) + tuple(rnd.randrange(p) for _ in range(n - chart))

        def basis(order):
            return vanishing_basis(degree, [VanishingCondition(pt, order)], space, p)

        full = math.comb(degree + n, n)
        for order in range(1, degree + 2 + k):
            used = math.comb(min(order, degree + 1) - 1 + n, n)
            assert basis(order).dim == full - used
        assert basis(degree + 1 + k).basis == basis(degree + 1).basis

    def test_dimension_matches_rank_oracle(self):
        b = vanishing_basis(2, [VanishingCondition((1, 1, 1))], "P2", 5)
        assert b.dim == oracle_rank(b.basis.tolist(), 5) == 5

    def test_evaluation_matches_direct_substitution(self):
        b = vanishing_basis(2, [], "P1", 5)
        vals = evaluate_basis(b, (1, 3))
        for row, got in zip(b.basis.tolist(), vals):
            direct = sum(
                c * pow(1, e0, 5) * pow(3, e1, 5)
                for c, (e0, e1) in zip(row, b.monomials)
            ) % 5
            assert got % 5 == direct
        # at infinity only the top power of the second variable survives
        assert list(evaluate_basis(b, (0, 1))) == [
            row[-1] for row in b.basis.tolist()
        ]


def python_value(form, monomials, pt, p):
    """A form's value at a point, summed over Python integers."""
    return sum(
        c * math.prod(x**e for x, e in zip(pt, expo))
        for c, expo in zip(form, monomials)
    ) % p


class TestBuildCode:
    # Small enough that no int64 sum in the evaluation can overflow.
    @given(
        st.sampled_from([2, 3, 5, 101, 65537, 2**20 + 7]),
        st.sampled_from(["P1", "P2"]),
        st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=3),
        st.randoms(use_true_random=False),
    )
    def test_generator_matches_python_evaluation(self, p, space, degrees, rnd):
        nvars = agcode.SPACES[space]

        def point():  # unnormalized, with its first nonzero entry at chart
            chart = rnd.randrange(nvars)
            rest = tuple(rnd.randrange(p) for _ in range(nvars - chart - 1))
            return (0,) * chart + (rnd.randrange(1, p),) + rest

        bases = [
            vanishing_basis(
                d,
                [VanishingCondition(point(), rnd.randint(1, 3))
                 for _ in range(rnd.randint(0, 2))],
                space, p,
            )
            for d in degrees
        ]
        regular = list({normalize_point(point(), p) for _ in range(rnd.randint(1, 6))})
        exceptional = [point() for _ in range(rnd.randint(0, 2))]
        if not any(b.dim for b in bases):
            with pytest.raises(EmptyMessageSpace):
                build_code(bases, regular, p, exceptional=exceptional)
            return
        code = build_code(bases, regular, p, exceptional=exceptional)
        generator = code.generator.tolist()
        r, row = code.r, 0
        for i, b in enumerate(bases):
            forms = b.basis.tolist()
            block = generator[row:row + b.dim]
            for form, got in zip(forms, block):
                want = [python_value(form, b.monomials, pt, p) for pt in code.points]
                assert got[i::r] == want
            for j, pt in enumerate(code.points):
                scale = rnd.randrange(1, p)
                scaled = tuple(c * scale for c in pt)
                column = [w[j * r + i] for w in block]
                assert evaluate_basis(b, scaled).tolist() == column
            row += b.dim

    def test_shapes_and_rank(self):
        b = vanishing_basis(1, [], "P2", 5)
        pts = [(1, 0, 0), (1, 1, 0), (1, 0, 1), (0, 1, 1)]
        code = build_code([b], pts, 5)
        assert (code.r, code.num_points, code.n) == (1, 4, 4)
        assert code.k == 3 == oracle_rank(code.generator.tolist(), 5)
        assert code.message_dim == 3

    def test_two_summands_interleave(self):
        b1 = vanishing_basis(1, [], "P1", 5)
        b2 = vanishing_basis(0, [], "P1", 5)
        code = build_code([b1, b2], [(1, 0), (1, 1)], 5)
        assert code.r == 2 and code.n == 4
        arr = code.generator.tolist()
        # columns 0,2 belong to the first summand, 1,3 to the second
        assert [row[1] for row in arr[:2]] == [0, 0]
        assert [row[0] for row in arr[2:]] == [0]

    def test_duplicate_points_rejected_up_to_scaling(self):
        b = vanishing_basis(1, [], "P2", 7)
        with pytest.raises(DuplicatePoint):
            build_code([b], [(1, 2, 3), (2, 4, 6)], 7)

    def test_exceptional_points_may_repeat(self):
        b = vanishing_basis(1, [], "P2", 7)
        code = build_code(
            [b], [(1, 2, 3)], 7, exceptional=[(1, 0, 0), (1, 0, 0)]
        )
        assert code.num_points == 3
        assert code.points[1] == code.points[2] == (1, 0, 0)

    def test_empty_message_space_rejected(self):
        b = vanishing_basis(0, [VanishingCondition((1, 0))], "P1", 5)
        assert b.dim == 0
        with pytest.raises(EmptyMessageSpace):
            build_code([b], [(1, 1)], 5)


@pytest.mark.parametrize("space, pt", [
    ("P2", (1, 2, 3, 4)), ("P2", (0, 0, 0, 1)), ("P2", (1, 2)),
    ("P1", (1, 2, 3)), ("P1", (1,)), ("P1", ()),
])
@pytest.mark.parametrize("role", ["condition", "point", "exceptional", "evaluation"])
def test_points_with_the_wrong_coordinate_count_are_refused(space, pt, role):
    basis = vanishing_basis(2, [], space, 7)
    good = (1,) * agcode.SPACES[space]
    call = {
        "condition": lambda: vanishing_basis(2, [VanishingCondition(pt)], space, 7),
        "point": lambda: build_code([basis], [good, pt], 7),
        "exceptional": lambda: build_code([basis], [good], 7, exceptional=[pt]),
        "evaluation": lambda: evaluate_basis(basis, pt),
    }[role]
    with pytest.raises(ValueError, match=f"{space} points need {len(good)} coordinates"):
        call()


class TestReedSolomonGrid:
    def test_mds_for_every_small_length(self):
        for n in range(1, 6):
            pts = all_rational_points("P1", 5)[:n]
            for k in range(1, n + 1):
                b = vanishing_basis(k - 1, [], "P1", 5)
                code = build_code([b], pts, 5)
                assert code.k == k
                d = min_distance(code)
                assert d == n - k + 1
                assert oracle_min_weight(code) == d

    def test_distance_is_cached(self):
        b = vanishing_basis(1, [], "P1", 5)
        code = build_code([b], all_rational_points("P1", 5)[:4], 5)
        d = min_distance(code)
        assert code.d_min == d == 3
        assert min_distance(code, budget=1) == 3  # cache beats the budget

    def test_budget_cuts_off_enumeration(self):
        b = vanishing_basis(4, [], "P1", 5)
        code = build_code([b], all_rational_points("P1", 5), 5)
        assert min_distance(code, budget=100) is INFEASIBLE
        assert code.d_min is None

    def test_empty_code_rejected(self):
        dead = LinearCode(
            p=5, r=1, points=((1, 0), (1, 1)),
            generator=FMatrix(5, [[0, 0]]), k=0, message_dim=1,
        )
        with pytest.raises(EmptyCode):
            min_distance(dead)


def line_code(p, rows, n):
    """A code with the given generator rows, one coordinate per point."""
    generator = FMatrix(p, rows, cols=n)
    return LinearCode(
        p=p, r=1, points=tuple((1, j) for j in range(n)),
        generator=generator, k=gf.rank(generator), message_dim=len(rows),
    )


# Message dimensions whose p**k messages the pure-Python oracle lists fast.
ORACLE_DIMS = {2: 5, 3: 5, 5: 5, 7: 4, 13: 3}


@st.composite
def small_codes(draw):
    """Generators with zero columns and dependent rows, at small p."""
    p = draw(st.sampled_from(sorted(ORACLE_DIMS)))
    n = draw(st.integers(1, 20))
    dims = draw(st.integers(1, ORACLE_DIMS[p]))
    zero = draw(st.sets(st.integers(0, n - 1), max_size=n // 2))
    entry = st.integers(0, p - 1)
    rows = [
        [0 if j in zero else draw(entry) for j in range(n)]
        for _ in range(dims)
    ]
    if dims > 1 and draw(st.booleans()):
        c = draw(entry)
        rows[-1] = [(c * a + b) % p for a, b in zip(rows[0], rows[1])]
    return line_code(p, rows, n)


class TestEnumerationEngine:
    """min_distance against brute force, with and without the table."""

    # Table depth t per component of rank k; "default" is the rule itself,
    # which at oracle sizes is k // 2, since the cell cap never binds.
    DEPTHS = {
        "default": agcode._table_depth,
        "none": lambda k, n, p: 0,  # head words only
        "one row": lambda k, n, p: 1,
        "whole": lambda k, n, p: k,  # table only
    }

    @pytest.mark.parametrize("table", list(DEPTHS))
    @given(code=small_codes())
    def test_matches_the_oracle(self, table, code):
        if code.k == 0:
            with pytest.raises(EmptyCode):
                min_distance(code)
            return
        assert agcode._table_depth(code.k, code.n, code.p) == code.k // 2
        with patch.object(agcode, "_table_depth", self.DEPTHS[table]):
            assert min_distance(code) == oracle_min_weight(code)

    @pytest.mark.parametrize("k, n, p, t", [
        (1, 20, 2, 0),  # one row: head words only
        (7, 7, 13, 3),  # the line at p = 13, degree 6: half the rows fit
        (10, 13, 3, 5),
        (10, 31, 5, 4),  # the plane cubic at p = 5: the cap binds
        (9, 56, 7, 3),  # criterion 8's largest component
        (4, 2**24, 2, 0),  # float32 sums no longer exact
        (2, 20, 65537, 0),  # not one row fits
    ])
    def test_table_depth_is_half_the_rows_within_the_cap(self, k, n, p, t):
        assert agcode._table_depth(k, n, p) == t
        assert t == 0 or p ** (t + 1) * n <= agcode.TABLE_CELLS

    @pytest.mark.parametrize("p", [65537, 2**20 + 7, 2**31 - 1])
    def test_one_row_at_large_p(self, p):
        row = [0, p - 1, 1, 0, p // 2, 2, 0]
        assert min_distance(line_code(p, [row], len(row))) == 4

    def test_two_rows_at_65537(self):
        p = 65537
        # both rows have weight 5; row 0 - 5 * row 1 has weight 4
        rows = [[1, 0, 5, 2, 7, 10], [0, 1, 1, 3, 4, 2]]
        code = line_code(p, rows, 6)

        def weight(c):
            return sum(1 for a, b in zip(*rows) if (a + c * b) % p)

        want = min([sum(1 for b in rows[1] if b)] + [weight(c) for c in range(p)])
        assert min_distance(code, budget=p + 1) == want == 4

    def test_budget_equal_to_the_class_count_enumerates(self):
        b = vanishing_basis(3, [], "P1", 5)
        code = build_code([b], all_rational_points("P1", 5), 5)
        assert min_distance(code, budget=(5**4 - 1) // 4) == 3

    def test_budget_below_the_class_count_enumerates_nothing(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("enumeration started")

        monkeypatch.setattr(agcode, "_combinations", refuse)
        b = vanishing_basis(3, [], "P1", 5)
        code = build_code([b], all_rational_points("P1", 5), 5)
        assert min_distance(code, budget=(5**4 - 1) // 4 - 1) is INFEASIBLE
        assert code.d_min is None


def components(code):
    return agcode._components(gf.rref(code.generator).array)


def components_by_sweeps(reduced):
    """Reference split: boolean sweeps, the rows meeting the columns so far,
    then the columns those rows meet, until the rows stop growing."""
    nonzero = reduced != 0
    left = np.ones(len(reduced), dtype=bool)
    parts = []
    while left.any():
        rows = np.zeros_like(left)
        rows[left.argmax()] = True
        while True:
            cols = nonzero[rows].any(axis=0)
            grown = nonzero[:, cols].any(axis=1)
            if (grown == rows).all():
                break
            rows = grown
        left &= ~rows
        parts.append((rows, cols))
    return parts


@st.composite
def direct_sums(draw):
    """Direct sums of 2 to 4 random codes, with zero columns, columns shuffled.

    Returns the code and the number of summands of nonzero rank, a lower
    bound on its component count.
    """
    p = draw(st.sampled_from([2, 3, 5, 7]))
    count = draw(st.integers(2, 4))
    entry = st.integers(0, p - 1)
    room = ORACLE_DIMS[p]
    blocks = []
    for i in range(count):
        dims = draw(st.integers(1, room - (count - 1 - i)))
        room -= dims
        width = draw(st.integers(1, 6))
        blocks.append([[draw(entry) for _ in range(width)] for _ in range(dims)])
    widths = [len(block[0]) for block in blocks]
    n = sum(widths) + draw(st.integers(0, 3))  # the rest are zero columns
    order = draw(st.permutations(range(n)))
    rows, start = [], 0
    for block, width in zip(blocks, widths):
        for row in block:
            word = [0] * n
            for j, x in enumerate(row):
                word[order[start + j]] = x
            rows.append(word)
        start += width
    ranked = sum(1 for block in blocks if oracle_rank(block, p))
    return line_code(p, rows, n), ranked


@st.composite
def indecomposable_codes(draw):
    """[I | A] with a column of A nonzero in every row, columns shuffled."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    k = draw(st.integers(1, ORACLE_DIMS[p]))
    extra = draw(st.integers(0, 4))
    nonzero = st.integers(1, p - 1)
    rows = [
        [int(i == j) for j in range(k)] + [draw(nonzero)]
        + [draw(st.integers(0, p - 1)) for _ in range(extra)]
        for i in range(k)
    ]
    order = draw(st.permutations(range(k + 1 + extra)))
    return line_code(p, [[row[j] for j in order] for row in rows], len(order))


class TestDirectSums:
    """Each connected component enumerated on its own, against brute force."""

    @pytest.mark.parametrize("table", ["default", "none"])
    @given(case=direct_sums())
    def test_direct_sums_split_and_match_the_oracle(self, table, case):
        code, ranked = case
        if code.k == 0:
            return
        assert len(components(code)) >= ranked
        cells = agcode.TABLE_CELLS if table == "default" else 0
        with patch.object(agcode, "TABLE_CELLS", cells):
            assert min_distance(code) == oracle_min_weight(code)

    @given(code=indecomposable_codes())
    def test_indecomposable_codes_match_the_oracle(self, code):
        assert len(components(code)) == 1
        assert min_distance(code) == oracle_min_weight(code)

    def test_a_word_at_the_singleton_bound_does_not_end_the_search(self):
        # n - k + 1 bounds d from above, not below: the first lead row's
        # words all weigh 7 = 8 - 2 + 1, and the second row alone weighs 2
        p = 65537
        rows = [[1, 0, 1, 1, 1, 1, 1, 1], [0, 1, 1, 0, 0, 0, 0, 0]]
        code = line_code(p, rows, 8)
        assert len(components(code)) == 1
        assert min_distance(code, budget=p + 1) == 2

    def test_every_summand_of_a_built_code_is_split(self):
        pts = all_rational_points("P1", 5)[:4]
        bases = [vanishing_basis(d, [], "P1", 5) for d in (1, 2)]
        code = build_code(bases, pts, 5)
        assert len(components(code)) >= 2
        assert min_distance(code) == oracle_min_weight(code) == 2

    def test_the_gate_counts_the_whole_code(self, monkeypatch):
        # criterion 8's code: three components, 5.5e12 classes in all
        def refuse(*args):
            raise AssertionError("enumeration started")

        monkeypatch.setattr(agcode, "_combinations", refuse)
        pt = (1, 2, 3)
        bases = [vanishing_basis(d, [VanishingCondition(pt)], "P2", 7) for d in (3, 2, 1)]
        code = build_code(bases, [q for q in all_rational_points("P2", 7) if q != pt], 7)
        assert code.k == 16 and len(components(code)) == 3
        assert min_distance(code) is INFEASIBLE
        assert code.d_min is None


@st.composite
def built_codes(draw):
    """Codes from build_code, some summands through a point whose slots are dead."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    space = draw(st.sampled_from(["P1", "P2"]))
    pts = all_rational_points(space, p)
    dead = draw(st.sampled_from(pts))
    bases = [
        vanishing_basis(degree, [VanishingCondition(dead)] if through else [], space, p)
        for degree, through in draw(
            st.lists(st.tuples(st.integers(0, 3), st.booleans()), min_size=1, max_size=3))
    ]
    assume(any(b.dim for b in bases))
    regular = draw(st.lists(
        st.sampled_from([q for q in pts if q != dead]), min_size=1, max_size=8, unique=True))
    exceptional = [dead] * draw(st.integers(0, 2))
    return build_code(bases, regular, p, exceptional=exceptional)


CODE_SOURCES = {
    "build_code": built_codes(),
    "small_codes": small_codes(),
    "direct_sums": direct_sums().map(lambda case: case[0]),
}


@pytest.mark.parametrize("source", list(CODE_SOURCES))
@given(data=st.data())
def test_components_match_the_boolean_sweeps(source, data):
    reduced = gf.rref(data.draw(CODE_SOURCES[source]).generator).array
    got, want = agcode._components(reduced), components_by_sweeps(reduced)
    assert len(got) == len(want)
    for (rows, cols), (want_rows, want_cols) in zip(got, want):
        assert np.array_equal(rows, want_rows) and np.array_equal(cols, want_cols)


@pytest.mark.parametrize("source", list(CODE_SOURCES))
@given(data=st.data())
def test_the_kept_echelon_form_is_the_generators(source, data):
    # build_code keeps its elimination and contraction slices it; a code
    # made by hand, permuted or padded eliminates on first use
    code = data.draw(CODE_SOURCES[source])
    assert (code.echelon is not None) == (source == "build_code")

    def kept(c):
        return agcode._echelon(c) == gf.rref(c.generator)

    assert kept(code)
    contracted, _ = zero_block_contract(code)
    assert contracted.echelon is not None and kept(contracted)
    moved = permute_points(code, list(range(code.num_points))[::-1])
    assert moved.echelon is None and kept(moved)
    padded = append_zero_blocks(code, code.points[:1])
    assert padded.echelon is None and kept(padded)
    contracted, _ = zero_block_contract(padded)
    assert contracted.echelon is not None and kept(contracted)


FROZEN_REGULAR = [
    (1, 1, 1), (1, 1, 2), (1, 1, 3), (1, 1, 4), (1, 2, 1),
    (1, 2, 2), (1, 2, 3), (1, 2, 4), (1, 3, 1), (1, 3, 2),
]


def scaled_instance():
    basis = vanishing_basis(2, [VanishingCondition((1, 0, 0))], "P2", 5)
    return build_code(
        [basis], FROZEN_REGULAR, 5, exceptional=[(1, 0, 0), (1, 0, 0)]
    )


class TestScaledContractionInstance:
    """Quadrics through a blown-down point, ten honest points, two dead."""

    def test_point_list_is_the_frozen_prefix(self):
        derived = [
            pt for pt in all_rational_points("P2", 5) if all(c for c in pt)
        ][:10]
        assert derived == FROZEN_REGULAR

    def test_headline_numbers(self):
        code = scaled_instance()
        assert code.message_dim == 5 and code.k == 5
        assert (code.num_points, code.n) == (12, 12)
        assert (5**5 - 1) // 4 == 781
        d = min_distance(code)
        assert d == 4
        assert oracle_min_weight(code) == 4

    def test_contraction_drops_the_dead_blocks(self):
        code = scaled_instance()
        min_distance(code)
        contracted, report = zero_block_contract(code)
        assert report.zero_blocks == (10, 11)
        assert (report.n_points_before, report.n_points_after) == (12, 10)
        assert report.delta_before == Fraction(4, 12)
        assert report.delta_after == Fraction(4, 10)
        assert contracted.d_min is None  # recomputed, not copied
        assert min_distance(contracted) == 4
        assert oracle_min_weight(contracted) == 4

    def test_compare_route(self):
        code = scaled_instance()
        rep = mmp_compare(code)
        assert rep.zero_blocks == (10, 11)
        assert rep.d_min == 4
        assert rep.delta_before == Fraction(1, 3)
        assert rep.delta_after == Fraction(2, 5)
        assert rep.ratio == Fraction(6, 5)
        assert rep.improved
        assert code.d_min == 4  # inherited across the zero coordinates

    def test_unknown_distance_leaves_the_deltas_unset(self):
        _, report = zero_block_contract(scaled_instance())
        assert report.zero_blocks == (10, 11)
        assert report.d_min is None
        assert (report.delta_before, report.delta_after, report.ratio) == (None, None, None)

    def test_known_distance_gives_the_comparison_report(self):
        code = scaled_instance()
        min_distance(code)
        _, report = zero_block_contract(code)
        assert report == mmp_compare(code)


class TestContractionRandomized:
    def test_fifty_padded_instances(self):
        rng = random.Random(3119)
        line = all_rational_points("P1", 5)
        for _ in range(50):
            n = rng.randint(3, 6)
            k = rng.randint(1, min(n, 4))
            pts = rng.sample(line, n)
            base = build_code([vanishing_basis(k - 1, [], "P1", 5)], pts, 5)
            d = min_distance(base)
            z = rng.randint(1, 3)
            padded = append_zero_blocks(
                base, [line[rng.randrange(len(line))] for _ in range(z)]
            )
            assert padded.d_min is None
            perm = list(range(n + z))
            rng.shuffle(perm)
            padded = permute_points(padded, perm)
            contracted, report = zero_block_contract(padded)
            assert len(report.zero_blocks) == z
            assert report.n_points_after == n
            assert sorted(contracted.points) == sorted(base.points)
            assert min_distance(contracted) == d
            rep = mmp_compare(padded)
            assert rep.ratio == Fraction(n + z, n)
            assert rep.improved
            assert rep.delta_after == Fraction(d, n)

    def test_untouched_code_reports_no_improvement(self):
        b = vanishing_basis(1, [], "P1", 5)
        code = build_code([b], all_rational_points("P1", 5)[:4], 5)
        rep = mmp_compare(code)
        assert rep.zero_blocks == ()
        assert rep.ratio == 1
        assert not rep.improved

    def test_compare_propagates_infeasibility(self):
        b = vanishing_basis(4, [], "P1", 5)
        code = build_code([b], all_rational_points("P1", 5), 5)
        assert mmp_compare(code, budget=100) is INFEASIBLE

    def test_compare_refuses_fully_dead_code(self):
        dead = LinearCode(
            p=5, r=1, points=((1, 0), (1, 1)),
            generator=FMatrix(5, [[0, 0]]), k=1, message_dim=1,
        )
        with pytest.raises(EmptyCode):
            mmp_compare(dead)


def blocks_code(rows, r, num_points):
    """A code with the given generator rows and r coordinates per point."""
    n = r * num_points
    return LinearCode(
        p=5, r=r, points=tuple((1, j) for j in range(num_points)),
        generator=FMatrix(5, rows, cols=n), k=0, message_dim=len(rows),
    )


@pytest.mark.parametrize("rows, r, num_points, dead", [
    ([], 1, 3, (0, 1, 2)),  # no rows: every block is zero
    ([], 2, 0, ()),  # no points
    ([[0, 1, 0, 0, 0, 0], [0, 0, 0, 0, 2, 0]], 2, 3, (1,)),
    ([[0, 0, 3, 0, 0, 0]], 3, 2, (1,)),
    ([[0, 0, 0, 0, 0, 4]], 3, 2, (0,)),
    ([[0, 0, 0, 0]], 2, 2, (0, 1)),
])
def test_zero_blocks_edges(rows, r, num_points, dead):
    got = zero_blocks(blocks_code(rows, r, num_points))
    assert got == dead
    assert all(type(j) is int for j in got)


@given(
    st.integers(1, 3), st.integers(1, 6), st.integers(0, 4),
    st.randoms(use_true_random=False),
)
def test_zero_blocks_match_a_scan_of_every_block(r, num_points, k, rnd):
    n = r * num_points
    rows = [[rnd.choice([0, 0, 0, 1, 4]) for _ in range(n)] for _ in range(k)]
    scan = tuple(
        j for j in range(num_points)
        if not any(any(row[j * r:(j + 1) * r]) for row in rows)
    )
    assert zero_blocks(blocks_code(rows, r, num_points)) == scan


def test_permute_points_is_weight_preserving():
    code = scaled_instance()
    d = min_distance(code)
    perm = list(range(code.num_points))
    random.Random(7).shuffle(perm)
    moved = permute_points(code, perm)
    assert moved.d_min == d
    assert sorted(moved.points) == sorted(code.points)
    assert oracle_min_weight(moved) == d
    with pytest.raises(ValueError):
        permute_points(code, [0, 0] + perm[2:])
