"""Depth formulas, bounds, transfer laws, and filtration verification."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hierdepth.bundle import SplitBundle
from hierdepth.depth import (
    NO_FILTRATION,
    HierFiltration,
    curve_split_depth,
    mmp_exact_depth,
    rank_one_bound,
    surface_split_depth,
    verify_filtration,
)
from hierdepth.errors import LatticeMismatch, NotEffective, ShapeMismatch
from hierdepth.picard import DivisorClass, Lattice, decompose_max, pullback

CURVE = Lattice.curve()
P2 = Lattice.p2()
QUADRIC = Lattice.p1xp1()

degree_vectors = st.lists(
    st.integers(min_value=-3, max_value=5), min_size=1, max_size=5
)


def curve_bundle(degrees):
    return SplitBundle(tuple(CURVE.divisor(d) for d in degrees))


class TestCurveDepth:
    def test_headline_values(self):
        assert curve_split_depth([3, 1, 0], 0) == 4
        assert curve_split_depth([1, 1, 0], 0) == 2
        assert curve_split_depth([1, 0, 0], 0) == 1
        assert curve_split_depth([0, 0, 0], 0) == 0

    def test_negative_budget_means_no_filtration(self):
        assert curve_split_depth([2], 3) is NO_FILTRATION
        assert curve_split_depth([-1, -1], 0) is NO_FILTRATION

    def test_negative_summand_still_counts_toward_budget(self):
        # The budget is the full degree sum, not the sum of positive parts:
        # clamping negative summands to zero would claim depth 2 here, but
        # the determinant can only telescope down to degree 0, depth 0.
        assert curve_split_depth([1, -1], 0) == 0
        clamped = sum(max(d, 0) for d in [1, -1])
        assert clamped == 1
        assert curve_split_depth([1, -1], 0) != clamped
        assert curve_split_depth([2, -1], 0) == 1

    @given(degree_vectors, st.integers(min_value=-8, max_value=8))
    def test_budget_formula(self, degrees, lam):
        h = curve_split_depth(degrees, lam)
        m = sum(degrees) - lam
        if m < 0:
            assert h is NO_FILTRATION
        else:
            assert h == m

    @given(degree_vectors, degree_vectors)
    def test_direct_sum_additivity(self, left, right):
        # Normalizations adding up: depth adds exactly.
        la, lb = sum(left) - 1, sum(right)
        ha = curve_split_depth(left, la)
        hb = curve_split_depth(right, lb)
        hsum = curve_split_depth(list(left) + list(right), la + lb)
        assert ha == 1 and hb == 0 and hsum == 1


class TestRankOneBound:
    def test_values(self):
        assert rank_one_bound(4, 0) == 4
        assert rank_one_bound(0, 3) == -3

    @given(degree_vectors, st.integers(min_value=-8, max_value=8))
    def test_curve_depth_respects_bound(self, degrees, lam):
        h = curve_split_depth(degrees, lam)
        if h is not NO_FILTRATION:
            assert h <= rank_one_bound(sum(degrees), lam)


class TestSurfaceDepth:
    def test_fiber_classes_close_the_gap(self):
        b = SplitBundle((QUADRIC.divisor(2, 0), QUADRIC.divisor(3, 0)))
        assert surface_split_depth(b, QUADRIC.zero()) == (5, 5)

    def test_mixed_rulings_close_the_gap(self):
        b = SplitBundle((QUADRIC.divisor(2, 0), QUADRIC.divisor(0, 3)))
        assert surface_split_depth(b, QUADRIC.zero()) == (5, 5)

    def test_plane_keeps_a_gap(self):
        for a in (2, 3, 5):
            b = SplitBundle((P2.divisor(0), P2.divisor(a)))
            assert surface_split_depth(b, P2.zero()) == (2, a)

    def test_trivial_delta(self):
        b = SplitBundle((P2.divisor(0), P2.divisor(3)))
        assert surface_split_depth(b, P2.divisor(3)) == (0, 0)

    def test_noneffective_delta(self):
        b = SplitBundle((P2.divisor(1),))
        assert surface_split_depth(b, P2.divisor(2)) == (NO_FILTRATION, NO_FILTRATION)

    def test_lower_bound_capped_by_upper(self):
        b = SplitBundle((P2.divisor(0), P2.divisor(1)))
        assert surface_split_depth(b, P2.zero()) == (1, 1)

    def test_repeated_summand_counts_once(self):
        b = SplitBundle((P2.divisor(2), P2.divisor(2)))
        assert surface_split_depth(b, P2.zero()) == (1, 4)

    def test_lattice_checks(self):
        b = SplitBundle((CURVE.divisor(1),))
        with pytest.raises(LatticeMismatch):
            surface_split_depth(b, CURVE.zero())
        with pytest.raises(LatticeMismatch):
            surface_split_depth(SplitBundle((P2.divisor(1),)), QUADRIC.zero())

    @given(
        st.lists(st.integers(min_value=0, max_value=4), min_size=1, max_size=4),
        st.lists(st.integers(min_value=0, max_value=4), min_size=1, max_size=4),
    )
    def test_bounds_bracket_each_other(self, first, second):
        degrees = list(zip(first, second[: len(first)]))
        if not degrees:
            degrees = [(0, 0)]
        b = SplitBundle(tuple(QUADRIC.divisor(a, c) for a, c in degrees))
        lower, upper = surface_split_depth(b, QUADRIC.zero())
        assert lower == upper == decompose_max(b.det())


class TestMmpTransfer:
    def test_blowup_chain_value(self):
        assert mmp_exact_depth(5, (2, 4), (0, 1)) == 10

    def test_empty_chain(self):
        assert mmp_exact_depth(7, (), ()) == 7

    def test_normalization_must_fit_under_delta(self):
        with pytest.raises(NotEffective):
            mmp_exact_depth(5, (2,), (3,))

    def test_shapes_checked(self):
        with pytest.raises(ShapeMismatch):
            mmp_exact_depth(5, (2, 4), (0,))
        with pytest.raises(ValueError):
            mmp_exact_depth(-1, (), ())

    def test_agrees_with_decompose_max_upstairs(self):
        # 200 random instances: the transfer law lands exactly on the
        # longest decomposition of the moved class.
        rng = random.Random(2024)
        for _ in range(200):
            m = rng.randint(1, 4)
            h_min = rng.randint(0, 6)
            beta = [rng.randint(0, 3) for _ in range(m)]
            alpha = [b + rng.randint(0, 4) for b in beta]
            lat = Lattice.blowup_p2(m)
            moved = pullback(P2.divisor(h_min), m) + lat.divisor(
                0, *[a - b for a, b in zip(alpha, beta)]
            )
            assert decompose_max(pullback(P2.divisor(h_min), m)) == h_min
            assert mmp_exact_depth(h_min, alpha, beta) == decompose_max(moved)


class TestFiltrationRecords:
    def chain_on_blowup(self):
        lat = Lattice.blowup_p2(2)
        return HierFiltration(
            lambda0=lat.zero(),
            increments=(
                lat.divisor(1, 0, 0),
                lat.divisor(0, 1, 0),
                lat.divisor(0, 1, 1),
            ),
            bundle_rank=2,
        )

    def test_verify_accepts_valid_chain(self):
        lat = Lattice.blowup_p2(2)
        f = self.chain_on_blowup()
        target = SplitBundle((lat.divisor(1, 2, 1), lat.divisor(0, 0, 0)))
        assert verify_filtration(f, target)

    def test_verify_rejects_zero_increment(self):
        lat = Lattice.blowup_p2(1)
        f = HierFiltration(lat.zero(), (lat.zero(),), 2)
        target = SplitBundle((lat.divisor(0, 0),))
        assert not verify_filtration(f, target)

    def test_verify_rejects_noneffective_increment(self):
        f = HierFiltration(P2.zero(), (P2.divisor(-1), P2.divisor(2)), 2)
        target = SplitBundle((P2.divisor(1),))
        assert not verify_filtration(f, target)

    def test_verify_rejects_broken_telescope(self):
        f = HierFiltration(P2.zero(), (P2.divisor(1),), 2)
        target = SplitBundle((P2.divisor(3),))
        assert not verify_filtration(f, target)

    def test_verify_accepts_trivial_chain(self):
        target = SplitBundle((P2.divisor(2), P2.divisor(1)))
        f = HierFiltration(P2.divisor(3), (), 2)
        assert verify_filtration(f, target)
        assert f.length == 0

    def test_verify_checks_lattices(self):
        f = HierFiltration(CURVE.zero(), (CURVE.divisor(1),), 1)
        target = SplitBundle((P2.divisor(1),))
        with pytest.raises(LatticeMismatch):
            verify_filtration(f, target)

    def test_lattice_mismatch_wins_over_a_noneffective_increment(self):
        # the non-effective increment comes first, the foreign lattice second
        f = HierFiltration(P2.zero(), (P2.divisor(-1), CURVE.divisor(1)), 2)
        target = SplitBundle((P2.divisor(1),))
        with pytest.raises(LatticeMismatch):
            verify_filtration(f, target)

    def test_repeated_increments_telescope(self):
        # oracle: the coefficients of lambda0 plus each increment, one at a time
        lat = Lattice.blowup_p2(1)
        steps = (lat.divisor(1, 0),) * 60 + (lat.divisor(0, 1),) * 40 + (lat.divisor(1, 0),)
        f = HierFiltration(lat.divisor(-3, 2), steps, 2)
        by_hand = [-3, 2]
        for d in steps:
            by_hand = [a + b for a, b in zip(by_hand, d.coeffs)]
        target = SplitBundle((lat.divisor(58, 40), lat.divisor(0, 2)))
        assert lat.divisor(*by_hand) == lat.divisor(58, 42) == target.det()
        assert verify_filtration(f, target)
        bad = HierFiltration(f.lambda0, steps[:50] + (lat.zero(),) + steps[50:], 2)
        assert not verify_filtration(bad, target)

    def test_each_run_of_one_object_is_hashed_once(self, monkeypatch):
        # a chain repeats one shared increment; hashing it walks the class,
        # its lattice and the lattice kind, so each run is hashed once. An
        # equal but distinct object still counts as the same increment.
        lat = Lattice.blowup_p2(1)
        a, b, a_copy = lat.divisor(1, 0), lat.divisor(0, 1), lat.divisor(1, 0)
        steps = (a,) * 30 + (b,) * 20 + (a_copy,) * 10 + (a,) * 5
        f = HierFiltration(lat.divisor(-3, 2), steps, 2)
        target = SplitBundle((lat.divisor(42, 20), lat.divisor(0, 2)))
        hashed = []
        plain = DivisorClass.__hash__
        monkeypatch.setattr(DivisorClass, "__hash__", lambda d: hashed.append(d) or plain(d))
        assert verify_filtration(f, target)
        # four runs, one lookup and one store per run
        assert len(hashed) <= 4 * 2
