"""Elementary transforms on the line: kernels, routes, chain building."""

import itertools
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from test_gf import rref_rowwise

from hierdepth import agcode, curve, field, gf, hecke
from hierdepth.curve import (
    INFINITY,
    MAX_WIDTH,
    RationalPoint,
    build_curve_filtration,
    enumerate_points,
    point_at,
)
from hierdepth.depth import curve_split_depth, verify_filtration
from hierdepth.bundle import SplitBundle
from hierdepth.errors import (
    INFEASIBLE,
    NegativeM,
    NotEnoughPoints,
    OverlappingSupport,
    VacuousTransform,
    WidthTooLarge,
)
from hierdepth.hecke import (
    PointFunctional,
    apply_transform,
    commute_check,
    first_usable_covector,
    full_sections,
)
from hierdepth.picard import Lattice


def span_vectors(matrix, p):
    """Every vector of the row space, as a set of tuples. Oracle helper."""
    rows = matrix.tolist()
    if not rows:
        return {()} if matrix.cols == 0 else {(0,) * matrix.cols}
    out = set()
    for coeffs in itertools.product(range(p), repeat=len(rows)):
        v = [0] * matrix.cols
        for c, row in zip(coeffs, rows):
            for j, x in enumerate(row):
                v[j] = (v[j] + c * x) % p
        out.add(tuple(v))
    return out


def eval_functional(vector, model, phi):
    """Independent evaluation of the point functional on a flat vector."""
    p = model.p
    total = 0
    off = 0
    for i, d in enumerate(model.degrees):
        w = max(d + model.twist + 1, 0)
        block = vector[off:off + w]
        off += w
        c = phi.covector[i] % p
        if w == 0 or c == 0:
            continue
        if phi.point.is_infinity:
            val = block[-1]
        else:
            q = phi.point.coord % p
            val = sum(b * pow(q, k, p) for k, b in enumerate(block)) % p
        total = (total + c * val) % p
    return total


def in_span(vectors, basis):
    """Whether every row of vectors lies in the row space of an echelon
    basis. Oracle: combining the basis rows by a vector's entries in the
    pivot columns must give the vector back, in Python integers."""
    rows = np.array(basis.tolist(), dtype=object).reshape(basis.shape)
    vecs = np.array(vectors.tolist(), dtype=object).reshape(vectors.shape)
    pivots = [next(j for j, x in enumerate(row) if x) for row in rows]
    return ((vecs[:, pivots] @ rows) % basis.p == vecs).all()


def test_enumerate_points_order():
    pts = enumerate_points(5)
    assert len(pts) == 6
    assert [pt.label() for pt in pts] == ["0", "1", "2", "3", "4", "inf"]
    assert pts == [point_at(j, 5) for j in range(6)]
    with pytest.raises(IndexError):
        point_at(6, 5)


def test_first_usable_covector_skips_empty_summands():
    m = full_sections([-1, 2], 5)
    assert first_usable_covector(m, INFINITY).covector == (0, 1)
    with pytest.raises(VacuousTransform):
        first_usable_covector(full_sections([-1, -1], 5), INFINITY)


def test_full_sections_dimensions():
    assert full_sections([3, 1, 0], 5).dim == 7
    assert full_sections([-1], 5).dim == 0
    assert full_sections([2, -3], 7).dim == 3


def test_full_sections_width_cap():
    assert full_sections([MAX_WIDTH - 1], 5).dim == MAX_WIDTH
    with pytest.raises(WidthTooLarge):
        full_sections([MAX_WIDTH], 5)
    with pytest.raises(WidthTooLarge):
        full_sections([10**9], 5)


def test_covector_must_be_nonzero():
    with pytest.raises(ValueError):
        PointFunctional(RationalPoint.affine(0), (0, 0))


def test_transform_drops_dimension_and_ledger():
    m = full_sections([2], 5)
    phi = PointFunctional(RationalPoint.affine(0), (1,))
    out = apply_transform(m, phi)
    assert out.dim == m.dim - 1
    assert out.det_degree == m.det_degree - 1
    # every surviving section kills the functional (independent check)
    for v in out.basis.tolist():
        assert eval_functional(v, out, phi) == 0


def test_transform_at_infinity_reads_top_coefficient():
    m = full_sections([1], 5)
    out = apply_transform(m, PointFunctional(INFINITY, (1,)))
    # degree-1 coefficient dies, constants survive
    assert out.basis.tolist() == [[1, 0]]


def test_chained_transforms_exact_near_2_31():
    # Inner products here reach 63 * (p - 1)**2, far past int64.
    p = 2**31 - 1
    rng = random.Random(31)
    m = full_sections([20, 20, 20], p)
    for q in rng.sample(range(p), 50):
        cov = tuple(rng.randrange(1, p) for _ in range(3))
        phi = PointFunctional(RationalPoint.affine(q), cov)
        out = apply_transform(m, phi)
        assert out.dim == m.dim - 1
        for v in out.basis.tolist():
            assert eval_functional(v, out, phi) == 0
        assert in_span(out.basis, m.basis)
        m = out


def test_vacuous_transform_refused():
    m = full_sections([0], 5)
    first = apply_transform(m, PointFunctional(RationalPoint.affine(0), (1,)))
    assert first.dim == 0
    with pytest.raises(VacuousTransform):
        apply_transform(first, PointFunctional(RationalPoint.affine(1), (1,)))


def test_commute_example_rank_two():
    m = full_sections([0, 0], 5)
    rep = commute_check(
        m,
        PointFunctional(RationalPoint.affine(0), (1, 0)),
        PointFunctional(RationalPoint.affine(1), (0, 1)),
    )
    assert (rep.dim_v12, rep.dim_v21, rep.dim_joint) == (0, 0, 0)
    assert rep.equal


def test_commute_refuses_equal_points():
    m = full_sections([1, 1], 5)
    phi = PointFunctional(RationalPoint.affine(2), (1, 0))
    for q in (2, 7):  # 7 is the point 2 over F_5
        psi = PointFunctional(RationalPoint.affine(q), (0, 1))
        with pytest.raises(OverlappingSupport):
            commute_check(m, phi, psi)


def test_commute_propagates_vacuous_steps():
    m = full_sections([0], 5)
    with pytest.raises(VacuousTransform):
        commute_check(
            m,
            PointFunctional(RationalPoint.affine(0), (1,)),
            PointFunctional(RationalPoint.affine(1), (1,)),
        )


def _random_instance(rng, p):
    r = rng.randint(1, 3)
    degrees = [rng.randint(0, 3) for _ in range(r)]
    pts = rng.sample(range(p), 2)
    covs = []
    for _ in range(2):
        cov = [rng.randrange(p) for _ in range(r)]
        if not any(cov):
            cov[rng.randrange(r)] = 1
        covs.append(tuple(cov))
    m = full_sections(degrees, p)
    f1 = PointFunctional(RationalPoint.affine(pts[0]), covs[0])
    f2 = PointFunctional(RationalPoint.affine(pts[1]), covs[1])
    return m, f1, f2


def test_commute_randomized_with_set_oracle():
    # Route equality re-checked against a brute-force subspace enumeration.
    rng = random.Random(17)
    checked = 0
    while checked < 25:
        m, f1, f2 = _random_instance(rng, 5)
        if m.dim > 5:
            continue
        try:
            rep = commute_check(m, f1, f2)
        except VacuousTransform:
            continue
        checked += 1
        assert rep.equal
        full = span_vectors(m.basis, 5)
        joint_oracle = {
            v
            for v in full
            if eval_functional(v, m, f1) == 0 and eval_functional(v, m, f2) == 0
        }
        assert span_vectors(rep.v12, 5) == joint_oracle
        assert span_vectors(rep.v21, 5) == joint_oracle
        assert span_vectors(rep.joint, 5) == joint_oracle


def test_transform_order_irrelevant_for_four_points():
    rng = random.Random(23)
    done = 0
    while done < 20:
        degrees = [rng.randint(0, 3) for _ in range(rng.randint(1, 3))]
        m = full_sections(degrees, 7)
        if m.dim < 5:
            continue
        pts = rng.sample(range(7), 4)
        fns = []
        for q in pts:
            cov = [rng.randrange(7) for _ in degrees]
            if not any(cov):
                cov[0] = 1
            fns.append(PointFunctional(RationalPoint.affine(q), tuple(cov)))
        try:
            forward = m
            for f in fns:
                forward = apply_transform(forward, f)
            backward = m
            order = list(range(4))
            rng.shuffle(order)
            for i in order:
                backward = apply_transform(backward, fns[i])
        except VacuousTransform:
            continue
        done += 1
        assert forward.basis == backward.basis
        assert forward.det_degree == backward.det_degree


class TestBuildChain:
    def test_headline_chain(self):
        filt, chain = build_curve_filtration([3, 1, 0], 0, 5)
        assert filt.length == 4
        assert chain.dims == [7, 6, 5, 4, 3]
        assert chain.det_degrees == [4, 3, 2, 1, 0]
        curve = Lattice.curve()
        target = SplitBundle(tuple(curve.divisor(d) for d in (3, 1, 0)))
        assert verify_filtration(filt, target)

    def test_zero_budget_gives_trivial_chain(self):
        filt, chain = build_curve_filtration([1, -1], 0, 5)
        assert filt.length == 0
        assert chain.picks == ()
        assert len(chain.dims) == 1
        assert chain.final == chain.start

    def test_thin_section_space_gets_a_twist(self):
        # The plain model of O(0) + O(-3) has one section but the sheaf
        # supports two more transforms; a uniform twist makes them visible.
        filt, chain = build_curve_filtration([0, -3], -5, 5)
        assert filt.length == 2
        assert chain.start.twist > 0
        assert chain.dims == [chain.start.dim, chain.start.dim - 1, chain.start.dim - 2]
        assert chain.det_degrees == [-3, -4, -5]

    def test_single_summand_deep_chain(self):
        filt, chain = build_curve_filtration([1], -3, 5)
        assert filt.length == 4
        assert chain.det_degrees == [1, 0, -1, -2, -3]
        assert len(chain.dims) == 5
        for earlier, later in zip(chain.dims, chain.dims[1:]):
            assert later == earlier - 1

    def test_negative_budget_raises(self):
        with pytest.raises(NegativeM):
            build_curve_filtration([2], 3, 5)

    def test_too_many_points_raises(self):
        with pytest.raises(NotEnoughPoints):
            build_curve_filtration([2], -2, 2)  # 4 steps, 3 points over F_2

    def test_budget_can_use_every_point(self):
        filt, chain = build_curve_filtration([1, 1], -1, 2)  # M = 3 = p + 1
        assert filt.length == 3
        assert chain.det_degrees == [2, 1, 0, -1]

    def test_transform_path_needs_no_re_elimination(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("re-elimination on the transform path")

        m = full_sections([2, 2], 7)
        with monkeypatch.context() as step:
            # a transform is one evaluation and one cut: no elimination and
            # no kernel routine
            step.setattr(gf, "_rref_array", refuse)
            step.setattr(gf, "kernel_basis", refuse)
            step.setattr(gf, "_free_column_kernel", refuse)
            filt, chain = build_curve_filtration([3, 1, 0], 0, 5)
            assert chain.dims == [7, 6, 5, 4, 3]
            assert build_curve_filtration([0, -3], -5, 5)[0].length == 2
            out = apply_transform(m, first_usable_covector(m, INFINITY))
            assert out.dim == m.dim - 1
        f1 = first_usable_covector(m, point_at(0, 7))
        f2 = first_usable_covector(m, INFINITY)
        rep = commute_check(m, f1, f2)
        assert rep.equal and rep.dim_joint == 4
        with monkeypatch.context() as step:
            # the joint kernel checks the transforms, so it shares no cut
            # with them
            step.setattr(gf, "cut", refuse)
            assert hecke._joint_kernel(m, f1, f2) == rep.joint

    def test_width_cap(self):
        widest = MAX_WIDTH - 1
        _, chain = build_curve_filtration([widest], widest - 2, 7)
        assert chain.dims == [MAX_WIDTH, MAX_WIDTH - 1, MAX_WIDTH - 2]
        with pytest.raises(WidthTooLarge):
            build_curve_filtration([MAX_WIDTH], MAX_WIDTH - 2, 7)  # 2 steps
        with pytest.raises(WidthTooLarge):
            build_curve_filtration([10**6], 0, 2**31 - 1)  # 10**6 steps

    def test_widest_chain_keeps_no_step_basis(self):
        # the final basis takes one kernel per block, so 382 steps on one
        # block of the full width hold a few MAX_WIDTH**2 arrays (1.1 MiB
        # each), not one per step (217 MiB)
        tracemalloc.start()
        try:
            _, chain = build_curve_filtration([382, 0], 0, 100003)
            final = chain.final
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert chain.dims[-1] == final.dim == 2
        assert peak < 8 * 2**20

    def test_twist_search_starts_below_the_empty_blocks(self):
        _, chain = build_curve_filtration([-10**9], -10**9 - 3, 7)
        assert chain.dims == [3, 2, 1, 0]
        assert chain.start.twist == 10**9 + 2

    def test_randomized_lengths_match_curve_depth(self):
        rng = random.Random(41)
        for _ in range(120):
            p = rng.choice([5, 7])
            degrees = [rng.randint(-3, 5) for _ in range(rng.randint(1, 5))]
            m = rng.randint(0, min(8, p + 1))
            lam = sum(degrees) - m
            filt, chain = build_curve_filtration(degrees, lam, p)
            assert filt.length == m == curve_split_depth(degrees, lam)
            dims = chain.dims
            assert dims == list(range(dims[0], dims[0] - m - 1, -1))
            dets = chain.det_degrees
            assert dets == list(range(sum(degrees), lam - 1, -1))


def poly_times_linear(poly, q, p):
    """Coefficients, lowest first, of poly * (x - q) mod p, in Python ints."""
    out = [0] + poly
    for k, c in enumerate(poly):
        out[k] = (out[k] - q * c) % p
    return out


@given(
    st.sampled_from([2, 3, 5, 7, 101, 65537, 2**31 - 1]),
    st.lists(st.integers(min_value=-4, max_value=12), min_size=1, max_size=4),
    st.data(),
)
def test_chain_follows_the_block_capacity_rule(p, degrees, data):
    # Transforms at distinct points with standard covectors act block by
    # block, so they commute: step j uses e_i for the first block i that has
    # had fewer than w_i earlier points, and the final subspace is the sum of
    # the per-block kernels, each spanned by x^k * prod(x - q) over the
    # block's affine points, with the degree bound one lower after infinity.
    steps = data.draw(st.integers(min_value=0, max_value=min(60, p + 1)))
    _, chain = build_curve_filtration(degrees, sum(degrees) - steps, p)
    widths = [max(d + chain.start.twist + 1, 0) for d in degrees]
    assert len(chain.picks) == steps
    points = [[] for _ in degrees]
    for j in range(steps):
        i = next(i for i, w in enumerate(widths) if len(points[i]) < w)
        assert chain.picks[j] == i
        points[i].append(j)
    rows = []
    offset = 0
    for w, pts in zip(widths, points):
        vanishing = [1]
        for q in pts:
            if q < p:
                vanishing = poly_times_linear(vanishing, q, p)
        for k in range(w - len(pts)):
            row = [0] * sum(widths)
            row[offset + k:offset + k + len(vanishing)] = vanishing
            rows.append(row)
        offset += w
    assert chain.final.basis.tolist() == rref_rowwise(rows, p)


@given(
    st.sampled_from([2, 3, 5, 101, 65537, 2**31 - 1]),
    st.lists(st.integers(min_value=-4, max_value=12), min_size=1, max_size=4),
    st.data(),
)
def test_chain_replays_through_the_public_transforms(p, degrees, data):
    # The chain's final model is built block by block; replaying the chain from
    # its start through the checked first_usable_covector and
    # apply_transform must pick the recorded standard covector at every
    # step and end on the final model, and both bases are read-only.
    steps = data.draw(st.integers(min_value=0, max_value=min(60, p + 1)))
    _, chain = build_curve_filtration(degrees, sum(degrees) - steps, p)
    assert len(chain.picks) == steps
    assert len(chain.dims) == len(chain.det_degrees) == steps + 1
    current = chain.start
    for j in range(steps):
        phi = first_usable_covector(current, point_at(j, p))
        assert phi.covector == tuple(int(k == chain.picks[j]) for k in range(len(degrees)))
        current = apply_transform(current, phi)
        assert current.dim == chain.dims[j + 1]
        assert current.det_degree == chain.det_degrees[j + 1]
    assert current == chain.final
    assert not chain.start.basis.array.flags.writeable
    assert not chain.final.basis.array.flags.writeable


@pytest.mark.parametrize("degrees, steps", [([0], 0), ([3, 1], 5), ([40, 40, 20], 101)])
def test_chain_checks_the_prime_once(monkeypatch, degrees, steps):
    calls = []
    original = field._is_prime
    monkeypatch.setattr(field, "_is_prime", lambda n: calls.append(n) or original(n))
    _, chain = build_curve_filtration(degrees, sum(degrees) - steps, 101)
    assert len(chain.picks) == steps
    assert len(chain.dims) == steps + 1
    assert calls == [101]


@pytest.mark.parametrize("degrees, steps, p, part", [
    ([40, 40, 20], 101, 101, 19),  # two blocks filled, the third takes 19 of 21
    ([3, 1], 6, 101, 0),  # every block filled: none left part full
    ([5], 3, 101, 3),  # one block left part full
    ([1, 1], 3, 2, 1),  # the part-full block takes infinity
])
def test_chain_cuts_only_the_part_full_block(monkeypatch, degrees, steps, p, part):
    # Building a chain cuts nothing and builds no model: picks, dims and
    # determinant degrees are closed form, and only the part-full block is
    # left with steps short of its width. Reading final eliminates block by
    # block: once per block left with sections, never for a filled block and
    # never wider than one block. Replaying the block-capacity picks through
    # apply_transform gives that final model.
    def refuse(*args, **kwargs):
        raise AssertionError("a basis was built with the chain")

    monkeypatch.setattr(gf, "cut", refuse)
    monkeypatch.setattr(gf, "kernel_basis", refuse)
    monkeypatch.setattr(hecke, "SubsheafModel", refuse)
    _, chain = build_curve_filtration(degrees, sum(degrees) - steps, p)
    assert len(chain.dims) == len(chain.det_degrees) == steps + 1
    monkeypatch.undo()
    widths = chain.start.block_widths
    assert sum(k for i, w in enumerate(widths)
               if 0 < (k := chain.picks.count(i)) < w) == part
    assert chain.picks == tuple(i for i, w in enumerate(widths) for _ in range(w))[:steps]
    eliminated = []
    rref = gf._rref_array
    monkeypatch.setattr(gf, "_rref_array",
                        lambda a, q: eliminated.append(a.shape[1]) or rref(a, q))
    final = chain.final
    monkeypatch.undo()
    assert sorted(eliminated) == sorted(
        w for i, w in enumerate(widths) if chain.picks.count(i) < w)
    current = chain.start
    for j, i in enumerate(chain.picks):
        e_i = tuple(int(k == i) for k in range(len(degrees)))
        current = apply_transform(current, PointFunctional(point_at(j, p), e_i))
    assert current == final


@pytest.mark.parametrize("p", [2, 5, 101])
def test_point_labels_follow_point_at(p):
    for count in range(p + 2):
        assert curve.point_labels(count, p) == [point_at(j, p).label() for j in range(count)]
    with pytest.raises(IndexError):
        curve.point_labels(p + 2, p)


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_final_model_is_the_vanishing_code_basis(p):
    # The bridge to codes: a chain of M steps on O(d), d <= p, cuts the
    # sections vanishing at the affine points 0, ..., M - 1, which is the
    # basis agcode builds from those conditions. Evaluated at every point
    # of the line, that code has exactly those M zero blocks, and its
    # distance p + 1 - d is that of a polynomial of degree d with d distinct
    # affine roots, so contracting the blocks improves by (p + 1)/(p + 1 - M).
    points = agcode.all_rational_points("P1", p)
    for d in range(p + 1):
        for M in range(d + 1):
            _, chain = build_curve_filtration([d], d - M, p)
            conditions = [agcode.VanishingCondition(q) for q in points[:M]]
            basis = agcode.vanishing_basis(d, conditions, "P1", p)
            assert chain.final.basis == basis.basis
            k = d + 1 - M
            report = agcode.mmp_compare(agcode.build_code([basis], points, p))
            if (p**k - 1) // (p - 1) > agcode.DEFAULT_BUDGET:
                assert report is INFEASIBLE
                continue
            assert report.zero_blocks == tuple(range(M))
            assert (report.k, report.d_min) == (k, p + 1 - d)
            assert (report.n_points_before, report.n_points_after) == (p + 1, p + 1 - M)
            assert report.ratio == Fraction(p + 1, p + 1 - M)
