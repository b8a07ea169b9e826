"""Exact prime-field linear algebra: canonical forms, ranks, kernels."""

import ast
import random
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hierdepth import curve, gf, hecke
from hierdepth.errors import NotPrime, VacuousTransform
from hierdepth.field import _is_prime
from hierdepth.gf import Field, FMatrix, dot_mod, kernel_basis, rank, rref

FIELDS = [2, 5, 7]
BIG = 2**31 - 1


def det3_oracle(rows, p):
    """Independent 3x3 determinant by cofactor expansion."""
    a, b, c = rows[0]
    d, e, f = rows[1]
    g, h, i = rows[2]
    return (a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)) % p


def test_field_new_accepts_primes():
    for p in (2, 3, 5, 7, 101, 2**31 - 1):
        assert Field(p).p == p


def test_field_new_rejects_nonprimes():
    for bad in (0, 1, 4, 6, 9, 1000000, 2**31 + 11):
        with pytest.raises(NotPrime):
            Field(bad)


def test_vandermonde_rank_full():
    # Oracle first: the determinant of the 3x3 Vandermonde matrix at the
    # points 1, 2, 3 is (2-1)(3-1)(3-2) = 2, nonzero mod 5.
    pts = [1, 2, 3]
    rows = [[1, x % 5, (x * x) % 5] for x in pts]
    assert det3_oracle(rows, 5) == 2
    assert rank(FMatrix(5, rows)) == 3


def test_kernel_of_zero_matrix_is_identity():
    k = kernel_basis(FMatrix(5, np.zeros((2, 3), dtype=np.int64)))
    assert k == FMatrix.identity(5, 3)


def test_kernel_of_full_rank_is_empty():
    k = kernel_basis(FMatrix.identity(7, 4))
    assert k.shape == (0, 4)


def test_kernel_rows_annihilate_matrix():
    rng = np.random.RandomState(11)
    for p in FIELDS:
        for _ in range(40):
            m = FMatrix(p, rng.randint(0, p, size=(4, 6)))
            k = kernel_basis(m)
            assert not dot_mod(m.array, k.array.T, p).any()


def test_rank_plus_kernel_dim_is_cols():
    # 200 random matrices per field.
    rng = np.random.RandomState(7)
    for p in FIELDS:
        for _ in range(200):
            r = rng.randint(1, 7)
            c = rng.randint(1, 7)
            m = FMatrix(p, rng.randint(0, p, size=(r, c)))
            assert rank(m) + kernel_basis(m).rows == c


def test_rref_is_canonical_for_a_subspace():
    # Mix rows by random invertible operations; the echelon form must not move.
    rng = np.random.RandomState(3)
    for p in FIELDS:
        for _ in range(60):
            m = rng.randint(0, p, size=(3, 5))
            mixed = m.copy()
            for _ in range(6):
                i, j = rng.randint(0, 3, size=2)
                if i != j:
                    mixed[i] = (mixed[i] + rng.randint(1, p) * mixed[j]) % p
            assert rref(FMatrix(p, m)) == rref(FMatrix(p, mixed))


def test_rref_idempotent():
    rng = np.random.RandomState(5)
    for _ in range(50):
        m = FMatrix(5, rng.randint(0, 5, size=(4, 5)))
        r = rref(m)
        assert rref(r) == r


@given(
    st.sampled_from(FIELDS),
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=1, max_value=5),
    st.randoms(use_true_random=False),
)
def test_rank_bounded_by_shape(p, r, c, rnd):
    data = [[rnd.randrange(p) for _ in range(c)] for _ in range(r)]
    m = FMatrix(p, data)
    assert 0 <= rank(m) <= min(r, c)


def test_matrix_equality_and_entries():
    m = FMatrix(5, [[6, -1], [0, 2]])
    assert m == FMatrix(5, [[1, 4], [0, 2]])
    assert m != FMatrix(7, [[1, 4], [0, 2]])


def test_matrix_owns_its_entries():
    src = np.array([[1, 9], [3, 4]], dtype=np.int64)
    m = FMatrix(5, src)
    src[0, 0] = 2
    assert m.tolist() == [[1, 4], [3, 4]]
    assert not m.array.flags.writeable
    assert FMatrix(5, [[1, 9], [3, 4]]) == m


def test_large_prime_field_elimination():
    p = 2**31 - 1
    # det = 2(p-1) - 1 = -3 mod p, nonzero
    m = FMatrix(p, [[p - 1, 1], [1, 2]])
    assert rank(m) == 2
    # while [[p-1, 1], [1, p-1]] has det (p-2)p = 0 mod p
    assert rank(FMatrix(p, [[p - 1, 1], [1, p - 1]])) == 1
    k = kernel_basis(FMatrix(p, [[p - 1, 1]]))
    assert k.rows == 1
    # the kernel vector satisfies the equation exactly
    v = k.tolist()[0]
    assert ((p - 1) * v[0] + v[1]) % p == 0


def test_empty_matrix_shapes():
    m = FMatrix(5, [], cols=4)
    assert m.shape == (0, 4)
    assert rank(m) == 0
    assert kernel_basis(m) == FMatrix.identity(5, 4)


def trial_division(n):
    """Oracle: n is prime when no d with d*d <= n divides it."""
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def test_prime_check_matches_trial_division_below_200000():
    # Sieve of Eratosthenes: trial division by every prime, done in bulk.
    limit = 200_000
    sieve = np.ones(limit, dtype=bool)
    sieve[:2] = False
    for d in range(2, int(limit**0.5) + 1):
        if sieve[d]:
            sieve[d * d::d] = False
    assert [n for n in range(limit) if _is_prime(n)] == list(np.flatnonzero(sieve))


def test_prime_check_rejects_strong_pseudoprimes():
    # strong pseudoprimes to base 2; to bases 2, 3; to bases 2, 3, 5
    for n in (2047, 1_373_653, 25_326_001):
        assert not trial_division(n)
        assert not _is_prime(n)


def test_prime_check_matches_trial_division_near_2_31():
    rnd = random.Random(31)
    for n in [rnd.randrange(2**30, 2**31 + 1) for _ in range(2000)] + [BIG]:
        assert _is_prime(n) == trial_division(n), n


@pytest.mark.parametrize("p", [2, 5, 2**20 + 7, BIG])
@pytest.mark.parametrize("inner", [0, 1, 2, 40, 2**16])
def test_dot_mod_matches_python_ints(p, inner):
    # At 2**31 - 1 the inner sizes reach both the int64 and the object path.
    rng = np.random.RandomState(inner)
    a = rng.randint(0, p, size=(3, inner)).astype(np.int64)
    b = rng.randint(0, p, size=(inner, 2)).astype(np.int64)
    a[0] = p - 1  # the largest products
    b[:, 0] = p - 1
    expect = [
        [sum(int(x) * int(y) for x, y in zip(a[i], b[:, j])) % p for j in range(2)]
        for i in range(3)
    ]
    assert dot_mod(a, b, p).tolist() == expect
    assert dot_mod(a, b[:, 0], p).tolist() == [row[0] for row in expect]


def _raw_product(node):
    if isinstance(node, (ast.BinOp, ast.AugAssign)):
        return isinstance(node.op, ast.MatMult)
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("dot", "matmul", "einsum", "tensordot", "inner"))


def test_raw_products_sit_where_pinned():
    # dot_mod is the exact kernel. agcode._evaluate keeps a raw int64
    # product whose sums overflow near 2**31; the distance enumerator's and
    # the component split's float32 products count 0/1 entries, not field
    # data. A new raw product belongs in dot_mod.
    found = set()
    for path in sorted(Path(gf.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.FunctionDef) and any(
                _raw_product(n) for n in ast.walk(node)
            ):
                found.add(f"{path.stem}.{node.name}")
    assert found == {
        "gf.dot_mod", "agcode._evaluate", "agcode._min_weight", "agcode._components",
    }


def _trusted_refs(node):
    return sum(
        isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load)
        and (n.id if isinstance(n, ast.Name) else n.attr) == "_trusted"
        for n in ast.walk(node)
    )


def test_trusted_wraps_sit_where_pinned():
    # gf._trusted skips the prime check and the reduction, so only code that
    # produced the reduced array itself may call it: gf's own echelon and
    # kernel results. Scripts are outside callers.
    scripts = Path(__file__).resolve().parent.parent / "scripts"
    found = set()
    for path in sorted(Path(gf.__file__).parent.glob("*.py")) + sorted(scripts.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        functions = [n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)]
        found |= {f"{path.stem}.{f.name}" for f in functions if _trusted_refs(f)}
        if _trusted_refs(tree) > sum(_trusted_refs(f) for f in functions):
            found.add(f"{path.stem}.<module>")
    assert found == {"gf.rref", "gf.kernel_basis"}


def rref_rowwise(a, p):
    """Reference elimination: one Python row operation at a time."""
    a = [[int(x) % p for x in row] for row in a]
    nrows = len(a)
    ncols = len(a[0]) if a else 0
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if a[i][c]), None)
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        inv = pow(a[r][c], p - 2, p)
        a[r] = [x * inv % p for x in a[r]]
        for i in range(nrows):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [(x - f * y) % p for x, y in zip(a[i], a[r])]
        r += 1
    return a[:r]


def kernel_reference(rows, ncols, p):
    """Right kernel from the free columns of the echelon form, in Python ints.

    Each free column f gives the vector with a 1 at f and -red[i][f] at the
    pivot column of row i; the result is re-eliminated into echelon form.
    """
    red = rref_rowwise(rows, p)
    pivots = [next(j for j, x in enumerate(row) if x) for row in red]
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        v = [0] * ncols
        v[f] = 1
        for row, c in zip(red, pivots):
            v[c] = -row[f] % p
        basis.append(v)
    return rref_rowwise(basis, p)


def subspace_kernel_reference(basis, functionals):
    """Kernel in coefficient space, mapped back and re-eliminated."""
    p = basis.p
    rows = basis.tolist()
    if not rows:
        return basis
    vals = [[sum(x * int(y) for x, y in zip(row, f)) % p for row in rows]
            for f in functionals]
    coeffs = kernel_reference(vals, len(rows), p)
    combos = [
        [sum(c * row[j] for c, row in zip(cs, rows)) % p for j in range(basis.cols)]
        for cs in coeffs
    ]
    return FMatrix(p, rref_rowwise(combos, p), cols=basis.cols)


MATRIX_FIELDS = [2, 3, 5, 7, 101, 65537, BIG]


@given(
    st.sampled_from(MATRIX_FIELDS),
    st.integers(min_value=0, max_value=6),
    st.integers(min_value=1, max_value=8),
    st.sampled_from([1, 2, 3]),
    st.randoms(use_true_random=False),
)
def test_rref_matches_rowwise_elimination(p, r, c, blocks, rnd):
    # with blocks > 1, row i and column j are nonzero together only in
    # block i % blocks and j * blocks // c: block diagonal, rows interleaved
    data = [
        [rnd.randrange(p) if i % blocks == j * blocks // c else 0 for j in range(c)]
        for i in range(r)
    ]
    m = FMatrix(p, data, cols=c)
    assert rref(m).tolist() == rref_rowwise(data, p)


@given(
    st.sampled_from(MATRIX_FIELDS),
    st.integers(min_value=0, max_value=6),
    st.integers(min_value=1, max_value=8),
    st.sampled_from(["sparse", "zero", "full"]),
    st.randoms(use_true_random=False),
)
def test_kernel_basis_matches_free_column_kernel(p, r, c, shape, rnd):
    if shape == "zero":
        data = [[0] * c for _ in range(r)]
    elif shape == "full":
        # unit rows at distinct columns, mixed by row additions: rank min(r, c)
        data = [[0] * c for _ in range(r)]
        for i, j in enumerate(rnd.sample(range(c), min(r, c))):
            data[i][j] = 1
        for _ in range(2 * r):
            i, j = rnd.randrange(r), rnd.randrange(r)
            if i != j:
                a = rnd.randrange(p)
                data[i] = [(x + a * y) % p for x, y in zip(data[i], data[j])]
    else:
        data = [[rnd.randrange(p) if rnd.random() < 0.5 else 0 for _ in range(c)]
                for _ in range(r)]
    got = kernel_basis(FMatrix(p, data, cols=c))
    assert got.tolist() == kernel_reference(data, c, p)
    assert got.rows == c - len(rref_rowwise(data, p))
    if shape == "zero":
        assert got == FMatrix.identity(p, c)
    elif shape == "full":
        assert got.rows == c - min(r, c)


@pytest.mark.parametrize("p", MATRIX_FIELDS)
def test_kernel_basis_edge_shapes(p):
    # degenerate shapes: no rows, no columns, full column rank
    for n in (0, 1, 5):
        assert kernel_basis(FMatrix(p, [], cols=n)) == FMatrix.identity(p, n)
    for r in (0, 1, 3):
        assert kernel_basis(FMatrix(p, np.zeros((r, 0), dtype=np.int64))).shape == (0, 0)
    # unit lower triangular rows plus one more: full column rank 3
    full = kernel_basis(FMatrix(p, [[1, 0, 0], [2, 1, 0], [3, p - 1, 1], [p - 1, 0, 0]]))
    assert full.shape == (0, 3)
    k = kernel_basis(FMatrix(p, [[1, 2, 0, 3]]))
    assert k.tolist() == kernel_reference([[1, 2, 0, 3]], 4, p)
    assert k.array.dtype == np.int64
    assert k.array.flags.c_contiguous and not k.array.flags.writeable


def test_large_kernel_is_held_once():
    # three random rows over 1100 columns: a 1097 x 1100 kernel (9.2 MiB);
    # written in place it is allocated once, a reversed copy would double it
    rnd = np.random.default_rng(7)
    m = FMatrix(101, rnd.integers(0, 101, size=(3, 1100)))
    tracemalloc.start()
    try:
        k = kernel_basis(m)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert k.array.nbytes >= 8 * 2**20
    assert peak < 1.5 * k.array.nbytes
    assert not dot_mod(m.array, k.array.T, 101).any()


@given(
    st.sampled_from(MATRIX_FIELDS),
    st.lists(st.integers(min_value=-1, max_value=4), min_size=1, max_size=3),
    st.integers(min_value=0, max_value=3),
    st.randoms(use_true_random=False),
)
def test_subspace_kernel_matches_coefficient_kernel(p, degrees, steps, rnd):
    # The joint kernel of two functionals at distinct points, on a full
    # section space after 0-3 random transforms, against the kernel in
    # coefficient space. Sparse covectors make zero values on some blocks.
    def functional(point):
        cov = [rnd.randrange(p) if rnd.random() < 0.6 else 0 for _ in degrees]
        cov[rnd.randrange(len(degrees))] = rnd.randrange(1, p)
        return hecke.PointFunctional(point, tuple(cov))

    m = hecke.full_sections(degrees, p)
    for _ in range(steps):
        try:
            m = hecke.apply_transform(m, functional(curve.point_at(rnd.randrange(p + 1), p)))
        except VacuousTransform:
            pass
    i, j = rnd.sample(range(p + 1), 2)
    f1, f2 = functional(curve.point_at(i, p)), functional(curve.point_at(j, p))
    functionals = np.stack([hecke._functional_row(m, f) for f in (f1, f2)])
    got = hecke._joint_kernel(m, f1, f2)
    assert got == subspace_kernel_reference(m.basis, functionals)
    # the kernel lies in the kernel of both functionals
    for row in got.tolist():
        for f in functionals.tolist():
            assert sum(x * y for x, y in zip(row, f)) % p == 0
