"""Exact prime-field linear algebra: canonical forms, ranks, kernels."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hierdepth.errors import NotPrime
from hierdepth.gf import Field, FMatrix, kernel_basis, rank, rref

FIELDS = [2, 5, 7]


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
    k = kernel_basis(FMatrix.zeros(5, 2, 3))
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
            assert m.matmul(k.transpose()).is_zero


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


def test_matmul_matches_python_ints():
    rng = np.random.RandomState(13)
    a = rng.randint(0, 7, size=(3, 4))
    b = rng.randint(0, 7, size=(4, 2))
    expect = [
        [sum(int(a[i, t]) * int(b[t, j]) for t in range(4)) % 7 for j in range(2)]
        for i in range(3)
    ]
    assert FMatrix(7, a).matmul(FMatrix(7, b)).tolist() == expect


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
    v = k.row(0)
    assert ((p - 1) * v[0] + v[1]) % p == 0


def test_empty_matrix_shapes():
    m = FMatrix(5, [], cols=4)
    assert m.shape == (0, 4)
    assert rank(m) == 0
    assert kernel_basis(m) == FMatrix.identity(5, 4)
