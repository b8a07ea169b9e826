"""Exact linear algebra over prime fields.

Matrices are stored as int64 numpy arrays with entries reduced into [0, p).
All eliminations are exact: pivots are inverted with Fermat's little theorem
and every row operation is reduced mod p immediately, so no intermediate
value exceeds p**2 and nothing ever leaves the field.

The reduced row echelon form computed here is the canonical representative
of a row space: two row-generating sets span the same subspace exactly when
their echelon forms are equal entry by entry.
"""

from __future__ import annotations

import numpy as np

from .errors import NotPrime

MAX_MODULUS = 2**31

# int64 products a*b with a, b < 2**31 do not overflow; matmul accumulation
# can, so matmul falls back to exact object arithmetic past this bound.
_FAST_MATMUL_LIMIT = 2**20


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


class Field:
    """Prime field of order p; construction checks p is a prime in [2, 2**31]."""

    __slots__ = ("p",)

    def __init__(self, p: int):
        p = int(p)
        if p < 2 or p > MAX_MODULUS or not _is_prime(p):
            raise NotPrime(f"{p} is not a prime in [2, 2**31]")
        self.p = p


class FMatrix:
    """Immutable matrix over a prime field, row major."""

    __slots__ = ("p", "_a")

    def __init__(self, p: int, data, cols: int | None = None):
        Field(p)  # validates the modulus
        a = np.array(data, dtype=np.int64)
        if a.size == 0:
            if cols is None:
                cols = a.shape[1] if a.ndim == 2 else 0
            a = a.reshape(0, cols)
        if a.ndim != 2:
            raise ValueError("matrix data must be two dimensional")
        a = a % p
        a.setflags(write=False)
        self.p = p
        self._a = a

    @classmethod
    def identity(cls, p: int, n: int) -> "FMatrix":
        return cls(p, np.eye(n, dtype=np.int64))

    @classmethod
    def zeros(cls, p: int, rows: int, cols: int) -> "FMatrix":
        return cls(p, np.zeros((rows, cols), dtype=np.int64))

    @property
    def array(self) -> np.ndarray:
        """Read-only int64 view of the entries."""
        return self._a

    @property
    def rows(self) -> int:
        return self._a.shape[0]

    @property
    def cols(self) -> int:
        return self._a.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self._a.shape

    @property
    def is_zero(self) -> bool:
        return not self._a.any()

    def tolist(self):
        return [[int(v) for v in row] for row in self._a]

    def row(self, i: int):
        return [int(v) for v in self._a[i]]

    def transpose(self) -> "FMatrix":
        return FMatrix(self.p, self._a.T)

    def matmul(self, other: "FMatrix") -> "FMatrix":
        if self.p != other.p:
            raise ValueError("matrix moduli differ")
        if self.cols != other.rows:
            raise ValueError("inner dimensions differ")
        if self.p <= _FAST_MATMUL_LIMIT:
            prod = (self._a @ other._a) % self.p
        else:
            prod = (self._a.astype(object) @ other._a.astype(object)) % self.p
            prod = prod.astype(np.int64)
        return FMatrix(self.p, prod)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FMatrix):
            return NotImplemented
        return (
            self.p == other.p
            and self.shape == other.shape
            and bool(np.array_equal(self._a, other._a))
        )

    def __hash__(self) -> int:
        return hash((self.p, self.shape, self._a.tobytes()))

    def __repr__(self) -> str:
        return f"FMatrix(p={self.p}, shape={self.shape})"


def _rref_array(a: np.ndarray, p: int) -> np.ndarray:
    """Reduced echelon form of an int64 array, zero rows dropped."""
    a = (a % p).copy()
    nrows, ncols = a.shape
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        pivot = None
        for i in range(r, nrows):
            if a[i, c]:
                pivot = i
                break
        if pivot is None:
            continue
        if pivot != r:
            a[[r, pivot]] = a[[pivot, r]]
        inv = pow(int(a[r, c]), p - 2, p)
        a[r] = (a[r] * inv) % p
        for i in range(nrows):
            if i != r and a[i, c]:
                a[i] = (a[i] - int(a[i, c]) * a[r]) % p
        r += 1
    return a[:r]


def rref(m: FMatrix) -> FMatrix:
    """Canonical reduced row echelon form; rows span the same row space."""
    return FMatrix(m.p, _rref_array(m.array, m.p), cols=m.cols)


def rank(m: FMatrix) -> int:
    return _rref_array(m.array, m.p).shape[0]


def kernel_basis(m: FMatrix) -> FMatrix:
    """Canonical basis of the right kernel {v : M v^T = 0}.

    The result is itself in reduced echelon form, so equal kernels compare
    equal as matrices. Row count is cols - rank(m).
    """
    p = m.p
    red = _rref_array(m.array, p)
    ncols = m.cols
    pivots = []
    for row in red:
        nz = np.flatnonzero(row)
        pivots.append(int(nz[0]))
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    if not free:
        return FMatrix.zeros(p, 0, ncols)
    basis = np.zeros((len(free), ncols), dtype=np.int64)
    for k, f in enumerate(free):
        basis[k, f] = 1
        for i, pc in enumerate(pivots):
            basis[k, pc] = (-int(red[i, f])) % p
    return FMatrix(p, _rref_array(basis, p), cols=ncols)


def subspace_kernel(basis: FMatrix, functional_rows: np.ndarray) -> FMatrix:
    """Canonical basis of {v in rowspace(basis) : F v^T = 0}.

    functional_rows holds one functional per row in ambient coordinates.
    """
    p = basis.p
    if basis.rows == 0:
        return basis
    vals = (basis.array @ (functional_rows.T % p)) % p  # rows x functionals
    coeffs = kernel_basis(FMatrix(p, vals.T, cols=basis.rows))
    if coeffs.rows == 0:
        return FMatrix.zeros(p, 0, basis.cols)
    new_rows = (coeffs.array @ basis.array) % p
    return FMatrix(p, _rref_array(new_rows, p), cols=basis.cols)
