"""Exact linear algebra over prime fields.

Matrices are stored as int64 numpy arrays with entries reduced into [0, p).
All eliminations are exact: pivots are inverted with Fermat's little theorem
and every row operation is reduced mod p immediately. A single product of two
reduced entries stays below p**2 <= 2**62 and fits in int64; a sum of such
products may not, so every inner product goes through dot_mod, which keeps
each partial sum below 2**63 or else computes over Python integers.

The reduced row echelon form computed here is the canonical representative
of a row space: two row-generating sets span the same subspace exactly when
their echelon forms are equal entry by entry.

One elimination, _rref_array, gives echelon forms, ranks and kernels; cut
is the one step that removes a functional from an echelon basis.
"""

from __future__ import annotations

import numpy as np

from .field import Field


def dot_mod(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """Exact (a @ b) mod p as int64, for int64 arrays with entries in [0, p).

    Uses one int64 product when no inner sum can reach 2**63, that is when
    inner * (p - 1)**2 < 2**63, and Python integers otherwise.
    """
    if a.shape[-1] * (p - 1) ** 2 < 2**63:
        return (a @ b) % p
    return ((a.astype(object) @ b.astype(object)) % p).astype(np.int64)


class FMatrix:
    """Immutable matrix over a prime field, row major."""

    __slots__ = ("p", "_a")

    def __init__(self, p: int, data, cols: int | None = None):
        Field(p)  # validates the modulus
        a = np.asarray(data, dtype=np.int64)
        if a.size == 0:
            if cols is None:
                cols = a.shape[1] if a.ndim == 2 else 0
            a = a.reshape(0, cols)
        if a.ndim != 2:
            raise ValueError("matrix data must be two dimensional")
        a = a % p  # the only copy, so the caller's array is not shared
        a.setflags(write=False)
        self.p = p
        self._a = a

    @classmethod
    def identity(cls, p: int, n: int) -> "FMatrix":
        return cls(p, np.eye(n, dtype=np.int64))

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

    def tolist(self):
        return [[int(v) for v in row] for row in self._a]

    def __eq__(self, other) -> bool:
        if not isinstance(other, FMatrix):
            return NotImplemented
        return (
            self.p == other.p
            and self.shape == other.shape
            and bool(np.array_equal(self._a, other._a))
        )

    def __repr__(self) -> str:
        return f"FMatrix(p={self.p}, shape={self.shape})"


def _trusted(p: int, a: np.ndarray) -> FMatrix:
    """FMatrix of an array gf reduced: no checks, no copy; made read-only."""
    m = FMatrix.__new__(FMatrix)
    m.p, m._a = p, a
    a.setflags(write=False)
    return m


def _eliminate(a: np.ndarray, rows: np.ndarray, pivot_row: np.ndarray,
               coeffs: np.ndarray, c: int, p: int) -> None:
    """One pivot step, in place: a[rows[k]] -= coeffs[k] * pivot_row mod p.

    pivot_row is zero left of column c, so only columns c: change. Entries
    and coeffs lie in [0, p), so no product exceeds 2**62.
    """
    if rows.size:
        a[rows, c:] = (a[rows, c:] - coeffs[:, None] * pivot_row[c:]) % p


def _rref_array(a: np.ndarray, p: int) -> np.ndarray:
    """Reduced echelon form of an int64 array, zero rows dropped.

    A pivot step costs a few numpy calls whatever the size, so it calls
    ndarray methods, not numpy's Python-level wrappers, and scales the
    pivot row in place; only the rows with a nonzero in the pivot column
    are updated.
    """
    a = a % p
    nrows, ncols = a.shape
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        nz = a[r:, c].nonzero()[0]
        if nz.size == 0:
            continue
        pivot = r + int(nz[0])
        if pivot != r:
            a[[r, pivot]] = a[[pivot, r]]
        row = a[r, c:]
        row *= pow(int(row[0]), p - 2, p)
        row %= p
        rows = a[:, c].nonzero()[0]
        rows = rows[rows != r]
        _eliminate(a, rows, a[r], a[rows, c], c, p)
        r += 1
    return a[:r]


def rref(m: FMatrix) -> FMatrix:
    """Canonical reduced row echelon form; rows span the same row space."""
    return _trusted(m.p, _rref_array(m.array, m.p))


def rank(m: FMatrix) -> int:
    return _rref_array(m.array, m.p).shape[0]


def _free_column_kernel(r: np.ndarray, p: int) -> np.ndarray:
    """Kernel of a reduced echelon array r with no zero rows, read with its
    columns reversed: a basis of {v : r v[::-1] = 0}.

    Free column j of r gives one row, 1 at n-1-j and -r[i, j] at n-1 minus
    row i's pivot; rows run over j in decreasing order. Each entry is
    written straight to that reversed place, so no reversed copy is made.
    """
    n = r.shape[1]
    lead = (r != 0).argmax(axis=1) if r.size else np.zeros(0, dtype=np.intp)
    free = np.ones(n, dtype=bool)
    free[lead] = False
    free = np.flatnonzero(free)
    k = np.zeros((free.size, n), dtype=np.int64)
    k[np.arange(free.size - 1, -1, -1), n - 1 - free] = 1
    k[:, n - 1 - lead] = ((-r[:, free].T) % p)[::-1]
    return k


def kernel_basis(m: FMatrix) -> FMatrix:
    """Canonical basis of the right kernel {v : M v^T = 0}.

    The result is itself in reduced echelon form, so equal kernels compare
    equal as matrices. Row count is cols - rank(m). The free-column kernel
    of M with its columns reversed, read back reversed, is already that
    echelon form.
    """
    return _trusted(m.p, _free_column_kernel(_rref_array(m.array[:, ::-1], m.p), m.p))


def cut(a: np.ndarray, v: np.ndarray, p: int) -> np.ndarray:
    """Cut one functional out of the row space of an echelon array a.

    v holds the functional's values on a's rows. The last row r with
    v_r != 0 is subtracted, scaled by v_i / v_r, from every row i with
    v_i != 0, and then dropped; a is returned unchanged when v is zero.
    When a is in reduced echelon form, row r is zero in every other pivot
    column and its pivot lies right of theirs, so the result is again the
    canonical reduced echelon form and needs no re-elimination.
    """
    rows = np.flatnonzero(v)
    if rows.size == 0:
        return a
    r = int(rows[-1])
    rows = rows[:-1]
    pivot_row = a[r]
    # rows affected all lie above r, so deleting r keeps their indices
    a = np.concatenate((a[:r], a[r + 1:]))
    inv = pow(int(v[r]), p - 2, p)
    c = int(np.flatnonzero(pivot_row)[0])
    _eliminate(a, rows, pivot_row, (v[rows] * inv) % p, c, p)
    return a
