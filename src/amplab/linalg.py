"""Symmetric-matrix storage, its BLAS matvec, and a from-scratch Jacobi eigensolver.

A symmetric matrix keeps its upper triangle in one of two layouts, both
column ordered (BLAS 'U' convention):

- packed, length n(n+1)/2: entry (i, j) with i <= j lives at
  ``i + j*(j+1)//2``. Half the memory of the square, applied by BLAS
  ``dspmv``, which the bundled OpenBLAS runs on one thread.
- dense, a Fortran-order (n, n) array of which only the upper triangle is
  read; the lower one may hold anything. Twice the memory, applied by BLAS
  ``dsymv``, which OpenBLAS threads. Worth it for an operator applied 100+
  times, as in the gap check's Lanczos solve.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import dspmv, dsymv

from .errors import NumericalFailureError, RejectedInputError

JACOBI_MAX_SWEEPS = 100


def packed_length(n):
    return n * (n + 1) // 2


def packed_diagonal_indices(n):
    i = np.arange(n)
    return i * (i + 3) // 2


@dataclass(frozen=True, eq=False)
class SymmetricMatrix:
    """Symmetric n x n matrix held by its upper triangle.

    ``entries`` is either the packed triangle (length n(n+1)/2) or a
    Fortran-order float64 (n, n) array, kept as given, whose lower triangle
    is never read; see the module docstring.
    """

    n: int
    entries: np.ndarray

    def __post_init__(self):
        if self.n < 1:
            raise RejectedInputError(f"dimension must be >= 1, got {self.n}")
        a = self.entries
        if isinstance(a, np.ndarray) and a.ndim == 2:
            if not (a.shape == (self.n, self.n) and a.dtype == np.float64 and a.flags.f_contiguous):
                raise RejectedInputError(
                    f"dense entries must be a Fortran-order float64 ({self.n}, {self.n}) array, "
                    f"got shape {a.shape}"
                )
            return
        entries = np.ascontiguousarray(self.entries, dtype=np.float64)
        if entries.shape != (packed_length(self.n),):
            raise RejectedInputError(
                f"packed entries must have length {packed_length(self.n)}, "
                f"got shape {entries.shape}"
            )
        object.__setattr__(self, "entries", entries)

    @classmethod
    def from_dense(cls, a):
        a = np.asarray(a, dtype=np.float64)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise RejectedInputError(f"expected a square matrix, got shape {a.shape}")
        scale = max(1.0, float(np.max(np.abs(a))))
        if np.max(np.abs(a - a.T)) > 1e-12 * scale:
            raise RejectedInputError("matrix is not symmetric")
        n = a.shape[0]
        i, j = np.triu_indices(n)
        entries = np.empty(packed_length(n))
        entries[i + j * (j + 1) // 2] = a[i, j]
        return cls(n, entries)

    def to_dense(self):
        if self.entries.ndim == 2:
            upper = np.triu(self.entries)
            return upper + np.triu(upper, 1).T
        i, j = np.triu_indices(self.n)
        pos = i + j * (j + 1) // 2
        out = np.empty((self.n, self.n))
        out[i, j] = self.entries[pos]
        out[j, i] = self.entries[pos]
        return out

    def apply(self, x):
        return sym_matvec(self, x)


@dataclass(frozen=True, eq=False)
class EigenDecomp:
    """Eigenvalues sorted descending with orthonormal eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray  # column r pairs with eigenvalues[r]


def sym_matvec(m, x):
    """y = M x for a SymmetricMatrix: BLAS dsymv on the dense layout, dspmv on the packed."""
    x = np.ascontiguousarray(x, dtype=np.float64)
    if x.shape != (m.n,):
        raise RejectedInputError(f"vector length {x.shape} does not match n={m.n}")
    if m.entries.ndim == 2:
        return dsymv(1.0, m.entries, x, lower=0)
    return dspmv(m.n, 1.0, m.entries, x)


def jacobi_eigendecomp(m, tol=1e-12):
    """Round-robin Jacobi rotations until max |off-diagonal| <= tol * ||M||_F.

    Each sweep visits every pair (p, q) once, in the round-robin (Brent-Luk
    parallel) ordering: n - 1 steps of disjoint pairs (n steps for odd n, where
    one index sits out each step). The rotations of one step commute, so they
    are applied together as whole-array updates. Convergence is judged at the
    top of each sweep; within a sweep, pairs with |a_pq| <= 0.1 * tol * ||M||_F
    are skipped. Written from scratch, with no LAPACK eigensolver call, so it
    stays an independent oracle. Oracle-scale solver (n <= 1024); raises after
    100 sweeps without convergence.
    """
    if tol <= 0:
        raise RejectedInputError(f"tol must be positive, got {tol}")
    if m.n > 1024:
        raise RejectedInputError(f"jacobi_eigendecomp is limited to n <= 1024, got {m.n}")
    n = m.n
    a = m.to_dense()
    v = np.eye(n)
    fro = np.linalg.norm(a)
    if fro == 0.0 or n == 1:
        return _sorted_decomp(np.diag(a).copy(), v)
    threshold = tol * fro
    # entries below this are skipped inside a sweep; convergence is still
    # judged against the true maximum at the top of each sweep
    skip = 0.1 * threshold
    steps = _round_robin_steps(n)
    off = _max_offdiag(a)
    for _ in range(JACOBI_MAX_SWEEPS):
        if off <= threshold:
            return _sorted_decomp(np.diag(a).copy(), v)
        for p, q in steps:
            active = np.abs(a[p, q]) > skip
            p, q = p[active], q[active]
            if p.size == 0:
                continue
            apq = a[p, q]
            tau = (a[q, q] - a[p, p]) / (2.0 * apq)
            t = np.where(tau >= 0, 1.0, -1.0) / (np.abs(tau) + np.hypot(1.0, tau))
            c = 1.0 / np.sqrt(1.0 + t * t)
            s = t * c
            _rotate_columns(a, p, q, c, s)
            _rotate_columns(a.T, p, q, c, s)  # the rows
            a[p, q] = 0.0
            a[q, p] = 0.0
            _rotate_columns(v, p, q, c, s)
        off = _max_offdiag(a)
    raise NumericalFailureError(
        f"Jacobi did not converge in {JACOBI_MAX_SWEEPS} sweeps "
        f"(residual {off:.3e} > {threshold:.3e})",
        residual=float(off),
    )


def _round_robin_steps(n):
    """One sweep of disjoint (p, q) pairs, p < q, by the circle method.

    Index 0 stays put while the others turn one place per step; for odd n a
    dummy index is added and whoever faces it sits the step out.
    """
    m = n + n % 2
    ring = np.arange(1, m)
    steps = []
    for _ in range(m - 1):
        order = np.concatenate(([0], ring))
        top, bottom = order[: m // 2], order[::-1][: m // 2]
        keep = (top < n) & (bottom < n)
        p, q = np.minimum(top, bottom)[keep], np.maximum(top, bottom)[keep]
        steps.append((p, q))
        ring = np.roll(ring, 1)
    return steps


def _rotate_columns(x, p, q, c, s):
    """Columns (p_k, q_k) <- (c_k x_p - s_k x_q, s_k x_p + c_k x_q) for each k."""
    xp = x[:, p]
    xq = x[:, q]
    x[:, p] = xp * c - xq * s
    x[:, q] = xp * s + xq * c


def _max_offdiag(a):
    b = np.abs(a)
    np.fill_diagonal(b, 0.0)
    return float(b.max())


def _sorted_decomp(eigenvalues, eigenvectors):
    order = np.argsort(eigenvalues)[::-1]
    return EigenDecomp(eigenvalues[order], eigenvectors[:, order])

