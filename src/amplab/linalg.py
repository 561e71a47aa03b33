"""Symmetric-matrix storage, its BLAS matvec, and a from-scratch Jacobi eigensolver.

A symmetric matrix keeps its upper triangle in one of two layouts, both
column ordered (BLAS 'U' convention):

- packed, length n(n+1)/2: entry (i, j) with i <= j lives at
  ``i + j*(j+1)//2``. Half the memory of the square, applied by BLAS
  ``dspmv``, which the bundled OpenBLAS runs on one thread.
- dense, a Fortran-order (n, n) array of which only the upper triangle is
  read; the lower one may hold anything. Twice the memory, applied by BLAS
  ``dsymv``, which OpenBLAS threads. Worth it for an operator applied 100+
  times, as in the gap check's Lanczos solve. A packed triangle drawn into
  its first n(n+1)/2 elements is moved in place by ``spread_packed_columns``.

Both BLAS routines are numpy's bundled OpenBLAS, the library ``import numpy`` has already
loaded, called through ``openblas``.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NumericalFailureError, RejectedInputError
from .openblas import symv

JACOBI_MAX_SWEEPS = 100


def packed_length(n):
    return n * (n + 1) // 2


def packed_diagonal_indices(n):
    i = np.arange(n)
    return i * (i + 3) // 2


def spread_packed_columns(flat, n):
    """Spread the packed triangle in flat[:n(n+1)/2] to the column tops of flat, an F-order (n, n).

    Last column first: column j lands at offset j*n >= j(j+1)/2, past every
    column still to move; NumPy buffers the one overlapping move (n = 2).
    """
    for j in range(n - 1, 0, -1):
        flat[j * n : j * n + j + 1] = flat[j * (j + 1) // 2 : (j + 1) * (j + 2) // 2]


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
        if not np.isfinite(a).all():  # a NaN would also pass the symmetry test below
            raise RejectedInputError("matrix has a non-finite entry")
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
    sweeps: int = 0  # Jacobi sweeps run before the test that judged it converged


def sym_matvec(m, x):
    """y = M x for a SymmetricMatrix: BLAS dsymv on the dense layout, dspmv on the packed."""
    x = np.ascontiguousarray(x, dtype=np.float64)
    if x.shape != (m.n,):
        raise RejectedInputError(f"vector length {x.shape} does not match n={m.n}")
    return symv(m.entries, x)


def jacobi_eigendecomp(m, tol=1e-12):
    """Eigendata of one symmetric matrix: ``jacobi_eigendecomp_stack`` on a stack of one.

    Raises NumericalFailureError after 100 sweeps without convergence.
    """
    (result,) = jacobi_eigendecomp_stack([m], tol)
    if isinstance(result, NumericalFailureError):
        raise result
    return result


def jacobi_eigendecomp_stack(matrices, tol=1e-12):
    """Round-robin Jacobi rotations on same-size matrices until max |off-diagonal| <= tol * ||M||_F.

    Each sweep visits every pair (p, q) once, in the round-robin (Brent-Luk
    parallel) ordering: m - 1 steps of disjoint pairs, m = n + n % 2, where a
    zero padding index for odd n is never rotated. A and V are kept in the
    current step's slot order, pair k at slots (2k, 2k+1). A step multiplies
    A's column pairs by one array holding each matrix's c + i s on every row,
    then A's transpose turned to the next slots by slice copies (A's rows), and
    V's columns before their turn; a sweep brings the slots back to their first
    order. The matrices run as one stack through each step's NumPy calls.
    Each keeps its own ||M||_F and threshold, is judged at the top of each
    sweep, and leaves the stack once it converges (a diagonal, zero or 1 x 1
    matrix at the first test), so its eigendata are bit for bit those of a
    stack of one. Within a sweep, pairs with |a_pq| <= 0.1 * tol * ||M||_F
    are skipped (rotation 1). From scratch, no LAPACK eigensolver, so an
    independent oracle (n <= 1024). Returns, in order, each matrix's
    EigenDecomp, with the sweeps it took (0 for a diagonal, zero or 1 x 1
    matrix), or the NumericalFailureError of one with a non-finite entry
    (it fails at the first test) or that did not converge in 100 sweeps. The
    scratch and rotation stacks are released before the last members are read
    out. NumPy may fuse the complex multiply (FMA) by CPU, so the last bits
    are per machine, reruns identical.
    """
    if tol <= 0:
        raise RejectedInputError(f"tol must be positive, got {tol}")
    if not matrices:
        return []
    n = matrices[0].n
    if any(m.n != n for m in matrices):
        raise RejectedInputError("a Jacobi stack needs matrices of one size")
    if n > 1024:
        raise RejectedInputError(f"jacobi_eigendecomp is limited to n <= 1024, got {n}")
    count = len(matrices)
    out, live = [None] * count, np.arange(count)
    slots, turn = _circle_slots(n)
    size = slots.size
    scratch = np.zeros((count, size, size))
    threshold = np.empty(count)
    for j, m in enumerate(matrices):
        dense = m.to_dense()
        with np.errstate(over="ignore"):  # a finite matrix's sum of squares may overflow: then scale by max |a_ij|
            norm = np.linalg.norm(dense)
            if not np.isfinite(norm) and np.isfinite(dense).all():
                top = np.abs(dense).max()
                norm = top * np.linalg.norm(dense / top)
            threshold[j] = tol * norm
        scratch[j, :n, :n] = dense
    skip = 0.1 * threshold
    a = np.take(np.take(scratch, slots, axis=1), slots, axis=2)  # rows and columns to slots
    v = np.repeat(np.eye(size)[None, :, slots], count, axis=0)  # rows: coordinates, padding last; columns: slots
    w = np.empty((count, size, size // 2), np.complex128)  # a step's c + i s, repeated on each row
    p, q = np.arange(0, size, 2), np.arange(1, size, 2)
    base = np.arange(count)[:, None] * (size * size)  # where each matrix starts in the flat stack
    pick = np.stack([p * size + q, p * (size + 1), q * (size + 1)])[:, None] + base  # a_pq, a_pp, a_qq
    back = np.argsort(turn)  # the row a slot moves to
    rotated = np.stack([back[p] * size + q, back[q] * size + p])[:, None] + base  # a_pq, a_qp once rows moved
    for sweeps in range(JACOBI_MAX_SWEEPS):
        off = _max_offdiag(a, scratch)
        broken = ~np.isfinite(threshold)  # a non-finite entry, or a threshold that overflows
        done = (off <= threshold) | broken
        if done.any():
            keep = ~done
            count = int(keep.sum())
            if count == 0:
                del scratch, w  # only a and v are read out
            for j in np.flatnonzero(done):
                out[live[j]] = (
                    NumericalFailureError(f"Jacobi threshold tol * ||M||_F = {threshold[j]} is not finite")
                    if broken[j]
                    else _sorted_decomp(np.diag(a[j])[slots < n], v[j][:n, slots < n], sweeps)
                )
            if count == 0:
                return out
            kept = np.flatnonzero(keep)  # moved to the front through the free scratch stack
            a, scratch = np.take(a, kept, axis=0, out=scratch[:count], mode="clip"), a[:count]
            v, scratch, w = np.take(v, kept, axis=0, out=scratch, mode="clip"), v[:count], w[:count]
            live, threshold, skip = live[keep], threshold[keep], skip[keep]
            pick, rotated = pick[:, :count], rotated[:, :count]
        for _ in range(size - 1):
            apq, app, aqq = np.take(a, pick)
            active = np.abs(apq) > skip[:, None]
            every = active.all()
            tau = (aqq - app) / (2.0 * (apq if every else np.where(active, apq, 1.0)))
            t = np.copysign(1.0 / (np.abs(tau) + np.hypot(1.0, tau)), tau + 0.0)  # -0.0 counts as tau >= 0
            t = t if every else t * active + 0.0  # +0.0 (rotation 1) where skipped; a NaN stays
            c = 1.0 / np.sqrt(1.0 + t * t)
            w[:] = (c + 1j * (t * c))[:, None]
            _rotate_pairs(a, w)  # the columns
            _turned(a, scratch.transpose(0, 2, 1))  # scratch = a.T[turn]
            _rotate_pairs(scratch, w)  # the rows, now columns
            np.put(scratch, rotated if every else rotated[:, active], 0.0)
            _turned(scratch, a.transpose(0, 2, 1))
            _rotate_pairs(v, w)
            _turned(v, scratch)
            v, scratch = scratch, v
    off = _max_offdiag(a, scratch)
    for j, index in enumerate(live):
        out[index] = NumericalFailureError(
            f"Jacobi did not converge in {JACOBI_MAX_SWEEPS} sweeps "
            f"(residual {off[j]:.3e} > {threshold[j]:.3e})",
            residual=float(off[j]),
        )
    return out


def _circle_slots(n):
    """The circle method on m = n + n % 2 indices, laid out in slots.

    Position i < m/2 faces m - 1 - i, at slots (2i, 2i + 1); position 0 stays put while the
    others turn one place per step. Returns the index in each slot at the first step (index i
    at position i) and ``turn``, with next[s] = current[turn[s]] for arrays laid out in slots.
    """
    m = n + n % 2
    pos = np.arange(m)
    slot = np.where(pos < m // 2, 2 * pos, 2 * (m - 1 - pos) + 1)
    source = np.concatenate(([0, m - 1], pos[1 : m - 1]))  # position i takes source[i]'s index
    slots = np.argsort(slot)
    return slots, slot[source][slots]


def _turned(x, out):
    """out[..., s] = x[..., turn[s]] of ``_circle_slots``: slot 0 stays, even slots go up a pair, odd down."""
    if x.shape[-1] == 2:  # one pair: both slots stay
        out[...] = x
    else:
        out[..., :3:2], out[..., 4::2] = x[..., :2], x[..., 2:-2:2]
        out[..., 1:-1:2], out[..., -1] = x[..., 3::2], x[..., -2]


def _rotate_pairs(x, w):
    """Column pairs of the C-contiguous stack x <- (c x_2k - s x_2k+1, s x_2k + c x_2k+1), w[..., k] = c + i s."""
    np.multiply(x.view(np.complex128), w, out=x.view(np.complex128))


def _max_offdiag(a, work):
    """max |off-diagonal| of each matrix of the stack a; work, of a's shape, is overwritten."""
    np.abs(a, out=work)
    work.reshape(len(work), -1)[:, :: work.shape[-1] + 1] = 0.0
    return work.max(axis=(1, 2))


def _sorted_decomp(eigenvalues, eigenvectors, sweeps):
    order = np.argsort(eigenvalues)[::-1]
    return EigenDecomp(eigenvalues[order], eigenvectors[:, order], sweeps)

