"""AMP orbits: the generalized and the memory-corrected recursions, plus orbit
observables; ``experiments.run_spectral_amp`` starts the latter from the spectral init.

Conventions match :mod:`amplab.nonlinear`: history rows are newest first, and
the correction coefficient b_{k,j} averages the analytic partial of f_k with
respect to iterate j over all coordinates. The correction sum runs over
j = 1..k only; no derivative with respect to the initialization is ever taken.

Both recursions also run a block of T orbits in lockstep: v0 of shape (T, n)
and an operator mapping (T, n) to (T, n). Each step then evaluates the
denoiser, its partials, the correction and the divergence check once over the
whole block, reducing over the last axis only, so row r holds the bytes of
the 1-D orbit on row r's operator.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import DivergenceError, RejectedInputError
from .nonlinear import Denoiser, denoiser_eval, denoiser_partial

DIVERGENCE_LIMIT = 1e12


@dataclass
class AmpOrbit:
    """One run's iterate history v^[0..K] plus the logged correction coefficients."""

    K: int
    iterates: list  # K+1 arrays of shape (n,), or (T, n) for a block
    # entry k holds (b_{k,1}..b_{k,k}), of shape (T, k) for a block; entry 0 is empty
    onsager_log: list = field(default_factory=list)

    def rows(self, k):
        """History (v^[k], ..., v^[0]) as a (k+1, n) array, newest first; (k+1, T, n) for a block."""
        if not (0 <= k <= self.K):
            raise RejectedInputError(f"iteration {k} outside 0..{self.K}")
        return np.stack([self.iterates[k - d] for d in range(k + 1)])


def _checked(v, k, shape):
    v = np.asarray(v, dtype=np.float64)
    if v.shape != shape:
        raise RejectedInputError(f"iterate has shape {v.shape}, expected {shape}")
    bad = ~np.isfinite(v).all(axis=-1) | (np.abs(v).max(axis=-1) > DIVERGENCE_LIMIT)
    if bad.any():
        rows = np.flatnonzero(bad).tolist() if v.ndim == 2 else None
        raise DivergenceError(f"orbit diverged at iteration {k}" + (f" in rows {rows}" if rows else ""), k, rows)
    return v


def _start(v0, n):
    """The checked copy of v0, of shape (n,) or, for a block, (T, n)."""
    v0 = np.asarray(v0, dtype=np.float64)
    return _checked(v0, 0, (*v0.shape[:-1], n) if v0.ndim == 2 else (n,)).copy()


def _apply_step(fk, k, rows):
    if isinstance(fk, Denoiser):
        return denoiser_eval(fk, k, rows)
    return np.asarray(fk(rows), dtype=np.float64)


def run_generalized(op, step_functions, u0, K):
    """Generalized orbit u^[k+1] = F_k(op(u^[k]), u^[k-1], ..., u^[0]).

    Each F_k may be a Denoiser or any callable taking the (k+1, n) rows array
    ((k+1, T, n) for a block) whose first row is the operator output. Note the
    signature skips u^[k] itself, exactly as the recursion is written.
    """
    if K < 0:
        raise RejectedInputError(f"iteration count must be >= 0, got {K}")
    if len(step_functions) < K:
        raise RejectedInputError(f"need {K} step functions, got {len(step_functions)}")
    iterates = [_start(u0, op.n)]
    for k in range(K):
        rows = np.stack([op.apply(iterates[k]), *reversed(iterates[:k])])
        nxt = _apply_step(step_functions[k], k, rows)
        iterates.append(_checked(nxt, k + 1, iterates[0].shape))
    return AmpOrbit(K=K, iterates=iterates, onsager_log=[])


def onsager_coeffs(fk, rows):
    """(b_{k,1}, ..., b_{k,k}): coordinate averages of the partials of f_k.

    Empty for k = 0, matching the empty correction sum of the first step. For
    a block's (k+1, T, n) rows, row r of the (T, k) result is its orbit's.
    """
    rows = np.asarray(rows, dtype=np.float64)
    k = rows.shape[0] - 1
    b = np.empty((*rows.shape[1:-1], k))
    for j in range(1, k + 1):
        b[..., j - 1] = np.mean(denoiser_partial(fk, k, j, rows), axis=-1)
    return b


def run_onsager(op, denoisers, v0, K):
    """Memory-corrected orbit:

    v^[k+1] = op(f_k(v^[k], ..., v^[0])) - sum_{j=1..k} b_{k,j} f_{j-1}(v^[j-1], ..., v^[0])

    with f_{-1} = 0, so the first step carries no correction.
    """
    if K < 0:
        raise RejectedInputError(f"iteration count must be >= 0, got {K}")
    if len(denoisers) < K:
        raise RejectedInputError(f"need {K} denoisers, got {len(denoisers)}")
    if not all(isinstance(f, Denoiser) for f in denoisers[:K]):
        raise RejectedInputError(
            "the corrected recursion needs Denoiser instances (analytic partials)"
        )
    orbit = AmpOrbit(K=K, iterates=[_start(v0, op.n)])
    denoised = []  # denoised[j] = f_j(v^[j], ..., v^[0]), reused by later corrections
    for k in range(K):
        rows = orbit.rows(k)
        fk = denoisers[k]
        mk = denoiser_eval(fk, k, rows)
        denoised.append(mk)
        b = onsager_coeffs(fk, rows)
        orbit.onsager_log.append(b)
        nxt = op.apply(mk)
        for j in range(1, k + 1):
            nxt -= b[..., j - 1, None] * denoised[j - 1]
        orbit.iterates.append(_checked(nxt, k + 1, orbit.iterates[0].shape))
    return orbit


def phi_average(orbit, tf, k):
    """Phi_{k,n} = (1/n) sum_i phi(v_i^[0], v_i^[k]); every test function reads only that pair.

    A block's orbit gives the array of its rows' values.
    """
    if not (0 <= k <= orbit.K):
        raise RejectedInputError(f"iteration {k} outside 0..{orbit.K}")
    return phi_pair_average(tf, orbit.iterates[0], orbit.iterates[k])


def phi_pair_average(tf, w, y):
    """(1/n) sum_i phi(w_i, y_i) for two-argument observables paired with a
    reference vector (e.g. the signal u0 against an iterate); row by row, as
    an array, for (T, n) blocks."""
    w = np.asarray(w, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if w.shape != y.shape or w.ndim not in (1, 2):
        raise RejectedInputError(f"length mismatch: {w.shape} vs {y.shape}")
    mean = np.mean(tf.pair_eval(w, y), axis=-1)
    return float(mean) if w.ndim == 1 else mean
