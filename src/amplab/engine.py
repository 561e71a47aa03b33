"""AMP orbits: the generalized recursion, the memory-corrected recursion, and
the spectrally initialized variant, plus orbit observables.

Conventions match :mod:`amplab.nonlinear`: history rows are newest first, and
the correction coefficient b_{k,j} averages the analytic partial of f_k with
respect to iterate j over all coordinates. The correction sum runs over
j = 1..k only; no derivative with respect to the initialization is ever taken.
"""

from dataclasses import dataclass, field

import numpy as np

from . import spectral
from .errors import DegenerateInputError, DivergenceError, PreconditionError, RejectedInputError
from .nonlinear import Denoiser, denoiser_eval, denoiser_partial

DIVERGENCE_LIMIT = 1e12


@dataclass
class AmpOrbit:
    """One run's iterate history v^[0..K] plus the logged correction coefficients."""

    K: int
    iterates: list  # K+1 vectors of length n
    onsager_log: list = field(default_factory=list)  # entry k holds (b_{k,1}..b_{k,k}); entry 0 is empty

    def rows(self, k):
        """History (v^[k], ..., v^[0]) as a (k+1, n) array, newest first."""
        if not (0 <= k <= self.K):
            raise RejectedInputError(f"iteration {k} outside 0..{self.K}")
        return np.stack([self.iterates[k - d] for d in range(k + 1)])


def _checked(v, k, n):
    v = np.asarray(v, dtype=np.float64)
    if v.shape != (n,):
        raise RejectedInputError(f"iterate has shape {v.shape}, expected ({n},)")
    if not np.all(np.isfinite(v)) or np.max(np.abs(v)) > DIVERGENCE_LIMIT:
        raise DivergenceError(f"orbit diverged at iteration {k}", iteration=k)
    return v


def _apply_step(fk, k, rows):
    if isinstance(fk, Denoiser):
        return denoiser_eval(fk, k, rows)
    return np.asarray(fk(rows), dtype=np.float64)


def run_generalized(op, step_functions, u0, K):
    """Generalized orbit u^[k+1] = F_k(op(u^[k]), u^[k-1], ..., u^[0]).

    Each F_k may be a Denoiser or any callable taking the (k+1, n) rows array
    whose first row is the operator output. Note the signature skips u^[k]
    itself, exactly as the recursion is written.
    """
    if K < 0:
        raise RejectedInputError(f"iteration count must be >= 0, got {K}")
    if len(step_functions) < K:
        raise RejectedInputError(f"need {K} step functions, got {len(step_functions)}")
    n = op.n
    iterates = [_checked(u0, 0, n).copy()]
    for k in range(K):
        rows = np.stack([op.apply(iterates[k]), *reversed(iterates[:k])])
        nxt = _apply_step(step_functions[k], k, rows)
        iterates.append(_checked(nxt, k + 1, n))
    return AmpOrbit(K=K, iterates=iterates, onsager_log=[])


def onsager_coeffs(fk, rows):
    """(b_{k,1}, ..., b_{k,k}): coordinate averages of the partials of f_k.

    Empty for k = 0, matching the empty correction sum of the first step.
    """
    rows = np.asarray(rows, dtype=np.float64)
    k = rows.shape[0] - 1
    return np.array([float(np.mean(denoiser_partial(fk, k, j, rows))) for j in range(1, k + 1)])


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
    n = op.n
    orbit = AmpOrbit(K=K, iterates=[_checked(v0, 0, n).copy()])
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
            nxt -= b[j - 1] * denoised[j - 1]
        orbit.iterates.append(_checked(nxt, k + 1, n))
    return orbit


def run_spectral_amp(op, denoisers, u0, power_depth, K):
    """Memory-corrected orbit started from the sign-corrected top eigenvector.

    Refuses to run (PreconditionError) when u0 is zero, the eigenvalue gap
    check fails or the eigenvector has zero overlap with u0, mirroring the
    hypotheses under which the initialization is defined.
    """
    try:
        gap = spectral.gap_check(op, y0=u0)
        d = spectral.resolve_power_depth(op, power_depth, gap)
        if not gap.passed:
            raise PreconditionError(
                f"eigenvalue gap check failed: lambda1={gap.lambda1:.6g}, "
                f"lambda2_abs={gap.lambda2_abs:.6g}, margin={spectral.GAP_MARGIN}"
            )
        psi = spectral.spectral_init(op, gap, d)
    except DegenerateInputError as exc:
        raise PreconditionError(f"spectral initialization refused: {exc}") from exc
    del gap  # frees the Lanczos basis before the orbit allocates
    return run_onsager(op, denoisers, psi, K)


def phi_average(orbit, tf, k):
    """Phi_{k,n} = (1/n) sum_i phi(v_i^[0], v_i^[k]); every test function reads only that pair."""
    if not (0 <= k <= orbit.K):
        raise RejectedInputError(f"iteration {k} outside 0..{orbit.K}")
    return phi_pair_average(tf, orbit.iterates[0], orbit.iterates[k])


def phi_pair_average(tf, w, y):
    """(1/n) sum_i phi(w_i, y_i) for two-argument observables paired with a
    reference vector (e.g. the signal u0 against an iterate)."""
    w = np.asarray(w, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if w.shape != y.shape or w.ndim != 1:
        raise RejectedInputError(f"length mismatch: {w.shape} vs {y.shape}")
    return float(np.mean(tf.pair_eval(w, y)))
