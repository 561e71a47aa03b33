"""Power-method eigenpair estimation, spectral initialization, and the gap check.

Any object with ``.n`` and ``.apply(x)`` works as an operator (SymmetricMatrix
and SpikedOperator both do). The power iterate is renormalized every step,
which leaves the direction identical to normalizing Y^d y once at the end.
The gap check reads lambda1, lambda2 and lambda_min from one Lanczos solve
with full reorthogonalization; every product goes through ``op.apply``.

The spectral init is the d-step power iterate from the gap check's start
q0. It runs the normalized recurrence c <- T c / |T c| of that Lanczos run's
tridiagonal T for all d steps, the iterate being c @ Q for its basis Q
(k+1 rows). By the Lanczos relation
A Q^T = Q^T T + R, where R holds the couplings T drops (beta to the unbuilt
q_{k+1}, and the residual each breakdown restart dropped), the applied iterate
scaled by the same |T c_i| lies within e_d of it, with e_0 = 0 and
e_{i+1} = (|A| e_i + sum_j |R e_j| |c_i[j]|) / |T c_i|, and |A| the Ritz
estimate max(|lambda1|, lambda2_abs) + residual (Parlett, The Symmetric
Eigenvalue Problem, ch. 13). When e_d <= 1e-12 no operator is applied;
otherwise the first min(d, k) steps come from T and op is applied for the rest.
"""

import math
from typing import NamedTuple

import numpy as np

from .errors import DegenerateInputError, NumericalFailureError, RejectedInputError
from .openblas import tridiagonal_eigen

_UNDERFLOW = 1e-290

# fixed seed of the vectors Lanczos restarts from after a breakdown
_RESTART_SEED = 0x9E3779B97F4A7C15

POWER_DEPTH_MAX = 300
POWER_DEPTH_MIN = 30
_DEPTH_EPS = 1e-6
GAP_MARGIN = 0.05  # lambda1 must exceed max(lambda2_abs, 1) by this much

LANCZOS_MAX_DIM = 1000  # Krylov dimension cap; larger n than this must converge before it
_LANCZOS_TOL = 1e-10
_LANCZOS_CHECK_EVERY = 8  # steps between residual tests
_BREAKDOWN = 1e-12  # relative size of a new Lanczos vector taken as an invariant subspace
_CERTIFIED = 1e-12  # bound on |T-iterate - applied iterate| under which the init applies nothing


class Krylov(NamedTuple):
    """The Lanczos run of a gap check: A Q^T = Q^T T + R."""

    basis: np.ndarray  # rows q0..qk of Q
    alpha: np.ndarray  # diagonal of T
    beta: np.ndarray  # off-diagonal of T, 0 after a breakdown
    dropped: np.ndarray  # |R e_j|: beta_k to the unbuilt q_{k+1} at j = k, a breakdown's residual at j < k
    residual: float  # largest residual of the top two and bottom Ritz pairs


class GapCheckResult(NamedTuple):
    lambda1: float
    lambda2_abs: float
    passed: bool
    krylov: Krylov


def power_bound_rhs(eigen, y0, d):
    """Right side of the geometric power-method bound with exact eigendata:
    (1 / |<y1, y0>|) * max_{r>=2} |lambda_r / lambda_1|^d."""
    lam = np.asarray(eigen.eigenvalues, dtype=np.float64)
    lam1 = lam[0]
    if lam1 == 0.0:
        raise DegenerateInputError("top eigenvalue is zero; bound undefined")
    overlap = float(np.dot(eigen.eigenvectors[:, 0], y0))
    if overlap == 0.0:
        raise DegenerateInputError("start vector orthogonal to the top eigenvector")
    if lam.shape[0] == 1:
        return 0.0
    ratio = float(np.max(np.abs(lam[1:])) / abs(lam1))
    return (ratio**d) / abs(overlap)


def power_method(op, y0, d):
    """Unit-norm d-step power iterate from a unit start vector.

    ``power_bound_rhs`` bounds its distance to the sign-aligned top
    eigenvector, given the operator's exact eigendata.
    """
    if d < 1:
        raise RejectedInputError(f"iteration count must be >= 1, got {d}")
    y0 = np.ascontiguousarray(y0, dtype=np.float64)
    if y0.shape != (op.n,):
        raise RejectedInputError(f"start vector has shape {y0.shape}, expected ({op.n},)")
    if abs(np.linalg.norm(y0) - 1.0) > 1e-10:
        raise RejectedInputError("start vector must have unit norm")
    y = y0
    for _ in range(d):
        z = op.apply(y)
        y = z / _checked_norm(z)
    return y


def _checked_norm(z):
    nz = np.linalg.norm(z)
    if nz < _UNDERFLOW:
        raise DegenerateInputError(
            "power iterate vanished; start vector has no overlap with the spectrum"
        )
    return nz


def spectral_init(op, gap, d):
    """sqrt(n)-normalized d-step power iterate from the gap check's start, sign-aligned with it.

    ``gap`` (the GapCheckResult of ``gap_check(op, y0=q0)``) supplies q0, T and
    the certificate; op is applied only when the certificate fails.
    """
    if d < 1:
        raise RejectedInputError(f"iteration count must be >= 1, got {d}")
    basis, alpha, beta, dropped, residual = gap.krylov
    norm_a = max(abs(gap.lambda1), gap.lambda2_abs) + residual
    j = min(d, len(basis) - 1)  # steps the fallback reads from T
    c = np.zeros(len(basis))  # coordinates of the iterate in the basis: T^i e1, normalized
    c[0] = 1.0
    head = c  # the iterate after j steps
    err = 0.0  # e_i, the bound on the distance to the applied iterate
    for i in range(d):
        t = alpha * c
        t[1:] += beta * c[:-1]
        t[:-1] += beta * c[1:]
        norm_t = _checked_norm(t)
        err = (norm_a * err + float(np.dot(dropped, np.abs(c)))) / float(norm_t)
        c = t / norm_t
        if i + 1 == j:
            head = c
        if err > _CERTIFIED and i + 1 >= j:
            break  # |T| <= norm_a, so the bound never falls again
    if err <= _CERTIFIED:
        overlap = float(c[0])  # <c @ Q, q0>: the other rows are orthogonal to q0
        y = c @ basis
    else:
        y = power_method(op, head @ basis, d - j) if d > j else head @ basis
        overlap = float(np.dot(y, basis[0]))
    if abs(overlap) <= _CERTIFIED:  # T's rounding alone moves c[0] by ~d * eps
        raise DegenerateInputError(
            "top-eigenvector estimate is orthogonal to the gap check's start; sign undefined"
        )
    return math.copysign(1.0, overlap) * math.sqrt(op.n) * y


def gap_check(op, *, y0):
    """(lambda1, max(|lambda2|, |lambda_min|)) of op and the separation condition.

    Passes when lambda1 > max(lambda2_abs, 1) + GAP_MARGIN. Lanczos from ``y0``
    stops once the top two and bottom Ritz residuals are below _LANCZOS_TOL times
    the largest coefficient seen (Ritz pairs by LAPACK dstevx; the bottom pair
    only once the top two pass, or for the residual a run that does not
    converge reports); on breakdown it goes on from a fresh deterministic vector
    orthogonal to the basis.
    """
    n = op.n
    if n < 2:
        raise RejectedInputError(f"gap check needs n >= 2, got {n}")
    q = np.ascontiguousarray(y0, dtype=np.float64)
    if not np.any(q):
        raise DegenerateInputError("gap check start vector is zero")
    q = q / np.linalg.norm(q)
    dim = min(n, LANCZOS_MAX_DIM)
    basis = np.empty((dim, n))  # rows the solve never reaches are never written, so never committed
    alpha, beta, dropped, scale = [], [], [], 0.0
    tested = None  # (T's diagonal, off-diagonal, b, top) at the last residual test
    for k in range(dim):
        w = op.apply(q)
        basis[k] = q
        done = basis[: k + 1]
        alpha.append(float(np.dot(q, w)))
        w -= alpha[-1] * q
        if k:
            w -= beta[-1] * basis[k - 1]
        w -= done.T @ (done @ w)  # one classical Gram-Schmidt pass against the whole basis
        b = float(np.linalg.norm(w))
        if not (math.isfinite(alpha[-1]) and math.isfinite(b)):
            raise NumericalFailureError(f"Lanczos coefficient not finite at step {k}: alpha {alpha[-1]}, b {b}")
        scale = max(scale, abs(alpha[-1]), b)
        breakdown = b <= _BREAKDOWN * scale
        if k + 1 == n or (not breakdown and ((k + 1) % _LANCZOS_CHECK_EVERY == 0 or k + 1 == dim)):
            a, e = np.array(alpha), np.array(beta)
            theta_top, s_top = tridiagonal_eigen(a, e, (k - 1, k))
            tested = a, e, b, float(np.max(np.abs(s_top[-1])))
            if b * tested[-1] <= _LANCZOS_TOL * scale:  # else the full residual fails too
                lambda_min, residual = _with_bottom_pair(*tested)
                if residual <= _LANCZOS_TOL * scale:
                    lambda1, lambda2 = float(theta_top[-1]), float(theta_top[0])
                    lambda2_abs = max(abs(lambda2), abs(lambda_min))
                    passed = lambda1 > max(lambda2_abs, 1.0) + GAP_MARGIN
                    krylov = Krylov(done, a, e, np.array(dropped + [b]), residual)
                    return GapCheckResult(lambda1, lambda2_abs, bool(passed), krylov)
        if breakdown:
            w = np.random.default_rng([_RESTART_SEED, k]).standard_normal(n)
            for _ in range(2):  # a fresh vector is far from orthogonal: Gram-Schmidt twice
                w -= done.T @ (done @ w)
        beta.append(0.0 if breakdown else b)
        dropped.append(b if breakdown else 0.0)
        q = w / np.linalg.norm(w)
    residual = _with_bottom_pair(*tested)[1] if tested else math.inf
    raise NumericalFailureError(
        f"Lanczos did not converge in {dim} steps (residual {residual:.3g})", residual=residual
    )


def _with_bottom_pair(a, e, b, top):
    """(lambda_min, the largest residual of the top two and bottom Ritz pairs) of the Lanczos T
    (diagonal a, off-diagonal e), given b = |w| and the top two Ritz vectors' largest last entry."""
    theta_min, s_min = tridiagonal_eigen(a, e, (0, 0))
    return float(theta_min[0]), b * max(abs(float(s_min[-1, 0])), top)


def resolve_power_depth(op, power_depth, gap):
    """An explicit depth, or for 'auto' the depth making the geometric factor ~ eps/sqrt(n).

    The auto depth is ceil(log(n/eps^2)/log(lambda1/lambda2_abs)) with the ratio
    read from ``gap``, the operator's gap check, and eps = _DEPTH_EPS, clamped
    to [POWER_DEPTH_MIN, POWER_DEPTH_MAX]. Below the transition the ratio
    degenerates to 1 and the depth is the cap, which keeps refused runs finite.
    """
    if power_depth == "auto":
        lam1, lam2 = gap.lambda1, gap.lambda2_abs
        if lam1 <= 0 or lam2 <= 0 or lam1 <= lam2 * (1.0 + 1e-9):
            return POWER_DEPTH_MAX
        depth = math.ceil(math.log(op.n / (_DEPTH_EPS * _DEPTH_EPS)) / math.log(lam1 / lam2))
        return int(min(max(depth, POWER_DEPTH_MIN), POWER_DEPTH_MAX))
    depth = int(power_depth)
    if depth < 1:
        raise RejectedInputError(f"power depth must be >= 1, got {depth}")
    return depth
