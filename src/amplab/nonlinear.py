"""Coordinate-wise denoiser families with analytic partials, plus test functions.

Iterate history is passed as a ``rows`` array of shape (k+1, n), newest first:
``rows[d]`` holds iterate ``v^[k-d]``, so ``rows[0]`` is the current iterate and
``rows[k]`` the initialization. Partial-derivative indices ``j`` refer to the
iterate number (``j = k`` is the newest argument), matching the memory-term
convention of the iteration.
"""

from dataclasses import dataclass

import numpy as np

from .errors import RejectedInputError

DENOISER_KINDS = ("identity", "scaled_tanh", "smooth_soft_threshold", "linear_combo")
TESTFUNCTION_KINDS = ("last_coord_clipped", "tanh_product", "se_pair", "raw_overlap")

_SCHEDULED_KINDS = ("scaled_tanh", "smooth_soft_threshold")


@dataclass(frozen=True)
class Denoiser:
    """A family f_k of coordinate-wise C^1 nonlinearities.

    kind:
      identity              f_k(x_k, ..., x_0) = x_k
      scaled_tanh           f_k = tanh(a_k x_k), a_k from ``schedule``
      smooth_soft_threshold C^1 Huber-smoothed soft threshold at level
                            ``schedule[k]`` with blending width ``delta``
      linear_combo          f_k = offset + sum_d weights[d] * x_{k-d}
                            (weights beyond the available history are ignored)
    """

    kind: str
    schedule: tuple = ()
    weights: tuple = ()
    offset: float = 0.0
    delta: float = 1e-2

    def __post_init__(self):
        if self.kind not in DENOISER_KINDS:
            raise RejectedInputError(f"unknown denoiser kind {self.kind!r}")
        object.__setattr__(self, "schedule", tuple(float(a) for a in self.schedule))
        object.__setattr__(self, "weights", tuple(float(w) for w in self.weights))
        if self.kind in _SCHEDULED_KINDS and not self.schedule:
            raise RejectedInputError(f"{self.kind} requires a per-iteration schedule")
        if self.kind == "smooth_soft_threshold":
            if self.delta <= 0:
                raise RejectedInputError(f"smoothing width must be positive, got {self.delta}")
            if any(lam < self.delta for lam in self.schedule):
                raise RejectedInputError(
                    "smooth_soft_threshold requires threshold >= delta to stay "
                    "continuous at the origin"
                )
        if self.kind == "linear_combo" and not self.weights and self.offset == 0.0:
            raise RejectedInputError("linear_combo requires weights or a nonzero offset")

    def newest_only(self):
        """True when f_k depends on x_k alone (scalar state-evolution compatible)."""
        if self.kind in ("identity", "scaled_tanh", "smooth_soft_threshold"):
            return True
        return len(self.weights) <= 1

    def kinks(self, k):
        """Ascending points where f_k'' jumps: +-(lambda_k -+ delta) for the soft threshold."""
        if self.kind != "smooth_soft_threshold":
            return ()
        lam = self._param(k)
        return (-lam - self.delta, -lam + self.delta, lam - self.delta, lam + self.delta)

    def _param(self, k):
        if len(self.schedule) < k + 1:
            raise RejectedInputError(
                f"schedule of length {len(self.schedule)} does not cover iteration {k}"
            )
        return self.schedule[k]


def _check_rows(k, j, rows):
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim != 2 or rows.shape[0] != k + 1:
        raise RejectedInputError(
            f"rows must have shape (k+1, n) = ({k + 1}, n), got {rows.shape}"
        )
    if j is not None and not (0 <= j <= k):
        raise RejectedInputError(f"argument index j={j} outside 0..{k}")
    return rows


def denoiser_eval(f, k, rows):
    """f_k applied row-wise: output_i = f_k(rows[0,i], ..., rows[k,i])."""
    rows = _check_rows(k, None, rows)
    return scalar_eval(f, k, rows[0]) if f.newest_only() else _combo_eval(f, k, rows)


def scalar_eval(f, k, x):
    """f_k on the newest coordinate only; accepts arrays of any shape.

    Only valid for newest-only families (identity, scaled_tanh,
    smooth_soft_threshold, single-weight linear_combo).
    """
    if not f.newest_only():
        raise RejectedInputError(f"{f.kind} with {len(f.weights)} weights is not scalar")
    x = np.asarray(x, dtype=np.float64)
    if f.kind == "identity":
        return x.copy()
    if f.kind == "scaled_tanh":
        return np.tanh(f._param(k) * x)
    if f.kind == "smooth_soft_threshold":
        return _smooth_soft(x, f._param(k), f.delta)
    w = f.weights[0] if f.weights else 0.0
    return f.offset + w * x


def scalar_derivative(f, k, x):
    """d f_k / d x_k for newest-only families; same shapes as scalar_eval."""
    if not f.newest_only():
        raise RejectedInputError(f"{f.kind} with {len(f.weights)} weights is not scalar")
    x = np.asarray(x, dtype=np.float64)
    if f.kind == "identity":
        return np.ones_like(x)
    if f.kind == "scaled_tanh":
        a = f._param(k)
        t = np.tanh(a * x)
        return a * (1.0 - t * t)
    if f.kind == "smooth_soft_threshold":
        return _smooth_soft_derivative(x, f._param(k), f.delta)
    w = f.weights[0] if f.weights else 0.0
    return np.full_like(x, w)


def _combo_eval(f, k, rows):
    depth = min(len(f.weights), k + 1)
    out = np.full(rows.shape[1], f.offset)
    for d in range(depth):
        out += f.weights[d] * rows[d]
    return out


def _smooth_soft(x, lam, delta):
    u = np.abs(x)
    inner = np.clip(u - (lam - delta), 0.0, 2.0 * delta)
    mag = inner * inner / (4.0 * delta) + np.maximum(u - (lam + delta), 0.0)
    return np.sign(x) * mag


def _smooth_soft_derivative(x, lam, delta):
    u = np.abs(x)
    return np.clip((u - (lam - delta)) / (2.0 * delta), 0.0, 1.0)


def denoiser_partial(f, k, j, rows):
    """Analytic partial of f_k with respect to argument v^[j], evaluated row-wise."""
    rows = _check_rows(k, j, rows)
    n = rows.shape[1]
    d = k - j  # depth of argument j in the newest-first layout
    if f.newest_only():
        if d == 0:
            return scalar_derivative(f, k, rows[0])
        return np.zeros(n)
    w = f.weights[d] if d < len(f.weights) else 0.0
    return np.full(n, w)


def fd_partial(f, k, j, rows, h=1e-5):
    """Central finite difference in argument j; oracle for denoiser_partial."""
    if h <= 0:
        raise RejectedInputError(f"step must be positive, got {h}")
    rows = _check_rows(k, j, rows)
    d = k - j
    plus = rows.copy()
    plus[d] += h
    minus = rows.copy()
    minus[d] -= h
    return (denoiser_eval(f, k, plus) - denoiser_eval(f, k, minus)) / (2.0 * h)


@dataclass(frozen=True)
class TestFunction:
    """Lipschitz pair observables phi(x_0, x_k) of the initialization and iterate k.

    last_coord_clipped  clamp(x_k, -clip, clip)
    tanh_product        tanh(x_k) * tanh(x_0)
    se_pair             clamp(x_0, -clip, clip) * tanh(x_k); as a pair (w, y)
                        this is w * tanh(y)
    raw_overlap         x_k * x_0 -- pseudo-Lipschitz, diagnostic only
    """

    kind: str
    clip: float = 10.0

    def __post_init__(self):
        if self.kind not in TESTFUNCTION_KINDS:
            raise RejectedInputError(f"unknown test function kind {self.kind!r}")
        if self.clip <= 0:
            raise RejectedInputError(f"clip bound must be positive, got {self.clip}")

    def pair_eval(self, w, y):
        """Two-argument form phi(w, y); w plays x_0 and y plays x_k."""
        w = np.asarray(w, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if self.kind == "last_coord_clipped":
            return np.clip(y, -self.clip, self.clip)
        if self.kind == "tanh_product":
            return np.tanh(y) * np.tanh(w)
        if self.kind == "se_pair":
            return np.clip(w, -self.clip, self.clip) * np.tanh(y)
        return w * y
