"""Deterministic state-evolution predictions, all by quadrature.

The spiked scalar recursion tracks (mu_k, sigma_k) for the rank-one model
above its transition, starting from mu_0 = sqrt(1 - gamma^-2),
sigma_0 = 1/gamma, via

    mu_{k+1}      = gamma * E[w f_k(mu_k w + sigma_k g)]
    sigma_{k+1}^2 =         E[f_k(mu_k w + sigma_k g)^2]

with g standard normal independent of w. The covariance recursion builds the
covariance of (V_0 = U0, V_1, ..., V_K) level by level, with U0 standard
normal and independent of the Gaussian block. Every denoiser family reads the
newest iterate alone or is linear, so no entry is more than a 2-D expectation
(the covariance form of Javanmard and Montanari, Information and Inference
2013).

Every expectation starts at the configured node counts and doubles them until
two levels agree within 1e-8, raising AccuracyError if the cap still
disagrees. Normal expectations are split (see _normal_rule) at the denoiser's
split points, Denoiser.kinks: the C^1 soft threshold's kinks and the centre of
every tanh(a y), fixed or Bayes, whose poles at +-i pi / (2 a) keep Gauss-Hermite
doubling moving (no convergence at a fixed a >= 8, nor at gamma = 3 for Bayes).
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import AccuracyError, DegenerateInputError, RejectedInputError
from .nonlinear import Denoiser, scalar_eval
from .openblas import tridiagonal_eigen

_SQRT3 = math.sqrt(3.0)
_QUAD_TOL = 1e-8
_MAX_DOUBLINGS = 6
# split rules truncate the standard normal here; the tails hold < 2e-23 of its mass
_Z_MAX = 10.0


@dataclass(frozen=True)
class QuadratureSpec:
    gauss_hermite_nodes: int = 61
    gauss_legendre_nodes: int = 64

    def __post_init__(self):
        if self.gauss_hermite_nodes < 2 or self.gauss_legendre_nodes < 2:
            raise RejectedInputError("quadrature node counts must be >= 2")


@dataclass
class SEParams:
    """Scalar state-evolution track (mu_0..mu_K, sigma_0..sigma_K)."""

    mu: np.ndarray
    sigma: np.ndarray

    @property
    def K(self):
        return len(self.mu) - 1


@functools.lru_cache(maxsize=None)
def _gauss_hermite(nodes):
    """Nodes and probabilities of the standard normal's Gauss-Hermite rule, read-only.

    Both Gauss rules are built once per node count: the doubling revisits the
    same counts at every level of every recursion.
    """
    return _symmetric_gauss_rule(np.sqrt(np.arange(1.0, nodes + 1)), lambda k, x, p, q: math.sqrt(k) * q)


@functools.lru_cache(maxsize=None)
def _gauss_legendre(nodes):
    """Nodes and weights of the Gauss-Legendre rule on [-1, 1], read-only."""
    j = np.arange(1.0, nodes + 1)
    b = j / np.sqrt(4.0 * j * j - 1.0)
    t, p = _symmetric_gauss_rule(b, lambda k, x, p, q: ((2 * k + 1) * b[k - 1] * q - k * x * p) / ((1 - x) * (1 + x)))
    return t, _read_only(2.0 * p)


def _symmetric_gauss_rule(b, derivative):
    """Nodes and probabilities of the n-node Gauss rule of a symmetric law, n = len(b), read-only.

    Golub and Welsch (Math. Comp. 23, 1969): the law's orthonormal polynomials
    satisfy x p_k = b[k] p_{k+1} + b[k-1] p_{k-1}, and the nodes are the
    eigenvalues of the Jacobi matrix J with off-diagonal b[:-1]. They come in
    pairs +-x, and the x^2 are the eigenvalues of J^2 on J's odd coordinates, a
    tridiagonal of half the size (LAPACK dstevx's all-eigenvalue path, dsterf).
    One Newton step on p_n polishes them. The probability of x is
    1 / sum_{k<n} p_k(x)^2, that is 1 / (b[n-1] (p_n' p_{n-1} - p_{n-1}' p_n))
    by Christoffel-Darboux, with derivative(k, x, p_k, p_{k-1}) = p_k'.
    Every 32 steps the recurrence is divided by |p_k| + |p_{k-1}|, whose log s
    it keeps, so that no Hermite value at a far node overflows.
    """
    n = len(b)
    c = np.concatenate(([0.0], b[:-1], [0.0, 0.0]))  # c[j] couples coordinates j - 1 and j of J
    odd = np.arange(1, n, 2)
    x = np.sqrt(tridiagonal_eigen(c[odd] ** 2 + c[odd + 1] ** 2, (c[odd + 1] * c[odd + 2])[:-1]))
    x = np.concatenate((np.zeros(n % 2), x))  # an odd rule's middle node is 0
    for newton in (True, False):
        p2 = p1 = s = np.zeros_like(x)
        p, back = np.ones_like(x), 0.0
        for k, bk in enumerate(b.tolist()):
            p2, p1, p, back = p1, p, (x * p - back * p1) / bk, bk
            if k % 32 == 31:
                size = np.abs(p) + np.abs(p1)
                p2, p1, p, s = p2 / size, p1 / size, p / size, s + np.log(size)
        dp = derivative(n, x, p, p1)
        if newton:
            x = x - p / dp
    w = np.exp(-np.log(b[-1] * (dp * p1 - derivative(n - 1, x, p1, p2) * p)) - 2.0 * s)
    half = n // 2
    return _read_only(np.concatenate((-x[::-1][:half], x))), _read_only(np.concatenate((w[::-1][:half], w)))


def _read_only(x):
    x.flags.writeable = False
    return x


def _prior_nodes(prior, quad, factor=1):
    """(values, probabilities) whose weighted sums realize E over the prior.

    Finite-support priors are enumerated exactly; the node factor only affects
    the continuous kinds.
    """
    if prior.kind == "rademacher":
        return np.array([-1.0, 1.0]), np.array([0.5, 0.5])
    if prior.kind == "three_point":
        return np.asarray(prior.values), np.asarray(prior.probs)
    if prior.kind == "uniform_sqrt3":
        t, w = _gauss_legendre(factor * quad.gauss_legendre_nodes)
        return _SQRT3 * t, w / 2.0
    if prior.kind == "gaussian":
        return _gauss_hermite(factor * quad.gauss_hermite_nodes)
    raise RejectedInputError(f"unknown prior kind {prior.kind!r}")


def _normal_rule(quad, factor, kinks=(), center=0.0, scale=1.0):
    """Nodes z and probabilities p with sum p h(center + scale z) = E h(center + scale Z).

    Z is standard normal and kinks are h's ascending split points (see
    Denoiser.kinks), where it is not smooth or turns steeply next to complex
    poles. Without kinks (or at scale 0) this is the Gauss-Hermite rule, the
    same for every center. Otherwise each center gets its own row: the normal
    is truncated at +-_Z_MAX and split at (kink - center) / scale, and every
    piece takes a Gauss-Legendre rule weighted by the density, whose nodes
    cluster at the piece's ends.
    """
    if not kinks or scale == 0.0:
        return _gauss_hermite(factor * quad.gauss_hermite_nodes)
    t, w = _gauss_legendre(factor * quad.gauss_legendre_nodes)
    cuts = np.clip((np.asarray(kinks) - np.expand_dims(center, -1)) / scale, -_Z_MAX, _Z_MAX)
    ends = np.full(cuts.shape[:-1] + (1,), _Z_MAX)
    edges = np.concatenate([-ends, cuts, ends], axis=-1)[..., None]
    half = np.diff(edges, axis=-2) / 2.0
    z = edges[..., :-1, :] + half * (t + 1.0)
    p = half * w * np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
    return z.reshape(np.shape(center) + (-1,)), p.reshape(np.shape(center) + (-1,))


def _row_means(values, probs):
    """Weighted sums over the last axis: a rule shared by all rows, or one per row."""
    return values @ probs if probs.ndim == 1 else np.einsum("...j,...j->...", values, probs)


def initial_se_params(gamma):
    """(mu_0, sigma_0) of the spectral initialization; defined for gamma > 1."""
    if gamma <= 1.0:
        raise RejectedInputError(
            f"spiked state evolution requires gamma > 1, got {gamma}"
        )
    return math.sqrt(1.0 - gamma**-2), 1.0 / gamma


def _converged(run, what):
    """run(factor), a tuple of arrays, at doubling factors until two levels agree within 1e-8."""
    prev = run(1)
    for level in range(1, _MAX_DOUBLINGS + 1):
        cur = run(2**level)
        diff = max(float(np.max(np.abs(a - b), initial=0.0)) for a, b in zip(prev, cur))
        if diff <= _QUAD_TOL:
            return cur
        prev = cur
    raise AccuracyError(
        f"{what}: node doubling still moves the result by {diff:.3e} "
        f"after {_MAX_DOUBLINGS} escalations",
        residual=diff,
    )


def _run_spiked(gamma, prior, denoiser_at, K, quad, what):
    """(mu, sigma) of the scalar recursion, converged under node doubling.

    denoiser_at(k, mu_k, sigma_k) is the newest-only Denoiser whose f_k drives step k.
    """
    mu0, sig0 = initial_se_params(gamma)

    def run(factor):
        w_vals, w_probs = _prior_nodes(prior, quad, factor)
        pw = w_probs * w_vals  # weights for E[w . ]
        mu, sig = [mu0], [sig0]
        for k in range(K):
            f = denoiser_at(k, mu[k], sig[k])
            g_vals, g_probs = _normal_rule(quad, factor, f.kinks(k), mu[k] * w_vals, sig[k])
            f_grid = scalar_eval(f, k, mu[k] * w_vals[:, None] + sig[k] * g_vals)
            sig2_next = float(w_probs @ _row_means(f_grid * f_grid, g_probs))
            if sig2_next <= 0.0:
                raise DegenerateInputError(
                    f"denoiser output has zero variance at iteration {k}; "
                    "the recursion is degenerate"
                )
            mu.append(gamma * float(pw @ _row_means(f_grid, g_probs)))
            sig.append(math.sqrt(sig2_next))
        return np.array(mu), np.array(sig)

    return _converged(run, what)


def se_spiked(gamma, prior, f, K, quad=QuadratureSpec()):
    """Scalar recursion driven by a newest-only denoiser family."""
    if not isinstance(f, Denoiser) or not f.newest_only():
        raise RejectedInputError(
            "the scalar recursion needs a denoiser acting on the newest coordinate only"
        )
    mu, sigma = _run_spiked(gamma, prior, lambda k, mu_k, sig_k: f, K, quad, "se_spiked")
    return SEParams(mu=mu, sigma=sigma)


def bayes_tanh_schedule(gamma, prior, K, quad=QuadratureSpec()):
    """Scaled-tanh schedule a_k = gamma * mu_k / sigma_k^2 with its own track.

    Returns (denoiser, SEParams); the schedule carries a_0..a_K so that the
    last orbit step and any diagnostics at iteration K are covered.
    """

    def tanh_at(k, mu_k, sig_k):
        return Denoiser(kind="scaled_tanh", schedule=(gamma * mu_k / (sig_k * sig_k),) * (k + 1))

    mu, sigma = _run_spiked(gamma, prior, tanh_at, K, quad, "bayes_tanh_schedule")
    denoiser = Denoiser(kind="scaled_tanh", schedule=tuple(gamma * mu / (sigma * sigma)))
    return denoiser, SEParams(mu=mu, sigma=sigma)


def se_predict_phi(phi, k, se, prior, quad=QuadratureSpec()):
    """E phi(w, mu_k w + sigma_k g) by quadrature, for a TestFunction phi."""
    if not (0 <= k <= se.K):
        raise RejectedInputError(f"iteration {k} outside 0..{se.K}")
    mu_k = float(se.mu[k])
    sig_k = float(se.sigma[k])

    def run(factor):
        w_vals, w_probs = _prior_nodes(prior, quad, factor)
        g_vals, g_probs = _normal_rule(quad, factor)
        grid = mu_k * w_vals[:, None] + sig_k * g_vals[None, :]
        vals = phi.pair_eval(np.broadcast_to(w_vals[:, None], grid.shape), grid)
        return (np.array([float(w_probs @ (vals @ g_probs))]),)

    return float(_converged(run, "se_predict_phi")[0][0])


def se_covariance(denoisers, K, quad=QuadratureSpec()):
    """(K+1, K+1) covariance of (V_0 = U0, V_1, ..., V_K), U0 standard normal and independent.

    E V_{a+1} V_{b+1} = E f_a(V_a, ..., V_0) f_b(V_b, ..., V_0): exact linear
    algebra when every f_a is linear (identity or linear_combo). Otherwise each
    f_a must read V_a alone (scalar_eval refuses it if not), and an entry is a
    1-D normal expectation on the diagonal, a product of 1-D means where V_a and
    V_b are uncorrelated to rounding (always so against U0), else a tensor 2-D
    one, each doubled until it settles.
    """
    if K < 0:
        raise RejectedInputError(f"depth must be >= 0, got {K}")
    if len(denoisers) < K:
        raise RejectedInputError(f"need {K} denoisers, got {len(denoisers)}")
    fs = denoisers[:K]
    linear = all(f.kind in ("identity", "linear_combo") for f in fs)
    coef = np.zeros((K, K + 1))  # a linear f_a is offset + coef[a] @ (V_0, ..., V_K)
    for a, f in enumerate(fs):
        w = ((1.0,) if f.kind == "identity" else f.weights)[: a + 1]
        coef[a, a - np.arange(len(w))] = w
    sigma = np.zeros((K + 1, K + 1))
    sigma[0, 0] = 1.0  # E U0^2
    for a in range(K):  # row a+1 reads only the levels 0..a filled so far
        for b in range(a + 1):
            if linear:  # E V = 0
                entry = fs[a].offset * fs[b].offset + coef[a] @ sigma @ coef[b]
            else:
                run = functools.partial(_newest_entry, fs, a, b, sigma, quad)
                (entry,) = _converged(lambda factor: (run(factor),), "se_covariance")
            sigma[a + 1, b + 1] = sigma[b + 1, a + 1] = entry
    return sigma


def _newest_entry(fs, a, b, sigma, quad, factor):
    """E f_a(V_a) f_b(V_b) for b <= a on rules of the given doubling factor."""

    def mean(k, power=1):
        s = math.sqrt(sigma[k, k])
        z, p = _normal_rule(quad, factor, fs[k].kinks(k), scale=s)
        return float(p @ scalar_eval(fs[k], k, s * z) ** power)

    if a == b:
        return mean(a, 2)
    # the entry moves by at most |Sigma_ab| times the two Lipschitz constants,
    # so levels correlated below rounding count as independent
    if abs(sigma[a, b]) <= 1e-12 * math.sqrt(sigma[a, a] * sigma[b, b]):
        return mean(a) * mean(b)
    # V_a = s z1 and V_b = r z1 + t z2 with z1, z2 independent standard normals
    s = math.sqrt(sigma[a, a])
    r = sigma[a, b] / s
    t = math.sqrt(max(sigma[b, b] - r * r, 0.0))
    z1, p1 = _normal_rule(quad, factor, fs[a].kinks(a), scale=s)
    z2, p2 = _normal_rule(quad, factor, fs[b].kinks(b), center=r * z1, scale=t)
    inner = _row_means(scalar_eval(fs[b], b, r * z1[:, None] + t * z2), p2)
    return float(p1 @ (scalar_eval(fs[a], a, s * z1) * inner))
