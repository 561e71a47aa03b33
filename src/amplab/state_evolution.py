"""Deterministic state-evolution predictions.

Two routes are provided. The spiked scalar recursion tracks (mu_k, sigma_k)
for the rank-one model above its transition, starting from
mu_0 = sqrt(1 - gamma^-2), sigma_0 = 1/gamma, via

    mu_{k+1}      = gamma * E[w f_k(mu_k w + sigma_k g)]
    sigma_{k+1}^2 =         E[f_k(mu_k w + sigma_k g)^2]

with g standard normal independent of w. The general covariance recursion
builds the Gaussian covariance E V_{a+1} V_{b+1} = E f_a(...) f_b(...) level by
level. One-dimensional expectations use Gauss-Hermite / Gauss-Legendre
quadrature; the joint covariance recursion uses seeded Monte Carlo, since
quadrature cost is exponential in the recursion depth.

Sharply scaled tanh denoisers put poles close to the real axis, where a fixed
Gauss rule converges slowly; the quadrature therefore starts at the configured
node counts and doubles both families until two successive levels agree within
1e-8, raising AccuracyError only if the cap still disagrees.

The (V_1, ..., V_K) block is jointly Gaussian and independent of U0, and f_a is
evaluated at (V_a, ..., V_1, U0); with a Gaussian prior this coincides with the
all-Gaussian reading of the recursion.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import roots_hermite, roots_legendre

from .ensembles import sample_prior
from .errors import AccuracyError, DegenerateInputError, RejectedInputError
from .linalg import cholesky
from .nonlinear import Denoiser, denoiser_eval, scalar_eval

_SQRT3 = math.sqrt(3.0)
_QUAD_TOL = 1e-8
_MAX_DOUBLINGS = 6


@dataclass(frozen=True)
class QuadratureSpec:
    gauss_hermite_nodes: int = 61
    gauss_legendre_nodes: int = 64
    mc_samples: int = 100_000
    seed: int = 0

    def __post_init__(self):
        if self.gauss_hermite_nodes < 2 or self.gauss_legendre_nodes < 2:
            raise RejectedInputError("quadrature node counts must be >= 2")
        if self.mc_samples < 10_000:
            raise RejectedInputError(
                f"mc_samples must be >= 10000, got {self.mc_samples}"
            )


@dataclass
class SEParams:
    """Scalar state-evolution track (mu_0..mu_K, sigma_0..sigma_K) at SNR gamma."""

    mu: np.ndarray
    sigma: np.ndarray
    gamma: float

    @property
    def K(self):
        return len(self.mu) - 1


@dataclass
class SECovariance:
    """Covariance of (V_1, ..., V_K) from the general recursion."""

    sigma_matrix: np.ndarray

    @property
    def K(self):
        return self.sigma_matrix.shape[0]


def _gauss_hermite(nodes):
    x, w = roots_hermite(nodes)
    return x * math.sqrt(2.0), w / math.sqrt(math.pi)


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
        t, w = roots_legendre(factor * quad.gauss_legendre_nodes)
        return _SQRT3 * t, w / 2.0
    if prior.kind == "gaussian":
        return _gauss_hermite(factor * quad.gauss_hermite_nodes)
    raise RejectedInputError(f"unknown prior kind {prior.kind!r}")


def initial_se_params(gamma):
    """(mu_0, sigma_0) of the spectral initialization; defined for gamma > 1."""
    if gamma <= 1.0:
        raise RejectedInputError(
            f"spiked state evolution requires gamma > 1, got {gamma}"
        )
    return math.sqrt(1.0 - gamma**-2), 1.0 / gamma


def _converged(run, what):
    """run(factor) at doubling factors until two levels agree within 1e-8."""
    prev = run(1)
    for level in range(1, _MAX_DOUBLINGS + 1):
        cur = run(2**level)
        diff = max(float(np.max(np.abs(a - b))) for a, b in zip(prev, cur))
        if diff <= _QUAD_TOL:
            return cur
        prev = cur
    raise AccuracyError(
        f"{what}: node doubling still moves the result by {diff:.3e} "
        f"after {_MAX_DOUBLINGS} escalations",
        residual=diff,
    )


def _spiked_pass(gamma, make_scalar, K, w_vals, w_probs, g_vals, g_probs):
    mu0, sig0 = initial_se_params(gamma)
    mu = [mu0]
    sig = [sig0]
    params = []
    pw = w_probs * w_vals  # weights for E[w . ]
    for k in range(K):
        fk, record = make_scalar(k, mu[k], sig[k])
        grid = mu[k] * w_vals[:, None] + sig[k] * g_vals[None, :]
        f_grid = fk(grid)
        over_g = f_grid @ g_probs
        mu_next = gamma * float(pw @ over_g)
        sig2_next = float(w_probs @ ((f_grid * f_grid) @ g_probs))
        if sig2_next <= 0.0:
            raise DegenerateInputError(
                f"denoiser output has zero variance at iteration {k}; "
                "the recursion is degenerate"
            )
        mu.append(mu_next)
        sig.append(math.sqrt(sig2_next))
        params.append(record)
    return np.array(mu), np.array(sig), params


def _run_spiked(gamma, prior, make_scalar, K, quad, what):
    def run(factor):
        w_vals, w_probs = _prior_nodes(prior, quad, factor)
        g_vals, g_probs = _gauss_hermite(factor * quad.gauss_hermite_nodes)
        mu, sig, params = _spiked_pass(gamma, make_scalar, K, w_vals, w_probs, g_vals, g_probs)
        return mu, sig, np.array([0.0 if p is None else p for p in params])

    return _converged(run, what)


def se_spiked(gamma, prior, f, K, quad=QuadratureSpec()):
    """Scalar recursion driven by a newest-only denoiser family."""
    if not isinstance(f, Denoiser) or not f.newest_only():
        raise RejectedInputError(
            "the scalar recursion needs a denoiser acting on the newest coordinate only"
        )

    def make_scalar(k, _mu, _sig):
        return (lambda y: scalar_eval(f, k, y)), None

    mu, sigma, _ = _run_spiked(gamma, prior, make_scalar, K, quad, "se_spiked")
    return SEParams(mu=mu, sigma=sigma, gamma=float(gamma))


def bayes_tanh_schedule(gamma, prior, K, quad=QuadratureSpec()):
    """Scaled-tanh schedule a_k = gamma * mu_k / sigma_k^2 with its own track.

    Returns (denoiser, SEParams); the schedule carries a_0..a_K so that the
    last orbit step and any diagnostics at iteration K are covered.
    """

    def make_scalar(_k, mu_k, sig_k):
        a = gamma * mu_k / (sig_k * sig_k)
        return (lambda y, a=a: np.tanh(a * y)), a

    mu, sigma, params = _run_spiked(gamma, prior, make_scalar, K, quad, "bayes_tanh_schedule")
    schedule = tuple(params) + (gamma * mu[K] / (sigma[K] * sigma[K]),)
    denoiser = Denoiser(kind="scaled_tanh", schedule=schedule)
    return denoiser, SEParams(mu=mu, sigma=sigma, gamma=float(gamma))


def se_predict_phi(phi, k, se, prior, quad=QuadratureSpec()):
    """E phi(w, mu_k w + sigma_k g) by quadrature, for a TestFunction phi."""
    if not (0 <= k <= se.K):
        raise RejectedInputError(f"iteration {k} outside 0..{se.K}")
    mu_k = float(se.mu[k])
    sig_k = float(se.sigma[k])

    def run(factor):
        w_vals, w_probs = _prior_nodes(prior, quad, factor)
        g_vals, g_probs = _gauss_hermite(factor * quad.gauss_hermite_nodes)
        grid = mu_k * w_vals[:, None] + sig_k * g_vals[None, :]
        vals = phi.pair_eval(np.broadcast_to(w_vals[:, None], grid.shape), grid)
        return (np.array([float(w_probs @ (vals @ g_probs))]),)

    return float(_converged(run, "se_predict_phi")[0][0])


def _stack_rows(v, u0, a):
    """(V_a, ..., V_1, U0) as an (a+1, m) array; column j-1 of v holds V_j."""
    rows = np.empty((a + 1, u0.shape[0]))
    for d in range(a):
        rows[d] = v[:, a - 1 - d]
    rows[a] = u0
    return rows


def se_covariance(denoisers, prior, K, quad=QuadratureSpec()):
    """Covariance of (V_1, ..., V_K), built level by level with seeded Monte Carlo.

    Each level redraws (U0, V_1, ..., V_{k-1}) from the current covariance and
    forms the full Gram matrix of the denoised values, so the output is exactly
    symmetric positive semidefinite.
    """
    if K < 1:
        raise RejectedInputError(f"depth must be >= 1, got {K}")
    if len(denoisers) < K:
        raise RejectedInputError(f"need {K} denoisers, got {len(denoisers)}")
    rng = np.random.default_rng(np.random.SeedSequence([int(quad.seed) & ((1 << 64) - 1), 0xC0]))
    m = quad.mc_samples
    u0 = sample_prior(m, prior, rng)
    f_rows = denoiser_eval(denoisers[0], 0, u0[None, :])[None, :]
    sigma = f_rows @ f_rows.T / m
    for level in range(2, K + 1):
        factor = cholesky(sigma, jitter=1e-12)
        u0 = sample_prior(m, prior, rng)
        xi = rng.standard_normal((m, level - 1))
        v = xi @ factor.T
        f_rows = np.empty((level, m))
        for a in range(level):
            f_rows[a] = denoiser_eval(denoisers[a], a, _stack_rows(v, u0, a))
        sigma = f_rows @ f_rows.T / m
    return SECovariance(sigma_matrix=sigma)


def covariance_phi_prediction(secov, prior, phi, k, quad=QuadratureSpec()):
    """Monte Carlo estimate of E phi(U0, V_k) under the recursion's law (V_0 = U0)."""
    if not (0 <= k <= secov.K):
        raise RejectedInputError(f"iteration {k} outside 0..{secov.K}")
    rng = np.random.default_rng(np.random.SeedSequence([int(quad.seed) & ((1 << 64) - 1), 0xC1]))
    m = quad.mc_samples
    u0 = sample_prior(m, prior, rng)
    vk = u0
    if k:
        factor = cholesky(secov.sigma_matrix[:k, :k], jitter=1e-12)
        vk = (rng.standard_normal((m, k)) @ factor.T)[:, k - 1]
    return float(np.mean(phi.pair_eval(u0, vk)))
