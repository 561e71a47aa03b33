import math

import numpy as np
import pytest
from scipy.special import roots_hermite

from amplab.ensembles import PriorSpec
from amplab.errors import AccuracyError, DegenerateInputError, RejectedInputError
from amplab.linalg import cholesky
from amplab.nonlinear import Denoiser, TestFunction
from amplab.state_evolution import (
    QuadratureSpec,
    SEParams,
    bayes_tanh_schedule,
    covariance_phi_prediction,
    initial_se_params,
    se_covariance,
    se_predict_phi,
    se_spiked,
)

RADEMACHER = PriorSpec("rademacher")
GAUSSIAN = PriorSpec("gaussian")


class TestSeSpiked:
    def test_identity_closed_form(self):
        # E[w(mu w + sigma g)] = mu and E[(mu w + sigma g)^2] = mu^2 + sigma^2
        # for centered unit-variance independent w, g; at gamma = 2 this gives
        # mu_1 = gamma*mu_0 = sqrt(3) and sigma_1 = 1
        se = se_spiked(2.0, RADEMACHER, Denoiser(kind="identity"), K=1)
        assert se.mu[0] == pytest.approx(math.sqrt(0.75), abs=1e-12)
        assert se.sigma[0] == pytest.approx(0.5, abs=1e-12)
        assert se.mu[1] == pytest.approx(math.sqrt(3.0), abs=1e-9)
        assert se.sigma[1] == pytest.approx(1.0, abs=1e-9)

    def test_gamma_at_or_below_one_rejected(self):
        for gamma in (1.0, 0.5, 0.0):
            with pytest.raises(RejectedInputError):
                se_spiked(gamma, RADEMACHER, Denoiser(kind="identity"), K=1)
            with pytest.raises(RejectedInputError):
                initial_se_params(gamma)

    def test_multi_argument_denoiser_rejected(self):
        combo = Denoiser(kind="linear_combo", weights=(0.5, 0.5))
        with pytest.raises(RejectedInputError):
            se_spiked(2.0, RADEMACHER, combo, K=1)

    def test_zero_denoiser_degenerate(self):
        flat = Denoiser(kind="scaled_tanh", schedule=(0.0,))
        with pytest.raises(DegenerateInputError):
            se_spiked(2.0, RADEMACHER, flat, K=1)

    def test_against_plain_monte_carlo_oracle(self):
        # each one-step update checked against a 10^6-sample direct average
        gamma, K = 2.0, 3
        den, se = bayes_tanh_schedule(gamma, RADEMACHER, K)
        rng = np.random.default_rng(12345)
        samples = 1_000_000
        w = rng.choice([-1.0, 1.0], size=samples)
        g = rng.standard_normal(samples)
        for k in range(K):
            a = den.schedule[k]
            f_vals = np.tanh(a * (se.mu[k] * w + se.sigma[k] * g))
            mu_mc = gamma * f_vals * w
            mu_se = float(np.std(mu_mc, ddof=1)) / math.sqrt(samples)
            assert abs(se.mu[k + 1] - float(np.mean(mu_mc))) <= 3.0 * mu_se
            sq = f_vals * f_vals
            sig2_se = float(np.std(sq, ddof=1)) / math.sqrt(samples)
            assert abs(se.sigma[k + 1] ** 2 - float(np.mean(sq))) <= 3.0 * sig2_se

    def test_quadrature_stability_under_node_doubling(self):
        den, _ = bayes_tanh_schedule(2.0, RADEMACHER, 3)
        base = se_spiked(2.0, RADEMACHER, den, K=3, quad=QuadratureSpec(gauss_hermite_nodes=61))
        doubled = se_spiked(2.0, RADEMACHER, den, K=3, quad=QuadratureSpec(gauss_hermite_nodes=122))
        assert float(np.max(np.abs(base.mu - doubled.mu))) <= 1e-8
        assert float(np.max(np.abs(base.sigma - doubled.sigma))) <= 1e-8

    def test_uniform_prior_supported(self):
        den = Denoiser(kind="scaled_tanh", schedule=(1.0, 1.0))
        se = se_spiked(1.5, PriorSpec("uniform_sqrt3"), den, K=2)
        assert np.all(se.sigma > 0)

    def test_unconverged_quadrature_raises(self):
        # a near-step nonlinearity keeps moving under node doubling
        spiky = Denoiser(kind="scaled_tanh", schedule=(1e8,))
        with pytest.raises(AccuracyError):
            se_spiked(2.0, RADEMACHER, spiky, K=1)


class TestBayesSchedule:
    def test_first_coefficient(self):
        den, se = bayes_tanh_schedule(2.0, RADEMACHER, 2)
        mu0, sig0 = initial_se_params(2.0)
        assert den.schedule[0] == pytest.approx(2.0 * mu0 / sig0**2, rel=1e-12)
        assert len(den.schedule) == 3  # a_0..a_K

    def test_mu_monotone_for_bayes_schedule(self):
        _, se = bayes_tanh_schedule(2.0, RADEMACHER, 10)
        assert np.all(np.diff(se.mu) >= -1e-12)


class TestSePredictPhi:
    def setup_method(self):
        self.den, self.se = bayes_tanh_schedule(2.0, RADEMACHER, 3)

    def test_centered_linear_observable_is_zero(self):
        # clipping at +-10 keeps the law of y symmetric
        value = se_predict_phi(TestFunction("last_coord_clipped"), 2, self.se, RADEMACHER)
        assert abs(value) <= 1e-10

    def test_cross_moment_equals_mu(self):
        for k in range(4):
            value = se_predict_phi(TestFunction("raw_overlap"), k, self.se, RADEMACHER)
            assert value == pytest.approx(self.se.mu[k], abs=1e-9)

    def test_second_moment_consistency(self):
        # E y^2 on the Gauss rule se_predict_phi integrates with: Rademacher w
        # and the default 61 Gauss-Hermite nodes for g
        x, wts = roots_hermite(QuadratureSpec().gauss_hermite_nodes)
        g, g_probs = x * math.sqrt(2.0), wts / math.sqrt(math.pi)
        for k in range(4):
            y = self.se.mu[k] * np.array([-1.0, 1.0])[:, None] + self.se.sigma[k] * g[None, :]
            value = float(np.mean((y * y) @ g_probs))
            assert value == pytest.approx(self.se.mu[k] ** 2 + self.se.sigma[k] ** 2, abs=1e-8)

    def test_odd_observable_at_zero_mu(self):
        se = SEParams(mu=np.array([0.0]), sigma=np.array([1.0]), gamma=2.0)
        value = se_predict_phi(TestFunction("se_pair"), 0, se, RADEMACHER)
        assert abs(value) <= 1e-12

    def test_index_out_of_range(self):
        with pytest.raises(RejectedInputError):
            se_predict_phi(TestFunction("se_pair"), 9, self.se, RADEMACHER)


class TestSeCovariance:
    def test_identity_fixed_point(self):
        # unit-variance Gaussian inputs stay at variance 1 under identity
        quad = QuadratureSpec(mc_samples=200_000, seed=3)
        cov = se_covariance([Denoiser(kind="identity")] * 4, GAUSSIAN, 4, quad)
        stderr = math.sqrt(2.0 / quad.mc_samples)  # var-of-variance for Gaussians
        for k in range(4):
            assert abs(cov.sigma_matrix[k, k] - 1.0) <= 3.0 * stderr * (k + 1)

    def test_constant_denoiser_exact(self):
        # every product is exactly c^2; only the mean accumulates rounding
        c = 0.7
        const = Denoiser(kind="linear_combo", weights=(), offset=c)
        cov = se_covariance([const] * 3, GAUSSIAN, 3, QuadratureSpec(seed=1))
        np.testing.assert_allclose(cov.sigma_matrix, c * c * np.ones((3, 3)), rtol=0, atol=1e-13)

    def test_output_is_psd_and_symmetric(self):
        den = Denoiser(kind="scaled_tanh", schedule=(1.5, 1.0, 0.7))
        cov = se_covariance([den] * 3, GAUSSIAN, 3, QuadratureSpec(seed=5))
        np.testing.assert_array_equal(cov.sigma_matrix, cov.sigma_matrix.T)
        cholesky(cov.sigma_matrix, jitter=1e-10)  # must not raise

    def test_against_independent_straight_line_mc(self):
        # oracle: a from-scratch simulation of the recursion with its own
        # samples and no shared code path
        den = Denoiser(kind="scaled_tanh", schedule=(1.2, 0.8))
        quad = QuadratureSpec(mc_samples=400_000, seed=7)
        cov = se_covariance([den] * 2, GAUSSIAN, 2, quad)

        rng = np.random.default_rng(999)
        m = 400_000
        u0 = rng.standard_normal(m)
        f0 = np.tanh(1.2 * u0)
        s11 = float(np.mean(f0 * f0))
        u0b = rng.standard_normal(m)
        v1 = math.sqrt(s11) * rng.standard_normal(m)
        f0b = np.tanh(1.2 * u0b)
        f1b = np.tanh(0.8 * v1)
        ref = np.array(
            [
                [np.mean(f0b * f0b), np.mean(f0b * f1b)],
                [np.mean(f0b * f1b), np.mean(f1b * f1b)],
            ]
        )
        for i in range(2):
            for j in range(2):
                combined_se = 3.0 * (2.0 / math.sqrt(m))
                assert abs(cov.sigma_matrix[i, j] - ref[i, j]) <= combined_se

    def test_depth_zero_rejected(self):
        with pytest.raises(RejectedInputError):
            se_covariance([Denoiser(kind="identity")], GAUSSIAN, 0)

    def test_mc_floor_enforced(self):
        with pytest.raises(RejectedInputError):
            QuadratureSpec(mc_samples=100)


class TestCovariancePhiPrediction:
    def test_k0_centered(self):
        den = Denoiser(kind="identity")
        cov = se_covariance([den], GAUSSIAN, 1, QuadratureSpec(seed=11))
        value = covariance_phi_prediction(cov, GAUSSIAN, TestFunction("last_coord_clipped"), 0)
        assert abs(value) <= 0.02

    def test_identity_second_moment(self):
        den = Denoiser(kind="identity")
        quad = QuadratureSpec(mc_samples=200_000, seed=13)
        cov = se_covariance([den] * 3, GAUSSIAN, 3, quad)
        value = covariance_phi_prediction(cov, GAUSSIAN, TestFunction("raw_overlap"), 2, quad)
        # E V_2 U_0 = 0: the Gaussian block is independent of U0
        assert abs(value) <= 0.02
