import math

import numpy as np
import pytest
from scipy import integrate
from scipy.special import roots_hermite

from amplab import state_evolution
from amplab.ensembles import PriorSpec
from amplab.errors import AccuracyError, DegenerateInputError, RejectedInputError
from amplab.nonlinear import Denoiser, TestFunction, scalar_eval
from amplab.state_evolution import (
    QuadratureSpec,
    SEParams,
    bayes_tanh_schedule,
    initial_se_params,
    se_covariance,
    se_predict_phi,
    se_spiked,
)

RADEMACHER = PriorSpec("rademacher")


def _normal_expectation(h, points=()):
    """E h(Z) for standard normal Z by adaptive quadrature, split at the given points."""
    inside = [x for x in points if -12.0 < x < 12.0]
    value, _ = integrate.quad(
        lambda z: h(z) * math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi),
        -12.0,
        12.0,
        points=inside or None,
        epsabs=1e-12,
        limit=200,
    )
    return value


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

    def test_soft_threshold_converges_with_the_split_rule(self):
        # the C^1 soft threshold defeats Gauss-Hermite doubling; split at its
        # kinks, each step matches adaptive quadrature over g for w = -1, 1
        soft = Denoiser(kind="smooth_soft_threshold", schedule=(0.5,) * 3)
        se = se_spiked(2.0, RADEMACHER, soft, K=3)
        for k in range(3):
            mu, sig = se.mu[k], se.sigma[k]

            def over_g(h, w):
                cuts = [(x - mu * w) / sig for x in soft.kinks(k)]
                return _normal_expectation(lambda g: h(float(scalar_eval(soft, k, mu * w + sig * g))), cuts)

            mu_ref = 2.0 * sum(0.5 * w * over_g(lambda y: y, w) for w in (-1.0, 1.0))
            sig2_ref = sum(0.5 * over_g(lambda y: y * y, w) for w in (-1.0, 1.0))
            assert abs(se.mu[k + 1] - mu_ref) <= 1e-8
            assert abs(se.sigma[k + 1] ** 2 - sig2_ref) <= 1e-8

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
        se = SEParams(mu=np.array([0.0]), sigma=np.array([1.0]))
        value = se_predict_phi(TestFunction("se_pair"), 0, se, RADEMACHER)
        assert abs(value) <= 1e-12

    def test_index_out_of_range(self):
        with pytest.raises(RejectedInputError):
            se_predict_phi(TestFunction("se_pair"), 9, self.se, RADEMACHER)


class TestSeCovariance:
    def test_identity_fixed_point(self):
        # unit-variance Gaussian inputs stay at variance 1 under identity, and
        # the levels stay uncorrelated with each other and with U0
        cov = se_covariance([Denoiser(kind="identity")] * 5, 5)
        np.testing.assert_allclose(cov, np.eye(6), rtol=0, atol=1e-12)

    def test_constant_denoiser_exact(self):
        # every product is exactly c^2, and U0 is uncorrelated with the block
        c = 0.7
        const = Denoiser(kind="linear_combo", weights=(), offset=c)
        cov = se_covariance([const] * 3, 3)
        expected = np.zeros((4, 4))
        expected[0, 0] = 1.0
        expected[1:, 1:] = c * c
        np.testing.assert_allclose(cov, expected, rtol=0, atol=1e-13)

    def test_linear_combo_closed_form(self):
        # E(c + sum_d w_d V_{a-d})(c + sum_e w_e V_{b-e}) = c^2 + sum_{d,e} w_d w_e Sigma[a-d, b-e],
        # expanded term by term
        weights, c, K = (0.6, -0.3, 0.2), 0.1, 5
        den = Denoiser(kind="linear_combo", weights=weights, offset=c)
        cov = se_covariance([den] * K, K)
        ref = [[1.0 if a == b == 0 else 0.0 for b in range(K + 1)] for a in range(K + 1)]
        for a in range(K):
            for b in range(a + 1):
                total = c * c
                for d, wd in enumerate(weights[: a + 1]):
                    for e, we in enumerate(weights[: b + 1]):
                        total += wd * we * ref[a - d][b - e]
                ref[a + 1][b + 1] = ref[b + 1][a + 1] = total
        np.testing.assert_allclose(cov, np.array(ref), rtol=0, atol=1e-12)
        assert cov[1, 1] == pytest.approx(0.37, abs=1e-15)
        assert cov[2, 2] == pytest.approx(0.2332, abs=1e-15)

    def test_output_is_psd_and_symmetric(self):
        den = Denoiser(kind="scaled_tanh", schedule=(1.5, 1.0, 0.7))
        cov = se_covariance([den] * 3, 3)
        np.testing.assert_array_equal(cov, cov.T)
        assert np.min(np.linalg.eigvalsh(cov)) >= -1e-12

    def test_sharp_tanh_reaches_the_doubling_tolerance(self):
        # a = 3 puts tanh's poles near the real axis; the Hermite rule doubles
        # until it settles, and then agrees with adaptive quadrature
        K = 4
        cov = se_covariance([Denoiser(kind="scaled_tanh", schedule=(3.0,) * K)] * K, K)
        for k in range(K):
            s = math.sqrt(cov[k, k])
            ref = _normal_expectation(lambda z: math.tanh(3.0 * s * z) ** 2)
            assert abs(cov[k + 1, k + 1] - ref) <= 1e-8

    def test_soft_threshold_matches_adaptive_quadrature_at_its_kinks(self):
        # two offset linear levels correlate V_1 and V_2, so the soft threshold's
        # entries include 2-D integrals with kinks in both coordinates
        shift = Denoiser(kind="linear_combo", weights=(1.0,), offset=0.5)
        soft = Denoiser(kind="smooth_soft_threshold", schedule=(0.3, 0.3, 0.5, 0.4))
        fs = [shift, shift, soft, soft]
        cov = se_covariance(fs, 4)

        def f(k, x):
            return float(scalar_eval(fs[k], k, x))

        for a in range(4):
            s = math.sqrt(cov[a, a])
            diagonal = _normal_expectation(lambda z: f(a, s * z) ** 2, [x / s for x in fs[a].kinks(a)])
            assert abs(cov[a + 1, a + 1] - diagonal) <= 1e-8
        for a, b in ((2, 1), (3, 2)):
            s = math.sqrt(cov[a, a])
            r = cov[a, b] / s
            t = math.sqrt(cov[b, b] - r * r)

            def inner(z1):
                cuts = [(x - r * z1) / t for x in fs[b].kinks(b)]
                return _normal_expectation(lambda z2: f(b, r * z1 + t * z2), cuts)

            ref = _normal_expectation(lambda z1: f(a, s * z1) * inner(z1), [x / s for x in fs[a].kinks(a)])
            assert abs(ref) >= 0.05  # a correlated entry, not one that vanishes by symmetry
            assert abs(cov[a + 1, b + 1] - ref) <= 1e-8

    def test_against_independent_straight_line_mc(self):
        # oracle: a from-scratch simulation of the recursion with its own
        # samples and no shared code path
        den = Denoiser(kind="scaled_tanh", schedule=(1.2, 0.8))
        cov = se_covariance([den] * 2, 2)[1:, 1:]

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
                assert abs(cov[i, j] - ref[i, j]) <= combined_se

    def test_memory_denoiser_mixed_with_a_nonlinear_one_rejected(self):
        memory = Denoiser(kind="linear_combo", weights=(0.5, 0.5))
        tanh = Denoiser(kind="scaled_tanh", schedule=(1.0, 1.0))
        with pytest.raises(RejectedInputError):
            se_covariance([memory, tanh], 2)

    def test_depth_zero_is_u0_alone_and_negative_depth_rejected(self):
        np.testing.assert_array_equal(se_covariance([], 0), np.ones((1, 1)))
        with pytest.raises(RejectedInputError):
            se_covariance([Denoiser(kind="identity")], -1)


class TestGaussRuleCache:
    @pytest.mark.parametrize("rule", ["_gauss_hermite", "_gauss_legendre"])
    def test_second_call_returns_the_same_read_only_arrays(self, rule):
        build = getattr(state_evolution, rule)
        first = build(61)
        assert build(61) is first
        for arr in first:
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0.0

    def test_hermite_rule_is_the_scaled_scipy_rule(self):
        x, w = roots_hermite(122)
        z, p = state_evolution._gauss_hermite(122)
        assert z.tobytes() == (x * math.sqrt(2.0)).tobytes()
        assert p.tobytes() == (w / math.sqrt(math.pi)).tobytes()
