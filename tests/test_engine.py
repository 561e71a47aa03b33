import math

import numpy as np
import pytest

from amplab import experiments, run_spectral_amp
from amplab.engine import (
    onsager_coeffs,
    phi_average,
    phi_pair_average,
    run_generalized,
    run_onsager,
)
from amplab.ensembles import (
    EnsembleSpec,
    InterpolatedNoise,
    PriorSpec,
    SpikeSpec,
    build_spiked,
    derive_streams,
    sample_prior,
    sample_wigner,
)
from amplab.errors import DegenerateInputError, DivergenceError, PreconditionError, RejectedInputError
from amplab.linalg import SymmetricMatrix, packed_diagonal_indices
from amplab.nonlinear import Denoiser, TestFunction, fd_partial
from mixed_noise import MixedNoise


def small_operator(n, seed, gamma=0.0, prior=None):
    rng = np.random.default_rng(seed)
    dense = rng.normal(size=(n, n))
    dense = (dense + dense.T) / 2.0
    mat = SymmetricMatrix.from_dense(dense)
    return build_spiked(mat, SpikeSpec.rank_one(gamma), prior)


class TestRunGeneralized:
    def test_zero_iterations(self):
        op = small_operator(4, 0)
        u0 = np.arange(4.0)
        orbit = run_generalized(op, [], u0, 0)
        assert orbit.K == 0
        np.testing.assert_array_equal(orbit.iterates[0], u0)

    def test_identity_operator_fixed_point(self):
        # A = sqrt(n) * I makes the normalized operator the identity
        n = 5
        entries = np.zeros(n * (n + 1) // 2)
        entries[packed_diagonal_indices(n)] = math.sqrt(n)
        op = build_spiked(SymmetricMatrix(n, entries), SpikeSpec())
        u0 = np.array([1.0, -2.0, 0.5, 3.0, -0.25])
        ident = Denoiser(kind="identity")  # acts on the first argument = op output
        orbit = run_generalized(op, [ident] * 4, u0, 4)
        for k in range(5):
            np.testing.assert_allclose(orbit.iterates[k], u0, atol=1e-12)

    def test_against_hand_rolled_recursion(self):
        # oracle: explicit double-loop evaluation of the recursion
        n, K = 4, 3
        op = small_operator(n, 1)
        u0 = np.random.default_rng(2).normal(size=n)
        schedule = (1.3, 0.8, 2.0)
        f = Denoiser(kind="scaled_tanh", schedule=schedule)
        orbit = run_generalized(op, [f] * K, u0, K)

        iterates = [u0.copy()]
        for k in range(K):
            top = op.apply(iterates[k])
            nxt = np.array([math.tanh(schedule[k] * top[i]) for i in range(n)])
            iterates.append(nxt)
        for k in range(K + 1):
            np.testing.assert_allclose(orbit.iterates[k], iterates[k], atol=1e-12)

    def test_custom_callable_steps(self):
        op = small_operator(6, 3)
        u0 = np.ones(6)
        orbit = run_generalized(op, [lambda rows: np.zeros(rows.shape[1])], u0, 1)
        np.testing.assert_array_equal(orbit.iterates[1], np.zeros(6))


ENGINE_REFUSALS = [
    (lambda op: run_generalized(op, [], np.ones(3), 0).rows(1), r"iteration 1 outside 0\.\.0"),
    (lambda op: run_onsager(op, [], np.ones(4), 0), r"iterate has shape \(4,\), expected \(3,\)"),
    (lambda op: run_generalized(op, [], np.ones(3), -1), "iteration count must be >= 0, got -1"),
    (lambda op: run_onsager(op, [], np.ones(3), -1), "iteration count must be >= 0, got -1"),
    (lambda op: run_onsager(op, [Denoiser(kind="identity")], np.ones(3), 2), "need 2 denoisers, got 1"),
    (lambda op: run_onsager(op, [lambda rows: rows[0]], np.ones(3), 1), "needs Denoiser instances"),
    (lambda op: phi_pair_average(TestFunction("tanh_product"), np.ones(3), np.ones(4)), "length mismatch"),
    (lambda op: run_generalized(op, [Denoiser(kind="identity")], np.ones(3), 2), "need 2 step functions, got 1"),
    *[
        (
            lambda op, k=k: phi_average(run_generalized(op, [], np.ones(3), 0), TestFunction("tanh_product"), k),
            rf"iteration {k} outside 0\.\.0",
        )
        for k in (1, -1)  # a negative k must not wrap to the last iterate
    ],
]


@pytest.mark.parametrize(
    "call, match",
    ENGINE_REFUSALS,
    ids=["rows_index", "start_shape", "generalized_negative_K", "onsager_negative_K", "too_few_denoisers",
         "callable_step", "pair_length", "too_few_step_functions", "phi_average_index", "phi_average_negative_index"],
)
def test_engine_refuses_bad_input(call, match):
    with pytest.raises(RejectedInputError, match=match):
        call(small_operator(3, 1))


class TestOnsagerCoeffs:
    def test_identity_pattern(self):
        rows = np.random.default_rng(5).normal(size=(4, 10))
        b = onsager_coeffs(Denoiser(kind="identity"), rows)
        np.testing.assert_allclose(b, [0.0, 0.0, 1.0])

    def test_scaled_tanh_zero_orbit(self):
        rows = np.zeros((3, 8))
        f = Denoiser(kind="scaled_tanh", schedule=(0.5, 0.5, 1.7))
        b = onsager_coeffs(f, rows)
        np.testing.assert_allclose(b, [0.0, 1.7])

    def test_empty_for_first_step(self):
        rows = np.zeros((1, 8))
        assert onsager_coeffs(Denoiser(kind="identity"), rows).size == 0

    @pytest.mark.parametrize(
        "f",
        [
            Denoiser(kind="identity"),
            Denoiser(kind="scaled_tanh", schedule=(1.0, 0.5, 2.0, 0.7)),
            Denoiser(kind="smooth_soft_threshold", schedule=(0.6, 0.9, 0.5, 1.1)),
            Denoiser(kind="linear_combo", weights=(0.3, -0.2, 0.5), offset=0.1),
        ],
        ids=lambda f: f.kind,
    )
    def test_against_fd_averaging(self, f):
        rng = np.random.default_rng(6)
        rows = rng.normal(size=(4, 40))
        k = 3
        b = onsager_coeffs(f, rows)
        for j in range(1, k + 1):
            fd = float(np.mean(fd_partial(f, k, j, rows, h=1e-5)))
            assert abs(b[j - 1] - fd) <= 1e-6


class TestRunOnsager:
    def test_first_step_has_no_correction(self):
        op = small_operator(5, 7)
        v0 = np.random.default_rng(8).normal(size=5)
        f = Denoiser(kind="scaled_tanh", schedule=(1.2,))
        orbit = run_onsager(op, [f], v0, 1)
        expected = op.apply(np.tanh(1.2 * v0))
        np.testing.assert_allclose(orbit.iterates[1], expected, atol=1e-14)
        assert orbit.onsager_log[0].size == 0

    def test_identity_reduces_to_three_term_recursion(self):
        # with identity denoisers b_{k,k} = 1 and the rest vanish, so
        # v^{k+1} = op v^k - v^{k-1}
        n, K = 8, 4
        op = small_operator(n, 9)
        v0 = np.random.default_rng(10).normal(size=n)
        orbit = run_onsager(op, [Denoiser(kind="identity")] * K, v0, K)
        for k in range(1, K):
            np.testing.assert_allclose(orbit.onsager_log[k], [0.0] * (k - 1) + [1.0])
        v_prev, v_cur = v0, op.apply(v0)
        np.testing.assert_allclose(orbit.iterates[1], v_cur, atol=1e-12)
        for k in range(1, K):
            v_next = op.apply(v_cur) - v_prev
            np.testing.assert_allclose(orbit.iterates[k + 1], v_next, atol=1e-10)
            v_prev, v_cur = v_cur, v_next

    def test_against_fd_based_recomputation(self):
        # oracle: recompute the full recursion from scratch with
        # finite-difference correction coefficients
        n, K = 4, 3
        op = small_operator(n, 11)
        v0 = np.random.default_rng(12).normal(size=n)
        f = Denoiser(kind="scaled_tanh", schedule=(1.5, 0.9, 1.1))
        orbit = run_onsager(op, [f] * K, v0, K)

        iterates = [v0.copy()]
        denoised = []
        for k in range(K):
            rows = np.stack([iterates[k - d] for d in range(k + 1)])
            mk = np.tanh(f.schedule[k] * rows[0])
            denoised.append(mk)
            nxt = op.apply(mk)
            for j in range(1, k + 1):
                b_fd = float(np.mean(fd_partial(f, k, j, rows, h=1e-6)))
                nxt = nxt - b_fd * denoised[j - 1]
            iterates.append(nxt)
        for k in range(K + 1):
            np.testing.assert_allclose(orbit.iterates[k], iterates[k], atol=1e-5)

    def test_three_phase_embedding_reproduces_onsager(self):
        # encode the corrected recursion inside the generalized one; with the
        # logged coefficients injected, u^[3l] must equal v^[l]
        n, K = 6, 3
        op = small_operator(n, 13, gamma=1.0, prior=np.ones(n))
        v0 = np.random.default_rng(14).normal(size=n)
        f = Denoiser(kind="scaled_tanh", schedule=(1.4, 0.6, 1.0))
        orbit = run_onsager(op, [f] * K, v0, K)
        b_log = orbit.onsager_log

        def zero_step(rows):
            return np.zeros(rows.shape[1])

        def make_denoise_step(ell):
            def step(rows):
                selected = [rows[1 + 3 * d] for d in range(ell)] + [rows[1 + 3 * ell]]
                from amplab.nonlinear import denoiser_eval

                return denoiser_eval(f, ell, np.stack(selected))

            return step

        def make_correct_step(ell):
            def step(rows):
                out = rows[0].copy()
                for j in range(1, ell + 1):
                    out -= b_log[ell][j - 1] * rows[3 * (ell - j + 1)]
                return out

            return step

        steps = []
        for ell in range(K):
            steps.append(zero_step)
            steps.append(make_denoise_step(ell))
            steps.append(make_correct_step(ell))
        embedded = run_generalized(op, steps, v0, 3 * K)
        for ell in range(K + 1):
            np.testing.assert_allclose(
                embedded.iterates[3 * ell], orbit.iterates[ell], atol=1e-9
            )

    def test_scale_covariance_identity_orbit(self):
        n, K, c = 8, 4, -2.5
        op = small_operator(n, 15)
        v0 = np.random.default_rng(16).normal(size=n)
        f = [Denoiser(kind="identity")] * K
        base = run_onsager(op, f, v0, K)
        scaled = run_onsager(op, f, c * v0, K)
        for k in range(K + 1):
            ref = c * base.iterates[k]
            tol = 1e-10 * max(1.0, float(np.max(np.abs(ref))))
            assert float(np.max(np.abs(scaled.iterates[k] - ref))) <= tol

    def test_divergence_detected(self):
        n = 4
        entries = np.zeros(n * (n + 1) // 2)
        entries[packed_diagonal_indices(n)] = 1e9 * math.sqrt(n)
        op = build_spiked(SymmetricMatrix(n, entries), SpikeSpec())
        with pytest.raises(DivergenceError) as err:
            run_onsager(op, [Denoiser(kind="identity")] * 3, np.ones(n), 3)
        assert err.value.iteration >= 1

    def test_determinism(self):
        op = small_operator(10, 17)
        v0 = np.random.default_rng(18).normal(size=10)
        f = [Denoiser(kind="scaled_tanh", schedule=(1.0, 1.0))] * 2
        o1 = run_onsager(op, f, v0, 2)
        o2 = run_onsager(op, f, v0, 2)
        for a, b in zip(o1.iterates, o2.iterates):
            np.testing.assert_array_equal(a, b)

    def test_variance_stays_near_one_at_se_scale(self):
        # Z = 0, Gaussian noise, identity denoisers, Gaussian u0: the
        # covariance recursion pins the per-iterate variance at 1
        n, K = 2000, 5
        streams = derive_streams(99, 0)
        mat = sample_wigner(n, EnsembleSpec("gaussian"), streams.noise_g)
        op = build_spiked(mat, SpikeSpec())
        u0 = streams.shared.standard_normal(n)
        orbit = run_onsager(op, [Denoiser(kind="identity")] * K, u0, K)
        for k in range(K + 1):
            var = float(np.mean(orbit.iterates[k] ** 2))
            assert abs(var - 1.0) <= 0.1


class TestPhiAverage:
    def test_single_iterate_mean(self):
        orbit = run_generalized(small_operator(3, 19), [], np.array([1.0, 2.0, 3.0]), 0)
        tf = TestFunction("last_coord_clipped", clip=100.0)
        assert phi_average(orbit, tf, 0) == pytest.approx(2.0)

    def test_constant_zero(self):
        op = small_operator(4, 20)
        orbit = run_onsager(op, [Denoiser(kind="scaled_tanh", schedule=(0.0,))], np.zeros(4), 1)
        assert phi_average(orbit, TestFunction("tanh_product"), 1) == 0.0

    def test_against_loop_oracle(self):
        n, K = 5, 2
        op = small_operator(n, 21)
        v0 = np.random.default_rng(22).normal(size=n)
        f = [Denoiser(kind="scaled_tanh", schedule=(1.0, 0.5))] * K
        orbit = run_onsager(op, f, v0, K)
        tf = TestFunction("tanh_product")
        total = 0.0
        for i in range(n):
            total += math.tanh(orbit.iterates[K][i]) * math.tanh(orbit.iterates[0][i])
        assert phi_average(orbit, tf, K) == pytest.approx(total / n, abs=1e-12)


def interpolated_block(n, seed, grid, gamma=2.0):
    """(spiked block operator on the t-grid, the 1-D spiked operator of each t, u0)."""
    streams = derive_streams(seed, 0)
    u0 = sample_prior(n, PriorSpec("rademacher"), streams.shared)
    mat_a = sample_wigner(n, EnsembleSpec("rademacher"), streams.noise_a)
    mat_g = sample_wigner(n, EnsembleSpec("gaussian"), streams.noise_g)
    spike = SpikeSpec.rank_one(gamma)
    singles = [build_spiked(MixedNoise(mat_a, mat_g, t), spike, u0) for t in grid]
    return build_spiked(InterpolatedNoise(mat_a, mat_g, grid), spike, u0), singles, u0


BLOCK_DENOISERS = [
    Denoiser(kind="identity"),
    Denoiser(kind="scaled_tanh", schedule=(1.5, 0.9, 1.1, 2.0)),
    Denoiser(kind="smooth_soft_threshold", schedule=(0.6, 0.9, 0.5, 1.1)),
    Denoiser(kind="linear_combo", weights=(0.6, -0.3, 0.2), offset=0.1),
]


class TestOrbitBlock:
    @pytest.mark.parametrize("n", [37, 250])
    @pytest.mark.parametrize("run", [run_onsager, run_generalized], ids=lambda run: run.__name__)
    @pytest.mark.parametrize("f", BLOCK_DENOISERS, ids=lambda f: f.kind)
    def test_rows_hold_the_single_orbits_bytes(self, f, run, n):
        grid, K = [0.0, 0.3, 0.3, 0.8, 1.0], 4
        block_op, singles, u0 = interpolated_block(n, 5, grid)
        block = run(block_op, [f] * K, np.broadcast_to(u0, (len(grid), n)), K)
        tf = TestFunction("tanh_product")
        phis = phi_average(block, tf, K)
        assert phis.shape == (len(grid),)
        for r, op in enumerate(singles):
            single = run(op, [f] * K, u0, K)
            assert [v[r].tobytes() for v in block.iterates] == [v.tobytes() for v in single.iterates]
            assert [b[r].tobytes() for b in block.onsager_log] == [b.tobytes() for b in single.onsager_log]
            assert phis[r] == phi_average(single, tf, K)

    def test_onsager_log_has_a_row_per_orbit(self):
        block_op, _, u0 = interpolated_block(20, 6, [0.2, 0.7])
        orbit = run_onsager(block_op, [Denoiser(kind="identity")] * 3, np.stack([u0, u0]), 3)
        assert [b.shape for b in orbit.onsager_log] == [(2, 0), (2, 1), (2, 2)]
        np.testing.assert_array_equal(orbit.onsager_log[2], [[0.0, 1.0], [0.0, 1.0]])

    def test_divergence_names_the_rows_that_left(self):
        n = 6
        entries = np.zeros(n * (n + 1) // 2)
        entries[packed_diagonal_indices(n)] = 1e9 * math.sqrt(n)
        huge = SymmetricMatrix(n, entries)
        tame = SymmetricMatrix(n, np.zeros(n * (n + 1) // 2))
        op = build_spiked(InterpolatedNoise(huge, tame, [0.0, 0.5, 1.0]), SpikeSpec())
        with pytest.raises(DivergenceError, match=r"orbit diverged at iteration \d in rows \[1, 2\]$") as err:
            run_onsager(op, [Denoiser(kind="identity")] * 3, np.ones((3, n)), 3)
        assert err.value.rows == [1, 2] and err.value.iteration >= 1
        with pytest.raises(DivergenceError) as err:  # one orbit names no rows
            run_onsager(build_spiked(huge, SpikeSpec()), [Denoiser(kind="identity")] * 3, np.ones(n), 3)
        assert err.value.rows is None

    def test_block_of_the_wrong_height_refused(self):
        block_op, _, u0 = interpolated_block(10, 7, [0.2, 0.7])
        with pytest.raises(RejectedInputError, match=r"expected 2 rows of length 10, got shape \(3, 10\)"):
            run_generalized(block_op, [Denoiser(kind="identity")], np.ones((3, 10)), 1)

    @pytest.mark.parametrize("n", [250, 251, 1000, 4096, 4097])
    def test_row_averages_are_the_1d_averages(self, n):
        rng = np.random.default_rng(n)
        w, y = rng.normal(size=(2, 4, n))
        tf = TestFunction("tanh_product")
        rows = phi_pair_average(tf, w, y)
        assert rows.tolist() == [phi_pair_average(tf, w[r], y[r]) for r in range(4)]


class TestRunSpectralAmp:
    def test_exact_isolated_eigenpair_initialization(self):
        # diag(3, 1, ..., 1): the top eigenvector is e1 exactly
        n = 10
        dense = np.eye(n)
        dense[0, 0] = 3.0
        mat = SymmetricMatrix.from_dense(dense)
        u0 = np.ones(n)
        orbit = run_spectral_amp(mat, [Denoiser(kind="identity")], u0, 60, 1)
        psi = orbit.iterates[0]
        expected = math.sqrt(n) * np.eye(n)[:, 0]
        assert float(np.min([np.linalg.norm(psi - expected), np.linalg.norm(psi + expected)])) < 1e-9
        # sign correction aligns with u0, which has positive first coordinate
        assert psi[0] > 0

    def test_above_threshold_runs_and_overlaps(self):
        n, gamma = 1000, 2.0
        streams = derive_streams(7, 0)
        u0 = sample_prior(n, PriorSpec("rademacher"), streams.shared)
        mat = sample_wigner(n, EnsembleSpec("gaussian"), streams.noise_g)
        op = build_spiked(mat, SpikeSpec.rank_one(gamma), u0)
        f = Denoiser(kind="scaled_tanh", schedule=(2.0, 2.0, 2.0))
        orbit = run_spectral_amp(op, [f] * 3, u0, "auto", 3)
        overlap = float(np.dot(orbit.iterates[0], u0)) / n
        # limit sqrt(1 - 1/gamma^2) = 0.8660
        assert abs(overlap - 0.8660) <= 0.05

    def test_zero_prior_vector_refused(self):
        mat = sample_wigner(50, EnsembleSpec("gaussian"), derive_streams(3, 0).noise_g)
        with pytest.raises(PreconditionError, match="vector is zero"):
            run_spectral_amp(mat, [Denoiser(kind="identity")], np.zeros(50), 60, 1)

    def test_undefined_sign_after_a_passed_gap_check_refused(self, monkeypatch):
        def refuse(op, gap, depth):
            assert gap.passed
            raise DegenerateInputError("sign undefined")

        monkeypatch.setattr(experiments, "spectral_init", refuse)
        streams = derive_streams(13, 0)
        u0 = sample_prior(300, PriorSpec("rademacher"), streams.shared)
        op = build_spiked(sample_wigner(300, EnsembleSpec("gaussian"), streams.noise_g), SpikeSpec.rank_one(2.0), u0)
        with pytest.raises(PreconditionError, match="spectral initialization refused: sign undefined"):
            run_spectral_amp(op, [Denoiser(kind="identity")], u0, 60, 1)

    def test_below_threshold_refused(self):
        n, gamma = 500, 0.5
        streams = derive_streams(11, 0)
        u0 = sample_prior(n, PriorSpec("rademacher"), streams.shared)
        mat = sample_wigner(n, EnsembleSpec("gaussian"), streams.noise_g)
        op = build_spiked(mat, SpikeSpec.rank_one(gamma), u0)
        with pytest.raises(PreconditionError):
            run_spectral_amp(op, [Denoiser(kind="identity")] * 2, u0, 150, 2)
