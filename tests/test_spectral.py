import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from amplab import openblas, spectral

from amplab.ensembles import (
    EnsembleSpec,
    PriorSpec,
    SpikeSpec,
    build_spiked,
    derive_streams,
    sample_prior,
    sample_wigner,
)
from amplab.errors import DegenerateInputError, NumericalFailureError, RejectedInputError
from amplab.linalg import EigenDecomp, SymmetricMatrix, jacobi_eigendecomp, packed_diagonal_indices
from amplab.spectral import (
    GapCheckResult,
    gap_check,
    power_bound_rhs,
    power_method,
    resolve_power_depth,
    spectral_init,
)


def shifted_bulk_instance(n, seed, shift=3.0):
    """Noise bulk scaled to [-2, 2] plus a diagonal shift: positive spectrum
    whose top eigenvalue dominates in magnitude."""
    streams = derive_streams(seed, 0)
    mat = sample_wigner(n, EnsembleSpec("gaussian"), streams.noise_a)
    entries = mat.entries / math.sqrt(n)
    entries[packed_diagonal_indices(n)] += shift
    return SymmetricMatrix(n, entries), streams


def spiked_instance(n, gamma, seed):
    streams = derive_streams(seed, 0)
    u0 = sample_prior(n, PriorSpec("rademacher"), streams.shared)
    mat = sample_wigner(n, EnsembleSpec("gaussian"), streams.noise_a)
    return build_spiked(mat, SpikeSpec.rank_one(gamma), u0), u0


def start_along(u0):
    return u0 / np.linalg.norm(u0)


def other_start(n, seed=0):
    """A fixed pseudo-random unit start vector, unrelated to any u0."""
    return start_along(np.random.default_rng(seed).standard_normal(n))


def plain_power_init(op, u0, d):
    """Reference spectral init: sqrt(n) times the d-step power iterate from
    u0/|u0|, every step an operator apply, sign-aligned with u0."""
    y = power_method(op, start_along(u0), d)
    overlap = float(np.dot(y, u0))
    if overlap == 0.0:
        raise DegenerateInputError("power iterate is orthogonal to u0")
    return math.copysign(1.0, overlap) * math.sqrt(op.n) * y


def gapped_init(op, u0, d):
    """The runners' spectral init: gap check from u0/|u0|, then its basis."""
    return spectral_init(op, gap_check(op, y0=start_along(u0)), d)


class CountingOperator:
    def __init__(self, op):
        self.op = op
        self.n = op.n
        self.applies = 0

    def apply(self, x):
        self.applies += 1
        return self.op.apply(x)


class TestPowerMethod:
    def test_diag_geometric_bound(self):
        m = SymmetricMatrix.from_dense(np.diag([3.0, 1.0]))
        y0 = np.array([1.0, 1.0]) / math.sqrt(2.0)
        y = power_method(m, y0, 20)
        e1 = np.array([1.0, 0.0])
        bound = (1.0 / abs(y0[0])) * (1.0 / 3.0) ** 20
        assert float(np.linalg.norm(y - e1)) <= bound

    def test_exact_eigenvector_is_invariant(self):
        m = SymmetricMatrix.from_dense(np.diag([3.0, 1.0, 2.0]))
        e1 = np.array([1.0, 0.0, 0.0])
        for d in (1, 5, 50):
            y = power_method(m, e1, d)
            assert min(np.linalg.norm(y - e1), np.linalg.norm(y + e1)) < 1e-14

    def test_bound_holds_against_jacobi_oracle_sweep(self):
        for seed in range(20):
            instance, streams = shifted_bulk_instance(32, seed)
            y0 = streams.shared.standard_normal(32)
            y0 /= np.linalg.norm(y0)
            eig = jacobi_eigendecomp(instance, tol=1e-12)
            y = power_method(instance, y0, 25)
            top = eig.eigenvectors[:, 0]
            aligned = math.copysign(1.0, float(np.dot(top, y0))) * top
            lhs = float(np.linalg.norm(y - aligned))
            assert lhs <= power_bound_rhs(eig, y0, 25) + 1e-8

    def test_hand_evaluable_bound(self):
        m = SymmetricMatrix.from_dense(np.diag([3.0, 1.0, 2.0]))
        y0 = np.ones(3) / math.sqrt(3.0)
        eig = jacobi_eigendecomp(m, tol=1e-14)
        rhs = power_bound_rhs(eig, y0, 10)
        assert rhs == pytest.approx(math.sqrt(3.0) * (2.0 / 3.0) ** 10, rel=1e-12)
        y = power_method(m, y0, 10)
        top = eig.eigenvectors[:, 0]
        aligned = math.copysign(1.0, float(np.dot(top, y0))) * top
        assert float(np.linalg.norm(y - aligned)) <= rhs

        # starting exactly on the top eigenvector: zero distance, bound trivial
        exact = power_method(m, aligned, 10)
        lhs = float(np.linalg.norm(exact - aligned))
        assert lhs <= 1e-14
        assert lhs <= power_bound_rhs(eig, aligned, 10)

    def test_one_by_one_bound_is_zero(self):
        eig = jacobi_eigendecomp(SymmetricMatrix.from_dense(np.array([[2.0]])), tol=1e-14)
        assert power_bound_rhs(eig, np.ones(1), 10) == 0.0

    def test_rejects_non_unit_start(self):
        m = SymmetricMatrix.from_dense(np.eye(3))
        with pytest.raises(RejectedInputError):
            power_method(m, np.array([1.0, 1.0, 0.0]), 5)

    def test_rejects_zero_iterations(self):
        m = SymmetricMatrix.from_dense(np.eye(2))
        with pytest.raises(RejectedInputError):
            power_method(m, np.array([1.0, 0.0]), 0)

    def test_degenerate_on_zero_operator(self):
        m = SymmetricMatrix.from_dense(np.zeros((3, 3)))
        with pytest.raises(DegenerateInputError):
            power_method(m, np.array([1.0, 0.0, 0.0]), 3)

    @pytest.mark.parametrize(
        "call, error, match",
        [
            (
                lambda: power_bound_rhs(EigenDecomp(np.zeros(2), np.eye(2)), np.array([1.0, 0.0]), 3),
                DegenerateInputError,
                "top eigenvalue is zero",
            ),
            (
                lambda: power_bound_rhs(EigenDecomp(np.array([2.0, 1.0]), np.eye(2)), np.array([0.0, 1.0]), 3),
                DegenerateInputError,
                "start vector orthogonal to the top eigenvector",
            ),
            (
                lambda: power_method(SymmetricMatrix.from_dense(np.eye(3)), np.array([1.0, 0.0]), 5),
                RejectedInputError,
                r"start vector has shape \(2,\), expected \(3,\)",
            ),
            (
                lambda: resolve_power_depth(SymmetricMatrix.from_dense(np.eye(3)), 0, None),
                RejectedInputError,
                "power depth must be >= 1, got 0",
            ),
        ],
        ids=["zero_top_eigenvalue", "orthogonal_start", "start_length", "zero_depth"],
    )
    def test_refuses_what_the_bound_and_depth_do_not_define(self, call, error, match):
        with pytest.raises(error, match=match):
            call()


class TestSpectralInit:
    def test_positive_sign_branch(self):
        n = 6
        dense = np.eye(n)
        dense[0, 0] = 4.0
        m = SymmetricMatrix.from_dense(dense)
        u0 = np.ones(n)
        psi = gapped_init(m, u0, 40)
        assert psi[0] > 0
        assert float(np.linalg.norm(psi)) == pytest.approx(math.sqrt(n), rel=1e-9)

    def test_sign_equivariance(self):
        # gap checks started at +-u0/|u0| give inits that are exact negatives,
        # both when the init is read from T and when it falls back to applies
        instance, streams = shifted_bulk_instance(24, 3)
        certified = (instance, streams.shared.standard_normal(24), False)
        for op, u0, applies in (certified, (*spiked_instance(300, 0.5, 71), True)):
            psi = []
            for start in (start_along(u0), -start_along(u0)):
                counting = CountingOperator(op)
                gc = gap_check(counting, y0=start)
                g = counting.applies
                psi.append(spectral_init(counting, gc, resolve_power_depth(op, "auto", gc)))
                assert (counting.applies > g) == applies
            assert np.array_equal(psi[1], -psi[0])

    def test_zero_overlap_degenerate(self):
        # diag(1, -1) flips the sign of the second coordinate each step, so an
        # odd depth leaves the iterate exactly orthogonal to u0 = (1, 1)
        m = SymmetricMatrix.from_dense(np.diag([1.0, -1.0]))
        u0 = np.array([1.0, 1.0])
        for init in (plain_power_init, gapped_init):
            with pytest.raises(DegenerateInputError):
                init(m, u0, 5)

    @pytest.mark.parametrize("gamma", [0.5, 2.0])
    def test_lanczos_steps_agree_with_power_steps(self, gamma):
        n = 300
        op, u0 = spiked_instance(n, gamma, 51)
        gc = gap_check(op, y0=u0 / np.linalg.norm(u0))
        k = len(gc.krylov[0]) - 1
        for d in (5, k, k + 1, 300):
            plain = plain_power_init(op, u0, d)
            read = spectral_init(op, gc, d)
            assert float(np.max(np.abs(read - plain))) / math.sqrt(n) <= 1e-12, d

    def test_applies_with_gap_result_at_n_1000(self):
        op, u0 = spiked_instance(1000, 2.0, 20240810)
        counting = CountingOperator(op)
        gc = gap_check(counting, y0=u0 / np.linalg.norm(u0))
        g = counting.applies
        d = resolve_power_depth(counting, "auto", gc)
        spectral_init(counting, gc, d)
        assert counting.applies == g

    @pytest.mark.parametrize("n, seed", [(300, 71), (500, 81)])
    def test_failed_certificate_applies_the_remaining_steps(self, n, seed):
        # below the transition at the depth cap the top pair is unresolved at
        # k, so the bound on the distance to the applied iterate exceeds 1e-12
        op, u0 = spiked_instance(n, 0.5, seed)
        counting = CountingOperator(op)
        gc = gap_check(counting, y0=start_along(u0))
        g, k = counting.applies, len(gc.krylov.basis) - 1
        d = resolve_power_depth(op, "auto", gc)
        psi = spectral_init(counting, gc, d)
        assert counting.applies - g == d - k > 0
        plain = plain_power_init(op, u0, d)
        assert float(np.max(np.abs(psi - plain))) / math.sqrt(n) <= 1e-12

    def test_lanczos_steps_across_breakdown(self):
        # the Krylov space of this start vector closes after eight steps, and
        # Lanczos goes on from a fresh vector with a zero coupling
        m = SymmetricMatrix.from_dense(np.diag(np.arange(16.0) - 5.0))
        u0 = np.zeros(16)
        u0[4:12] = 1.0
        gc = gap_check(m, y0=u0 / np.linalg.norm(u0))
        for d in (5, 12, 40):
            np.testing.assert_allclose(
                spectral_init(m, gc, d), plain_power_init(m, u0, d), rtol=0, atol=1e-12
            )

    def test_refuses_zero_depth(self):
        op, u0 = spiked_instance(100, 2.0, 71)
        with pytest.raises(RejectedInputError):
            spectral_init(op, gap_check(op, y0=start_along(u0)), 0)

    def test_vanishing_iterate_with_gap_result(self):
        # u0 lies in the kernel: the first power step is zero
        m = SymmetricMatrix.from_dense(np.diag([2.0, 0.0, 0.0]))
        u0 = np.array([0.0, 1.0, 1.0])
        gc = gap_check(m, y0=u0 / np.linalg.norm(u0))
        for init in (plain_power_init, lambda op, u, d: spectral_init(op, gc, d)):
            with pytest.raises(DegenerateInputError):
                init(m, u0, 4)

    def test_bbp_overlap_above_threshold(self):
        # limit overlap sqrt(1 - gamma^-2) = 0.8660 at gamma = 2
        n, gamma = 2000, 2.0
        streams = derive_streams(21, 0)
        u0 = sample_prior(n, PriorSpec("rademacher"), streams.shared)
        mat = sample_wigner(n, EnsembleSpec("gaussian"), streams.noise_g)
        op = build_spiked(mat, SpikeSpec.rank_one(gamma), u0)
        gc = gap_check(op, y0=start_along(u0))
        psi = spectral_init(op, gc, resolve_power_depth(op, "auto", gc))
        overlap = float(np.dot(psi, u0)) / n
        assert 0.816 <= overlap <= 0.916


class TestGapCheck:
    def test_exact_diagonal_spectrum(self):
        m = SymmetricMatrix.from_dense(np.diag([3.0, 1.0, -1.0]))
        res = gap_check(m, y0=other_start(3))
        assert res.lambda1 == pytest.approx(3.0, abs=1e-9)
        assert res.lambda2_abs == pytest.approx(1.0, abs=1e-9)
        assert res.passed

    def test_sub_unit_top_eigenvalue_fails(self):
        m = SymmetricMatrix.from_dense(np.diag([0.9, 0.5]))
        res = gap_check(m, y0=other_start(2))
        assert res.lambda1 == pytest.approx(0.9, abs=1e-9)
        assert not res.passed

    def test_pass_rates_across_threshold(self):
        n, trials = 256, 50
        outcomes = {2.0: 0, 0.5: 0}
        for gamma in outcomes:
            for trial in range(trials):
                streams = derive_streams(31, trial)
                u0 = sample_prior(n, PriorSpec("rademacher"), streams.shared)
                mat = sample_wigner(n, EnsembleSpec("gaussian"), streams.noise_g)
                op = build_spiked(mat, SpikeSpec.rank_one(gamma), u0)
                res = gap_check(op, y0=u0 / np.linalg.norm(u0))
                outcomes[gamma] += int(res.passed)
        assert outcomes[2.0] >= 0.95 * trials
        assert outcomes[0.5] <= 0.2 * trials

    @pytest.mark.parametrize("gamma", [0.5, 2.0])
    def test_matches_eigvalsh_on_spiked_instances(self, gamma):
        n = 300
        op, u0 = spiked_instance(n, gamma, 51)
        res = gap_check(op, y0=u0 / np.linalg.norm(u0))
        dense = op.noise.to_dense() / math.sqrt(n) + (gamma / n) * np.outer(u0, u0)
        lam = np.linalg.eigvalsh(dense)
        assert abs(res.lambda1 - lam[-1]) <= 1e-8
        assert abs(res.lambda2_abs - max(abs(lam[-2]), abs(lam[0]))) <= 1e-8

    def test_apply_budget_at_n_1000(self):
        op, u0 = spiked_instance(1000, 2.0, 20240810)
        counting = CountingOperator(op)
        gap_check(counting, y0=u0 / np.linalg.norm(u0))
        assert counting.applies <= 200

    def test_bytes_stable_across_reruns_and_threads(self):
        instances = [spiked_instance(400, gamma, 61) for gamma in (0.5, 2.0)]

        def solve(instance):
            op, u0 = instance
            return repr(tuple(gap_check(op, y0=u0 / np.linalg.norm(u0))))

        first = [solve(inst) for inst in instances]
        assert [solve(inst) for inst in instances] == first
        with ThreadPoolExecutor(max_workers=2) as pool:
            assert list(pool.map(solve, instances)) == first

    @pytest.mark.parametrize(
        "diag, support, lambda1, lambda2_abs",
        [
            # e1 spans an invariant subspace: the Krylov space closes after one step
            ([3.0, 1.0, -2.0, 0.5], [0], 3.0, 2.0),
            # eight interior eigenvectors: it closes on a residual-test step
            (np.arange(16.0) - 5.0, range(4, 12), 10.0, 9.0),
        ],
    )
    def test_breakdown_restarts_from_fresh_vector(self, diag, support, lambda1, lambda2_abs):
        m = SymmetricMatrix.from_dense(np.diag(diag))
        y0 = np.zeros(len(diag))
        y0[list(support)] = 1.0
        res = gap_check(m, y0=y0)
        assert res.lambda1 == pytest.approx(lambda1, abs=1e-12)
        assert res.lambda2_abs == pytest.approx(lambda2_abs, abs=1e-12)

    @pytest.mark.parametrize("breakdown", [False, True])
    def test_dropped_couplings_close_the_lanczos_relation(self, breakdown):
        # A Q^T = Q^T T + R with |R e_j| = dropped[j]: beta_k at the last
        # column, and at a breakdown the residual the restart dropped
        if breakdown:
            m = SymmetricMatrix.from_dense(np.diag(np.arange(16.0) - 5.0))
            y0 = np.zeros(16)
            y0[4:12] = 1.0
        else:
            m, y0 = spiked_instance(200, 2.0, 71)
        kr = gap_check(m, y0=y0 / np.linalg.norm(y0)).krylov
        t = np.diag(kr.alpha) + np.diag(kr.beta, 1) + np.diag(kr.beta, -1)
        r = np.column_stack([m.apply(q) for q in kr.basis]) - kr.basis.T @ t
        np.testing.assert_allclose(np.linalg.norm(r, axis=0), kr.dropped, rtol=0, atol=1e-12)
        assert (np.count_nonzero(kr.dropped[:-1]) > 0) == breakdown

    def test_krylov_cap_raises_with_residual(self, monkeypatch):
        monkeypatch.setattr(spectral, "LANCZOS_MAX_DIM", 2)
        op, _ = spiked_instance(50, 2.0, 71)
        with pytest.raises(NumericalFailureError) as info:
            gap_check(op, y0=other_start(50))
        assert info.value.residual is not None and info.value.residual > 0

    @pytest.mark.parametrize("cap", [None, 16])
    def test_bottom_ritz_pair_only_once_the_top_two_pass(self, monkeypatch, cap):
        # the top two pairs are solved at every residual test (every 8 steps here), the bottom
        # pair once: at the test that converges, or for the residual of a run that does not
        calls = []

        def counted(d, e, select):
            calls.append((len(d), *select))
            return openblas.tridiagonal_eigen(d, e, select)

        monkeypatch.setattr(spectral, "tridiagonal_eigen", counted)
        op, u0 = spiked_instance(300, 2.0, 51)
        if cap is None:
            k = len(gap_check(op, y0=start_along(u0)).krylov.basis)
        else:
            monkeypatch.setattr(spectral, "LANCZOS_MAX_DIM", cap)
            with pytest.raises(NumericalFailureError):
                gap_check(op, y0=start_along(u0))
            k = cap
        assert k % 8 == 0 and k >= 16
        assert calls == [(m, m - 2, m - 1) for m in range(8, k + 1, 8)] + [(k, 0, 0)]

    def test_tridiagonal_failure_becomes_numerical_failure(self, monkeypatch):
        def fail(*args):
            args[17]._obj.value = 1  # dstevx's info: one eigenvector did not converge

        monkeypatch.setattr(openblas, "_dstevx", fail)
        with pytest.raises(NumericalFailureError, match="dstevx"):
            gap_check(spiked_instance(50, 2.0, 71)[0], y0=other_start(50))

    def test_rejects_one_by_one(self):
        with pytest.raises(RejectedInputError):
            gap_check(SymmetricMatrix.from_dense(np.eye(1)), y0=np.ones(1))


class TestDefaultPowerDepth:
    def test_above_threshold_moderate_depth(self):
        n = 500
        streams = derive_streams(41, 0)
        u0 = sample_prior(n, PriorSpec("rademacher"), streams.shared)
        mat = sample_wigner(n, EnsembleSpec("gaussian"), streams.noise_g)
        op = build_spiked(mat, SpikeSpec.rank_one(2.0), u0)
        depth = resolve_power_depth(op, "auto", gap_check(op, y0=start_along(u0)))
        assert 30 <= depth <= 300

    def test_degenerate_ratio_hits_cap(self):
        # pure bulk: no separated top eigenvalue, the rule returns the cap
        n = 300
        streams = derive_streams(43, 0)
        mat = sample_wigner(n, EnsembleSpec("gaussian"), streams.noise_g)
        op = build_spiked(mat, SpikeSpec())
        assert resolve_power_depth(op, "auto", gap_check(op, y0=other_start(n))) == 300

    def test_reads_ratio_from_gap_result_without_applies(self):
        op, _ = spiked_instance(500, 2.0, 41)
        counting = CountingOperator(op)
        depth = resolve_power_depth(counting, "auto", GapCheckResult(2.5, 2.0, True, None))
        assert depth == math.ceil(math.log(500 / 1e-12) / math.log(1.25))
        assert counting.applies == 0
