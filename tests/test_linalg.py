import tracemalloc
import warnings

import numpy as np
import pytest

from amplab import linalg
from amplab.ensembles import EnsembleSpec, derive_streams, sample_wigner
from amplab.errors import NumericalFailureError, RejectedInputError
from amplab.linalg import SymmetricMatrix, jacobi_eigendecomp, jacobi_eigendecomp_stack, sym_matvec


def random_symmetric(n, rng):
    a = rng.normal(size=(n, n))
    return (a + a.T) / 2.0


class TestSymmetricMatrix:
    def test_packed_roundtrip_and_symmetry(self):
        rng = np.random.default_rng(0)
        dense = random_symmetric(7, rng)
        m = SymmetricMatrix.from_dense(dense)
        assert m.entries.shape == (7 * 8 // 2,)
        np.testing.assert_allclose(m.to_dense(), dense, rtol=0, atol=0)

    def test_rejects_wrong_entry_count(self):
        with pytest.raises(RejectedInputError):
            SymmetricMatrix(3, np.zeros(5))

    def test_rejects_asymmetric_dense(self):
        with pytest.raises(RejectedInputError):
            SymmetricMatrix.from_dense([[1.0, 2.0], [0.0, 1.0]])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_dense(self, bad):
        for dense in ([[1.0, bad], [2.0, 1.0]], [[1.0, bad], [bad, 1.0]], [[bad, 0.0], [0.0, 1.0]]):
            with pytest.raises(RejectedInputError, match="non-finite entry"):
                SymmetricMatrix.from_dense(dense)

    def test_dense_layout_reads_the_upper_triangle_only(self):
        rng = np.random.default_rng(3)
        dense = random_symmetric(7, rng)
        upper = np.asfortranarray(dense)
        upper[np.tril_indices(7, -1)] = np.nan
        m = SymmetricMatrix(7, upper)
        assert m.entries is upper
        np.testing.assert_array_equal(m.to_dense(), dense)

    @pytest.mark.parametrize(
        "entries",
        [np.zeros((3, 3)), np.zeros((3, 3), dtype=np.float32, order="F"), np.zeros((3, 4), order="F")],
        ids=["c_order", "float32", "not_square"],
    )
    def test_rejects_a_dense_array_blas_cannot_read_in_place(self, entries):
        with pytest.raises(RejectedInputError, match="Fortran-order float64"):
            SymmetricMatrix(3, entries)

    @pytest.mark.parametrize(
        "call, match",
        [
            (lambda: SymmetricMatrix(0, np.zeros(0)), "dimension must be >= 1, got 0"),
            (lambda: SymmetricMatrix.from_dense(np.zeros((2, 3))), r"expected a square matrix, got shape \(2, 3\)"),
        ],
        ids=["empty", "not_square"],
    )
    def test_rejects_a_shape_that_is_no_symmetric_matrix(self, call, match):
        with pytest.raises(RejectedInputError, match=match):
            call()


class TestSymMatvec:
    def test_identity(self):
        m = SymmetricMatrix.from_dense(np.eye(2))
        np.testing.assert_array_equal(sym_matvec(m, [3.0, -1.0]), [3.0, -1.0])

    def test_permutation(self):
        m = SymmetricMatrix.from_dense([[0.0, 1.0], [1.0, 0.0]])
        np.testing.assert_array_equal(sym_matvec(m, [2.0, 5.0]), [5.0, 2.0])

    def test_against_naive_two_loop_oracle(self):
        rng = np.random.default_rng(1)
        dense = random_symmetric(8, rng)
        m = SymmetricMatrix.from_dense(dense)
        x = rng.normal(size=8)
        naive = np.array([sum(dense[i, j] * x[j] for j in range(8)) for i in range(8)])
        np.testing.assert_allclose(sym_matvec(m, x), naive, rtol=1e-13, atol=1e-13)

    def test_dense_layout_against_naive_two_loop_oracle(self):
        rng = np.random.default_rng(1)
        dense = random_symmetric(8, rng)
        upper = np.asfortranarray(dense)
        upper[np.tril_indices(8, -1)] = np.nan  # a stale lower triangle must not be read
        x = rng.normal(size=8)
        naive = np.array([sum(dense[i, j] * x[j] for j in range(8)) for i in range(8)])
        np.testing.assert_allclose(sym_matvec(SymmetricMatrix(8, upper), x), naive, rtol=1e-13, atol=1e-13)

    def test_dimension_mismatch(self):
        m = SymmetricMatrix.from_dense(np.eye(3))
        with pytest.raises(RejectedInputError):
            sym_matvec(m, np.ones(4))

    def test_self_adjointness(self):
        rng = np.random.default_rng(2)
        for n in (3, 10, 33):
            m = SymmetricMatrix.from_dense(random_symmetric(n, rng))
            x = rng.normal(size=n)
            y = rng.normal(size=n)
            left = float(np.dot(sym_matvec(m, x), y))
            right = float(np.dot(x, sym_matvec(m, y)))
            assert abs(left - right) <= 1e-9 * max(1.0, abs(left))


class TestJacobi:
    def test_diagonal_input(self):
        m = SymmetricMatrix.from_dense(np.diag([3.0, 1.0, 2.0]))
        eig = jacobi_eigendecomp(m, tol=1e-14)
        np.testing.assert_allclose(eig.eigenvalues, [3.0, 2.0, 1.0], atol=1e-13)
        expected_axes = [0, 2, 1]  # eigenvalue order 3, 2, 1
        for col, axis in enumerate(expected_axes):
            vec = eig.eigenvectors[:, col]
            assert abs(abs(vec[axis]) - 1.0) < 1e-12

    def test_2x2_closed_form(self):
        m = SymmetricMatrix.from_dense([[2.0, 1.0], [1.0, 2.0]])
        eig = jacobi_eigendecomp(m, tol=1e-14)
        np.testing.assert_allclose(eig.eigenvalues, [3.0, 1.0], atol=1e-13)
        v_plus = np.array([1.0, 1.0]) / np.sqrt(2.0)
        v_minus = np.array([1.0, -1.0]) / np.sqrt(2.0)
        assert min(np.linalg.norm(eig.eigenvectors[:, 0] - s * v_plus) for s in (1, -1)) < 1e-12
        assert min(np.linalg.norm(eig.eigenvectors[:, 1] - s * v_minus) for s in (1, -1)) < 1e-12

    def test_reconstruction_16x16(self):
        rng = np.random.default_rng(3)
        dense = random_symmetric(16, rng)
        eig = jacobi_eigendecomp(SymmetricMatrix.from_dense(dense), tol=1e-12)
        q, lam = eig.eigenvectors, eig.eigenvalues
        err = np.linalg.norm(q @ np.diag(lam) @ q.T - dense)
        assert err <= 1e-10 * np.linalg.norm(dense)

    def test_invariants_random_sweep(self):
        rng = np.random.default_rng(4)
        for n in (4, 16, 40):
            for _ in range(5):
                dense = random_symmetric(n, rng)
                eig = jacobi_eigendecomp(SymmetricMatrix.from_dense(dense), tol=1e-12)
                assert np.all(np.diff(eig.eigenvalues) <= 1e-12)
                q = eig.eigenvectors
                assert np.max(np.abs(q.T @ q - np.eye(n))) <= 1e-10
                recon = np.linalg.norm(q @ np.diag(eig.eigenvalues) @ q.T - dense)
                assert recon <= 1e-9 * max(1.0, np.linalg.norm(dense))

    def test_permutation_similarity_invariance(self):
        rng = np.random.default_rng(5)
        n = 12
        dense = random_symmetric(n, rng)
        perm = rng.permutation(n)
        p = np.eye(n)[perm]
        permuted = p @ dense @ p.T
        e1 = jacobi_eigendecomp(SymmetricMatrix.from_dense(dense), tol=1e-12)
        e2 = jacobi_eigendecomp(SymmetricMatrix.from_dense(permuted), tol=1e-12)
        np.testing.assert_allclose(e1.eigenvalues, e2.eigenvalues, rtol=1e-9, atol=1e-9)

    def test_odd_dimension_reconstruction(self):
        # odd n leaves one index out of every round-robin step
        rng = np.random.default_rng(7)
        for n in (5, 33):
            dense = random_symmetric(n, rng)
            eig = jacobi_eigendecomp(SymmetricMatrix.from_dense(dense), tol=1e-12)
            q, lam = eig.eigenvectors, eig.eigenvalues
            recon = np.linalg.norm(q @ np.diag(lam) @ q.T - dense)
            assert recon <= 1e-9 * np.linalg.norm(dense)
            assert np.max(np.abs(q.T @ q - np.eye(n))) <= 1e-10

    def test_skipped_pairs_and_large_tau_raise_no_warning(self):
        dense = np.diag([1e6, -1e6, 1.0, 2.0, 3.0])
        dense[0, 1] = dense[1, 0] = 1e-5  # |tau| = 1e11; the zero pairs are skipped
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            eig = jacobi_eigendecomp(SymmetricMatrix.from_dense(dense), tol=1e-12)
        np.testing.assert_allclose(eig.eigenvalues, [1e6, 3.0, 2.0, 1.0, -1e6], rtol=1e-14)

    @pytest.mark.parametrize("n", [2, 3, 63, 64, 65, 128])
    def test_eigenvalues_match_lapack(self, n):
        # LAPACK serves as a reference here only; the solver itself never calls it
        dense = random_symmetric(n, np.random.default_rng(100 + n))
        eig = jacobi_eigendecomp(SymmetricMatrix.from_dense(dense), tol=1e-12)
        reference = np.linalg.eigh(dense).eigenvalues[::-1]
        assert np.max(np.abs(eig.eigenvalues - reference)) <= 1e-12 * np.linalg.norm(dense)

    def test_equal_diagonal_entries_with_zero_couplings_raise_no_warning(self):
        # the skipped pairs have a_pp == a_qq and a_pq == 0: tau would be 0 / 0
        dense = 2.0 * np.eye(6)
        dense[0, 5] = dense[5, 0] = 1.0
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            eig = jacobi_eigendecomp(SymmetricMatrix.from_dense(dense), tol=1e-12)
        np.testing.assert_allclose(eig.eigenvalues, [3.0, 2.0, 2.0, 2.0, 2.0, 1.0], rtol=0, atol=1e-14)

    def test_sweeps_on_criterion_08_instances(self, monkeypatch):
        # the off-diagonal maximum is taken once up front and once after each sweep
        calls = []
        real = linalg._max_offdiag
        monkeypatch.setattr(linalg, "_max_offdiag", lambda *args: calls.append(1) or real(*args))
        rng = np.random.default_rng(20240810)  # the instances of criterion 08
        sweeps = 0
        for n in (4, 16, 64, 128):
            for _ in range(25):
                dense = random_symmetric(n, rng)
                calls.clear()
                jacobi_eigendecomp(SymmetricMatrix.from_dense(dense), tol=1e-12)
                sweeps += len(calls) - 1
        assert sweeps <= 641

    def test_sweep_cap_raises_with_residual(self, monkeypatch):
        monkeypatch.setattr(linalg, "JACOBI_MAX_SWEEPS", 1)
        dense = random_symmetric(16, np.random.default_rng(8))
        with pytest.raises(NumericalFailureError) as info:
            jacobi_eigendecomp(SymmetricMatrix.from_dense(dense), tol=1e-12)
        assert info.value.residual > 1e-12 * np.linalg.norm(dense)

    def test_rejects_bad_tol_and_large_n(self):
        m = SymmetricMatrix.from_dense(np.eye(2))
        with pytest.raises(RejectedInputError):
            jacobi_eigendecomp(m, tol=0.0)
        with pytest.raises(RejectedInputError):
            jacobi_eigendecomp(SymmetricMatrix.from_dense(np.eye(1025)))



def sweep_counts(monkeypatch, matrices):
    """The sweeps each matrix takes alone, counted by its convergence tests."""
    calls = []
    real = linalg._max_offdiag
    monkeypatch.setattr(linalg, "_max_offdiag", lambda *args: calls.append(1) or real(*args))
    counts = []
    for m in matrices:
        calls.clear()
        jacobi_eigendecomp(m, tol=1e-12)
        counts.append(len(calls) - 1)
    monkeypatch.setattr(linalg, "_max_offdiag", real)
    return counts


class TestJacobiStack:
    # n = 1..10 (m = 2..10) are the shortest slice patterns of the turn
    @pytest.mark.parametrize("n", [*range(1, 11), 31, 32, 65])
    def test_stack_is_bit_identical_to_stacks_of_one(self, monkeypatch, n):
        rng = np.random.default_rng(300 + n)
        dense = [random_symmetric(n, rng) for _ in range(3)]
        dense.append(np.diag(np.arange(1.0, n + 1)) + 1e-6 * random_symmetric(n, rng))  # nearly diagonal
        block = random_symmetric(n, rng)
        block[: n // 2, n // 2 :] = block[n // 2 :, : n // 2] = 0.0  # the pairs across the blocks are skipped
        dense.append(block)
        dense.append(np.zeros((n, n)))  # no sweep at all
        matrices = [SymmetricMatrix.from_dense(d) for d in dense]
        stacked = jacobi_eigendecomp_stack(matrices, tol=1e-12)
        for m, d, eig in zip(matrices, dense, stacked):
            alone = jacobi_eigendecomp(m, tol=1e-12)
            assert eig.eigenvalues.tobytes() == alone.eigenvalues.tobytes()
            assert eig.eigenvectors.tobytes() == alone.eigenvectors.tobytes()
            q, lam, norm = eig.eigenvectors, eig.eigenvalues, np.linalg.norm(d)
            assert np.max(np.abs(lam - np.linalg.eigvalsh(d)[::-1])) <= 1e-12 * norm
            assert np.linalg.norm(q @ np.diag(lam) @ q.T - d) <= 1e-9 * norm
            assert np.max(np.abs(q.T @ q - np.eye(n))) <= 1e-10
        if n > 2:
            # the members leave the stack after different numbers of sweeps
            assert len(set(sweep_counts(monkeypatch, matrices))) >= 3

    def test_matrix_that_does_not_converge_gets_its_own_error(self):
        rng = np.random.default_rng(9)
        matrices = [SymmetricMatrix.from_dense(random_symmetric(8, rng)) for _ in range(3)]
        poisoned = matrices[1].entries.copy()
        poisoned[0] = np.nan  # the off-diagonal maximum is NaN, never under the threshold
        matrices[1] = SymmetricMatrix(8, poisoned)
        stacked = jacobi_eigendecomp_stack(matrices, tol=1e-12)
        assert isinstance(stacked[1], NumericalFailureError)
        assert "tol * ||M||_F = nan is not finite" in str(stacked[1])
        for i in (0, 2):
            alone = jacobi_eigendecomp(matrices[i], tol=1e-12)
            assert stacked[i].eigenvectors.tobytes() == alone.eigenvectors.tobytes()
        with pytest.raises(NumericalFailureError):
            jacobi_eigendecomp(matrices[1], tol=1e-12)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_member_with_non_finite_norm_fails_at_the_first_test(self, monkeypatch, bad):
        calls = []
        real = linalg._max_offdiag
        monkeypatch.setattr(linalg, "_max_offdiag", lambda *args: calls.append(len(args[0])) or real(*args))
        rng = np.random.default_rng(12)
        matrices = [SymmetricMatrix.from_dense(random_symmetric(64, rng)) for _ in range(2)]
        poisoned = matrices[0].entries.copy()
        poisoned[5] = bad  # a_23
        matrices.insert(1, SymmetricMatrix(64, poisoned))
        stacked = jacobi_eigendecomp_stack(matrices, tol=1e-12)
        assert isinstance(stacked[1], NumericalFailureError) and "is not finite" in str(stacked[1])
        assert calls[:2] == [3, 2]  # judged after 0 sweeps, then the stack runs on without it
        calls.clear()
        with pytest.raises(NumericalFailureError, match="is not finite"):
            jacobi_eigendecomp(matrices[1], tol=1e-12)
        assert calls == [1]
        for i in (0, 2):
            alone = jacobi_eigendecomp(matrices[i], tol=1e-12)
            assert stacked[i].eigenvectors.tobytes() == alone.eigenvectors.tobytes()

    def test_member_whose_norm_overflows_is_decomposed(self):
        # every entry is finite, but the sum of squares overflows: the norm is taken scaled by max |a_ij|
        rng = np.random.default_rng(13)
        dense = random_symmetric(64, rng)
        dense[2, 3] = dense[3, 2] = 1e300
        matrices = [SymmetricMatrix.from_dense(random_symmetric(64, rng)), SymmetricMatrix.from_dense(dense)]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            _, eig = jacobi_eigendecomp_stack(matrices, tol=1e-12)
        q, lam, norm = eig.eigenvectors, eig.eigenvalues, np.linalg.norm(dense / 1e300)  # norm in units of 1e300
        assert np.max(np.abs(lam - np.linalg.eigvalsh(dense)[::-1])) / 1e300 <= 1e-12 * norm
        assert np.linalg.norm((q @ np.diag(lam) @ q.T - dense) / 1e300) <= 1e-9 * norm
        assert np.max(np.abs(q.T @ q - np.eye(64))) <= 1e-10

    def test_peak_memory_of_a_power_bound_stack(self):
        # the workload's stack: 8 shifted Wigner matrices at n = 64, four stacks of 256 KiB each
        matrices = []
        for trial in range(8):
            entries = sample_wigner(64, EnsembleSpec("gaussian"), derive_streams(20240810, trial).noise_a).entries / 8.0
            entries[linalg.packed_diagonal_indices(64)] += 3.0
            matrices.append(SymmetricMatrix(64, entries))
        tracemalloc.start()
        try:
            stacked = jacobi_eigendecomp_stack(matrices, tol=1e-12)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert all(isinstance(eig, linalg.EigenDecomp) for eig in stacked)
        # A, V, scratch and rotations (1024 KiB) never live next to all eight members' eigenvectors
        assert peak < 1024 * 1024 + 8 * 64 * 64 * 8

    def test_sweep_cap_fails_each_member_with_its_residual(self, monkeypatch):
        monkeypatch.setattr(linalg, "JACOBI_MAX_SWEEPS", 1)
        rng = np.random.default_rng(10)
        matrices = [SymmetricMatrix.from_dense(s * random_symmetric(16, rng)) for s in (1.0, 100.0)]
        small, large = jacobi_eigendecomp_stack(matrices, tol=1e-12)
        assert 0 < small.residual < large.residual
        assert small.residual > 1e-12 * np.linalg.norm(matrices[0].to_dense())

    def test_one_by_one_members(self):
        values = (-2.5, 0.0)
        stacked = jacobi_eigendecomp_stack([SymmetricMatrix(1, np.array([v])) for v in values])
        for v, eig in zip(values, stacked):
            assert eig.eigenvalues.tolist() == [v]
            assert eig.eigenvectors.tolist() == [[1.0]]

    def test_turn_by_slices_is_the_turn_gather(self):
        rng = np.random.default_rng(11)
        for m in range(2, 1027, 2):
            _, turn = linalg._circle_slots(m)
            x = rng.normal(size=(2, 3, m))
            out = np.empty_like(x)
            linalg._turned(x, out)
            assert out.tobytes() == np.take(x, turn, axis=-1).tobytes()
            if m <= 130:  # as the step calls it on A: read along rows, written through a transposed view
                square = rng.normal(size=(2, m, m))
                out = np.empty_like(square)
                linalg._turned(square, out.transpose(0, 2, 1))
                assert out.tobytes() == np.take(square.transpose(0, 2, 1), turn, axis=1).tobytes()

    def test_empty_and_mixed_stacks(self):
        assert jacobi_eigendecomp_stack([]) == []
        mixed = [SymmetricMatrix.from_dense(np.eye(n)) for n in (2, 3)]
        with pytest.raises(RejectedInputError, match="one size"):
            jacobi_eigendecomp_stack(mixed)
