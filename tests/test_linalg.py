import warnings

import numpy as np
import pytest

from amplab import linalg
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
    @pytest.mark.parametrize("n", [2, 3, 4, 31, 32, 65])
    def test_stack_is_bit_identical_to_stacks_of_one(self, monkeypatch, n):
        rng = np.random.default_rng(300 + n)
        dense = [random_symmetric(n, rng) for _ in range(3)]
        dense.append(np.diag(np.arange(1.0, n + 1)) + 1e-6 * random_symmetric(n, rng))  # nearly diagonal
        dense.append(np.zeros((n, n)))  # no sweep at all
        matrices = [SymmetricMatrix.from_dense(d) for d in dense]
        stacked = jacobi_eigendecomp_stack(matrices, tol=1e-12)
        for m, eig in zip(matrices, stacked):
            alone = jacobi_eigendecomp(m, tol=1e-12)
            assert eig.eigenvalues.tobytes() == alone.eigenvalues.tobytes()
            assert eig.eigenvectors.tobytes() == alone.eigenvectors.tobytes()
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
        assert "did not converge in 100 sweeps" in str(stacked[1])
        for i in (0, 2):
            alone = jacobi_eigendecomp(matrices[i], tol=1e-12)
            assert stacked[i].eigenvectors.tobytes() == alone.eigenvectors.tobytes()
        with pytest.raises(NumericalFailureError):
            jacobi_eigendecomp(matrices[1], tol=1e-12)

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

    def test_empty_and_mixed_stacks(self):
        assert jacobi_eigendecomp_stack([]) == []
        mixed = [SymmetricMatrix.from_dense(np.eye(n)) for n in (2, 3)]
        with pytest.raises(RejectedInputError, match="one size"):
            jacobi_eigendecomp_stack(mixed)
