import math

import numpy as np
import pytest

from amplab import ensembles
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
from amplab.errors import RejectedInputError
from amplab.linalg import SymmetricMatrix, packed_diagonal_indices, packed_length, sym_matvec


KINDS = [("gaussian", None), ("rademacher", None), ("uniform", None), ("centered_bernoulli", 0.3)]


def zeros(n):
    return SymmetricMatrix.from_dense(np.zeros((n, n)))


def _assert_rademacher_draw(n, spec, stream, ref_stream, layout):
    """One draw from stream equals 2 b - 1 for the bits of ref_stream.integers, state included."""
    out = None if layout == "packed" else np.full((n, n), np.nan, order="F")
    mat = sample_wigner(n, spec, stream, out=out)
    ref = ref_stream.integers(0, 2, size=packed_length(n), dtype=np.int32) * 2.0 - 1.0
    if spec.diagonal_policy == "zero":
        ref[packed_diagonal_indices(n)] = 0.0
    col, row = np.tril_indices(n)  # the upper triangle in packed (column) order
    got = mat.entries if layout == "packed" else out[row, col]
    assert got.tobytes() == ref.tobytes()
    assert stream.bit_generator.state == ref_stream.bit_generator.state


class TestStreams:
    def test_determinism(self):
        a = derive_streams(7, 0)
        b = derive_streams(7, 0)
        for name in ("shared", "noise_a", "noise_g"):
            np.testing.assert_array_equal(
                getattr(a, name).standard_normal(256),
                getattr(b, name).standard_normal(256),
            )

    def test_distinct_trials(self):
        a = derive_streams(7, 0).shared.standard_normal(10_000)
        b = derive_streams(7, 1).shared.standard_normal(10_000)
        assert np.any(a != b)

    def test_noise_streams_uncorrelated(self):
        streams = derive_streams(123, 0)
        a = streams.noise_a.standard_normal(100_000)
        g = streams.noise_g.standard_normal(100_000)
        corr = float(np.corrcoef(a, g)[0, 1])
        assert -0.02 < corr < 0.02

    def test_role_symmetry(self):
        # swapping the stream labels exchanges the sampled matrices, nothing else
        ens = EnsembleSpec("gaussian")
        s1 = derive_streams(9, 3)
        s2 = derive_streams(9, 3)
        mat_from_a = sample_wigner(20, ens, s1.noise_a)
        mat_from_g = sample_wigner(20, ens, s1.noise_g)
        swapped_a = sample_wigner(20, ens, s2.noise_g)
        swapped_g = sample_wigner(20, ens, s2.noise_a)
        np.testing.assert_array_equal(mat_from_a.entries, swapped_g.entries)
        np.testing.assert_array_equal(mat_from_g.entries, swapped_a.entries)

    def test_negative_trial_rejected(self):
        with pytest.raises(RejectedInputError):
            derive_streams(7, -1)


class TestEnsembleSpecs:
    def test_invalid_bernoulli_p(self):
        for p in (None, 0.0, 1.0, -0.3, 1.5):
            with pytest.raises(RejectedInputError):
                EnsembleSpec("centered_bernoulli", param=p)

    def test_unknown_kind(self):
        with pytest.raises(RejectedInputError):
            EnsembleSpec("cauchy")

    @pytest.mark.parametrize(
        "spec",
        [
            EnsembleSpec("gaussian"),
            EnsembleSpec("rademacher"),
            EnsembleSpec("uniform"),
            EnsembleSpec("centered_bernoulli", param=0.3),
        ],
    )
    def test_normalization(self, spec):
        stream = derive_streams(5, 0).noise_a
        mat = sample_wigner(120, spec, stream)
        dense = mat.to_dense()
        off = dense[np.triu_indices(120, k=1)]
        assert abs(float(np.mean(off))) < 4.0 / math.sqrt(off.size)
        assert abs(float(np.var(off)) - 1.0) < 0.05


class TestSampleWigner:
    def test_rademacher_support(self):
        mat = sample_wigner(30, EnsembleSpec("rademacher"), derive_streams(1, 0).noise_a)
        assert set(np.unique(mat.entries)) <= {-1.0, 1.0}

    def test_determinism_same_stream_state(self):
        spec = EnsembleSpec("uniform")
        m1 = sample_wigner(25, spec, derive_streams(4, 2).noise_a)
        m2 = sample_wigner(25, spec, derive_streams(4, 2).noise_a)
        np.testing.assert_array_equal(m1.entries, m2.entries)

    def test_gaussian_law_of_large_numbers(self):
        mat = sample_wigner(200, EnsembleSpec("gaussian"), derive_streams(8, 0).noise_g)
        off = mat.to_dense()[np.triu_indices(200, k=1)]
        assert abs(float(np.mean(off))) < 4.0 / math.sqrt(200 * 199 / 2)
        assert abs(float(np.var(off)) - 1.0) < 0.05

    def test_exact_symmetry(self):
        mat = sample_wigner(40, EnsembleSpec("gaussian"), derive_streams(2, 0).noise_a)
        dense = mat.to_dense()
        np.testing.assert_array_equal(dense, dense.T)

    def test_zero_diagonal_policy(self):
        spec = EnsembleSpec("rademacher", diagonal_policy="zero")
        mat = sample_wigner(17, spec, derive_streams(3, 0).noise_a)
        assert np.all(np.diag(mat.to_dense()) == 0.0)

    @pytest.mark.parametrize("policy", ["same_law", "zero"])
    @pytest.mark.parametrize(
        "kind, param",
        [("gaussian", None), ("rademacher", None), ("uniform", None), ("centered_bernoulli", 0.3)],
    )
    def test_chunked_draw_matches_one_shot_formulas(self, kind, param, policy):
        # 401 * 402 / 2 = 80601 entries: more than one chunk and an odd remainder
        n = 401
        size = packed_length(n)
        assert size % ensembles._DRAW_CHUNK != 0 and size > ensembles._DRAW_CHUNK
        mat = sample_wigner(n, EnsembleSpec(kind, param, policy), derive_streams(13, 0).noise_a)
        rng = derive_streams(13, 0).noise_a
        if kind == "gaussian":
            ref = rng.standard_normal(size)
        elif kind == "rademacher":
            ref = rng.integers(0, 2, size=size).astype(np.float64) * 2.0 - 1.0
        elif kind == "uniform":
            ref = rng.uniform(-math.sqrt(3.0), math.sqrt(3.0), size=size)
        else:
            b = (rng.random(size) < param).astype(np.float64)
            ref = (b - param) / math.sqrt(param * (1.0 - param))
        if policy == "zero":
            ref[packed_diagonal_indices(n)] = 0.0
        assert mat.entries.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("policy", ["same_law", "zero"])
    @pytest.mark.parametrize(
        "kind, param",
        [("gaussian", None), ("rademacher", None), ("uniform", None), ("centered_bernoulli", 0.3)],
    )
    def test_out_buffer_gets_the_same_bytes(self, kind, param, policy):
        n = 401
        spec = EnsembleSpec(kind, param, policy)
        buf = np.full(packed_length(n), np.nan)  # every entry must be overwritten
        mat = sample_wigner(n, spec, derive_streams(13, 0).noise_a, out=buf)
        ref = sample_wigner(n, spec, derive_streams(13, 0).noise_a)
        assert np.shares_memory(mat.entries, buf)
        assert buf.tobytes() == ref.entries.tobytes()

    @pytest.mark.parametrize(
        "buf",
        [
            np.empty(packed_length(10) + 1),
            np.empty(packed_length(10), dtype=np.float32),
            np.empty(2 * packed_length(10))[::2],
            np.empty((5, 11)),
        ],
        ids=["wrong_length", "float32", "non_contiguous", "two_dimensional"],
    )
    def test_bad_out_buffer_rejected(self, buf):
        with pytest.raises(RejectedInputError, match="out must be"):
            sample_wigner(10, EnsembleSpec("gaussian"), derive_streams(1, 0).noise_a, out=buf)


    @pytest.mark.parametrize("policy", ["same_law", "zero"])
    @pytest.mark.parametrize("kind, param", KINDS)
    # n = 2 spreads its last column onto itself; n = 401 draws 80601 entries, past one chunk
    @pytest.mark.parametrize("n", [1, 2, 3, 401])
    def test_dense_buffer_holds_the_packed_bytes_in_its_upper_triangle(self, n, kind, param, policy):
        spec = EnsembleSpec(kind, param, policy)
        packed_stream, dense_stream = derive_streams(13, 0).noise_a, derive_streams(13, 0).noise_a
        ref = sample_wigner(n, spec, packed_stream)
        buf = np.full((n, n), np.nan, order="F")
        mat = sample_wigner(n, spec, dense_stream, out=buf)
        assert mat.entries is buf
        col, row = np.tril_indices(n)  # the upper triangle in packed (column) order
        assert buf[row, col].tobytes() == ref.entries.tobytes()
        assert dense_stream.bit_generator.state == packed_stream.bit_generator.state

    @pytest.mark.parametrize("chunk", [1, 2, 3, 5, 6, 7, 11])
    def test_dense_draw_for_every_chunk_boundary(self, monkeypatch, chunk):
        # small chunks end at every offset within a column, the column's last entry included
        monkeypatch.setattr(ensembles, "_DRAW_CHUNK", chunk)
        n, spec = 12, EnsembleSpec("gaussian")
        ref = sample_wigner(n, spec, derive_streams(5, 0).noise_a)
        buf = np.full((n, n), np.nan, order="F")
        sample_wigner(n, spec, derive_streams(5, 0).noise_a, out=buf)
        col, row = np.tril_indices(n)
        assert buf[row, col].tobytes() == ref.entries.tobytes()

    @pytest.mark.parametrize("layout", ["packed", "dense"])
    @pytest.mark.parametrize("policy", ["same_law", "zero"])
    @pytest.mark.parametrize("n", [1, 2, 3, 7, 250, 401, 1000])
    def test_rademacher_signs_are_the_bits_of_integers(self, n, policy, layout):
        # an odd entry count leaves a half-word buffered, so the second draw starts on it
        spec = EnsembleSpec("rademacher", diagonal_policy=policy)
        stream, ref_stream = derive_streams(17, n).noise_a, derive_streams(17, n).noise_a
        for _ in range(2):
            _assert_rademacher_draw(n, spec, stream, ref_stream, layout)

    @pytest.mark.parametrize("layout", ["packed", "dense"])
    @pytest.mark.parametrize("chunk", [1, 2, 3, 5, 7, 11])
    def test_rademacher_signs_for_chunks_ending_at_odd_offsets(self, monkeypatch, chunk, layout):
        monkeypatch.setattr(ensembles, "_DRAW_CHUNK", chunk)
        stream, ref_stream = derive_streams(19, 0).noise_a, derive_streams(19, 0).noise_a
        stream.integers(0, 2, dtype=np.int32)  # start on a buffered half-word
        ref_stream.integers(0, 2, dtype=np.int32)
        for n in (12, 5):  # 78 then 15 entries
            _assert_rademacher_draw(n, EnsembleSpec("rademacher"), stream, ref_stream, layout)

    @pytest.mark.parametrize("policy", ["same_law", "zero"])
    @pytest.mark.parametrize("kind, param", KINDS)
    def test_dense_apply_ignores_a_stale_lower_triangle(self, kind, param, policy):
        n = 401
        spec = EnsembleSpec(kind, param, policy)
        buf = np.full((n, n), np.nan, order="F")  # the lower triangle keeps stale values, never read
        mat = sample_wigner(n, spec, derive_streams(13, 0).noise_a, out=buf)
        ref = sample_wigner(n, spec, derive_streams(13, 0).noise_a)
        x = np.random.default_rng(15).normal(size=n)
        got = build_spiked(mat, SpikeSpec()).apply(x)
        np.testing.assert_allclose(got, build_spiked(ref, SpikeSpec()).apply(x), rtol=0, atol=1e-13)
        full = mat.to_dense()
        assert np.array_equal(full, full.T)
        assert np.array_equal(full, ref.to_dense())

    @pytest.mark.parametrize(
        "shape, order, dtype, writeable",
        [
            ((10, 10), "C", np.float64, True),
            ((10, 10), "F", np.float32, True),
            ((10, 10), "F", np.float64, False),
            ((11, 10), "F", np.float64, True),
            ((10, 11), "F", np.float64, True),
        ],
        ids=["c_order", "float32", "read_only", "too_many_rows", "too_many_columns"],
    )
    def test_bad_dense_buffer_rejected(self, shape, order, dtype, writeable):
        buf = np.empty(shape, dtype=dtype, order=order)
        buf.flags.writeable = writeable
        with pytest.raises(RejectedInputError, match="out must be"):
            sample_wigner(10, EnsembleSpec("gaussian"), derive_streams(1, 0).noise_a, out=buf)


class TestSamplePrior:
    def test_rademacher_support(self):
        u = sample_prior(5, PriorSpec("rademacher"), derive_streams(1, 0).shared)
        assert set(np.unique(u)) <= {-1.0, 1.0}

    def test_three_point_bad_variance_rejected(self):
        with pytest.raises(RejectedInputError):
            PriorSpec("three_point", values=(-1.0, 0.0, 1.0), probs=(0.25, 0.5, 0.25))

    def test_three_point_valid(self):
        # variance p*2 = 1 at p = 0.5 with values +-sqrt(2)
        r = math.sqrt(2.0)
        prior = PriorSpec("three_point", values=(-r, 0.0, r), probs=(0.25, 0.5, 0.25))
        u = sample_prior(2000, prior, derive_streams(6, 0).shared)
        assert set(np.unique(u)) <= {-r, 0.0, r}
        assert abs(float(np.var(u)) - 1.0) < 0.1

    def test_bad_probabilities_rejected(self):
        with pytest.raises(RejectedInputError):
            PriorSpec("three_point", values=(-1.0, 0.0, 1.0), probs=(0.5, 0.2, 0.2))

    def test_uniform_variance(self):
        u = sample_prior(10_000, PriorSpec("uniform_sqrt3"), derive_streams(7, 0).shared)
        assert abs(float(np.var(u)) - 1.0) < 0.05


class TestSpikedOperator:
    def test_pure_rank_one_arithmetic(self):
        op = build_spiked(zeros(2), SpikeSpec.rank_one(1.0), np.array([1.0, 1.0]))
        np.testing.assert_allclose(op.apply(np.array([1.0, 1.0])), [1.0, 1.0], atol=1e-15)

    def test_empty_spike(self):
        rng = np.random.default_rng(9)
        dense = rng.normal(size=(6, 6))
        dense = (dense + dense.T) / 2.0
        op = build_spiked(SymmetricMatrix.from_dense(dense), SpikeSpec())
        x = rng.normal(size=6)
        np.testing.assert_allclose(op.apply(x), dense @ x / math.sqrt(6), rtol=1e-13)

    def test_against_dense_materialization_oracle(self):
        rng = np.random.default_rng(10)
        n = 16
        dense = rng.normal(size=(n, n))
        dense = (dense + dense.T) / 2.0
        u0 = rng.choice([-1.0, 1.0], size=n)
        gamma = 1.7
        op = build_spiked(SymmetricMatrix.from_dense(dense), SpikeSpec.rank_one(gamma), u0)
        # oracle: materialize X/sqrt(n) + gamma u0 u0^T / n densely
        full = dense / math.sqrt(n) + gamma * np.outer(u0, u0) / n
        x = rng.normal(size=n)
        assert float(np.max(np.abs(op.apply(x) - full @ x))) <= 1e-12

    def test_linearity(self):
        rng = np.random.default_rng(11)
        n = 12
        dense = rng.normal(size=(n, n))
        dense = (dense + dense.T) / 2.0
        u0 = rng.normal(size=n)
        op = build_spiked(SymmetricMatrix.from_dense(dense), SpikeSpec.rank_one(0.8), u0)
        x = rng.normal(size=n)
        y = rng.normal(size=n)
        lhs = op.apply(2.0 * x - 3.0 * y)
        rhs = 2.0 * op.apply(x) - 3.0 * op.apply(y)
        scale_ref = float(np.max(np.abs(rhs))) or 1.0
        assert float(np.max(np.abs(lhs - rhs))) <= 1e-10 * scale_ref

    def test_prior_vector_required(self):
        with pytest.raises(RejectedInputError):
            build_spiked(zeros(3), SpikeSpec.rank_one(1.0))
        with pytest.raises(RejectedInputError):
            build_spiked(zeros(3), SpikeSpec.rank_one(1.0), np.ones(4))

    @pytest.mark.parametrize("interpolated", [False, True], ids=["matrix", "interpolated"])
    def test_wrong_length_vector_refused_by_the_noise_matvec(self, interpolated):
        mat = sample_wigner(20, EnsembleSpec("gaussian"), derive_streams(4, 0).noise_a)
        noise = InterpolatedNoise(mat, mat, 0.5) if interpolated else mat
        op = build_spiked(noise, SpikeSpec.rank_one(2.0), np.ones(20))
        with pytest.raises(RejectedInputError, match=r"vector length \(21,\) does not match n=20"):
            op.apply(np.ones(21))

    def test_negative_gamma_rejected(self):
        with pytest.raises(RejectedInputError, match="spike SNR must be >= 0"):
            SpikeSpec.rank_one(-0.5)

    def test_zero_gamma_adds_no_spike_term(self):
        mat = sample_wigner(20, EnsembleSpec("gaussian"), derive_streams(4, 0).noise_a)
        x = np.random.default_rng(14).normal(size=20)
        spiked = build_spiked(mat, SpikeSpec.rank_one(0.0), np.ones(20)).apply(x)
        assert spiked.tobytes() == build_spiked(mat, SpikeSpec()).apply(x).tobytes()

    def test_matrix_noise_applies_the_packed_matvec_bytes(self):
        rng = np.random.default_rng(12)
        mat = sample_wigner(30, EnsembleSpec("gaussian"), derive_streams(3, 0).noise_a)
        x = rng.normal(size=30)
        got = build_spiked(mat, SpikeSpec()).apply(x)
        assert got.tobytes() == (sym_matvec(mat, x) * (1.0 / math.sqrt(30))).tobytes()


class TestInterpolatedNoise:
    def test_against_dense_mixed_matrix_oracle(self):
        n, t, gamma = 50, 0.25, 2.0
        streams = derive_streams(5, 0)
        u0 = sample_prior(n, PriorSpec("rademacher"), streams.shared)
        mat_a = sample_wigner(n, EnsembleSpec("rademacher"), streams.noise_a)
        mat_g = sample_wigner(n, EnsembleSpec("gaussian"), streams.noise_g)
        op = build_spiked(InterpolatedNoise(mat_a, mat_g, t), SpikeSpec.rank_one(gamma), u0)
        # oracle: materialize (sqrt(t) A + sqrt(1-t) G) / sqrt(n) + gamma u0 u0^T / n
        mixed = math.sqrt(t) * mat_a.to_dense() + math.sqrt(1.0 - t) * mat_g.to_dense()
        full = mixed / math.sqrt(n) + gamma * np.outer(u0, u0) / n
        x = np.random.default_rng(13).normal(size=n)
        assert float(np.max(np.abs(op.apply(x) - full @ x))) <= 1e-12

    def test_mismatched_dimensions_rejected(self):
        with pytest.raises(RejectedInputError):
            InterpolatedNoise(zeros(3), zeros(4), 0.5)

    @pytest.mark.parametrize("t", [-0.1, 1.5])
    def test_t_outside_unit_interval_rejected(self, t):
        with pytest.raises(RejectedInputError):
            InterpolatedNoise(zeros(3), zeros(3), t)
