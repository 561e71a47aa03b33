import math
import re
import sys
from types import SimpleNamespace

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
from amplab.nonlinear import Denoiser, TestFunction
from mixed_noise import MixedNoise


KINDS = [("gaussian", None), ("rademacher", None), ("uniform", None), ("centered_bernoulli", 0.3)]


def zeros(n):
    return SymmetricMatrix.from_dense(np.zeros((n, n)))


def read_only(buf):
    buf.flags.writeable = False
    return buf


def one_shot(spec, stream, n):
    """Each law's formula for all n(n+1)/2 entries in one call, in packed order, the zero diagonal applied."""
    size = packed_length(n)
    if spec.kind == "gaussian":
        ref = stream.standard_normal(size)
    elif spec.kind == "rademacher":
        ref = stream.integers(0, 2, size=size, dtype=np.int32) * 2.0 - 1.0
    elif spec.kind == "uniform":
        ref = stream.uniform(-math.sqrt(3.0), math.sqrt(3.0), size=size)
    else:
        b = (stream.random(size) < spec.param).astype(np.float64)
        ref = (b - spec.param) / math.sqrt(spec.param * (1.0 - spec.param))
    if spec.diagonal_policy == "zero":
        ref[packed_diagonal_indices(n)] = 0.0
    return ref


def assert_one_shot_draw(n, spec, stream, ref_stream, layout):
    """Draw into layout ("new", "packed" or "dense"): one_shot's bytes from ref_stream, stream state included."""
    if layout == "new":
        out = None
    else:  # NaN-filled, so every entry of the triangle must be overwritten
        out = np.full(packed_length(n) if layout == "packed" else (n, n), np.nan, order="F")
    mat = sample_wigner(n, spec, stream, out=out)
    ref = one_shot(spec, ref_stream, n)
    col, row = np.tril_indices(n)  # the upper triangle in packed (column) order
    got = mat.entries[row, col] if layout == "dense" else mat.entries
    assert got.tobytes() == ref.tobytes()
    assert out is None or mat.entries is out
    assert stream.bit_generator.state == ref_stream.bit_generator.state
    return mat, ref


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

    def test_largest_seed_is_accepted(self):
        top = derive_streams((1 << 64) - 1, 0).shared.standard_normal(8)
        assert not np.array_equal(top, derive_streams(0, 0).shared.standard_normal(8))


NAN, INF = math.nan, math.inf


def test_library_specs_take_integers_and_numpy_numbers():
    assert Denoiser("scaled_tanh", (np.float32(1.5), 2)).schedule == (1.5, 2.0)
    assert Denoiser("linear_combo", (), (np.int64(1),), offset=np.float64(0.5)).weights == (1.0,)
    assert PriorSpec("three_point", (-1, 0, 1), (0.5, 0, np.float64(0.5))).values == (-1.0, 0.0, 1.0)
    SpikeSpec(np.int64(2))
    TestFunction("se_pair", np.float32(3.0))
    EnsembleSpec("centered_bernoulli", np.float64(0.25))


def test_an_infinite_clip_clips_nothing():
    assert TestFunction("last_coord_clipped", INF).pair_eval(0.0, [-1e300, 1e300]).tolist() == [-1e300, 1e300]


GAUSSIAN = EnsembleSpec("gaussian")
SEED = "need master_seed in [0, 2**64), trial_index >= 0; got "
BAD_OUT = "out must be a writeable contiguous float64[55] or a writeable Fortran-order float64 (10, 10) array"
T_GRID = "interpolation needs a 1-D t-grid in [0, 1], got "
TWO_ROWS = "expected 2 rows of length 3, got shape "
THREE_POINT = "three_point values and probabilities must be finite, got "


def not_finite(kind, fields):
    return f"{kind} parameters must be finite, got Denoiser(kind={kind!r}, {fields}"


def draw_10(stream, out):
    return sample_wigner(10, GAUSSIAN, stream, out=out)


def interpolated(t_grid, n=3):
    return InterpolatedNoise(zeros(n), zeros(n), t_grid)


def spiked(noise):
    return build_spiked(noise, SpikeSpec.rank_one(2.0), np.ones(noise.n))


# id, call on a stream, the message it raises
REFUSED = [
    ("diagonal_policy", lambda s: EnsembleSpec("gaussian", diagonal_policy="half"), "unknown diagonal policy 'half'"),
    ("ensemble_kind", lambda s: EnsembleSpec("cauchy"), "unknown ensemble kind 'cauchy'"),
    ("bernoulli_p_none", lambda s: EnsembleSpec("centered_bernoulli"), "requires p in (0, 1), got None"),
    ("bernoulli_p_0", lambda s: EnsembleSpec("centered_bernoulli", 0.0), "requires p in (0, 1), got 0.0"),
    ("bernoulli_p_1", lambda s: EnsembleSpec("centered_bernoulli", 1.0), "requires p in (0, 1), got 1.0"),
    ("bernoulli_p_negative", lambda s: EnsembleSpec("centered_bernoulli", -0.3), "requires p in (0, 1), got -0.3"),
    ("bernoulli_p_above_1", lambda s: EnsembleSpec("centered_bernoulli", 1.5), "requires p in (0, 1), got 1.5"),
    ("prior_kind", lambda s: PriorSpec("cauchy"), "unknown prior kind 'cauchy'"),
    ("three_point_length", lambda s: PriorSpec("three_point", (-1.0, 1.0), (0.5, 0.5)),
     "needs 3 values and 3 probabilities"),
    ("prior_values", lambda s: PriorSpec("rademacher", (1.0,)), "rademacher prior takes no values/probs"),
    ("three_point_variance", lambda s: PriorSpec("three_point", (-1.0, 0.0, 1.0), (0.25, 0.5, 0.25)),
     "three_point prior must have mean 0 and variance 1, got mean=0, var=0.5"),
    ("three_point_probabilities", lambda s: PriorSpec("three_point", (-1.0, 0.0, 1.0), (0.5, 0.2, 0.2)),
     "probabilities must sum to 1, got (0.5, 0.2, 0.2)"),
    ("prior_value_nan", lambda s: PriorSpec("three_point", (NAN, 0.0, 1.0), (0.2, 0.5, 0.3)),
     THREE_POINT + "(nan, 0.0, 1.0) (0.2, 0.5, 0.3)"),
    ("prior_prob_nan", lambda s: PriorSpec("three_point", (-1.0, 0.0, 1.0), (NAN, 0.5, 0.5)),
     THREE_POINT + "(-1.0, 0.0, 1.0) (nan, 0.5, 0.5)"),
    ("prior_infinite_values", lambda s: PriorSpec("three_point", (-INF, 0.0, INF), (0.25, 0.5, 0.25)),
     THREE_POINT + "(-inf, 0.0, inf) (0.25, 0.5, 0.25)"),
    ("prior_value_str", lambda s: PriorSpec("three_point", ("a", 0.0, 1.0), (0.2, 0.5, 0.3)),
     "three_point value must be a real number, got 'a'"),
    ("bernoulli_p_str", lambda s: EnsembleSpec("centered_bernoulli", "x"),
     "centered_bernoulli p must be a real number, got 'x'"),
    ("spike_nan", lambda s: SpikeSpec(NAN), "spike SNR must be >= 0 and finite, got nan"),
    ("spike_inf", lambda s: SpikeSpec(INF), "spike SNR must be >= 0 and finite, got inf"),
    ("spike_str", lambda s: SpikeSpec("x"), "spike SNR must be a real number, got 'x'"),
    ("spike_none", lambda s: SpikeSpec(None), "spike SNR must be a real number, got None"),
    ("spike_bool", lambda s: SpikeSpec(True), "spike SNR must be a real number, got True"),
    ("tanh_nan", lambda s: Denoiser("scaled_tanh", (NAN,)), not_finite("scaled_tanh", "schedule=(nan,)")),
    ("tanh_inf", lambda s: Denoiser("scaled_tanh", (INF,)), not_finite("scaled_tanh", "schedule=(inf,)")),
    ("tanh_schedule_str", lambda s: Denoiser("scaled_tanh", ("x",)), "schedule entry must be a real number, got 'x'"),
    ("soft_threshold_delta_nan", lambda s: Denoiser("smooth_soft_threshold", (0.5,), delta=NAN),
     not_finite("smooth_soft_threshold", "schedule=(0.5,), weights=(), offset=0.0, delta=nan")),
    ("soft_threshold_delta_none", lambda s: Denoiser("smooth_soft_threshold", (0.5,), delta=None),
     "delta must be a real number, got None"),
    ("combo_weight_inf", lambda s: Denoiser("linear_combo", (), (1.0, -INF)),
     not_finite("linear_combo", "schedule=(), weights=(1.0, -inf)")),
    ("combo_offset_nan", lambda s: Denoiser("linear_combo", (), (), NAN),
     not_finite("linear_combo", "schedule=(), weights=(), offset=nan")),
    ("combo_offset_str", lambda s: Denoiser("linear_combo", (), (), "x"), "offset must be a real number, got 'x'"),
    ("clip_nan", lambda s: TestFunction("tanh_product", NAN), "clip bound must be positive, got nan"),
    ("clip_str", lambda s: TestFunction("se_pair", "x"), "clip bound must be a real number, got 'x'"),
    ("trial_negative", lambda s: derive_streams(7, -1), SEED + "7, -1"),
    # masked to 64 bits, -1 would alias 2**64 - 1 and 2**64 would alias 0
    ("seed_negative", lambda s: derive_streams(-1, 0), SEED + "-1, 0"),
    ("seed_2_64", lambda s: derive_streams(1 << 64, 0), SEED + "18446744073709551616, 0"),
    ("wigner_n", lambda s: sample_wigner(0, GAUSSIAN, s), "dimension must be >= 1, got 0"),
    ("prior_n", lambda s: sample_prior(0, PriorSpec("gaussian"), s), "dimension must be >= 1, got 0"),
    # the samplers read any object with .kind as a spec
    ("wigner_spec_like", lambda s: sample_wigner(3, SimpleNamespace(kind="cauchy", diagonal_policy="same_law"), s),
     "unknown ensemble kind 'cauchy'"),
    ("prior_spec_like", lambda s: sample_prior(3, SimpleNamespace(kind="cauchy"), s), "unknown prior kind 'cauchy'"),
    ("out_wrong_length", lambda s: draw_10(s, np.empty(packed_length(10) + 1)), BAD_OUT),
    ("out_float32", lambda s: draw_10(s, np.empty(packed_length(10), np.float32)), BAD_OUT),
    ("out_non_contiguous", lambda s: draw_10(s, np.empty(2 * packed_length(10))[::2]), BAD_OUT),
    ("out_two_dimensional", lambda s: draw_10(s, np.empty((5, 11))), BAD_OUT),
    ("dense_c_order", lambda s: draw_10(s, np.empty((10, 10))), BAD_OUT),
    ("dense_float32", lambda s: draw_10(s, np.empty((10, 10), np.float32, "F")), BAD_OUT),
    ("dense_read_only", lambda s: draw_10(s, read_only(np.empty((10, 10), order="F"))), BAD_OUT),
    ("dense_too_many_rows", lambda s: draw_10(s, np.empty((11, 10), order="F")), BAD_OUT),
    ("dense_too_many_columns", lambda s: draw_10(s, np.empty((10, 11), order="F")), BAD_OUT),
    ("spike_negative", lambda s: SpikeSpec.rank_one(-0.5), "spike SNR must be >= 0 and finite, got -0.5"),
    ("prior_vector_missing", lambda s: build_spiked(zeros(3), SpikeSpec.rank_one(1.0)),
     "spike sourced from the prior requires prior_vector"),
    ("prior_vector_length", lambda s: build_spiked(zeros(3), SpikeSpec.rank_one(1.0), np.ones(4)),
     "prior vector length (4,) does not match n=3"),
    ("matvec_length_matrix", lambda s: spiked(sample_wigner(20, GAUSSIAN, s)).apply(np.ones(21)),
     "vector length (21,) does not match n=20"),
    ("matvec_length_interpolated", lambda s: spiked(interpolated([0.5], 20)).apply(np.ones((1, 21))),
     "vector length (21,) does not match n=20"),
    ("interpolation_dimensions", lambda s: InterpolatedNoise(zeros(3), zeros(4), [0.5]), "dimensions differ: 3 vs 4"),
    ("single_t_half", lambda s: interpolated(0.5), T_GRID + "0.5"),
    ("single_t_0", lambda s: interpolated(0.0), T_GRID + "0.0"),
    ("single_t_numpy_1", lambda s: interpolated(np.float64(1.0)), T_GRID + "1.0"),
    ("t_negative", lambda s: interpolated([-0.1]), T_GRID + "[-0.1]"),
    ("t_above_1", lambda s: interpolated([1.5]), T_GRID + "[1.5]"),
    ("t_nan", lambda s: interpolated([math.nan]), T_GRID + "[nan]"),
    ("t_one_outside", lambda s: interpolated([0.5, 1.5]), T_GRID + "[0.5, 1.5]"),
    ("block_one_vector", lambda s: interpolated([0.0, 0.5]).apply(np.ones(3)), TWO_ROWS + "(3,)"),
    ("block_three_rows", lambda s: interpolated([0.0, 0.5]).apply(np.ones((3, 3))), TWO_ROWS + "(3, 3)"),
    ("block_three_dimensional", lambda s: interpolated([0.0, 0.5]).apply(np.ones((2, 2, 3))), TWO_ROWS + "(2, 2, 3)"),
    ("block_row_length", lambda s: interpolated([0.0, 0.5]).apply(np.ones((2, 4))),
     "vector length (4,) does not match n=3"),
]


@pytest.mark.parametrize("call, message", [row[1:] for row in REFUSED], ids=[row[0] for row in REFUSED])
def test_specs_and_samplers_refuse_bad_input(call, message):
    with pytest.raises(RejectedInputError, match=re.escape(message)):
        call(derive_streams(1, 0).noise_a)


class TestEnsembleSpecs:
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


# every kind at n = 1, 2 (its last column spreads onto itself), 3 and 401 (80601 entries, past one chunk);
# rademacher, whose signs are read from the raw words, also at n = 7, 250 and 1000
DRAWS = [(kind, param, n) for kind, param in KINDS for n in (1, 2, 3, 401)]
DRAWS += [("rademacher", None, n) for n in (7, 250, 1000)]


class TestSampleWigner:
    @pytest.mark.parametrize("layout", ["new", "packed", "dense"])
    @pytest.mark.parametrize("policy", ["same_law", "zero"])
    @pytest.mark.parametrize("kind, param, n", DRAWS)
    def test_two_draws_hold_the_one_shot_bytes(self, kind, param, n, policy, layout):
        size = packed_length(n)
        assert n != 401 or (size % ensembles._DRAW_CHUNK != 0 and size > ensembles._DRAW_CHUNK)
        spec = EnsembleSpec(kind, param, policy)
        stream, ref_stream = derive_streams(17, n).noise_a, derive_streams(17, n).noise_a
        x = np.random.default_rng(15).normal(size=n)
        for _ in range(2):  # an odd entry count leaves a half-word buffered, so the second draw starts on it
            mat, ref = assert_one_shot_draw(n, spec, stream, ref_stream, layout)
            packed = SymmetricMatrix(n, ref)
            full = mat.to_dense()
            assert np.array_equal(full, full.T) and np.array_equal(full, packed.to_dense())
            got = build_spiked(mat, SpikeSpec()).apply(x)
            np.testing.assert_allclose(got, build_spiked(packed, SpikeSpec()).apply(x), rtol=0, atol=1e-13)

    @pytest.mark.parametrize("layout", ["new", "packed", "dense"])
    @pytest.mark.parametrize("kind", ["gaussian", "rademacher"])
    @pytest.mark.parametrize("chunk", [1, 2, 3, 5, 6, 7, 11])
    def test_chunks_ending_at_every_offset(self, monkeypatch, chunk, kind, layout):
        # small chunks end at every offset within a column, the column's last entry included
        monkeypatch.setattr(ensembles, "_DRAW_CHUNK", chunk)
        stream, ref_stream = derive_streams(19, 0).noise_a, derive_streams(19, 0).noise_a
        stream.integers(0, 2, dtype=np.int32)  # start on a buffered half-word
        ref_stream.integers(0, 2, dtype=np.int32)
        for n in (12, 5):  # 78 then 15 entries
            assert_one_shot_draw(n, EnsembleSpec(kind), stream, ref_stream, layout)

    def test_rademacher_draw_refuses_a_big_endian_host(self, monkeypatch):
        # the raw words' uint32 view lists each word's low half first only on a little-endian host
        monkeypatch.setattr(sys, "byteorder", "big")
        with pytest.raises(NotImplementedError, match="little-endian"):
            sample_wigner(4, EnsembleSpec("rademacher"), derive_streams(1, 0).noise_a)


class TestSamplePrior:
    def test_rademacher_support(self):
        u = sample_prior(5, PriorSpec("rademacher"), derive_streams(1, 0).shared)
        assert set(np.unique(u)) <= {-1.0, 1.0}

    def test_three_point_valid(self):
        # variance p*2 = 1 at p = 0.5 with values +-sqrt(2)
        r = math.sqrt(2.0)
        prior = PriorSpec("three_point", values=(-r, 0.0, r), probs=(0.25, 0.5, 0.25))
        u = sample_prior(2000, prior, derive_streams(6, 0).shared)
        assert set(np.unique(u)) <= {-r, 0.0, r}
        assert abs(float(np.var(u)) - 1.0) < 0.1

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
        n, grid, gamma = 50, [0.0, 0.25, 0.6, 1.0], 2.0
        streams = derive_streams(5, 0)
        u0 = sample_prior(n, PriorSpec("rademacher"), streams.shared)
        mat_a = sample_wigner(n, EnsembleSpec("rademacher"), streams.noise_a)
        mat_g = sample_wigner(n, EnsembleSpec("gaussian"), streams.noise_g)
        op = build_spiked(InterpolatedNoise(mat_a, mat_g, grid), SpikeSpec.rank_one(gamma), u0)
        x = np.random.default_rng(13).normal(size=(len(grid), n))
        y = op.apply(x)
        for r, t in enumerate(grid):
            # oracle: materialize (sqrt(t) A + sqrt(1-t) G) / sqrt(n) + gamma u0 u0^T / n
            mixed = math.sqrt(t) * mat_a.to_dense() + math.sqrt(1.0 - t) * mat_g.to_dense()
            full = mixed / math.sqrt(n) + gamma * np.outer(u0, u0) / n
            assert float(np.max(np.abs(y[r] - full @ x[r]))) <= 1e-12

    def test_block_rows_are_the_single_t_bytes_and_endpoints_the_pure_ones(self, monkeypatch):
        n, grid = 41, [0.0, 0.25, 0.9, 1.0]
        streams = derive_streams(6, 0)
        u0 = sample_prior(n, PriorSpec("rademacher"), streams.shared)
        mat_a = sample_wigner(n, EnsembleSpec("rademacher"), streams.noise_a)
        mat_g = sample_wigner(n, EnsembleSpec("gaussian"), streams.noise_g)
        x = np.random.default_rng(15).normal(size=(len(grid), n))
        spike = SpikeSpec.rank_one(2.0)
        block = build_spiked(InterpolatedNoise(mat_a, mat_g, grid), spike, u0).apply(x)
        singles = [build_spiked(MixedNoise(mat_a, mat_g, t), spike, u0).apply(x[r]) for r, t in enumerate(grid)]
        assert [row.tobytes() for row in block] == [y.tobytes() for y in singles]
        assert singles[0].tobytes() == build_spiked(mat_g, spike, u0).apply(x[0]).tobytes()
        assert singles[-1].tobytes() == build_spiked(mat_a, spike, u0).apply(x[-1]).tobytes()
        calls = []
        real = ensembles.sym_matvec
        monkeypatch.setattr(ensembles, "sym_matvec", lambda m, v: calls.append(m is mat_a) or real(m, v))
        InterpolatedNoise(mat_a, mat_g, grid).apply(x)
        assert calls == [False, True, False, True, False, True]  # G; A and G twice; A

    def test_a_block_of_one_vector_applies_a_and_g_once(self, monkeypatch):
        n, grid = 30, [0.0, 0.5, 0.75, 1.0]
        mat_a = sample_wigner(n, EnsembleSpec("rademacher"), derive_streams(7, 0).noise_a)
        mat_g = sample_wigner(n, EnsembleSpec("gaussian"), derive_streams(7, 0).noise_g)
        x = np.random.default_rng(16).normal(size=n)
        calls = []
        real = ensembles.sym_matvec
        monkeypatch.setattr(ensembles, "sym_matvec", lambda m, v: calls.append(m is mat_a) or real(m, v))
        block = InterpolatedNoise(mat_a, mat_g, grid).apply(np.tile(x, (len(grid), 1)))
        assert calls == [False, True]
        singles = [MixedNoise(mat_a, mat_g, t).apply(x) for t in grid]
        assert [row.tobytes() for row in block] == [y.tobytes() for y in singles]
