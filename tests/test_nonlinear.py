import math

import numpy as np
import pytest

from amplab.errors import RejectedInputError
from amplab.nonlinear import (
    Denoiser,
    TestFunction,
    denoiser_eval,
    denoiser_partial,
    fd_partial,
    scalar_eval,
)

BUILTIN_DENOISERS = [
    Denoiser(kind="identity"),
    Denoiser(kind="scaled_tanh", schedule=(1.0, 2.0, 0.5, 3.0)),
    Denoiser(kind="smooth_soft_threshold", schedule=(0.5, 1.0, 0.7, 0.9), delta=1e-2),
    Denoiser(kind="linear_combo", weights=(0.4, -0.3, 0.2), offset=0.05),
]


class TestDenoiserEval:
    def test_identity_newest_coordinate(self):
        rows = np.array([[2.5], [-1.0], [0.0]])
        out = denoiser_eval(Denoiser(kind="identity"), 2, rows)
        assert out[0] == 2.5

    def test_scaled_tanh_at_origin(self):
        rows = np.zeros((1, 4))
        out = denoiser_eval(Denoiser(kind="scaled_tanh", schedule=(1.0,)), 0, rows)
        np.testing.assert_array_equal(out, np.zeros(4))

    def test_scaled_tanh_scalar_oracle(self):
        f = Denoiser(kind="scaled_tanh", schedule=(2.0,))
        rows = np.full((1, 3), 0.5)
        out = denoiser_eval(f, 0, rows)
        np.testing.assert_allclose(out, math.tanh(1.0), rtol=0, atol=1e-15)

    def test_schedule_too_short_rejected(self):
        f = Denoiser(kind="scaled_tanh", schedule=(1.0,))
        rows = np.zeros((2, 3))
        with pytest.raises(RejectedInputError):
            denoiser_eval(f, 1, rows)

    def test_linear_combo_uses_history(self):
        f = Denoiser(kind="linear_combo", weights=(1.0, 2.0), offset=0.5)
        rows = np.array([[1.0, 0.0], [10.0, 3.0]])  # newest first
        np.testing.assert_allclose(denoiser_eval(f, 1, rows), [21.5, 6.5])

    def test_linear_combo_ignores_missing_history(self):
        f = Denoiser(kind="linear_combo", weights=(1.0, 5.0))
        rows = np.array([[2.0, -1.0]])
        np.testing.assert_allclose(denoiser_eval(f, 0, rows), [2.0, -1.0])

    def test_smooth_soft_threshold_regions(self):
        f = Denoiser(kind="smooth_soft_threshold", schedule=(1.0,), delta=0.1)
        rows = np.array([[0.0, 0.5, 1.0, 2.0, -2.0]])
        out = denoiser_eval(f, 0, rows)
        assert out[0] == 0.0
        assert out[1] == 0.0  # below lam - delta
        assert abs(out[2] - 0.1 * 0.1 / 0.4 * 10) < 1e-12 or out[2] > 0  # smoothed knee
        np.testing.assert_allclose(out[3], 1.0)  # |x| - lam above lam + delta
        np.testing.assert_allclose(out[4], -1.0)

    def test_kinks_are_where_the_second_derivative_jumps(self):
        f = Denoiser(kind="smooth_soft_threshold", schedule=(2.0, 1.0), delta=0.1)
        assert f.kinks(1) == pytest.approx((-1.1, -0.9, 0.9, 1.1), abs=1e-15)
        h = 1e-3

        def jump(x):
            # right-sided minus left-sided second difference at x
            vals = scalar_eval(f, 1, x + h * np.arange(-2.0, 3.0))
            return (vals[4] - 2 * vals[3] + 2 * vals[1] - vals[0]) / h**2

        # f'' is sign(x) / (2 delta) on the knees lam - delta < |x| < lam + delta, else 0
        for x in f.kinks(1):
            assert jump(x) == pytest.approx((5.0 if abs(x) < 1.0 else -5.0), rel=1e-6)
        for x in (-2.0, -1.0, 0.0, 0.5, 1.0, 3.0):
            assert abs(jump(x)) <= 1e-6
        for g in BUILTIN_DENOISERS:
            if g.kind != "smooth_soft_threshold":
                assert g.kinks(1) == ()

    def test_smooth_soft_threshold_requires_lam_ge_delta(self):
        with pytest.raises(RejectedInputError):
            Denoiser(kind="smooth_soft_threshold", schedule=(0.001,), delta=0.01)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(0)
        rows = rng.normal(size=(3, 20))
        perm = rng.permutation(20)
        for f in BUILTIN_DENOISERS:
            out = denoiser_eval(f, 2, rows)
            out_perm = denoiser_eval(f, 2, rows[:, perm])
            np.testing.assert_array_equal(out[perm], out_perm)


class TestPartials:
    def test_identity_partials(self):
        rows = np.ones((3, 5))
        np.testing.assert_array_equal(denoiser_partial(Denoiser(kind="identity"), 2, 2, rows), np.ones(5))
        np.testing.assert_array_equal(denoiser_partial(Denoiser(kind="identity"), 2, 1, rows), np.zeros(5))
        np.testing.assert_array_equal(denoiser_partial(Denoiser(kind="identity"), 2, 0, rows), np.zeros(5))

    def test_scaled_tanh_derivative_at_origin(self):
        f = Denoiser(kind="scaled_tanh", schedule=(3.0,))
        rows = np.zeros((1, 4))
        np.testing.assert_allclose(denoiser_partial(f, 0, 0, rows), np.full(4, 3.0))

    def test_fd_identity(self):
        rows = np.random.default_rng(1).normal(size=(2, 6))
        np.testing.assert_allclose(
            fd_partial(Denoiser(kind="identity"), 1, 1, rows, h=1e-5), np.ones(6), atol=1e-10
        )

    def test_fd_flat_function(self):
        f = Denoiser(kind="scaled_tanh", schedule=(0.0, 0.0))
        rows = np.random.default_rng(2).normal(size=(2, 6))
        np.testing.assert_allclose(fd_partial(f, 1, 1, rows, h=1e-5), np.zeros(6), atol=1e-12)

    @pytest.mark.parametrize(
        "f",
        [*BUILTIN_DENOISERS, pytest.param(Denoiser(kind="linear_combo", weights=(0.4,)), id="linear_combo_one_weight")],
        ids=lambda f: f.kind,
    )
    def test_analytic_matches_fd(self, f):
        rng = np.random.default_rng(3)
        k = 3
        rows = rng.normal(size=(k + 1, 64))
        for j in range(k + 1):
            analytic = denoiser_partial(f, k, j, rows)
            numeric = fd_partial(f, k, j, rows, h=1e-5)
            np.testing.assert_allclose(analytic, numeric, rtol=0, atol=1e-6)

    def test_bad_argument_index(self):
        with pytest.raises(RejectedInputError):
            denoiser_partial(Denoiser(kind="identity"), 1, 2, np.zeros((2, 3)))

    def test_fd_bad_step(self):
        with pytest.raises(RejectedInputError):
            fd_partial(Denoiser(kind="identity"), 0, 0, np.zeros((1, 2)), h=0.0)


@pytest.mark.parametrize(
    "call, match",
    [
        (lambda: Denoiser("smooth_soft_threshold", (0.5,), delta=0.0), "smoothing width must be positive, got 0.0"),
        (lambda: Denoiser("linear_combo"), "linear_combo requires weights or a nonzero offset"),
        (lambda: denoiser_eval(Denoiser("identity"), 1, np.zeros((3, 4))), r"rows must have shape .* got \(3, 4\)"),
        (lambda: TestFunction("cubic"), "unknown test function kind 'cubic'"),
    ],
    ids=["zero_width", "empty_linear_combo", "rows_height", "unknown_test_function"],
)
def test_nonlinear_refuses_bad_input(call, match):
    with pytest.raises(RejectedInputError, match=match):
        call()


class TestTestFunctions:
    def test_last_coord_clipped_inside_range(self):
        tf = TestFunction("last_coord_clipped", clip=10.0)
        assert tf.pair_eval(-2.0, 3.0) == 3.0  # (x_0, x_k) = (-2, 3)

    def test_last_coord_clipped_clips(self):
        tf = TestFunction("last_coord_clipped", clip=1.5)
        assert tf.pair_eval(3.0, 3.0) == 1.5  # k = 0: both arguments are x_0

    def test_tanh_product_zero_factor(self):
        tf = TestFunction("tanh_product")
        assert tf.pair_eval(1.0, 0.0) == 0.0

    def test_raw_overlap_product(self):
        tf = TestFunction("raw_overlap")
        assert tf.pair_eval(3.0, 2.0) == 6.0

    def test_se_pair_form(self):
        tf = TestFunction("se_pair")
        # w = x_0 = -0.7 is clipped, y = x_k = 1.2 goes through tanh
        assert tf.pair_eval(-0.7, 1.2) == pytest.approx(-0.7 * math.tanh(1.2))
        assert tf.pair_eval(-20.0, 1.2) == pytest.approx(-10.0 * math.tanh(1.2))

    def test_bad_clip_rejected(self):
        with pytest.raises(RejectedInputError):
            TestFunction("last_coord_clipped", clip=0.0)


class TestLipschitzCertificates:
    """10^4 random pairs per function against the documented constants."""

    def _pairs(self, k, count, scale=3.0):
        rng = np.random.default_rng(42)
        x = rng.normal(size=(k + 1, count)) * scale
        y = rng.normal(size=(k + 1, count)) * scale
        return x, y

    @pytest.mark.parametrize(
        "f, constant",
        [
            (Denoiser(kind="identity"), 1.0),
            (Denoiser(kind="scaled_tanh", schedule=(1.0, 2.0, 0.5)), 2.0),
            (Denoiser(kind="smooth_soft_threshold", schedule=(0.5, 0.8, 1.0)), 1.0),
            (Denoiser(kind="linear_combo", weights=(0.4, -0.3, 0.2)), math.sqrt(0.29)),
        ],
        ids=lambda v: getattr(v, "kind", v),
    )
    def test_denoiser_certificates(self, f, constant):
        k = 2
        x, y = self._pairs(k, 10_000)
        fx = denoiser_eval(f, k, x)
        fy = denoiser_eval(f, k, y)
        dist = np.sqrt(np.sum((x - y) ** 2, axis=0))
        assert np.all(np.abs(fx - fy) <= constant * dist + 1e-12)

    @pytest.mark.parametrize(
        "kind, constant",
        [("last_coord_clipped", 1.0), ("tanh_product", 2.0), ("se_pair", None)],
    )
    def test_testfunction_certificates(self, kind, constant):
        tf = TestFunction(kind)
        expected = constant if constant is not None else math.sqrt(1.0 + tf.clip**2)
        k = 2
        x, y = self._pairs(k, 10_000)
        # phi reads (x_0, x_k), the last and first rows; the distance spans all rows
        fx = tf.pair_eval(x[-1], x[0])
        fy = tf.pair_eval(y[-1], y[0])
        dist = np.sqrt(np.sum((x - y) ** 2, axis=0))
        assert np.all(np.abs(fx - fy) <= expected * dist + 1e-12)
