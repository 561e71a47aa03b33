"""amplab.openblas, which calls numpy's bundled OpenBLAS, byte for byte against scipy.linalg, which
calls SciPy's own copy; its refused inputs, declarations and import errors."""

import ctypes

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal
from scipy.linalg.blas import dspmv, dsymv
from scipy.linalg.lapack import dsterf

from amplab import openblas
from amplab.errors import NumericalFailureError, RejectedInputError


def rng(seed):
    return np.random.default_rng([seed, 11])


@pytest.mark.parametrize("n", [1, 2, 3, 17, 64, 1000])
class TestMatvecBytes:
    def test_dspmv_is_scipys(self, n):
        ap, x = rng(n).standard_normal(n * (n + 1) // 2), rng(n + 1).standard_normal(n)
        assert openblas.symv(ap, x).tobytes() == dspmv(n, 1.0, ap, x).tobytes()

    def test_dsymv_is_scipys(self, n):
        a, x = np.asfortranarray(rng(n).standard_normal((n, n))), rng(n + 1).standard_normal(n)
        assert openblas.symv(a, x).tobytes() == dsymv(1.0, a, x, lower=0).tobytes()


def tridiagonals():
    """Random tridiagonals of the sizes the gap check meets, and ones that split."""
    for k in (2, 3, 8, 16, 120):
        yield pytest.param(rng(k).standard_normal(k), np.abs(rng(k + 1).standard_normal(k - 1)), id=f"random{k}")
    d, e = rng(5).standard_normal(9), np.abs(rng(6).standard_normal(8))
    e[3] = 0.0  # a Lanczos breakdown: T splits into two blocks
    yield pytest.param(d, e, id="split")
    yield pytest.param(np.array([3.0, -1.0, 2.0, 2.0]), np.zeros(3), id="diagonal")


@pytest.mark.parametrize("d,e", list(tridiagonals()))
class TestTridiagonalBytes:
    def test_ritz_pairs_at_gap_check_indices_are_eigh_tridiagonals(self, d, e):
        k = len(d) - 1
        for lo, hi in ((0, 0), (k - 1, k)):
            w, z = openblas.tridiagonal_eigen(d, e, (lo, hi))
            if (lo, hi) == (0, k):  # every pair (random2): dstevx's dsteqr path
                w_ref, z_ref = eigh_tridiagonal(d, e, lapack_driver="stev")
            else:
                w_ref, z_ref = eigh_tridiagonal(d, e, select="i", select_range=(lo, hi))
            assert w.tobytes() == w_ref.tobytes() and z.tobytes() == z_ref.tobytes()

    def test_dsterf_is_scipys(self, d, e):
        w_ref, info = dsterf(d, e)
        assert info == 0 and openblas.tridiagonal_eigen(d, e).tobytes() == w_ref.tobytes()


def refuse_calls(monkeypatch):
    def called(*args):
        raise AssertionError("a pointer was passed to LAPACK or BLAS")

    for name in ("_dspmv", "_dsymv", "_dstevx"):
        monkeypatch.setattr(openblas, name, called)


class TestRefusedInput:
    x = np.ones(4)

    @pytest.mark.parametrize(
        "ap,x",
        [
            (np.ones(10, dtype=np.float32), x),  # dtype
            (np.ones(10), x.astype(np.int64)),
            (np.ones(9), x),  # length
            (np.ones((2, 5)), x),  # shape
            (np.ones(20)[::2], x),  # not contiguous
            (np.ones(10), np.ones((4, 1))),
            ([1.0] * 10, x),  # not an array
        ],
    )
    def test_dspmv(self, monkeypatch, ap, x):
        refuse_calls(monkeypatch)
        with pytest.raises(RejectedInputError):
            openblas.symv(ap, x)

    @pytest.mark.parametrize(
        "a,x",
        [
            (np.ones((4, 4)), x),  # C order
            (np.ones((4, 4), order="F")[:, :, None], x),
            (np.ones((4, 4), dtype=np.float32, order="F"), x),
            (np.ones((4, 3), order="F"), x),
            (np.ones((3, 3), order="F"), x),  # length
            (np.ones((4, 4), order="F"), np.ones(8)[::2]),
        ],
    )
    def test_dsymv(self, monkeypatch, a, x):
        refuse_calls(monkeypatch)
        with pytest.raises(RejectedInputError):
            openblas.symv(a, x)

    @pytest.mark.parametrize(
        "d,e,lo,hi",
        [
            (np.ones(4), np.ones(4), 0, 0),  # e one too long
            (np.ones(4, dtype=np.float32), np.ones(3), 0, 0),
            (np.ones(4), np.ones(3), 2, 1),  # indices out of order
            (np.ones(4), np.ones(3), 3, 4),  # past the last
            (np.ones(4), np.ones(3), -1, 0),
        ],
    )
    def test_tridiagonal(self, monkeypatch, d, e, lo, hi):
        refuse_calls(monkeypatch)
        with pytest.raises(RejectedInputError):
            openblas.tridiagonal_eigen(d, e, (lo, hi))
        if lo == 0:
            with pytest.raises(RejectedInputError):
                openblas.tridiagonal_eigen(d, e)

    def test_read_only_inputs_are_accepted(self):
        ap, x = np.arange(10.0), np.arange(4.0)
        expected = openblas.symv(ap, x)
        ap.flags.writeable = x.flags.writeable = False
        assert openblas.symv(ap, x).tobytes() == expected.tobytes()


class TestDeclarations:
    def test_character_arguments_take_their_hidden_lengths(self):
        assert openblas._dspmv.argtypes[0] is ctypes.c_char_p and openblas._dspmv.argtypes[-1] is ctypes.c_size_t
        assert openblas._dsymv.argtypes[0] is ctypes.c_char_p and openblas._dsymv.argtypes[-1] is ctypes.c_size_t
        assert openblas._dstevx.argtypes[:2] == (ctypes.c_char_p,) * 2
        assert openblas._dstevx.argtypes[-2:] == (ctypes.c_size_t,) * 2
        assert len(openblas._dstevx.argtypes) == 18 + 2

    def test_lapack_info_becomes_numerical_failure(self, monkeypatch):
        def fail(*args):
            args[17]._obj.value = -2  # dstevx's info: an illegal argument

        monkeypatch.setattr(openblas, "_dstevx", fail)
        with pytest.raises(NumericalFailureError, match="dstevx failed with info -2"):
            openblas.tridiagonal_eigen(np.ones(3), np.ones(2))


class TestMissingLibrary:
    def test_missing_library_is_named(self, tmp_path):
        (tmp_path / "numpy").mkdir()
        (tmp_path / "numpy.libs").mkdir()  # present, but without the library
        with pytest.raises(ImportError, match=r"libscipy_openblas64_-\*\.so not found in .*numpy\.libs"):
            openblas._open_library(str(tmp_path / "numpy"))

    def test_missing_symbol_is_named(self, monkeypatch):
        monkeypatch.setattr(openblas, "_PREFIX", "renamed_")
        with pytest.raises(ImportError, match="exports no renamed_dspmv_64_"):
            openblas._symbol(openblas._lib, "dspmv_", ctypes.c_void_p)
