"""ctypes binding to the BLAS and LAPACK routines amplab calls, in numpy's bundled OpenBLAS.

numpy's wheels ship OpenBLAS as ``numpy.libs/libscipy_openblas64_-<hash>.so``, built with 64-bit
Fortran INTEGERs (ILP64), every symbol named ``scipy_<routine>64_``. ``import numpy`` has already
mapped it, so opening it beside the numpy package loads no second OpenBLAS and no second thread
pool, and no run imports or maps SciPy; a missing library or symbol raises ImportError naming it.
Each routine is called as ``scipy.linalg`` calls its own copy, so it returns the same bytes, and
ctypes releases the GIL for each call but dsymv's, so that worker threads overlap their packed
applies. Arguments are checked before any pointer is passed; a LAPACK info != 0 raises
NumericalFailureError.
"""

import ctypes
import glob
import os

import numpy as np

from .errors import NumericalFailureError, RejectedInputError

_LIBRARY = "libscipy_openblas64_-*.so"
_PREFIX, _SUFFIX = "scipy_", "64_"

# Fortran takes every argument by reference: scalars by byref, arrays by address, and a
# CHARACTER*1 as a pointer followed, after all the others, by its hidden length. Every INTEGER,
# scalar or array element, is 64 bits wide in this library.
_ptr, _char, _len, _int = ctypes.c_void_p, ctypes.c_char_p, ctypes.c_size_t, ctypes.c_int64
_ONE, _ZERO, _INC = (ctypes.byref(v) for v in (ctypes.c_double(1.0), ctypes.c_double(0.0), _int(1)))


def _open_library(numpy_dir=os.path.dirname(np.__file__)):
    libs = os.path.join(os.path.dirname(numpy_dir), "numpy.libs")
    paths = sorted(glob.glob(os.path.join(libs, _LIBRARY)))
    if not paths:
        raise ImportError(f"numpy's bundled OpenBLAS {_LIBRARY} not found in {libs}")
    return ctypes.CDLL(paths[0])


def _symbol(lib, name, *argtypes):
    try:
        fn = getattr(lib, _PREFIX + name + _SUFFIX)
    except AttributeError:
        raise ImportError(f"{lib._name} exports no {_PREFIX + name + _SUFFIX}") from None
    fn.argtypes, fn.restype = argtypes, None
    return fn


_lib = _open_library()
_dspmv = _symbol(_lib, "dspmv_", _char, *[_ptr] * 8, _len)  # uplo n alpha ap x incx beta y incy
# OpenBLAS already spreads dsymv over every core, so it keeps the GIL (PyDLL): two workers' dense
# applies overlapped measured slower than serialized
_dsymv = _symbol(ctypes.PyDLL(_lib._name), "dsymv_", _char, *[_ptr] * 9, _len)  # uplo n alpha a lda x incx beta y incy
_dsterf = _symbol(_lib, "dsterf_", *[_ptr] * 4)  # n d e info
# range order n vl vu il iu abstol d e m nsplit w iblock isplit work iwork info
_dstebz = _symbol(_lib, "dstebz_", _char, _char, *[_ptr] * 16, _len, _len)
_dstein = _symbol(_lib, "dstein_", *[_ptr] * 13)  # n d e m w iblock isplit z ldz work iwork ifail info


# A matvec streams its matrix through the caches and leaves the Python code around the call cold,
# where a numpy helper costs microseconds: the checks and addresses below keep to attribute reads
# and C calls. Alternated with f2py's dsymv at n = 1000, this wrapper cost 11-13 us more per call,
# and one built on np.size and .ctypes.data 26-27 us more.


def _length(name, v):
    """len(v), once v is a contiguous float64 vector; else RejectedInputError."""
    if not (isinstance(v, np.ndarray) and v.dtype == np.float64 and v.ndim == 1 and v.flags.c_contiguous):
        raise RejectedInputError(f"{name} must be a contiguous float64 vector")
    return v.shape[0]


def _check(name, a, shape, fortran=False):
    if not (isinstance(a, np.ndarray) and a.dtype == np.float64 and a.shape == shape
            and (a.flags.f_contiguous if fortran else a.flags.c_contiguous)):
        raise RejectedInputError(f"{name} must be a {'Fortran' if fortran else 'C'}-order float64 {shape} array")


def _address(a):
    """The data address of a checked vector or Fortran-order matrix, whose .T is C-contiguous."""
    try:
        return ctypes.addressof(ctypes.c_char.from_buffer(a.T))
    except (TypeError, ValueError):  # read-only or empty: the slower general route
        return a.ctypes.data


def _raise_on(routine, info):
    if info.value:
        raise NumericalFailureError(f"LAPACK {routine} failed with info {info.value}")


def symv(a, x):
    """A x for a symmetric A held by its upper triangle a (see ``linalg``): BLAS dspmv on the packed
    triangle, dsymv on a Fortran-order (n, n) array."""
    n = _length("x", x)
    y, size = np.zeros(n), ctypes.byref(_int(n))
    if isinstance(a, np.ndarray) and a.ndim == 2:
        _check("a", a, (n, n), fortran=True)
        _dsymv(b"U", size, _ONE, _address(a), size, _address(x), _INC, _ZERO, _address(y), _INC, 1)
    else:
        _check("packed a", a, (n * (n + 1) // 2,))
        _dspmv(b"U", size, _ONE, _address(a), _address(x), _INC, _ZERO, _address(y), _INC, 1)
    return y


def dsterf(d, e):
    """Ascending eigenvalues of the symmetric tridiagonal with diagonal d and off-diagonal e."""
    n = _length("d", d)
    _check("e", e, (max(n - 1, 0),))
    w, scratch, info = d.copy(), e.copy(), _int()  # dsterf overwrites both
    _dsterf(ctypes.byref(_int(n)), _address(w), _address(scratch), ctypes.byref(info))
    _raise_on("dsterf", info)
    return w


def tridiagonal_eigenpairs(d, e, lo, hi):
    """Eigenpairs lo..hi (0-based, ascending) of the tridiagonal with diagonal d, off-diagonal e.

    dstebz (range 'I', order 'B', abstol 0), dstein, and the eigenvalues sorted
    with their vectors, as ``scipy.linalg.eigh_tridiagonal(d, e, select="i",
    select_range=(lo, hi))`` does. Returns (w, z), z's columns the eigenvectors.
    """
    n = _length("d", d)
    _check("e", e, (n - 1,))
    if not 0 <= lo <= hi < n:
        raise RejectedInputError(f"eigenpair indices {lo}..{hi} outside 0..{n - 1}")
    ref, size, found, nsplit, info = ctypes.byref, _int(n), _int(), _int(), _int()
    # one buffer per type, so that five addresses are read instead of fourteen: w | work (5n),
    # and iblock | isplit | iwork (3n), which dstein reuses as iwork (n) | ifail (m); both of
    # 8-byte elements
    real, ints = np.empty(6 * n), np.empty(5 * n, np.int64)
    d_at, e_at, w, iblock = _address(d), _address(e), _address(real), _address(ints)
    work, isplit, iwork = w + 8 * n, iblock + 8 * n, iblock + 16 * n
    il, iu = ref(_int(lo + 1)), ref(_int(hi + 1))
    _dstebz(b"I", b"B", ref(size), _ZERO, _ONE, il, iu, _ZERO, d_at, e_at, ref(found), ref(nsplit), w, iblock,
            isplit, work, iwork, ref(info), 1, 1)
    _raise_on("dstebz", info)
    z = np.zeros((n, found.value), order="F")
    _dstein(ref(size), d_at, e_at, ref(found), w, iblock, isplit, _address(z), ref(size), work, iwork,
            iwork + 8 * n, ref(info))
    _raise_on("dstein", info)
    order = np.argsort(real[: found.value])
    return real[order], z[:, order]
