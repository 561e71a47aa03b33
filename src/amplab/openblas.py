"""ctypes binding to the BLAS and LAPACK routines amplab calls, in numpy's bundled OpenBLAS.

numpy's wheels ship OpenBLAS as ``numpy.libs/libscipy_openblas64_-<hash>.so``, built with 64-bit
Fortran INTEGERs (ILP64), every symbol named ``scipy_<routine>64_``. ``import numpy`` has already
mapped it, so opening it beside the numpy package loads no second OpenBLAS and no second thread
pool, and no run imports or maps SciPy; a missing library or symbol raises ImportError naming it.
It binds dspmv, dsymv and dstevx, which itself makes the dstebz, dstein and dsterf calls that
``scipy.linalg`` makes, so each returns the bytes SciPy's own copy does; ctypes releases the GIL
for each call but dsymv's, so that worker threads overlap their packed applies. Arguments are
checked before any pointer is passed; a LAPACK info != 0 raises NumericalFailureError.
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
# jobz range n d e vl vu il iu abstol m w z ldz work iwork ifail info
_dstevx = _symbol(_lib, "dstevx_", _char, _char, *[_ptr] * 16, _len, _len)


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


def tridiagonal_eigen(d, e, select=None):
    """Ascending eigenvalues of the symmetric tridiagonal with diagonal d and off-diagonal e, or,
    for select = (lo, hi), 0-based, the pairs lo..hi as (w, z), z's columns the eigenvectors.

    One LAPACK dstevx call with abstol 0. Every eigenvalue comes from its dsterf path, as
    ``scipy.linalg.lapack.dsterf(d, e)``; a selection from dstebz (order 'B'), dstein and a sort,
    as ``scipy.linalg.eigh_tridiagonal(d, e, select="i", select_range=(lo, hi))``, or, when it
    selects every pair, from dsteqr, as ``eigh_tridiagonal(d, e, lapack_driver="stev")``.
    """
    n = _length("d", d)
    _check("e", e, (max(n - 1, 0),))
    lo, hi = (0, n - 1) if select is None else select
    if select is not None and not 0 <= lo <= hi < n:
        raise RejectedInputError(f"eigenpair indices {lo}..{hi} outside 0..{n - 1}")
    jobz, which = (b"N", b"A") if select is None else (b"V", b"I")  # dstevx's JOBZ and RANGE
    ref, found, info = ctypes.byref, _int(), _int()
    d, e = d.copy(), e.copy()  # dstevx scales both in place when T's norm is extreme
    w, z = np.empty(n), np.empty((1, 1) if select is None else (n, hi - lo + 1), order="F")
    work, iwork, ifail = np.empty(5 * n), np.empty(5 * n, np.int64), np.empty(n, np.int64)
    _dstevx(jobz, which, ref(_int(n)), _address(d), _address(e), _ZERO, _ZERO, ref(_int(lo + 1)),
            ref(_int(hi + 1)), _ZERO, ref(found), _address(w), _address(z), ref(_int(z.shape[0])),
            _address(work), _address(iwork), _address(ifail), ref(info), 1, 1)
    _raise_on("dstevx", info)
    return w if select is None else (w[: found.value], z[:, : found.value])
