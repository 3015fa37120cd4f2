"""A partial Hermitian eigensolve on the LAPACK that numpy already loaded.

A replica needs every eigenvalue of M but only the eigenvectors at a few
ranks.  LAPACK does that with one O(N^3) step: the Householder reduction of
M to a real tridiagonal T (?sytrd/?hetrd).  All eigenvalues of T then come
from ?sterf, the selected ones from bisection (dstebz), their vectors from
inverse iteration on T (dstein), and one ?ormtr/?unmtr maps those back.
Every routine here works in the caller's N x N buffer: the reduction
overwrites M's lower triangle and leaves its strict upper triangle, so M is
still there for the residual check (?symm/?hemm), and the Wishart product
F F* is formed in place by ?lauum or accumulated by ?syrk/?herk.

numpy.linalg wraps only whole eigensolves, but numpy's wheels bundle
scipy-openblas, which exports each LAPACK and BLAS routine with 64-bit
integers as ``scipy_<name>_64_``, and its thread-count control as
``scipy_openblas_{get,set}_num_threads64_``.  The symbols resolve through
the handle of numpy's own linalg extension, so nothing new is loaded.
``routines()`` and ``threads()`` are None where they do not resolve; the
callers then fall back to numpy and to drawing replicas one at a time.
"""

from __future__ import annotations

import ctypes
import functools

import numpy as np

from .errors import NumericalError

# Fortran argument count and how many of the arguments are CHARACTER: gfortran
# passes each one's length as a hidden argument after all the others.  The
# LAPACK routines end with INFO, which ``_call`` supplies; the BLAS ones
# (?syrk, ?herk, ?symm, ?hemm) have none.
_SIGNATURES = {
    "dsytrd": (10, 1),
    "zhetrd": (10, 1),
    "dsterf": (4, 0),
    "dstebz": (18, 2),
    "dstein": (13, 0),
    "dormtr": (13, 3),
    "zunmtr": (13, 3),
    "dlauum": (5, 1),
    "zlauum": (5, 1),
    "dsyrk": (10, 2),
    "zherk": (10, 2),
    "dsymm": (12, 2),
    "zhemm": (12, 2),
}
# dstebz's ABSTOL: twice the safe minimum, LAPACK's most accurate setting.
_ABSTOL = 2.0 * np.finfo(float).tiny


@functools.cache
def _library():
    try:
        from numpy.linalg import _umath_linalg

        return ctypes.CDLL(_umath_linalg.__file__)
    except (ImportError, OSError):
        return None


@functools.cache
def routines():
    """The routines by name, resolved on first use; None unless all resolve."""
    try:
        found = {name: getattr(_library(), f"scipy_{name}_64_") for name in _SIGNATURES}
    except AttributeError:
        return None
    for name, (nargs, nchars) in _SIGNATURES.items():
        found[name].argtypes = [ctypes.c_void_p] * nargs + [ctypes.c_size_t] * nchars
        found[name].restype = None
    return found


@functools.cache
def threads():
    """OpenBLAS's (get, set) thread-count functions; None unless both resolve."""
    try:
        get = _library().scipy_openblas_get_num_threads64_
        put = _library().scipy_openblas_set_num_threads64_
    except AttributeError:
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    put.argtypes, put.restype = [ctypes.c_int], None
    return get, put


def _call(name: str, *args) -> None:
    """Call a routine with every argument by reference; raise unless INFO is 0.

    bytes pass as CHARACTER, an int as INTEGER*8, a float as DOUBLE
    PRECISION, a complex as COMPLEX*16 and an array as its data, which the
    caller has made contiguous in the routine's dtype.  INFO is appended for
    a LAPACK routine.  The arrays stay referenced here until it returns.
    """
    nargs, nchars = _SIGNATURES[name]
    info = np.zeros(1, dtype=np.int64)
    held = [
        np.array([a], dtype=np.int64) if isinstance(a, int)
        else np.array([a], dtype=type(a)) if isinstance(a, (float, complex))
        else a
        for a in args
    ] + [info] * (nargs - len(args))
    routines()[name](
        *(a if isinstance(a, bytes) else a.ctypes.data for a in held),
        *[1] * nchars,
    )
    if info[0] != 0:
        raise NumericalError(f"LAPACK {name} returned info={int(info[0])}")


def _with_workspace(name: str, dtype, *args) -> None:
    """Call a routine whose last two arguments are WORK and LWORK, at its optimal LWORK."""
    query = np.zeros(1, dtype=dtype)
    _call(name, *args, query, -1)
    work = np.zeros(max(1, int(query[0].real)), dtype=dtype)
    _call(name, *args, work, work.size)


def tridiagonalize(a: np.ndarray):
    """Householder reduction of the lower triangle of ``a``, in place: (tau, d, e).

    ``a`` is N x N, Fortran-ordered, float64 or complex128.  LAPACK reads
    its lower triangle, as ``np.linalg.eigvalsh`` does, and overwrites it
    and the diagonal with the reflectors and T; the strict upper triangle
    is left as it was.
    """
    n = a.shape[0]
    d = np.zeros(n)
    e = np.zeros(max(1, n - 1))
    tau = np.zeros(max(1, n - 1), dtype=a.dtype)
    name = "zhetrd" if np.iscomplexobj(a) else "dsytrd"
    _with_workspace(name, a.dtype, b"L", n, a, max(1, n), d, e, tau)
    return tau, d, e


def sterf(d: np.ndarray, e: np.ndarray) -> np.ndarray:
    """All eigenvalues of the tridiagonal (d, e), ascending."""
    lam, work = d.copy(), e.copy()
    _call("dsterf", d.size, lam, work)
    return lam


def eigenpairs(a: np.ndarray, index: np.ndarray):
    """Descending eigenvalues of Hermitian M and its eigenvectors at 0-based ``index``.

    ``a`` holds M, N x N, Fortran-ordered, float64 or complex128.  It is
    reduced in place, and its diagonal is put back on return, so that its
    diagonal and strict upper triangle still hold M.  Positions count from
    the largest eigenvalue.  Bisection finds the selected eigenvalues, one
    dstebz call per contiguous run of positions.  One dstein call then
    computes every selected vector, so that vectors of a cluster are
    orthogonalized together even when their positions lie in different runs.
    """
    diagonal = a.diagonal().copy()
    try:
        tau, d, e = tridiagonalize(a)
        return _eigenpairs(a, tau, d, e, index)
    finally:
        np.fill_diagonal(a, diagonal)


def _eigenpairs(a, tau, d, e, index):
    n = d.size
    lam = sterf(d, e)[::-1].copy()
    if index.size == 0:
        return lam, np.zeros((n, 0), dtype=a.dtype)

    asc = np.sort(n - 1 - index)
    runs = np.split(asc, np.flatnonzero(np.diff(asc) > 1) + 1)
    counts = np.zeros(2, dtype=np.int64)  # dstebz's M and NSPLIT
    vals = np.zeros(n)
    iblock = np.zeros(n, dtype=np.int64)
    isplit = np.zeros(n, dtype=np.int64)  # where T splits: the same on every call
    work, iwork = np.zeros(4 * n), np.zeros(3 * n, dtype=np.int64)
    w, block = [], []
    for run in runs:
        _call(
            "dstebz", b"I", b"B", n, 0.0, 0.0, int(run[0]) + 1, int(run[-1]) + 1, _ABSTOL,
            d, e, counts[:1], counts[1:], vals, iblock, isplit, work, iwork,
        )
        if counts[0] != run.size:
            raise NumericalError(f"dstebz found {counts[0]} of {run.size} eigenvalues")
        # dstebz orders by split block; within the run, ascending value is position.
        order = np.argsort(vals[: run.size], kind="stable")
        w.append(vals[order])
        block.append(iblock[order])
    w, block = np.concatenate(w), np.concatenate(block)
    order = np.lexsort((w, block))  # dstein takes them by block, ascending within it
    m = order.size
    z = np.zeros((n, m), order="F")
    _call(
        "dstein", n, d, e, m, w[order], block[order], isplit, z, n,
        np.zeros(5 * n), np.zeros(n, dtype=np.int64), np.zeros(m, dtype=np.int64),
    )
    column = np.zeros(n, dtype=np.int64)
    column[asc[order]] = np.arange(m)
    V = np.asfortranarray(z[:, column[n - 1 - index]], dtype=a.dtype)
    name = "zunmtr" if np.iscomplexobj(a) else "dormtr"
    _with_workspace(name, a.dtype, b"L", b"L", b"N", n, m, a, max(1, n), tau, V, n)
    return lam, V


def upper_product(a: np.ndarray) -> None:
    """Overwrite the upper triangle of ``a`` with U U*, U that upper triangle (?lauum).

    ``a`` is N x N, Fortran-ordered, float64 or complex128; its strict
    lower triangle is neither read nor written.
    """
    n = a.shape[0]
    name = "zlauum" if np.iscomplexobj(a) else "dlauum"
    _call(name, b"U", n, a, max(1, n))


def add_gram(c: np.ndarray, b: np.ndarray) -> None:
    """Add b b* to the upper triangle of ``c`` (?syrk/?herk).

    ``c`` is N x N and ``b`` N x k, both Fortran-ordered in one dtype,
    float64 or complex128; the strict lower triangle of ``c`` is untouched.
    """
    n, k = b.shape
    name = "zherk" if np.iscomplexobj(c) else "dsyrk"
    _call(name, b"U", b"N", n, k, 1.0, b, max(1, n), 1.0, c, max(1, n))


def upper_times(a: np.ndarray, v: np.ndarray) -> np.ndarray:
    """M v for the Hermitian M held in the diagonal and upper triangle of ``a`` (?symm/?hemm).

    ``v`` is N x k, Fortran-ordered, in the dtype of ``a``.
    """
    n, k = v.shape
    out = np.zeros((n, k), dtype=a.dtype, order="F")
    one, zero = a.dtype.type(1), a.dtype.type(0)
    name = "zhemm" if np.iscomplexobj(a) else "dsymm"
    _call(name, b"L", b"U", n, k, one, a, max(1, n), v, max(1, n), zero, out, max(1, n))
    return out
