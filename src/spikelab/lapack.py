"""A partial Hermitian eigensolve on the LAPACK that numpy already loaded.

A replica needs every eigenvalue of M but only the eigenvectors at a few
ranks.  LAPACK does that with one O(N^3) step: the Householder reduction of
M to a real tridiagonal T (?sytrd/?hetrd).  All eigenvalues of T then come
from ?sterf, the selected ones from bisection (dstebz), their vectors from
inverse iteration on T (dstein), and one ?ormtr/?unmtr maps those back.

numpy.linalg wraps only whole eigensolves, but numpy's wheels bundle
scipy-openblas, which exports each LAPACK routine with 64-bit integers as
``scipy_<name>_64_``.  The symbols resolve through the handle of numpy's own
linalg extension, so nothing new is loaded.  ``routines()`` is None where
they do not resolve; the caller then falls back to ``np.linalg.eigh``.
"""

from __future__ import annotations

import ctypes
import functools

import numpy as np

from .errors import NumericalError

# Fortran argument count and how many of the arguments are CHARACTER: gfortran
# passes each one's length as a hidden argument after all the others.
_SIGNATURES = {
    "dsytrd": (10, 1),
    "zhetrd": (10, 1),
    "dsterf": (4, 0),
    "dstebz": (18, 2),
    "dstein": (13, 0),
    "dormtr": (13, 3),
    "zunmtr": (13, 3),
}
# dstebz's ABSTOL: twice the safe minimum, LAPACK's most accurate setting.
_ABSTOL = 2.0 * np.finfo(float).tiny


@functools.cache
def routines():
    """The routines by name, resolved on first use; None unless all resolve."""
    try:
        from numpy.linalg import _umath_linalg

        lib = ctypes.CDLL(_umath_linalg.__file__)
        found = {name: getattr(lib, f"scipy_{name}_64_") for name in _SIGNATURES}
    except (ImportError, OSError, AttributeError):
        return None
    for name, (nargs, nchars) in _SIGNATURES.items():
        found[name].argtypes = [ctypes.c_void_p] * nargs + [ctypes.c_size_t] * nchars
        found[name].restype = None
    return found


def _call(name: str, *args) -> None:
    """Call a routine with every argument by reference; raise unless INFO is 0.

    bytes pass as CHARACTER, an int as INTEGER*8, a float as DOUBLE
    PRECISION and an array as its data, which the caller has made contiguous
    in the routine's dtype.  The arrays stay referenced here until it returns.
    """
    info = np.zeros(1, dtype=np.int64)
    held = [
        np.array([a], dtype=np.int64) if isinstance(a, int)
        else np.array([a], dtype=float) if isinstance(a, float)
        else a
        for a in args
    ] + [info]
    routines()[name](
        *(a if isinstance(a, bytes) else a.ctypes.data for a in held),
        *[1] * _SIGNATURES[name][1],
    )
    if info[0] != 0:
        raise NumericalError(f"LAPACK {name} returned info={int(info[0])}")


def _with_workspace(name: str, dtype, *args) -> None:
    """Call a routine whose last two arguments are WORK and LWORK, at its optimal LWORK."""
    query = np.zeros(1, dtype=dtype)
    _call(name, *args, query, -1)
    work = np.zeros(max(1, int(query[0].real)), dtype=dtype)
    _call(name, *args, work, work.size)


def tridiagonalize(M: np.ndarray):
    """Householder reduction of M's lower triangle: (reflectors, tau, d, e).

    M is copied in Fortran order, so LAPACK reads M's own lower triangle, as
    ``np.linalg.eigvalsh`` does.  A C-order copy would hand it the upper one,
    which differs wherever M is Hermitian only to rounding, as an assembled
    Wishart M is.
    """
    a = np.array(M, dtype=np.result_type(M, float), order="F")
    n = a.shape[0]
    d = np.zeros(n)
    e = np.zeros(max(1, n - 1))
    tau = np.zeros(max(1, n - 1), dtype=a.dtype)
    name = "zhetrd" if np.iscomplexobj(a) else "dsytrd"
    _with_workspace(name, a.dtype, b"L", n, a, max(1, n), d, e, tau)
    return a, tau, d, e


def sterf(d: np.ndarray, e: np.ndarray) -> np.ndarray:
    """All eigenvalues of the tridiagonal (d, e), ascending."""
    lam, work = d.copy(), e.copy()
    _call("dsterf", d.size, lam, work)
    return lam


def eigenpairs(M: np.ndarray, index: np.ndarray):
    """Descending eigenvalues of Hermitian M and its eigenvectors at 0-based ``index``.

    Positions count from the largest eigenvalue.  Bisection finds the
    selected eigenvalues, one dstebz call per contiguous run of positions.
    One dstein call then computes every selected vector, so that vectors of
    a cluster are orthogonalized together even when their positions lie in
    different runs.
    """
    a, tau, d, e = tridiagonalize(M)
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
