"""A partial Hermitian eigensolve on the LAPACK that numpy already loaded.

A replica needs every eigenvalue of M but only the eigenvectors at a few
ranks.  LAPACK does that with one O(N^3) step: a unitary reduction of M to
a Hermitian band B of half-bandwidth kd, which then goes down to a real
tridiagonal T.  A real M is reduced by ?sytrd, so B is T itself (kd = 1).
A complex M is reduced in two stages (Bischof, Lang & Sun 2000): full to
band by ?hetrd_he2hb with BLAS-3 kernels, then band to tridiagonal by
bulge chasing in ?hetrd_hb2st, which keeps no vectors.  T and B are
scaled once, by a power of two near 1/||T||; one ?sterf call at that scale
gives every eigenvalue, and the selected ones are the shifts of inverse
iteration on B (?gbtrf, ?gbtrs).  One ?ormqr/?unmqr over the reflectors
below B maps the vectors back to M.  Every routine here works in the
caller's N x N buffer: the reduction overwrites M's lower triangle with
the reflectors and leaves its strict upper triangle, so M is still there
for the residual check (?symm/?hemm), and the Wishart product F F* is
formed in place by ?lauum or accumulated by ?syrk/?herk.

numpy.linalg wraps only whole eigensolves, but numpy's wheels bundle
scipy-openblas, which exports each LAPACK and BLAS routine with 64-bit
integers as ``scipy_<name>_64_``, and its thread-count control as
``scipy_openblas_{get,set}_num_threads64_``.  The symbols resolve through
the handle of numpy's own linalg extension, so nothing new is loaded.
``routines()`` and ``threads()`` are None where they do not resolve.  Only
this module asks ``routines()``: without the routines, ``eigenpairs``,
``upper_product``, ``add_gram`` and ``upper_times`` fall back to
``np.linalg.eigh`` and numpy products, so their callers take one path.
"""

from __future__ import annotations

import ctypes
import functools

import numpy as np

from .errors import NumericalError

# Fortran argument count and how many of the arguments are CHARACTER: gfortran
# passes each one's length as a hidden argument after all the others.  The
# LAPACK routines end with INFO, which ``_call`` supplies; the BLAS ones
# (?syrk, ?herk, ?symm, ?hemm) and dlarnv have none.
_SIGNATURES = {
    "dsytrd": (10, 1),
    "zhetrd_he2hb": (11, 1),
    "zhetrd_hb2st": (14, 3),
    "dsterf": (4, 0),
    "dlarnv": (4, 0),
    "dgbtrf": (8, 0),
    "zgbtrf": (8, 0),
    "dgbtrs": (11, 1),
    "zgbtrs": (11, 1),
    "dormqr": (13, 2),
    "zunmqr": (13, 2),
    "dlauum": (5, 1),
    "zlauum": (5, 1),
    "dsyrk": (10, 2),
    "zherk": (10, 2),
    "dsymm": (12, 2),
    "zhemm": (12, 2),
}
# Half-bandwidth of the band a complex M is reduced to first.  A wider band
# moves work from ?hetrd_hb2st's sequential bulge chasing into
# ?hetrd_he2hb's BLAS-3 kernels, but costs memory: at kd = 32 a replica
# peaked at 1.37 buffers, against 1.21 at 16.
_KD = 16
# Inverse iteration: solves per vector, and the gap, relative to ||M||,
# below which neighbouring eigenvalues form a cluster whose vectors are
# orthogonalized against each other.  Both are dstein's: from an eigenvalue
# accurate to O(eps ||T||), as ?sterf's are, its first solve already meets
# its stopping test, and it then takes two more.
_SOLVES = 3
_CLUSTER_GAP = 1e-3


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


def _call(name: str, *args, singular_ok: bool = False) -> None:
    """Call a routine with every argument by reference; raise unless INFO is 0.

    bytes pass as CHARACTER, an int as INTEGER*8, a float as DOUBLE
    PRECISION, a complex as COMPLEX*16 and an array as its data, which the
    caller has made contiguous in the routine's dtype.  INFO is appended for
    a LAPACK routine.  The arrays stay referenced here until it returns.
    ``singular_ok`` accepts a positive INFO, by which ?gbtrf reports an
    exactly zero pivot of a factorization that it has completed.
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
    if info[0] < 0 or (info[0] > 0 and not singular_ok):
        raise NumericalError(f"LAPACK {name} returned info={int(info[0])}")


def _with_workspace(name: str, dtype, *args) -> None:
    """Call a routine whose last two arguments are WORK and LWORK, at its optimal LWORK."""
    query = np.zeros(1, dtype=dtype)
    _call(name, *args, query, -1)
    work = np.zeros(max(1, int(query[0].real)), dtype=dtype)
    _call(name, *args, work, work.size)


def tridiagonalize(a: np.ndarray):
    """Reduce the lower triangle of ``a`` in place to a real tridiagonal T: (tau, band, d, e).

    ``a`` is N x N, Fortran-ordered, float64 or complex128.  LAPACK reads
    its lower triangle, as ``np.linalg.eigvalsh`` does, and leaves the
    strict upper triangle as it was.  Q* M Q is a Hermitian band B of
    half-bandwidth kd, 1 for a real M (B = T, by ?sytrd) and ``_KD`` for a
    complex one (by ?hetrd_he2hb, whose output band ?hetrd_hb2st then
    reduces to T), in LAPACK's lower band storage: ``band[i, j]`` is
    B[j + i, j].  Q = H(1) ... H(N - kd) is kept in the reflectors below
    the kd-th subdiagonal of ``a`` and their scalars ``tau``, which is zero
    where ?hetrd_he2hb, at N <= kd + 1, only copies M.
    """
    n = a.shape[0]
    d = np.zeros(n)
    e = np.zeros(max(1, n - 1))
    if not np.iscomplexobj(a):
        tau = np.zeros(max(1, n - 1))
        _with_workspace("dsytrd", a.dtype, b"L", n, a, max(1, n), d, e, tau)
        return tau, np.stack([d, np.append(e[: n - 1], 0.0)]), d, e
    band = np.zeros((_KD + 1, n), dtype=a.dtype, order="F")
    tau = np.zeros(max(1, n - _KD), dtype=a.dtype)
    _with_workspace("zhetrd_he2hb", a.dtype, b"L", n, _KD, a, max(1, n), band, _KD + 1, tau)
    # ?hetrd_hb2st overwrites the band; it sizes two workspaces, HOUS and WORK.
    args = (b"N", b"N", b"L", n, _KD, band.copy(order="F"), _KD + 1, d, e)
    hous, work = np.zeros(1, dtype=a.dtype), np.zeros(1, dtype=a.dtype)
    _call("zhetrd_hb2st", *args, hous, -1, work, -1)
    hous, work = (np.zeros(max(1, int(q[0].real)), dtype=a.dtype) for q in (hous, work))
    _call("zhetrd_hb2st", *args, hous, hous.size, work, work.size)
    return tau, band, d, e


def sterf(d: np.ndarray, e: np.ndarray) -> np.ndarray:
    """All eigenvalues of the tridiagonal (d, e), ascending."""
    lam, work = d.copy(), e.copy()
    _call("dsterf", d.size, lam, work)
    return lam


def _band_vectors(band: np.ndarray, w: np.ndarray, norm: float):
    """Eigenvectors, N x len(w), of the Hermitian band B at its ascending eigenvalues ``w``.

    ``band`` is B in lower band storage (see ``tridiagonalize``), and
    ``norm`` is ||B|| > 0.  Each vector is _SOLVES steps of inverse
    iteration with B - w I, factored by ?gbtrf in one buffer that every
    eigenvalue reuses; an exactly zero pivot becomes eps ||B||.  As in
    dstein, the starts are dlarnv's uniform (-1, 1) draws from a fixed seed
    that runs on from vector to vector, so equal eigenvalues get different
    starts, and after each solve a vector is orthogonalized against those
    of the lower eigenvalues of its cluster.
    """
    n = band.shape[1]
    kd = min(band.shape[0] - 1, n - 1)
    lu = np.zeros((3 * kd + 1, n), dtype=band.dtype, order="F")  # rows 0..kd-1 take the fill-in
    ipiv = np.zeros(n, dtype=np.int64)
    seed = np.ones(4, dtype=np.int64)
    start = np.zeros(n)
    Y = np.zeros((n, w.size), dtype=band.dtype, order="F")
    gbtrf, gbtrs = ("zgbtrf", "zgbtrs") if np.iscomplexobj(band) else ("dgbtrf", "dgbtrs")
    first = 0  # the lowest eigenvalue of the current cluster
    for k, shift in enumerate(w):
        lu.fill(0.0)
        lu[2 * kd] = band[0].real - shift
        for i in range(1, kd + 1):
            lu[2 * kd + i, : n - i] = band[i, : n - i]
            lu[2 * kd - i, i:] = band[i, : n - i].conj()
        _call(gbtrf, n, n, kd, kd, lu, 3 * kd + 1, ipiv, singular_ok=True)
        pivots = lu[2 * kd]
        pivots[pivots == 0.0] = np.finfo(float).eps * norm
        if k and shift - w[k - 1] > _CLUSTER_GAP * norm:
            first = k
        _call("dlarnv", 2, seed, n, start)
        x = Y[:, k]
        x[...] = start / np.linalg.norm(start)
        for _ in range(_SOLVES):
            # Only an exactly zero pivot becomes eps ||B||, so a solve grows x by up to
            # 1/min|pivot|: a tiny nonzero pivot can overflow it.
            x *= norm
            _call(gbtrs, b"N", n, kd, kd, 1, lu, 3 * kd + 1, ipiv, x, n)
            for y in Y[:, first:k].T:
                x -= y * np.vdot(y, x)
            x /= np.linalg.norm(x)
    return Y


def eigenpairs(a: np.ndarray, index: np.ndarray):
    """Descending eigenvalues of Hermitian M and its eigenvectors at 0-based ``index``.

    ``a`` holds M, N x N, Fortran-ordered, float64 or complex128.  It is
    reduced in place (see ``tridiagonalize``); its diagonal, which
    ?ormqr/?unmqr do not read, is put back at once, so that its diagonal
    and strict upper triangle still hold M.  Positions count from the
    largest eigenvalue.  One ?sterf call on the scaled T gives every
    eigenvalue, inverse iteration on the scaled B at the selected ones
    their vectors, and one ?ormqr/?unmqr applies Q.
    """
    if routines() is None:
        w, vectors = np.linalg.eigh(a)
        return w[::-1].copy(), vectors[:, ::-1][:, index]
    diagonal = a.diagonal().copy()
    tau, band, d, e = tridiagonalize(a)
    np.fill_diagonal(a, diagonal)
    n = d.size
    # The one scale: an even power of two near 1/||T|| from T's largest entry (within
    # a factor 3 of ||T||; at most 2^1020 for a subnormal T).  Even, so that ?sterf's
    # square roots stay exact: lam is bit for bit ?sterf's wherever it does not rescale T.
    bound = max(np.max(np.abs(d)), np.max(np.abs(e)))
    scale = np.ldexp(1.0, -2 * (max(np.frexp(bound)[1], -1020) // 2))
    w = sterf(d * scale, e * scale)
    asc = np.sort(n - 1 - index)
    Y = _band_vectors(band * scale, w[asc], max(abs(w[0]), abs(w[-1])) or 1.0)
    V = np.asfortranarray(Y[:, np.searchsorted(asc, n - 1 - index)])
    kd = band.shape[0] - 1
    if n > kd:
        name = "zunmqr" if np.iscomplexobj(a) else "dormqr"
        _with_workspace(
            name, a.dtype, b"L", b"N", n - kd, index.size, n - kd, a[kd:], n, tau, V[kd:], n
        )
    return w[::-1] / scale, V


def upper_product(a: np.ndarray) -> None:
    """Overwrite the upper triangle of ``a`` with U U*, U that upper triangle (?lauum).

    ``a`` is N x N, Fortran-ordered, float64 or complex128; its strict
    lower triangle is not read, and is left undefined.
    """
    if routines() is None:
        a[...] = np.triu(a) @ np.triu(a).conj().T
        return
    n = a.shape[0]
    name = "zlauum" if np.iscomplexobj(a) else "dlauum"
    _call(name, b"U", n, a, max(1, n))


def add_gram(c: np.ndarray, b: np.ndarray) -> None:
    """Add b b* to the upper triangle of ``c`` (?syrk/?herk).

    ``c`` is N x N and ``b`` N x k, both Fortran-ordered in one dtype,
    float64 or complex128; the strict lower triangle of ``c`` is left undefined.
    """
    if routines() is None:
        c += b @ b.conj().T
        return
    n, k = b.shape
    name = "zherk" if np.iscomplexobj(c) else "dsyrk"
    _call(name, b"U", b"N", n, k, 1.0, b, max(1, n), 1.0, c, max(1, n))


def upper_times(a: np.ndarray, v: np.ndarray) -> np.ndarray:
    """M v for the Hermitian M held in the diagonal and upper triangle of ``a`` (?symm/?hemm).

    ``v`` is N x k, Fortran-ordered, in the dtype of ``a``.
    """
    if routines() is None:
        return (np.triu(a) + np.triu(a, 1).conj().T) @ v
    n, k = v.shape
    out = np.zeros((n, k), dtype=a.dtype, order="F")
    one, zero = a.dtype.type(1), a.dtype.type(0)
    name = "zhemm" if np.iscomplexobj(a) else "dsymm"
    _call(name, b"L", b"U", n, k, one, a, max(1, n), v, max(1, n), zero, out, max(1, n))
    return out
