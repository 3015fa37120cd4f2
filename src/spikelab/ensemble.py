"""Finite-N spiked models: deterministic perturbation, noise sampling, spectra.

The perturbation A_N is always diagonal: spike eigenvalues (with multiplicity)
plus deterministic quantiles of the bulk limit nu, sorted descending.  That
makes each spike's eigenspace a coordinate subspace: rank r is coordinate
r - 1, so a spike's ranks index its block and the eigenvector observables
reduce to coordinate sums.  Only this module turns a rank into a coordinate.
Wishart noise enters only through B B*, so Gaussian entries are drawn as the
upper-triangular N x N Bartlett factor of B rather than B itself.
A replica computes every eigenvalue of M but only the r eigenvectors at the
spike ranks, from one unitary reduction of M to a band and a real
tridiagonal, and checks what it returns relative to ||M||.  It draws the
noise, assembles M and reduces it in one N x N buffer, which a caller
drawing many replicas can reuse.  A spec checks sigma2, c, nu and its spikes'
domain only through the limiting-law context that it builds once, ``limit``.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from . import free_additive, free_multiplicative, lapack
from .errors import DomainError, NumericalError, SpecError
from .measure import AtomicMeasure, positive_int, quantile_discretize, real_number
from .measure import spike_multiplicity

KINDS = ("additive_wigner", "multiplicative_wishart")
ENTRY_LAWS = ("gaussian", "rademacher")
FIELDS = ("real_symmetric", "complex_hermitian")

EIGEN_RESIDUAL_TOL = 1e-7
GRAM_TOL = 1e-8
UNIT_SLACK = 1e-8
# Side of the square tiles of the Hermitian check: its temporaries are this squared.
_CHECK_TILE = 64


def _check_draw(entry_law: str, field: str, **sizes) -> None:
    """Raise SpecError unless the law and field are known and every size is a positive integer."""
    if entry_law not in ENTRY_LAWS:
        raise SpecError(f"entry_law must be one of {ENTRY_LAWS}, got {entry_law!r}")
    if field not in FIELDS:
        raise SpecError(f"field must be one of {FIELDS}, got {field!r}")
    for name, size in sizes.items():
        positive_int(size, name)


@dataclasses.dataclass(frozen=True)
class SpikedModelSpec:
    """Complete description of one spiked random matrix model.

    ``N`` may be None for a model used only through its limiting law; it
    must be set before a sample is drawn.  A spike multiplicity may be given
    as an integral float (as JSON writes 1.0) and is stored as an int.
    ``limit`` is the context of the limit at sigma2 or at the requested c,
    and ``family`` the module that evaluates it.
    """

    kind: str
    nu: AtomicMeasure
    spikes: tuple[tuple[float, int], ...]
    N: int | None
    seed: int
    sigma2: float | None = None
    c: float | None = None
    entry_law: str = "gaussian"
    field: str = "complex_hermitian"
    limit: object = dataclasses.field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise SpecError(f"kind must be one of {KINDS}, got {self.kind!r}")
        _check_draw(self.entry_law, self.field, **({} if self.N is None else {"N": self.N}))
        seed = self.seed
        if not isinstance(seed, int) or isinstance(seed, bool) or not 0 <= seed < 2**64:
            raise SpecError(f"seed must be an unsigned 64-bit integer, got {seed!r}")

        try:
            pairs = [(real_number(theta, "spike theta"), mult) for theta, mult in self.spikes]
        except (TypeError, ValueError):
            raise SpecError(
                f"spikes must be (theta, multiplicity) pairs, got {self.spikes!r}"
            ) from None
        spikes = [(theta, spike_multiplicity(mult)) for theta, mult in pairs]
        thetas = [t for t, _ in spikes]
        if any(nxt >= prev for nxt, prev in zip(thetas[1:], thetas)):
            raise SpecError("spike thetas must be strictly decreasing")
        r = sum(k for _, k in spikes)
        if self.N is not None and r > self.N:
            raise SpecError(f"total spike multiplicity {r} exceeds N={self.N}")
        object.__setattr__(self, "spikes", tuple(spikes))

        if self.kind == "additive_wigner":
            if self.sigma2 is None:
                raise SpecError("additive model requires sigma2")
            if self.c is not None:
                raise SpecError("additive model does not take an aspect ratio c")
            limit = free_additive.AdditiveContext(self.nu, self.sigma2)
            object.__setattr__(self, "sigma2", limit.sigma2)
        else:
            if self.c is None:
                raise SpecError("multiplicative model requires an aspect ratio c")
            if self.sigma2 is not None:
                raise SpecError("multiplicative model does not take sigma2")
            limit = free_multiplicative.MultiplicativeContext(self.nu, self.c)
            object.__setattr__(self, "c", limit.c)
        try:
            for theta in thetas:
                limit._offsets(theta)
        except DomainError as exc:
            raise SpecError(str(exc)) from None
        object.__setattr__(self, "limit", limit)

    @property
    def family(self):
        return free_additive if self.kind == "additive_wigner" else free_multiplicative

    @property
    def rank(self) -> int:
        return sum(k for _, k in self.spikes)


@dataclasses.dataclass(frozen=True, eq=False)
class EnsembleSample:
    """One diagonalized draw: spectrum plus spike bookkeeping.

    spike_ranks[j] are the 1-based positions of spike j's copies among the
    descending eigenvalues of A_N.  They also index its eigenspace
    Ker(theta_j I - A_N): rank r is coordinate r - 1.  eigenvectors is
    N x r: the vectors at the flattened spike_ranks, in that order, so
    spike j's vectors are one slice of columns.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    spike_ranks: tuple[tuple[int, ...], ...]


def sample_size(spec: SpikedModelSpec) -> int:
    """``spec.N``; a SpecError for a model without N, which has a limit but no finite sample."""
    if spec.N is None:
        raise SpecError("drawing a finite-N sample requires N")
    return spec.N


def build_perturbation(spec: SpikedModelSpec):
    """Diagonal of A_N (descending) and the 1-based ranks of each spike's copies.

    The ranks of spike j are where the diagonal equals theta_j: the bulk
    holds atoms of nu, and the spec keeps every spike off them.
    """
    N, r = sample_size(spec), spec.rank
    bulk = quantile_discretize(spec.nu, N - r) if N > r else []
    vals = np.concatenate([np.full(k, t) for t, k in spec.spikes] + [np.asarray(bulk, dtype=float)])
    diag = vals[np.argsort(-vals, kind="stable")]
    ranks = tuple(tuple(int(i) + 1 for i in np.flatnonzero(diag == t)) for t, _ in spec.spikes)
    return diag, ranks


def _dtype(field: str):
    return complex if field == "complex_hermitian" else float


def workspace(spec: SpikedModelSpec) -> np.ndarray:
    """An N x N Fortran-ordered array of M's dtype, for ``draw_sample(spec, rng, work)``."""
    N = sample_size(spec)
    return np.empty((N, N), dtype=_dtype(spec.field), order="F")


def _into(out, shape, dtype) -> np.ndarray:
    """``out``, checked to be a writable Fortran-ordered array of ``shape`` and ``dtype``, or a new one."""
    if out is None:
        return np.zeros(shape, dtype=dtype, order="F")
    if out.shape != shape or out.dtype != dtype or not out.flags.f_contiguous or not out.flags.writeable:
        raise SpecError(
            f"the buffer must be a writable Fortran-ordered {np.dtype(dtype)} array of shape {shape}"
        )
    return out


def _fill(entry_law: str, rng: np.random.Generator, out: np.ndarray) -> None:
    """Independent unit-variance draws of the law into the contiguous float64 ``out``."""
    if entry_law == "gaussian":
        rng.standard_normal(out=out)
    else:
        np.multiply(rng.integers(0, 2, size=out.shape, dtype=np.int8), 2.0, out=out)
        out -= 1.0


def _fill_entries(entry_law: str, field: str, rng: np.random.Generator, out: np.ndarray) -> None:
    """Unit-variance entries of the field into the contiguous ``out``: real, or (x + iy)/sqrt(2)."""
    _fill(entry_law, rng, out.ravel(order="K").view(float))
    if field == "complex_hermitian":
        out /= math.sqrt(2.0)


def _mirror_upper(M: np.ndarray) -> None:
    """Overwrite the strict lower triangle of M with the conjugate of its strict upper one."""
    for j in range(M.shape[0] - 1):
        np.conjugate(M[j, j + 1 :], out=M[j + 1 :, j])


def sample_wigner(
    N: int, field: str, entry_law: str, rng: np.random.Generator, out: np.ndarray | None = None
) -> np.ndarray:
    """Unit-scale Wigner matrix X = W/sqrt(N), semicircle limit on [-2, 2].

    Convention: diagonal entries of W have variance 1 (complex case) or 2
    (real case); off-diagonal entries have total variance 1.  Callers scale by
    sigma to reach variance sigma^2.  X is drawn straight into ``out``, an
    N x N Fortran-ordered array of the field's dtype (a new one by default):
    the diagonal, then the strict upper triangle one column at a time, which
    is then mirrored into the lower one, so X is exactly Hermitian.
    """
    _check_draw(entry_law, field, N=N)
    X = _into(out, (N, N), _dtype(field))
    diag = np.empty(N)
    _fill(entry_law, rng, diag)
    if field == "real_symmetric":
        diag *= math.sqrt(2.0)
    np.fill_diagonal(X, diag)
    for j in range(1, N):
        _fill_entries(entry_law, field, rng, X[:j, j])
    _mirror_upper(X)
    X /= math.sqrt(N)
    return X


def sample_wishart_factor(
    N: int, p: int, field: str, entry_law: str, rng: np.random.Generator,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """A factor F whose F F* has the law of B B*, B N x p with unit-variance entries.

    F is drawn straight into ``out``, a Fortran-ordered array of the field's
    dtype (a new one by default).  Rademacher entries give B itself, N x p.
    Gaussian entries give the upper-triangular N x N Bartlett factor
    U = J L J of B (Bartlett 1933): B = L Q with Q unitary and L lower
    trapezoidal, N x m for m = min(N, p), and J reverses the order of rows
    and columns.  U U* and L L* have the same law.  Column j >= N - m of U
    holds standard (complex) normals above its diagonal and
    sqrt(chi^2_{p-i}) (real) or sqrt(chi^2_{2(p-i)}/2) (complex) on it,
    i = N - 1 - j; the first N - m columns are zero.  That is
    N m - m(m - 1)/2 draws in place of N p.
    """
    _check_draw(entry_law, field, N=N, p=p)
    if entry_law == "rademacher":
        B = _into(out, (N, p), _dtype(field))
        _fill_entries(entry_law, field, rng, B)
        return B
    U = _into(out, (N, N), _dtype(field))
    m = min(N, p)
    dof = p - np.arange(m)
    if field == "complex_hermitian":
        chi = np.sqrt(rng.chisquare(2 * dof) / 2.0)
    else:
        chi = np.sqrt(rng.chisquare(dof))
    U[:, : N - m] = 0.0
    for j in range(N - m, N):
        _fill_entries(entry_law, field, rng, U[:j, j])
        U[j, j] = chi[N - 1 - j]
        U[j + 1 :, j] = 0.0
    return U


def wishart_p(N: int, c: float) -> int:
    """Sample dimension p = round(N/c), at least 1; theory runs at N/p."""
    return max(1, round(N / c))


def assemble(spec: SpikedModelSpec, A: np.ndarray, noise, out: np.ndarray | None = None) -> np.ndarray:
    """M = X + A (additive) or A^{1/2} (F F*/p) A^{1/2} (multiplicative), into ``out``.

    ``noise`` is the Wigner matrix X, or the factor F that
    ``sample_wishart_factor`` draws for the spec's entry law: the Bartlett
    factor U (Gaussian), or B (Rademacher), which may also come as an
    iterable of its column blocks.  p comes from the spec, not from F.  M is
    written into ``out``, an N x N Fortran-ordered array of the field's
    dtype (a new one by default), which may be X or U itself.  F F* is
    formed in its upper triangle, by ?lauum from U or by ?syrk/?herk summed
    over the blocks of B, scaled, and mirrored into the lower one, so M is
    exactly Hermitian.
    """
    A = np.asarray(A, dtype=float)
    N = spec.N
    if A.shape != (N,):
        raise SpecError(f"A must hold the N={N} diagonal entries of A_N, got shape {A.shape}")
    dtype = _dtype(spec.field)
    if spec.kind == "additive_wigner":
        M = _into(out, (N, N), dtype)
        if M is not noise:
            M[...] = noise
        M.flat[:: N + 1] += A
        return M
    if np.any(A < 0.0):
        raise SpecError("multiplicative perturbation requires a nonnegative diagonal")
    M = _into(out, (N, N), dtype)
    if spec.entry_law == "gaussian":
        if M is not noise:
            M[...] = noise
        lapack.upper_product(M)
    else:
        M.fill(0.0)
        for B in [noise] if isinstance(noise, np.ndarray) else noise:
            lapack.add_gram(M, np.asfortranarray(B, dtype=dtype))
    root = np.sqrt(A)
    M /= wishart_p(spec.N, spec.c)
    M *= root[:, None]
    M *= root
    _mirror_upper(M)
    return M


def _asymmetry(M: np.ndarray) -> float:
    """max |M - M*| entrywise, one pair of square tiles at a time."""
    N = M.shape[0]
    worst = 0.0
    for lo in range(0, N, _CHECK_TILE):
        hi = min(N, lo + _CHECK_TILE)
        for left in range(0, hi, _CHECK_TILE):
            right = min(N, left + _CHECK_TILE)
            with np.errstate(invalid="ignore"):  # inf - inf: the NaN is the answer
                gap = np.abs(M[lo:hi, left:right] - M[left:right, lo:hi].conj().T)
            worst = float(np.maximum(worst, np.max(gap)))  # NaN propagates
    return worst


def diagonalize(M: np.ndarray, ranks, overwrite: bool = False):
    """Descending eigenvalues of a Hermitian M and its eigenvectors at ``ranks``.

    Returns all N eigenvalues and an N x len(ranks) array of eigenvectors at
    the 1-based descending ranks, in the order given.  One unitary
    reduction of M's lower triangle to a Hermitian band B and a real
    tridiagonal T is the only O(N^3) step: every eigenvalue of T then comes
    from ?sterf, as in ``np.linalg.eigvalsh`` (bit for bit for a real M, to
    rounding for a complex one, which takes a two-stage reduction), in one
    call on T scaled to about unit norm by a power of two.  The selected
    ones are the shifts of inverse iteration on B, which gives their vectors
    (see ``lapack``, which takes the pairs from ``np.linalg.eigh`` where
    numpy's library does not export those routines).  Raises SpecError unless M is
    N x N, N >= 1, and the ranks are distinct integers in [1, N], and
    NumericalError unless M is finite, |M - M*| <= 1e-7 ||M|| entrywise,
    every returned pair has residual ||Mv - lambda v|| <= 1e-7 ||M|| and
    the Gram deviation is <= 1e-8.

    M is never modified, unless ``overwrite`` is set and M is an N x N
    Fortran-ordered float64 or complex128 array: the reduction then runs in
    M itself, whose diagonal and strict upper triangle still hold M on
    return, and the residual is taken against them.  A replica reduces its
    one N x N buffer this way.
    """
    M = np.asarray(M)
    if M.ndim != 2 or M.shape[0] != M.shape[1] or M.size == 0:
        raise SpecError(f"M must be an N x N array with N >= 1, got shape {M.shape}")
    N = M.shape[0]
    index = np.asarray(ranks).reshape(-1)
    integral = index.size == 0 or index.dtype.kind in "iu"
    if not integral or np.unique(index).size != index.size or not np.all((index >= 1) & (index <= N)):
        raise SpecError(f"ranks must be distinct integers in [1, {N}], got {ranks!r}")
    index = index.astype(int) - 1
    asymmetry = _asymmetry(M)
    if not math.isfinite(asymmetry):
        raise NumericalError("M is not finite: it holds a NaN or an infinity")

    a = (np.asarray if overwrite else np.array)(M, np.result_type(M, float), order="F")
    lam, V = lapack.eigenpairs(a, index)
    MV = lapack.upper_times(a, V)
    norm = float(max(abs(lam[0]), abs(lam[-1])))
    tol = EIGEN_RESIDUAL_TOL * norm
    if not asymmetry <= tol:
        raise NumericalError(f"input is not Hermitian: |M - M*| reaches {asymmetry:.3e}")
    # Taken at unit scale, by an exact power of two, so that no squared entry overflows.
    scale = math.ldexp(1.0, -max(math.frexp(norm)[1], -1022))
    residual = np.linalg.norm((MV - V * lam[index]) * scale, axis=0) / scale
    if not np.all(residual <= tol):
        raise NumericalError(f"eigenpair residual {np.max(residual):.3e} exceeds {tol:.3e}")
    gram = np.abs(V.conj().T @ V - np.eye(index.size))
    if not np.all(gram <= GRAM_TOL):
        raise NumericalError(f"eigenvector Gram deviation {np.max(gram):.3e} exceeds {GRAM_TOL}")
    return lam, V


def overlaps(sample: EnsembleSample, spike_j: int, spike_l: int):
    """Squared projections of spike-j outlier eigenvectors onto spike-l's eigenspace.

    Returns (per_vector, summed) where per_vector[n] = ||P_l xi_n(j)||^2 for
    the eigenvector at descending rank spike_ranks[j][n].  P_l keeps the
    coordinates r - 1 at spike l's ranks r.
    """
    start = sum(len(block) for block in sample.spike_ranks[:spike_j])
    vectors = sample.eigenvectors[:, start : start + len(sample.spike_ranks[spike_j])]
    coords = [r - 1 for r in sample.spike_ranks[spike_l]]
    per = [float(np.sum(np.abs(v[coords]) ** 2)) for v in vectors.T]
    return per, float(sum(per))


def draw_sample(
    spec: SpikedModelSpec, rng: np.random.Generator | None = None, work: np.ndarray | None = None
) -> EnsembleSample:
    """Build A_N, draw the noise, assemble and diagonalize one replica.

    The additive noise is sqrt(sigma2) times a unit Wigner matrix, giving
    entry variance sigma2.  With rng=None a fresh deterministic stream is
    derived from spec.seed; verification passes per-replica spawned streams.
    The noise is drawn, M assembled and reduced in one N x N buffer,
    ``work`` (see ``workspace``; a new one by default), whose contents are
    overwritten.  Rademacher Wishart noise adds one N x min(N, p) block of B
    at a time to it.  Raises NumericalError when a returned vector has more
    than unit mass on the spike coordinates.
    """
    if rng is None:
        rng = np.random.default_rng(np.random.SeedSequence(spec.seed))
    A, ranks = build_perturbation(spec)
    M = _into(work, (spec.N, spec.N), _dtype(spec.field))
    if spec.kind == "additive_wigner":
        noise = sample_wigner(spec.N, spec.field, spec.entry_law, rng, out=M)
        noise *= math.sqrt(spec.sigma2)
    elif spec.entry_law == "gaussian":
        p = wishart_p(spec.N, spec.c)
        noise = sample_wishart_factor(spec.N, p, spec.field, spec.entry_law, rng, out=M)
    else:
        # B, N columns at a time, each block drawn into `columns` once the
        # previous one has been added to M.
        p = wishart_p(spec.N, spec.c)
        columns = np.empty((spec.N, min(spec.N, p)), dtype=M.dtype, order="F")
        noise = (
            sample_wishart_factor(spec.N, w, spec.field, spec.entry_law, rng, out=columns[:, :w])
            for w in [min(spec.N, p - lo) for lo in range(0, p, spec.N)]
        )
    M = assemble(spec, A, noise, out=M)
    flat = [r for block in ranks for r in block]
    lam, V = diagonalize(M, flat, overwrite=True)
    # Each returned vector is a unit vector, so its overlaps summed over
    # every spike block, its mass on the spike coordinates, are at most 1.
    mass = np.sum(np.abs(V[[r - 1 for r in flat]]) ** 2, axis=0)
    if np.any(mass > 1.0 + UNIT_SLACK):
        raise NumericalError(f"overlaps of an outlier vector sum to {mass.max()}")
    return EnsembleSample(eigenvalues=lam, eigenvectors=V, spike_ranks=ranks)
