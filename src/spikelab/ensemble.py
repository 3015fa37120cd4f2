"""Finite-N spiked models: deterministic perturbation, noise sampling, spectra.

The perturbation A_N is always diagonal: spike eigenvalues (with multiplicity)
plus deterministic quantiles of the bulk limit nu, sorted descending.  That
makes each spike's eigenspace a coordinate subspace: rank r is coordinate
r - 1, so a spike's ranks index its block and the eigenvector observables
reduce to coordinate sums.  Only this module turns a rank into a coordinate.
Wishart noise enters only through B B*, so Gaussian entries are drawn as the
Bartlett factor of B, an N x min(N, p) triangle, rather than B itself.
A replica computes every eigenvalue of M but only the r eigenvectors at the
spike ranks, from one Householder reduction of M to a real tridiagonal, and
checks exactly what it returns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import lapack
from .errors import NumericalError, SpecError
from .measure import MERGE_TOL, AtomicMeasure, quantile_discretize

KINDS = ("additive_wigner", "multiplicative_wishart")
ENTRY_LAWS = ("gaussian", "rademacher")
FIELDS = ("real_symmetric", "complex_hermitian")

EIGEN_RESIDUAL_TOL = 1e-7
GRAM_TOL = 1e-8
UNIT_SLACK = 1e-8
# Rows per block of the Hermitian check: its temporaries are N x this.
_CHECK_ROWS = 128


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True)
class SpikedModelSpec:
    """Complete description of one spiked random matrix model.

    ``N`` may be None for a model used only through its limiting law; it
    must be set before a sample is drawn.  A spike multiplicity may be given
    as an integral float (as JSON writes 1.0) and is stored as an int.
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

    def __post_init__(self):
        if self.kind not in KINDS:
            raise SpecError(f"kind must be one of {KINDS}, got {self.kind!r}")
        if not isinstance(self.nu, AtomicMeasure):
            raise SpecError("nu must be an AtomicMeasure")
        if self.entry_law not in ENTRY_LAWS:
            raise SpecError(f"entry_law must be one of {ENTRY_LAWS}, got {self.entry_law!r}")
        if self.field not in FIELDS:
            raise SpecError(f"field must be one of {FIELDS}, got {self.field!r}")
        if self.N is not None and (not _is_int(self.N) or self.N < 1):
            raise SpecError(f"N must be a positive integer, got {self.N!r}")
        if not _is_int(self.seed) or not 0 <= self.seed < 2**64:
            raise SpecError(f"seed must be an unsigned 64-bit integer, got {self.seed!r}")

        try:
            pairs = [(float(theta), mult) for theta, mult in self.spikes]
        except (TypeError, ValueError):
            raise SpecError(
                f"spikes must be (theta, multiplicity) pairs, got {self.spikes!r}"
            ) from None
        spikes = []
        for theta, mult in pairs:
            if not math.isfinite(theta):
                raise SpecError(f"spike theta must be finite, got {theta!r}")
            if isinstance(mult, float) and mult.is_integer():
                mult = int(mult)
            if not _is_int(mult) or mult < 1:
                raise SpecError(f"spike multiplicity must be a positive integer, got {mult!r}")
            if self.nu.distance_to_support(theta) <= MERGE_TOL:
                raise SpecError(f"spike theta={theta!r} lies in the support of nu")
            spikes.append((theta, mult))
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
            s2 = float(self.sigma2)
            if not math.isfinite(s2) or s2 <= 0.0:
                raise SpecError(f"sigma2 must be a finite positive number, got {self.sigma2!r}")
            object.__setattr__(self, "sigma2", s2)
        else:
            if self.c is None:
                raise SpecError("multiplicative model requires an aspect ratio c")
            if self.sigma2 is not None:
                raise SpecError("multiplicative model does not take sigma2")
            c = float(self.c)
            if not math.isfinite(c) or c <= 0.0:
                raise SpecError(f"c must be a finite positive number, got {self.c!r}")
            object.__setattr__(self, "c", c)
            if any(t <= 0.0 for t, _ in spikes):
                raise SpecError("multiplicative spikes must be positive")
            if any(loc < 0.0 for loc, _ in self.nu.atoms):
                raise SpecError("multiplicative model requires nu supported on [0, inf)")

    @property
    def rank(self) -> int:
        return sum(k for _, k in self.spikes)


@dataclass(frozen=True, eq=False)
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


def build_perturbation(spec: SpikedModelSpec):
    """Diagonal of A_N (descending) and the 1-based ranks of each spike's copies.

    The ranks of spike j are where the diagonal equals theta_j: the bulk
    holds atoms of nu, and the spec keeps every spike off them.
    """
    if spec.N is None:
        raise SpecError("drawing a finite-N sample requires N")
    r = spec.rank
    bulk = quantile_discretize(spec.nu, spec.N - r) if spec.N > r else []
    vals = np.concatenate([np.full(k, t) for t, k in spec.spikes] + [np.asarray(bulk, dtype=float)])
    diag = vals[np.argsort(-vals, kind="stable")]
    ranks = tuple(tuple(int(i) + 1 for i in np.flatnonzero(diag == t)) for t, _ in spec.spikes)
    return diag, ranks


def _draw(entry_law: str, rng: np.random.Generator, size) -> np.ndarray:
    if entry_law == "gaussian":
        return rng.standard_normal(size)
    return (rng.integers(0, 2, size=size) * 2 - 1).astype(float)


def _entries(entry_law: str, field: str, rng: np.random.Generator, size) -> np.ndarray:
    """Unit-variance entries of the field: real, or (x + iy)/sqrt(2)."""
    if field == "complex_hermitian":
        return (_draw(entry_law, rng, size) + 1j * _draw(entry_law, rng, size)) / math.sqrt(2.0)
    return _draw(entry_law, rng, size)


def sample_wigner(N: int, field: str, entry_law: str, rng: np.random.Generator) -> np.ndarray:
    """Unit-scale Wigner matrix X = W/sqrt(N), semicircle limit on [-2, 2].

    Convention: diagonal entries of W have variance 1 (complex case) or 2
    (real case); off-diagonal entries have total variance 1.  Callers scale by
    sigma to reach variance sigma^2.  W is summed and scaled in place.
    """
    if field not in FIELDS:
        raise SpecError(f"field must be one of {FIELDS}, got {field!r}")
    if entry_law not in ENTRY_LAWS:
        raise SpecError(f"entry_law must be one of {ENTRY_LAWS}, got {entry_law!r}")
    complex_field = field == "complex_hermitian"
    diag = _draw(entry_law, rng, N) * (1.0 if complex_field else math.sqrt(2.0))
    iu = np.triu_indices(N, 1)
    W = np.zeros((N, N), dtype=complex if complex_field else float)
    W[iu] = _entries(entry_law, field, rng, iu[0].size)
    W += W.conj().T
    W[np.diag_indices(N)] = diag
    return np.divide(W, math.sqrt(N), out=W)


def sample_wishart_factor(
    N: int, p: int, field: str, entry_law: str, rng: np.random.Generator
) -> np.ndarray:
    """A factor F whose F F* has the law of B B*, B N x p with unit-variance entries.

    Rademacher entries return B itself.  Gaussian entries return the N x m
    Bartlett factor of B, m = min(N, p): the lower-trapezoidal L of B = L Q
    with Q unitary (Bartlett 1933).  Below its diagonal L holds standard
    (complex) normals; diagonal entry i < m is sqrt(chi^2_{p-i}) (real) or
    sqrt(chi^2_{2(p-i)}/2) (complex).  That is N m - m(m - 1)/2 draws in
    place of N p.
    """
    if field not in FIELDS:
        raise SpecError(f"field must be one of {FIELDS}, got {field!r}")
    if entry_law not in ENTRY_LAWS:
        raise SpecError(f"entry_law must be one of {ENTRY_LAWS}, got {entry_law!r}")
    if entry_law == "rademacher":
        return _entries(entry_law, field, rng, (N, p))
    m = min(N, p)
    dof = p - np.arange(m)
    if field == "complex_hermitian":
        L = np.zeros((N, m), dtype=complex)
        L.flat[:: m + 1] = np.sqrt(rng.chisquare(2 * dof) / 2.0)
    else:
        L = np.zeros((N, m))
        L.flat[:: m + 1] = np.sqrt(rng.chisquare(dof))
    below = np.tril_indices(N, -1, m)
    L[below] = _entries(entry_law, field, rng, below[0].size)
    return L


def wishart_p(N: int, c: float) -> int:
    """Sample dimension p = round(N/c), at least 1; theory runs at N/p."""
    return max(1, round(N / c))


def assemble(spec: SpikedModelSpec, A: np.ndarray, noise: np.ndarray) -> np.ndarray:
    """M = X + A (additive) or A^{1/2} (F F*/p) A^{1/2} (multiplicative).

    ``noise`` is the Wigner matrix X, or a factor F from
    ``sample_wishart_factor``.  p comes from the spec, not from F, whose
    Bartlett form has min(N, p) columns.  F F* is scaled in place into M;
    beside M, only the conjugate of a complex F is allocated.
    """
    A = np.asarray(A, dtype=float)
    if spec.kind == "additive_wigner":
        return noise + np.diag(A)
    if np.any(A < 0.0):
        raise SpecError("multiplicative perturbation requires a nonnegative diagonal")
    root = np.sqrt(A)
    inner = noise @ noise.conj().T
    inner /= wishart_p(spec.N, spec.c)
    inner *= root[:, None]
    inner *= root
    return inner


def diagonalize(M: np.ndarray, ranks):
    """Descending eigenvalues of a Hermitian M and its eigenvectors at ``ranks``.

    Returns all N eigenvalues and an N x len(ranks) array of eigenvectors at
    the 1-based descending ranks, in the order given.  One Householder
    reduction of M to a real tridiagonal T is the only O(N^3) step: every
    eigenvalue of T then comes from ?sterf, as in ``np.linalg.eigvalsh``,
    which it matches bit for bit, and the selected vectors from bisection
    and inverse iteration on T (see ``lapack``).  Where numpy's library does
    not export those routines, the pairs come from ``np.linalg.eigh``.
    Raises NumericalError unless |M - M*| <= 1e-7 (1 + ||M||) entrywise,
    every returned pair has residual ||Mv - lambda v|| <= 1e-7 (1 + ||M||)
    and the Gram deviation is <= 1e-8.
    """
    M = np.asarray(M)
    N = M.shape[0]
    index = np.asarray(ranks, dtype=int).reshape(-1) - 1
    if np.unique(index).size != index.size or not np.all((index >= 0) & (index < N)):
        raise SpecError(f"ranks must be distinct integers in [1, {N}], got {ranks!r}")
    # Row blocks of M against column blocks of M*: each pair (i, j) once.
    asymmetry = 0.0
    for lo in range(0, N, _CHECK_ROWS):
        hi = min(N, lo + _CHECK_ROWS)
        gap = np.abs(M[lo:hi, :hi] - M[:hi, lo:hi].conj().T)
        asymmetry = max(asymmetry, float(np.max(gap)))

    if lapack.routines() is None:
        w, vectors = np.linalg.eigh(M)
        lam, V = w[::-1].copy(), vectors[:, ::-1][:, index]
    else:
        lam, V = lapack.eigenpairs(M, index)
    norm = float(max(abs(lam[0]), abs(lam[-1])))
    tol = EIGEN_RESIDUAL_TOL * (1.0 + norm)
    if not asymmetry <= tol:
        raise NumericalError(f"input is not Hermitian: |M - M*| reaches {asymmetry:.3e}")
    residual = np.linalg.norm(M @ V - V * lam[index], axis=0)
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


def draw_sample(spec: SpikedModelSpec, rng: np.random.Generator | None = None) -> EnsembleSample:
    """Build A_N, draw the noise, assemble and diagonalize one replica.

    The additive noise is sqrt(sigma2) times a unit Wigner matrix, giving
    entry variance sigma2.  With rng=None a fresh deterministic stream is
    derived from spec.seed; verification passes per-replica spawned streams.
    Raises NumericalError when a returned vector has more than unit mass on
    the spike coordinates.
    """
    if rng is None:
        rng = np.random.default_rng(np.random.SeedSequence(spec.seed))
    A, ranks = build_perturbation(spec)
    if spec.kind == "additive_wigner":
        noise = sample_wigner(spec.N, spec.field, spec.entry_law, rng)
        noise *= math.sqrt(spec.sigma2)
    else:
        p = wishart_p(spec.N, spec.c)
        noise = sample_wishart_factor(spec.N, p, spec.field, spec.entry_law, rng)
    M = assemble(spec, A, noise)
    del noise  # frees X, or F, before the eigensolve
    flat = [r for block in ranks for r in block]
    lam, V = diagonalize(M, flat)
    # Each returned vector is a unit vector, so its overlaps summed over
    # every spike block, its mass on the spike coordinates, are at most 1.
    mass = np.sum(np.abs(V[[r - 1 for r in flat]]) ** 2, axis=0)
    if np.any(mass > 1.0 + UNIT_SLACK):
        raise NumericalError(f"overlaps of an outlier vector sum to {mass.max()}")
    return EnsembleSample(eigenvalues=lam, eigenvectors=V, spike_ranks=ranks)
