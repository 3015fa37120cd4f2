"""Finite-N spiked models: deterministic perturbation, noise sampling, spectra.

The perturbation A_N is always diagonal: spike eigenvalues (with multiplicity)
plus deterministic quantiles of the bulk limit nu, sorted descending.  That
makes each spike's eigenspace a coordinate subspace, so spike projectors are
exact index sets and the eigenvector observables reduce to coordinate sums.
A replica computes every eigenvalue of M but only the r eigenvectors at the
spike ranks, by shifted inverse iteration, and checks exactly what it returns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalError, SpecError
from .measure import MERGE_TOL, AtomicMeasure, quantile_discretize

KINDS = ("additive_wigner", "multiplicative_wishart")
ENTRY_LAWS = ("gaussian", "rademacher")
FIELDS = ("real_symmetric", "complex_hermitian")

EIGEN_RESIDUAL_TOL = 1e-7
GRAM_TOL = 1e-8


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

    spike_ranks are 1-based positions of each spike among the descending
    eigenvalues of A_N; spike_projectors are the 0-based coordinate indices
    spanning Ker(theta_j I - A_N).  eigenvectors is N x r: the vectors at the
    flattened spike_ranks, in that order (see ``vector``).
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    spike_ranks: tuple[tuple[int, ...], ...]
    spike_projectors: tuple[tuple[int, ...], ...]

    def vector(self, rank: int) -> np.ndarray:
        """The eigenvector at 1-based descending ``rank``, one of the spike ranks."""
        flat = [r for block in self.spike_ranks for r in block]
        return self.eigenvectors[:, flat.index(rank)]


def build_perturbation(spec: SpikedModelSpec):
    """Diagonal of A_N (descending) plus spike ranks and coordinate projectors."""
    if spec.N is None:
        raise SpecError("drawing a finite-N sample requires N")
    r = spec.rank
    bulk = quantile_discretize(spec.nu, spec.N - r) if spec.N > r else np.empty(0)
    spike_vals = np.concatenate(
        [np.full(k, t) for t, k in spec.spikes] + [np.empty(0)]
    ) if spec.spikes else np.empty(0)
    vals = np.concatenate([spike_vals, np.asarray(bulk, dtype=float)])
    order = np.argsort(-vals, kind="stable")
    diag = vals[order]
    position = np.empty(spec.N, dtype=int)
    position[order] = np.arange(spec.N)

    ranks = []
    projectors = []
    offset = 0
    for _, k in spec.spikes:
        coords = position[offset : offset + k]
        coords = np.sort(coords)
        ranks.append(tuple(int(i) + 1 for i in coords))
        projectors.append(tuple(int(i) for i in coords))
        offset += k
    return diag, tuple(ranks), tuple(projectors)


def _draw(entry_law: str, rng: np.random.Generator, size) -> np.ndarray:
    if entry_law == "gaussian":
        return rng.standard_normal(size)
    return (rng.integers(0, 2, size=size) * 2 - 1).astype(float)


def sample_wigner(N: int, field: str, entry_law: str, rng: np.random.Generator) -> np.ndarray:
    """Unit-scale Wigner matrix X = W/sqrt(N), semicircle limit on [-2, 2].

    Convention: diagonal entries of W have variance 1 (complex case) or 2
    (real case); off-diagonal entries have total variance 1.  Callers scale by
    sigma to reach variance sigma^2.
    """
    if field not in FIELDS:
        raise SpecError(f"field must be one of {FIELDS}, got {field!r}")
    if entry_law not in ENTRY_LAWS:
        raise SpecError(f"entry_law must be one of {ENTRY_LAWS}, got {entry_law!r}")
    iu = np.triu_indices(N, 1)
    n_off = iu[0].size
    if field == "complex_hermitian":
        diag = _draw(entry_law, rng, N)
        off = (_draw(entry_law, rng, n_off) + 1j * _draw(entry_law, rng, n_off)) / math.sqrt(2.0)
        W = np.zeros((N, N), dtype=complex)
        W[iu] = off
        W = W + W.conj().T
        W[np.diag_indices(N)] = diag
    else:
        diag = math.sqrt(2.0) * _draw(entry_law, rng, N)
        off = _draw(entry_law, rng, n_off)
        W = np.zeros((N, N), dtype=float)
        W[iu] = off
        W = W + W.T
        W[np.diag_indices(N)] = diag
    return W / math.sqrt(N)


def sample_wishart_factor(
    N: int, p: int, field: str, entry_law: str, rng: np.random.Generator
) -> np.ndarray:
    """N x p factor B with i.i.d. standardized entries (unit variance each)."""
    if field not in FIELDS:
        raise SpecError(f"field must be one of {FIELDS}, got {field!r}")
    if entry_law not in ENTRY_LAWS:
        raise SpecError(f"entry_law must be one of {ENTRY_LAWS}, got {entry_law!r}")
    if field == "complex_hermitian":
        return (
            _draw(entry_law, rng, (N, p)) + 1j * _draw(entry_law, rng, (N, p))
        ) / math.sqrt(2.0)
    return _draw(entry_law, rng, (N, p))


def wishart_p(N: int, c: float) -> int:
    """Sample dimension p = round(N/c), at least 1; theory runs at N/p."""
    return max(1, round(N / c))


def assemble(spec: SpikedModelSpec, A: np.ndarray, noise: np.ndarray) -> np.ndarray:
    """M = X + A (additive) or A^{1/2} (BB*/p) A^{1/2} (multiplicative)."""
    A = np.asarray(A, dtype=float)
    if spec.kind == "additive_wigner":
        return noise + np.diag(A)
    if np.any(A < 0.0):
        raise SpecError("multiplicative perturbation requires a nonnegative diagonal")
    p = noise.shape[1]
    root = np.sqrt(A)
    inner = noise @ noise.conj().T / p
    return root[:, None] * inner * root[None, :]


def diagonalize(M: np.ndarray, ranks):
    """Descending eigenvalues of a Hermitian M and its eigenvectors at ``ranks``.

    Returns all N eigenvalues, from one LAPACK ``eigvalsh`` call, and an
    N x len(ranks) array of eigenvectors at the 1-based descending ranks, in
    the order given.  Each vector is one inverse iteration step from a fixed
    pseudo-random start: an LU solve with M shifted by its eigenvalue plus 4
    ulps of (1 + ||M||), so no pivot is exactly zero; one QR then spans any
    repeated eigenvalue's eigenspace.  Raises NumericalError unless
    |M - M*| <= 1e-7 (1 + ||M||) entrywise, every returned pair has residual
    ||Mv - lambda v|| <= 1e-7 (1 + ||M||) and the Gram deviation is <= 1e-8.
    """
    M = np.asarray(M)
    N = M.shape[0]
    index = np.asarray(ranks, dtype=int).reshape(-1) - 1
    if np.unique(index).size != index.size or not np.all((index >= 0) & (index < N)):
        raise SpecError(f"ranks must be distinct integers in [1, {N}], got {ranks!r}")
    lam = np.linalg.eigvalsh(M)[::-1].copy()
    norm = float(max(abs(lam[0]), abs(lam[-1])))
    tol = EIGEN_RESIDUAL_TOL * (1.0 + norm)
    asymmetry = float(np.max(np.abs(M - M.conj().T)))
    if not asymmetry <= tol:
        raise NumericalError(f"input is not Hermitian: |M - M*| reaches {asymmetry:.3e}")

    shifted = M.astype(np.result_type(M, float))
    V = np.random.default_rng(0).standard_normal((N, index.size)).astype(shifted.dtype)
    for col, i in enumerate(index):
        shifted.flat[:: N + 1] = M.diagonal() - (lam[i] + 4.0 * np.spacing(1.0 + norm))
        try:
            V[:, col] = np.linalg.solve(shifted, V[:, col])
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"inverse iteration at rank {i + 1} failed: {exc}") from None
    V = np.linalg.qr(V)[0]

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
    the eigenvector at descending rank spike_ranks[j][n].
    """
    coords = np.asarray(sample.spike_projectors[spike_l], dtype=int)
    per = [
        float(np.sum(np.abs(sample.vector(rank)[coords]) ** 2))
        for rank in sample.spike_ranks[spike_j]
    ]
    return per, float(sum(per))


def draw_sample(spec: SpikedModelSpec, rng: np.random.Generator | None = None) -> EnsembleSample:
    """Build A_N, draw the noise, assemble and diagonalize one replica.

    The additive noise is sqrt(sigma2) times a unit Wigner matrix, giving
    entry variance sigma2.  With rng=None a fresh deterministic stream is
    derived from spec.seed; verification passes per-replica spawned streams.
    """
    if rng is None:
        rng = np.random.default_rng(np.random.SeedSequence(spec.seed))
    A, ranks, projectors = build_perturbation(spec)
    if spec.kind == "additive_wigner":
        noise = math.sqrt(spec.sigma2) * sample_wigner(spec.N, spec.field, spec.entry_law, rng)
    else:
        p = wishart_p(spec.N, spec.c)
        noise = sample_wishart_factor(spec.N, p, spec.field, spec.entry_law, rng)
    M = assemble(spec, A, noise)
    lam, V = diagonalize(M, [r for block in ranks for r in block])
    return EnsembleSample(
        eigenvalues=lam, eigenvectors=V, spike_ranks=ranks, spike_projectors=projectors
    )
