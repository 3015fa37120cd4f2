"""Reference implementations that the tests check spikelab against.

None of them calls a spikelab solver:

- closed forms: the semicircle Stieltjes transform and density, and the
  Marchenko-Pastur density;
- three helpers on simulated spectra: ``separation_check``,
  ``empirical_density`` and ``vector_overlaps``;
- ``Oracle``, the limiting law of either model family in 50-digit mpmath
  arithmetic.  Its subordination function omega(z) is the root with the
  largest imaginary part of one polynomial of degree k + 1, and its support
  edges are the images of the real roots of another, all from
  ``mpmath.polyroots``.
"""

import cmath
import math

import mpmath
import numpy as np

MP = mpmath.MPContext()
MP.dps = 50

# polyroots works this many bits above MP.dps, for at most this many sweeps.
_EXTRA_BITS = 100
_MAX_SWEEPS = 400
# A root of a cleared derivative counts as real when its imaginary part is below this
# fraction of 1 + |root|.  polyroots cleans the real roots to an imaginary part of 0, and
# the complex ones of the tested models lie above 1e-3.
_REAL_ROOT_TOL = MP.mpf("1e-25")


def semicircle_g(z, sigma2=1.0):
    """Closed-form semicircle Stieltjes transform, correct branch."""
    r = 2.0 * math.sqrt(sigma2)
    s = cmath.sqrt(z - r) * cmath.sqrt(z + r)
    return (z - s) / (2.0 * sigma2)


def semicircle_density(x, sigma2=1.0):
    r2 = 4.0 * sigma2
    return math.sqrt(max(r2 - x * x, 0.0)) / (2.0 * math.pi * sigma2)


def mp_density(c: float, x: float) -> float:
    """Marchenko-Pastur density at ``x > 0`` for aspect ratio ``c``.

    Covers only the absolutely continuous part on [(1-sqrt c)^2, (1+sqrt c)^2];
    the point mass at zero for c > 1 is not a density value.
    """
    c = float(c)
    x = float(x)
    if not math.isfinite(c) or c <= 0.0:
        raise ValueError(f"c must be a finite positive number, got {c!r}")
    if x <= 0.0:
        raise ValueError(f"mp_density requires x > 0, got {x!r}")
    lo = (1.0 - math.sqrt(c)) ** 2
    hi = (1.0 + math.sqrt(c)) ** 2
    if x < lo or x > hi:
        return 0.0
    return math.sqrt(max((x - lo) * (hi - x), 0.0)) / (2.0 * math.pi * c * x)


def separation_check(sample, spike_j: int, rho: float, delta: float) -> bool:
    """True when the block at spike_j sits delta-separated around rho.

    Checks that the eigenvalue ranked directly above the block exceeds
    rho + delta and the one directly below falls under rho - delta, with
    the conventions lambda_0 = +inf and lambda_{N+1} = -inf at the ends
    of the spectrum.
    """
    lam = sample.eigenvalues
    ranks = sample.spike_ranks[spike_j]
    n_prev = ranks[0] - 1
    above = float(lam[n_prev - 1]) if n_prev >= 1 else math.inf
    idx_below = n_prev + len(ranks)
    below = float(lam[idx_below]) if idx_below < lam.size else -math.inf
    return bool(above > rho + delta and below < rho - delta)


def vector_overlaps(sample, spike_j: int, spike_l: int) -> list[float]:
    """||P_l xi_n||^2 for each eigenvector xi_n at spike j's ranks, in rank order.

    P_l keeps the coordinates r - 1 at spike l's ranks r, and spike j's
    vectors are the columns of ``sample.eigenvectors`` after those of the
    spikes before it.
    """
    ranks = sample.spike_ranks
    start = sum(map(len, ranks[:spike_j]))
    rows_l = slice(ranks[spike_l].start - 1, ranks[spike_l].stop - 1)
    cols_j = slice(start, start + len(ranks[spike_j]))
    return np.sum(np.abs(sample.eigenvectors[rows_l, cols_j]) ** 2, axis=0).tolist()


def empirical_density(samples, bins):
    """Bulk spectral histogram pooled over samples, as probability masses.

    The eigenvalues at each sample's spike ranks are removed before
    binning; the masses are counts divided by the pooled bulk size, so
    they sum to 1 exactly when every bulk eigenvalue lands inside the
    bins.  Returns (masses, bin_edges) with np.histogram bin semantics.
    """
    pooled = []
    for sample in samples:
        lam = np.asarray(sample.eigenvalues, dtype=float)
        keep = np.ones(lam.size, dtype=bool)
        for block in sample.spike_ranks:
            for rank in block:
                keep[rank - 1] = False
        pooled.append(lam[keep])
    flat = np.concatenate(pooled) if pooled else np.empty(0)
    if flat.size == 0:
        raise ValueError("no bulk eigenvalues to bin")
    counts, edges = np.histogram(flat, bins=bins)
    return counts.astype(float) / flat.size, edges


def _times(p, q):
    """Product of two polynomials, coefficients lowest degree first."""
    out = [MP.mpf(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def _plus(p, q):
    n = max(len(p), len(q))
    return [(p[i] if i < len(p) else 0) + (q[i] if i < len(q) else 0) for i in range(n)]


def _product(roots, power=1):
    """prod_j (w - r_j)^power."""
    out = [MP.mpf(1)]
    for r in roots:
        for _ in range(power):
            out = _times(out, [-r, MP.mpf(1)])
    return out


def _roots(coeffs):
    """All complex roots of the polynomial with these coefficients, lowest degree first."""
    return MP.polyroots(coeffs[::-1], maxsteps=_MAX_SWEEPS, extraprec=_EXTRA_BITS)


def _real_roots(coeffs):
    return sorted(r.real for r in _roots(coeffs) if abs(r.imag) <= _REAL_ROOT_TOL * (1 + abs(r)))


class Oracle:
    """The limiting law of one model, in ``MP.dps`` = 50 digits.

    Both families invert one map ``F(w) = w + (a + b w) sum_j m_j / (w - t_j)``:

    - additive (``sigma2``): ``a = 1, b = 0, m_j = sigma2 w_j``, so F is
      ``H(w) = w + sigma2 g_nu(w)``;
    - Wishart (``c``): ``a = 0, b = 1, m_j = c w_j t_j`` over the atoms
      ``t_j > 0``, so F is ``x(w) = w (1 + c sum w t / (w - t))``.

    In both, ``F'(w) = 1 - sum_j beta_j / (w - t_j)^2`` with ``beta_j = m_j``
    (additive) or ``m_j t_j`` (Wishart).  ``omega(z)`` is the root of largest
    imaginary part of ``F(w) = z`` times ``prod (w - t_j)``; the support edges
    are the values of F at the real roots of ``F'`` times ``prod (w - t_j)^2``.
    """

    def __init__(self, atoms, *, sigma2=None, c=None):
        # Weights are divided by their exact sum: the package takes a measure's mass to be
        # 1 (in 1 - nu({0}), say), and a float sum that misses 1 by an ulp moves an edge
        # at 0 off it.
        total = MP.fsum(MP.mpf(w) for _, w in atoms)
        self.atoms = [(MP.mpf(t), MP.mpf(w) / total) for t, w in atoms]
        self.additive = sigma2 is not None
        if self.additive:
            self.t = [t for t, _ in self.atoms]
            self.m = [MP.mpf(sigma2) * w for _, w in self.atoms]
            self.beta = list(self.m)
        else:
            kept = [(t, w) for t, w in self.atoms if t > 0]
            self.t = [t for t, _ in kept]
            self.m = [MP.mpf(c) * w * t for t, w in kept]
            self.beta = [m * t for m, t in zip(self.m, self.t)]
        self._critical = None

    def F(self, w):
        total = sum(m / (w - t) for m, t in zip(self.m, self.t))
        return w + total if self.additive else w * (1 + total)

    def F_prime(self, w):
        return 1 - sum(b / (w - t) ** 2 for b, t in zip(self.beta, self.t))

    def shift(self):
        """``s = c sum w t``, the constant the Wishart map ``x(w) - w`` tends to."""
        return sum(self.m)

    def omega(self, z):
        """The subordination function at ``z`` with ``Im z >= 0``."""
        z = MP.mpc(z)
        others = [_product(self.t[:j] + self.t[j + 1 :]) for j in range(len(self.t))]
        weighted = [MP.mpf(0)]
        for m, p in zip(self.m, others):
            weighted = _plus(weighted, [m * a for a in p])
        factor = [MP.mpf(1), MP.mpf(0)] if self.additive else [MP.mpf(0), MP.mpf(1)]
        coeffs = _plus(_times([-z, MP.mpf(1)], _product(self.t)), _times(factor, weighted))
        return max(_roots(coeffs), key=lambda r: r.imag)

    def g(self, z):
        """Stieltjes transform of the limit at ``z`` in the closed upper half-plane."""
        w = self.omega(z)
        g_nu = sum(wt / (w - t) for t, wt in self.atoms)
        return g_nu if self.additive else w / MP.mpc(z) * g_nu

    def density(self, x, eps=0.0):
        """``-Im g(x + i eps) / pi``; at eps = 0, x must lie inside the support."""
        return -self.g(MP.mpc(x, eps)).imag / MP.pi

    def F_second(self, w):
        return 2 * sum(b / (w - t) ** 3 for b, t in zip(self.beta, self.t))

    def critical_points(self):
        """The real roots of ``F'``, in increasing order."""
        if self._critical is None:
            coeffs = _product(self.t, 2)
            for j, b in enumerate(self.beta):
                coeffs = _plus(coeffs, [-b * a for a in _product(self.t[:j] + self.t[j + 1 :], 2)])
            self._critical = _real_roots(coeffs)
        return self._critical

    def edges(self):
        """Sorted support edges: pairs (lo, hi) of consecutive entries bound one component."""
        return sorted(self.F(u) for u in self.critical_points())

    def gap_peaks(self):
        """``F'`` at its maximum on each gap between consecutive atoms.

        ``F''`` falls from +inf to -inf across a gap, so bisection to the working precision
        finds its one root there.
        """
        peaks = []
        for lo, hi in zip(self.t, self.t[1:]):
            for _ in range(MP.prec):
                mid = (lo + hi) / 2
                lo, hi = (mid, hi) if self.F_second(mid) > 0 else (lo, mid)
            peaks.append(self.F_prime((lo + hi) / 2))
        return peaks

    def spike(self, theta):
        """``{name: (value, sum of the absolute values of its terms)}`` at a spike.

        Additive: the criterion and tau are ``H'(theta)`` and rho is ``H(theta)``.  Wishart:
        the criterion is ``W = 1 - x'(theta)``, rho is ``x(theta)`` and tau is
        ``(1 - W) theta / rho``, whose terms are those of W and of rho, propagated.
        """
        theta = MP.mpf(theta)
        rho, slope = self.F(theta), self.F_prime(theta)
        poles = sum(abs(m / (theta - t)) for m, t in zip(self.m, self.t))
        squares = sum(b / (theta - t) ** 2 for b, t in zip(self.beta, self.t))
        if self.additive:
            return {"criterion": (slope, 1 + squares), "rho": (rho, abs(theta) + poles),
                    "tau": (slope, 1 + squares)}
        rho_sum = abs(theta) * (1 + poles)
        tau_sum = abs(theta / rho) * (1 + squares + abs(slope) * rho_sum / abs(rho))
        return {"criterion": (1 - slope, squares), "rho": (rho, rho_sum),
                "tau": (slope * theta / rho, tau_sum)}
