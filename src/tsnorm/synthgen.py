"""Synthetic multivariate time series with arbitrary per-feature marginals.

Generation runs in three steps per dataset: (1) draw latent Gaussian vectors
whose (dT x dT) covariance has moving-average blocks within each feature and
random cross-feature entries, projected to the nearest PSD matrix; (2) map
the Gaussians to correlated uniforms by the probability integral transform
and form a binary response from a fixed random linear combination of the
uniforms plus noise; (3) push the uniforms through numerically inverted CDFs
of the requested (unnormalized) densities, so each feature's marginal
matches its density exactly up to the integration grid.

The (dT x dT) steps work in place, over strips of ``ROW_BLOCK`` rows where
a matrix meets its transpose, so besides LAPACK's ``eigh`` workspace a
generation holds a few (dT x dT) arrays at a time.  The inverse-CDF step
reads a guide table (Chen & Asau's indexed search) and checks each answer
against the ``searchsorted`` condition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Union

import numpy as np
from scipy.special import ndtr

from .data import LabeledDataset, TimeSeriesBatch

PSD_JITTER = 1e-10
DEGENERATE_VAR = 1e-12
# rows per strip where a (dT x dT) matrix is compared with or mirrored into
# its transpose: each strip's temporaries stay a few MB
ROW_BLOCK = 128


@dataclass(frozen=True, eq=False)
class InverseCdfTable:
    """Normalized trapezoid CDF of an unnormalized density on a grid.

    Tables compare and hash by identity, as the table cache holds them.

    ``guide`` has one bucket per table point: ``guide[k]`` is the first index
    whose CDF reaches k/K (K = len(cdf)), capped at K - 1.  It is derived
    from ``cdf`` on construction.
    """

    x: np.ndarray
    cdf: np.ndarray
    guide: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        k = len(self.cdf)
        guide = np.searchsorted(self.cdf, np.arange(k) / k, side="left")
        object.__setattr__(self, "guide", np.minimum(guide, k - 1))


_TABLE_CACHE: dict = {}


def check_sizes(n: int, t: int) -> None:
    """The size rule of SynthConfig and of ``harness.SyntheticSource``."""
    for name, value in (("n", n), ("t", t)):
        if value < 1:
            raise ValueError(f"synthetic {name} must be positive, got {value}")


@dataclass
class SynthConfig:
    """Complete description of one synthetic dataset.

    ``theta`` holds one moving-average coefficient row per feature with
    theta[..., 0] == -1; ``sigma_cor`` scales the random cross-feature
    covariance entries, ``sigma_zeta`` the response noise and ``sigma_beta``
    the spread of the response coefficients.  ``response_threshold`` is
    either a number or "adaptive", which places the cut at the expected
    response score sum(beta)/2 so each dataset comes out label-balanced.
    """

    pdfs: Sequence[Callable[[np.ndarray], np.ndarray]]
    bounds: Sequence[tuple[float, float]]
    theta: np.ndarray
    n: int = 1000
    t: int = 10
    sigma_eps: Optional[np.ndarray] = None
    sigma_cor: float = 1.4
    sigma_zeta: float = 0.5
    sigma_beta: float = 2.0
    delta: Optional[Sequence[float]] = None
    seed: int = 0
    response_threshold: Union[float, str] = "adaptive"

    def __post_init__(self):
        check_sizes(self.n, self.t)
        if not self.pdfs:
            raise ValueError("no features: pdfs must hold at least one density")
        self.theta = np.asarray(self.theta, dtype=np.float64)
        if self.theta.ndim != 2 or self.theta.shape[0] != len(self.pdfs) or not self.theta.size:
            raise ValueError("theta must have one non-empty coefficient row per feature")
        bad = ~(self.theta[:, 0] == -1.0) | ~np.all(np.abs(self.theta[:, 1:]) < 1.0, axis=1)
        if bad.any():
            j = int(np.argmax(bad))
            raise ValueError(f"theta of feature {j} must be -1 and then values in (-1, 1), "
                             f"got {self.theta[j].tolist()}")
        if len(self.bounds) != len(self.pdfs):
            raise ValueError("need one (A, B) bound pair per density")
        for a, b in self.bounds:
            if not -np.inf < a < b < np.inf:
                raise ValueError(f"invalid bounds ({a}, {b})")
        if self.sigma_eps is None:
            self.sigma_eps = np.ones(len(self.pdfs))
        else:
            self.sigma_eps = np.asarray(self.sigma_eps, dtype=np.float64)
        for name, value in (("sigma_eps", np.min(self.sigma_eps)), ("sigma_cor", self.sigma_cor),
                            ("sigma_zeta", self.sigma_zeta), ("sigma_beta", self.sigma_beta)):
            if not value > 0:
                raise ValueError(f"noise scale {name} must be positive, got {value!r}")
        if self.delta is None:
            self.delta = tuple(1e-3 * (b - a) for a, b in self.bounds)
        else:
            self.delta = tuple(float(v) for v in self.delta)
            if not all(v > 0 for v in self.delta):
                raise ValueError("grid step delta must be positive")
        if isinstance(self.response_threshold, str) and self.response_threshold != "adaptive":
            raise ValueError(f"response_threshold must be a number or 'adaptive', "
                             f"got {self.response_threshold!r}")

    @property
    def d(self) -> int:
        return len(self.pdfs)


def ma_autocovariance(theta: np.ndarray, sigma_eps: float, tau: int) -> float:
    """Covariance at lag tau of a q-th order moving average:
    sigma_eps^2 * sum_{j=0}^{q-tau} theta_j theta_{j+tau}; zero beyond q."""
    theta = np.asarray(theta, dtype=np.float64)
    q = len(theta) - 1
    tau = abs(int(tau))
    if tau > q:
        return 0.0
    return float(sigma_eps ** 2 * np.dot(theta[: q - tau + 1], theta[tau:]))


def build_covariance(config: SynthConfig, rng: np.random.Generator) -> np.ndarray:
    """Raw (dT x dT) covariance: banded MA blocks on the feature diagonal,
    symmetric N(0, sigma_cor^2) entries everywhere else.  Row-major layout:
    coordinate (feature j, timestep t) sits at index j*T + t."""
    d, t = config.d, config.t
    size = d * t
    sigma = rng.normal(0.0, config.sigma_cor, size=(size, size))
    # the strict upper triangle mirrored below a zero diagonal, in place;
    # "+ 0.0" turns -0.0 into 0.0, as adding the zeroed triangle did
    sigma += 0.0
    for r0 in range(0, size, ROW_BLOCK):
        r1 = r0 + ROW_BLOCK
        sigma[r0:r1, :r0] = sigma[:r0, r0:r1].T
        upper = np.triu(sigma[r0:r1, r0:r1], 1)
        sigma[r0:r1, r0:r1] = upper + upper.T
    for j in range(d):
        block = np.empty((t, t))
        for lag in range(t):
            cov = ma_autocovariance(config.theta[j], config.sigma_eps[j], lag)
            for a in range(t - lag):
                block[a, a + lag] = cov
                block[a + lag, a] = cov
        sigma[j * t:(j + 1) * t, j * t:(j + 1) * t] = block
    return sigma


def nearest_psd(sigma: np.ndarray) -> np.ndarray:
    """Closest symmetric PSD matrix in Frobenius norm: clip the negative
    eigenvalues of the symmetric input to zero and reconstruct."""
    sigma = np.asarray(sigma, dtype=np.float64)
    if sigma.ndim != 2 or sigma.shape[0] != sigma.shape[1]:
        raise ValueError("covariance must be square")
    # np.allclose(sigma, sigma.T) strip by strip.  With rtol = 0 its test
    # |a - b| <= atol (or a == b) is symmetric in a and b, so the strips on and
    # right of the diagonal meet every pair.
    size = sigma.shape[0]
    for r0 in range(0, size, ROW_BLOCK):
        r1 = r0 + ROW_BLOCK
        if not np.allclose(sigma[r0:r1, r0:], sigma[r0:, r0:r1].T, rtol=0.0,
                           atol=1e-10):
            raise ValueError("nearest_psd expects a symmetric matrix")
    w, v = np.linalg.eigh(sigma)
    del sigma  # frees the input when the caller passed a temporary
    w = np.maximum(w, 0.0)
    out = (v * w) @ v.T
    del v
    # (out + out.T) / 2 in place: each pair (i, j), (j, i) gets one sum
    for r0 in range(0, size, ROW_BLOCK):
        r1 = r0 + ROW_BLOCK
        mean = out[r0:r1, r0:] + out[r0:, r0:r1].T
        mean /= 2.0
        out[r0:r1, r0:] = mean
        out[r0:, r0:r1] = mean.T
    return out


def sample_correlated_uniforms(sigma_psd: np.ndarray, n_samples: int,
                               rng: np.random.Generator) -> np.ndarray:
    """Cholesky-sample N(0, sigma) rows, standardize each coordinate by the
    square root of its diagonal entry, and map through the normal CDF.
    Coordinates with (near-)zero variance are pinned at 0.5."""
    size = sigma_psd.shape[0]
    diag = np.diag(sigma_psd).copy()
    degenerate = diag <= DEGENERATE_VAR
    # sigma_psd + PSD_JITTER * I in one float64 copy: off the diagonal the
    # identity added 0.0, which "+ 0.0" repeats (-0.0 becomes 0.0)
    jittered = np.add(sigma_psd, 0.0, dtype=np.float64)
    jittered.flat[::size + 1] += PSD_JITTER
    try:
        chol = np.linalg.cholesky(jittered)
    except np.linalg.LinAlgError:
        min_eig = float(np.linalg.eigvalsh(sigma_psd).min())
        raise np.linalg.LinAlgError(
            f"Cholesky failed even after jitter; min eigenvalue {min_eig:.3e}"
        ) from None
    del jittered, sigma_psd  # the input too, when the caller passed a temporary
    normals = rng.standard_normal((n_samples, size)) @ chol.T
    normals /= np.sqrt(np.where(degenerate, 1.0, diag))
    uniforms = ndtr(normals, out=normals)
    uniforms[:, degenerate] = 0.5
    return uniforms


def build_inverse_cdf(pdf: Callable, a: float, b: float, delta: float,
                      use_cache: bool = True) -> InverseCdfTable:
    """Tabulate the normalized CDF of an unnormalized density by trapezoid
    integration on the grid {a, a+delta, ..., b}.  Tables are cached per
    (pdf, a, b, delta) so repeated dataset generation integrates once."""
    key = (pdf, float(a), float(b), float(delta))
    if use_cache and key in _TABLE_CACHE:
        return _TABLE_CACHE[key]
    n_steps = max(2, int(round((b - a) / delta)) + 1)
    grid = np.linspace(a, b, n_steps)
    density = np.asarray(pdf(grid), dtype=np.float64)
    if density.shape != grid.shape:
        raise ValueError("pdf must evaluate elementwise on the grid")
    if np.any(density < -1e-12):
        raise ValueError("pdf must be nonnegative on its support")
    density = np.maximum(density, 0.0)
    step = grid[1] - grid[0]
    cum = np.concatenate([[0.0], np.cumsum(step * (density[1:] + density[:-1]) / 2.0)])
    total = cum[-1]
    if total <= 0.0:
        raise ValueError("pdf integrates to zero mass on the given bounds")
    table = InverseCdfTable(x=grid, cdf=cum / total)
    if use_cache:
        _TABLE_CACHE[key] = table
    return table


def inv_cdf_lookup(table: InverseCdfTable, u) -> np.ndarray:
    """Smallest grid x with CDF(x) >= u, the last grid point past the end;
    monotone in u.  Equal to ``x[min(searchsorted(cdf, u, "left"), len(x) - 1)]``.

    Each u reads its guide bucket floor(u*K) and steps at most one index.
    An answer is kept only where cdf[i-1] < u <= cdf[i] (or i == 0), which on
    a non-decreasing table is the searchsorted answer; the rest (flat CDF
    stretches, rounding at bucket edges, u outside [0, 1], NaN) are searched.
    """
    u = np.asarray(u, dtype=np.float64)
    flat = u.ravel()
    cdf = table.cdf
    last = len(cdf) - 1
    # clip before scaling, so no NaN, inf or overflow reaches the cast
    bucket = (np.fmin(np.fmax(flat, 0.0), 1.0) * len(cdf)).astype(np.intp)
    np.minimum(bucket, last, out=bucket)
    idx = table.guide[bucket]
    idx += cdf[idx] < flat
    found = cdf[np.minimum(idx, last)] >= flat
    found &= (cdf[idx - 1] < flat) | (idx == 0)
    if not found.all():
        missed = ~found
        idx[missed] = np.searchsorted(cdf, flat[missed], side="left")
    np.minimum(idx, len(table.x) - 1, out=idx)
    return table.x[idx.reshape(u.shape)]


# ---------------------------------------------------------------------------
# the three built-in densities used by the reference synthetic experiment


def _norm_pdf(x):
    return np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)


def pdf_skew_bump(x):
    """Skew-normal-like body at -4 plus an exponential bump on (8, 9.5)."""
    x = np.asarray(x, dtype=np.float64)
    body = 10.0 * ndtr(10.0 * (x + 4.0)) * _norm_pdf(x + 4.0)
    bump = np.where((x > 8.0) & (x < 9.5), np.exp(x - 8.0) / 10.0, 0.0)
    return body + bump


def pdf_two_regime(x):
    """Gaussian mass at 20 for x > pi, damped oscillation below."""
    x = np.asarray(x, dtype=np.float64)
    upper = 20.0 * _norm_pdf(x - 20.0)
    lower = np.exp(x / 6.0) * (10.0 * np.sin(x) + 10.0)
    return np.where(x > math.pi, upper, lower)


def pdf_left_skew(x):
    """Left-leaning skew-normal shape centered near 4."""
    x = np.asarray(x, dtype=np.float64)
    return 2.0 * ndtr(-4.0 * (x - 4.0)) * _norm_pdf(x - 4.0)


BUILTIN_BOUNDS = ((-8.0, 10.0), (-30.0, 30.0), (-1.0, 7.0))

BUILTIN_THETA = np.array([
    [-1.0, 0.5, -0.2, 0.8],
    [-1.0, 0.3, 0.9, 0.0],
    [-1.0, 0.8, 0.3, -0.9],
])


def builtin_pdfs() -> tuple[Callable, Callable, Callable]:
    return (pdf_skew_bump, pdf_two_regime, pdf_left_skew)


def default_config(n: int = 5000, t: int = 10, seed: int = 0, **overrides) -> SynthConfig:
    """The three-feature reference configuration (irregular marginals,
    third-order MA correlation, noisy linear-threshold response)."""
    return SynthConfig(pdfs=builtin_pdfs(), bounds=BUILTIN_BOUNDS, theta=BUILTIN_THETA.copy(),
                       n=n, t=t, seed=seed, **overrides)


def generate_dataset(config: SynthConfig, return_latent: bool = False):
    """Draw one labeled dataset; identical seeds give identical datasets.

    Draw order is fixed: response coefficients, covariance cross entries,
    series Gaussians, response noise.  With ``return_latent`` the correlated
    uniforms are returned alongside for diagnostics.
    """
    rng = np.random.Generator(np.random.PCG64(config.seed))
    d, t, n = config.d, config.t, config.n

    # one response coefficient per (feature, timestep)
    beta = rng.normal(1.0 / (d * t), config.sigma_beta, size=(d, t))
    # no name holds the covariances, so each is freed once the next step is done with it
    uniforms = sample_correlated_uniforms(nearest_psd(build_covariance(config, rng)), n, rng)
    zeta = rng.normal(0.0, config.sigma_zeta, size=n)

    u_mat = uniforms.reshape(n, d, t)
    score = np.einsum("ndt,dt->n", u_mat, beta) + zeta
    if config.response_threshold == "adaptive":
        threshold = float(beta.sum()) / 2.0
    else:
        threshold = float(config.response_threshold)
    labels = (score > threshold).astype(np.int64)

    values = np.empty((n, d, t))
    for j in range(d):
        a, b = config.bounds[j]
        table = build_inverse_cdf(config.pdfs[j], a, b, config.delta[j])
        values[:, j, :] = inv_cdf_lookup(table, u_mat[:, j, :])
    values.flags.writeable = False  # the batch keeps it without a copy

    dataset = LabeledDataset(TimeSeriesBatch(values), labels)
    if return_latent:
        return dataset, u_mat
    return dataset
