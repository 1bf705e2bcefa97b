"""Invertible preprocessing stack trained by maximum likelihood.

The layer composes four elementwise bijections per feature: tanh
winsorization (no residual blend, which would break invertibility), shift,
scale, and the power transform.  Normalizing a batch means mapping data
toward a standard normal base distribution while accumulating the log-det
Jacobian; generating runs the chain in reverse.  Training minimizes the
negative data log-likelihood under the N(0, I) base (equivalently the KL
divergence from the data to the transformed base), using the shared
optimizer stack with per-sublayer learning-rate corrections.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import yeojohnson as yj
from .adaptive import BETA_MIN, SCALE_FLOOR
from .data import TimeSeriesBatch, minibatch_indices
from .neural import PREDICT_ROWS, Optimizer, TrainConfig, load_arrays
from .static_norm import fit_zscore

LOG_2 = math.log(2.0)
LOG_2PI = math.log(2.0 * math.pi)

SUBLAYERS = ("outlier", "shift", "scale", "power")

GROUPS = {"beta": "outlier", "m": "shift", "s": "scale", "lam": "power"}


class FlowDomainError(ValueError):
    """Generate-direction input outside the invertible domain."""


@dataclass
class KlBijectorParams:
    """Per-feature bijector parameters plus the fixed pooled mean."""

    beta: np.ndarray
    m: np.ndarray
    s: np.ndarray
    lam: np.ndarray
    mu_hat: np.ndarray

    def __post_init__(self):
        for name in ("beta", "m", "s", "lam", "mu_hat"):
            setattr(self, name, np.asarray(getattr(self, name), dtype=np.float64).copy())

    @property
    def d(self) -> int:
        return len(self.beta)

    def copy(self) -> "KlBijectorParams":
        return KlBijectorParams(self.beta, self.m, self.s, self.lam, self.mu_hat)

    def parameters(self) -> dict[str, np.ndarray]:
        """The trained arrays; ``mu_hat`` is fixed before training."""
        return {name: getattr(self, name) for name in GROUPS}

    def to_json_dict(self) -> dict:
        arrays = {**self.parameters(), "mu_hat": self.mu_hat}
        return {"kind": "edain_kl", **{name: arr.tolist() for name, arr in arrays.items()}}

    @classmethod
    def from_json_dict(cls, doc: dict) -> "KlBijectorParams":
        """Checked load: a bad entry is a ValueError naming it (``load_arrays``)."""
        params = init_kl_params(np.size(doc.get("beta", ())))
        load_arrays({**params.parameters(), "mu_hat": params.mu_hat}, doc, "edain_kl")
        return params


def init_kl_params(d: int) -> KlBijectorParams:
    return KlBijectorParams(beta=np.full(d, 3.0), m=np.zeros(d), s=np.ones(d),
                            lam=np.ones(d), mu_hat=np.zeros(d))


def project_kl(params: KlBijectorParams) -> None:
    np.maximum(params.beta, BETA_MIN, out=params.beta)
    np.maximum(params.s, SCALE_FLOOR, out=params.s)


def _log_sech2(u: np.ndarray) -> np.ndarray:
    # log sech^2(u) = -2 (|u| + log1p(exp(-2|u|)) - log 2); stable for any u
    au = np.abs(u)
    return -2.0 * (au + np.log1p(np.exp(-2.0 * au)) - LOG_2)


def _chain(x: np.ndarray, params: KlBijectorParams) -> dict:
    """Forward pass through winsorize -> shift -> scale -> power with the
    per-coordinate forward log-derivatives of each stage.  The power stage's
    prepared point is returned too, for the derivatives of the NLL."""
    beta = params.beta[None, :, None]
    mu = params.mu_hat[None, :, None]
    m = params.m[None, :, None]
    s = params.s[None, :, None]
    lam = params.lam[None, :, None]

    u = (x - mu) / beta
    th = np.tanh(u)
    v1 = beta * th + mu
    ld1 = _log_sech2(u)
    v2 = v1 - m
    v3 = v2 / s
    ld3 = -np.log(s)
    power = yj.PowerPoint(v3, lam)
    z = power.forward()
    ld4 = power.log_dx()
    return {"x": x, "u": u, "th": th, "v1": v1, "v2": v2, "v3": v3, "z": z, "power": power,
            "ld1": ld1, "ld3": ld3, "ld4": ld4, "s": s, "beta": beta}


def normalize_direction(x: TimeSeriesBatch, params: KlBijectorParams) -> tuple[TimeSeriesBatch, np.ndarray]:
    """Map data toward the base distribution; returns (z, per-series log-det).

    The log-det is the sum over all d*T coordinates of the log-derivative of
    the normalizing map, so density values satisfy
    log p(x) = sum log phi(z) + log_det.
    """
    if x.d != params.d:
        raise ValueError("feature dimension mismatch")
    c = _chain(x.values, params)
    log_det = (c["ld1"] + c["ld3"] + c["ld4"]).sum(axis=(1, 2))
    return TimeSeriesBatch(c["z"]), log_det


def generate_direction(z: TimeSeriesBatch, params: KlBijectorParams) -> TimeSeriesBatch:
    """Exact inverse of :func:`normalize_direction` on its domain.

    The winsorization inverse needs |value - mu_hat| < beta coordinate-wise;
    violations raise :class:`FlowDomainError` naming the first offending
    coordinate (the practical reading: beta is too small for the requested
    sample).
    """
    if z.d != params.d:
        raise ValueError("feature dimension mismatch")
    lam = params.lam[None, :, None]
    v3 = yj.inverse(z.values, lam)
    v2 = v3 * params.s[None, :, None]
    v1 = v2 + params.m[None, :, None]
    arg = (v1 - params.mu_hat[None, :, None]) / params.beta[None, :, None]
    bad = np.abs(arg) >= 1.0
    if np.any(bad):
        i, k, t = (int(v) for v in np.argwhere(bad)[0])
        raise FlowDomainError(
            f"series {i}, feature {k}, timestep {t}: |value - mu_hat| >= beta, "
            "outside the atanh domain of the winsorization inverse"
        )
    x = params.beta[None, :, None] * np.arctanh(arg) + params.mu_hat[None, :, None]
    return TimeSeriesBatch(x)


def log_det_terms(value: np.ndarray, params: KlBijectorParams, sublayer: str) -> np.ndarray:
    """Per-coordinate log-derivative of one sublayer's *inverse* map.

    Shift contributes log 1 = 0; scale contributes log|s|; winsorization
    contributes -log|1 - ((v - mu_hat)/beta)^2|; the power transform uses its
    inverse branch table.  ``value`` is the point in the sublayer's output
    space (the input of the inverse map).
    """
    value = np.asarray(value, dtype=np.float64)
    if sublayer == "shift":
        return np.zeros_like(value)
    if sublayer == "scale":
        return np.broadcast_to(np.log(np.abs(params.s))[None, :, None], value.shape).copy()
    if sublayer == "outlier":
        arg = (value - params.mu_hat[None, :, None]) / params.beta[None, :, None]
        return -np.log(np.abs(1.0 - arg * arg))
    if sublayer == "power":
        return yj.inverse_log_dz(value, params.lam[None, :, None])
    raise ValueError(f"unknown sublayer {sublayer!r}")


def _series_nll(values: np.ndarray, params: KlBijectorParams,
                first: int = 0) -> tuple[np.ndarray, dict]:
    """Per-series NLL of a (n, d, T) array and its forward chain.  A non-finite
    value raises FloatingPointError naming the series as ``first + i``."""
    c = _chain(values, params)
    z = c["z"]
    per_series = (0.5 * LOG_2PI + 0.5 * z * z - c["ld1"] - c["ld3"] - c["ld4"]).sum(axis=(1, 2))
    if not np.all(np.isfinite(per_series)):
        bad = first + int(np.argwhere(~np.isfinite(per_series))[0][0])
        raise FloatingPointError(f"non-finite likelihood for series {bad}")
    return per_series, c


def series_nll(batch: TimeSeriesBatch, params: KlBijectorParams) -> np.ndarray:
    """The (N,) per-series NLL, computed ``PREDICT_ROWS`` series at a time
    without gradients, so its memory does not depend on N.  The values are
    those of :func:`negative_log_likelihood` bit for bit; a non-finite one
    raises FloatingPointError naming the first such series."""
    out = np.empty(batch.n)
    for start in range(0, batch.n, PREDICT_ROWS):
        rows = slice(start, start + PREDICT_ROWS)
        out[rows], _ = _series_nll(batch.values[rows], params, start)
    return out


def negative_log_likelihood(batch: TimeSeriesBatch, params: KlBijectorParams) -> tuple[float, dict]:
    """Total NLL under the standard normal base, with analytic parameter grads.

    Returns (nll, grads) where grads holds d(nll)/d{beta, m, s, lam}.  A
    non-finite loss reports the first offending series index.
    """
    per_series, c = _series_nll(batch.values, params)
    z, v3, power, s = c["z"], c["v3"], c["power"], c["s"]
    n, d, t = batch.values.shape
    nll = float(per_series.sum())

    # reverse-mode through the four stages
    g_z = z
    g_v3 = g_z * power.dx() - power.dx_log_dx()
    g_lam = (g_z * power.dlam() - power.dlam_log_dx()).sum(axis=(0, 2))

    g_v2 = g_v3 / s
    g_s = (g_v3 * (-v3 / s)).sum(axis=(0, 2)) + n * t / params.s

    g_v1 = g_v2
    g_m = (-g_v2).sum(axis=(0, 2))

    u, th, beta = c["u"], c["th"], c["beta"]
    dv1_dbeta = th - u * (1.0 - th * th)
    g_beta = (g_v1 * dv1_dbeta - 2.0 * u * th / beta).sum(axis=(0, 2))

    grads = {"beta": g_beta, "m": g_m, "s": g_s, "lam": g_lam}
    return nll, grads


def fit_kl(train: TimeSeriesBatch,
           config: Optional[TrainConfig] = None) -> tuple[KlBijectorParams, list]:
    """Fit the bijector by minibatch gradient descent on the NLL.

    Training starts from the pooled statistics of ``train`` (one pass, before
    any step): mu_hat and the shift m at the pooled mean, the scale s at the
    pooled standard deviation and beta at three of them, so the initial map is
    a z-score with mild winsorization.  mu_hat stays fixed.  Returns the
    best-NLL parameters seen (evaluated on the full data once per epoch) and
    the per-epoch history; a NaN loss aborts and returns the last finite
    checkpoint.
    """
    if config is None:
        config = TrainConfig(base_lr=1e-2, optimizer="adam", batch_size=256, max_epochs=50,
                             milestones=(), patience=50,
                             corrections={"outlier": 1.0, "shift": 1.0, "scale": 1.0, "power": 1.0})

    pooled = fit_zscore(train)
    std = np.maximum(pooled.std, SCALE_FLOOR)
    params = KlBijectorParams(beta=np.maximum(3.0 * std, BETA_MIN), m=pooled.mean, s=std,
                              lam=np.ones(train.d), mu_hat=pooled.mean)
    param_dict = params.parameters()
    optimizer = Optimizer(config, projection=lambda: project_kl(params))
    rng = np.random.Generator(np.random.PCG64(config.seed))

    def full_nll() -> float:
        # one sum of the (N,) values keeps the order of negative_log_likelihood
        return float(series_nll(train, params).sum()) / (train.n * train.d * train.t)

    best = full_nll()
    best_params = params.copy()
    history = [{"epoch": 0, "nll": best}]
    for epoch in range(1, config.max_epochs + 1):
        diverged = False
        for idx in minibatch_indices(train.n, config.batch_size, rng, shuffle=True):
            xb = TimeSeriesBatch(train.values[idx])
            try:
                _, grads = negative_log_likelihood(xb, params)
            except FloatingPointError:
                diverged = True
                break
            if any(not np.all(np.isfinite(g)) for g in grads.values()):
                diverged = True
                break
            optimizer.step(param_dict, grads, GROUPS)
        if diverged:
            break
        epoch_nll = full_nll()
        if not np.isfinite(epoch_nll):
            break
        history.append({"epoch": epoch, "nll": epoch_nll})
        if epoch_nll < best:
            best = epoch_nll
            best_params = params.copy()
    return best_params, history
