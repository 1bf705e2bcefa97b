"""EDAIN-KL: an invertible preprocessing stack trained by maximum likelihood.

It runs EDAIN's global-aware stage functions from ``adaptive`` (tanh
winsorization, shift and scale, the power transform) without the residual
blend, which would break invertibility, plus each stage's log-det Jacobian
term.  Normalizing maps data toward a standard normal base; generating runs
the chain in reverse.  Training minimizes the negative log-likelihood under
the N(0, I) base (the KL divergence from the data to the transformed base)
with the shared optimizer and per-sublayer learning-rate corrections; the
gradient is EDAIN's stage gradients minus the log-det gradients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import yeojohnson as yj
from .adaptive import (BETA_MIN, SCALE_FLOOR, checkpoint_width, power, power_grads, shift_scale,
                       shift_scale_grads, winsorize, winsorize_grads)
from .data import TimeSeriesBatch, load_arrays, load_fields, minibatch_indices
from .neural import PREDICT_ROWS, Optimizer, Trainable, TrainConfig
from .static_norm import fit_zscore

LOG_2 = math.log(2.0)
LOG_2PI = math.log(2.0 * math.pi)

GROUPS = {"beta": "outlier", "m": "shift", "s": "scale", "lam": "power"}


class FlowDomainError(ValueError):
    """Generate-direction input outside the invertible domain."""


@dataclass
class KlBijectorParams(Trainable):
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

    def parameters(self) -> dict[str, np.ndarray]:
        """The trained arrays; ``mu_hat`` is fixed before training."""
        return {name: getattr(self, name) for name in GROUPS}

    def to_json_dict(self) -> dict:
        arrays = {**self.parameters(), "mu_hat": self.mu_hat}
        return {"kind": "edain_kl", **{name: arr.tolist() for name, arr in arrays.items()}}

    @classmethod
    def from_json_dict(cls, doc: dict) -> "KlBijectorParams":
        """Checked load: a bad entry is a ValueError naming it (``load_arrays``)."""
        load_fields(doc, {}, "edain_kl", extra=("kind", *GROUPS, "mu_hat"))
        params = init_kl_params(checkpoint_width(doc, "beta"))
        load_arrays({**params.parameters(), "mu_hat": params.mu_hat}, doc, "edain_kl",
                    " to match 'beta'")
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
    """EDAIN's global stages without the blend, with the per-coordinate forward
    log-derivatives ld1 (winsorize), ld3 (scale) and ld4 (power)."""
    beta, s = params.beta[None, :, None], params.s[None, :, None]
    w, u, th = winsorize(x, params.mu_hat[None, :, None], beta)
    v3 = shift_scale(w, params.m[None, :, None], s)
    z, point = power(v3, params.lam[None, :, None])
    return {"u": u, "th": th, "v3": v3, "z": z, "point": point, "beta": beta,
            "ld1": _log_sech2(u), "ld3": -np.log(s), "ld4": point.log_dx()}


def normalize_direction(x: TimeSeriesBatch, params: KlBijectorParams) -> tuple[TimeSeriesBatch, np.ndarray]:
    """Map data toward the base distribution; returns (z, per-series log-det).

    The log-det is the sum over all d*T coordinates of the log-derivative of
    the normalizing map, so density values satisfy
    log p(x) = sum log phi(z) + log_det.
    """
    if x.d != params.d:
        raise ValueError(f"batch has {x.d} features, EDAIN-KL bijector expects {params.d}")
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
        raise ValueError(f"batch has {z.d} features, EDAIN-KL bijector expects {params.d}")
    v3 = yj.inverse(z.values, params.lam[None, :, None])
    v1 = v3 * params.s[None, :, None] + params.m[None, :, None]
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
    n, _, t = batch.values.shape
    u, th, point = c["u"], c["th"], c["point"]
    # EDAIN's stage gradients; each log-det gradient is subtracted per element,
    # before the sum over series and time
    g_v3, g_lam = power_grads(c["z"], point)
    g_v3 -= point.dx_log_dx()
    g_lam -= point.dlam_log_dx()
    g_v1, g_out = shift_scale_grads(g_v3, c["v3"], params.s[None, :, None])
    _, g_beta = winsorize_grads(g_v1, u, th)
    g_beta -= 2.0 * u * th / c["beta"]
    grads = {"beta": g_beta.sum(axis=(0, 2)), "m": -g_v1.sum(axis=(0, 2)),
             "s": -g_out.sum(axis=(0, 2)) / params.s + n * t / params.s,
             "lam": g_lam.sum(axis=(0, 2))}
    return float(per_series.sum()), grads


def fit_kl(train: TimeSeriesBatch, config: TrainConfig) -> tuple[KlBijectorParams, list]:
    """Fit the bijector by minibatch gradient descent on the NLL.

    Training starts from the pooled statistics of ``train`` (one pass, before
    any step): mu_hat and the shift m at the pooled mean, the scale s at the
    pooled standard deviation and beta at three of them, so the initial map is
    a z-score with mild winsorization.  mu_hat stays fixed.  Returns the
    best-NLL parameters seen (evaluated on the full data once per epoch and
    restored at the end) and the per-epoch history; a NaN loss aborts and
    returns the last finite checkpoint.
    """
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
    best_snap = params.snapshot()
    history = [{"epoch": 0, "nll": best}]
    for epoch in range(1, config.max_epochs + 1):
        diverged = False
        for idx in minibatch_indices(train.n, config.batch_size, rng):
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
            best_snap = params.snapshot()
    params.restore(best_snap)
    return params, history
