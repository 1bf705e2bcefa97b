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
from .adaptive import (BETA_MIN, SCALE_FLOOR, SHIFT_SCALE_BOUNDS, _tile, checkpoint_width, power,
                       power_grads, shift_scale, shift_scale_grads, winsorize, winsorize_grads)
from .data import TimeSeriesBatch, load_arrays, load_fields, minibatch_indices
from .neural import Optimizer, Trainable, TrainConfig
from .static_norm import fit_zscore

LOG_2 = math.log(2.0)
LOG_2PI = math.log(2.0 * math.pi)
# Values per row block of the full-data passes: 128 KB a float64 temporary.
# fit_kl on synth3 n=5000 (2-vCPU Xeon, numpy 2.4.6, medians of 5) took
# 0.40 s at 2**14 (546 series), 0.44 s at 128 series and 0.48 s at 2**16.
KL_BLOCK_ELEMENTS = 2 ** 14

GROUPS = {"beta": "outlier", "m": "shift", "s": "scale", "lam": "power"}


class FlowDomainError(ValueError):
    """Generate-direction input outside the invertible domain."""


@dataclass
class KlBijectorParams(Trainable):
    """Per-feature bijector parameters plus the fixed pooled mean."""

    GROUPS = GROUPS
    BOUNDS = SHIFT_SCALE_BOUNDS

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


def _log_sech2(u: np.ndarray) -> np.ndarray:
    # log sech^2(u) = -2 (|u| + log1p(exp(-2|u|)) - log 2); stable for any u
    au = np.abs(u)
    return -2.0 * (au + np.log1p(np.exp(-2.0 * au)) - LOG_2)


def _tiles(params: KlBijectorParams, values: np.ndarray) -> dict:
    """The per-feature arrays as contiguous (1, d, T) tiles (``adaptive._tile``)
    for a (N, d, T) array, whose d must be the bijector's."""
    if values.shape[1] != params.d:
        raise ValueError(f"batch has {values.shape[1]} features, EDAIN-KL bijector expects "
                         f"{params.d}")
    return {name: _tile(getattr(params, name), values.shape[2]) for name in (*GROUPS, "mu_hat")}


def _chain(x: np.ndarray, tiles: dict) -> dict:
    """EDAIN's global stages without the blend: the tiles, and the
    intermediates the log-det terms and the gradients read."""
    w, u, th = winsorize(x, tiles["mu_hat"], tiles["beta"])
    v3 = shift_scale(w, tiles["m"], tiles["s"])
    z, point = power(v3, tiles["lam"])
    return {**tiles, "u": u, "th": th, "v3": v3, "z": z, "point": point}


def _blocks(values: np.ndarray, params: KlBijectorParams):
    """(rows, chain) over blocks of ``KL_BLOCK_ELEMENTS`` values (at least one
    series); a series' values do not depend on the rows beside it."""
    n, d, t = values.shape
    tiles, step = _tiles(params, values), max(1, KL_BLOCK_ELEMENTS // max(d * t, 1))
    for start in range(0, n, step):
        yield slice(start, start + step), _chain(values[start:start + step], tiles)


def _nll_terms(c: dict) -> np.ndarray:
    # the base density term minus the log-derivatives of the winsorization
    # (log sech^2 u), the scale (-log s) and the power stage
    return 0.5 * LOG_2PI + 0.5 * c["z"] * c["z"] - _log_sech2(c["u"]) + np.log(c["s"]) \
        - c["point"].log_dx()


def normalize_direction(x: TimeSeriesBatch, params: KlBijectorParams) -> tuple[TimeSeriesBatch, np.ndarray]:
    """Map data toward the base distribution; returns (z, per-series log-det).

    The log-det is the sum over all d*T coordinates of the log-derivative of
    the normalizing map, so density values satisfy
    log p(x) = sum log phi(z) + log_det.  Both run in row blocks
    (:func:`_blocks`); ``harness.KlPreproc`` keeps z.
    """
    z, log_det = np.empty(x.values.shape), np.empty(x.n)
    for rows, c in _blocks(x.values, params):
        z[rows] = c["z"]
        ld = _log_sech2(c["u"]) - np.log(c["s"]) + c["point"].log_dx()
        ld.sum(axis=(1, 2), out=log_det[rows])
    z.flags.writeable = False
    return TimeSeriesBatch(z), log_det


def generate_direction(z: TimeSeriesBatch, params: KlBijectorParams) -> TimeSeriesBatch:
    """Exact inverse of :func:`normalize_direction` on its domain.

    The winsorization inverse needs |value - mu_hat| < beta coordinate-wise;
    violations raise :class:`FlowDomainError` naming the first offending
    coordinate (the practical reading: beta is too small for the requested
    sample).
    """
    tiles = _tiles(params, z.values)
    arg = (yj.inverse(z.values, tiles["lam"]) * tiles["s"] + tiles["m"] - tiles["mu_hat"]) \
        / tiles["beta"]
    bad = np.abs(arg) >= 1.0
    if np.any(bad):
        i, k, t = (int(v) for v in np.argwhere(bad)[0])
        raise FlowDomainError(f"series {i}, feature {k}, timestep {t}: |value - mu_hat| >= beta, "
                              "outside the atanh domain of the winsorization inverse")
    return TimeSeriesBatch(tiles["beta"] * np.arctanh(arg) + tiles["mu_hat"])


def _check_likelihood(per_series: np.ndarray, values: np.ndarray, params: KlBijectorParams) -> None:
    """A non-finite per-series NLL raises FloatingPointError naming the first
    such series, and in it the coordinate whose term is non-finite (or, for an
    overflowing sum, largest) with its input value."""
    if not np.isfinite(per_series).all():
        i = int(np.argmin(np.isfinite(per_series)))
        with np.errstate(all="ignore"):
            terms = np.abs(_nll_terms(_chain(values[i:i + 1], _tiles(params, values)))[0])
        k, t = np.unravel_index(np.argmax(np.where(np.isfinite(terms), terms, np.inf)), terms.shape)
        raise FloatingPointError(f"non-finite likelihood for series {i}, feature {k}, "
                                 f"timestep {t} (value {float(values[i, k, t])!r})")


def series_nll(batch: TimeSeriesBatch, params: KlBijectorParams) -> np.ndarray:
    """The (N,) per-series NLL without gradients, in row blocks
    (:func:`_blocks`), so its memory does not depend on N.  The values are
    those of :func:`negative_log_likelihood` bit for bit; a non-finite one
    raises FloatingPointError naming its series, feature, timestep and value."""
    out = np.empty(batch.n)
    for rows, c in _blocks(batch.values, params):
        _nll_terms(c).sum(axis=(1, 2), out=out[rows])
    _check_likelihood(out, batch.values, params)
    return out


def _nll_grads(c: dict, s: np.ndarray) -> dict:
    """d(NLL)/d{beta, m, s, lam} from a chain: EDAIN's stage gradients, each
    offset per element by its log-det gradient before the sum over series and
    time."""
    n, _, t = c["z"].shape
    u, th, point = c["u"], c["th"], c["point"]
    g_v3, g_lam = power_grads(c["z"], point)
    g_v3 -= point.dx_log_dx()
    g_lam -= point.dlam_log_dx()
    g_v1, g_out = shift_scale_grads(g_v3, c["v3"], c["s"])
    _, g_beta = winsorize_grads(g_v1, u, th)
    g_beta -= 2.0 * u * th / c["beta"]
    return {"beta": g_beta.sum(axis=(0, 2)), "m": -g_v1.sum(axis=(0, 2)),
            "s": -g_out.sum(axis=(0, 2)) / s + n * t / s, "lam": g_lam.sum(axis=(0, 2))}


def negative_log_likelihood(batch: TimeSeriesBatch, params: KlBijectorParams) -> tuple[float, dict]:
    """Total NLL under the standard normal base, with analytic parameter grads.

    Returns (nll, grads) where grads holds d(nll)/d{beta, m, s, lam}.  A
    non-finite loss raises FloatingPointError naming its first coordinate.
    """
    c = _chain(batch.values, _tiles(params, batch.values))
    per_series = _nll_terms(c).sum(axis=(1, 2))
    _check_likelihood(per_series, batch.values, params)
    return float(per_series.sum()), _nll_grads(c, params.s)


def fit_kl(train: TimeSeriesBatch, config: TrainConfig) -> tuple[KlBijectorParams, list]:
    """Fit the bijector by minibatch gradient descent on the NLL.

    Training starts from the pooled statistics of ``train`` (one pass, before
    any step): mu_hat and the shift m at the pooled mean, the scale s at the
    pooled standard deviation and beta at three of them, so the initial map is
    a z-score with mild winsorization; mu_hat stays fixed.  A step follows the
    minibatch's summed NLL (an SGD rate scales with batch x d x T) at ``base_lr``
    in every epoch, so ``milestones`` or ``patience < max_epochs`` is a
    ValueError.  The best full-data NLL (:func:`series_nll`, at the start and after
    each epoch) picks the parameters returned with the history.  A NaN or Inf
    gradient entry ends the fit before its step, as does an overflowing NLL sum;
    a non-finite per-series NLL raises series_nll's FloatingPointError.
    """
    if config.milestones or config.patience < config.max_epochs:
        raise ValueError(f"fit_kl needs milestones=() and patience >= max_epochs "
                         f"({config.max_epochs}), got {config.milestones!r} and {config.patience}")
    pooled = fit_zscore(train)
    std = np.maximum(pooled.std, SCALE_FLOOR)
    params = KlBijectorParams(beta=np.maximum(3.0 * std, BETA_MIN), m=pooled.mean, s=std,
                              lam=np.ones(train.d), mu_hat=pooled.mean)
    optimizer = Optimizer(config, projection=params.projection)
    rng = np.random.Generator(np.random.PCG64(config.seed))

    def full_nll() -> float:
        # one sum of the (N,) values keeps the order of negative_log_likelihood
        return float(series_nll(train, params).sum()) / (train.n * train.d * train.t)

    best, best_snap = full_nll(), params.snapshot()
    history = [{"epoch": 0, "nll": best}]
    for epoch in range(1, config.max_epochs + 1):
        for idx in minibatch_indices(train.n, config.batch_size, rng):
            values = train.values[idx]
            grads = _nll_grads(_chain(values, _tiles(params, values)), params.s)
            if not all(np.isfinite(g).all() for g in grads.values()):
                break
            optimizer.step(params.parameters(), grads, params.groups())
        else:  # every step was taken
            epoch_nll = full_nll()
            if np.isfinite(epoch_nll):
                history.append({"epoch": epoch, "nll": epoch_nll})
                if epoch_nll < best:
                    best, best_snap = epoch_nll, params.snapshot()
                continue
        break
    params.restore(best_snap)
    return params, history
