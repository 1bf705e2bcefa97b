"""Static (fit-once) preprocessing baselines.

Every fit pools each feature over all series and timesteps and uses the
population (divide-by-NT) variance convention; the sample convention would
silently shift the standardized values, so the choice is pinned here.
Fitted statistics are immutable and JSON-serializable so the CLI can apply
them offline.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Optional

import numpy as np
from scipy.special import ndtr, ndtri

from . import yeojohnson as yj
from .data import TimeSeriesBatch

CDF_EPS = 1e-5
GOLDEN_TOL = 1e-6
LAMBDA_RANGE = (-5.0, 5.0)

yeo_johnson = yj.forward


# fields that hold one array per feature (their lengths differ)
_RAGGED = ("quantile_values", "quantile_cdf", "grid", "cdf")


@dataclass
class StaticStats:
    """Per-feature statistics; only the fields a given fit needs are set.

    One codec serves every fit: each set field is written under its own name
    and read back with its dtype (``zero_variance`` is boolean, ``alpha`` a
    scalar, the rest float64).
    """

    mean: Optional[np.ndarray] = None
    std: Optional[np.ndarray] = None
    zero_variance: Optional[np.ndarray] = None
    minimum: Optional[np.ndarray] = None
    maximum: Optional[np.ndarray] = None
    lower_clip: Optional[np.ndarray] = None
    upper_clip: Optional[np.ndarray] = None
    lam: Optional[np.ndarray] = None
    quantile_values: Optional[list[np.ndarray]] = None
    quantile_cdf: Optional[list[np.ndarray]] = None
    # kernel density integral transform
    alpha: Optional[float] = None
    grid: Optional[list[np.ndarray]] = None
    cdf: Optional[list[np.ndarray]] = None
    cdf_lo: Optional[np.ndarray] = None
    cdf_hi: Optional[np.ndarray] = None
    bandwidth: Optional[np.ndarray] = None

    def to_json_dict(self) -> dict:
        out = {}
        for f in fields(self):
            v = getattr(self, f.name)
            if v is None:
                continue
            out[f.name] = [a.tolist() for a in v] if f.name in _RAGGED else np.asarray(v).tolist()
        return out

    @classmethod
    def from_json_dict(cls, doc: dict) -> "StaticStats":
        kwargs = {}
        for f in fields(cls):
            if f.name not in doc:
                continue
            v = doc[f.name]
            dtype = bool if f.name == "zero_variance" else np.float64
            if f.name == "alpha":
                kwargs[f.name] = v  # kept as written, like the config it came from
            elif f.name in _RAGGED:
                kwargs[f.name] = [np.asarray(a, dtype=dtype) for a in v]
            else:
                kwargs[f.name] = np.asarray(v, dtype=dtype)
        return cls(**kwargs)


def _require_data(train: TimeSeriesBatch) -> None:
    if train.n * train.t == 0 or train.d == 0:
        raise ValueError("cannot fit on an empty batch")


def _check_dim(x: TimeSeriesBatch, d: int) -> None:
    if x.d != d:
        raise ValueError(f"batch has {x.d} features but statistics were fitted for {d}")


def fit_zscore(train: TimeSeriesBatch) -> StaticStats:
    _require_data(train)
    pooled = train.values.reshape(train.n, train.d, train.t)
    mean = pooled.mean(axis=(0, 2))
    std = np.sqrt(((pooled - mean[None, :, None]) ** 2).mean(axis=(0, 2)))
    return StaticStats(mean=mean, std=std, zero_variance=std == 0.0)


def apply_zscore(x: TimeSeriesBatch, stats: StaticStats) -> TimeSeriesBatch:
    """(x - mean)/std per feature; flagged constant features are shifted only."""
    _check_dim(x, len(stats.mean))
    denom = np.where(stats.zero_variance, 1.0, stats.std)
    out = (x.values - stats.mean[None, :, None]) / denom[None, :, None]
    return TimeSeriesBatch(out)


def fit_minmax(train: TimeSeriesBatch) -> StaticStats:
    _require_data(train)
    mn = train.values.min(axis=(0, 2))
    mx = train.values.max(axis=(0, 2))
    return StaticStats(minimum=mn, maximum=mx, zero_variance=mx == mn)


def apply_minmax(x: TimeSeriesBatch, stats: StaticStats) -> TimeSeriesBatch:
    """(x - min)/(max - min); constant features map to 0.5, no clipping."""
    _check_dim(x, len(stats.minimum))
    span = np.where(stats.zero_variance, 1.0, stats.maximum - stats.minimum)
    out = (x.values - stats.minimum[None, :, None]) / span[None, :, None]
    out = np.where(stats.zero_variance[None, :, None], 0.5, out)
    return TimeSeriesBatch(out)


def fit_winsorize(train: TimeSeriesBatch, lower_q: float = 0.01, upper_q: float = 0.99) -> StaticStats:
    """Clip thresholds from empirical quantiles (linear interpolation, type 7)."""
    _require_data(train)
    if not (0.0 <= lower_q < upper_q <= 1.0):
        raise ValueError(f"need 0 <= lower_q < upper_q <= 1, got ({lower_q}, {upper_q})")
    lo = np.empty(train.d)
    hi = np.empty(train.d)
    for k in range(train.d):
        pooled = train.pooled(k)
        lo[k], hi[k] = np.quantile(pooled, [lower_q, upper_q], method="linear")
    return StaticStats(lower_clip=lo, upper_clip=hi)


def apply_winsorize(x: TimeSeriesBatch, stats: StaticStats) -> TimeSeriesBatch:
    _check_dim(x, len(stats.lower_clip))
    out = np.clip(x.values, stats.lower_clip[None, :, None], stats.upper_clip[None, :, None])
    return TimeSeriesBatch(out)


def _yj_profile_loglik(pooled: np.ndarray, lam: float) -> float:
    transformed = yj.forward(pooled, lam)
    var = transformed.var()  # population convention
    if not np.isfinite(var) or var <= 0.0:
        return -np.inf
    n = pooled.size
    return -0.5 * n * np.log(var) + (lam - 1.0) * np.sum(np.sign(pooled) * np.log1p(np.abs(pooled)))


def _golden_section_max(f, lo: float, hi: float, tol: float) -> float:
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while (b - a) > tol:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def fit_yeo_johnson_static(train: TimeSeriesBatch) -> StaticStats:
    """Per-feature exponent maximizing the Gaussian profile log-likelihood.

    The objective is -(NT/2) log Var(f(x; lam)) + (lam - 1) sum sign(x) log(|x|+1),
    searched by golden section over [-5, 5] to 1e-6.
    """
    _require_data(train)
    lam = np.empty(train.d)
    for k in range(train.d):
        pooled = train.pooled(k)
        if not np.isfinite(_yj_profile_loglik(pooled, 1.0)):
            raise ValueError(f"feature {k}: power-transform objective is not finite "
                             "(constant or degenerate data)")
        lam[k] = _golden_section_max(
            lambda v: _yj_profile_loglik(pooled, v), LAMBDA_RANGE[0], LAMBDA_RANGE[1], GOLDEN_TOL
        )
    return StaticStats(lam=lam)


def apply_yeo_johnson_static(x: TimeSeriesBatch, stats: StaticStats) -> TimeSeriesBatch:
    _check_dim(x, len(stats.lam))
    return TimeSeriesBatch(yj.forward(x.values, stats.lam[None, :, None]))


def fit_cdf_inversion(train: TimeSeriesBatch) -> StaticStats:
    """Empirical CDF grid per feature (k/NT levels, duplicates merged upward)."""
    _require_data(train)
    values, cdfs = [], []
    for k in range(train.d):
        pooled = np.sort(train.pooled(k))
        n = pooled.size
        uniq, counts = np.unique(pooled, return_counts=True)
        levels = np.cumsum(counts) / n
        values.append(uniq)
        cdfs.append(levels)
    return StaticStats(quantile_values=values, quantile_cdf=cdfs)


def apply_cdf_inversion(x: TimeSeriesBatch, stats: StaticStats) -> TimeSeriesBatch:
    """Empirical CDF (linear interpolation), clipped to [eps, 1-eps], then
    through the standard normal inverse CDF.  Values below the training
    minimum land at eps, so out-of-range inputs map to the Gaussian tails.
    """
    _check_dim(x, len(stats.quantile_values))
    out = np.empty_like(x.values)
    for k in range(x.d):
        u = np.interp(x.values[:, k, :], stats.quantile_values[k], stats.quantile_cdf[k],
                      left=0.0, right=1.0)
        u = np.clip(u, CDF_EPS, 1.0 - CDF_EPS)
        out[:, k, :] = ndtri(u)
    return TimeSeriesBatch(out)


@dataclass
class KditConfig:
    """Settings of the kernel density integral transform.

    ``alpha`` scales the rule-of-thumb bandwidth h = alpha * std * (NT)^(-1/5);
    large alpha approaches min-max scaling, small alpha approaches the
    empirical quantile transform.  ``grid_size`` is the number of points of
    the per-feature grid the CDF is evaluated on.  The fitted state is a
    :class:`StaticStats` returned by :func:`fit_kdit`.
    """

    alpha: float = 1.0
    grid_size: int = 1024

    def __post_init__(self):
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")
        if self.grid_size < 2:
            raise ValueError("grid_size must be at least 2")


def fit_kdit(train: TimeSeriesBatch, config: KditConfig) -> StaticStats:
    """Kernel-smoothed CDF per feature on a grid covering [min - 3h, max + 3h].

    The CDF is renormalized over the training range so both limits come out
    on the [0, 1] scale; constant features are flagged and map to 0.5.
    """
    _require_data(train)
    grids, cdfs = [], []
    lo = np.empty(train.d)
    hi = np.empty(train.d)
    bw = np.empty(train.d)
    zero = np.zeros(train.d, dtype=bool)
    for k in range(train.d):
        centers = train.pooled(k)
        n = centers.size
        sd = centers.std()
        if sd == 0.0:
            zero[k] = True
            grids.append(np.array([centers[0] - 1.0, centers[0] + 1.0]))
            cdfs.append(np.array([0.0, 1.0]))
            lo[k], hi[k], bw[k] = 0.0, 1.0, 0.0
            continue
        h = config.alpha * sd * n ** (-0.2)
        bw[k] = h
        grid = np.linspace(centers.min() - 3.0 * h, centers.max() + 3.0 * h, config.grid_size)
        cdf = np.empty_like(grid)
        # chunk the grid so the (grid x centers) kernel matrix stays small
        step = max(1, int(2_000_000 // max(n, 1)))
        for start in range(0, grid.size, step):
            block = grid[start:start + step]
            cdf[start:start + step] = ndtr((block[:, None] - centers[None, :]) / h).mean(axis=1)
        grids.append(grid)
        cdfs.append(cdf)
        lo[k] = np.interp(centers.min(), grid, cdf)
        hi[k] = np.interp(centers.max(), grid, cdf)
    return StaticStats(alpha=config.alpha, grid=grids, cdf=cdfs, cdf_lo=lo, cdf_hi=hi,
                       bandwidth=bw, zero_variance=zero)


def apply_kdit(x: TimeSeriesBatch, fitted: StaticStats) -> TimeSeriesBatch:
    if fitted.grid is None:
        raise ValueError("apply_kdit needs statistics from fit_kdit")
    _check_dim(x, len(fitted.grid))
    out = np.empty_like(x.values)
    for k in range(x.d):
        if fitted.zero_variance[k]:
            out[:, k, :] = 0.5
            continue
        raw = np.interp(x.values[:, k, :], fitted.grid[k], fitted.cdf[k])
        out[:, k, :] = (raw - fitted.cdf_lo[k]) / (fitted.cdf_hi[k] - fitted.cdf_lo[k])
    return TimeSeriesBatch(out)


# step name -> (fit(batch, pipeline), apply(batch, stats)).  The lambdas look
# the module-level functions up at call time, so a function rebound on the
# module (a tracer's or a test's wrapper) sees every pipeline call.
_STEPS = {
    "winsorize": (lambda b, p: fit_winsorize(b, *p.winsorize_quantiles),
                  lambda x, s: apply_winsorize(x, s)),
    "zscore": (lambda b, p: fit_zscore(b), lambda x, s: apply_zscore(x, s)),
    "minmax": (lambda b, p: fit_minmax(b), lambda x, s: apply_minmax(x, s)),
    "yeo_johnson": (lambda b, p: fit_yeo_johnson_static(b),
                    lambda x, s: apply_yeo_johnson_static(x, s)),
    "cdf_inversion": (lambda b, p: fit_cdf_inversion(b), lambda x, s: apply_cdf_inversion(x, s)),
    "kdit": (lambda b, p: fit_kdit(b, KditConfig(alpha=p.kdit_alpha)),
             lambda x, s: apply_kdit(x, s)),
}

# step name -> the StaticStats fields its fit sets, which a saved stage must carry
_STAGE_FIELDS = {
    "winsorize": ("lower_clip", "upper_clip"),
    "zscore": ("mean", "std", "zero_variance"),
    "minmax": ("minimum", "maximum", "zero_variance"),
    "yeo_johnson": ("lam",),
    "cdf_inversion": ("quantile_values", "quantile_cdf"),
    "kdit": ("alpha", "grid", "cdf", "cdf_lo", "cdf_hi", "bandwidth", "zero_variance"),
}


@dataclass
class StaticPipeline:
    """An ordered chain of static transforms, fitted stage by stage.

    Each stage is fitted on the output of the stages before it, which is the
    only order under which applying the chain reproduces the fitted view of
    the training data.  ``fitted`` holds one :class:`StaticStats` per step;
    the JSON form lists them as ``stages``, each tagged with its ``step``.
    """

    steps: list[str]
    winsorize_quantiles: tuple[float, float] = (0.01, 0.99)
    kdit_alpha: float = 1.0
    fitted: list[StaticStats] = field(default_factory=list)

    def __post_init__(self):
        for s in self.steps:
            if s not in _STEPS:
                raise ValueError(f"unknown pipeline step {s!r}")

    def fit(self, train: TimeSeriesBatch) -> "StaticPipeline":
        self.fitted = []
        current = train
        for s in self.steps:
            fit, apply = _STEPS[s]
            stats = fit(current, self)
            current = apply(current, stats)
            self.fitted.append(stats)
        return self

    def apply(self, x: TimeSeriesBatch) -> TimeSeriesBatch:
        if len(self.fitted) != len(self.steps):
            raise ValueError("pipeline has not been fitted")
        current = x
        for s, stats in zip(self.steps, self.fitted):
            current = _STEPS[s][1](current, stats)
        return current

    def to_json_dict(self) -> dict:
        return {
            "steps": list(self.steps),
            "winsorize_quantiles": list(self.winsorize_quantiles),
            "kdit_alpha": self.kdit_alpha,
            "stages": [{"step": s, **stats.to_json_dict()}
                       for s, stats in zip(self.steps, self.fitted)],
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "StaticPipeline":
        """Load a fitted pipeline; a stage that is missing, mistagged, lacks a
        field of its step or disagrees on the feature count is a ValueError
        naming the stage and the field."""
        for key in ("steps", "stages"):
            if key not in doc:
                raise ValueError(f"static pipeline is missing field {key!r}")
        steps, stages = list(doc["steps"]), doc["stages"]
        if len(stages) != len(steps):
            raise ValueError(f"static pipeline lists {len(steps)} steps "
                             f"but {len(stages)} stages")
        pipeline = cls(steps=steps,
                       winsorize_quantiles=tuple(doc.get("winsorize_quantiles", (0.01, 0.99))),
                       kdit_alpha=doc.get("kdit_alpha", 1.0))
        n_features = None
        for i, (step, stage) in enumerate(zip(steps, stages)):
            if stage.get("step") != step:
                raise ValueError(f"stage {i} is tagged {stage.get('step')!r} "
                                 f"but step {i} is {step!r}")
            for name in _STAGE_FIELDS[step]:
                if name not in stage:
                    raise ValueError(f"stage {i} ({step}) is missing field {name!r}")
                if name == "alpha":  # the one scalar field
                    continue
                value = stage[name]
                if not isinstance(value, list):
                    raise ValueError(f"stage {i} ({step}) field {name!r} is not a "
                                     f"per-feature list")
                if n_features is None:
                    n_features = len(value)
                if len(value) != n_features:
                    raise ValueError(f"stage {i} ({step}) field {name!r} has "
                                     f"{len(value)} features, expected {n_features}")
            pipeline.fitted.append(StaticStats.from_json_dict(stage))
        return pipeline
