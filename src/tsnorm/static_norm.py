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
from .data import BoolArray, TimeSeriesBatch, check_fields, check_keys, load_fields, type_hints

CDF_EPS = 1e-5
GOLDEN_TOL = 1e-6
LAMBDA_RANGE = (-5.0, 5.0)
TINY = np.finfo(np.float64).tiny  # the smallest positive normal float
# ndtr(z) is exactly 1.0 from z = 8.2924 up and below 5.2e-17 from -8.3 down:
# the KDIT fit counts the first kernel terms as 1.0 and drops the second
NDTR_ONE_Z = 8.3
# The KDIT fit groups the sorted centers into bins at most KDIT_BIN_WIDTH
# bandwidths wide and sums each bin's kernel terms from a Taylor expansion
# about the bin's midpoint (the fast Gauss transform of Greengard & Strain,
# 1991).  With d_j = (c_j - midpoint)/h and z = (g - midpoint)/h,
#   sum_j ndtr(z - d_j) = count ndtr(z) - phi(z) sum_k M_k He_{k-1}(z),
#   M_k = sum_j d_j^k / k!.
# Every |d_j| <= 1/8, so cutting the series after KDIT_TERMS terms (ndtr and
# M_1..M_11) leaves at most (1/8)^12/12! * max|He_11 phi| = 3.5e-17 per term.
KDIT_BIN_WIDTH = 0.25
KDIT_TERMS = 12
# a bin this far from g, in bandwidths, has every member NDTR_ONE_Z or more away
KDIT_REACH = NDTR_ONE_Z + KDIT_BIN_WIDTH / 2
KDIT_BLOCK = 2 ** 13  # (grid point, bin) pairs evaluated at once: 64 KB a temporary


@dataclass
class StaticStats:
    """Per-feature statistics; only the fields a given fit needs are set.

    One codec serves every fit: each set field is written under its own name
    and read back as its annotation types it (``zero_variance`` is boolean,
    ``alpha`` a scalar, the rest finite float64).
    """

    mean: Optional[np.ndarray] = None
    std: Optional[np.ndarray] = None
    zero_variance: Optional[BoolArray] = None
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
            out[f.name] = [a.tolist() for a in v] if isinstance(v, list) else \
                np.asarray(v).tolist()
        return out


def _require_data(train: TimeSeriesBatch) -> None:
    if train.n * train.t == 0 or train.d == 0:
        raise ValueError("cannot fit on an empty batch")


def _check_dim(x: TimeSeriesBatch, d: int) -> None:
    if x.d != d:
        raise ValueError(f"batch has {x.d} features but statistics were fitted for {d}")


def fit_zscore(train: TimeSeriesBatch) -> StaticStats:
    _require_data(train)
    pooled = train.values
    mean = pooled.mean(axis=(0, 2))
    std = np.sqrt(((pooled - mean[None, :, None]) ** 2).mean(axis=(0, 2)))
    # equal values can give std > 0 (the mean rounds), unequal ones std == 0
    # (squares underflow); == ignores which signed zero the reductions keep
    zero = (pooled.min(axis=0).min(axis=1) == pooled.max(axis=0).max(axis=1)) | (std == 0.0)
    return StaticStats(mean=mean, std=std, zero_variance=zero)


def apply_zscore(x: TimeSeriesBatch, stats: StaticStats) -> TimeSeriesBatch:
    """(x - mean)/std per feature; flagged constant features are shifted only."""
    _check_dim(x, len(stats.mean))
    denom = np.where(stats.zero_variance, 1.0, stats.std)
    out = (x.values - stats.mean[None, :, None]) / denom[None, :, None]
    return TimeSeriesBatch(out)


def fit_minmax(train: TimeSeriesBatch) -> StaticStats:
    _require_data(train)
    mn, mx = train.values.min(axis=(0, 2)), train.values.max(axis=(0, 2))
    return StaticStats(minimum=mn, maximum=mx, zero_variance=mx == mn)


def apply_minmax(x: TimeSeriesBatch, stats: StaticStats) -> TimeSeriesBatch:
    """(x - min)/(max - min); constant features map to 0.5, no clipping."""
    _check_dim(x, len(stats.minimum))
    span = np.where(stats.zero_variance, 1.0, stats.maximum - stats.minimum)
    out = (x.values - stats.minimum[None, :, None]) / span[None, :, None]
    out[:, stats.zero_variance, :] = 0.5
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


def _yj_profile(pooled: np.ndarray):
    """The profile log-likelihood of one pooled feature as a function of lam.

    log1p|x|, the branch select and the Jacobian sum do not depend on lam, so
    they are computed once for the whole search.
    """
    point = yj.PowerPoint(pooled, 1.0)
    n = pooled.size
    log_jacobian = np.sum(np.sign(pooled) * point.lp)

    def loglik(lam: float) -> float:
        var = point.at(lam).forward().var()  # population convention
        if not np.isfinite(var) or var <= 0.0:
            return -np.inf
        return -0.5 * n * np.log(var) + (lam - 1.0) * log_jacobian

    return loglik


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
        loglik = _yj_profile(train.pooled(k))
        if not np.isfinite(loglik(1.0)):
            raise yj.PowerDomainError(f"feature {k}: power-transform objective is not "
                                      "finite (constant or degenerate data)")
        lam[k] = _golden_section_max(loglik, LAMBDA_RANGE[0], LAMBDA_RANGE[1], GOLDEN_TOL)
    return StaticStats(lam=lam)


def apply_yeo_johnson_static(x: TimeSeriesBatch, stats: StaticStats) -> TimeSeriesBatch:
    _check_dim(x, len(stats.lam))
    return TimeSeriesBatch(yj.forward(x.values, stats.lam[None, :, None]))


def fit_cdf_inversion(train: TimeSeriesBatch) -> StaticStats:
    """Empirical CDF grid per feature (k/NT levels, duplicates merged upward)."""
    _require_data(train)
    values, cdfs = [], []
    for k in range(train.d):
        # np.unique sorts again, but which of -0.0 and 0.0 it keeps for a run
        # of zeros depends on the order it starts from
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
        check_fields(self, "kdit")
        _check_alpha(self.alpha, "kdit alpha")
        if self.grid_size < 2:
            raise ValueError(f"kdit grid_size must be at least 2, got {self.grid_size!r}")


def _check_alpha(value: float, name: str) -> None:
    if not 0 < value < np.inf:
        raise ValueError(f"{name} must be a finite positive number, got {value!r}")


def check_static_fields(winsorize_quantiles: tuple[float, float], kdit_alpha: float,
                        owner: str) -> None:
    """Refuse ``winsorize_quantiles`` unless 0 <= lower < upper <= 1, and
    ``kdit_alpha`` unless it is finite and positive, with a ValueError naming
    the field of ``owner`` (a static pipeline or an experiment config)."""
    lower, upper = winsorize_quantiles
    if not 0.0 <= lower < upper <= 1.0:
        raise ValueError(f"{owner} winsorize_quantiles must be two quantiles "
                         f"0 <= lower < upper <= 1, got {winsorize_quantiles!r}")
    _check_alpha(kdit_alpha, f"{owner} kdit_alpha")


def _kernel_bins(ordered: np.ndarray, h: float):
    """The sorted centers grouped into bins at most h/4 wide: each bin's
    count, midpoint and moments M_1..M_11 (one row per k).

    A gap wider than a bin starts a new run of centers, and each run is cut
    into cells h/4 wide from its first center.  No center lies more than
    n/4 bandwidths past the first of its run, so no cell index overflows,
    whatever the size of h.
    """
    gap = np.diff(ordered) > KDIT_BIN_WIDTH * h
    first = np.flatnonzero(np.concatenate(([True], gap)))
    cell = np.repeat(ordered[first], np.diff(np.append(first, ordered.size)))
    np.subtract(ordered, cell, out=cell)
    cell /= h
    cell /= KDIT_BIN_WIDTH
    np.floor(cell, out=cell)
    starts = np.flatnonzero(np.concatenate(([True], gap | (np.diff(cell) != 0))))
    count = np.diff(np.append(starts, ordered.size))
    low, high = ordered[starts], ordered[starts + count - 1]
    mid = low + (high - low) / 2
    d = np.subtract(ordered, np.repeat(mid, count), out=cell)  # the cells are done with
    d /= h
    term = d.copy()
    moments = np.empty((KDIT_TERMS - 1, starts.size))
    for k in range(1, KDIT_TERMS):
        if k > 1:
            term *= d
            term /= k
        moments[k - 1] = np.add.reduceat(term, starts)
    return count.astype(np.float64), mid, moments


def _bin_terms(z: np.ndarray, bins: np.ndarray, count: np.ndarray,
               moments: np.ndarray) -> np.ndarray:
    """The sum of a bin's kernel terms at z = (g - midpoint)/h, for arrays of
    (grid point, bin) pairs given by z and the bin of each pair; z is clipped
    to +-KDIT_REACH in place."""
    np.clip(z, -KDIT_REACH, KDIT_REACH, out=z)  # keeps z^10 and exp finite
    count = count[bins]
    # sum_k M_k He_{k-1}(z), with He_{k+1} = z He_k - k He_{k-1}
    he_prev, he = 1.0, z
    series = moments[0][bins] + moments[1][bins] * z
    for k in range(1, KDIT_TERMS - 2):
        he_prev, he = he, z * he - k * he_prev
        series += moments[k + 1][bins] * he
    terms = count * ndtr(z) - series * np.exp(-0.5 * z * z) / np.sqrt(2.0 * np.pi)
    np.copyto(terms, count, where=z >= KDIT_REACH)  # every member has ndtr == 1.0
    np.copyto(terms, 0.0, where=z <= -KDIT_REACH)   # every member is below ndtr(-8.3)
    return terms


def _kernel_cdf(grid: np.ndarray, centers: np.ndarray, h: float) -> np.ndarray:
    """mean_j ndtr((grid_i - centers_j) / h) for every grid point, to within
    ndtr(-8.3) + 3.5e-17 per value plus summation rounding.

    The sorted centers are grouped into bins at most h/4 wide, and the kernel
    terms of each bin are summed from its count and 11 moments (see
    KDIT_BIN_WIDTH).  Each grid point g evaluates only the window of bins
    whose midpoints lie within KDIT_REACH bandwidths of it.  Every member of
    a bin below the window has z >= 8.3, where SciPy's ``ndtr`` is exactly
    1.0, so those bins add their counts; every member of a bin above it has
    a term below ndtr(-8.3) = 5.2e-17, and those bins are dropped.  The
    window reaches one more ulp of g on both sides, so rounding of g -/+
    reach never moves a bin across either bound, even when h is below the
    spacing of the data.  The (grid point, bin) pairs of the windows are
    evaluated at most KDIT_BLOCK at a time, and each row is summed in bin
    order.
    """
    ordered = np.sort(centers)
    h = float(h)
    count, mid, moments = _kernel_bins(ordered, h)
    reach = KDIT_REACH * h + np.spacing(np.abs(grid))
    lo = np.searchsorted(mid, grid - reach, side="right")
    width = np.searchsorted(mid, grid + reach, side="left") - lo
    ends = np.cumsum(width)
    cdf = np.concatenate(([0.0], np.cumsum(count)))[lo]
    i = 0
    while i < grid.size:
        j = max(i + 1, int(np.searchsorted(ends, ends[i] - width[i] + KDIT_BLOCK, side="right")))
        w = width[i:j]
        row = np.repeat(np.arange(j - i), w)
        bins = np.arange(w.sum()) + np.repeat(lo[i:j] - (np.cumsum(w) - w), w)
        z = grid[i:j][row] - mid[bins]
        z /= h
        cdf[i:j] += np.bincount(row, _bin_terms(z, bins, count, moments), minlength=j - i)
        i = j
    return cdf / ordered.size


def fit_kdit(train: TimeSeriesBatch, config: KditConfig) -> StaticStats:
    """Kernel-smoothed CDF per feature on a grid covering [min - 3h, max + 3h].

    The CDF is renormalized over the training range so both limits come out
    on the [0, 1] scale; constant features are flagged and map to 0.5.
    :func:`_kernel_cdf` drops the kernel terms below ndtr(-8.3) = 5.2e-17
    and sums the others by bins, from a series cut at 3.5e-17 a term, so
    each CDF value is within 8.7e-17 of the dense kernel mean, plus
    rounding.  A feature whose standard deviation overflows is a
    FloatingPointError naming its largest-magnitude value.  An ``alpha``
    that gives a feature a bandwidth that is not a positive normal float, a
    grid that is not finite in bandwidths, or a CDF that does not rise over
    the training range is a ValueError naming ``alpha`` and the feature.
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
        with np.errstate(over="ignore", invalid="ignore"):
            sd = centers.std()
        if not np.isfinite(sd):  # pooled index j is series j // T, timestep j % T
            j = int(np.argmax(np.abs(centers)))
            raise FloatingPointError(f"kdit feature {k} has a non-finite spread: its value "
                                     f"{float(centers[j])!r} (series {j // train.t}, timestep "
                                     f"{j % train.t}) overflows the standard deviation")
        if sd == 0.0 or centers.min() == centers.max():  # equal values can give sd > 0
            zero[k] = True
            grids.append(np.array([centers[0] - 1.0, centers[0] + 1.0]))
            cdfs.append(np.array([0.0, 1.0]))
            lo[k], hi[k], bw[k] = 0.0, 1.0, 0.0
            continue
        with np.errstate(over="ignore"):
            h = config.alpha * sd * n ** (-0.2)
            first, last = centers.min() - 3.0 * h, centers.max() + 3.0 * h
            usable = TINY <= h < np.inf and np.isfinite((last - first) / h)
        if not usable:
            raise ValueError(f"kdit field 'alpha' = {config.alpha!r} gives feature {k} the "
                             f"bandwidth {float(h)!r}; it must be a positive normal float "
                             f"that spans the grid in finitely many bandwidths")
        bw[k] = h
        grid = np.linspace(first, last, config.grid_size)
        cdf = _kernel_cdf(grid, centers, h)
        grids.append(grid)
        cdfs.append(cdf)
        lo[k] = np.interp(centers.min(), grid, cdf)
        hi[k] = np.interp(centers.max(), grid, cdf)
        if not hi[k] > lo[k]:
            raise ValueError(f"kdit field 'alpha' = {config.alpha!r} gives feature {k} "
                             f"a CDF that does not rise over the training range "
                             f"({float(lo[k])!r} to {float(hi[k])!r})")
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
_STAGE_KEYS = {"step", *(f.name for f in fields(StaticStats))}
# step name -> the (xp, fp) fields its apply hands np.interp, per feature
_INTERP_FIELDS = {"cdf_inversion": ("quantile_values", "quantile_cdf"), "kdit": ("grid", "cdf")}


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
        check_fields(self, "static pipeline")
        for s in self.steps:
            if s not in _STEPS:
                raise ValueError(f"static pipeline steps has unknown step {s!r}")
        check_static_fields(self.winsorize_quantiles, self.kdit_alpha, "static pipeline")

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
        """Load a fitted pipeline, its fields and each stage's typed by their
        annotations (``data.load_fields``).  A stage that is missing, not an
        object, mistagged, lacks a field of its step or disagrees on the
        feature count, a feature whose interpolation points (``grid``/``cdf``,
        ``quantile_values``/``quantile_cdf``) differ in length, are empty or
        decrease, or a kdit stage whose ``cdf_hi`` is not above its
        ``cdf_lo`` for a feature not flagged ``zero_variance``, is a
        ValueError naming the stage and the field."""
        hints = {**type_hints(cls), "stages": list}
        del hints["fitted"]
        values = load_fields(doc, hints, "static pipeline", required=("steps", "stages"))
        stages = values.pop("stages")
        pipeline = cls(**values)
        if len(stages) != len(pipeline.steps):
            raise ValueError(f"static pipeline lists {len(pipeline.steps)} steps "
                             f"but {len(stages)} stages")
        n_features = None
        for i, (step, stage) in enumerate(zip(pipeline.steps, stages)):
            tag = check_keys(stage, f"stage {i}", _STAGE_KEYS).get("step")
            if tag != step:
                raise ValueError(f"stage {i} is tagged {tag!r} but step {i} is {step!r}")
            section = f"stage {i} ({step})"
            stats = StaticStats(**load_fields(stage, type_hints(StaticStats), section,
                                              required=_STAGE_FIELDS[step], extra=("step",)))
            for name in _STAGE_FIELDS[step]:
                if name == "alpha":  # the one scalar field
                    continue
                count = len(getattr(stats, name))
                n_features = count if n_features is None else n_features
                if count != n_features:
                    raise ValueError(f"{section} {name} has {count} features, "
                                     f"expected {n_features}")
            if step in _INTERP_FIELDS:
                xs_name, ys_name = _INTERP_FIELDS[step]
                for k, (xs, ys) in enumerate(zip(getattr(stats, xs_name), getattr(stats, ys_name))):
                    if not len(xs) == len(ys) > 0:
                        raise ValueError(f"{section} {xs_name}[{k}] and {ys_name}[{k}] must be "
                                         f"non-empty and equally long, got {len(xs)} and {len(ys)}")
                    # repeats are allowed: the grid of a kdit fit over a few ulps has them
                    if (down := xs[1:] < xs[:-1]).any():
                        j = int(np.argmax(down)) + 1
                        raise ValueError(f"{section} {xs_name}[{k}] must not decrease, but entry "
                                         f"{j} is {float(xs[j])!r} after {float(xs[j - 1])!r}")
            if step == "kdit":  # apply_kdit divides by cdf_hi - cdf_lo
                flat = ~(stats.cdf_hi > stats.cdf_lo) & ~stats.zero_variance
                if flat.any():
                    k = int(np.argmax(flat))
                    raise ValueError(f"stage {i} (kdit) field 'cdf_hi' must be above 'cdf_lo' "
                                     f"for feature {k}, got {float(stats.cdf_hi[k])!r} and "
                                     f"{float(stats.cdf_lo[k])!r}")
            pipeline.fitted.append(stats)
        return pipeline
