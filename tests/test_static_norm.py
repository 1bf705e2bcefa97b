import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import ndtr, ndtri

from tsnorm.data import TimeSeriesBatch
from tsnorm.harness import METHODS
from tsnorm import static_norm as sn
from tsnorm import yeojohnson as yj
from tsnorm.synthgen import default_config, generate_dataset


def batch_from(values):
    """Single-feature batch with one timestep per value."""
    arr = np.asarray(values, dtype=np.float64).reshape(1, 1, -1)
    return TimeSeriesBatch(arr)


# --- z-score ---------------------------------------------------------------

def test_zscore_fit_small_example():
    stats = sn.fit_zscore(batch_from([1.0, 2.0, 3.0]))
    assert stats.mean[0] == pytest.approx(2.0)
    assert stats.std[0] == pytest.approx(np.sqrt(2.0 / 3.0))


def test_zscore_apply_small_example():
    b = batch_from([1.0, 2.0, 3.0])
    out = sn.apply_zscore(b, sn.fit_zscore(b)).values.ravel()
    assert out == pytest.approx([-1.2247, 0.0, 1.2247], abs=1e-4)


def test_zscore_constant_feature_passthrough():
    b = batch_from([5.0, 5.0])
    stats = sn.fit_zscore(b)
    assert stats.zero_variance[0]
    out = sn.apply_zscore(b, stats).values.ravel()
    assert np.allclose(out, 0.0)  # shifted only


def test_zscore_constant_feature_with_nonzero_computed_std():
    train = batch_from([1.858603571952818] * 12)
    stats = sn.fit_zscore(train)
    assert stats.std[0] > 0.0  # the mean of twelve copies rounds off the value
    assert stats.zero_variance[0]
    out = sn.apply_zscore(train, stats).values.ravel()
    assert np.all(np.abs(out) <= 1e-15)
    pipe = sn.StaticPipeline(["zscore"]).fit(train)
    text = json.dumps(pipe.to_json_dict(), sort_keys=True)
    back = sn.StaticPipeline.from_json_dict(json.loads(text))
    assert np.array_equal(back.apply(train).values, pipe.apply(train).values)
    assert json.dumps(back.to_json_dict(), sort_keys=True) == text


def test_zscore_constant_flags_equal_the_full_min_max_check():
    # constant, near-constant (one value an ulp up), +-1e308 constant (the
    # mean overflows: its std is NaN or inf), ordinary features and one whose
    # squared deviations underflow (std 0.0 with min < max), over series
    # counts whose means round differently
    for n in (1, 3, 12, 257):
        rng = np.random.default_rng(n)
        values = rng.normal(size=(n, 8, 5))
        values[:, 0] = 1.858603571952818
        values[:, 1] = 0.1
        values[-1, 1, -1] = np.nextafter(0.1, 1.0)
        values[:, 2] = 1e308
        values[:, 3] = -1e308
        values[:, 4] = -3.0e-300
        values[:, 5] *= 1e-9
        values[:, 7] = 1e-200
        values[-1, 7, -1] = 2e-200
        with np.errstate(over="ignore", invalid="ignore"):
            stats = sn.fit_zscore(TimeSeriesBatch(values))
        full = (stats.std == 0.0) | (values.min(axis=(0, 2)) == values.max(axis=(0, 2)))
        assert stats.zero_variance.tolist() == full.tolist(), n
        assert stats.std[7] == 0.0 and values[:, 7].min() < values[:, 7].max()
        assert stats.zero_variance.tolist() == [True, False, True, True, True, False, False, True]


def test_zscore_refit_is_standard():
    rng = np.random.default_rng(0)
    b = TimeSeriesBatch(rng.normal(3.0, 2.5, size=(20, 3, 10)))
    z = sn.apply_zscore(b, sn.fit_zscore(b))
    stats = sn.fit_zscore(z)
    assert np.all(np.abs(stats.mean) < 1e-12)
    assert np.all(np.abs(stats.std - 1.0) < 1e-12)


def test_zscore_not_idempotent_without_refit():
    rng = np.random.default_rng(1)
    b = TimeSeriesBatch(rng.normal(5.0, 3.0, size=(4, 1, 6)))
    stats = sn.fit_zscore(b)
    once = sn.apply_zscore(b, stats)
    twice = sn.apply_zscore(once, stats)
    assert not np.allclose(once.values, twice.values)


def test_zscore_empty_batch_rejected():
    with pytest.raises(ValueError):
        sn.fit_zscore(TimeSeriesBatch(np.zeros((0, 1, 1))))


# --- min-max ---------------------------------------------------------------

def test_minmax_examples():
    train = batch_from([0.0, 10.0])
    out = sn.apply_minmax(train, sn.fit_minmax(train)).values.ravel()
    assert out == pytest.approx([0.0, 1.0])

    const = batch_from([3.0, 3.0])
    assert np.allclose(sn.apply_minmax(const, sn.fit_minmax(const)).values, 0.5)

    beyond = sn.apply_minmax(batch_from([12.0]), sn.fit_minmax(train))
    assert beyond.values.ravel()[0] == pytest.approx(1.2)  # no clipping


@pytest.mark.parametrize("shape", [(1, 1, 1), (5, 1, 1), (4, 2, 1), (1, 3, 7), (7, 3, 10),
                                   (300, 17, 13)])
@pytest.mark.parametrize("zero_extremes", [False, True])
def test_minmax_fit_equals_the_pooled_reduction(shape, zero_extremes):
    rng = np.random.default_rng(sum(shape))
    if zero_extremes:  # ties between 0.0 and -0.0 at the minimum or the maximum
        values = rng.choice([0.0, -0.0, 1.0], size=shape)
        values[:, 1::2, :] *= -1.0
    else:
        values = rng.normal(size=shape)
    stats = sn.fit_minmax(TimeSeriesBatch(values))
    for got, want in ((stats.minimum, values.min(axis=(0, 2))),
                      (stats.maximum, values.max(axis=(0, 2)))):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_minmax_constant_feature_matches_where_formula():
    rng = np.random.default_rng(9)
    values = rng.normal(size=(7, 3, 5))
    values[:, 1, :] = -2.5
    b = TimeSeriesBatch(values)
    stats = sn.fit_minmax(b)
    span = np.where(stats.zero_variance, 1.0, stats.maximum - stats.minimum)
    want = (values - stats.minimum[None, :, None]) / span[None, :, None]
    want = np.where(stats.zero_variance[None, :, None], 0.5, want)
    assert stats.zero_variance.tolist() == [False, True, False]
    assert np.array_equal(sn.apply_minmax(b, stats).values, want)


# --- winsorize ---------------------------------------------------------------

def test_winsorize_full_range_is_identity():
    b = batch_from(np.arange(1.0, 11.0))
    stats = sn.fit_winsorize(b, 0.0, 1.0)
    assert np.allclose(sn.apply_winsorize(b, stats).values, b.values)


def brute_quantile(values, q):
    # independent type-7 implementation via the defining interpolation
    v = np.sort(np.asarray(values, dtype=np.float64))
    pos = (len(v) - 1) * q
    lo = int(np.floor(pos))
    hi = min(lo + 1, len(v) - 1)
    frac = pos - lo
    return v[lo] * (1 - frac) + v[hi] * frac


def test_winsorize_clip_thresholds_match_oracle():
    values = np.arange(1.0, 101.0)
    stats = sn.fit_winsorize(batch_from(values), 0.01, 0.99)
    assert stats.lower_clip[0] == pytest.approx(brute_quantile(values, 0.01))
    assert stats.upper_clip[0] == pytest.approx(brute_quantile(values, 0.99))
    assert stats.lower_clip[0] == pytest.approx(1.99)
    assert stats.upper_clip[0] == pytest.approx(99.01)


def test_winsorize_clamps_outlier():
    values = np.arange(1.0, 101.0)
    stats = sn.fit_winsorize(batch_from(values), 0.01, 0.99)
    out = sn.apply_winsorize(batch_from([1e6]), stats)
    assert out.values.ravel()[0] == stats.upper_clip[0]


def test_winsorize_rejects_inverted_quantiles():
    with pytest.raises(ValueError):
        sn.fit_winsorize(batch_from([1.0, 2.0]), 0.9, 0.1)


# --- Yeo-Johnson -------------------------------------------------------------

def test_yeo_johnson_pointwise_examples():
    assert yj.forward(3.7, 1.0) == pytest.approx(3.7)
    assert yj.forward(-2.2, 1.0) == pytest.approx(-2.2)
    assert yj.forward(np.e - 1.0, 0.0) == pytest.approx(1.0)
    assert yj.forward(-(np.e - 1.0), 2.0) == pytest.approx(-1.0)
    assert yj.forward(1.0, 2.0) == pytest.approx(1.5)


def test_yeo_johnson_strictly_increasing():
    rng = np.random.default_rng(7)
    for _ in range(50):
        lam = rng.uniform(-3, 5)
        xs = np.sort(rng.uniform(-20, 20, 100))
        out = yj.forward(xs, lam)
        assert np.all(np.diff(out) > 0)


def test_yeo_johnson_branch_continuity():
    for x in (2.0, 0.5, 17.0):
        gap = abs(yj.forward(x, 1e-7) - yj.forward(x, -1e-7))
        assert gap < 1e-9
    for x in (-2.0, -0.5, -17.0):
        gap = abs(yj.forward(x, 2.0 + 1e-7) - yj.forward(x, 2.0 - 1e-7))
        assert gap < 1e-9
    # continuity in lambda across the branch threshold.  The flat log-limit
    # window implies a crossing gap of about eps * log1p(|x|)^2 / 2, so the
    # 1e-8 bound is attainable for small |x| and relaxes with log1p(|x|)^2.
    for x, lam0 in ((0.1, 0.0), (-0.1, 2.0)):
        inside = yj.forward(x, lam0 + 5e-7)
        outside = yj.forward(x, lam0 + 2e-6)
        assert abs(inside - outside) < 1e-8
    for x, lam0 in ((3.0, 0.0), (-3.0, 2.0)):
        inside = yj.forward(x, lam0 + 5e-7)
        outside = yj.forward(x, lam0 + 2e-6)
        assert abs(inside - outside) < 2e-6 * np.log1p(abs(x)) ** 2


def grid_argmax_lambda(pooled):
    grid = np.linspace(-5, 5, 2001)
    loglik = sn._yj_profile(pooled)
    vals = [loglik(lam) for lam in grid]
    return grid[int(np.argmax(vals))]


def test_yj_mle_normal_data_near_identity():
    rng = np.random.default_rng(12)
    pooled = rng.normal(size=10_000)
    stats = sn.fit_yeo_johnson_static(TimeSeriesBatch(pooled.reshape(1, 1, -1)))
    assert abs(stats.lam[0] - 1.0) < 0.1
    # golden section agrees with a dense grid oracle
    assert abs(stats.lam[0] - grid_argmax_lambda(pooled)) < 0.01


def test_yj_mle_skewed_data_lambda_below_one():
    rng = np.random.default_rng(13)
    pooled = np.exp(rng.normal(size=10_000)) - 1.0
    stats = sn.fit_yeo_johnson_static(TimeSeriesBatch(pooled.reshape(1, 1, -1)))
    assert stats.lam[0] < 1.0
    assert grid_argmax_lambda(pooled) < 1.0


def skewness(v):
    c = v - v.mean()
    return (c ** 3).mean() / (c ** 2).mean() ** 1.5


def test_yj_mle_reduces_skewness():
    rng = np.random.default_rng(14)
    pooled = np.exp(rng.normal(size=10_000)) - 1.0
    b = TimeSeriesBatch(pooled.reshape(1, 1, -1))
    out = sn.apply_yeo_johnson_static(b, sn.fit_yeo_johnson_static(b))
    assert abs(skewness(out.values.ravel())) < abs(skewness(pooled))


def test_yj_mle_rejects_constant_feature():
    with pytest.raises(ValueError, match="feature 0"):
        sn.fit_yeo_johnson_static(batch_from([2.0, 2.0, 2.0]))


def test_yj_mle_constant_feature_is_a_power_domain_error():
    b = TimeSeriesBatch(np.stack([np.arange(6.0), np.full(6, 2.0)]).reshape(1, 2, 6))
    with pytest.raises(yj.PowerDomainError, match="feature 1"):
        sn.fit_yeo_johnson_static(b)


# --- CDF inversion -----------------------------------------------------------

def test_cdf_inversion_self_apply_standardizes():
    rng = np.random.default_rng(21)
    pooled = rng.gamma(2.0, 1.5, size=10_000)
    b = TimeSeriesBatch(pooled.reshape(100, 1, 100))
    out = sn.apply_cdf_inversion(b, sn.fit_cdf_inversion(b)).values.ravel()
    assert abs(out.mean()) < 0.05
    assert abs(out.std() - 1.0) < 0.05


def test_cdf_inversion_monotone():
    rng = np.random.default_rng(22)
    train = TimeSeriesBatch(rng.normal(size=(10, 1, 50)))
    stats = sn.fit_cdf_inversion(train)
    xs = np.sort(rng.uniform(-4, 4, 200))
    out = sn.apply_cdf_inversion(TimeSeriesBatch(xs.reshape(1, 1, -1)), stats).values.ravel()
    assert np.all(np.diff(out) >= 0)


def test_cdf_inversion_below_min_maps_to_eps_tail():
    train = batch_from([0.0, 1.0, 2.0])
    stats = sn.fit_cdf_inversion(train)
    out = sn.apply_cdf_inversion(batch_from([-5.0]), stats).values.ravel()[0]
    assert out == pytest.approx(ndtri(sn.CDF_EPS))


# --- KDIT --------------------------------------------------------------------

def test_kdit_large_alpha_matches_minmax():
    train = batch_from(np.arange(0.0, 11.0))
    fitted = sn.fit_kdit(train, sn.KditConfig(alpha=1e4))
    xs = batch_from(np.linspace(0.0, 10.0, 23))
    got = sn.apply_kdit(xs, fitted).values.ravel()
    want = sn.apply_minmax(xs, sn.fit_minmax(train)).values.ravel()
    assert np.max(np.abs(got - want)) < 0.05


def test_kdit_small_alpha_median_maps_to_half():
    train = batch_from(np.arange(0.0, 11.0))
    fitted = sn.fit_kdit(train, sn.KditConfig(alpha=0.01))
    out = sn.apply_kdit(batch_from([5.0]), fitted).values.ravel()[0]
    assert out == pytest.approx(0.5, abs=0.02)


def test_kdit_strictly_increasing_within_bulk():
    rng = np.random.default_rng(30)
    train = TimeSeriesBatch(rng.normal(size=(20, 1, 40)))
    fitted = sn.fit_kdit(train, sn.KditConfig(alpha=1.0))
    lo, hi = np.quantile(train.values, [0.02, 0.98])
    xs = np.sort(rng.uniform(lo, hi, 300))
    out = sn.apply_kdit(TimeSeriesBatch(xs.reshape(1, 1, -1)), fitted).values.ravel()
    assert np.all(np.diff(out) > 0)


def test_kdit_zero_variance_feature_maps_to_half():
    train = batch_from([4.0, 4.0, 4.0])
    fitted = sn.fit_kdit(train, sn.KditConfig(alpha=1.0))
    out = sn.apply_kdit(batch_from([-1.0, 4.0, 9.0]), fitted).values.ravel()
    assert np.allclose(out, 0.5)


def test_kdit_constant_feature_with_nonzero_computed_std_maps_to_half():
    train = batch_from([1.858603571952818] * 12)
    assert train.values.std() > 0.0  # the mean of twelve copies rounds off the value
    fitted = sn.fit_kdit(train, sn.KditConfig(alpha=1.0))
    assert fitted.zero_variance[0]
    out = sn.apply_kdit(batch_from([-1.0, 1.858603571952818, 9.0]), fitted).values.ravel()
    assert np.array_equal(out, [0.5, 0.5, 0.5])


def kdit_reference(train, alpha):
    """The dense fit: ndtr over the whole (grid x centers) matrix in blocks of
    about 2e6 elements, each row averaged in the original center order."""
    grids, cdfs, lo, hi = [], [], [], []
    for k in range(train.d):
        centers = train.pooled(k)
        n = centers.size
        h = alpha * centers.std() * n ** (-0.2)
        g = np.linspace(centers.min() - 3.0 * h, centers.max() + 3.0 * h, 1024)
        cdf = np.empty_like(g)
        step = max(1, int(2_000_000 // n))
        for start in range(0, g.size, step):
            block = g[start:start + step]
            cdf[start:start + step] = ndtr((block[:, None] - centers[None, :]) / h).mean(axis=1)
        grids.append(g)
        cdfs.append(cdf)
        lo.append(np.interp(centers.min(), g, cdf))
        hi.append(np.interp(centers.max(), g, cdf))
    return grids, cdfs, np.array(lo), np.array(hi)


def kdit_cases():
    rng = np.random.default_rng(31)
    one = rng.normal(size=(1, 2, 40))
    # 6,000 centers: blocks of 10 grid rows in the fit, 333 in the reference
    many = rng.normal(size=(150, 1, 40))
    heavy = rng.standard_t(1.2, size=(40, 1, 25))
    heavy[3, 0, 4], heavy[17, 0, 9] = 1e6, -3e5
    dup = np.repeat(np.round(rng.normal(size=(30, 1, 4)), 1), 5, axis=2)
    return {"one": one, "many": many, "heavy": heavy, "duplicates": dup}


# How far a fitted KDIT CDF value may lie from the dense kernel mean.  The fit
# drops kernel terms below ndtr(-8.3) = 5.2e-17, cuts each bin's Taylor series
# at 3.5e-17 a term (both bounds hold for the mean too), and sums by bins in
# sorted order, which rounds differently from the dense row: a few ulps of a
# value in [0, 1].  The worst seen over the cases below is 5.6e-16.
KDIT_CDF_ABS_TOL = 1e-14


def assert_kdit_matches_reference(train, alpha):
    fitted = sn.fit_kdit(train, sn.KditConfig(alpha=alpha))
    grids, cdfs, lo, hi = kdit_reference(train, alpha)
    for k in range(train.d):
        assert np.array_equal(fitted.grid[k], grids[k])
        assert np.max(np.abs(fitted.cdf[k] - cdfs[k])) <= KDIT_CDF_ABS_TOL
        assert np.all(np.diff(fitted.cdf[k]) >= 0)
    assert np.max(np.abs(fitted.cdf_lo - lo)) <= KDIT_CDF_ABS_TOL
    assert np.max(np.abs(fitted.cdf_hi - hi)) <= KDIT_CDF_ABS_TOL


@pytest.mark.parametrize("alpha", [0.01, 1.0, 1e4])
@pytest.mark.parametrize("case", ["one", "many", "heavy", "duplicates"])
def test_kdit_fit_equals_dense_reference(case, alpha):
    assert_kdit_matches_reference(TimeSeriesBatch(kdit_cases()[case]), alpha)


def _wide_alpha_cases():
    rng = np.random.default_rng(33)
    cluster = np.append(rng.normal(0.0, 1e-3, 2999), 1e6)
    return {"normal": rng.normal(size=(100, 1, 30)), "cluster": cluster.reshape(1, 1, -1)}


@pytest.mark.parametrize("alpha", [1e-8, 1e-2, 1.0, 1e4, 1e8])
@pytest.mark.parametrize("case", ["normal", "cluster"])
def test_kdit_fit_equals_dense_reference_across_alpha(case, alpha):
    # a few thousand centers, from bins of one center each (1e-8) to one bin
    # for all of them (1e8); the cluster case puts 2,999 centers within a few
    # bins and one far outside every window
    assert_kdit_matches_reference(TimeSeriesBatch(_wide_alpha_cases()[case]), alpha)


@pytest.mark.parametrize("h", [1.0, 0.37, 3e-5])
def test_kernel_cdf_with_centers_on_bin_boundaries(h):
    # centers exactly on the cell edges c0 + k h/4 and one ulp to either side
    edges = 2.5 + np.arange(12) * (h * sn.KDIT_BIN_WIDTH)
    centers = np.concatenate([np.nextafter(edges, -np.inf), edges, np.nextafter(edges, np.inf)])
    count, mid, _ = sn._kernel_bins(np.sort(centers), h)
    offsets = (np.sort(centers) - np.repeat(mid, count.astype(int))) / h
    assert np.max(np.abs(offsets)) <= 0.125 * (1 + 1e-12)  # what the 3.5e-17 bound needs
    grid = np.linspace(centers.min() - 10 * h, centers.max() + 10 * h, 997)
    dense = ndtr((grid[:, None] - centers[None, :]) / h).mean(axis=1)
    cdf = sn._kernel_cdf(grid, centers, h)
    assert np.max(np.abs(cdf - dense)) <= KDIT_CDF_ABS_TOL
    assert np.all(np.diff(cdf) >= 0)


def test_bin_terms_are_exact_past_the_reach():
    # a bin KDIT_REACH or more below g adds exactly its count, one as far above
    # adds exactly 0, whatever its moments
    z = np.array([60.0, sn.KDIT_REACH, -sn.KDIT_REACH, -60.0])
    count = np.array([3.0, 5.0, 7.0, 2.0])
    moments = np.full((sn.KDIT_TERMS - 1, z.size), -0.01)
    terms = sn._bin_terms(z, np.arange(z.size), count, moments)
    assert np.array_equal(terms, [3.0, 5.0, 0.0, 0.0])


@pytest.mark.parametrize("alpha, why", [(5e-324, "the bandwidth 0.0"),
                                        (1e300, "does not rise")])
def test_kdit_fit_refuses_a_degenerate_bandwidth(alpha, why):
    # 5e-324 gives h = 0 (NaN CDFs before), 1e300 a flat CDF (0/0 in apply)
    train = TimeSeriesBatch(np.random.default_rng(34).normal(size=(10, 2, 5)))
    with pytest.raises(ValueError) as info:
        sn.fit_kdit(train, sn.KditConfig(alpha=alpha))
    assert f"kdit field 'alpha' = {alpha!r} gives feature 0 " in str(info.value)
    assert why in str(info.value)


def overflow_probe():
    """synth3 n=300 seed 3 with one cell at 1.7e308: feature 1's spread overflows."""
    values = np.array(generate_dataset(default_config(n=300, t=10, seed=3)).batch.values)
    values[17, 1, 4] = 1.7e308
    return values


def test_kdit_fit_blames_the_data_when_a_features_spread_overflows():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FloatingPointError, match=r"^kdit feature 1 has a non-finite spread: "
                                                     r"its value 1\.7e\+308 \(series 17, "
                                                     r"timestep 4\)"):
            sn.fit_kdit(TimeSeriesBatch(overflow_probe()), sn.KditConfig())


def test_kdit_fit_with_bandwidth_below_data_spacing():
    # two values one ulp apart: h is below the spacing of 1.0, so g -/+ 8.3h
    # rounds back to g, and a center at g must still be evaluated (0.5), not
    # counted as 1.0
    train = batch_from([1.0] * 11 + [np.nextafter(1.0, 2.0)])
    for alpha in (0.01, 1.0, 1e4):
        assert_kdit_matches_reference(train, alpha)


def _centers_at_z(g, h, z):
    """A center c whose computed (g - c) / h is exactly z, found within 256
    ulps of g - z * h, with the float on each side of it."""
    c = below = above = g - z * h
    for _ in range(256):
        if (g - c) / h == z:
            break
        below, above = np.nextafter(below, -np.inf), np.nextafter(above, np.inf)
        c = below if (g - below) / h == z else above
    assert (g - c) / h == z
    return [np.nextafter(c, -np.inf), c, np.nextafter(c, np.inf)]


@pytest.mark.parametrize("g, h", [(0.0, 1.0), (3.7, 0.5), (2.0, 0.3), (-5.0, 0.7)])
def test_kernel_cdf_at_saturation_edges(g, h):
    # centers whose z lands exactly on +-8.3 and one ulp to either side
    rng = np.random.default_rng(32)
    centers = np.concatenate([_centers_at_z(g, h, sn.NDTR_ONE_Z),
                              _centers_at_z(g, h, -sn.NDTR_ONE_Z),
                              g + h * rng.uniform(-12.0, 12.0, 40)])
    grid = np.array([g - h, g, g + h])
    dense = ndtr((grid[:, None] - centers[None, :]) / h).mean(axis=1)
    cdf = sn._kernel_cdf(grid, centers, h)
    assert np.max(np.abs(cdf - dense)) <= KDIT_CDF_ABS_TOL


_kdit_cell = st.one_of(st.floats(-10.0, 10.0, allow_nan=False, allow_subnormal=False),
                       st.sampled_from([-3e5, 1e6, 0.5, 0.5000000000000001]))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(shape=st.tuples(st.integers(1, 12), st.integers(1, 2), st.integers(1, 8)),
       alpha=st.floats(1e-6, 1e8), heavy=st.booleans(), data_=st.data())
def test_kdit_fit_matches_dense_reference_property(shape, alpha, heavy, data_):
    # random sizes and bandwidths; duplicates from a small pool of values and,
    # with ``heavy``, Student-t(1.2) tails
    n, d, t = shape
    if heavy:
        seed = data_.draw(st.integers(0, 2**32 - 1))
        values = np.random.default_rng(seed).standard_t(1.2, size=shape)
    else:
        pool = data_.draw(st.lists(_kdit_cell, min_size=1, max_size=6))
        values = np.array(data_.draw(st.lists(st.sampled_from(pool), min_size=n * d * t,
                                              max_size=n * d * t))).reshape(shape)
    train = TimeSeriesBatch(values)
    if any(np.ptp(f) == 0 or f.std() == 0 for f in map(train.pooled, range(d))):
        return  # a constant feature is flagged, not fitted (tested above)
    assert_kdit_matches_reference(train, alpha)


def test_ndtr_saturation_constants():
    # the KDIT fit counts kernel terms with z >= 8.3 as exactly 1.0 ...
    def sweep(z, direction, steps=2000):
        out = [z]
        for _ in range(steps):
            out.append(np.nextafter(out[-1], direction))
        return np.array(out)

    one = np.concatenate([sweep(sn.NDTR_ONE_Z, np.inf),
                          np.linspace(sn.NDTR_ONE_Z, 60.0, 100_001),
                          np.geomspace(60.0, 1e300, 1000), [np.inf]])
    assert np.all(ndtr(one) == 1.0)
    # ... and drops those with z <= -8.3, each below this
    assert ndtr(-sn.NDTR_ONE_Z) <= 5.3e-17


def test_kdit_rejects_bad_alpha():
    with pytest.raises(ValueError):
        sn.KditConfig(alpha=0.0)


@pytest.mark.parametrize("kwargs, name", [
    ({"alpha": -1.0}, "alpha"), ({"alpha": float("nan")}, "alpha"),
    ({"alpha": float("inf")}, "alpha"), ({"alpha": "1"}, "alpha"), ({"alpha": True}, "alpha"),
])
def test_kdit_config_rejects_bad_fields(kwargs, name):
    with pytest.raises(ValueError, match=f"^kdit {name} must be .*, got "):
        sn.KditConfig(**kwargs)


# --- pipeline ----------------------------------------------------------------

def test_pipeline_fit_apply_matches_stagewise():
    rng = np.random.default_rng(40)
    train = TimeSeriesBatch(np.exp(rng.normal(size=(30, 2, 8))))
    pipe = sn.StaticPipeline(["winsorize", "zscore", "yeo_johnson"]).fit(train)
    out = pipe.apply(train)

    w = sn.fit_winsorize(train, 0.01, 0.99)
    step1 = sn.apply_winsorize(train, w)
    z = sn.fit_zscore(step1)
    step2 = sn.apply_zscore(step1, z)
    y = sn.fit_yeo_johnson_static(step2)
    step3 = sn.apply_yeo_johnson_static(step2, y)
    assert np.allclose(out.values, step3.values)


# The keys each step's stage carries in pipeline JSON.  Pinned so that files
# written by earlier versions keep loading.
STAGE_KEYS = {
    "winsorize": {"step", "lower_clip", "upper_clip"},
    "zscore": {"step", "mean", "std", "zero_variance"},
    "minmax": {"step", "minimum", "maximum", "zero_variance"},
    "yeo_johnson": {"step", "lam"},
    "cdf_inversion": {"step", "quantile_values", "quantile_cdf"},
    "kdit": {"step", "alpha", "grid", "cdf", "cdf_lo", "cdf_hi", "bandwidth", "zero_variance"},
}


def test_pipeline_json_roundtrip():
    rng = np.random.default_rng(41)
    train = TimeSeriesBatch(rng.normal(size=(10, 2, 5)))
    apply_to = TimeSeriesBatch(rng.normal(size=(4, 2, 5)))
    for steps in (["zscore"], ["minmax"], ["winsorize"], ["yeo_johnson"], ["cdf_inversion"],
                  ["kdit"], ["winsorize", "zscore", "yeo_johnson"],
                  ["minmax", "kdit", "cdf_inversion"]):
        pipe = sn.StaticPipeline(list(steps)).fit(train)
        doc = pipe.to_json_dict()
        assert [set(stage) for stage in doc["stages"]] == [STAGE_KEYS[s] for s in steps]
        text = json.dumps(doc, sort_keys=True)
        back = sn.StaticPipeline.from_json_dict(json.loads(text))
        assert np.array_equal(pipe.apply(apply_to).values, back.apply(apply_to).values), steps
        assert json.dumps(back.to_json_dict(), sort_keys=True) == text


def _drop_std(doc):
    del doc["stages"][0]["std"]


def _retag(doc):
    doc["stages"][1]["step"] = "zscore"


def _drop_stage(doc):
    doc["stages"].pop()


def _short_field(doc):
    doc["stages"][1]["lam"] = doc["stages"][1]["lam"][:1]


def _scalar_field(doc):
    doc["stages"][0]["mean"] = 0.0


def _kdit_stage(doc, field, source):
    """Step 1 becomes a fitted kdit stage whose feature 1 has ``field`` set to
    its ``source`` value (or past it): ``apply_kdit`` would divide by zero."""
    train = TimeSeriesBatch(np.random.default_rng(44).normal(size=(10, 2, 5)))
    stage = sn.StaticPipeline(["kdit"]).fit(train).to_json_dict()["stages"][0]
    stage[field][1] = stage[source][1]
    doc["steps"][1] = "kdit"
    doc["stages"][1] = json.loads(json.dumps(stage))


def _interp_stage(step, field, fault):
    """Step 1 becomes a fitted ``step`` stage whose ``field`` of feature 0 is
    one entry short or reversed: ``np.interp`` would fail naming no stage, or
    give finite garbage."""
    def corrupt(doc):
        train = TimeSeriesBatch(np.random.default_rng(46).normal(size=(10, 2, 5)))
        stage = sn.StaticPipeline([step]).fit(train).to_json_dict()["stages"][0]
        stage = json.loads(json.dumps(stage))
        stage[field][0] = stage[field][0][:-1] if fault == "short" else stage[field][0][::-1]
        doc["steps"][1], doc["stages"][1] = step, stage
    return corrupt


def test_pipeline_json_accepts_a_flat_cdf_on_a_constant_kdit_feature():
    values = np.random.default_rng(45).normal(size=(10, 2, 5))
    values[:, 0] = 2.5
    train = TimeSeriesBatch(values)
    doc = json.loads(json.dumps(sn.StaticPipeline(["kdit"]).fit(train).to_json_dict()))
    assert doc["stages"][0]["zero_variance"] == [True, False]
    doc["stages"][0]["cdf_hi"][0] = doc["stages"][0]["cdf_lo"][0]  # never divided by
    out = sn.StaticPipeline.from_json_dict(doc).apply(train).values
    assert np.all(out[:, 0] == 0.5) and np.all(np.isfinite(out))


def _set(key, value):
    return lambda doc: doc.__setitem__(key, value)


@pytest.mark.parametrize("corrupt, message", [
    (_drop_std, "stage 0 (zscore) is missing field 'std'"),
    (_retag, "stage 1 is tagged 'zscore' but step 1 is 'yeo_johnson'"),
    (_drop_stage, "lists 2 steps but 1 stages"),
    (_short_field, "stage 1 (yeo_johnson) lam has 1 features, expected 2"),
    (_scalar_field, "stage 0 (zscore) mean must be a list, got 0.0"),
    (lambda doc: doc["stages"][1].__setitem__("lam", None),
     "stage 1 (yeo_johnson) lam must be a list, got None"),
    (_set("steps", [["zscore"], "yeo_johnson"]),
     "static pipeline steps[0] must be str, got ('zscore',)"),
    (_set("steps", "zscore"), "static pipeline steps must be list[str], got 'zscore'"),
    (_set("stages", {}), "static pipeline stages must be list, got {}"),
    (_set("winsorize_quantiles", 0.5),
     "static pipeline winsorize_quantiles must be tuple[float, float], got 0.5"),
    (_set("kdit_alpha", float("nan")),
     "static pipeline kdit_alpha must be a finite positive number, got nan"),
    (lambda doc: doc["stages"].__setitem__(0, 1), "stage 0 must be a JSON object, not int"),
    (lambda doc: _kdit_stage(doc, "cdf_hi", "cdf_lo"),
     "stage 1 (kdit) field 'cdf_hi' must be above 'cdf_lo' for feature 1"),
    (lambda doc: _kdit_stage(doc, "cdf_lo", "cdf_hi"),
     "stage 1 (kdit) field 'cdf_hi' must be above 'cdf_lo' for feature 1"),
    (_interp_stage("cdf_inversion", "quantile_cdf", "short"),
     "stage 1 (cdf_inversion) quantile_values[0] and quantile_cdf[0] must be non-empty and "
     "equally long, got 50 and 49"),
    (_interp_stage("kdit", "cdf", "short"),
     "stage 1 (kdit) grid[0] and cdf[0] must be non-empty and equally long, got 1024 and 1023"),
    (_interp_stage("cdf_inversion", "quantile_values", "reversed"),
     "stage 1 (cdf_inversion) quantile_values[0] must not decrease, but entry 1 is "),
    (_interp_stage("kdit", "grid", "reversed"),
     "stage 1 (kdit) grid[0] must not decrease, but entry 1 is "),
])
def test_pipeline_json_rejects_malformed_stages(corrupt, message):
    train = TimeSeriesBatch(np.random.default_rng(43).normal(size=(10, 2, 5)))
    doc = json.loads(json.dumps(sn.StaticPipeline(["zscore", "yeo_johnson"]).fit(train)
                                .to_json_dict()))
    corrupt(doc)
    with pytest.raises(ValueError) as info:
        sn.StaticPipeline.from_json_dict(doc)
    assert message in str(info.value)


def test_pipeline_json_reloads_a_kdit_grid_with_repeated_points():
    # a feature a few ulps wide: linspace repeats grid points, which np.interp takes
    values = (1e10 + np.arange(50) * np.spacing(1e10)).reshape(10, 1, 5)
    train = TimeSeriesBatch(values)
    pipe = sn.StaticPipeline(["kdit"]).fit(train)
    assert np.any(np.diff(pipe.fitted[0].grid[0]) == 0)
    back = sn.StaticPipeline.from_json_dict(json.loads(json.dumps(pipe.to_json_dict())))
    assert np.array_equal(back.apply(train).values, pipe.apply(train).values)


@pytest.mark.parametrize("kwargs, name", [
    ({"steps": ("kdit",)}, "steps"), ({"steps": "kdit"}, "steps"),
    ({"steps": [["kdit"]]}, "steps"), ({"steps": [3]}, "steps"),
    ({"winsorize_quantiles": 0.5}, "winsorize_quantiles"),
    ({"winsorize_quantiles": (0.99, 0.01)}, "winsorize_quantiles"),
    ({"winsorize_quantiles": (0.01, 1.5)}, "winsorize_quantiles"),
    ({"winsorize_quantiles": (0.01,)}, "winsorize_quantiles"),
    ({"winsorize_quantiles": (0.01, "0.99")}, "winsorize_quantiles"),
    ({"kdit_alpha": float("nan")}, "kdit_alpha"), ({"kdit_alpha": float("inf")}, "kdit_alpha"),
    ({"kdit_alpha": 0.0}, "kdit_alpha"), ({"kdit_alpha": -2.0}, "kdit_alpha"),
    ({"kdit_alpha": "1"}, "kdit_alpha"),
])
def test_pipeline_rejects_bad_fields(kwargs, name):
    with pytest.raises(ValueError, match=f"^static pipeline {name} must be .*, got "):
        sn.StaticPipeline(**{"steps": ["kdit"], **kwargs})


def test_static_transforms_preserve_order():
    # strict order preservation inside each transform's strictly monotone domain
    rng = np.random.default_rng(42)
    train = TimeSeriesBatch(rng.normal(0, 2, size=(40, 1, 25)))
    lo, hi = np.quantile(train.values, [0.05, 0.95])
    xs = np.sort(rng.uniform(lo, hi, 100))
    probe = TimeSeriesBatch(xs.reshape(1, 1, -1))
    for steps in (["zscore"], ["minmax"], ["yeo_johnson"], ["cdf_inversion"], ["kdit"],
                  ["winsorize"]):
        pipe = sn.StaticPipeline(list(steps)).fit(train)
        out = pipe.apply(probe).values.ravel()
        assert np.all(np.diff(out) > 0), steps


_cell = st.one_of(st.floats(-10.0, 10.0, allow_nan=False), st.sampled_from([-1e6, 1e6]))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(shape=st.tuples(st.integers(1, 6), st.integers(1, 3), st.integers(1, 5)),
       data_=st.data())
def test_static_pipeline_json_roundtrip_property(shape, data_):
    # every static method; d = 1, T = 1, constant features and +-1e6 outliers
    n, d, t = shape
    values = np.array(data_.draw(st.lists(_cell, min_size=n * d * t, max_size=n * d * t)))
    values = values.reshape(n, d, t)
    for k in data_.draw(st.sets(st.integers(0, d - 1))):
        values[:, k, :] = values[0, k, 0]  # a constant feature
    train = TimeSeriesBatch(values)
    probe = TimeSeriesBatch(np.concatenate([values, 2.0 * values + 1.0]))  # beyond the fit range
    # all values equal, or so close that their computed spread is 0
    degenerate = any(np.ptp(f) == 0 or f.std() == 0 for f in values.transpose(1, 0, 2))
    for method, steps in ((name, row.steps) for name, row in METHODS.items() if row.steps):
        pipe = sn.StaticPipeline(list(steps))
        if degenerate and "yeo_johnson" in steps:
            with pytest.raises(yj.PowerDomainError):
                pipe.fit(train)
            continue
        pipe.fit(train)
        back = sn.StaticPipeline.from_json_dict(json.loads(json.dumps(pipe.to_json_dict())))
        assert np.array_equal(back.apply(probe).values, pipe.apply(probe).values), method
