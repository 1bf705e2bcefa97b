import json

import numpy as np
import pytest
from scipy.special import ndtri

from tsnorm.data import TimeSeriesBatch
from tsnorm import static_norm as sn
from tsnorm import yeojohnson as yj


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
    assert sn.yeo_johnson(3.7, 1.0) == pytest.approx(3.7)
    assert sn.yeo_johnson(-2.2, 1.0) == pytest.approx(-2.2)
    assert sn.yeo_johnson(np.e - 1.0, 0.0) == pytest.approx(1.0)
    assert sn.yeo_johnson(-(np.e - 1.0), 2.0) == pytest.approx(-1.0)
    assert sn.yeo_johnson(1.0, 2.0) == pytest.approx(1.5)


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
    vals = [sn._yj_profile_loglik(pooled, lam) for lam in grid]
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
    fitted = sn.fit_kdit(train, sn.KditConfig(alpha=0.01, grid_size=4096))
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


def test_kdit_rejects_bad_alpha():
    with pytest.raises(ValueError):
        sn.KditConfig(alpha=0.0)


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


@pytest.mark.parametrize("corrupt, message", [
    (_drop_std, "stage 0 (zscore) is missing field 'std'"),
    (_retag, "stage 1 is tagged 'zscore' but step 1 is 'yeo_johnson'"),
    (_drop_stage, "lists 2 steps but 1 stages"),
    (_short_field, "stage 1 (yeo_johnson) field 'lam' has 1 features, expected 2"),
    (_scalar_field, "stage 0 (zscore) field 'mean' is not a per-feature list"),
])
def test_pipeline_json_rejects_malformed_stages(corrupt, message):
    train = TimeSeriesBatch(np.random.default_rng(43).normal(size=(10, 2, 5)))
    doc = json.loads(json.dumps(sn.StaticPipeline(["zscore", "yeo_johnson"]).fit(train)
                                .to_json_dict()))
    corrupt(doc)
    with pytest.raises(ValueError) as info:
        sn.StaticPipeline.from_json_dict(doc)
    assert message in str(info.value)


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
