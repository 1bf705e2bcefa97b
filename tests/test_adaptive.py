import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gradcheck import check_grads
from tsnorm.data import LabeledDataset, NonFiniteBatchError, TimeSeriesBatch
from tsnorm.harness import ABLATION_ROWS
from tsnorm import adaptive as ad
from tsnorm import neural as nn
from tsnorm import static_norm as sn
from tsnorm import yeojohnson as yj


def random_params(rng, d, mode=ad.GLOBAL_AWARE, alpha_range=(0.1, 0.9)):
    return ad.EdainParams(
        alpha=rng.uniform(*alpha_range, d),
        beta=rng.uniform(1.0, 4.0, d),
        m=rng.normal(0.0, 1.0, d),
        s=rng.uniform(0.5, 2.0, d),
        lam=rng.uniform(0.3, 1.8, d),
        mode=mode,
    )


# --- outlier sublayer --------------------------------------------------------

def test_outlier_alpha_zero_is_identity():
    rng = np.random.default_rng(0)
    x = TimeSeriesBatch(rng.normal(size=(3, 2, 4)))
    params = ad.init_edain_params(2)
    out, _ = ad.outlier_forward(x, params, ad.RunningMean(np.array([1.0, -2.0]), 3))
    assert np.array_equal(out.values, x.values)


def test_outlier_fixed_point_at_mu():
    mu = np.array([0.7, -1.2])
    params = ad.EdainParams(alpha=np.array([0.3, 0.9]), beta=np.array([1.5, 2.0]),
                            m=np.zeros(2), s=np.ones(2), lam=np.ones(2))
    x = TimeSeriesBatch(np.tile(mu[None, :, None], (2, 1, 3)))
    out, _ = ad.outlier_forward(x, params, ad.RunningMean(mu, 1))
    assert np.allclose(out.values, x.values)


def test_outlier_saturation_value():
    params = ad.EdainParams(alpha=np.ones(1), beta=np.ones(1), m=np.zeros(1),
                            s=np.ones(1), lam=np.ones(1))
    x = TimeSeriesBatch(np.full((1, 1, 1), 10.0))
    out, _ = ad.outlier_forward(x, params, ad.RunningMean(np.zeros(1), 1))
    assert out.values.ravel()[0] == pytest.approx(np.tanh(10.0))


def test_outlier_backward_special_cases():
    rng = np.random.default_rng(1)
    d = 2
    x = TimeSeriesBatch(rng.normal(size=(2, d, 3)))
    params = ad.init_edain_params(d)  # alpha = 0
    state = ad.RunningMean(rng.normal(size=d), 4)
    _, cache = ad.outlier_forward(x, params, state)
    g = rng.normal(size=x.values.shape)
    gx, ga, gb = ad.outlier_backward(g, cache)
    assert np.allclose(gx, g)            # d/dx = 1 at alpha = 0
    assert np.allclose(gb, 0.0)          # d/dbeta = 0 at alpha = 0

    # at x = mu the two branches coincide, so the alpha gradient vanishes
    mu = np.array([0.5, -0.5])
    params2 = random_params(rng, d)
    x2 = TimeSeriesBatch(np.tile(mu[None, :, None], (2, 1, 3)))
    _, cache2 = ad.outlier_forward(x2, params2, ad.RunningMean(mu, 1))
    _, ga2, _ = ad.outlier_backward(np.ones_like(x2.values), cache2)
    assert np.allclose(ga2, 0.0)


def test_outlier_backward_matches_fd_both_modes():
    rng = np.random.default_rng(2)
    for mode in (ad.GLOBAL_AWARE, ad.LOCAL_AWARE):
        x = rng.normal(0, 2, size=(3, 2, 4))
        params = random_params(rng, 2, mode)
        state = ad.RunningMean(rng.normal(size=2), 5)
        g = rng.normal(size=x.shape)

        def source():
            return ad.local_summary(TimeSeriesBatch(x)) if mode == ad.LOCAL_AWARE else state

        def loss():
            out, _ = ad.outlier_forward(TimeSeriesBatch(x), params, source())
            return float((g * out.values).sum())

        _, cache = ad.outlier_forward(TimeSeriesBatch(x), params, source())
        gx, ga, gb = ad.outlier_backward(g, cache)
        worst = check_grads(loss, {"x": gx, "alpha": ga, "beta": gb},
                            {"x": x, "alpha": params.alpha, "beta": params.beta})
        assert max(worst.values()) < 1e-6, (mode, worst)


# --- shift/scale sublayer ----------------------------------------------------

def test_shift_scale_identity_and_example():
    x = TimeSeriesBatch(np.array([[[2.0]]]))
    neutral = ad.init_edain_params(1)
    out, _ = ad.shift_scale_forward(x, neutral)
    assert np.array_equal(out.values, x.values)

    params = ad.EdainParams(alpha=np.zeros(1), beta=np.ones(1), m=np.array([1.0]),
                            s=np.array([2.0]), lam=np.ones(1))
    out, _ = ad.shift_scale_forward(x, params)
    assert out.values.ravel()[0] == pytest.approx(0.5)


def test_shift_scale_global_equals_zscore_at_pooled_stats():
    rng = np.random.default_rng(3)
    batch = TimeSeriesBatch(rng.normal(3.0, 2.0, size=(6, 2, 5)))
    stats = sn.fit_zscore(batch)
    params = ad.EdainParams(alpha=np.zeros(2), beta=np.ones(2),
                            m=stats.mean, s=stats.std, lam=np.ones(2))
    out, _ = ad.shift_scale_forward(batch, params)
    want = sn.apply_zscore(batch, stats)
    assert np.array_equal(out.values, want.values)


def test_shift_scale_backward_fd_and_floor():
    rng = np.random.default_rng(4)
    for mode in (ad.GLOBAL_AWARE, ad.LOCAL_AWARE):
        x = rng.normal(0, 2, size=(3, 2, 4))
        params = random_params(rng, 2, mode)
        g = rng.normal(size=x.shape)

        def loss():
            out, _ = ad.shift_scale_forward(TimeSeriesBatch(x), params)
            return float((g * out.values).sum())

        _, cache = ad.shift_scale_forward(TimeSeriesBatch(x), params)
        gx, gm, gs = ad.shift_scale_backward(g, cache)
        worst = check_grads(loss, {"x": gx, "m": gm, "s": gs},
                            {"x": x, "m": params.m, "s": params.s})
        assert max(worst.values()) < 1e-6, (mode, worst)

    # passthrough gradient at neutral parameters
    neutral = ad.init_edain_params(2)
    x = rng.normal(size=(2, 2, 3))
    _, cache = ad.shift_scale_forward(TimeSeriesBatch(x), neutral)
    g = rng.normal(size=x.shape)
    gx, _, _ = ad.shift_scale_backward(g, cache)
    assert np.array_equal(gx, g)

    # constant series in local mode hits the sigma floor but stays finite
    const = TimeSeriesBatch(np.ones((2, 1, 4)))
    local = random_params(rng, 1, ad.LOCAL_AWARE)
    out, cache = ad.shift_scale_forward(const, local)
    gx, gm, gs = ad.shift_scale_backward(np.ones_like(const.values), cache)
    assert np.all(np.isfinite(out.values))
    assert np.all(np.isfinite(gx)) and np.all(np.isfinite(gm)) and np.all(np.isfinite(gs))


# --- backward passes against their unshared reference forms -------------------

def ref_outlier_backward(grad_out, cache):
    x, mu, u, th = cache["x"], cache["mu"], cache["u"], cache["th"]
    alpha = cache["alpha"][None, :, None]
    beta = cache["beta"][None, :, None]
    sech2 = 1.0 - th * th
    grad_x = grad_out * (alpha * sech2 + (1.0 - alpha))
    if cache["local"]:
        t = x.shape[2]
        grad_x = grad_x + (grad_out * alpha * (1.0 - sech2)).sum(axis=2, keepdims=True) / t
    grad_alpha = (grad_out * (beta * th + mu - x)).sum(axis=(0, 2))
    grad_beta = (grad_out * alpha * (th - u * sech2)).sum(axis=(0, 2))
    return grad_x, grad_alpha, grad_beta


def ref_shift_scale_backward(grad_out, cache):
    m, s, out = cache["m"], cache["s"], cache["out"]
    use_shift, use_scale = cache["use_shift"], cache["use_scale"]
    d = len(m)
    if not cache["local"]:
        denom = s[None, :, None] if use_scale else 1.0
        grad_m = -(grad_out / denom).sum(axis=(0, 2)) if use_shift else np.zeros(d)
        grad_s = -(grad_out * out).sum(axis=(0, 2)) / s if use_scale else np.zeros(d)
        return grad_out / denom, grad_m, grad_s
    mu_x, sig_raw, sig, x = cache["mu_x"], cache["sig_raw"], cache["sig"], cache["x"]
    t = x.shape[2]
    denom = cache["denom"][:, :, None]
    grad_m = (-(grad_out / denom).sum(axis=2) * mu_x).sum(axis=0) if use_shift else np.zeros(d)
    grad_s = -(grad_out * out).sum(axis=(0, 2)) / s if use_scale else np.zeros(d)
    grad_x = grad_out / denom
    if use_shift:
        grad_x = grad_x - (m[None, :, None] / t) * (grad_out / denom).sum(axis=2, keepdims=True)
    if use_scale:
        mask = (sig_raw > ad.SIGMA_FLOOR).astype(np.float64)
        coeff = -(mask * (grad_out * out).sum(axis=2) / sig)[:, :, None] / t
        grad_x = grad_x + coeff * (x - mu_x[:, :, None]) / sig[:, :, None]
    return grad_x, grad_m, grad_s


@pytest.mark.parametrize("mode", [ad.GLOBAL_AWARE, ad.LOCAL_AWARE])
@pytest.mark.parametrize("strided", [False, True])
def test_outlier_and_shift_scale_backward_match_reference_bitwise(mode, strided):
    rng = np.random.default_rng(17)
    values = rng.normal(0.4, 2.0, size=(6, 4, 5))
    values[0, 0, :] = 1.25  # one constant series: its sigma is floored in local mode
    x = TimeSeriesBatch(values)
    grad = rng.normal(size=(5, 6, 4))
    # the GRU hands back a (T, N, d) array viewed as (N, d, T)
    grad = np.moveaxis(grad, 0, 2) if strided else np.ascontiguousarray(np.moveaxis(grad, 0, 2))
    params = random_params(rng, 4, mode=mode)
    source = (ad.local_summary(x) if mode == ad.LOCAL_AWARE
              else ad.update_running_mean(ad.RunningMean.zeros(4), x))
    _, cache = ad.outlier_forward(x, params, source)
    for got, want in zip(ad.outlier_backward(grad, cache), ref_outlier_backward(grad, cache)):
        assert np.array_equal(got, want)
    for use_shift, use_scale in ((True, True), (True, False), (False, True), (False, False)):
        _, cache = ad.shift_scale_forward(x, params, use_shift, use_scale)
        got = ad.shift_scale_backward(grad, cache)
        want = ref_shift_scale_backward(grad, cache)
        for g, w in zip(got, want):
            assert np.array_equal(g, w), (use_shift, use_scale)
        assert got[1] is not got[2]


# --- power sublayer ----------------------------------------------------------

def test_power_identity_at_unit_lambda():
    rng = np.random.default_rng(5)
    x = TimeSeriesBatch(rng.normal(size=(2, 2, 3)))
    params = ad.init_edain_params(2)
    out, cache = ad.power_forward(x, params)
    assert np.allclose(out.values, x.values)
    g = rng.normal(size=x.values.shape)
    gx, glam = ad.power_backward(g, cache)
    assert np.allclose(gx, g)
    assert np.all(np.isfinite(glam))


def test_power_backward_fd_all_branches():
    rng = np.random.default_rng(6)
    # exercise lambda < 0, in (0, 2), > 2 against positive and negative data
    for lam_lo, lam_hi in ((-1.5, -0.2), (0.2, 1.8), (2.2, 3.5)):
        x = rng.normal(0, 2, size=(3, 2, 4))
        params = ad.EdainParams(alpha=np.zeros(2), beta=np.ones(2), m=np.zeros(2),
                                s=np.ones(2), lam=rng.uniform(lam_lo, lam_hi, 2))
        g = rng.normal(size=x.shape)

        def loss():
            out, _ = ad.power_forward(TimeSeriesBatch(x), params)
            return float((g * out.values).sum())

        _, cache = ad.power_forward(TimeSeriesBatch(x), params)
        gx, glam = ad.power_backward(g, cache)
        worst = check_grads(loss, {"x": gx, "lam": glam}, {"x": x, "lam": params.lam})
        assert max(worst.values()) < 1e-6, worst


# --- full layer --------------------------------------------------------------

def test_edain_neutral_parameters_are_identity():
    rng = np.random.default_rng(7)
    x = TimeSeriesBatch(rng.normal(size=(4, 3, 5)))
    params = ad.init_edain_params(3)
    state = ad.RunningMean.zeros(3)
    out, _, _ = ad.edain_forward(x, params, state, training=False)
    assert np.allclose(out.values, x.values)


def test_edain_global_preserves_order():
    rng = np.random.default_rng(8)
    params = random_params(rng, 1)
    state = ad.RunningMean(rng.normal(size=1), 3)
    xs = np.sort(rng.normal(0, 3, size=50))
    batch = TimeSeriesBatch(xs.reshape(-1, 1, 1))
    out, _, _ = ad.edain_forward(batch, params, state, training=False)
    assert np.all(np.diff(out.values[:, 0, 0]) > 0)


def _floats(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


def _global_edain_map(alpha, beta, m, s, lam, mu, xs):
    params = ad.EdainParams(alpha=[alpha], beta=[beta], m=[m], s=[s], lam=[lam])
    batch = TimeSeriesBatch(np.asarray(xs, dtype=np.float64).reshape(-1, 1, 1))
    out, _, _ = ad.edain_forward(batch, params, ad.RunningMean(np.array([mu]), 1),
                                 training=False)
    return out.values[:, 0, 0]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(alpha=_floats(0.0, 1.0), beta=_floats(ad.BETA_MIN, 100.0), s=_floats(ad.SCALE_FLOOR, 100.0),
       lam=_floats(0.0, 2.0), m=_floats(-5.0, 5.0), mu=_floats(-5.0, 5.0),
       grid=st.lists(st.integers(-500, 500), min_size=2, max_size=50, unique=True))
def test_global_edain_strictly_increasing_property(alpha, beta, s, lam, m, mu, grid):
    # Distinct inputs 0.01 apart in [-5, 5] map to strictly increasing outputs
    # over the feasible alpha, beta and s.  For lam in [0, 2] the power stage
    # is unbounded on both sides; outside it the map still rises, but toward
    # a finite limit that float64 reaches for large |value| (s at its floor).
    out = _global_edain_map(alpha, beta, m, s, lam, mu, np.sort(grid) * 0.01)
    assert np.all(np.diff(out) > 0)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(alpha=_floats(0.0, 1.0), beta=_floats(ad.BETA_MIN, 1e6), s=_floats(ad.SCALE_FLOOR, 1e6),
       lam=_floats(-20.0, 20.0), m=_floats(-1e3, 1e3), mu=_floats(-1e3, 1e3),
       xs=st.lists(_floats(-1e3, 1e3), min_size=2, max_size=50))
def test_global_edain_never_reverses_order_property(alpha, beta, s, lam, m, mu, xs):
    # any lam, any finite inputs: sorted inputs give sorted outputs
    out = _global_edain_map(alpha, beta, m, s, lam, mu, np.sort(xs))
    assert np.all(np.diff(out) >= 0)


def test_edain_local_standardizes_each_series():
    rng = np.random.default_rng(9)
    x = np.stack([rng.normal(10.0, 1.0, size=(1, 8)), rng.normal(-5.0, 3.0, size=(1, 8))])
    params = ad.EdainParams(alpha=np.zeros(1), beta=np.ones(1), m=np.ones(1),
                            s=np.ones(1), lam=np.ones(1), mode=ad.LOCAL_AWARE)
    out, _, _ = ad.edain_forward(TimeSeriesBatch(x), params, None, training=False)
    means = out.values.mean(axis=2)
    stds = out.values.std(axis=2)
    assert np.allclose(means, 0.0, atol=1e-12)
    assert np.allclose(stds, 1.0, atol=1e-12)


def test_edain_backward_fd_both_modes():
    rng = np.random.default_rng(10)
    for mode in (ad.GLOBAL_AWARE, ad.LOCAL_AWARE):
        x = rng.normal(0, 1.5, size=(3, 2, 4))
        params = random_params(rng, 2, mode)
        state = ad.RunningMean(rng.normal(0, 0.3, size=2), 6)
        g = rng.normal(size=x.shape)

        def loss():
            out, _, _ = ad.edain_forward(TimeSeriesBatch(x), params, state, training=False)
            return float((g * out.values).sum())

        _, cache, _ = ad.edain_forward(TimeSeriesBatch(x), params, state, training=False)
        grads, gx = ad.edain_backward(g, cache)
        worst = check_grads(loss, {**grads, "x": gx},
                            {"x": x, "alpha": params.alpha, "beta": params.beta,
                             "m": params.m, "s": params.s, "lam": params.lam})
        assert max(worst.values()) < 1e-5, (mode, worst)


def test_edain_backward_zero_grad_and_neutral_passthrough():
    rng = np.random.default_rng(11)
    x = TimeSeriesBatch(rng.normal(size=(2, 2, 3)))
    params = ad.init_edain_params(2)
    state = ad.RunningMean.zeros(2)
    _, cache, _ = ad.edain_forward(x, params, state, training=False)
    grads, gx = ad.edain_backward(np.zeros_like(x.values), cache)
    assert np.allclose(gx, 0.0)
    assert all(np.allclose(v, 0.0) for v in grads.values())

    g = rng.normal(size=x.values.shape)
    _, cache, _ = ad.edain_forward(x, params, state, training=False)
    _, gx = ad.edain_backward(g, cache)
    assert np.allclose(gx, g)


def test_edain_sublayer_flags():
    rng = np.random.default_rng(12)
    x = TimeSeriesBatch(rng.normal(2.0, 1.0, size=(3, 2, 4)))
    params = random_params(rng, 2)
    state = ad.RunningMean(rng.normal(size=2), 4)
    out, cache, _ = ad.edain_forward(x, params, state, training=False,
                                     enabled=("shift", "scale"))
    want = (x.values - params.m[None, :, None]) / params.s[None, :, None]
    assert np.allclose(out.values, want)
    grads, _ = ad.edain_backward(np.ones_like(out.values), cache)
    assert np.allclose(grads["alpha"], 0.0) and np.allclose(grads["lam"], 0.0)
    with pytest.raises(ValueError):
        ad.edain_forward(x, params, state, enabled=("bogus",))


def test_projection_clamps_feasible_set():
    layer = ad.EdainLayer(2)
    layer.params = params = ad.EdainParams(alpha=np.array([-0.5, 1.5]), beta=np.array([0.2, 5.0]),
                                           m=np.zeros(2), s=np.array([1e-9, 2.0]), lam=np.ones(2))
    layer.projection()
    assert np.all(params.alpha >= 0.0) and np.all(params.alpha <= 1.0)
    assert np.all(params.beta >= ad.BETA_MIN)
    assert np.all(params.s >= ad.SCALE_FLOOR)


# --- running mean ------------------------------------------------------------

def test_running_mean_two_series_example():
    state = ad.RunningMean.zeros(1)
    assert np.array_equal(state.mu_hat, np.zeros(1))  # initialised at zero
    state = ad.update_running_mean(state, TimeSeriesBatch(np.array([[[1.0, 2.0]]])))
    assert state.mu_hat[0] == pytest.approx(1.5)
    state = ad.update_running_mean(state, TimeSeriesBatch(np.array([[[3.0, 4.0]]])))
    assert state.mu_hat[0] == pytest.approx(2.5)
    assert state.count == 2


def test_running_mean_full_epoch_equals_pooled_mean():
    rng = np.random.default_rng(13)
    data = rng.normal(3.0, 2.0, size=(64, 3, 7))
    state = ad.RunningMean.zeros(3)
    for start in range(0, 64, 8):
        state = ad.update_running_mean(state, TimeSeriesBatch(data[start:start + 8]))
    assert np.max(np.abs(state.mu_hat - data.mean(axis=(0, 2)))) < 1e-12


def test_running_mean_dimension_mismatch():
    with pytest.raises(ValueError):
        ad.update_running_mean(ad.RunningMean.zeros(2), TimeSeriesBatch(np.zeros((1, 3, 2))))


# --- DAIN ----------------------------------------------------------------------

def test_dain_identity_weights_give_per_series_zscore():
    rng = np.random.default_rng(14)
    x = rng.normal(2.0, 3.0, size=(4, 3, 6))
    params = ad.DainParams.init(3)
    params.bias[:] = 50.0  # gate saturated open
    out, _ = ad.dain_forward(TimeSeriesBatch(x), params)
    mu = x.mean(axis=2, keepdims=True)
    rms = np.sqrt(((x - mu) ** 2).mean(axis=2, keepdims=True))
    assert np.allclose(out.values, (x - mu) / rms, atol=1e-12)


def test_dain_gate_half_open_at_init():
    rng = np.random.default_rng(15)
    x = rng.normal(size=(3, 2, 5))
    params = ad.DainParams.init(2)
    out, cache = ad.dain_forward(TimeSeriesBatch(x), params)
    assert np.allclose(cache["gate"], 0.5)
    assert np.allclose(out.values, cache["z"] * 0.5)


def test_dain_backward_fd():
    rng = np.random.default_rng(16)
    x = rng.normal(0, 2, size=(3, 3, 4))
    params = ad.DainParams(
        w_a=np.eye(3) + 0.1 * rng.normal(size=(3, 3)),
        w_b=np.eye(3) + 0.1 * rng.normal(size=(3, 3)),
        w_c=0.3 * rng.normal(size=(3, 3)),
        bias=0.2 * rng.normal(size=3),
    )
    g = rng.normal(size=x.shape)

    def loss():
        out, _ = ad.dain_forward(TimeSeriesBatch(x), params)
        return float((g * out.values).sum())

    _, cache = ad.dain_forward(TimeSeriesBatch(x), params)
    grads, gx = ad.dain_backward(g, cache)
    worst = check_grads(loss, {**grads, "x": gx},
                        {"x": x, "w_a": params.w_a, "w_b": params.w_b,
                         "w_c": params.w_c, "bias": params.bias})
    assert max(worst.values()) < 1e-5, worst


def test_dain_constant_series_floored_and_finite():
    params = ad.DainParams.init(2)
    x = TimeSeriesBatch(np.ones((2, 2, 5)))
    out, cache = ad.dain_forward(x, params)
    assert np.all(np.isfinite(out.values))
    grads, gx = ad.dain_backward(np.ones_like(out.values), cache)
    assert all(np.all(np.isfinite(v)) for v in grads.values())
    assert np.all(np.isfinite(gx))


# --- layer wrappers ------------------------------------------------------------

def test_edain_layer_checkpoint_roundtrip():
    rng = np.random.default_rng(17)
    layer = ad.EdainLayer(2, warm_start=TimeSeriesBatch(rng.normal(3, 2, size=(10, 2, 4))))
    layer.params.lam[:] = [0.4, 1.3]
    layer.state = ad.RunningMean(rng.normal(size=2), 12)
    doc = layer.to_json_dict()
    back = ad.EdainLayer.from_json_dict(doc)
    x = TimeSeriesBatch(rng.normal(size=(3, 2, 4)))
    a, _ = layer.forward(x, training=False)
    b, _ = back.forward(x, training=False)
    assert np.array_equal(a.values, b.values)


def test_dain_layer_checkpoint_roundtrip():
    rng = np.random.default_rng(19)
    layer = ad.DainLayer(3)
    for arr in layer.parameters().values():
        arr += rng.normal(0.0, 0.1, arr.shape)
    doc = layer.to_json_dict()
    back = ad.DainLayer.from_json_dict(doc)
    assert back.to_json_dict() == doc
    x = TimeSeriesBatch(rng.normal(size=(4, 3, 5)))
    a, _ = layer.forward(x, training=False)
    b, _ = back.forward(x, training=False)
    assert np.array_equal(a.values, b.values)


def test_edain_layer_warm_start_is_zscore():
    rng = np.random.default_rng(18)
    train = TimeSeriesBatch(rng.normal(5.0, 2.0, size=(20, 2, 6)))
    layer = ad.EdainLayer(2, warm_start=train)
    out, _ = layer.forward(train, training=False)
    want = sn.apply_zscore(train, sn.fit_zscore(train))
    assert np.allclose(out.values, want.values)


# --- the blocked chain against the whole-batch stage wrappers -----------------

EDAIN_SUBSETS = [rows for _, rows in ABLATION_ROWS if rows is not None]


def wrapper_chain(x, params, state, enabled, grad):
    """EDAIN as one whole-batch pass of each enabled per-stage wrapper; returns
    (output, {param: grad}, grad_input, state)."""
    local = params.mode == ad.LOCAL_AWARE
    use_shift, use_scale = "shift" in enabled, "scale" in enabled
    steps = []
    if "om" in enabled:
        if not local:
            state = ad.update_running_mean(state, x)
        x, c = ad.outlier_forward(x, params, ad.local_summary(x) if local else state)
        steps.append(("om", c))
    if use_shift or use_scale:
        x, c = ad.shift_scale_forward(x, params, use_shift, use_scale)
        steps.append(("ss", c))
    if "power" in enabled:
        x, c = ad.power_forward(x, params)
        steps.append(("pw", c))
    grads = {name: np.zeros(params.d) for name in ad.EDAIN_GROUPS}
    g = grad
    for name, c in reversed(steps):
        if name == "pw":
            g, grads["lam"] = ad.power_backward(g, c)
        elif name == "ss":
            g, grads["m"], grads["s"] = ad.shift_scale_backward(g, c)
        else:
            g, grads["alpha"], grads["beta"] = ad.outlier_backward(g, c)
    return x.values, grads, g, state


def gru_layout(grad):
    """``grad`` laid out as ``gru_backward`` hands it over: a (T, N, d) array
    viewed as (N, d, T)."""
    return np.moveaxis(np.ascontiguousarray(np.moveaxis(grad, 2, 0)), 0, 2)


def _block_rows(d, t):
    return ad.EDAIN_BLOCK_ELEMENTS // (d * t)


# (shape, blocks): N = 1; a wide batch; one series past a block boundary;
# d = 1, one block however long; d*T above the block size, one series a block
CHAIN_SHAPES = [
    ((1, 128, 13), 1),
    ((128, 128, 13), -(-128 // _block_rows(128, 13))),
    ((_block_rows(64, 9) + 1, 64, 9), 2),
    ((4 * ad.EDAIN_BLOCK_ELEMENTS // 20, 1, 20), 1),
    ((3, 7, ad.EDAIN_BLOCK_ELEMENTS // 7 + 1), 3),
]


def _same_bits(got, want):
    return np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))


@pytest.mark.parametrize("shape, blocks", CHAIN_SHAPES)
@pytest.mark.parametrize("mode", [ad.GLOBAL_AWARE, ad.LOCAL_AWARE])
def test_blocked_chain_equals_stage_wrappers_bitwise(shape, blocks, mode):
    rng = np.random.default_rng(sum(shape))
    n, d, t = shape
    values = rng.standard_t(4, size=shape) * 2.0 + 0.3
    values[0, 0, :] = 1.25  # a constant series: its sigma is floored in local mode
    x = TimeSeriesBatch(values)
    params = random_params(rng, d, mode)
    params.lam[0] = 2.0 - 1e-7  # a power-transform branch window
    grad = rng.normal(size=shape)
    for enabled in EDAIN_SUBSETS:
        state = ad.RunningMean(rng.normal(size=d), 9)
        out, cache, new_state = ad.edain_forward(x, params, state, training=True,
                                                 enabled=enabled)
        assert len(cache["blocks"]) == blocks
        for g in (grad, gru_layout(grad)):
            want_out, want_grads, want_gx, want_state = wrapper_chain(x, params, state,
                                                                      enabled, g)
            assert _same_bits(out.values, want_out), enabled
            if "om" in enabled and mode == ad.GLOBAL_AWARE:
                assert _same_bits(new_state.mu_hat, want_state.mu_hat)
                assert new_state.count == want_state.count
            grads, gx = ad.edain_backward(g, cache)
            assert _same_bits(gx, want_gx), enabled
            skipped, none = ad.edain_backward(g, cache, input_grad=False)
            assert none is None
            for name in ad.EDAIN_GROUPS:
                assert _same_bits(grads[name], want_grads[name]), (enabled, name)
                assert _same_bits(skipped[name], want_grads[name]), (enabled, name)


def test_edain_layer_backward_skips_only_the_input_gradient():
    rng = np.random.default_rng(23)
    x = TimeSeriesBatch(rng.normal(size=(50, 6, 5)))
    for layer, backward in ((ad.EdainLayer(6, ad.LOCAL_AWARE), ad.edain_backward),
                            (ad.DainLayer(6), ad.dain_backward)):
        for arr in layer.parameters().values():
            arr += rng.uniform(0.0, 0.2, arr.shape)
        _, cache = layer.forward(x, training=True)
        g = gru_layout(rng.normal(size=x.values.shape))
        full, gx = backward(g, cache)
        skipped, none = backward(g, cache, input_grad=False)
        assert gx.shape == x.values.shape and none is None
        # the layer gives the parameter gradients only
        by_layer = layer.backward(g, cache)
        assert by_layer.keys() == full.keys()
        for name in full:
            assert _same_bits(skipped[name], full[name]), name
            assert _same_bits(by_layer[name], full[name]), name


def _poisoned(values, row):
    """A batch whose series ``row`` holds a NaN, past the finiteness check
    that building a batch makes."""
    x = TimeSeriesBatch(values)
    x.values.flags.writeable = True
    x.values[row, 1, 2] = np.nan
    x.values.flags.writeable = False
    return x


@pytest.mark.parametrize("mode", [ad.GLOBAL_AWARE, ad.LOCAL_AWARE])
def test_nan_in_a_middle_block_is_refused_by_the_stage(mode):
    rng = np.random.default_rng(24)
    d, t = 64, 16
    rows = _block_rows(d, t)
    x = _poisoned(rng.normal(size=(3 * rows, d, t)), rows + rows // 2)
    layer = ad.EdainLayer(d, mode)
    with pytest.raises(NonFiniteBatchError, match="EDAIN outlier stage"):
        layer.forward(x, training=False)
    layer = ad.EdainLayer(d, mode, enabled=("shift", "scale", "power"))
    with pytest.raises(NonFiniteBatchError, match="EDAIN shift/scale stage"):
        layer.forward(x, training=False)


def test_minus_inf_before_the_power_stage_is_refused():
    # for lam > 2 the power stage maps -inf to the finite -1/(lam - 2), so
    # checking only the chain's output would let it through
    assert yj.forward(np.array([-np.inf]), 3.0)[0] == -1.0
    rng = np.random.default_rng(25)
    values = rng.normal(size=(20, 2, 4))
    values[3, 0, 1] = -1e308
    params = ad.EdainParams(alpha=np.zeros(2), beta=np.ones(2), m=np.zeros(2),
                            s=np.full(2, 1e-6), lam=np.full(2, 3.0))
    with pytest.raises(NonFiniteBatchError, match="EDAIN shift/scale stage"), \
            np.errstate(over="ignore"):
        ad.edain_forward(TimeSeriesBatch(values), params, ad.RunningMean.zeros(2))


def test_train_loop_refuses_a_non_finite_value_inside_a_middle_block():
    # A 1e308 in the middle block of the first minibatch passes the batch
    # check, and the shift/scale stage overflows it to inf.
    rng = np.random.default_rng(26)
    d, t = 64, 16
    batch = 3 * _block_rows(d, t)
    n = 2 * batch
    values = rng.normal(size=(n, d, t))
    config = nn.TrainConfig(batch_size=batch, max_epochs=1, seed=4)
    order = np.random.Generator(np.random.PCG64(config.seed)).permutation(n)
    values[order[_block_rows(d, t) + 1], 5, 3] = 1e308
    train = LabeledDataset(TimeSeriesBatch(values), rng.integers(0, 2, n))
    layer = ad.EdainLayer(d, ad.GLOBAL_AWARE)
    layer.params.s[:] = 1e-3
    model = nn.GruStack(d_in=d, hidden=(3,), head=(3,), dropout=0.0)
    with pytest.raises(NonFiniteBatchError, match="EDAIN shift/scale stage"), \
            np.errstate(over="ignore"):
        nn.train_loop(train, train, layer, model, config)
