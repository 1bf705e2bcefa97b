import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gradcheck import check_grads, rel_err
from tsnorm.data import TimeSeriesBatch, minibatch_indices
from tsnorm import flow_kl as fk
from tsnorm import yeojohnson as yj
from tsnorm.harness import KlPreproc
from tsnorm.neural import Optimizer, TrainConfig
from tsnorm.static_norm import fit_zscore
from tsnorm.synthgen import default_config, generate_dataset


BE, SE = yj.BRANCH_EPS, yj.SERIES_EPS
# exponents inside the BRANCH_EPS and SERIES_EPS windows around 0 and 2
WINDOW_LAMBDAS = (0.0, BE / 2, -BE / 2, 2 * BE, SE / 2, -SE / 2,
                  2.0, 2.0 - BE / 2, 2.0 + BE / 2, 2.0 - 2 * BE, 2.0 - SE / 2, 2.0 + SE / 2)


def random_params(rng, d):
    return fk.KlBijectorParams(
        beta=rng.uniform(2.0, 5.0, d),
        m=rng.normal(0.0, 0.5, d),
        s=rng.uniform(0.5, 2.0, d),
        lam=rng.uniform(0.4, 1.6, d),
        mu_hat=rng.normal(0.0, 0.5, d),
    )


def test_neutral_params_near_identity():
    rng = np.random.default_rng(0)
    x = TimeSeriesBatch(rng.normal(size=(5, 2, 4)))
    params = fk.KlBijectorParams(beta=np.full(2, 1e6), m=np.zeros(2), s=np.ones(2),
                                 lam=np.ones(2), mu_hat=np.zeros(2))
    z, log_det = fk.normalize_direction(x, params)
    assert np.allclose(z.values, x.values, atol=1e-9)
    assert np.allclose(log_det, 0.0, atol=1e-9)


def test_scale_only_log_det():
    params = fk.KlBijectorParams(beta=np.array([1e8]), m=np.zeros(1), s=np.array([2.0]),
                                 lam=np.ones(1), mu_hat=np.zeros(1))
    x = TimeSeriesBatch(np.array([[[0.7]]]))
    _, log_det = fk.normalize_direction(x, params)
    assert log_det[0] == pytest.approx(-math.log(2.0), abs=1e-12)


def test_normalize_monotone_per_coordinate():
    rng = np.random.default_rng(1)
    params = random_params(rng, 1)
    xs = np.sort(rng.normal(0, 2, 100))
    z, _ = fk.normalize_direction(TimeSeriesBatch(xs.reshape(-1, 1, 1)), params)
    assert np.all(np.diff(z.values[:, 0, 0]) > 0)


def test_roundtrip_bijectivity():
    rng = np.random.default_rng(2)
    for _ in range(20):
        d = int(rng.integers(1, 4))
        params = random_params(rng, d)
        x = TimeSeriesBatch(rng.normal(0, 1.5, size=(4, d, 5)))
        z, _ = fk.normalize_direction(x, params)
        back = fk.generate_direction(z, params)
        assert np.max(np.abs(back.values - x.values)) < 1e-9


@settings(max_examples=200, deadline=None, derandomize=True)
@given(beta=st.floats(fk.BETA_MIN, 10.0), m=st.floats(-3.0, 3.0), s=st.floats(0.5, 10.0),
       lam=st.sampled_from(WINDOW_LAMBDAS) | st.floats(-3.0, 5.0), mu_hat=st.floats(-3.0, 3.0),
       u=st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=20))
def test_normalize_generate_roundtrip_property(beta, m, s, lam, mu_hat, u):
    # x = mu_hat + beta*u with |u| <= 3 keeps the winsorized value inside the
    # atanh domain of its inverse; a NaN or a RuntimeWarning fails the test
    params = fk.KlBijectorParams(beta=[beta], m=[m], s=[s], lam=[lam], mu_hat=[mu_hat])
    x = mu_hat + beta * np.array(u).reshape(1, 1, -1)
    try:
        z, _ = fk.normalize_direction(TimeSeriesBatch(x), params)
        back = fk.generate_direction(z, params).values
    except (fk.FlowDomainError, yj.PowerDomainError):
        return
    assert np.all(np.abs(back - x) <= 1e-9 * np.maximum(1.0, np.abs(x)))


def test_inverse_power_exp_branch():
    params = fk.KlBijectorParams(beta=np.array([1e8]), m=np.zeros(1), s=np.ones(1),
                                 lam=np.zeros(1), mu_hat=np.zeros(1))
    z = TimeSeriesBatch(np.array([[[1.0]]]))
    out = fk.generate_direction(z, params)
    assert out.values.ravel()[0] == pytest.approx(math.e - 1.0)


def test_generate_domain_error_names_coordinate():
    params = fk.KlBijectorParams(beta=np.array([1.5]), m=np.zeros(1), s=np.ones(1),
                                 lam=np.ones(1), mu_hat=np.zeros(1))
    z = TimeSeriesBatch(np.array([[[0.0, 2.0]]]))  # |2.0| >= beta
    with pytest.raises(fk.FlowDomainError, match="timestep 1"):
        fk.generate_direction(z, params)


def test_log_det_matches_numeric_derivative():
    rng = np.random.default_rng(4)
    h = 1e-6
    for _ in range(50):
        params = random_params(rng, 1)
        # cover all four power branches including the singular windows
        params.lam[0] = rng.choice([rng.uniform(-1, 3), 1e-8, 2.0 - 1e-8])
        x = rng.normal(0, 2, size=(1, 1, 1))
        _, log_det = fk.normalize_direction(TimeSeriesBatch(x), params)
        up, _ = fk.normalize_direction(TimeSeriesBatch(x + h), params)
        dn, _ = fk.normalize_direction(TimeSeriesBatch(x - h), params)
        numeric = math.log(abs((up.values - dn.values).ravel()[0] / (2 * h)))
        assert rel_err(log_det[0], numeric) < 1e-4


def test_nll_neutral_on_standard_normal():
    rng = np.random.default_rng(5)
    x = TimeSeriesBatch(rng.normal(size=(1000, 2, 5)))  # 10000 coordinates
    params = fk.KlBijectorParams(beta=np.full(2, 1e6), m=np.zeros(2), s=np.ones(2),
                                 lam=np.ones(2), mu_hat=np.zeros(2))
    nll, _ = fk.negative_log_likelihood(x, params)
    per_coord = nll / (1000 * 2 * 5)
    assert per_coord == pytest.approx(0.5 * math.log(2 * math.pi) + 0.5, abs=0.02)


def test_nll_gradients_match_fd():
    rng = np.random.default_rng(6)
    x = rng.normal(0.5, 2.0, size=(5, 2, 3))
    # an ordinary exponent, then exponents inside the branch and series windows
    for lam0 in (None, *WINDOW_LAMBDAS):
        params = random_params(rng, 2)
        if lam0 is not None:
            params.lam[0] = lam0
        nll, grads = fk.negative_log_likelihood(TimeSeriesBatch(x), params)

        def loss():
            v, _ = fk.negative_log_likelihood(TimeSeriesBatch(x), params)
            return v

        worst = check_grads(loss, grads, {"beta": params.beta, "m": params.m,
                                          "s": params.s, "lam": params.lam})
        assert max(worst.values()) < 1e-5, (lam0, worst)


def reference_forward(batch, params):
    """An independent whole-batch forward chain with (1, d, 1) parameter
    operands: the per-series NLL, z, the per-series log-det and the
    intermediates of the reverse pass."""
    beta = params.beta[None, :, None]
    mu = params.mu_hat[None, :, None]
    m = params.m[None, :, None]
    s = params.s[None, :, None]
    lam = params.lam[None, :, None]

    x = batch.values
    u = (x - mu) / beta
    th = np.tanh(u)
    v1 = beta * th + mu
    ld1 = fk._log_sech2(u)
    v2 = v1 - m
    v3 = v2 / s
    ld3 = -np.log(s)
    power = yj.PowerPoint(v3, lam)
    z = power.forward()
    ld4 = power.log_dx()
    per_series = (0.5 * fk.LOG_2PI + 0.5 * z * z - ld1 - ld3 - ld4).sum(axis=(1, 2))
    log_det = (ld1 + ld3 + ld4).sum(axis=(1, 2))
    return per_series, z, log_det, {"u": u, "th": th, "v3": v3, "power": power}


def reference_nll_grads(batch, params):
    """An independent forward chain and reverse pass, in the operation order
    of a stand-alone bijector: d/dbeta, d/dm and d/dlam must match
    ``negative_log_likelihood`` bit for bit; d/ds sums g*(-v3/s) per element,
    where the stage functions divide the sum of g*v3 by s."""
    beta = params.beta[None, :, None]
    s = params.s[None, :, None]
    per_series, z, _, inner = reference_forward(batch, params)
    u, th, v3, power = inner["u"], inner["th"], inner["v3"], inner["power"]
    n, _, t = batch.values.shape
    nll = float(per_series.sum())

    # reverse-mode through the four stages
    g_z = z
    g_v3 = g_z * power.dx() - power.dx_log_dx()
    g_lam = (g_z * power.dlam() - power.dlam_log_dx()).sum(axis=(0, 2))

    g_v2 = g_v3 / s
    g_s = (g_v3 * (-v3 / s)).sum(axis=(0, 2)) + n * t / params.s

    g_v1 = g_v2
    g_m = (-g_v2).sum(axis=(0, 2))

    dv1_dbeta = th - u * (1.0 - th * th)
    g_beta = (g_v1 * dv1_dbeta - 2.0 * u * th / beta).sum(axis=(0, 2))

    grads = {"beta": g_beta, "m": g_m, "s": g_s, "lam": g_lam}
    return nll, grads, (g_v3 * v3).sum(axis=(0, 2)) / params.s


def test_nll_gradient_pinned_to_an_independent_reverse_pass():
    rng = np.random.default_rng(13)
    d = 3
    for trial in range(40):
        params = random_params(rng, d)
        params.lam = rng.choice([*WINDOW_LAMBDAS, *rng.uniform(-1.0, 3.0, 4)], d)
        params.mu_hat = rng.normal(0.0, 2.0, d)  # mu_hat != 0
        x = TimeSeriesBatch(rng.normal(0.5, 2.0, size=(int(rng.integers(1, 300)), d, 10)))
        nll, grads = fk.negative_log_likelihood(x, params)
        ref_nll, ref, scale_sum = reference_nll_grads(x, params)
        assert nll == ref_nll, trial
        for name in ("beta", "m", "lam"):
            assert np.array_equal(grads[name], ref[name]), (trial, name)
        # relative to the larger of the two terms d/ds adds, so that their
        # cancellation cannot inflate the tolerance's reference
        size = np.maximum(np.abs(scale_sum), x.n * x.t / params.s)
        assert np.all(np.abs(grads["s"] - ref["s"]) <= 1e-13 * size), trial


def test_nll_invariant_to_series_permutation():
    rng = np.random.default_rng(7)
    x = rng.normal(0, 1.5, size=(10, 2, 4))
    params = random_params(rng, 2)
    a, _ = fk.negative_log_likelihood(TimeSeriesBatch(x), params)
    b, _ = fk.negative_log_likelihood(TimeSeriesBatch(x[rng.permutation(10)]), params)
    assert a == pytest.approx(b, rel=1e-12)


def straddling(d, t):
    """Batch sizes around the row block of a (d, t) shape: 1, block - 1,
    block, block + 1 and 2 * block + 1 series."""
    block = fk.KL_BLOCK_ELEMENTS // (d * t)
    return [1, block - 1, block, block + 1, 2 * block + 1]


def assert_blocks_match_the_full_pass(n, d, t):
    rng = np.random.default_rng(12)
    x = TimeSeriesBatch(rng.normal(0.3, 1.5, size=(n, d, t)))
    params = random_params(rng, d)
    per_series, z, log_det, _ = reference_forward(x, params)
    assert np.array_equal(fk.series_nll(x, params), per_series)
    assert float(per_series.sum()) == fk.negative_log_likelihood(x, params)[0]
    got_z, got_log_det = fk.normalize_direction(x, params)
    assert np.array_equal(got_z.values, z)
    assert np.array_equal(got_log_det, log_det)
    # the frozen normalizer takes z alone through the same blocks
    frozen, _ = KlPreproc(params).forward(x, training=False)
    assert np.array_equal(frozen.values, z)


# d = 2, T = 64 puts 128 series in a block of 2**14 values
@pytest.mark.parametrize("n", straddling(2, 64))
def test_series_nll_blocks_match_the_full_pass(n):
    assert_blocks_match_the_full_pass(n, 2, 64)


# the credit-default-like width: 9 series a block
@pytest.mark.parametrize("n", straddling(128, 13))
def test_series_nll_blocks_match_the_full_pass_at_a_wide_shape(n):
    assert_blocks_match_the_full_pass(n, 128, 13)


def test_series_nll_names_a_non_finite_series_in_a_later_block():
    # lam = 600 overflows the power stage at 3.0 but not at 0.1; T = 128 puts
    # series 200 in the second block
    params = fk.KlBijectorParams(beta=[1e3], m=[0.0], s=[1.0], lam=[600.0], mu_hat=[0.0])
    values = np.full((300, 1, 128), 0.1)
    values[200, 0, 2] = 3.0
    assert fk.KL_BLOCK_ELEMENTS // 128 <= 200
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(FloatingPointError,
                           match=r"series 200, feature 0, timestep 2 \(value 3\.0\)$"):
            fk.series_nll(TimeSeriesBatch(values), params)


@pytest.mark.parametrize("nll", [fk.series_nll, fk.negative_log_likelihood])
def test_the_likelihood_error_names_the_coordinate_and_its_value(nll):
    # feature 2's exponent overflows the power stage at 3.0
    params = fk.KlBijectorParams(beta=[1e3] * 3, m=[0.0] * 3, s=[1.0] * 3,
                                 lam=[1.0, 1.0, 600.0], mu_hat=[0.0] * 3)
    values = np.full((5, 3, 4), 0.1)
    values[3, 2, 1] = 3.0
    values[3, 0, 3] = 7.5  # a larger term, but finite: the non-finite one is named
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(FloatingPointError, match=r"^non-finite likelihood for series 3, "
                                                     r"feature 2, timestep 1 \(value 3\.0\)$"):
            nll(TimeSeriesBatch(values), params)


def test_an_overflowing_sum_names_its_largest_term():
    # every 0.5*z^2 is finite (s = 1.5e-156 maps 0.02 to z = 1.3e154), their
    # sum over the series is not
    params = fk.KlBijectorParams(beta=[1e300], m=[0.0], s=[1.5e-156], lam=[1.0], mu_hat=[0.0])
    values = np.array([[[0.01, 0.02, 0.015, 0.018]]])
    with np.errstate(over="ignore"):
        with pytest.raises(FloatingPointError,
                           match=r"series 0, feature 0, timestep 1 \(value 0\.02\)$"):
            fk.series_nll(TimeSeriesBatch(values), params)


def fit_config(seed=0, epochs=25):
    return TrainConfig(base_lr=1e-2, optimizer="adam", batch_size=256, max_epochs=epochs,
                       milestones=(), patience=epochs, seed=seed,
                       corrections={"outlier": 1.0, "shift": 1.0, "scale": 1.0, "power": 1.0})


def skewness(v):
    c = v - v.mean()
    return (c ** 3).mean() / (c ** 2).mean() ** 1.5


def test_fit_kl_on_skewed_data():
    rng = np.random.default_rng(8)
    raw = np.exp(rng.normal(size=10_000)) - 1.0
    batch = TimeSeriesBatch(raw.reshape(1000, 1, 10))
    params, history = fk.fit_kl(batch, fit_config())
    assert params.lam[0] < 1.0
    assert min(h["nll"] for h in history[1:]) < history[0]["nll"]
    z, _ = fk.normalize_direction(batch, params)
    assert abs(skewness(z.values.ravel())) < abs(skewness(raw))


def test_fit_kl_on_gaussian_data_stays_near_neutral():
    rng = np.random.default_rng(9)
    batch = TimeSeriesBatch(rng.normal(size=(1000, 1, 10)))
    params, _ = fk.fit_kl(batch, fit_config(seed=1))
    assert abs(params.m[0]) < 0.1
    assert abs(params.s[0] - 1.0) < 0.1
    assert abs(params.lam[0] - 1.0) < 0.15


def test_fit_kl_starts_at_zscore_on_non_zero_mean_data():
    rng = np.random.default_rng(11)
    batch = TimeSeriesBatch(rng.normal(10.0, 2.0, size=(500, 2, 10)))
    params, history = fk.fit_kl(batch, fit_config(epochs=0))  # the starting point
    z, _ = fk.normalize_direction(batch, params)
    assert abs(z.values.mean()) < 0.1
    assert history[0]["nll"] < 3.0


def test_fit_kl_history_is_the_full_batch_nll():
    # one sum over all per-series values, in the order of one full pass (a
    # sum of block sums differs in the last bits for some of these datasets)
    for seed in range(20):
        rng = np.random.default_rng(seed)
        scale = rng.uniform(0.1, 10.0, size=(1000, 1, 1))
        batch = TimeSeriesBatch(rng.normal(1.0, 2.0, size=(1000, 2, 5)) * scale)
        params, history = fk.fit_kl(batch, fit_config(epochs=0))
        nll, _ = fk.negative_log_likelihood(batch, params)
        assert history == [{"epoch": 0, "nll": nll / batch.values.size}], seed


def synth3_300():
    return generate_dataset(default_config(n=300, t=10, seed=3)).batch


def blow_up_config(lr=1e-2, optimizer="adam", batch_size=64, epochs=10, **corrections):
    return TrainConfig(base_lr=lr, optimizer=optimizer, batch_size=batch_size, max_epochs=epochs,
                       milestones=(), patience=epochs, seed=0,
                       corrections={**dict.fromkeys(fk.GROUPS.values(), 1.0), **corrections})


def reference_fit(train, config):
    """fit_kl's loop with a loss at every step: each step calls
    negative_log_likelihood and stops at the first non-finite loss or gradient."""
    pooled = fit_zscore(train)
    std = np.maximum(pooled.std, fk.SCALE_FLOOR)
    params = fk.KlBijectorParams(beta=np.maximum(3.0 * std, fk.BETA_MIN), m=pooled.mean, s=std,
                                 lam=np.ones(train.d), mu_hat=pooled.mean)
    optimizer = Optimizer(config, projection=params.projection)
    rng = np.random.Generator(np.random.PCG64(config.seed))
    best = float(fk.series_nll(train, params).sum()) / train.values.size
    best_snap, history = params.snapshot(), [{"epoch": 0, "nll": best}]
    for epoch in range(1, config.max_epochs + 1):
        for idx in minibatch_indices(train.n, config.batch_size, rng):
            try:
                _, grads = fk.negative_log_likelihood(TimeSeriesBatch(train.values[idx]), params)
            except FloatingPointError:
                break
            if not all(np.all(np.isfinite(g)) for g in grads.values()):
                break
            optimizer.step(params.parameters(), grads, fk.GROUPS)
        else:
            nll = float(fk.series_nll(train, params).sum()) / train.values.size
            if np.isfinite(nll):
                history.append({"epoch": epoch, "nll": nll})
                if nll < best:
                    best, best_snap = nll, params.snapshot()
                continue
        break
    params.restore(best_snap)
    return params, history


def outcome(fit, batch, config):
    try:
        params, history = fit(batch, config)
    except FloatingPointError as err:
        return str(err)
    return params.to_json_dict(), history


@pytest.mark.parametrize("config", [
    blow_up_config(lr=1e3),                                  # stops at the first step
    blow_up_config(outlier=1e6),                             # runs every epoch
    blow_up_config(power=1e3),                               # never beats epoch 0
    blow_up_config(power=1e5),                               # stops in the first epoch
    blow_up_config(optimizer="sgd", batch_size=300, epochs=2),  # epoch-end NLL overflows
], ids=["lr-1e3", "outlier-1e6", "power-1e3", "power-1e5", "sgd-whole-batch"])
def test_fit_kl_matches_a_loop_that_checks_every_minibatch_loss(config):
    batch = synth3_300()
    with np.errstate(all="ignore"):
        assert outcome(fk.fit_kl, batch, config) == outcome(reference_fit, batch, config)


def test_fit_kl_stops_at_a_non_finite_gradient_and_returns_the_best_epoch(monkeypatch):
    batch, finite = synth3_300(), []
    grads_of = fk._nll_grads

    def recording(*args):
        grads = grads_of(*args)
        finite.append(all(np.isfinite(g).all() for g in grads.values()))
        return grads

    monkeypatch.setattr(fk, "_nll_grads", recording)
    with np.errstate(all="ignore"):
        params, history = fk.fit_kl(batch, blow_up_config(power=1e5))
    start, start_history = fk.fit_kl(batch, blow_up_config(epochs=0))
    assert finite[-1] is False and all(finite[:-1]) and len(finite) < 1 + 300 // 64
    assert history == start_history
    assert params.to_json_dict() == start.to_json_dict()


def test_fit_kl_raises_when_an_epoch_end_nll_is_not_finite():
    # whole-batch SGD steps on the summed NLL overshoot: the second step's
    # gradients are finite, the NLL after it is not
    batch = synth3_300()
    with np.errstate(all="ignore"):
        _, history = fk.fit_kl(batch, blow_up_config(optimizer="sgd", batch_size=300, epochs=1))
        assert len(history) == 2 and np.isfinite(history[1]["nll"])
        with pytest.raises(FloatingPointError, match=r"^non-finite likelihood for series \d+, "
                                                     r"feature \d+, timestep \d+ \(value "):
            fk.fit_kl(batch, blow_up_config(optimizer="sgd", batch_size=300, epochs=2))


@pytest.mark.parametrize("field, got", [({"milestones": (1,)}, "(1,) and 6"),
                                        ({"patience": 5}, "() and 5")])
def test_fit_kl_refuses_a_schedule_or_early_stopping(field, got):
    config = replace(blow_up_config(epochs=6), **field)
    with pytest.raises(ValueError) as err:
        fk.fit_kl(synth3_300(), config)
    assert str(err.value) == f"fit_kl needs milestones=() and patience >= max_epochs (6), got {got}"
    fk.fit_kl(synth3_300(), replace(config, milestones=(), patience=7, max_epochs=1))


def test_fit_kl_rejects_empty():
    with pytest.raises(ValueError):
        fk.fit_kl(TimeSeriesBatch(np.zeros((0, 1, 1))), fit_config())


def test_kl_params_json_roundtrip():
    rng = np.random.default_rng(10)
    params = random_params(rng, 3)
    back = fk.KlBijectorParams.from_json_dict(params.to_json_dict())
    x = TimeSeriesBatch(rng.normal(size=(2, 3, 4)))
    za, la = fk.normalize_direction(x, params)
    zb, lb = fk.normalize_direction(x, back)
    assert np.array_equal(za.values, zb.values)
    assert np.array_equal(la, lb)
