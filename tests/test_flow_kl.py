import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gradcheck import check_grads, rel_err
from tsnorm.data import TimeSeriesBatch
from tsnorm import flow_kl as fk
from tsnorm import yeojohnson as yj
from tsnorm.neural import TrainConfig


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


def reference_nll_grads(batch, params):
    """An independent forward chain and reverse pass, in the operation order
    of a stand-alone bijector: d/dbeta, d/dm and d/dlam must match
    ``negative_log_likelihood`` bit for bit; d/ds sums g*(-v3/s) per element,
    where the stage functions divide the sum of g*v3 by s."""
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
    n, d, t = x.shape
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


@pytest.mark.parametrize("n", [1, 127, 128, 129, 300])
def test_series_nll_blocks_match_the_full_pass(n):
    rng = np.random.default_rng(12)
    x = TimeSeriesBatch(rng.normal(0.3, 1.5, size=(n, 2, 4)))
    params = random_params(rng, 2)
    per_series = fk.series_nll(x, params)
    full, _ = fk._series_nll(x.values, params)
    assert np.array_equal(per_series, full)
    assert float(per_series.sum()) == fk.negative_log_likelihood(x, params)[0]


def test_series_nll_names_a_non_finite_series_in_a_later_block():
    # lam = 600 overflows the power stage at 3.0 but not at 0.1
    params = fk.KlBijectorParams(beta=[1e3], m=[0.0], s=[1.0], lam=[600.0], mu_hat=[0.0])
    values = np.full((300, 1, 4), 0.1)
    values[200, 0, 2] = 3.0
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(FloatingPointError, match=r"series 200$"):
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
