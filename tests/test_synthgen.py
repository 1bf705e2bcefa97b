import functools
import math
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import ndtr
from scipy.stats import chi2, kstest

from tsnorm.data import RngState, TimeSeriesBatch
from tsnorm import synthgen as sg


def test_ma_autocovariance_examples():
    assert sg.ma_autocovariance(np.array([-1.0]), 1.0, 0) == pytest.approx(1.0)
    theta = np.array([-1.0, 0.5, -0.2, 0.8])
    assert sg.ma_autocovariance(theta, 1.0, 0) == pytest.approx(1.93)
    assert sg.ma_autocovariance(theta, 1.0, 1) == pytest.approx(-0.76)
    assert sg.ma_autocovariance(theta, 1.0, 4) == 0.0
    assert sg.ma_autocovariance(theta, 2.0, 0) == pytest.approx(4 * 1.93)


def one_feature_config(**kw):
    return sg.SynthConfig(pdfs=[sg.pdf_left_skew], bounds=[(-1.0, 7.0)],
                          theta=np.array([[-1.0, 0.5, -0.2, 0.8]]), n=10, t=6, **kw)


def test_build_covariance_single_feature_is_banded_toeplitz():
    cfg = one_feature_config(seed=0)
    sigma = sg.build_covariance(cfg, RngState(0).generator())
    t = cfg.t
    assert sigma.shape == (t, t)
    for lag in range(t):
        want = sg.ma_autocovariance(cfg.theta[0], 1.0, lag)
        band = np.diagonal(sigma, offset=lag)
        assert np.allclose(band, want)
    assert np.max(np.abs(sigma - sigma.T)) < 1e-15


def test_build_covariance_diagonal_and_symmetry_multifeature():
    cfg = sg.default_config(n=5, t=4, seed=1)
    sigma = sg.build_covariance(cfg, RngState(1).generator())
    assert np.max(np.abs(sigma - sigma.T)) < 1e-15
    for j in range(3):
        s0 = sg.ma_autocovariance(cfg.theta[j], 1.0, 0)
        assert np.allclose(np.diagonal(sigma)[j * 4:(j + 1) * 4], s0)


def test_nearest_psd_examples():
    eye = np.eye(3)
    assert np.max(np.abs(sg.nearest_psd(eye) - eye)) < 1e-12

    fixed = sg.nearest_psd(np.diag([1.0, -1.0]))
    assert np.allclose(fixed, np.diag([1.0, 0.0]), atol=1e-12)

    rng = np.random.default_rng(2)
    for _ in range(20):
        a = rng.normal(size=(6, 6))
        sym = (a + a.T) / 2
        out = sg.nearest_psd(sym)
        assert np.linalg.eigvalsh(out).min() >= -1e-10
        again = sg.nearest_psd(out)
        assert np.max(np.abs(again - out)) < 1e-10  # idempotent

    with pytest.raises(ValueError, match="symmetric"):
        sg.nearest_psd(np.array([[1.0, 2.0], [0.0, 1.0]]))


def test_sample_correlated_uniforms_identity_cov():
    rng = RngState(3).generator()
    u = sg.sample_correlated_uniforms(np.eye(4), 10_000, rng)
    assert u.shape == (10_000, 4)
    assert np.all((u > 0) & (u < 1))
    for j in range(4):
        assert abs(u[:, j].mean() - 0.5) < 0.02
    # KS sanity check against U(0,1) at the 1% level
    assert kstest(u[:, 0], "uniform").pvalue > 0.01


def test_sample_correlated_uniforms_degenerate_coordinate():
    sigma = np.diag([1.0, 0.0])
    u = sg.sample_correlated_uniforms(sigma, 50, RngState(4).generator())
    assert np.allclose(u[:, 1], 0.5)


def test_build_inverse_cdf_uniform_density():
    table = sg.build_inverse_cdf(lambda x: np.ones_like(x), 0.0, 1.0, 1e-3, use_cache=False)
    assert sg.inv_cdf_lookup(table, 0.25) == pytest.approx(0.25, abs=1e-3)
    assert sg.inv_cdf_lookup(table, 0.75) == pytest.approx(0.75, abs=1e-3)


def test_build_inverse_cdf_normal_median():
    pdf = lambda x: np.exp(-0.5 * x * x)
    table = sg.build_inverse_cdf(pdf, -8.0, 8.0, 1e-3, use_cache=False)
    assert abs(sg.inv_cdf_lookup(table, 0.5)) < 2e-3


def test_inv_cdf_lookup_monotone_and_grid_identity():
    pdf = lambda x: np.exp(-0.5 * x * x)
    table = sg.build_inverse_cdf(pdf, -6.0, 6.0, 1e-2, use_cache=False)
    us = np.linspace(0.01, 0.99, 200)
    xs = sg.inv_cdf_lookup(table, us)
    assert np.all(np.diff(xs) >= 0)
    # lookup of the tabulated CDF returns the grid point itself
    idx = np.arange(50, len(table.x), 97)
    assert np.max(np.abs(sg.inv_cdf_lookup(table, table.cdf[idx]) - table.x[idx])) <= 1e-2


def test_build_inverse_cdf_zero_mass_rejected():
    with pytest.raises(ValueError, match="zero mass"):
        sg.build_inverse_cdf(lambda x: np.zeros_like(x), 0.0, 1.0, 1e-3, use_cache=False)


def test_table_cache_reuses_instance():
    table_a = sg.build_inverse_cdf(sg.pdf_left_skew, -1.0, 7.0, 1e-2)
    table_b = sg.build_inverse_cdf(sg.pdf_left_skew, -1.0, 7.0, 1e-2)
    assert table_a is table_b


def test_tables_compare_and_hash_by_identity():
    # generated __eq__ compared the arrays and raised; __hash__ refused them
    a, b = (sg.build_inverse_cdf(sg.pdf_left_skew, -1.0, 7.0, 0.01, use_cache=False)
            for _ in range(2))
    assert np.array_equal(a.cdf, b.cdf)
    assert a == a and a != b
    assert len({a, b, a}) == 2
    cached = sg.build_inverse_cdf(sg.pdf_left_skew, -1.0, 7.0, 0.01)
    assert sg.build_inverse_cdf(sg.pdf_left_skew, -1.0, 7.0, 0.01) is cached
    assert cached != a


def test_builtin_pdf_values():
    f1, f2, f3 = sg.builtin_pdfs()
    phi0 = 1.0 / math.sqrt(2 * math.pi)
    assert f1(np.array([-4.0]))[0] == pytest.approx(10 * 0.5 * phi0)  # 1.99471
    assert f1(np.array([-4.0]))[0] == pytest.approx(1.99471, abs=1e-5)
    # the bump term dominates at 8.5
    assert f1(np.array([8.5]))[0] == pytest.approx(math.exp(0.5) / 10.0, rel=1e-6)
    assert f1(np.array([9.7]))[0] == pytest.approx(0.0, abs=1e-9)  # bump ends at 9.5
    grid = np.linspace(-1.0, 7.0, 2000)
    assert np.all(f3(grid) >= 0.0)
    # two-regime density is continuous-by-parts and nonnegative on its bounds
    assert np.all(f2(np.linspace(-30, 30, 2000)) >= 0.0)


def test_generate_dataset_deterministic():
    cfg = sg.default_config(n=50, t=5, seed=7)
    a = sg.generate_dataset(cfg)
    b = sg.generate_dataset(sg.default_config(n=50, t=5, seed=7))
    assert np.array_equal(a.batch.values, b.batch.values)
    assert np.array_equal(a.labels, b.labels)
    c = sg.generate_dataset(sg.default_config(n=50, t=5, seed=8))
    assert not np.array_equal(a.batch.values, c.batch.values)


def test_generate_dataset_balance_small():
    cfg = sg.default_config(n=2000, t=10, seed=5)
    ds = sg.generate_dataset(cfg)
    assert abs(ds.labels.mean() - 0.5) < 0.05


def test_generate_dataset_literal_threshold_supported():
    cfg = sg.default_config(n=500, t=10, seed=5, response_threshold=0.5)
    ds = sg.generate_dataset(cfg)
    assert set(np.unique(ds.labels)) <= {0, 1}


def test_generated_marginals_match_density():
    # chi-square GoF on the first timestep (iid across series), 20 bins, 1% level
    cfg = sg.default_config(n=4000, t=5, seed=6)
    ds = sg.generate_dataset(cfg)
    for j in range(3):
        a, b = cfg.bounds[j]
        table = sg.build_inverse_cdf(cfg.pdfs[j], a, b, cfg.delta[j])
        samples = ds.batch.values[:, j, 0]
        n_bins = 20
        qs = np.linspace(0, 1, n_bins + 1)[1:-1]
        edge_idx = np.searchsorted(table.cdf, qs, side="left")
        edges_x = (table.x[edge_idx] + table.x[np.minimum(edge_idx + 1, len(table.x) - 1)]) / 2
        cum = np.concatenate([[0.0], table.cdf[edge_idx], [1.0]])
        expected = np.diff(cum) * len(samples)
        counts, _ = np.histogram(samples, bins=np.concatenate([[a - 1], edges_x, [b + 1]]))
        stat = ((counts - expected) ** 2 / expected).sum()
        assert stat < chi2.ppf(0.99, n_bins - 1), f"feature {j}: chi2={stat:.1f}"


def test_latent_signal_supports_linear_model():
    cfg = sg.default_config(n=3000, t=10, seed=9)
    ds, u = sg.generate_dataset(cfg, return_latent=True)
    x = u.reshape(ds.n, -1)
    y = ds.labels.astype(float)
    w = np.zeros(x.shape[1])
    b = 0.0
    xtr, ytr = x[:2400], y[:2400]
    for _ in range(400):
        p = 1.0 / (1.0 + np.exp(-(xtr @ w + b)))
        w -= 0.5 * xtr.T @ (p - ytr) / len(ytr)
        b -= 0.5 * float((p - ytr).mean())
    pva = 1.0 / (1.0 + np.exp(-(x[2400:] @ w + b)))
    accuracy = ((pva > 0.5) == y[2400:]).mean()
    assert accuracy > 0.8


# ---------------------------------------------------------------------------
# The generator against the textbook forms of each step: np.triu plus the
# transpose, np.allclose, (out + out.T) / 2, the np.eye jitter, a full
# searchsorted and a batch that copies its values.  Every array must agree
# bit for bit, signed zeros included.


def reference_build_covariance(config, rng):
    d, t = config.d, config.t
    size = d * t
    sigma = rng.normal(0.0, config.sigma_cor, size=(size, size))
    sigma = np.triu(sigma, 1)
    sigma = sigma + sigma.T
    for j in range(d):
        block = np.empty((t, t))
        for lag in range(t):
            cov = sg.ma_autocovariance(config.theta[j], config.sigma_eps[j], lag)
            for a in range(t - lag):
                block[a, a + lag] = cov
                block[a + lag, a] = cov
        sigma[j * t:(j + 1) * t, j * t:(j + 1) * t] = block
    return sigma


def reference_nearest_psd(sigma):
    sigma = np.asarray(sigma, dtype=np.float64)
    if not np.allclose(sigma, sigma.T, rtol=0.0, atol=1e-10):
        raise ValueError("nearest_psd expects a symmetric matrix")
    w, v = np.linalg.eigh(sigma)
    w = np.maximum(w, 0.0)
    out = (v * w) @ v.T
    return (out + out.T) / 2.0


def reference_sample_correlated_uniforms(sigma_psd, n_samples, rng):
    size = sigma_psd.shape[0]
    diag = np.diag(sigma_psd).copy()
    degenerate = diag <= sg.DEGENERATE_VAR
    chol = np.linalg.cholesky(sigma_psd + sg.PSD_JITTER * np.eye(size))
    normals = rng.standard_normal((n_samples, size)) @ chol.T
    sd = np.sqrt(np.where(degenerate, 1.0, diag))
    uniforms = ndtr(normals / sd[None, :])
    uniforms[:, degenerate] = 0.5
    return uniforms


def reference_inv_cdf_lookup(table, u):
    u = np.asarray(u, dtype=np.float64)
    return table.x[np.minimum(np.searchsorted(table.cdf, u, side="left"), len(table.x) - 1)]


def reference_generate_dataset(config):
    rng = np.random.Generator(np.random.PCG64(config.seed))
    d, t, n = config.d, config.t, config.n
    beta = rng.normal(1.0 / (d * t), config.sigma_beta, size=(d, t))
    sigma = reference_build_covariance(config, rng)
    sigma_psd = reference_nearest_psd(sigma)
    uniforms = reference_sample_correlated_uniforms(sigma_psd, n, rng)
    zeta = rng.normal(0.0, config.sigma_zeta, size=n)
    u_mat = uniforms.reshape(n, d, t)
    score = np.einsum("ndt,dt->n", u_mat, beta) + zeta
    if config.response_threshold == "adaptive":
        threshold = float(beta.sum()) / 2.0
    else:
        threshold = float(config.response_threshold)
    labels = (score > threshold).astype(np.int64)
    values = np.empty((n, d, t))
    for j in range(d):
        a, b = config.bounds[j]
        table = sg.build_inverse_cdf(config.pdfs[j], a, b, config.delta[j])
        values[:, j, :] = reference_inv_cdf_lookup(table, u_mat[:, j, :])
    batch = TimeSeriesBatch(values)
    assert batch.values is not values  # a writable array is copied
    return batch.values, labels, u_mat


def assert_same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


def wide_config(d, t, n, seed):
    """``d`` features cycling the three built-in densities and their MA rows."""
    cycle = [k % 3 for k in range(d)]
    pdfs = sg.builtin_pdfs()
    return sg.SynthConfig(pdfs=[pdfs[k] for k in cycle],
                          bounds=[sg.BUILTIN_BOUNDS[k] for k in cycle],
                          theta=sg.BUILTIN_THETA[cycle], n=n, t=t, seed=seed)


GENERATOR_CONFIGS = {
    "d1_t1": lambda seed: sg.SynthConfig(pdfs=[sg.pdf_left_skew], bounds=[(-1.0, 7.0)],
                                         theta=np.array([[-1.0, 0.5]]), n=10, t=1, seed=seed),
    "desk": lambda seed: sg.default_config(seed=seed),
    "d40_t13": lambda seed: wide_config(40, 13, 60, seed),
}


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("name", sorted(GENERATOR_CONFIGS))
def test_generate_dataset_matches_reference_bits(name, seed):
    values, labels, u_mat = reference_generate_dataset(GENERATOR_CONFIGS[name](seed))
    ds = sg.generate_dataset(GENERATOR_CONFIGS[name](seed))
    assert_same_bits(ds.batch.values, values)
    assert_same_bits(ds.labels, labels)
    ds, latent = sg.generate_dataset(GENERATOR_CONFIGS[name](seed), return_latent=True)
    assert_same_bits(ds.batch.values, values)
    assert_same_bits(ds.labels, labels)
    assert_same_bits(latent, u_mat)
    assert not ds.batch.values.flags.writeable


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("name", sorted(GENERATOR_CONFIGS))
def test_build_covariance_matches_reference_bits(name, seed):
    config = GENERATOR_CONFIGS[name](seed)
    assert_same_bits(sg.build_covariance(config, RngState(seed).generator()),
                     reference_build_covariance(config, RngState(seed).generator()))


class SignedZeroRng:
    """A generator whose normal draws have every fifth value set to -0.0."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)

    def normal(self, loc, scale, size):
        out = self.rng.normal(loc, scale, size)
        out.flat[::5] = -0.0
        return out


@pytest.mark.parametrize("d, t", [(1, 3), (3, 10), (1, 700), (2, 350), (40, 13)])
def test_build_covariance_turns_negative_zero_draws_as_reference(d, t):
    config = wide_config(d, t, 5, 0)
    got = sg.build_covariance(config, SignedZeroRng(4))
    want = reference_build_covariance(config, SignedZeroRng(4))
    assert_same_bits(got, want)


def _psd_inputs():
    rng = np.random.default_rng(11)
    cases = {}
    for size in (1, 5, 256, 300, 600):
        a = rng.normal(size=(size, size))
        cases[f"random_{size}"] = a + a.T
    signed = np.full((4, 4), -0.0)
    np.fill_diagonal(signed, [1.0, -1.0, 0.0, -0.0])
    cases["signed_zeros"] = signed
    cases["negative_zeros_300"] = np.full((300, 300), -0.0)
    low = rng.normal(size=(300, 4))
    high = rng.normal(size=(300, 3))
    cases["indefinite_low_rank_300"] = low @ low.T - high @ high.T
    return cases


PSD_INPUTS = _psd_inputs()


@pytest.mark.parametrize("name", sorted(PSD_INPUTS))
def test_nearest_psd_matches_reference_bits(name):
    sigma = PSD_INPUTS[name]
    kept = sigma.copy()
    assert_same_bits(sg.nearest_psd(sigma), reference_nearest_psd(sigma))
    assert_same_bits(sigma, kept)  # the input is not written to


# one entry moved by about the tolerance, above or below the diagonal and in
# the first or a later strip; or set to NaN or inf
SYMMETRY_EDITS = [(i, j, "add", delta)
                  for i, j in ((3, 500), (500, 3), (280, 590), (590, 280), (599, 598))
                  for delta in (0.5e-10, 1e-10, 1.5e-10, 1e-3)] + [
    (450, 450, "set", np.nan), (10, 400, "set", np.nan), (400, 10, "set", np.inf),
    (10, 400, "set_pair", np.nan)]


@pytest.mark.parametrize("i, j, edit, value", SYMMETRY_EDITS)
def test_nearest_psd_symmetry_check_is_allclose(i, j, edit, value):
    sigma = PSD_INPUTS["random_600"].copy()
    if edit == "add":
        sigma[i, j] += value
    else:
        sigma[i, j] = value
        if edit == "set_pair":
            sigma[j, i] = value
    if np.allclose(sigma, sigma.T, rtol=0.0, atol=1e-10):
        assert_same_bits(sg.nearest_psd(sigma), reference_nearest_psd(sigma))
    else:
        with pytest.raises(ValueError, match="nearest_psd expects a symmetric matrix"):
            sg.nearest_psd(sigma)


@functools.cache
def _uniform_inputs():
    signed_eye = np.full((6, 6), -0.0)
    np.fill_diagonal(signed_eye, 1.0)
    degenerate = np.full((3, 3), -0.0)
    np.fill_diagonal(degenerate, [1.0, 0.0, -0.0])
    low = np.random.default_rng(12).normal(size=(5, 5)).astype(np.float32)
    return {"projected_300": reference_nearest_psd(PSD_INPUTS["random_300"]),
            "projected_600": reference_nearest_psd(PSD_INPUTS["random_600"]),
            "signed_identity": signed_eye, "degenerate": degenerate,
            "float32": low @ low.T + np.eye(5, dtype=np.float32), "int": np.eye(4, dtype=int)}


@pytest.mark.parametrize("seed", [0, 5])
@pytest.mark.parametrize("name", ["projected_300", "projected_600", "signed_identity",
                                  "degenerate", "float32", "int"])
def test_sample_correlated_uniforms_matches_reference_bits(name, seed):
    sigma_psd = _uniform_inputs()[name]
    kept = sigma_psd.copy()
    got = sg.sample_correlated_uniforms(sigma_psd, 40, RngState(seed).generator())
    want = reference_sample_correlated_uniforms(sigma_psd, 40, RngState(seed).generator())
    assert_same_bits(got, want)
    assert_same_bits(sigma_psd, kept)


def test_sample_correlated_uniforms_names_the_failed_cholesky():
    with pytest.raises(np.linalg.LinAlgError, match="min eigenvalue -1.000e\\+00"):
        sg.sample_correlated_uniforms(np.diag([1.0, -1.0]), 5, RngState(0).generator())


def test_generate_dataset_peak_memory_is_a_few_covariances():
    # dT = 520 and n = dT / 2: the (dT x dT) matrices dominate.  The textbook
    # forms hold about 4.5 of them at the peak (the raw and projected
    # covariances, the Cholesky factor and two more during sampling)
    config = wide_config(40, 13, 260, 0)
    sg.generate_dataset(config)  # integrate the tables outside the trace
    tracemalloc.start()
    try:
        sg.generate_dataset(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    matrices = peak / (8 * 520 ** 2)
    assert matrices < 4.25
    if sys.version_info >= (3, 11):
        # a Python callee owns its arguments, so an argument the caller did
        # not name is freed when the callee drops it
        assert matrices < 3.5


# ---------------------------------------------------------------------------
# guide-table lookups against a full searchsorted


@st.composite
def cdf_tables(draw):
    kind = draw(st.sampled_from(["density", "density", "density", "scaled", "one_step",
                                 "edge_below", "edge_above", "nan", "nan_tail"]))
    if kind == "one_step":
        k = draw(st.integers(2, 40))
        step = draw(st.integers(0, k - 1))
        cdf = np.where(np.arange(k) >= step, 1.0, 0.0)
    elif kind in ("edge_below", "edge_above"):
        # each point one ulp off its bucket edge k/K
        k = draw(st.integers(2, 60))
        cdf = np.nextafter(np.arange(k) / k, -np.inf if kind == "edge_below" else np.inf)
        cdf[0] = 0.0
    elif kind == "nan":
        cdf = np.full(draw(st.integers(1, 20)), np.nan)
    else:
        # non-negative densities, with zero stretches, integrated as the
        # generator does
        piece = st.one_of(st.just([0.0] * 7), st.lists(
            st.one_of(st.just(0.0), st.floats(1e-300, 1e3)), min_size=1, max_size=9))
        density = np.array(sum(draw(st.lists(piece, min_size=1, max_size=8)), [0.0]))
        if len(density) < 2 or density.sum() <= 0.0:
            density = np.array([0.0, 1.0, 0.0])
        cum = np.concatenate([[0.0], np.cumsum((density[1:] + density[:-1]) / 2.0)])
        cdf = cum / cum[-1]
        if kind == "scaled":  # a table made directly need not end at 1
            cdf *= draw(st.floats(0.01, 3.0))
        if kind == "nan_tail":
            cdf[draw(st.integers(1, len(cdf) - 1)):] = np.nan
    x = np.cumsum(np.arange(len(cdf)) + 1.0) - 7.5
    return sg.InverseCdfTable(x=x, cdf=cdf)


@st.composite
def table_and_values(draw):
    table = draw(cdf_tables())
    k = len(table.cdf)
    finite = table.cdf[np.isfinite(table.cdf)]
    near = [np.nextafter(c, np.inf) for c in finite] + [np.nextafter(c, -np.inf) for c in finite]
    edges = np.arange(k) / k
    near_edges = list(edges) + [np.nextafter(e, np.inf) for e in edges] \
        + [np.nextafter(e, -np.inf) for e in edges]
    special = [0.0, -0.0, 1.0, np.nextafter(1.0, 2.0), np.nextafter(1.0, 0.0), 5e-324,
               2.2250738585072014e-308, 2.225073858507201e-308, -5e-324, np.nan, np.inf,
               -np.inf, 1e308, -1e308]
    value = st.one_of(
        st.sampled_from(list(finite) + near) if len(finite) else st.just(0.5),
        st.sampled_from(near_edges),
        st.sampled_from(special),
        st.floats(0.0, 1.0),
        st.floats(-1e300, -1e-300),
        st.floats(1.0, 1e300, exclude_min=True),
    )
    shape = draw(st.sampled_from(["scalar", "0-d", "3-d"]))
    if shape == "3-d":
        dims = draw(st.tuples(st.integers(1, 3), st.integers(1, 4), st.integers(1, 5)))
        u = np.array(draw(st.lists(value, min_size=math.prod(dims),
                                   max_size=math.prod(dims)))).reshape(dims)
    else:
        u = draw(value)
        u = float(u) if shape == "scalar" else np.asarray(u)
    return table, u


@settings(max_examples=600, deadline=None, derandomize=True)
@given(table_and_values())
def test_inv_cdf_lookup_equals_searchsorted(case):
    table, u = case
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = sg.inv_cdf_lookup(table, u)
    want = reference_inv_cdf_lookup(table, u)
    assert type(got) is type(want) and np.shape(got) == np.shape(want)
    assert np.array_equal(got, want)


def test_guide_table_is_built_for_a_table_made_directly():
    cdf = np.array([0.0, 0.0, 0.25, 0.25, 0.9, 1.0])
    table = sg.InverseCdfTable(x=np.arange(6.0), cdf=cdf)
    assert table.guide.tolist() == [0, 2, 4, 4, 4, 4]
    u = np.linspace(-0.2, 1.2, 57)
    assert np.array_equal(sg.inv_cdf_lookup(table, u), reference_inv_cdf_lookup(table, u))


def test_guide_answers_most_lookups_without_a_search(monkeypatch):
    table = sg.build_inverse_cdf(sg.pdf_two_regime, -30.0, 30.0, 0.06, use_cache=False)
    u = np.random.default_rng(0).random(20_000)
    searched = []
    searchsorted = np.searchsorted

    def counting(a, v, *args, **kwargs):
        searched.append(np.size(v))
        return searchsorted(a, v, *args, **kwargs)

    monkeypatch.setattr(np, "searchsorted", counting)
    got = sg.inv_cdf_lookup(table, u)
    monkeypatch.undo()
    assert np.array_equal(got, reference_inv_cdf_lookup(table, u))
    assert sum(searched) < 0.1 * u.size


@pytest.mark.parametrize("direction", [-np.inf, np.inf])
def test_inv_cdf_lookup_with_points_next_to_bucket_edges(direction):
    # rounding in floor(u*K) can pick the bucket past u; the answer must still
    # be the searchsorted one
    for k in range(2, 120):
        cdf = np.arange(k) / k
        for ulps in range(1, 4):
            cdf = np.nextafter(cdf, direction)
            cdf[0] = 0.0
            table = sg.InverseCdfTable(x=np.arange(float(k)), cdf=cdf)
            u = np.concatenate([cdf, np.nextafter(cdf, 2.0), np.nextafter(cdf, -1.0),
                                np.arange(k) / k])
            assert np.array_equal(sg.inv_cdf_lookup(table, u), reference_inv_cdf_lookup(table, u))
