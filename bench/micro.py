"""Per-layer microbenchmarks: median microseconds per call.

Shapes are the desk shape (N=128, d=3, T=10), one minibatch of the
acceptance-panel run, and the wide shape (N=1024, d=128, T=13), which mimics
the paper's credit-default data.  Inputs come from the benchmark seed.  The
static fits and CSV IO run at the desk shape only: KDIT at the wide shape
takes tens of seconds per call.
"""

from __future__ import annotations

import statistics
from pathlib import Path
from time import perf_counter as clock

import numpy as np

from tsnorm import adaptive, data, flow_kl, metrics, neural, static_norm, synthgen
from tsnorm import yeojohnson as yj

SHAPES = {"desk": (128, 3, 10), "wide": (1024, 128, 13)}
HIDDEN, HEAD = (32, 32), (64, 32)
BUDGET_S = 0.2       # per function, after one warm-up call
MIN_CALLS = 3


def per_call_us(fn) -> float:
    fn()
    samples = []
    deadline = clock() + BUDGET_S
    while len(samples) < MIN_CALLS or clock() < deadline:
        start = clock()
        fn()
        samples.append(clock() - start)
    return statistics.median(samples) * 1e6


def gru_forward_mflop(n: int, d: int, t: int) -> float:
    """Matmul MFLOP of one GRU-stack forward pass (computed, not measured)."""
    flop, prev = 0, d
    for h in HIDDEN:
        flop += t * 2 * n * 3 * h * (prev + h)  # input and recurrent gate matmuls
        prev = h
    for width in (*HEAD, 1):
        flop += 2 * n * prev * width
        prev = width
    return flop / 1e6


def _edain_cases(x, grad, rng, mode, tag):
    d = x.d
    params = adaptive.init_edain_params(d, mode)
    params.alpha = np.full(d, 0.5)
    params.beta = rng.uniform(2.0, 4.0, d)
    params.m = rng.normal(0.0, 0.5, d)
    params.s = rng.uniform(0.5, 2.0, d)
    params.lam = rng.uniform(0.6, 1.4, d)
    if mode == adaptive.GLOBAL_AWARE:
        source = adaptive.update_running_mean(adaptive.RunningMean.zeros(d), x)
    else:
        source = adaptive.local_summary(x)
    _, om_cache = adaptive.outlier_forward(x, params, source)
    _, ss_cache = adaptive.shift_scale_forward(x, params)
    cases = {
        f"outlier_forward.{tag}": lambda: adaptive.outlier_forward(x, params, source),
        f"outlier_backward.{tag}": lambda: adaptive.outlier_backward(grad, om_cache),
        f"shift_scale_forward.{tag}": lambda: adaptive.shift_scale_forward(x, params),
        f"shift_scale_backward.{tag}": lambda: adaptive.shift_scale_backward(grad, ss_cache),
    }
    if mode == adaptive.GLOBAL_AWARE:  # the power stage is the same in both modes
        _, pw_cache = adaptive.power_forward(x, params)
        cases["power_forward"] = lambda: adaptive.power_forward(x, params)
        cases["power_backward"] = lambda: adaptive.power_backward(grad, pw_cache)
        lam = params.lam[None, :, None]
        cases["yj_forward"] = lambda: yj.forward(x.values, lam)
        cases["yj_dx"] = lambda: yj.dx(x.values, lam)
        cases["yj_dlam"] = lambda: yj.dlam(x.values, lam)
    return cases


def _shape_cases(shape, rng) -> dict:
    n, d, t = shape
    raw = rng.normal(0.5, 2.0, size=shape)
    x = data.TimeSeriesBatch(raw)
    grad = rng.normal(size=shape)
    cases = {"TimeSeriesBatch": lambda: data.TimeSeriesBatch(raw)}
    cases.update(_edain_cases(x, grad, rng, adaptive.GLOBAL_AWARE, "global"))
    cases.update(_edain_cases(x, grad, rng, adaptive.LOCAL_AWARE, "local"))

    dain = adaptive.DainParams.init(d)
    _, dain_cache = adaptive.dain_forward(x, dain)
    cases["dain_forward"] = lambda: adaptive.dain_forward(x, dain)
    cases["dain_backward"] = lambda: adaptive.dain_backward(grad, dain_cache)

    kl = flow_kl.init_kl_params(d)
    kl.mu_hat = x.values.mean(axis=(0, 2))
    kl.s = x.values.std(axis=(0, 2))
    cases["kl_nll_grad"] = lambda: flow_kl.negative_log_likelihood(x, kl)
    z, _ = flow_kl.normalize_direction(x, kl)
    cases["kl_normalize"] = lambda: flow_kl.normalize_direction(x, kl)
    cases["kl_generate"] = lambda: flow_kl.generate_direction(z, kl)

    sym = rng.normal(size=(d * t, d * t))
    sym = sym + sym.T
    cases["nearest_psd"] = lambda: synthgen.nearest_psd(sym)

    model = neural.GruStack(d, HIDDEN, HEAD, n_classes=1, dropout=0.2,
                            rng=np.random.default_rng(rng.integers(2**32)))
    drop_rng = np.random.default_rng(rng.integers(2**32))
    probs, gru_cache = neural.gru_forward(x, model, training=True, rng=drop_rng)
    d_logits = probs - rng.integers(0, 2, n)
    cases["gru_forward"] = lambda: neural.gru_forward(x, model, training=True, rng=drop_rng)
    cases["gru_backward"] = lambda: neural.gru_backward(d_logits, gru_cache)
    labels = rng.integers(0, 2, n)
    cases["amex_metric"] = lambda: metrics.amex_metric(probs, labels)

    edain = adaptive.EdainLayer(d)
    params = {**model.parameters(), **edain.parameters()}
    groups = {**model.groups(), **edain.groups()}
    grads = {k: rng.normal(0.0, 1e-3, v.shape) for k, v in params.items()}
    opt = neural.Optimizer(neural.TrainConfig(), projection=edain.projection)
    cases["optimizer_step"] = lambda: opt.step(params, grads, groups)
    return cases


def _desk_only_cases(rng, workdir: Path) -> dict:
    shape = SHAPES["desk"]
    x = data.TimeSeriesBatch(rng.normal(0.5, 2.0, size=shape))
    dataset = data.LabeledDataset(x, rng.integers(0, 2, shape[0]))
    path = workdir / "micro.csv"
    data.save_csv(dataset, path)
    kdit = static_norm.KditConfig()
    return {
        "fit_kdit": lambda: static_norm.fit_kdit(x, kdit),
        "fit_yeo_johnson_static": lambda: static_norm.fit_yeo_johnson_static(x),
        "fit_cdf_inversion": lambda: static_norm.fit_cdf_inversion(x),
        "save_csv": lambda: data.save_csv(dataset, path),
        "load_csv": lambda: data.load_csv(path),
    }


def run(seed: int, workdir: Path) -> dict[str, tuple[float, str]]:
    """Metric name -> (value, unit) for every microbenchmark."""
    rng = np.random.default_rng(seed)
    out = {}
    for tag, shape in SHAPES.items():
        for name, fn in _shape_cases(shape, rng).items():
            out[f"us.{name}.{tag}"] = (per_call_us(fn), "us")
        out[f"computed.gru_forward_mflop.{tag}"] = (gru_forward_mflop(*shape), "MFLOP")
    for name, fn in _desk_only_cases(rng, workdir).items():
        out[f"us.{name}.desk"] = (per_call_us(fn), "us")
    return out
