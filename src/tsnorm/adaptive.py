"""Adaptive input-normalization layers with analytic backward passes.

Two layers live here:

* EDAIN: a four-stage elementwise stack (smoothed winsorization, shift,
  scale, power transform) with one learnable parameter vector per feature
  and a global-aware or local-aware mode.  Global-aware keeps the map
  strictly increasing per feature; local-aware modulates the shift/scale by
  per-series statistics and gives up order preservation.
* DAIN: the per-series shift/scale/gate baseline with learnable d x d mixing
  matrices.

Backward passes are exact chain-rule derivatives, checked against central
finite differences in the test suite.  Each parameter carries a learning
rate group tag so the optimizer can apply per-sublayer corrections.

The stage arithmetic exists once, on ndarrays: ``winsorize``, ``shift_scale``
and ``power`` and their ``*_grads`` (per-element gradients, which EDAIN sums
and ``flow_kl``, EDAIN-KL, first offsets by its log-det gradients).

``EdainLayer`` and ``DainLayer`` subclass ``neural.IdentityPreproc``: their
``parameters()`` is the one list of trained arrays, and the inherited
snapshot/restore, ``to_json_dict`` and the ``neural.load_arrays`` loader all
go through it (EDAIN adds only its running mean).  A checkpoint entry that is
missing, non-numeric, misshapen or non-finite is a ``ValueError`` naming it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import yeojohnson as yj
from .data import TimeSeriesBatch
from .neural import IdentityPreproc, _sigmoid, load_arrays
from .static_norm import fit_zscore

GLOBAL_AWARE = "global_aware"
LOCAL_AWARE = "local_aware"

ALL_SUBLAYERS = ("om", "shift", "scale", "power")

BETA_MIN = 1.0
SCALE_FLOOR = 1e-6
SIGMA_FLOOR = 1e-6

# learning-rate group per parameter name
EDAIN_GROUPS = {"alpha": "outlier", "beta": "outlier", "m": "shift", "s": "scale", "lam": "power"}


@dataclass
class EdainParams:
    """Learnable preprocessing parameters, one entry per feature."""

    alpha: np.ndarray
    beta: np.ndarray
    m: np.ndarray
    s: np.ndarray
    lam: np.ndarray
    mode: str = GLOBAL_AWARE

    def __post_init__(self):
        if self.mode not in (GLOBAL_AWARE, LOCAL_AWARE):
            raise ValueError(f"unknown mode {self.mode!r}")
        for name in ("alpha", "beta", "m", "s", "lam"):
            setattr(self, name, np.asarray(getattr(self, name), dtype=np.float64).copy())

    @property
    def d(self) -> int:
        return len(self.alpha)


def init_edain_params(d: int, mode: str = GLOBAL_AWARE) -> EdainParams:
    """Identity start: no winsorization, no shift, unit scale, unit exponent."""
    return EdainParams(
        alpha=np.zeros(d), beta=np.full(d, 3.0), m=np.zeros(d),
        s=np.ones(d), lam=np.ones(d), mode=mode,
    )


def project_edain(params: EdainParams) -> None:
    """Clamp onto the feasible set after an optimizer step."""
    np.clip(params.alpha, 0.0, 1.0, out=params.alpha)
    np.maximum(params.beta, BETA_MIN, out=params.beta)
    np.maximum(params.s, SCALE_FLOOR, out=params.s)


@dataclass(frozen=True)
class RunningMean:
    """Cumulative moving average of the per-feature mean, one update per series."""

    mu_hat: np.ndarray
    count: int = 0

    @classmethod
    def zeros(cls, d: int) -> "RunningMean":
        return cls(mu_hat=np.zeros(d), count=0)


def update_running_mean(state: RunningMean, batch: TimeSeriesBatch) -> RunningMean:
    """Fold a batch into the stream mean: mu' = (nT mu + sum_x) / ((n+N) T).

    Applying the single-series update once per series in order gives exactly
    this closed form, so after a full epoch mu_hat equals the pooled mean.
    """
    if batch.d != len(state.mu_hat):
        raise ValueError("feature dimension mismatch in running-mean update")
    n, t = state.count, batch.t
    total = n * t * state.mu_hat + batch.values.sum(axis=(0, 2))
    new_count = n + batch.n
    return RunningMean(mu_hat=total / (new_count * t), count=new_count)


@dataclass(frozen=True)
class LocalSummary:
    """Per-series reductions along time: means (also the h1 centers) and
    population stds."""

    mu_x: np.ndarray        # (N, d)
    sigma_x: np.ndarray     # (N, d)


def local_summary(x: TimeSeriesBatch) -> LocalSummary:
    mu = x.values.mean(axis=2)
    sigma = np.sqrt(((x.values - mu[:, :, None]) ** 2).mean(axis=2))
    return LocalSummary(mu_x=mu, sigma_x=sigma)


# ---------------------------------------------------------------------------
# outlier mitigation sublayer: h1 = alpha*(beta*tanh((x-mu)/beta)+mu) + (1-alpha)*x


def winsorize(x: np.ndarray, mu, beta) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """w = beta*tanh(u) + mu with u = (x - mu)/beta; returns (w, u, tanh(u))."""
    u = (x - mu) / beta
    th = np.tanh(u)
    return beta * th + mu, u, th


def winsorize_grads(g: np.ndarray, u: np.ndarray, th: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(dw/dx, g*dw/dbeta) per element: sech^2(u) and g*(tanh(u) - u*sech^2(u))."""
    sech2 = th * th
    np.subtract(1.0, sech2, out=sech2)
    g_beta = u * sech2
    np.subtract(th, g_beta, out=g_beta)
    g_beta *= g
    return sech2, g_beta


def outlier_forward(x: TimeSeriesBatch, params: EdainParams, mean_source) -> tuple[TimeSeriesBatch, dict]:
    """Smoothed winsorization blended with the identity by ratio alpha.

    ``mean_source`` is a RunningMean in global mode (its mu_hat is treated as
    a constant) or a LocalSummary in local mode (gradients flow through the
    per-series mean).
    """
    local = isinstance(mean_source, LocalSummary)
    if local:
        mu = mean_source.mu_x[:, :, None]
    else:
        mu = mean_source.mu_hat[None, :, None]
    beta = params.beta[None, :, None]
    alpha = params.alpha[None, :, None]
    out, u, th = winsorize(x.values, mu, beta)
    out *= alpha  # blended in place; the backward pass recomputes w
    out += (1.0 - alpha) * x.values
    cache = {"x": x.values, "mu": mu, "u": u, "th": th,
             "alpha": params.alpha, "beta": params.beta, "local": local}
    return TimeSeriesBatch(out), cache


def outlier_backward(grad_out: np.ndarray, cache: dict) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Returns (d/dx, d/dalpha, d/dbeta) for the outlier sublayer."""
    x, mu, u, th = cache["x"], cache["mu"], cache["u"], cache["th"]
    alpha = cache["alpha"][None, :, None]
    beta = cache["beta"][None, :, None]
    g_alpha = grad_out * alpha  # shared by the mu path and d/dbeta
    sech2, term = winsorize_grads(g_alpha, u, th)
    grad_beta = term.sum(axis=(0, 2))

    grad_x = alpha * sech2
    grad_x += 1.0 - alpha
    grad_x *= grad_out
    if cache["local"]:
        # mu is the per-series time mean, so each timestep also receives the
        # averaged gradient routed through mu: dh1/dmu = alpha*(1 - sech2)
        t = x.shape[2]
        grad_x += (g_alpha * (1.0 - sech2)).sum(axis=2, keepdims=True) / t
    np.multiply(beta, th, out=term)  # w - x
    term += mu
    term -= x
    term *= grad_out
    grad_alpha = term.sum(axis=(0, 2))
    return grad_x, grad_alpha, grad_beta


# ---------------------------------------------------------------------------
# shift and scale sublayers (handled jointly; either half can be disabled)


def shift_scale(x: np.ndarray, shift, denom) -> np.ndarray:
    return (x - shift) / denom


def shift_scale_grads(g: np.ndarray, out: np.ndarray, denom) -> tuple[np.ndarray, np.ndarray]:
    """(d/dx, g*out) per element.  d/ds is -(sum of g*out)/s, and with a
    per-feature shift m, d/dm is -(sum of d/dx)."""
    return g / denom, g * out


def shift_scale_forward(
    x: TimeSeriesBatch,
    params: EdainParams,
    summary: Optional[LocalSummary] = None,
    use_shift: bool = True,
    use_scale: bool = True,
) -> tuple[TimeSeriesBatch, dict]:
    """Global: (x - m)/s.  Local: (x - m*mu_x)/(s*sigma_x), sigma floored.

    In local mode the summary defaults to the per-series statistics of ``x``
    itself, which is the input the sublayer actually sees in the full stack.
    """
    local = params.mode == LOCAL_AWARE
    cache = {"x": x.values, "local": local, "m": params.m, "s": params.s,
             "use_shift": use_shift, "use_scale": use_scale}
    if local:
        if summary is None:
            summary = local_summary(x)
        sig = np.maximum(summary.sigma_x, SIGMA_FLOOR)
        shift = params.m[None, :] * summary.mu_x if use_shift else np.zeros_like(summary.mu_x)
        denom = params.s[None, :] * sig if use_scale else np.ones_like(sig)
        cache.update(mu_x=summary.mu_x, sig_raw=summary.sigma_x, sig=sig, denom=denom)
        shift, denom = shift[:, :, None], denom[:, :, None]
    else:
        shift = params.m[None, :, None] if use_shift else 0.0
        cache["denom"] = denom = params.s[None, :, None] if use_scale else 1.0
    cache["out"] = out = shift_scale(x.values, shift, denom)
    return TimeSeriesBatch(out), cache


def shift_scale_backward(grad_out: np.ndarray, cache: dict) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Returns (d/dx, d/dm, d/ds)."""
    m, s, local = cache["m"], cache["s"], cache["local"]
    use_shift, use_scale = cache["use_shift"], cache["use_scale"]
    denom = cache["denom"][:, :, None] if local else cache["denom"]
    grad_x, g_out = shift_scale_grads(grad_out, cache["out"], denom)  # grad_x also reaches the shift
    grad_m, grad_s = np.zeros(len(m)), np.zeros(len(m))
    if use_scale:
        grad_s = -g_out.sum(axis=(0, 2)) / s
    if not local:
        if use_shift:
            grad_m = -grad_x.sum(axis=(0, 2))
        return grad_x, grad_m, grad_s

    mu_x, sig_raw, sig = cache["mu_x"], cache["sig_raw"], cache["sig"]
    x = cache["x"]
    t = x.shape[2]
    if use_shift:
        # shift term m*mu_x pulls in the time-mean of x
        sum_g = grad_x.sum(axis=2, keepdims=True)
        grad_m = (-sum_g[:, :, 0] * mu_x).sum(axis=0)
        grad_x -= (m[None, :, None] / t) * sum_g
    if use_scale:
        # sigma path: d sigma/dx_t = (x_t - mu_x)/(T sigma); frozen where floored
        mask = (sig_raw > SIGMA_FLOOR).astype(np.float64)
        sum_gy = g_out.sum(axis=2)  # (N, d)
        coeff = -(mask * sum_gy / sig)[:, :, None] / t
        term = x - mu_x[:, :, None]
        term *= coeff
        term /= sig[:, :, None]
        grad_x += term
    return grad_x, grad_m, grad_s


# ---------------------------------------------------------------------------
# power transform sublayer


def power(x: np.ndarray, lam) -> tuple[np.ndarray, yj.PowerPoint]:
    """(z, point): the prepared point lets the backward pass re-use its branch
    select, log1p|x| and exponent instead of rebuilding them."""
    point = yj.PowerPoint(x, lam)
    return point.forward(), point


def power_grads(g: np.ndarray, point: yj.PowerPoint) -> tuple[np.ndarray, np.ndarray]:
    """(d/dx, g*dz/dlam) per element at the forward pass's point."""
    return g * point.dx(), g * point.dlam()


def power_forward(x: TimeSeriesBatch, params: EdainParams) -> tuple[TimeSeriesBatch, dict]:
    z, point = power(x.values, params.lam[None, :, None])
    return TimeSeriesBatch(z), {"point": point}


def power_backward(grad_out: np.ndarray, cache: dict) -> tuple[np.ndarray, np.ndarray]:
    grad_x, g_lam = power_grads(grad_out, cache["point"])
    return grad_x, g_lam.sum(axis=(0, 2))


# ---------------------------------------------------------------------------
# full composition


def edain_forward(
    x: TimeSeriesBatch,
    params: EdainParams,
    state: Optional[RunningMean] = None,
    training: bool = False,
    enabled: tuple[str, ...] = ALL_SUBLAYERS,
) -> tuple[TimeSeriesBatch, dict, Optional[RunningMean]]:
    """Apply the enabled sublayers in order; returns (output, cache, state).

    In global mode with the outlier stage enabled and ``training`` set, the
    running mean is folded forward with the incoming batch before use, and
    the updated state is returned.  Local mode derives every summary from the
    sublayer's own input and needs no state.
    """
    for name in enabled:
        if name not in ALL_SUBLAYERS:
            raise ValueError(f"unknown sublayer flag {name!r}")
    caches: list[tuple[str, dict]] = []
    current = x
    new_state = state

    if "om" in enabled:
        if params.mode == GLOBAL_AWARE:
            if state is None:
                raise ValueError("global-aware mode needs a RunningMean state")
            if training:
                new_state = update_running_mean(state, current)
            current, c = outlier_forward(current, params, new_state)
        else:
            current, c = outlier_forward(current, params, local_summary(current))
        caches.append(("om", c))

    use_shift = "shift" in enabled
    use_scale = "scale" in enabled
    if use_shift or use_scale:
        current, c = shift_scale_forward(current, params, None, use_shift, use_scale)
        caches.append(("shift_scale", c))

    if "power" in enabled:
        current, c = power_forward(current, params)
        caches.append(("power", c))

    cache = {"stages": caches, "d": params.d}
    return current, cache, new_state


def edain_backward(grad_out: np.ndarray, cache: dict) -> tuple[dict, np.ndarray]:
    """Reverse the composition; returns ({alpha, beta, m, s, lam}, grad_input)."""
    d = cache["d"]
    grads = {"alpha": np.zeros(d), "beta": np.zeros(d), "m": np.zeros(d),
             "s": np.zeros(d), "lam": np.zeros(d)}
    g = grad_out
    for name, c in reversed(cache["stages"]):
        if name == "power":
            g, grads["lam"] = power_backward(g, c)
        elif name == "shift_scale":
            g, grads["m"], grads["s"] = shift_scale_backward(g, c)
        else:
            g, grads["alpha"], grads["beta"] = outlier_backward(g, c)
    return grads, g


# ---------------------------------------------------------------------------
# DAIN baseline


@dataclass
class DainParams:
    """Shift/scale/gate mixing matrices; identity-ish start (gate sigmoid(0)=0.5)."""

    w_a: np.ndarray
    w_b: np.ndarray
    w_c: np.ndarray
    bias: np.ndarray

    @classmethod
    def init(cls, d: int) -> "DainParams":
        return cls(w_a=np.eye(d), w_b=np.eye(d), w_c=np.zeros((d, d)), bias=np.zeros(d))

    @property
    def d(self) -> int:
        return len(self.bias)


def dain_forward(x: TimeSeriesBatch, params: DainParams) -> tuple[TimeSeriesBatch, dict]:
    """Per-series adaptive shift, rms scale (floored), and sigmoid gate."""
    if x.d != params.d:
        raise ValueError("feature dimension mismatch")
    v = x.values
    a = v.mean(axis=2)                       # (N, d)
    wa_a = a @ params.w_a.T
    y = v - wa_a[:, :, None]
    b = np.sqrt((y * y).mean(axis=2))
    b_f = np.maximum(b, SIGMA_FLOOR)
    wb_b = b_f @ params.w_b.T
    z = y / wb_b[:, :, None]
    c = z.mean(axis=2)
    gate = _sigmoid(c @ params.w_c.T + params.bias[None, :])
    out = z * gate[:, :, None]
    cache = {"x": v, "a": a, "y": y, "b": b, "b_f": b_f, "wb_b": wb_b,
             "z": z, "c": c, "gate": gate, "params": params}
    return TimeSeriesBatch(out), cache


def dain_backward(grad_out: np.ndarray, cache: dict) -> tuple[dict, np.ndarray]:
    """Full chain rule through the three summary statistics."""
    p: DainParams = cache["params"]
    y, z, gate = cache["y"], cache["z"], cache["gate"]
    b, b_f, wb_b = cache["b"], cache["b_f"], cache["wb_b"]
    a, c = cache["a"], cache["c"]
    t = y.shape[2]

    dgate = (grad_out * z).sum(axis=2)                  # (N, d)
    q = dgate * gate * (1.0 - gate)
    grad_bias = q.sum(axis=0)
    grad_w_c = np.einsum("ik,il->kl", q, c)
    dz = grad_out * gate[:, :, None] + ((q @ p.w_c) / t)[:, :, None]

    dB = -(dz * z).sum(axis=2) / wb_b                   # (N, d)
    grad_w_b = np.einsum("ik,il->kl", dB, b_f)
    db_f = dB @ p.w_b
    mask = (b > SIGMA_FLOOR).astype(np.float64)
    dv = np.where(mask > 0, db_f / (2.0 * b_f), 0.0)    # d/d(mean of y^2)
    dy = dz / wb_b[:, :, None] + (2.0 / t) * dv[:, :, None] * y

    r = -dy.sum(axis=2)                                 # (N, d), grad wrt w_a a
    grad_w_a = np.einsum("ik,il->kl", r, a)
    da = r @ p.w_a
    grad_x = dy + da[:, :, None] / t

    grads = {"w_a": grad_w_a, "w_b": grad_w_b, "w_c": grad_w_c, "bias": grad_bias}
    return grads, grad_x


# ---------------------------------------------------------------------------
# trainable-layer wrappers used by the training loop


class EdainLayer(IdentityPreproc):
    """Owns EDAIN parameters, the running-mean state, and the sublayer flags."""

    def __init__(self, d: int, mode: str = GLOBAL_AWARE,
                 enabled: tuple[str, ...] = ALL_SUBLAYERS,
                 warm_start: Optional[TimeSeriesBatch] = None):
        self.params = init_edain_params(d, mode)
        self.enabled = tuple(enabled)
        self.state = RunningMean.zeros(d)
        if warm_start is not None and mode == GLOBAL_AWARE:
            # start the shift/scale stage at the pooled statistics so the
            # layer begins as plain z-score normalization
            pooled = fit_zscore(warm_start)
            self.params.m = pooled.mean
            self.params.s = np.maximum(pooled.std, SCALE_FLOOR)

    def parameters(self) -> dict[str, np.ndarray]:
        return {name: getattr(self.params, name) for name in EDAIN_GROUPS}

    def groups(self) -> dict[str, str]:
        return dict(EDAIN_GROUPS)

    def forward(self, x: TimeSeriesBatch, training: bool) -> tuple[TimeSeriesBatch, dict]:
        out, cache, new_state = edain_forward(
            x, self.params, self.state, training=training, enabled=self.enabled
        )
        if new_state is not None:
            self.state = new_state
        return out, cache

    def backward(self, grad_out: np.ndarray, cache: dict) -> tuple[dict, np.ndarray]:
        return edain_backward(grad_out, cache)

    def projection(self) -> None:
        project_edain(self.params)

    def snapshot(self):
        return super().snapshot(), self.state

    def restore(self, snap) -> None:
        arrays, self.state = snap
        super().restore(arrays)

    def to_json_dict(self) -> dict:
        arrays = {**self.parameters(), "mu_hat": self.state.mu_hat}
        return {"kind": "edain", "mode": self.params.mode, "enabled": list(self.enabled),
                **{name: arr.tolist() for name, arr in arrays.items()},
                "count": self.state.count}

    @classmethod
    def from_json_dict(cls, doc: dict) -> "EdainLayer":
        """Checked load: a bad header field or parameter is a ValueError naming it."""
        for key in ("mode", "enabled", "count"):
            if key not in doc:
                raise ValueError(f"edain checkpoint is missing field {key!r}")
        mode, enabled, count = doc["mode"], doc["enabled"], doc["count"]
        if mode not in (GLOBAL_AWARE, LOCAL_AWARE):
            raise ValueError(f"edain field 'mode' must be {GLOBAL_AWARE!r} or {LOCAL_AWARE!r}, "
                             f"got {mode!r}")
        if not isinstance(enabled, list):
            raise ValueError(f"edain field 'enabled' must be a list of sublayers, got {enabled!r}")
        for flag in enabled:
            if flag not in ALL_SUBLAYERS:
                raise ValueError(f"edain field 'enabled' has unknown sublayer {flag!r}")
        if isinstance(count, bool) or not isinstance(count, int) or count < 0:
            raise ValueError(f"edain field 'count' must be a non-negative integer, got {count!r}")
        layer = cls(d=np.size(doc.get("alpha", ())), mode=mode, enabled=tuple(enabled))
        load_arrays({**layer.parameters(), "mu_hat": layer.state.mu_hat}, doc, "edain")
        layer.state = RunningMean(layer.state.mu_hat, count)
        return layer


class DainLayer(IdentityPreproc):
    """Trainable DAIN wrapper.

    The shift and scale matrices use their sublayer learning-rate groups;
    the gating parameters train at the base model rate.
    """

    GROUPS = {"w_a": "shift", "w_b": "scale", "w_c": "model", "bias": "model"}

    def __init__(self, d: int):
        self.params = DainParams.init(d)

    def parameters(self) -> dict[str, np.ndarray]:
        return {name: getattr(self.params, name) for name in self.GROUPS}

    def groups(self) -> dict[str, str]:
        return dict(self.GROUPS)

    def forward(self, x: TimeSeriesBatch, training: bool) -> tuple[TimeSeriesBatch, dict]:
        return dain_forward(x, self.params)

    def backward(self, grad_out: np.ndarray, cache: dict) -> tuple[dict, np.ndarray]:
        return dain_backward(grad_out, cache)

    def to_json_dict(self) -> dict:
        return {"kind": "dain", **{name: arr.tolist() for name, arr in self.parameters().items()}}

    @classmethod
    def from_json_dict(cls, doc: dict) -> "DainLayer":
        layer = cls(d=np.size(doc.get("bias", ())))
        load_arrays(layer.parameters(), doc, "dain")
        return layer
