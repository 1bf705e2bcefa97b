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
finite differences in the test suite.  Each layer class maps its arrays to
learning-rate groups in ``GROUPS`` (per-sublayer corrections) and to feasible
intervals in ``BOUNDS``, which ``neural.Trainable`` reads.

The stage arithmetic exists once, on ndarrays: ``winsorize``, ``shift_scale``
and ``power`` and their ``*_grads`` (per-element gradients, which EDAIN sums
and ``flow_kl``, EDAIN-KL, first offsets by its log-det gradients).  EDAIN
runs them only in ``edain_forward``/``edain_backward``, over row blocks; each
per-stage function (``outlier_forward`` and the rest) is that pass with one
stage enabled.

``EdainLayer`` and ``DainLayer`` subclass ``neural.IdentityPreproc``: their
``parameters()`` is the one list of trained arrays, and the inherited
snapshot/restore, ``to_json_dict`` and the ``data.load_arrays`` loader all
go through it (EDAIN adds only its running mean).  A checkpoint entry that is
missing, non-numeric, misshapen or non-finite is a ``ValueError`` naming it.
A layer's ``backward`` gives the parameter gradients only, since it is the
first stage of the network; ``edain_backward`` and ``dain_backward`` give the
input gradient too unless ``input_grad`` is off.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import yeojohnson as yj
from .data import NonFiniteBatchError, TimeSeriesBatch, load_arrays, load_fields
from .neural import IdentityPreproc, _sigmoid
from .static_norm import fit_zscore

GLOBAL_AWARE = "global_aware"
LOCAL_AWARE = "local_aware"

ALL_SUBLAYERS = ("om", "shift", "scale", "power")

BETA_MIN = 1.0
SCALE_FLOOR = 1e-6
SHIFT_SCALE_BOUNDS = {"beta": (BETA_MIN, np.inf), "s": (SCALE_FLOOR, np.inf)}  # EDAIN and EDAIN-KL
SIGMA_FLOOR = 1e-6

# Values per row block of the EDAIN chain: 512 KB a float64 temporary, so a
# block's few live temporaries stay in a 2 MB L2.  Forward plus backward of
# one (128, 128, 13) training step (2-vCPU Xeon, numpy 2.4.6, medians of 3
# runs): 15.5/21.4 ms global/local at 2**16, against 25.8/23.3 ms in one
# whole-batch pass; 2**15 and 2**17 were within noise of 2**16.
EDAIN_BLOCK_ELEMENTS = 2 ** 16

# learning-rate group per parameter name
EDAIN_GROUPS = {"alpha": "outlier", "beta": "outlier", "m": "shift", "s": "scale", "lam": "power"}
# the fields of an EDAIN checkpoint besides its arrays: the EdainLayer
# constructor's mode and enabled flags, and the RunningMean's count
EDAIN_HEADER = {"mode": str, "enabled": tuple[str, ...], "count": int}


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
            raise ValueError(f"edain mode must be {GLOBAL_AWARE!r} or {LOCAL_AWARE!r}, "
                             f"got {self.mode!r}")
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


@dataclass(frozen=True)
class RunningMean:
    """Cumulative moving average of the per-feature mean, one update per series."""

    mu_hat: np.ndarray
    count: int = 0

    def __post_init__(self):
        if self.count < 0:
            raise ValueError(f"edain count must be non-negative, got {self.count!r}")

    @classmethod
    def zeros(cls, d: int) -> "RunningMean":
        return cls(mu_hat=np.zeros(d), count=0)


def update_running_mean(state: RunningMean, batch: TimeSeriesBatch) -> RunningMean:
    """Fold a batch into the stream mean: mu' = (nT mu + sum_x) / ((n+N) T).

    Applying the single-series update once per series in order gives exactly
    this closed form, so after a full epoch mu_hat equals the pooled mean.
    """
    if batch.d != len(state.mu_hat):
        raise ValueError(f"batch has {batch.d} features, running mean has {len(state.mu_hat)}")
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


def local_summary(x) -> LocalSummary:
    """The summary of a batch or of an (N, d, T) array."""
    v = getattr(x, "values", x)
    mu = v.mean(axis=2)
    dev = v - mu[:, :, None]
    np.square(dev, out=dev)
    return LocalSummary(mu_x=mu, sigma_x=np.sqrt(dev.mean(axis=2)))


class _FeatureSums:
    """Per-feature sums over series and time of per-element gradient terms,
    added one row block at a time.

    Without a shape (one block) each term is reduced at once with
    ``sum(axis=(0, 2))``.  With the (N, d) shape of a batch run in several
    blocks, each block's ``sum(axis=2)`` goes into an (N, d) buffer that
    :meth:`total` reduces with one ``sum(axis=0)``.  For a C-contiguous term
    and d >= 2 numpy adds in the same order either way; for d = 1 it merges
    the two axes into one pairwise sum, so a d = 1 batch is one block.
    """

    def __init__(self, shape: Optional[tuple[int, int]] = None):
        self.shape = shape
        self.parts: dict[str, np.ndarray] = {}

    def _buffer(self, name: str) -> np.ndarray:
        if name not in self.parts:
            self.parts[name] = np.empty(self.shape)
        return self.parts[name]

    def add(self, name: str, rows: slice, term: np.ndarray) -> Optional[np.ndarray]:
        """Adds a (rows, d, T) term; returns its sums over time if it formed them."""
        if self.shape is None:
            self.parts[name] = term.sum(axis=(0, 2))
            return None
        return term.sum(axis=2, out=self._buffer(name)[rows])

    def add_rows(self, name: str, rows: slice, per_row: np.ndarray) -> None:
        """A term already summed over time: (rows, d)."""
        if self.shape is None:
            self.parts[name] = per_row.sum(axis=0)
        else:
            self._buffer(name)[rows] = per_row

    def total(self, name: str) -> np.ndarray:
        part = self.parts[name]
        return part if self.shape is None else part.sum(axis=0)

    def grads(self, d: int, s: np.ndarray, local: bool) -> dict[str, np.ndarray]:
        """The parameter gradients; a stage or half that added no term gets zeros."""
        grads = {name: np.zeros(d) for name in EDAIN_GROUPS}
        for name in ("alpha", "beta", "lam"):
            if name in self.parts:
                grads[name] = self.total(name)
        if "m" in self.parts:  # global d/dm is -(sum of d/dx); local terms carry their sign
            grads["m"] = self.total("m") if local else -self.total("m")
        if "s" in self.parts:
            grads["s"] = -self.total("s") / s
        return grads


def _check_finite(block: np.ndarray, stage: str) -> None:
    if not np.isfinite(block).all():
        raise NonFiniteBatchError(f"EDAIN {stage} stage output contains NaN or Inf entries")


# ---------------------------------------------------------------------------
# outlier mitigation sublayer: h1 = alpha*(beta*tanh((x-mu)/beta)+mu) + (1-alpha)*x


def winsorize(x: np.ndarray, mu, beta) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """w = beta*tanh(u) + mu with u = (x - mu)/beta; returns (w, u, tanh(u))."""
    u = x - mu
    u /= beta
    th = np.tanh(u)
    w = beta * th
    w += mu
    return w, u, th


def winsorize_grads(g: np.ndarray, u: np.ndarray, th: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(dw/dx, g*dw/dbeta) per element: sech^2(u) and g*(tanh(u) - u*sech^2(u))."""
    sech2 = th * th
    np.subtract(1.0, sech2, out=sech2)
    g_beta = u * sech2
    np.subtract(th, g_beta, out=g_beta)
    g_beta *= g
    return sech2, g_beta


def _outlier_block(x: np.ndarray, mu, alpha, beta, rest) -> tuple[np.ndarray, dict]:
    """h1 of one block; alpha, beta and rest = 1 - alpha broadcast against x."""
    out, u, th = winsorize(x, mu, beta)
    out *= alpha  # blended in place; the backward pass recomputes w
    out += rest * x
    return out, {"x": x, "mu": mu, "u": u, "th": th}


def _outlier_grads(g, c: dict, cache: dict, want_x: bool, sums: _FeatureSums,
                   rows: slice) -> Optional[np.ndarray]:
    """Adds the d/dalpha and d/dbeta terms of block cache ``c`` to ``sums``; d/dx if ``want_x``."""
    x, mu, u, th = c["x"], c["mu"], c["u"], c["th"]
    alpha, beta, rest = (cache["tiles"][name] for name in ("alpha", "beta", "rest"))
    g_alpha = g * alpha  # shared by the mu path and d/dbeta
    sech2, term = winsorize_grads(g_alpha, u, th)
    sums.add("beta", rows, term)
    grad_x = None
    if want_x:
        grad_x = alpha * sech2
        grad_x += rest
        grad_x *= g
        if cache["local"]:
            # mu is the per-series time mean, so each timestep also receives the
            # averaged gradient routed through mu: dh1/dmu = alpha*(1 - sech2)
            grad_x += (g_alpha * (1.0 - sech2)).sum(axis=2, keepdims=True) / x.shape[2]
    np.multiply(beta, th, out=term)  # w - x
    term += mu
    term -= x
    term *= g
    sums.add("alpha", rows, term)
    return grad_x


def outlier_forward(x: TimeSeriesBatch, params: EdainParams, mean_source) -> tuple[TimeSeriesBatch, dict]:
    """Smoothed winsorization blended with the identity by ratio alpha.

    The mode is ``params.mode``: in global mode ``mean_source`` is the
    RunningMean whose mu_hat is a constant; in local mode it is not read, and
    gradients flow through the series means of ``x``.  A source of the other
    mode's type is a ValueError."""
    local = params.mode == LOCAL_AWARE
    if isinstance(mean_source, RunningMean if local else LocalSummary):
        raise ValueError(f"a {type(mean_source).__name__} is not a {params.mode} mean source")
    return edain_forward(x, params, None if local else mean_source, enabled=("om",))[:2]


def outlier_backward(grad_out: np.ndarray, cache: dict) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Returns (d/dx, d/dalpha, d/dbeta) for the outlier sublayer."""
    grads, grad_x = edain_backward(grad_out, cache)
    return grad_x, grads["alpha"], grads["beta"]


# ---------------------------------------------------------------------------
# shift and scale sublayers (handled jointly; either half can be disabled)


def shift_scale(x: np.ndarray, shift, denom) -> np.ndarray:
    out = x - shift
    out /= denom
    return out


def shift_scale_grads(g: np.ndarray, out: Optional[np.ndarray], denom) -> tuple[np.ndarray, Optional[np.ndarray]]:
    """(d/dx, g*out) per element, g*out only when ``out`` is given.  d/ds is
    -(sum of g*out)/s, and with a per-feature shift m, d/dm is -(sum of d/dx)."""
    return g / denom, None if out is None else g * out


def _local_shift_scale(x: np.ndarray, m, s, use_shift: bool,
                       use_scale: bool) -> tuple[np.ndarray, dict]:
    """(x - m*mu_x)/(s*sigma_x) of one block, sigma floored, from the block's
    own per-series statistics."""
    summary = local_summary(x)
    sig = np.maximum(summary.sigma_x, SIGMA_FLOOR)
    shift = m[None, :] * summary.mu_x if use_shift else np.zeros_like(summary.mu_x)
    denom = s[None, :] * sig if use_scale else np.ones_like(sig)
    out = shift_scale(x, shift[:, :, None], denom[:, :, None])
    return out, {"x": x, "mu_x": summary.mu_x, "sig_raw": summary.sigma_x, "sig": sig,
                 "denom": denom, "out": out}


def _shift_scale_grads(g, c: dict, cache: dict, want_x: bool, sums: _FeatureSums, rows: slice,
                       sum_shift: bool) -> Optional[np.ndarray]:
    """Adds the d/dm (unless ``sum_shift`` is off) and d/ds terms of block cache
    ``c`` to ``sums``; d/dx if ``want_x``."""
    m, local, use_shift, use_scale = cache["m"], cache["local"], cache["use_shift"], cache["use_scale"]
    denom = c["denom"][:, :, None] if local else c["denom"]
    # grad_x also reaches the shift; g*out is read only by d/ds
    grad_x, g_out = shift_scale_grads(g, c["out"] if use_scale else None, denom)
    sum_gy = sums.add("s", rows, g_out) if use_scale else None
    if not local:
        if use_shift and sum_shift:
            sums.add("m", rows, grad_x)
        return grad_x

    mu_x, sig_raw, sig, x = c["mu_x"], c["sig_raw"], c["sig"], c["x"]
    t = x.shape[2]
    if use_shift:
        # shift term m*mu_x pulls in the time-mean of x
        sum_g = grad_x.sum(axis=2, keepdims=True)
        sums.add_rows("m", rows, -sum_g[:, :, 0] * mu_x)
        if want_x:
            grad_x -= (m[None, :, None] / t) * sum_g
    if not want_x:
        return None
    if use_scale:
        # sigma path: d sigma/dx_t = (x_t - mu_x)/(T sigma); frozen where floored
        mask = (sig_raw > SIGMA_FLOOR).astype(np.float64)
        if sum_gy is None:
            sum_gy = g_out.sum(axis=2)  # (N, d)
        coeff = -(mask * sum_gy / sig)[:, :, None] / t
        term = x - mu_x[:, :, None]
        term *= coeff
        term /= sig[:, :, None]
        grad_x += term
    return grad_x


def shift_scale_forward(x: TimeSeriesBatch, params: EdainParams, use_shift: bool = True,
                        use_scale: bool = True) -> tuple[TimeSeriesBatch, dict]:
    """Global: (x - m)/s.  Local: (x - m*mu_x)/(s*sigma_x), sigma floored, from
    the per-series statistics of ``x``, the input the sublayer sees in the stack."""
    enabled = ("shift",) * use_shift + ("scale",) * use_scale
    return edain_forward(x, params, enabled=enabled)[:2]


def shift_scale_backward(grad_out: np.ndarray, cache: dict) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Returns (d/dx, d/dm, d/ds)."""
    grads, grad_x = edain_backward(grad_out, cache)
    return grad_x, grads["m"], grads["s"]


# ---------------------------------------------------------------------------
# power transform sublayer


def power(x: np.ndarray, lam) -> tuple[np.ndarray, yj.PowerPoint]:
    """(z, point): the prepared point lets the backward pass re-use its branch
    select, log1p|x| and exponent instead of rebuilding them."""
    point = yj.PowerPoint(x, lam)
    return point.forward(), point


def power_grads(g: np.ndarray, point: yj.PowerPoint,
                want_x: bool = True) -> tuple[Optional[np.ndarray], np.ndarray]:
    """(d/dx if ``want_x``, g*dz/dlam) per element at the forward pass's point;
    each product is formed in the fresh array the point returns."""
    g_lam = point.dlam()
    g_lam *= g
    if not want_x:
        return None, g_lam
    grad_x = point.dx()
    grad_x *= g
    return grad_x, g_lam


def power_forward(x: TimeSeriesBatch, params: EdainParams) -> tuple[TimeSeriesBatch, dict]:
    return edain_forward(x, params, enabled=("power",))[:2]


def power_backward(grad_out: np.ndarray, cache: dict) -> tuple[np.ndarray, np.ndarray]:
    grads, grad_x = edain_backward(grad_out, cache)
    return grad_x, grads["lam"]


# ---------------------------------------------------------------------------
# full composition, in row blocks


def _edain_blocks(n: int, d: int, t: int) -> list[slice]:
    """Blocks of whole series, EDAIN_BLOCK_ELEMENTS values or one series each;
    a d = 1 batch is one block (see :class:`_FeatureSums`)."""
    rows = max(1, n if d == 1 else EDAIN_BLOCK_ELEMENTS // max(d * t, 1))
    return [slice(start, min(start + rows, n)) for start in range(0, n, rows)] or [slice(0, 0)]


def _tile(v: np.ndarray, t: int) -> np.ndarray:
    """A per-feature vector as a contiguous (1, d, t) operand: against a
    (1, d, 1) one numpy runs a t-element inner loop per (series, feature)."""
    return np.repeat(v[None, :, None], t, axis=2)


def edain_forward(
    x: TimeSeriesBatch,
    params: EdainParams,
    state: Optional[RunningMean] = None,
    training: bool = False,
    enabled: tuple[str, ...] = ALL_SUBLAYERS,
) -> tuple[TimeSeriesBatch, dict, Optional[RunningMean]]:
    """Apply the enabled sublayers in order; returns (output, cache, state).

    In global mode with the outlier stage enabled and ``training`` set, the
    running mean is folded forward with the whole incoming batch before use,
    and the updated state is returned.  Local mode derives every summary from
    the sublayer's own input and needs no state.

    The stages run over row blocks (:func:`_edain_blocks`) with the per-feature
    parameters as (1, d, T) tiles, and each stage's block output is checked
    for NaN/Inf while it is in cache (a ``NonFiniteBatchError`` naming the
    stage).  Every value equals the one a whole-batch pass gives, bit for bit.
    """
    if x.d != params.d:
        raise ValueError(f"batch has {x.d} features, EDAIN layer expects {params.d}")
    for name in enabled:
        if name not in ALL_SUBLAYERS:
            raise ValueError(f"unknown sublayer flag {name!r}")
    local = params.mode == LOCAL_AWARE
    use_shift, use_scale = "shift" in enabled, "scale" in enabled
    stages = tuple(name for name, on in (("om", "om" in enabled),
                                         ("shift_scale", use_shift or use_scale),
                                         ("power", "power" in enabled)) if on)
    new_state = state
    if "om" in stages and not local:
        if state is None:
            raise ValueError("global-aware mode needs a RunningMean state")
        if training:
            new_state = update_running_mean(state, x)

    v = x.values
    n, d, t = v.shape
    tiles = {}
    if "om" in stages:
        tiles.update(alpha=_tile(params.alpha, t), beta=_tile(params.beta, t))
        tiles["rest"] = 1.0 - tiles["alpha"]
        if not local:
            tiles["mu"] = _tile(new_state.mu_hat, t)
    if "shift_scale" in stages and not local:
        tiles["shift"] = _tile(params.m, t) if use_shift else 0.0
        tiles["denom"] = _tile(params.s, t) if use_scale else 1.0
    if "power" in stages:
        tiles["lam"] = _tile(params.lam, t)
    cache = {"d": d, "stages": stages, "m": params.m.copy(), "s": params.s.copy(),
             "local": local, "use_shift": use_shift, "use_scale": use_scale, "tiles": tiles,
             "blocks": _edain_blocks(n, d, t), "block_caches": []}
    if not stages:
        return x, cache, new_state

    out = np.empty_like(v)
    for rows in cache["blocks"]:
        cur, bc = v[rows], {}
        if "om" in stages:
            mu = cur.mean(axis=2)[:, :, None] if local else tiles["mu"]
            cur, bc["om"] = _outlier_block(cur, mu, tiles["alpha"], tiles["beta"], tiles["rest"])
            _check_finite(cur, "outlier")
        if "shift_scale" in stages:
            if local:
                cur, bc["shift_scale"] = _local_shift_scale(cur, params.m, params.s, use_shift, use_scale)
            else:
                cur = shift_scale(cur, tiles["shift"], tiles["denom"])
                bc["shift_scale"] = {"out": cur, "denom": tiles["denom"]}
            _check_finite(cur, "shift/scale")
        if "power" in stages:
            cur, bc["power"] = power(cur, tiles["lam"])
            _check_finite(cur, "power")
        out[rows] = cur
        cache["block_caches"].append(bc)
    out.flags.writeable = False
    return TimeSeriesBatch(out), cache, new_state


def edain_backward(grad_out: np.ndarray, cache: dict,
                   input_grad: bool = True) -> tuple[dict, Optional[np.ndarray]]:
    """Reverse the composition; returns ({alpha, beta, m, s, lam}, grad_input).

    The grad_input is None unless ``input_grad`` is set; without it the first
    enabled stage forms no d/dx (in local mode, not even the outlier stage's
    per-series term).  The blocks are those of the forward pass.
    """
    d, stages, local = cache["d"], cache["stages"], cache["local"]
    if not stages:
        return {name: np.zeros(d) for name in EDAIN_GROUPS}, grad_out if input_grad else None
    grad_out = np.asarray(grad_out)
    blocks = cache["blocks"]
    use_shift, use_scale = cache["use_shift"], cache["use_scale"]
    sums = _FeatureSums((grad_out.shape[0], d) if len(blocks) > 1 else None)
    # A gradient that reaches the global shift straight from the caller keeps
    # its own layout in g/s.  The GRU hands over a (T, N, d) array, whose sum
    # then runs in an order no row block reproduces, so that one sum runs over
    # the whole batch, as a (1, d, 1) broadcast.
    whole_shift = (not local and use_shift and stages[-1] == "shift_scale"
                   and not grad_out.flags.c_contiguous)
    grad_in = np.empty(grad_out.shape) if input_grad else None
    for rows, bc in zip(blocks, cache["block_caches"]):
        g = grad_out[rows]
        for name in reversed(stages):
            want_x = input_grad or name != stages[0]
            if name == "power":
                g, g_lam = power_grads(g, bc["power"], want_x)
                sums.add("lam", rows, g_lam)
            elif name == "shift_scale":
                g = _shift_scale_grads(g, bc["shift_scale"], cache, want_x, sums, rows, not whole_shift)
            else:
                g = _outlier_grads(g, bc["om"], cache, want_x, sums, rows)
        if input_grad:
            grad_in[rows] = g
    grads = sums.grads(d, cache["s"], local)
    if whole_shift:
        denom = cache["s"][None, :, None] if use_scale else 1.0
        grads["m"] = -(grad_out / denom).sum(axis=(0, 2))
    return grads, grad_in


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
        raise ValueError(f"batch has {x.d} features, DAIN layer expects {params.d}")
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


def dain_backward(grad_out: np.ndarray, cache: dict,
                  input_grad: bool = True) -> tuple[dict, Optional[np.ndarray]]:
    """Full chain rule through the three summary statistics; the input
    gradient is None unless ``input_grad`` is set."""
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
    grads = {"w_a": grad_w_a, "w_b": grad_w_b, "w_c": grad_w_c, "bias": grad_bias}
    if not input_grad:
        return grads, None
    da = r @ p.w_a
    return grads, dy + da[:, :, None] / t


# ---------------------------------------------------------------------------
# trainable-layer wrappers used by the training loop


class EdainLayer(IdentityPreproc):
    """Owns EDAIN parameters, the running-mean state, and the sublayer flags."""

    GROUPS = EDAIN_GROUPS
    BOUNDS = {"alpha": (0.0, 1.0), **SHIFT_SCALE_BOUNDS}

    def __init__(self, d: int, mode: str = GLOBAL_AWARE,
                 enabled: tuple[str, ...] = ALL_SUBLAYERS,
                 warm_start: Optional[TimeSeriesBatch] = None):
        self.params = init_edain_params(d, mode)
        self.enabled = tuple(enabled)
        for flag in self.enabled:
            if flag not in ALL_SUBLAYERS:
                raise ValueError(f"edain enabled has unknown sublayer {flag!r}")
        self.state = RunningMean.zeros(d)
        if warm_start is not None and mode == GLOBAL_AWARE:
            # start the shift/scale stage at the pooled statistics so the
            # layer begins as plain z-score normalization
            pooled = fit_zscore(warm_start)
            self.params.m = pooled.mean
            self.params.s = np.maximum(pooled.std, SCALE_FLOOR)

    def parameters(self) -> dict[str, np.ndarray]:
        return {name: getattr(self.params, name) for name in EDAIN_GROUPS}

    def forward(self, x: TimeSeriesBatch, training: bool) -> tuple[TimeSeriesBatch, dict]:
        out, cache, new_state = edain_forward(
            x, self.params, self.state, training=training, enabled=self.enabled
        )
        if new_state is not None:
            self.state = new_state
        return out, cache

    def backward(self, grad_out: np.ndarray, cache: dict) -> dict:
        return edain_backward(grad_out, cache, input_grad=False)[0]

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
        header = load_fields(doc, EDAIN_HEADER, "edain", required=EDAIN_HEADER,
                             extra=("kind", *EDAIN_GROUPS, "mu_hat"))
        layer = cls(checkpoint_width(doc, "alpha"), header["mode"], header["enabled"])
        load_arrays({**layer.parameters(), "mu_hat": layer.state.mu_hat}, doc, "edain",
                    " to match 'alpha'")
        layer.state = RunningMean(layer.state.mu_hat, header["count"])
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

    def forward(self, x: TimeSeriesBatch, training: bool) -> tuple[TimeSeriesBatch, dict]:
        return dain_forward(x, self.params)

    def backward(self, grad_out: np.ndarray, cache: dict) -> dict:
        return dain_backward(grad_out, cache, input_grad=False)[0]

    def to_json_dict(self) -> dict:
        return {"kind": "dain", **{name: arr.tolist() for name, arr in self.parameters().items()}}

    @classmethod
    def from_json_dict(cls, doc: dict) -> "DainLayer":
        load_fields(doc, {}, "dain", extra=("kind", *cls.GROUPS))
        layer = cls(d=checkpoint_width(doc, "bias"))
        load_arrays(layer.parameters(), doc, "dain", " to match 'bias'")
        return layer


def checkpoint_width(doc: dict, name: str) -> int:
    """The feature count a checkpoint's ``name`` array gives its layer."""
    return len(doc[name]) if isinstance(doc.get(name), list) else 0
