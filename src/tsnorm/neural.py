"""Minimal recurrent model and optimization stack.

A stacked GRU with a dense classifier head, binary/ternary cross-entropy
losses, and SGD/Adam/RMSProp optimizers that apply per-group learning-rate
corrections so preprocessing sublayers can train at rates different from the
model weights.  Everything is float64 numpy with explicit backward passes;
the test suite checks every gradient against central finite differences.

Each GRU cell (Cho et al. 2014) stores its weights in the stacked-gate layout
used by cuDNN and PyTorch: ``wx`` (In x 3H), ``wh`` (H x 3H) and ``b`` (3H),
with the reset, update and candidate gates in that column order.  One step
is then one ``h @ wh`` matmul, and BPTT carries the hidden-state gradient
back with one ``d_gate @ wh.T``.

State has one path.  ``parameters()`` names each array a ``Trainable`` (the
model, a preprocessing layer, the EDAIN-KL bijector) stores and trains; the
gradients, the optimizer state and ``snapshot``/``restore`` use those names.
``to_json_dict`` writes the arrays and ``data.load_arrays`` reads them back,
naming a missing, non-numeric, misshapen or non-finite entry.  Only a GRU
checkpoint names other arrays: each cell per gate (``cell0.wxr whr br ...``).

A preprocessing layer's ``backward`` gives its parameter gradients only;
``train_loop`` asks ``gru_backward`` for the input gradient only when the
layer has parameters to train.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .data import LabeledDataset, TimeSeriesBatch, load_arrays, load_fields, \
    minibatch_indices, type_hints

PROB_CLIP = 1e-12
GROUP_TAGS = ("outlier", "shift", "scale", "power", "model")
UNIT_CORRECTIONS = {"outlier": 1.0, "shift": 1.0, "scale": 1.0, "power": 1.0}  # all at base rate
PREDICT_ROWS = 128  # series per block of the eval-mode passes (:func:`predict`)
# Adam's moment decays and RMSProp's square decay, each with its eps
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8
RMS_ALPHA, RMS_EPS = 0.99, 1e-8


def _sigmoid(v, out=None):
    # branch-free: tanh saturates where exp would overflow or underflow;
    # ``out=v`` runs it in place
    out = np.multiply(v, 0.5, out=out)
    np.tanh(out, out=out)
    out += 1.0
    out *= 0.5
    return out


def _softmax(v):
    shifted = v - v.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


class Trainable:
    """Anything with trained arrays; ``parameters()`` names them all.  A class
    maps a name to its learning-rate group in ``GROUPS`` (``"model"`` if absent)
    and to its closed feasible interval in ``BOUNDS``, which ``projection()``
    clips onto after each optimizer step."""

    GROUPS: dict[str, str] = {}
    BOUNDS: dict[str, tuple[float, float]] = {}

    def parameters(self) -> dict[str, np.ndarray]:
        return {}

    def groups(self) -> dict[str, str]:
        return {name: self.GROUPS.get(name, "model") for name in self.parameters()}

    def projection(self) -> None:  # clamps in place; np.inf is no ceiling
        arrays = self.parameters()
        for name, (lo, hi) in self.BOUNDS.items():
            np.clip(arrays[name], lo, hi, out=arrays[name])

    def snapshot(self) -> dict[str, np.ndarray]:
        return {name: arr.copy() for name, arr in self.parameters().items()}

    def restore(self, snap: dict[str, np.ndarray]) -> None:
        # write through the live arrays: the optimizer holds references to them
        for name, arr in self.parameters().items():
            arr[...] = snap[name]


class GruStack(Trainable):
    """Stacked GRU cells, inter-cell dropout, and a ReLU classifier head.

    ``n_classes == 1`` produces sigmoid probabilities of shape (N,);
    ``n_classes == 3`` produces softmax rows of shape (N, 3).
    """

    def __init__(self, d_in: int, hidden: tuple[int, ...] = (32, 32),
                 head: tuple[int, ...] = (64, 32), n_classes: int = 1,
                 dropout: float = 0.2, rng: Optional[np.random.Generator] = None):
        for name, value, ok, want in (
                ("d_in", d_in, d_in >= 1, "positive"),
                ("hidden", hidden, len(hidden) and min(hidden) >= 1, "one or more positive sizes"),
                ("head", head, not len(head) or min(head) >= 1, "positive sizes"),
                ("n_classes", n_classes, n_classes in (1, 3), "1 or 3"),
                ("dropout", dropout, 0.0 <= dropout < 1.0, "in [0, 1)")):
            if not ok:
                raise ValueError(f"model {name} must be {want}, got {value!r}")
        if rng is None:
            rng = np.random.default_rng(0)
        self.d_in = d_in
        self.hidden = tuple(hidden)
        self.head_sizes = tuple(head)
        self.n_classes = n_classes
        self.dropout = dropout

        def mat(n_in, n_out):
            bound = 1.0 / np.sqrt(n_in)
            return rng.uniform(-bound, bound, size=(n_in, n_out))

        # stacked[i] holds cell i's wx/wh/b, each gate a block of h columns
        self.stacked = []
        prev = d_in
        for h in self.hidden:
            wx = np.empty((prev, 3 * h))
            wh = np.empty((h, 3 * h))
            for g in range(3):
                wx[:, g * h:(g + 1) * h] = mat(prev, h)
                wh[:, g * h:(g + 1) * h] = mat(h, h)
            self.stacked.append({"wx": wx, "wh": wh, "b": np.zeros(3 * h)})
            prev = h
        self.head = []
        for width in self.head_sizes:
            self.head.append({"w": mat(prev, width), "b": np.zeros(width)})
            prev = width
        self.head.append({"w": mat(prev, n_classes), "b": np.zeros(n_classes)})

    def parameters(self) -> dict[str, np.ndarray]:
        return {f"{part}{i}.{kind}": arr
                for part, layers in (("cell", self.stacked), ("head", self.head))
                for i, layer in enumerate(layers) for kind, arr in layer.items()}

    def _checkpoint_arrays(self) -> dict[str, np.ndarray]:
        """The checkpoint's names: each cell per gate (``cell0.wxr``, ``cell0.whr``,
        ``cell0.br``, ``cell0.wxz`` ...) as column-block views of its stacked
        arrays, then the head's arrays as ``parameters()`` names them."""
        gates = {f"cell{i}.{kind}{gate}": arr[..., g * h:(g + 1) * h]
                 for i, (cell, h) in enumerate(zip(self.stacked, self.hidden))
                 for g, gate in enumerate("rzn") for kind, arr in cell.items()}
        heads = {name: arr for name, arr in self.parameters().items() if name.startswith("head")}
        return {**gates, **heads}

    def to_json_dict(self) -> dict:
        return {
            "d_in": self.d_in, "hidden": list(self.hidden), "head": list(self.head_sizes),
            "n_classes": self.n_classes, "dropout": self.dropout,
            "params": {name: arr.tolist() for name, arr in self._checkpoint_arrays().items()},
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "GruStack":
        """Rebuild a checkpointed model.  Its header is typed by the
        constructor's annotations; a missing, unknown, misshapen or
        non-finite field is a ValueError that names it."""
        hints = {**type_hints(cls.__init__), "params": dict}
        del hints["rng"]
        header = load_fields(doc, hints, "model", required=hints)
        doc_params = header.pop("params")
        model = cls(**header)
        params = model._checkpoint_arrays()
        basis = (f" for d_in {model.d_in}, hidden {list(model.hidden)}, "
                 f"head {list(model.head_sizes)} and n_classes {model.n_classes}")
        for name in doc_params:
            if name not in params:
                raise ValueError(f"model has unknown parameter {name!r}{basis}")
        load_arrays(params, doc_params, "model", basis)
        return model


def _cell_forward(stacked: dict, seq: np.ndarray) -> tuple[np.ndarray, dict]:
    """Run one GRU cell over a (T, N, In) sequence; returns (T, N, H) outputs."""
    t_steps, n, _ = seq.shape
    wh = stacked["wh"]
    h_dim = wh.shape[0]
    proj = seq.reshape(t_steps * n, -1) @ stacked["wx"]
    proj += stacked["b"]
    proj = proj.reshape(t_steps, n, 3 * h_dim)

    h = np.zeros((n, h_dim))
    outs = np.empty((t_steps, n, h_dim))
    rs = np.empty_like(outs)
    zs = np.empty_like(outs)
    ns = np.empty_like(outs)
    qs = np.empty_like(outs)
    for t in range(t_steps):
        hw = h @ wh
        rz = proj[t, :, :2 * h_dim] + hw[:, :2 * h_dim]
        _sigmoid(rz, out=rz)
        # per-gate contiguous copies: BPTT's elementwise ops run ~2.5x slower
        # on column slices of a stacked block
        r, z, q = rs[t], zs[t], qs[t]
        r[...] = rz[:, :h_dim]
        z[...] = rz[:, h_dim:]
        q[...] = hw[:, 2 * h_dim:]
        nn = np.tanh(proj[t, :, 2 * h_dim:] + r * q, out=ns[t])
        h = (1.0 - z) * nn + z * h
        outs[t] = h
    cache = {"seq": seq, "r": rs, "z": zs, "n": ns, "q": qs, "out": outs, "stacked": stacked}
    return outs, cache


def _cell_backward(dout: np.ndarray, cache: dict,
                   input_grad: bool = True) -> tuple[dict, Optional[np.ndarray]]:
    """BPTT through one cell.  ``dout`` is the (T, N, H) gradient of the cell's
    per-step outputs; returns parameter grads and the (T, N, In) input grad,
    None unless ``input_grad`` is set."""
    stacked = cache["stacked"]
    seq, rs, zs, ns, qs, outs = cache["seq"], cache["r"], cache["z"], cache["n"], cache["q"], cache["out"]
    t_steps, n, h_dim = dout.shape
    wh_t = np.ascontiguousarray(stacked["wh"].T)

    # d_proj[t] = [dr | dz | dn] feeds wx and b; d_gate = [dr | dz | dq] feeds wh
    d_proj = np.empty((t_steps, n, 3 * h_dim))
    d_gate = np.empty((n, 3 * h_dim))
    g_wh = np.zeros_like(stacked["wh"])
    h_zero = np.zeros((n, h_dim))
    carry = h_zero
    for t in range(t_steps - 1, -1, -1):
        dh = dout[t] + carry
        h_prev = outs[t - 1] if t > 0 else h_zero
        r, z, nn, q = rs[t], zs[t], ns[t], qs[t]
        dz_pre = dh * (h_prev - nn) * z * (1.0 - z)
        dn_pre = dh * (1.0 - z) * (1.0 - nn * nn)
        dr_pre = dn_pre * q * r * (1.0 - r)
        d_proj[t, :, :h_dim] = dr_pre
        d_proj[t, :, h_dim:2 * h_dim] = dz_pre
        d_proj[t, :, 2 * h_dim:] = dn_pre
        d_gate[:, :2 * h_dim] = d_proj[t, :, :2 * h_dim]
        np.multiply(dn_pre, r, out=d_gate[:, 2 * h_dim:])
        if t > 0:  # at t = 0, h_prev = 0 adds nothing to g_wh and no step takes the carry
            g_wh += h_prev.T @ d_gate
            carry = dh * z + d_gate @ wh_t

    flat_seq = seq.reshape(t_steps * n, -1)
    flat_dp = d_proj.reshape(t_steps * n, 3 * h_dim)
    grads = {"wx": flat_seq.T @ flat_dp, "wh": g_wh, "b": flat_dp.sum(axis=0)}
    if not input_grad:
        return grads, None
    return grads, (flat_dp @ stacked["wx"].T).reshape(seq.shape)


def gru_forward(x: TimeSeriesBatch, model: GruStack, training: bool = False,
                rng: Optional[np.random.Generator] = None) -> tuple[np.ndarray, dict]:
    """Probabilities for a batch: (N,) sigmoid or (N, C) softmax rows."""
    if x.d != model.d_in:
        raise ValueError(f"batch has {x.d} features, model expects {model.d_in}")
    seq = np.ascontiguousarray(np.moveaxis(x.values, 2, 0))  # (T, N, d)
    cell_caches = []
    masks = []
    for i, stacked in enumerate(model.stacked):
        outs, cache = _cell_forward(stacked, seq)
        cell_caches.append(cache)
        if i < len(model.stacked) - 1 and model.dropout > 0.0 and training:
            if rng is None:
                raise ValueError("training-mode dropout needs an RNG")
            mask = (rng.random(outs.shape) >= model.dropout) / (1.0 - model.dropout)
            seq = outs * mask
            masks.append(mask)
        else:
            seq = outs
            masks.append(None)

    acts = [seq[-1]]  # last hidden state of the top cell
    pre_acts = []
    for i, layer in enumerate(model.head):
        pre = acts[-1] @ layer["w"] + layer["b"]
        pre_acts.append(pre)
        if i < len(model.head) - 1:
            acts.append(np.maximum(pre, 0.0))
    logits = pre_acts[-1]
    if model.n_classes == 1:
        probs = _sigmoid(logits[:, 0])
    else:
        probs = _softmax(logits)
    cache = {"cells": cell_caches, "masks": masks, "acts": acts, "pre": pre_acts, "model": model}
    return probs, cache


def gru_backward(d_logits: np.ndarray, cache: dict,
                 input_grad: bool = True) -> tuple[dict, Optional[np.ndarray]]:
    """Backpropagation through head and time; also returns the input
    gradient, or None when ``input_grad`` is off (the first cell then skips
    its ``d_seq`` product)."""
    model: GruStack = cache["model"]
    acts, pre_acts = cache["acts"], cache["pre"]
    if d_logits.ndim == 1:
        d_logits = d_logits[:, None]

    grads: dict[str, np.ndarray] = {}
    delta = d_logits
    for i in range(len(model.head) - 1, -1, -1):
        grads[f"head{i}.w"] = acts[i].T @ delta
        grads[f"head{i}.b"] = delta.sum(axis=0)
        if i > 0:
            delta = (delta @ model.head[i]["w"].T) * (pre_acts[i - 1] > 0)
        else:
            d_last = delta @ model.head[0]["w"].T

    dout = np.zeros_like(cache["cells"][-1]["out"])
    dout[-1] = d_last  # only the top cell's last step feeds the head
    for i in range(len(model.stacked) - 1, -1, -1):
        cell_grads, d_seq = _cell_backward(dout, cache["cells"][i], input_grad or i > 0)
        grads.update((f"cell{i}.{kind}", g) for kind, g in cell_grads.items())
        if i > 0:
            mask = cache["masks"][i - 1]
            dout = d_seq * mask if mask is not None else d_seq
    if not input_grad:
        return grads, None
    return grads, np.moveaxis(d_seq, 0, 2)  # back to (N, d, T)


# ---------------------------------------------------------------------------
# losses (gradients are with respect to the pre-activation logits)


def bce_loss(p: np.ndarray, y: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean binary cross-entropy and its gradient w.r.t. the logit."""
    y = np.asarray(y, dtype=np.float64)
    if p.shape != y.shape:
        raise ValueError("prediction/label shape mismatch")
    if np.any(bad := (y != 0) & (y != 1)):
        raise ValueError(f"label {y[bad][0]:g} is outside a binary model's 2 classes, 0 and 1")
    pc = np.clip(p, PROB_CLIP, 1.0 - PROB_CLIP)
    loss = float(-(y * np.log(pc) + (1.0 - y) * np.log(1.0 - pc)).mean())
    d_logits = ((p - y) / len(y))[:, None]
    return loss, d_logits


def cross_entropy_loss(p: np.ndarray, y: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean multiclass cross-entropy; gradient w.r.t. the softmax logits."""
    y = np.asarray(y, dtype=np.int64)
    if p.ndim != 2 or y.shape != p.shape[:1]:
        raise ValueError("prediction/label shape mismatch")
    n, c = p.shape
    if np.any(bad := (y < 0) | (y >= c)):
        kind = "ternary" if c == 3 else f"{c}-class"
        raise ValueError(f"label {y[bad][0]} is outside a {kind} model's {c} classes, "
                         f"{', '.join(map(str, range(c - 1)))} and {c - 1}")
    pc = np.clip(p, PROB_CLIP, 1.0)
    loss = float(-np.log(pc[np.arange(n), y]).mean())
    onehot = np.zeros_like(p)
    onehot[np.arange(n), y] = 1.0
    d_logits = (p - onehot) / n
    return loss, d_logits


def model_loss(p: np.ndarray, y: np.ndarray) -> tuple[float, np.ndarray]:
    """The loss of the model's output width: BCE for (N,) probabilities, else cross-entropy."""
    return bce_loss(p, y) if p.ndim == 1 else cross_entropy_loss(p, y)


# ---------------------------------------------------------------------------
# optimizers


@dataclass
class TrainConfig:
    base_lr: float = 1e-3
    # None: UNIT_CORRECTIONS, or a method's default preset
    corrections: Optional[dict[str, float]] = None
    optimizer: str = "adam"
    batch_size: int = 128
    max_epochs: int = 30
    milestones: tuple[int, ...] = (4, 7)
    gamma: float = 0.1
    patience: int = 5
    seed: int = 0

    def __post_init__(self):
        for name, ok, want in (
                ("optimizer", self.optimizer in ("sgd", "adam", "rmsprop"), "sgd, adam or rmsprop"),
                ("base_lr", 0 < self.base_lr < np.inf, "finite and positive"),
                ("gamma", 0 < self.gamma < np.inf, "finite and positive"),
                ("max_epochs", self.max_epochs >= 0, "nonnegative"),  # 0: fit_kl's start
                ("batch_size", self.batch_size >= 1, "positive"),
                ("patience", self.patience >= 0, "nonnegative")):
            if not ok:
                raise ValueError(f"{name} must be {want}, got {getattr(self, name)!r}")
        for tag, rate in (self.corrections or {}).items():
            if tag not in UNIT_CORRECTIONS:
                raise ValueError(f"corrections has unknown group {tag!r}")
            if not 0 <= rate < np.inf:
                raise ValueError(f"learning-rate correction {tag!r} must be nonnegative "
                                 f"and finite, got {rate!r}")
        if any(a >= b for a, b in zip(self.milestones, self.milestones[1:])):
            raise ValueError(f"lr milestones must be strictly increasing, "
                             f"got {list(self.milestones)}")


class Optimizer:
    """SGD/Adam/RMSProp over named parameter groups.

    Each parameter belongs to a group tag; the effective step size is
    lr * correction[tag] with the model group pinned at correction 1.  An
    optional projection hook (a ``Trainable.projection``) runs after every
    step to clamp bounded parameters back onto their feasible intervals.
    """

    def __init__(self, config: TrainConfig, projection: Optional[Callable[[], None]] = None):
        self.kind = config.optimizer
        self.config = config
        self.lr = config.base_lr
        self.projection = projection
        self.state: dict[str, dict] = {}
        self.t = 0

    def _rate(self, tag: str) -> float:
        if tag == "model":
            return self.lr
        if tag not in GROUP_TAGS:
            raise ValueError(f"unknown parameter group tag {tag!r}")
        return self.lr * (self.config.corrections or UNIT_CORRECTIONS).get(tag, 1.0)

    def step(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray],
             groups: dict[str, str]) -> None:
        self.t += 1
        for name, g in grads.items():
            p = params[name]
            rate = self._rate(groups[name])
            if self.kind == "sgd":
                p -= rate * g
            elif self.kind == "adam":
                if name not in self.state:
                    self.state[name] = {"m": np.zeros_like(p), "v": np.zeros_like(p)}
                # moments in place, in the order of b1 * m + (1 - b1) * g
                m, v = self.state[name]["m"], self.state[name]["v"]
                m *= ADAM_BETA1
                m += (1 - ADAM_BETA1) * g
                v *= ADAM_BETA2
                v += (1 - ADAM_BETA2) * g * g
                m_hat = m / (1 - ADAM_BETA1 ** self.t)
                v_hat = v / (1 - ADAM_BETA2 ** self.t)
                p -= rate * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
            else:
                if name not in self.state:
                    self.state[name] = {"sq": np.zeros_like(p)}
                sq = self.state[name]["sq"]
                sq *= RMS_ALPHA
                sq += (1 - RMS_ALPHA) * g * g
                p -= rate * g / (np.sqrt(sq) + RMS_EPS)
        if self.projection is not None:
            self.projection()


# ---------------------------------------------------------------------------
# training loop


class IdentityPreproc(Trainable):
    """No-op preprocessing layer and the base of every preprocessing layer:
    the trainable ones override ``parameters()``, declare ``GROUPS`` and
    ``BOUNDS``, add ``backward(grad_out, cache)``, which gives their parameter
    gradients, and inherit snapshot and restore."""

    def forward(self, x: TimeSeriesBatch, training: bool):
        return x, None

    def to_json_dict(self) -> dict:
        return {"kind": "identity"}

    @classmethod
    def from_json_dict(cls, doc: dict) -> "IdentityPreproc":
        load_fields(doc, {}, "identity", extra=("kind",))
        return cls()


@dataclass
class TrainResult:
    model: GruStack
    preproc: object
    history: list
    best_epoch: int
    # eval-mode validation probabilities of the restored (best) epoch
    valid_probs: np.ndarray


def history_to_csv(history: list) -> str:
    """Training curve as delimited text: epoch, train_loss, valid_loss, lr."""
    lines = ["epoch,train_loss,valid_loss,lr"]
    for row in history:
        lines.append(f"{row['epoch']},{row['train_loss']!r},{row['valid_loss']!r},{row['lr']!r}")
    return "\n".join(lines) + "\n"


def _lr_at(config: TrainConfig, epoch: int) -> float:
    decays = sum(1 for m in config.milestones if epoch >= m)
    return config.base_lr * (config.gamma ** decays)


def _row_blocks(n: int) -> list[slice]:
    # A trailing block shorter than half a block joins the one before it:
    # numpy hands a one-row product to BLAS gemv, and OpenBLAS computes
    # products of a few rows with small-matrix kernels, both of which round
    # differently from the gemm of a full pass.
    bounds = [*range(0, max(n - PREDICT_ROWS // 2 + 1, 1), PREDICT_ROWS), n] if n else []
    return [slice(start, stop) for start, stop in zip(bounds, bounds[1:])]


def predict(batch: TimeSeriesBatch, preproc, model: GruStack) -> np.ndarray:
    """Eval-mode probabilities of every series: (N,) sigmoid or (N, C) softmax rows.

    Runs ``preproc.forward(training=False)`` and ``gru_forward`` over blocks
    of ``PREDICT_ROWS`` consecutive series, so the caches they build do not
    grow with N.  In eval mode every series is independent of the others and
    each block starts at a multiple of ``PREDICT_ROWS``, so the result equals
    one full-batch pass bit for bit.
    """
    out = np.empty((batch.n,) if model.n_classes == 1 else (batch.n, model.n_classes))
    for rows in _row_blocks(batch.n):
        xn, _ = preproc.forward(TimeSeriesBatch(batch.values[rows]), training=False)
        out[rows] = gru_forward(xn, model, training=False)[0]
    return out


def evaluate_loss(dataset: LabeledDataset, preproc, model: GruStack) -> tuple[float, np.ndarray]:
    """Validation loss and probabilities with frozen preprocessing state."""
    probs = predict(dataset.batch, preproc, model)
    loss, _ = model_loss(probs, dataset.labels)
    return loss, probs


def train_loop(train: LabeledDataset, valid: LabeledDataset, preproc, model: GruStack,
               config: TrainConfig) -> TrainResult:
    """End-to-end training of the preprocessing layer and the model.

    Multi-step learning-rate decay at the configured milestones, early
    stopping on validation loss (the patience counter is never reset by a
    milestone), and restoration of the best-validation checkpoint at the end.
    Identical seeds give bit-identical histories; :func:`model_loss` picks the loss.
    """
    if train.n == 0:
        raise ValueError("train_loop needs at least one training series, got 0")

    rng = np.random.Generator(np.random.PCG64(config.seed))
    params = {**model.parameters(), **preproc.parameters()}
    # the GRU's input gradient is read only by a preprocessing layer that trains
    trains_preproc = bool(preproc.parameters())
    groups = {**model.groups(), **preproc.groups()}
    optimizer = Optimizer(config, projection=preproc.projection)

    history = []
    best_valid = np.inf
    best_epoch = 0
    best_snap = None
    stale = 0

    for epoch in range(1, config.max_epochs + 1):
        optimizer.lr = _lr_at(config, epoch)
        total_loss = 0.0
        total_count = 0
        for idx in minibatch_indices(train.n, config.batch_size, rng):
            values = train.batch.values[idx]  # a fresh array: frozen, not copied again
            values.flags.writeable = False
            xb = TimeSeriesBatch(values)
            yb = train.labels[idx]
            xn, pcache = preproc.forward(xb, training=True)
            probs, mcache = gru_forward(xn, model, training=True, rng=rng)
            loss, d_logits = model_loss(probs, yb)
            if not np.isfinite(loss):
                raise FloatingPointError(
                    f"non-finite training loss at epoch {epoch} (batch of {len(idx)})"
                )
            grads, grad_input = gru_backward(d_logits, mcache, input_grad=trains_preproc)
            if trains_preproc:
                grads.update(preproc.backward(grad_input, pcache))
            optimizer.step(params, grads, groups)
            total_loss += loss * len(idx)
            total_count += len(idx)

        valid_loss, valid_probs = evaluate_loss(valid, preproc, model)
        history.append({
            "epoch": epoch,
            "train_loss": total_loss / total_count,
            "valid_loss": valid_loss,
            "lr": optimizer.lr,
        })
        if valid_loss < best_valid:
            best_valid = valid_loss
            best_epoch = epoch
            best_probs = valid_probs
            best_snap = (model.snapshot(), preproc.snapshot())
            stale = 0
        else:
            stale += 1
            if stale > config.patience:
                break

    if best_snap is None:  # no epoch with a finite validation loss: the last state stays
        best_probs = predict(valid.batch, preproc, model)
    else:
        model.restore(best_snap[0])
        preproc.restore(best_snap[1])
    return TrainResult(model=model, preproc=preproc, history=history,
                       best_epoch=best_epoch, valid_probs=best_probs)
