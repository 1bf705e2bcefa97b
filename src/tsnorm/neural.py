"""Minimal recurrent model and optimization stack.

A stacked GRU with a dense classifier head, binary/ternary cross-entropy
losses, and SGD/Adam/RMSProp optimizers that apply per-group learning-rate
corrections so preprocessing sublayers can train at rates different from the
model weights.  Everything is float64 numpy with explicit backward passes;
the test suite checks every gradient against central finite differences.

Each GRU cell (Cho et al. 2014) stores its weights in the stacked-gate layout
used by cuDNN and PyTorch: ``wx`` (In x 3H), ``wh`` (H x 3H) and ``b`` (3H),
with the reset, update and candidate gates in that column order.  The nine
per-gate names (``wxr whr br wxz whz bz wxn whn bn``) that ``parameters()``,
the optimizer and checkpoints use are views into those arrays, so an update
through a name is an update of the stacked weights.  One step is then one
``h @ wh`` matmul, and BPTT carries the hidden-state gradient back with one
``d_gate @ wh.T``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .data import BINARY, LabeledDataset, TimeSeriesBatch, minibatch_indices

PROB_CLIP = 1e-12
GROUP_TAGS = ("outlier", "shift", "scale", "power", "model")


def _sigmoid(v):
    # branch-free: tanh saturates where exp would overflow or underflow
    out = np.tanh(0.5 * v)
    out += 1.0
    out *= 0.5
    return out


def _softmax(v):
    shifted = v - v.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


class GruStack:
    """Stacked GRU cells, inter-cell dropout, and a ReLU classifier head.

    ``n_classes == 1`` produces sigmoid probabilities of shape (N,);
    ``n_classes == 3`` produces softmax rows of shape (N, 3).
    """

    def __init__(self, d_in: int, hidden: tuple[int, ...] = (32, 32),
                 head: tuple[int, ...] = (64, 32), n_classes: int = 1,
                 dropout: float = 0.2, rng: Optional[np.random.Generator] = None):
        if not (0.0 <= dropout < 1.0):
            raise ValueError("dropout must be in [0, 1)")
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

        # stacked[i] holds cell i's wx/wh/b; cells[i] holds the per-gate views
        self.stacked = []
        self.cells = []
        prev = d_in
        for h in self.hidden:
            wx = np.empty((prev, 3 * h))
            wh = np.empty((h, 3 * h))
            b = np.zeros(3 * h)
            cell = {}
            for g, gate in enumerate("rzn"):
                cols = slice(g * h, (g + 1) * h)
                wx[:, cols] = mat(prev, h)
                wh[:, cols] = mat(h, h)
                cell.update({f"wx{gate}": wx[:, cols], f"wh{gate}": wh[:, cols],
                             f"b{gate}": b[cols]})
            self.stacked.append({"wx": wx, "wh": wh, "b": b})
            self.cells.append(cell)
            prev = h
        self.head = []
        for width in self.head_sizes:
            self.head.append({"w": mat(prev, width), "b": np.zeros(width)})
            prev = width
        self.head.append({"w": mat(prev, n_classes), "b": np.zeros(n_classes)})

    def parameters(self) -> dict[str, np.ndarray]:
        out = {}
        for i, cell in enumerate(self.cells):
            for name, arr in cell.items():
                out[f"cell{i}.{name}"] = arr
        for i, layer in enumerate(self.head):
            out[f"head{i}.w"] = layer["w"]
            out[f"head{i}.b"] = layer["b"]
        return out

    def groups(self) -> dict[str, str]:
        return {name: "model" for name in self.parameters()}

    def snapshot(self) -> dict[str, np.ndarray]:
        return {name: arr.copy() for name, arr in self.parameters().items()}

    def restore(self, snap: dict[str, np.ndarray]) -> None:
        for name, arr in self.parameters().items():
            arr[...] = snap[name]

    def to_json_dict(self) -> dict:
        return {
            "d_in": self.d_in, "hidden": list(self.hidden), "head": list(self.head_sizes),
            "n_classes": self.n_classes, "dropout": self.dropout,
            "params": {name: arr.tolist() for name, arr in self.parameters().items()},
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "GruStack":
        """Rebuild a checkpointed model; a missing, unknown, misshapen or
        non-finite field is a ValueError that names it."""
        for key in ("d_in", "hidden", "head", "n_classes", "dropout", "params"):
            if key not in doc:
                raise ValueError(f"model checkpoint is missing field {key!r}")
        model = cls(d_in=doc["d_in"], hidden=tuple(doc["hidden"]), head=tuple(doc["head"]),
                    n_classes=doc["n_classes"], dropout=doc["dropout"])
        params = model.parameters()
        for name in doc["params"]:
            if name not in params:
                raise ValueError(f"model checkpoint has unknown parameter {name!r}")
        for name, arr in params.items():
            if name not in doc["params"]:
                raise ValueError(f"model checkpoint is missing parameter {name!r}")
            try:
                value = np.asarray(doc["params"][name], dtype=np.float64)
            except (TypeError, ValueError) as exc:
                raise ValueError(f"model parameter {name!r} is not numeric: {exc}") from None
            if value.shape != arr.shape:
                raise ValueError(f"model parameter {name!r} has shape {value.shape}, "
                                 f"expected {arr.shape}")
            if not np.all(np.isfinite(value)):
                raise ValueError(f"model parameter {name!r} is not finite")
            arr[...] = value
        return model


def _cell_forward(stacked: dict, seq: np.ndarray) -> tuple[np.ndarray, dict]:
    """Run one GRU cell over a (T, N, In) sequence; returns (T, N, H) outputs."""
    t_steps, n, _ = seq.shape
    wh = stacked["wh"]
    h_dim = wh.shape[0]
    proj = seq.reshape(t_steps * n, -1) @ stacked["wx"] + stacked["b"]
    proj = proj.reshape(t_steps, n, 3 * h_dim)

    h = np.zeros((n, h_dim))
    outs = np.empty((t_steps, n, h_dim))
    rs = np.empty_like(outs)
    zs = np.empty_like(outs)
    ns = np.empty_like(outs)
    qs = np.empty_like(outs)
    for t in range(t_steps):
        hw = h @ wh
        rz = _sigmoid(proj[t, :, :2 * h_dim] + hw[:, :2 * h_dim])
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


def _cell_backward(dout: np.ndarray, cache: dict) -> tuple[dict, np.ndarray]:
    """BPTT through one cell.  ``dout`` is the (T, N, H) gradient of the cell's
    per-step outputs; returns parameter grads and the (T, N, In) input grad."""
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
    blocks = {"wx": flat_seq.T @ flat_dp, "wh": g_wh, "b": flat_dp.sum(axis=0)}
    grads = {f"{kind}{gate}": block[..., g * h_dim:(g + 1) * h_dim]
             for kind, block in blocks.items() for g, gate in enumerate("rzn")}
    d_seq = (flat_dp @ stacked["wx"].T).reshape(seq.shape)
    return grads, d_seq


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
        if i < len(model.cells) - 1 and model.dropout > 0.0 and training:
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
    cache = {"cells": cell_caches, "masks": masks, "acts": acts, "pre": pre_acts,
             "model": model, "t": x.t, "n": x.n}
    return probs, cache


def gru_backward(d_logits: np.ndarray, cache: dict) -> tuple[dict, np.ndarray]:
    """Backpropagation through head and time; also returns the input gradient."""
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

    t_steps = cache["t"]
    n = cache["n"]
    dout = None
    for i in range(len(model.cells) - 1, -1, -1):
        if dout is None:
            dout = np.zeros_like(cache["cells"][i]["out"])
            dout[t_steps - 1] = d_last
        cell_grads, d_seq = _cell_backward(dout, cache["cells"][i])
        for name, g in cell_grads.items():
            grads[f"cell{i}.{name}"] = g
        if i > 0:
            mask = cache["masks"][i - 1]
            dout = d_seq * mask if mask is not None else d_seq
    grad_input = np.moveaxis(d_seq, 0, 2)  # back to (N, d, T)
    return grads, grad_input


# ---------------------------------------------------------------------------
# losses (gradients are with respect to the pre-activation logits)


def bce_loss(p: np.ndarray, y: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean binary cross-entropy and its gradient w.r.t. the logit."""
    y = np.asarray(y, dtype=np.float64)
    if p.shape != y.shape:
        raise ValueError("prediction/label shape mismatch")
    if np.any((y != 0) & (y != 1)):
        raise ValueError("binary labels must be 0 or 1")
    pc = np.clip(p, PROB_CLIP, 1.0 - PROB_CLIP)
    loss = float(-(y * np.log(pc) + (1.0 - y) * np.log(1.0 - pc)).mean())
    d_logits = ((p - y) / len(y))[:, None]
    return loss, d_logits


def cross_entropy_loss(p: np.ndarray, y: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean multiclass cross-entropy; gradient w.r.t. the softmax logits."""
    y = np.asarray(y, dtype=np.int64)
    n, c = p.shape
    if y.shape != (n,) or y.min() < 0 or y.max() >= c:
        raise ValueError("labels out of range")
    pc = np.clip(p, PROB_CLIP, 1.0)
    loss = float(-np.log(pc[np.arange(n), y]).mean())
    onehot = np.zeros_like(p)
    onehot[np.arange(n), y] = 1.0
    d_logits = (p - onehot) / n
    return loss, d_logits


# ---------------------------------------------------------------------------
# optimizers


@dataclass
class TrainConfig:
    base_lr: float = 1e-3
    corrections: dict = field(default_factory=lambda: {"outlier": 1.0, "shift": 1.0,
                                                       "scale": 1.0, "power": 1.0})
    optimizer: str = "adam"
    batch_size: int = 128
    max_epochs: int = 30
    milestones: tuple[int, ...] = (4, 7)
    gamma: float = 0.1
    patience: int = 5
    seed: int = 0
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    rms_alpha: float = 0.99
    rms_eps: float = 1e-8
    grad_clip: Optional[float] = None

    def __post_init__(self):
        if self.base_lr <= 0:
            raise ValueError("base_lr must be positive")
        if any(v < 0 for v in self.corrections.values()):
            raise ValueError("learning-rate corrections must be nonnegative")
        if list(self.milestones) != sorted(self.milestones):
            raise ValueError("lr milestones must be increasing")


class Optimizer:
    """SGD/Adam/RMSProp over named parameter groups.

    Each parameter belongs to a group tag; the effective step size is
    lr * correction[tag] with the model group pinned at correction 1.  An
    optional projection hook runs after every step to clamp constrained
    parameters back onto their feasible set.
    """

    def __init__(self, config: TrainConfig, projection: Optional[Callable[[], None]] = None):
        self.kind = config.optimizer
        if self.kind not in ("sgd", "adam", "rmsprop"):
            raise ValueError(f"unknown optimizer {self.kind!r}")
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
        return self.lr * self.config.corrections.get(tag, 1.0)

    def step(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray],
             groups: dict[str, str]) -> None:
        cfg = self.config
        self.t += 1
        if cfg.grad_clip is not None:
            total = np.sqrt(sum(float((g * g).sum()) for g in grads.values()))
            if total > cfg.grad_clip:
                scale = cfg.grad_clip / total
                grads = {k: g * scale for k, g in grads.items()}
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
                m *= cfg.adam_beta1
                m += (1 - cfg.adam_beta1) * g
                v *= cfg.adam_beta2
                v += (1 - cfg.adam_beta2) * g * g
                m_hat = m / (1 - cfg.adam_beta1 ** self.t)
                v_hat = v / (1 - cfg.adam_beta2 ** self.t)
                p -= rate * m_hat / (np.sqrt(v_hat) + cfg.adam_eps)
            else:
                if name not in self.state:
                    self.state[name] = {"sq": np.zeros_like(p)}
                sq = self.state[name]["sq"]
                sq *= cfg.rms_alpha
                sq += (1 - cfg.rms_alpha) * g * g
                p -= rate * g / (np.sqrt(sq) + cfg.rms_eps)
        if self.projection is not None:
            self.projection()


# ---------------------------------------------------------------------------
# training loop


class IdentityPreproc:
    """No-op preprocessing layer satisfying the trainable-layer interface."""

    def parameters(self):
        return {}

    def groups(self):
        return {}

    def forward(self, x: TimeSeriesBatch, training: bool):
        return x, None

    def backward(self, grad_out, cache):
        return {}, grad_out

    def projection(self):
        return None

    def snapshot(self):
        return None

    def restore(self, snap):
        return None

    def to_json_dict(self) -> dict:
        return {"kind": "identity"}

    @classmethod
    def from_json_dict(cls, doc: dict) -> "IdentityPreproc":
        return cls()


@dataclass
class TrainResult:
    model: GruStack
    preproc: object
    history: list
    best_epoch: int
    best_valid_loss: float


def history_to_csv(history: list) -> str:
    """Training curve as delimited text: epoch, train_loss, valid_loss, lr."""
    lines = ["epoch,train_loss,valid_loss,lr"]
    for row in history:
        lines.append(f"{row['epoch']},{row['train_loss']!r},{row['valid_loss']!r},{row['lr']!r}")
    return "\n".join(lines) + "\n"


def _lr_at(config: TrainConfig, epoch: int) -> float:
    decays = sum(1 for m in config.milestones if epoch >= m)
    return config.base_lr * (config.gamma ** decays)


def evaluate_loss(dataset: LabeledDataset, preproc, model: GruStack) -> tuple[float, np.ndarray]:
    """Validation loss and probabilities with frozen preprocessing state."""
    xn, _ = preproc.forward(dataset.batch, training=False)
    probs, _ = gru_forward(xn, model, training=False)
    if dataset.label_kind == BINARY:
        loss, _ = bce_loss(probs, dataset.labels)
    else:
        loss, _ = cross_entropy_loss(probs, dataset.labels)
    return loss, probs


def train_loop(train: LabeledDataset, valid: LabeledDataset, preproc, model: GruStack,
               config: TrainConfig) -> TrainResult:
    """End-to-end training of the preprocessing layer and the model.

    Multi-step learning-rate decay at the configured milestones, early
    stopping on validation loss (the patience counter is never reset by a
    milestone), and restoration of the best-validation checkpoint at the end.
    Identical seeds give bit-identical histories.
    """
    if preproc is None:
        preproc = IdentityPreproc()
    if train.label_kind != valid.label_kind:
        raise ValueError("train and validation label kinds differ")

    rng = np.random.Generator(np.random.PCG64(config.seed))
    params = {**model.parameters(), **preproc.parameters()}
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
        for idx in minibatch_indices(train.n, config.batch_size, rng, shuffle=True):
            xb = TimeSeriesBatch(train.batch.values[idx])
            yb = train.labels[idx]
            xn, pcache = preproc.forward(xb, training=True)
            probs, mcache = gru_forward(xn, model, training=True, rng=rng)
            if train.label_kind == BINARY:
                loss, d_logits = bce_loss(probs, yb)
            else:
                loss, d_logits = cross_entropy_loss(probs, yb)
            if not np.isfinite(loss):
                raise FloatingPointError(
                    f"non-finite training loss at epoch {epoch} (batch of {len(idx)})"
                )
            model_grads, grad_input = gru_backward(d_logits, mcache)
            preproc_grads, _ = preproc.backward(grad_input, pcache)
            optimizer.step(params, {**model_grads, **preproc_grads}, groups)
            total_loss += loss * len(idx)
            total_count += len(idx)

        valid_loss, _ = evaluate_loss(valid, preproc, model)
        history.append({
            "epoch": epoch,
            "train_loss": total_loss / total_count,
            "valid_loss": valid_loss,
            "lr": optimizer.lr,
        })
        if valid_loss < best_valid:
            best_valid = valid_loss
            best_epoch = epoch
            best_snap = (model.snapshot(), preproc.snapshot())
            stale = 0
        else:
            stale += 1
            if stale > config.patience:
                break

    if best_snap is not None:
        model.restore(best_snap[0])
        preproc.restore(best_snap[1])
    return TrainResult(model=model, preproc=preproc, history=history,
                       best_epoch=best_epoch, best_valid_loss=best_valid)
