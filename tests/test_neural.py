import re

import numpy as np
import pytest

from gradcheck import check_grads, numeric_grad, rel_err
from tsnorm.adaptive import EdainLayer
from tsnorm.data import LabeledDataset, TimeSeriesBatch
from tsnorm import neural as nn


def toy_dataset(n=60, d=2, t=4, seed=0, separation=3.0):
    """Linearly separable two-class batches: class shifts the series level."""
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 2, n)
    values = rng.normal(size=(n, d, t)) + separation * labels[:, None, None]
    return LabeledDataset(TimeSeriesBatch(values), labels, "binary")


def test_zero_weights_give_half_probability():
    model = nn.GruStack(d_in=2, hidden=(3,), head=(4,), n_classes=1, dropout=0.0)
    for arr in model.parameters().values():
        arr[...] = 0.0
    x = TimeSeriesBatch(np.random.default_rng(0).normal(size=(5, 2, 3)))
    probs, _ = nn.gru_forward(x, model)
    assert np.allclose(probs, 0.5)


def test_softmax_rows_sum_to_one():
    model = nn.GruStack(d_in=2, hidden=(3,), head=(4,), n_classes=3, dropout=0.0,
                        rng=np.random.default_rng(1))
    x = TimeSeriesBatch(np.random.default_rng(2).normal(size=(7, 2, 4)))
    probs, _ = nn.gru_forward(x, model)
    assert probs.shape == (7, 3)
    assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-12)


def reference_sigmoid(v):
    """The two-branch logistic: exp of a non-positive argument only."""
    v = np.asarray(v, dtype=np.float64)
    e = np.exp(-np.abs(v))
    return np.where(v >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def test_single_step_matches_hand_unrolled_cell():
    rng = np.random.default_rng(3)
    model = nn.GruStack(d_in=2, hidden=(4,), head=(), n_classes=1, dropout=0.0, rng=rng)
    x = np.random.default_rng(4).normal(size=(3, 2, 1))
    probs, _ = nn.gru_forward(TimeSeriesBatch(x), model)

    cell = model.cells[0]
    x0 = x[:, :, 0]
    r = reference_sigmoid(x0 @ cell["wxr"] + cell["br"])          # h_prev = 0
    z = reference_sigmoid(x0 @ cell["wxz"] + cell["bz"])
    n = np.tanh(x0 @ cell["wxn"] + r * 0.0 + cell["bn"])
    h = (1.0 - z) * n
    logits = h @ model.head[0]["w"] + model.head[0]["b"]
    assert np.allclose(probs, reference_sigmoid(logits[:, 0]), atol=1e-12)


def test_forward_matches_hand_unrolled_cells():
    # two cells over several steps, one gate at a time through the per-gate
    # names: a mix-up of the stacked wx/wh/b columns changes the output
    model = nn.GruStack(d_in=2, hidden=(4, 3), head=(5,), n_classes=1, dropout=0.0,
                        rng=np.random.default_rng(3))
    rng = np.random.default_rng(5)
    for arr in model.parameters().values():  # distinct gates, non-zero biases
        arr[...] = rng.uniform(-0.8, 0.8, arr.shape)
    x = np.random.default_rng(4).normal(size=(3, 2, 4))
    probs, _ = nn.gru_forward(TimeSeriesBatch(x), model)

    seq = [x[:, :, t] for t in range(x.shape[2])]
    for cell in model.cells:
        h = np.zeros((x.shape[0], cell["whr"].shape[0]))
        outs = []
        for x_t in seq:
            r = reference_sigmoid(x_t @ cell["wxr"] + h @ cell["whr"] + cell["br"])
            z = reference_sigmoid(x_t @ cell["wxz"] + h @ cell["whz"] + cell["bz"])
            n = np.tanh(x_t @ cell["wxn"] + r * (h @ cell["whn"]) + cell["bn"])
            h = (1.0 - z) * n + z * h
            outs.append(h)
        seq = outs
    hidden = np.maximum(seq[-1] @ model.head[0]["w"] + model.head[0]["b"], 0.0)
    logits = hidden @ model.head[1]["w"] + model.head[1]["b"]
    assert np.max(np.abs(probs - reference_sigmoid(logits[:, 0]))) < 1e-12


def test_per_gate_names_are_views_of_stacked_weights():
    model = nn.GruStack(d_in=2, hidden=(3,), head=(), n_classes=1, dropout=0.0)
    stacked = model.stacked[0]
    for g, gate in enumerate("rzn"):
        cols = slice(3 * g, 3 * (g + 1))
        for kind in ("wx", "wh", "b"):
            view = model.cells[0][f"{kind}{gate}"]
            assert np.shares_memory(view, stacked[kind])
            assert np.array_equal(view, stacked[kind][..., cols])
    model.parameters()["cell0.whz"][...] = 7.0
    assert np.all(stacked["wh"][:, 3:6] == 7.0)


def test_sigmoid_matches_two_branch_formula():
    v = np.linspace(-800.0, 800.0, 400_001)
    with np.errstate(all="raise"):
        got = nn._sigmoid(v)
    assert np.max(np.abs(got - reference_sigmoid(v))) <= 2.3e-16
    assert nn._sigmoid(np.zeros(1))[0] == 0.5
    assert np.all(np.diff(got) >= 0.0)


def test_gru_backward_matches_fd():
    rng = np.random.default_rng(5)
    model = nn.GruStack(d_in=2, hidden=(3, 4), head=(4,), n_classes=1, dropout=0.0,
                        rng=np.random.default_rng(6))
    x = rng.normal(size=(4, 2, 3))
    y = rng.integers(0, 2, 4)

    def loss_fn():
        probs, _ = nn.gru_forward(TimeSeriesBatch(x), model)
        loss, _ = nn.bce_loss(probs, y)
        return loss

    probs, cache = nn.gru_forward(TimeSeriesBatch(x), model)
    _, d_logits = nn.bce_loss(probs, y)
    grads, grad_input = nn.gru_backward(d_logits, cache)
    assert grad_input.shape == x.shape

    params = model.parameters()
    worst = check_grads(loss_fn, grads, params)
    assert max(worst.values()) < 1e-4, worst
    assert rel_err(grad_input, numeric_grad(loss_fn, x)) < 1e-4


def test_gru_backward_zero_loss_gradient():
    model = nn.GruStack(d_in=2, hidden=(3,), head=(4,), n_classes=1, dropout=0.0,
                        rng=np.random.default_rng(7))
    x = TimeSeriesBatch(np.random.default_rng(8).normal(size=(3, 2, 4)))
    _, cache = nn.gru_forward(x, model)
    grads, grad_input = nn.gru_backward(np.zeros((3, 1)), cache)
    assert np.allclose(grad_input, 0.0)
    assert all(np.allclose(g, 0.0) for g in grads.values())


def test_bce_examples_and_fd():
    y = np.array([1, 0, 1, 0])
    loss, _ = nn.bce_loss(y.astype(float), y)
    assert loss < 1e-10
    loss, _ = nn.bce_loss(np.full(4, 0.5), y)
    assert loss == pytest.approx(np.log(2.0))

    rng = np.random.default_rng(9)
    logits = rng.normal(size=6)
    y = rng.integers(0, 2, 6)

    def loss_fn():
        return nn.bce_loss(1.0 / (1.0 + np.exp(-logits)), y)[0]

    _, d_logits = nn.bce_loss(1.0 / (1.0 + np.exp(-logits)), y)
    assert rel_err(d_logits.ravel(), numeric_grad(loss_fn, logits)) < 1e-6


def test_cross_entropy_fd():
    rng = np.random.default_rng(10)
    logits = rng.normal(size=(5, 3))
    y = rng.integers(0, 3, 5)

    def softmax(v):
        e = np.exp(v - v.max(axis=1, keepdims=True))
        return e / e.sum(axis=1, keepdims=True)

    def loss_fn():
        return nn.cross_entropy_loss(softmax(logits), y)[0]

    _, d_logits = nn.cross_entropy_loss(softmax(logits), y)
    assert rel_err(d_logits, numeric_grad(loss_fn, logits)) < 1e-6
    with pytest.raises(ValueError):
        nn.cross_entropy_loss(softmax(logits), np.array([0, 1, 2, 3, 0]))


def test_sgd_scalar_step():
    cfg = nn.TrainConfig(base_lr=0.1, optimizer="sgd")
    opt = nn.Optimizer(cfg)
    params = {"w": np.array([1.0])}
    opt.step(params, {"w": np.array([1.0])}, {"w": "model"})
    assert params["w"][0] == pytest.approx(0.9)


def test_zero_correction_freezes_group():
    cfg = nn.TrainConfig(base_lr=0.1, optimizer="sgd",
                         corrections={"outlier": 1.0, "shift": 0.0, "scale": 1.0, "power": 1.0})
    opt = nn.Optimizer(cfg)
    params = {"m": np.array([2.0]), "s": np.array([2.0])}
    opt.step(params, {"m": np.array([1.0]), "s": np.array([1.0])},
             {"m": "shift", "s": "scale"})
    assert params["m"][0] == 2.0
    assert params["s"][0] == pytest.approx(1.9)


def test_adam_first_step_is_signed_lr():
    # bias correction makes the first update -lr * sign(g) exactly when eps = 0
    cfg = nn.TrainConfig(base_lr=1e-3, optimizer="adam", adam_eps=0.0)
    opt = nn.Optimizer(cfg)
    for mag in (1e-8, 1e-3, 1.0, 1e6):
        params = {"w": np.array([0.0, 0.0])}
        opt2 = nn.Optimizer(cfg)
        opt2.step(params, {"w": np.array([mag, -mag])}, {"w": "model"})
        assert abs(params["w"][0] + 1e-3) < 1e-12
        assert abs(params["w"][1] - 1e-3) < 1e-12


def test_optimizer_state_matches_out_of_place_updates():
    # moments update in place, with the same rounding as the textbook form
    rng = np.random.default_rng(29)
    grads = [rng.normal(size=(3, 4)) for _ in range(4)]
    for kind in ("adam", "rmsprop"):
        cfg = nn.TrainConfig(base_lr=1e-2, optimizer=kind)
        opt = nn.Optimizer(cfg)
        w = rng.normal(size=(3, 4))
        ref_w, m, v, sq = w.copy(), np.zeros_like(w), np.zeros_like(w), np.zeros_like(w)
        for t, g in enumerate(grads, start=1):
            opt.step({"w": w}, {"w": g}, {"w": "model"})
            if kind == "adam":
                m = cfg.adam_beta1 * m + (1 - cfg.adam_beta1) * g
                v = cfg.adam_beta2 * v + (1 - cfg.adam_beta2) * g * g
                m_hat = m / (1 - cfg.adam_beta1 ** t)
                v_hat = v / (1 - cfg.adam_beta2 ** t)
                ref_w -= cfg.base_lr * m_hat / (np.sqrt(v_hat) + cfg.adam_eps)
                assert np.array_equal(opt.state["w"]["m"], m)
                assert np.array_equal(opt.state["w"]["v"], v)
            else:
                sq = cfg.rms_alpha * sq + (1 - cfg.rms_alpha) * g * g
                ref_w -= cfg.base_lr * g / (np.sqrt(sq) + cfg.rms_eps)
                assert np.array_equal(opt.state["w"]["sq"], sq)
            assert np.array_equal(w, ref_w), (kind, t)


def test_snapshot_is_a_copy_and_restore_writes_back():
    model = nn.GruStack(d_in=2, hidden=(3,), head=(4,), n_classes=1, dropout=0.0)
    before = {name: arr.copy() for name, arr in model.parameters().items()}
    snap = model.snapshot()
    for arr in model.parameters().values():
        arr += 1.0
    assert all(np.array_equal(snap[name], before[name]) for name in before)
    model.restore(snap)
    assert all(np.array_equal(arr, before[name]) for name, arr in model.parameters().items())
    assert np.shares_memory(model.cells[0]["whr"], model.stacked[0]["wh"])


def test_unknown_group_tag_rejected():
    opt = nn.Optimizer(nn.TrainConfig())
    with pytest.raises(ValueError, match="group tag"):
        opt.step({"w": np.array([1.0])}, {"w": np.array([1.0])}, {"w": "mystery"})


def test_train_loop_learns_separable_data():
    train = toy_dataset(n=160, seed=11)
    valid = toy_dataset(n=60, seed=12)
    model = nn.GruStack(d_in=2, hidden=(8,), head=(8,), n_classes=1, dropout=0.0,
                        rng=np.random.default_rng(13))
    cfg = nn.TrainConfig(base_lr=1e-2, max_epochs=30, batch_size=32, milestones=(),
                         patience=30, seed=14)
    result = nn.train_loop(train, valid, None, model, cfg)
    probs, _ = nn.gru_forward(valid.batch, result.model)
    acc = ((probs >= 0.5).astype(int) == valid.labels).mean()
    assert acc > 0.95
    assert result.history[-1]["valid_loss"] >= 0.0


def test_patience_zero_stops_after_first_non_improvement():
    train = toy_dataset(n=40, seed=15, separation=0.0)  # pure noise
    valid = toy_dataset(n=40, seed=16, separation=0.0)
    model = nn.GruStack(d_in=2, hidden=(4,), head=(4,), n_classes=1, dropout=0.0,
                        rng=np.random.default_rng(17))
    cfg = nn.TrainConfig(base_lr=0.5, max_epochs=50, batch_size=16, milestones=(),
                         patience=0, seed=18)
    result = nn.train_loop(train, valid, None, model, cfg)
    first_bad = next(i for i, h in enumerate(result.history)
                     if i > 0 and h["valid_loss"] >= result.history[i - 1]["valid_loss"])
    assert len(result.history) == first_bad + 1


def test_train_loop_bit_reproducible():
    train = toy_dataset(n=80, seed=19)
    valid = toy_dataset(n=40, seed=20)

    def run():
        model = nn.GruStack(d_in=2, hidden=(4,), head=(4,), n_classes=1, dropout=0.2,
                            rng=np.random.default_rng(21))
        cfg = nn.TrainConfig(base_lr=1e-2, max_epochs=6, batch_size=16, milestones=(2,),
                             patience=5, seed=22)
        return nn.train_loop(train, valid, None, model, cfg).history

    a, b = run(), run()
    assert a == b  # bit-identical floats


def test_frozen_neutral_edain_matches_no_preprocessing():
    train = toy_dataset(n=64, seed=23)
    valid = toy_dataset(n=32, seed=24)
    zero = {"outlier": 0.0, "shift": 0.0, "scale": 0.0, "power": 0.0}

    def run(preproc):
        model = nn.GruStack(d_in=2, hidden=(4,), head=(4,), n_classes=1, dropout=0.2,
                            rng=np.random.default_rng(25))
        cfg = nn.TrainConfig(base_lr=1e-2, max_epochs=5, batch_size=16, milestones=(),
                             patience=5, seed=26, corrections=zero)
        return nn.train_loop(train, valid, preproc, model, cfg).history

    assert run(None) == run(EdainLayer(d=2))


def test_lr_schedule_decays_at_milestones():
    cfg = nn.TrainConfig(base_lr=1.0, milestones=(4, 7), gamma=0.1)
    assert nn._lr_at(cfg, 1) == 1.0
    assert nn._lr_at(cfg, 4) == pytest.approx(0.1)
    assert nn._lr_at(cfg, 7) == pytest.approx(0.01)
    assert nn._lr_at(cfg, 30) == pytest.approx(0.01)


def test_model_checkpoint_roundtrip():
    model = nn.GruStack(d_in=2, hidden=(3, 3), head=(4,), n_classes=3, dropout=0.1,
                        rng=np.random.default_rng(27))
    back = nn.GruStack.from_json_dict(model.to_json_dict())
    x = TimeSeriesBatch(np.random.default_rng(28).normal(size=(4, 2, 5)))
    pa, _ = nn.gru_forward(x, model)
    pb, _ = nn.gru_forward(x, back)
    assert np.array_equal(pa, pb)


@pytest.mark.parametrize("edit, message", [
    (lambda p: p.__setitem__("cell0.whr", [0.5]), "'cell0.whr' has shape (1,), expected (3, 3)"),
    (lambda p: p.pop("cell0.bz"), "missing parameter 'cell0.bz'"),
    (lambda p: p.__setitem__("cell9.whr", [[0.0]]), "unknown parameter 'cell9.whr'"),
    (lambda p: p.__setitem__("head0.b", [1.0, "x", 0.0, 0.0]), "'head0.b' is not numeric"),
    (lambda p: p.__setitem__("head1.b", [float("nan")]), "'head1.b' is not finite"),
])
def test_model_checkpoint_rejects_bad_parameters(edit, message):
    model = nn.GruStack(d_in=2, hidden=(3,), head=(4,), n_classes=1, dropout=0.0)
    doc = model.to_json_dict()
    edit(doc["params"])
    with pytest.raises(ValueError, match=re.escape(message)):
        nn.GruStack.from_json_dict(doc)


def test_model_checkpoint_missing_field_is_named():
    doc = nn.GruStack(d_in=2, hidden=(3,), head=(4,)).to_json_dict()
    del doc["hidden"]
    with pytest.raises(ValueError, match="missing field 'hidden'"):
        nn.GruStack.from_json_dict(doc)
