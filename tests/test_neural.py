import re
import tracemalloc
import warnings

import numpy as np
import pytest

from gradcheck import check_grads, numeric_grad, rel_err
from tsnorm.adaptive import (BETA_MIN, GLOBAL_AWARE, LOCAL_AWARE, SCALE_FLOOR, DainLayer,
                             EdainLayer, RunningMean)
from tsnorm.data import LabeledDataset, TimeSeriesBatch
from tsnorm.flow_kl import KlBijectorParams, init_kl_params
from tsnorm.harness import KlPreproc, StaticPreproc
from tsnorm.static_norm import StaticPipeline
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


def gate_blocks(stacked):
    """A cell's stacked wx/wh/b cut into its r, z, n column blocks, named
    as a checkpoint names them (``wxr``, ``whr``, ``br``, ...)."""
    h = stacked["wh"].shape[0]
    return {f"{kind}{gate}": arr[..., g * h:(g + 1) * h]
            for g, gate in enumerate("rzn") for kind, arr in stacked.items()}


def test_single_step_matches_hand_unrolled_cell():
    rng = np.random.default_rng(3)
    model = nn.GruStack(d_in=2, hidden=(4,), head=(), n_classes=1, dropout=0.0, rng=rng)
    x = np.random.default_rng(4).normal(size=(3, 2, 1))
    probs, _ = nn.gru_forward(TimeSeriesBatch(x), model)

    cell = gate_blocks(model.stacked[0])
    x0 = x[:, :, 0]
    r = reference_sigmoid(x0 @ cell["wxr"] + cell["br"])          # h_prev = 0
    z = reference_sigmoid(x0 @ cell["wxz"] + cell["bz"])
    n = np.tanh(x0 @ cell["wxn"] + r * 0.0 + cell["bn"])
    h = (1.0 - z) * n
    logits = h @ model.head[0]["w"] + model.head[0]["b"]
    assert np.allclose(probs, reference_sigmoid(logits[:, 0]), atol=1e-12)


def test_forward_matches_hand_unrolled_cells():
    # two cells over several steps, one gate at a time through the r, z, n
    # column blocks: a mix-up of the stacked wx/wh/b columns changes the output
    model = nn.GruStack(d_in=2, hidden=(4, 3), head=(5,), n_classes=1, dropout=0.0,
                        rng=np.random.default_rng(3))
    rng = np.random.default_rng(5)
    for arr in model.parameters().values():  # distinct gates, non-zero biases
        arr[...] = rng.uniform(-0.8, 0.8, arr.shape)
    x = np.random.default_rng(4).normal(size=(3, 2, 4))
    probs, _ = nn.gru_forward(TimeSeriesBatch(x), model)

    seq = [x[:, :, t] for t in range(x.shape[2])]
    for cell in map(gate_blocks, model.stacked):
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
    # the checkpoint codec's per-gate names are the r, z, n column blocks of
    # the stacked arrays that parameters() names
    model = nn.GruStack(d_in=2, hidden=(3,), head=(), n_classes=1, dropout=0.0)
    stacked = model.stacked[0]
    assert set(model.parameters()) == {"cell0.wx", "cell0.wh", "cell0.b", "head0.w", "head0.b"}
    params = model.to_json_dict()["params"]
    assert list(params) == [f"cell0.{kind}{gate}" for gate in "rzn" for kind in ("wx", "wh", "b")] \
        + ["head0.w", "head0.b"]
    views = model._checkpoint_arrays()
    for g, gate in enumerate("rzn"):
        cols = slice(3 * g, 3 * (g + 1))
        for kind in ("wx", "wh", "b"):
            view = views[f"cell0.{kind}{gate}"]
            assert np.shares_memory(view, stacked[kind])
            assert np.array_equal(view, stacked[kind][..., cols])
            assert params[f"cell0.{kind}{gate}"] == view.tolist()
    params["cell0.whz"] = np.full((3, 3), 7.0).tolist()
    back = nn.GruStack.from_json_dict({**model.to_json_dict(), "params": params})
    assert np.all(back.stacked[0]["wh"][:, 3:6] == 7.0)
    assert np.array_equal(back.stacked[0]["wh"][:, :3], stacked["wh"][:, :3])


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
    assert set(grads) == set(params)  # 3 stacked arrays per cell, 2 per head layer
    assert len(params) == 3 * 2 + 2 * 2
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


def test_gru_backward_without_the_input_gradient_gives_the_same_model_gradients():
    rng = np.random.default_rng(9)
    model = nn.GruStack(d_in=5, hidden=(6, 4), head=(3,), n_classes=1, dropout=0.2,
                        rng=np.random.default_rng(10))
    x = TimeSeriesBatch(rng.normal(size=(7, 5, 4)))
    _, cache = nn.gru_forward(x, model, training=True, rng=np.random.default_rng(11))
    d_logits = rng.normal(size=(7, 1))
    grads, grad_input = nn.gru_backward(d_logits, cache)
    skipped, none = nn.gru_backward(d_logits, cache, input_grad=False)
    assert grad_input.shape == x.values.shape and none is None
    assert list(skipped) == list(grads)
    for name, g in grads.items():
        assert np.array_equal(skipped[name], g), name


class _NoBackward(nn.IdentityPreproc):
    def backward(self, grad_out, cache):
        raise AssertionError("a layer without parameters was asked for its backward pass")


def test_train_loop_skips_the_backward_pass_of_untrained_preprocessing():
    data = toy_dataset(n=40, seed=12)
    config = nn.TrainConfig(batch_size=16, max_epochs=2, seed=3)
    runs = []
    for preproc in (nn.IdentityPreproc(), _NoBackward()):
        model = nn.GruStack(d_in=2, hidden=(3,), head=(3,), dropout=0.0,
                            rng=np.random.default_rng(13))
        runs.append(nn.train_loop(data, data, preproc, model, config))
    assert runs[0].history == runs[1].history
    for name, arr in runs[0].model.parameters().items():
        assert np.array_equal(runs[1].model.parameters()[name], arr), name


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


def test_adam_first_step_is_signed_lr(monkeypatch):
    # bias correction makes the first update -lr * sign(g) exactly when eps = 0
    monkeypatch.setattr(nn, "ADAM_EPS", 0.0)
    cfg = nn.TrainConfig(base_lr=1e-3, optimizer="adam")
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
                m = nn.ADAM_BETA1 * m + (1 - nn.ADAM_BETA1) * g
                v = nn.ADAM_BETA2 * v + (1 - nn.ADAM_BETA2) * g * g
                m_hat = m / (1 - nn.ADAM_BETA1 ** t)
                v_hat = v / (1 - nn.ADAM_BETA2 ** t)
                ref_w -= cfg.base_lr * m_hat / (np.sqrt(v_hat) + nn.ADAM_EPS)
                assert np.array_equal(opt.state["w"]["m"], m)
                assert np.array_equal(opt.state["w"]["v"], v)
            else:
                sq = nn.RMS_ALPHA * sq + (1 - nn.RMS_ALPHA) * g * g
                ref_w -= cfg.base_lr * g / (np.sqrt(sq) + nn.RMS_EPS)
                assert np.array_equal(opt.state["w"]["sq"], sq)
            assert np.array_equal(w, ref_w), (kind, t)


SNAPSHOT_LAYERS = {
    "gru": lambda: nn.GruStack(d_in=2, hidden=(3,), head=(4,), n_classes=1, dropout=0.0),
    "identity": nn.IdentityPreproc,
    "edain_global": lambda: EdainLayer(2),
    "edain_local": lambda: EdainLayer(2, mode=LOCAL_AWARE),
    "dain": lambda: DainLayer(2),
}


def test_snapshot_is_a_copy_and_restore_writes_back():
    for kind, make in SNAPSHOT_LAYERS.items():
        layer = make()
        live = layer.parameters()
        before = {name: arr.copy() for name, arr in live.items()}
        snap = layer.snapshot()
        for arr in live.values():
            arr += 1.0
        state = getattr(layer, "state", None)
        if state is not None:  # EDAIN also rolls back its running mean
            layer.state = RunningMean(state.mu_hat + 1.0, state.count + 12)
        layer.restore(snap)
        assert all(np.array_equal(arr, before[name]) for name, arr in live.items()), kind
        assert all(layer.parameters()[name] is arr for name, arr in live.items()), kind
        if state is not None:
            assert layer.state.count == state.count, kind
            assert np.array_equal(layer.state.mu_hat, state.mu_hat), kind
    model = SNAPSHOT_LAYERS["gru"]()
    model.restore(model.snapshot())
    assert model.parameters()["cell0.wh"] is model.stacked[0]["wh"]


def test_unknown_group_tag_rejected():
    opt = nn.Optimizer(nn.TrainConfig())
    with pytest.raises(ValueError, match="group tag"):
        opt.step({"w": np.array([1.0])}, {"w": np.array([1.0])}, {"w": "mystery"})


EDAIN_MAP = {"alpha": "outlier", "beta": "outlier", "m": "shift", "s": "scale", "lam": "power"}
# each trained object's learning-rate groups and its clamps after a step, as
# explicit maps and as the np.clip/np.maximum formulas they replaced
EDAIN_CLAMPS = {"alpha": lambda a: np.clip(a, 0.0, 1.0),
                "beta": lambda a: np.maximum(a, BETA_MIN),
                "s": lambda a: np.maximum(a, SCALE_FLOOR)}
TRAINED_OBJECTS = {
    "gru": (lambda: nn.GruStack(d_in=8, hidden=(3,), head=(4,)), None, {}),
    "edain_global": (lambda: EdainLayer(8), EDAIN_MAP, EDAIN_CLAMPS),
    "edain_local": (lambda: EdainLayer(8, mode=LOCAL_AWARE), EDAIN_MAP, EDAIN_CLAMPS),
    "dain": (lambda: DainLayer(8),
             {"w_a": "shift", "w_b": "scale", "w_c": "model", "bias": "model"}, {}),
    "kl_bijector": (lambda: init_kl_params(8),
                    {"beta": "outlier", "m": "shift", "s": "scale", "lam": "power"},
                    {name: EDAIN_CLAMPS[name] for name in ("beta", "s")}),
    "identity": (nn.IdentityPreproc, {}, {}),
    "static": (lambda: StaticPreproc(StaticPipeline(["zscore"]).fit(
        TimeSeriesBatch(np.arange(16.0).reshape(2, 8, 1)))), {}, {}),
    "kl_preproc": (lambda: KlPreproc(init_kl_params(8)), {}, {}),
}


@pytest.mark.parametrize("kind", TRAINED_OBJECTS)
def test_groups_equal_each_objects_explicit_map(kind):
    make, want, _ = TRAINED_OBJECTS[kind]
    obj = make()
    assert obj.groups() == (want if want is not None else dict.fromkeys(obj.parameters(), "model"))


@pytest.mark.parametrize("kind", TRAINED_OBJECTS)
def test_projection_equals_the_clip_and_maximum_formulas_bit_for_bit(kind):
    make, _, clamps = TRAINED_OBJECTS[kind]
    obj = make()
    # -inf, below every floor, below SCALE_FLOOR and BETA_MIN, NaN, feasible, +inf
    special = np.array([-np.inf, -0.5, 1e-9, 0.2, np.nan, 0.7, 2.0, np.inf])
    want = {}
    for name, arr in obj.parameters().items():
        assert name not in clamps or arr.size >= special.size, name  # holds every value
        arr[...] = np.resize(special, arr.shape)
        want[name] = clamps.get(name, np.copy)(arr.copy())
    obj.projection()
    got = obj.parameters()
    assert got.keys() == want.keys()
    for name, arr in got.items():
        assert arr.tobytes() == want[name].tobytes(), (kind, name)


def test_train_loop_learns_separable_data():
    train = toy_dataset(n=160, seed=11)
    valid = toy_dataset(n=60, seed=12)
    model = nn.GruStack(d_in=2, hidden=(8,), head=(8,), n_classes=1, dropout=0.0,
                        rng=np.random.default_rng(13))
    cfg = nn.TrainConfig(base_lr=1e-2, max_epochs=30, batch_size=32, milestones=(),
                         patience=30, seed=14)
    result = nn.train_loop(train, valid, nn.IdentityPreproc(), model, cfg)
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
    result = nn.train_loop(train, valid, nn.IdentityPreproc(), model, cfg)
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
        return nn.train_loop(train, valid, nn.IdentityPreproc(), model, cfg).history

    a, b = run(), run()
    assert a == b  # bit-identical floats


@pytest.mark.parametrize("patience", [1, 5])
def test_train_result_keeps_the_best_epochs_validation_probabilities(patience):
    # the restored parameters and running mean predict exactly what the best
    # epoch's validation pass saw, so no extra pass is needed after training
    train = toy_dataset(n=96, seed=40)
    valid = toy_dataset(n=200, seed=41, separation=0.5)
    model = nn.GruStack(d_in=2, hidden=(4,), head=(4,), n_classes=1, dropout=0.2,
                        rng=np.random.default_rng(42))
    cfg = nn.TrainConfig(base_lr=5e-2, max_epochs=8, batch_size=16, milestones=(),
                         patience=patience, seed=43,
                         corrections={"outlier": 10.0, "shift": 1.0, "scale": 1.0, "power": 10.0})
    result = nn.train_loop(train, valid, EdainLayer(d=2, warm_start=train.batch), model, cfg)
    assert result.best_epoch < len(result.history)  # a later epoch was rolled back
    again = nn.predict(valid.batch, result.preproc, result.model)
    assert result.valid_probs.tobytes() == again.tobytes()


def test_train_config_refuses_non_positive_counts_by_name():
    with pytest.raises(ValueError, match="batch_size must be positive, got 0"):
        nn.TrainConfig(batch_size=0)
    with pytest.raises(ValueError, match="max_epochs must be nonnegative, got -3"):
        nn.TrainConfig(max_epochs=-3)
    with pytest.raises(ValueError, match="corrections has unknown group 'outlir'"):
        nn.TrainConfig(corrections={"outlir": 1.0})
    with pytest.raises(ValueError, match="correction 'scale' must be nonnegative"):
        nn.TrainConfig(corrections={"scale": -1.0})
    for rate in ("nan", "inf"):  # either used to load and train its group at that rate
        with pytest.raises(ValueError, match=f"^learning-rate correction 'shift' must be "
                                             f"nonnegative and finite, got {rate}$"):
            nn.TrainConfig(corrections={"shift": float(rate)})
    assert nn.TrainConfig(max_epochs=0).max_epochs == 0  # fit_kl's starting point


@pytest.mark.parametrize("milestones", [(4, 4), (2, 5, 5), (7, 4)])
def test_train_config_refuses_milestones_that_do_not_strictly_increase(milestones):
    # (4, 4) used to load and decay the rate twice at epoch 4
    want = f"lr milestones must be strictly increasing, got {list(milestones)}"
    with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
        nn.TrainConfig(milestones=milestones)


@pytest.mark.parametrize("field, value, want", [
    ("optimizer", "adamw", "sgd, adam or rmsprop"),
    ("base_lr", float("nan"), "finite and positive"),
    ("base_lr", 0.0, "finite and positive"),
    ("gamma", -3.0, "finite and positive"),
    ("gamma", float("inf"), "finite and positive"),
    ("patience", -2, "nonnegative"),
])
def test_train_config_refuses_out_of_bounds_optimizer_fields(field, value, want):
    with pytest.raises(ValueError, match=f"^{field} must be {want}, got {re.escape(repr(value))}$"):
        nn.TrainConfig(**{field: value})


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

    assert run(nn.IdentityPreproc()) == run(EdainLayer(d=2))


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


@pytest.mark.parametrize("name, values", [
    ("d_in", [0, -1, 2.0, "2", True, None]),
    ("hidden", [[], [0], [3.0], ["3"], [True], 3, "3", None]),
    ("head", [[0], [4.5], ["4"], 4, "4", None]),
    ("n_classes", [0, 2, 1.0, "1", True, None]),
    ("dropout", [-0.1, 1.0, "0.2", True, None, [0.2]]),
])
def test_model_checkpoint_rejects_bad_header(name, values):
    for value in values:
        doc = nn.GruStack(d_in=2, hidden=(3,), head=(4,)).to_json_dict()
        doc[name] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"^model {name} must be .*, got "):
                nn.GruStack.from_json_dict(doc)


# --- blocked evaluation -------------------------------------------------------

def frozen_layer(kind: str, train: TimeSeriesBatch, rng):
    """A preprocessing layer of ``kind``, moved off its neutral start."""
    d = train.d
    if kind == "identity":
        return nn.IdentityPreproc()
    if kind in ("zscore", "kdit"):
        return StaticPreproc(StaticPipeline([kind]).fit(train))
    if kind == "edain_kl":
        return KlPreproc(KlBijectorParams(beta=rng.uniform(2, 5, d), m=rng.normal(0, 0.5, d),
                                          s=rng.uniform(0.5, 2, d), lam=rng.uniform(0.4, 1.6, d),
                                          mu_hat=rng.normal(0, 0.5, d)))
    if kind == "dain":
        layer = DainLayer(d)
        layer.params.w_a[...] = np.eye(d) + rng.normal(0, 0.3, (d, d))
        layer.params.w_b[...] = np.eye(d) + rng.normal(0, 0.1, (d, d))
        layer.params.w_c[...] = rng.normal(0, 0.3, (d, d))
        return layer
    mode = LOCAL_AWARE if kind == "edain_local" else GLOBAL_AWARE
    layer = EdainLayer(d, mode, warm_start=train)
    layer.params.alpha[...] = rng.uniform(0.2, 0.9, d)
    layer.params.beta[...] = rng.uniform(1.0, 3.0, d)
    layer.params.lam[...] = rng.uniform(0.5, 1.5, d)
    layer.state = RunningMean(rng.normal(0, 0.5, d), 100)
    return layer


@pytest.mark.parametrize("n_classes", [1, 3])
@pytest.mark.parametrize("kind", ["identity", "zscore", "kdit", "edain_global", "edain_local",
                                  "dain", "edain_kl"])
def test_predict_matches_one_full_pass(kind, n_classes):
    rng = np.random.default_rng(40)
    values = rng.normal(0.5, 2.0, size=(1000, 3, 10))
    layer = frozen_layer(kind, TimeSeriesBatch(values[:300]), rng)
    model = nn.GruStack(d_in=3, n_classes=n_classes, rng=np.random.default_rng(41))
    for n in (0, 1, 127, 128, 129, 1000):
        batch = TimeSeriesBatch(values[:n])
        got = nn.predict(batch, layer, model)
        if n == 0:
            assert got.shape == ((0,) if n_classes == 1 else (0, 3))
            continue
        xn, _ = layer.forward(batch, training=False)
        want, _ = nn.gru_forward(xn, model, training=False)
        assert got.shape == want.shape and np.array_equal(got, want), n


def test_row_blocks_cover_every_series_once():
    assert nn.PREDICT_ROWS == 128
    for n in (0, 1, 63, 128, 129, 191, 192, 1000, 1153):
        blocks = nn._row_blocks(n)
        assert [i for rows in blocks for i in range(rows.start, rows.stop)] == list(range(n))
        assert all(rows.start % 128 == 0 for rows in blocks)
        # no block shorter than half a block unless the whole batch is
        assert all(rows.stop - rows.start >= min(n, 64) for rows in blocks)


@pytest.mark.parametrize("k, cols, transposed", [
    (3, 96, False), (32, 96, False), (128, 96, False),   # GRU input and recurrent products
    (32, 64, False), (64, 32, False), (32, 1, False), (32, 3, False),  # head layers
    (3, 3, True), (128, 128, True),                       # DAIN mixing, a @ w.T
])
def test_blas_product_rows_do_not_depend_on_the_row_blocks(k, cols, transposed):
    # predict's bit identity rests on this property of the BLAS numpy uses
    rng = np.random.default_rng(42)
    b = rng.normal(size=(cols, k)).T if transposed else rng.normal(size=(k, cols))
    for n in (1000, 1100, 1153, 1312):  # trailing blocks of 104, 76, 129 and 160 rows
        a = rng.normal(size=(n, k))
        blocked = np.concatenate([a[rows] @ b for rows in nn._row_blocks(n)])
        assert np.array_equal(blocked, a @ b), n


def test_evaluate_loss_memory_does_not_grow_with_n():
    rng = np.random.default_rng(43)
    layer = frozen_layer("edain_global", TimeSeriesBatch(rng.normal(size=(200, 3, 10))), rng)
    model = nn.GruStack(d_in=3, rng=np.random.default_rng(44))
    peaks = {}
    for n in (500, 4000):
        valid = LabeledDataset(TimeSeriesBatch(rng.normal(size=(n, 3, 10))),
                               rng.integers(0, 2, n), "binary")
        tracemalloc.start()
        try:
            nn.evaluate_loss(valid, layer, model)
            peaks[n] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[4000] <= 1.5 * peaks[500], peaks
