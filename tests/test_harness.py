import numpy as np
import pytest

import tsnorm.harness as hx
from tsnorm.data import (LabeledDataset, NonFiniteBatchError, RngState, TimeSeriesBatch,
                         save_csv)
from tsnorm.flow_kl import FlowDomainError
from tsnorm.yeojohnson import PowerDomainError
from tsnorm.neural import TrainConfig


def tiny_config(method="zscore", seed=0, **kw):
    defaults = dict(
        method=method, seed=seed, repetitions=1,
        synthetic=hx.SyntheticSource(n=160, t=6),
        model=hx.ModelConfig(hidden=(4,), head=(4,), dropout=0.0),
        train=TrainConfig(max_epochs=2, batch_size=32, milestones=(), patience=5),
    )
    defaults.update(kw)
    return hx.ExperimentConfig(**defaults)


def test_kfold_partition():
    folds = hx.kfold_indices(10, 5, RngState(0))
    assert len(folds) == 5
    all_valid = np.concatenate([v for _, v in folds])
    assert sorted(all_valid.tolist()) == list(range(10))
    for train, valid in folds:
        assert len(valid) == 2
        assert len(np.intersect1d(train, valid)) == 0
        assert sorted(np.concatenate([train, valid]).tolist()) == list(range(10))


def test_kfold_deterministic_and_bounds():
    a = hx.kfold_indices(20, 4, RngState(42))
    b = hx.kfold_indices(20, 4, RngState(42))
    assert all(np.array_equal(x[1], y[1]) for x, y in zip(a, b))
    with pytest.raises(ValueError):
        hx.kfold_indices(3, 5, RngState(0))
    with pytest.raises(ValueError):
        hx.kfold_indices(10, 1, RngState(0))


def test_anchored_folds_expanding_window():
    boundaries = list(range(0, 110, 10))  # 10 segments
    folds = hx.anchored_folds(boundaries)
    assert len(folds) == 9
    for i, (train, valid) in enumerate(folds, start=1):
        assert train.tolist() == list(range(0, 10 * i))
        assert valid.tolist() == list(range(10 * i, 10 * (i + 1)))
    with pytest.raises(ValueError):
        hx.anchored_folds([0, 10])
    with pytest.raises(ValueError):
        hx.anchored_folds([0, 10, 5])


def test_holdout_split_sizes():
    (train, valid), = hx.holdout_split(100, 0.2, RngState(1))
    assert len(valid) == 20 and len(train) == 80
    assert len(np.intersect1d(train, valid)) == 0


def test_fold_assignment_ignores_data_and_method():
    rng = RngState(5)
    a = hx.kfold_indices(50, 5, rng)
    b = hx.kfold_indices(50, 5, RngState(5))
    assert all(np.array_equal(x[1], y[1]) for x, y in zip(a, b))


def test_run_experiment_report_shape_and_aggregate():
    report = hx.run_experiment(tiny_config())
    assert report.method == "zscore"
    assert len(report.rows) == 1
    assert not report.incomplete
    metrics = report.rows[0]["metrics"]
    for key in ("bce", "accuracy", "amex_m", "kappa", "macro_f1"):
        assert key in metrics
    # aggregates must be recomputable from the rows
    for key, agg in report.aggregate.items():
        vals = np.array([r["metrics"][key] for r in report.rows])
        assert agg["mean"] == pytest.approx(vals.mean(), abs=1e-12)
    assert report.runtime_seconds > 0.0


def test_run_experiment_multifold_aggregate_halfwidth():
    cfg = tiny_config(cv=hx.CvConfig(kind="kfold", k=3))
    report = hx.run_experiment(cfg)
    assert len(report.rows) == 3
    vals = np.array([r["metrics"]["bce"] for r in report.rows])
    want = 1.96 * vals.std(ddof=1) / np.sqrt(3)
    assert report.aggregate["bce"]["half_width"] == pytest.approx(want, abs=1e-12)


def test_run_experiment_deterministic_json():
    a = hx.run_experiment(tiny_config(seed=3)).to_json_dict()
    b = hx.run_experiment(tiny_config(seed=3)).to_json_dict()
    assert a == b
    assert "runtime" not in str(a)


def test_static_fit_sees_training_rows_only(monkeypatch):
    seen = []
    original = hx.StaticPipeline.fit

    def spy(self, batch):
        seen.append(batch)
        return original(self, batch)

    monkeypatch.setattr(hx.StaticPipeline, "fit", spy)
    cfg = tiny_config(cv=hx.CvConfig(kind="kfold", k=4))
    dataset = hx._load_dataset(cfg, RngState(cfg.seed).child(0))
    folds = hx._make_folds(dataset.n, cfg.cv, RngState(cfg.seed).child(0).child(9999))
    report = hx.run_experiment(cfg)
    assert not report.incomplete
    assert len(seen) == 4  # one fit per fold
    for batch, (train_idx, _) in zip(seen, folds):
        assert batch.n == len(train_idx)
        assert np.array_equal(batch.values, dataset.batch.values[train_idx])


def test_edain_methods_run_and_differ_from_static():
    static = hx.run_experiment(tiny_config(seed=1))
    glob = hx.run_experiment(tiny_config(method="edain_global", seed=1))
    loc = hx.run_experiment(tiny_config(method="edain_local", seed=1))
    assert not glob.incomplete and not loc.incomplete
    assert glob.rows[0]["metrics"]["bce"] != static.rows[0]["metrics"]["bce"]
    assert loc.rows[0]["metrics"]["bce"] != glob.rows[0]["metrics"]["bce"]


def test_dain_and_kl_methods_run():
    for method in ("dain", "edain_kl", "none", "minmax", "kdit"):
        report = hx.run_experiment(tiny_config(method=method, seed=2))
        assert not report.incomplete, (method, report.incomplete)


def test_ablation_rows_and_shared_folds():
    cfg = tiny_config(train=TrainConfig(max_epochs=1, batch_size=32, milestones=(), patience=5))
    rows = hx.run_ablation(cfg)
    assert len(rows) == 7
    labels = [label for label, _ in rows]
    assert labels[0] == "zscore"
    assert labels[-1] == "OM+shift+scale+PT"
    # shared folds: identical validation sizes row for row, and identical
    # fold construction because the seed path ignores the method
    sizes = {tuple(r["n_valid"] for r in rep.rows) for _, rep in rows}
    assert len(sizes) == 1
    for label, rep in rows:
        assert not rep.incomplete, (label, rep.incomplete)


def test_sublayer_flags_require_edain():
    with pytest.raises(ValueError, match="sublayer"):
        tiny_config(method="zscore", sublayers=("shift",))


def test_experiment_config_json_roundtrip():
    cfg = tiny_config(method="edain_global", sublayers=("shift", "scale"))
    doc = cfg.to_json_dict()
    back = hx.ExperimentConfig.from_json_dict(doc)
    assert back.method == "edain_global"
    assert back.sublayers == ("shift", "scale")
    assert back.synthetic.n == 160
    assert back.train.max_epochs == 2
    assert back.to_json_dict() == doc


def test_unknown_method_rejected():
    with pytest.raises(ValueError, match="unknown preprocessing method"):
        tiny_config(method="quantile_magic")


def test_failed_fold_is_recorded_not_fatal(monkeypatch):
    def boom(*args, **kwargs):
        raise FloatingPointError("synthetic failure")

    monkeypatch.setattr(hx, "_run_fold", boom)
    report = hx.run_experiment(tiny_config())
    assert report.rows == []
    assert len(report.incomplete) == 1
    assert report.incomplete[0]["error"] == "FloatingPointError: synthetic failure"


@pytest.mark.parametrize("error", [np.linalg.LinAlgError, PowerDomainError, FlowDomainError,
                                   NonFiniteBatchError])
def test_every_numeric_fold_failure_is_recorded(monkeypatch, error):
    def boom(*args, **kwargs):
        raise error("synthetic failure")

    monkeypatch.setattr(hx, "_run_fold", boom)
    report = hx.run_experiment(tiny_config())
    assert report.incomplete == [{"rep": 0, "fold": 0,
                                  "error": f"{error.__name__}: synthetic failure"}]


@pytest.mark.parametrize("error", [TypeError, KeyError, ValueError])
def test_fold_bug_propagates(monkeypatch, error):
    def bug(*args, **kwargs):
        raise error("not a numeric failure")

    monkeypatch.setattr(hx, "_run_fold", bug)
    with pytest.raises(error, match="not a numeric failure"):
        hx.run_experiment(tiny_config())


def test_constant_feature_under_power_transform_is_a_recorded_fold_failure(tmp_path):
    rng = np.random.default_rng(8)
    values = rng.normal(size=(60, 2, 5))
    values[:, 1, :] = 3.25
    path = tmp_path / "const.csv"
    save_csv(LabeledDataset(TimeSeriesBatch(values), np.arange(60) % 2), path)
    config = tiny_config("zscore+yj", synthetic=None, csv_path=str(path),
                         cv=hx.CvConfig(kind="kfold", k=3))
    report = hx.run_experiment(config)
    assert report.rows == []
    assert [(r["rep"], r["fold"]) for r in report.incomplete] == [(0, 0), (0, 1), (0, 2)]
    for row in report.incomplete:
        assert row["error"].startswith("PowerDomainError: feature 1: ")


def test_non_finite_batch_error_is_a_value_error():
    with pytest.raises(NonFiniteBatchError, match="NaN or Inf"):
        TimeSeriesBatch(np.array([[[1.0, np.nan]]]))
    assert issubclass(NonFiniteBatchError, ValueError)
