import functools
import importlib.util
import json
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import tsnorm.harness as hx
from tsnorm.data import (LabeledDataset, NonFiniteBatchError, RngState, TimeSeriesBatch,
                         save_csv)
from tsnorm.flow_kl import FlowDomainError
from tsnorm.yeojohnson import PowerDomainError
from tsnorm.neural import TrainConfig
from tsnorm.synthgen import default_config, generate_dataset


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
    # EDAIN-KL has no sublayer switches: the flags used to load, go unused and
    # be echoed in the report
    with pytest.raises(ValueError, match=re.escape(
            "sublayers is not read by method 'edain_kl': leave it out or at its default, "
            "got ('om',)")):
        tiny_config(method="edain_kl", sublayers=("om",))


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


def test_a_kdit_spread_overflow_is_a_recorded_fold_failure(tmp_path):
    dataset = generate_dataset(default_config(n=300, t=10, seed=3))
    values = np.array(dataset.batch.values)
    values[17, 1, 4] = 1.7e308
    path = tmp_path / "overflow.csv"
    save_csv(LabeledDataset(TimeSeriesBatch(values), dataset.labels), path)
    config = tiny_config("kdit", synthetic=None, csv_path=str(path),
                         cv=hx.CvConfig(kind="kfold", k=2))
    report = hx.run_experiment(config)
    # the fold that trains on series 17 fails; the series counts within its training rows
    folds = hx._make_folds(300, config.cv, RngState(config.seed).child(0).child(9999))
    (fold,) = [f for f, (tr_idx, _) in enumerate(folds) if 17 in tr_idx]
    series = int(np.flatnonzero(folds[fold][0] == 17)[0])
    assert [row["fold"] for row in report.rows] == [1 - fold]
    assert report.incomplete == [{"rep": 0, "fold": fold, "error": (
        f"FloatingPointError: kdit feature 1 has a non-finite spread: its value 1.7e+308 "
        f"(series {series}, timestep 4) overflows the standard deviation")}]


def test_non_finite_batch_error_is_a_value_error():
    with pytest.raises(NonFiniteBatchError, match="NaN or Inf"):
        TimeSeriesBatch(np.array([[[1.0, np.nan]]]))
    assert issubclass(NonFiniteBatchError, ValueError)


def small_doc(**extra):
    doc = {
        "method": "edain_global", "seed": 1, "repetitions": 1,
        "dataset": {"synthetic": {"n": 120, "t": 4}},
        "model": {"hidden": [4], "head": [4], "dropout": 0.0},
        "train": {"max_epochs": 2, "batch_size": 32, "milestones": [], "patience": 5},
        "cv": {"kind": "holdout", "valid_fraction": 0.2},
    }
    doc.update(extra)
    return doc


@pytest.mark.parametrize("path, key, section", [
    ((), "methd", "config"),
    (("model",), "hiden", "config model"),
    (("cv",), "folds", "config cv"),
    (("train",), "max_epoch", "config train"),
    (("train",), "grad_clip", "config train"),
    (("dataset",), "cvs", "config dataset"),
    (("dataset", "synthetic"), "N", "config dataset.synthetic"),
    ((), "csv_path", "config"),
    # the optimizers' constants used to be train fields that the report did not echo
    *((("train",), name, "config train")
      for name in ("adam_beta1", "adam_beta2", "adam_eps", "rms_alpha", "rms_eps")),
])
def test_unknown_config_key_is_refused_by_name(path, key, section):
    doc = small_doc()
    target = doc
    for part in path:
        target = target[part]
    target[key] = 1
    with pytest.raises(ValueError, match=f"^{section} has unknown field '{key}'$"):
        hx.ExperimentConfig.from_json_dict(doc)


@pytest.mark.parametrize("doc, message", [
    ([], "config must be a JSON object, not list"),
    ({"train": [1]}, "config train must be a JSON object, not list"),
    ({"dataset": {"csv": "a.csv", "synthetic": {"n": 10}}}, "exactly one of synthetic/csv_path"),
    ({"repetitions": 0}, "repetitions must be positive, got 0"),
    ({"train": {"max_epochs": 0}}, "train.max_epochs must be positive, got 0"),
    ({"train": {"batch_size": -1}}, "batch_size must be positive, got -1"),
    ({"dataset": {"synthetic": {"n": 0}}}, "synthetic n must be positive, got 0"),
    ({"dataset": {"synthetic": {"t": -2}}}, "synthetic t must be positive, got -2"),
    ({"train": {"optimizer": "adamw"}}, "optimizer must be sgd, adam or rmsprop, got 'adamw'"),
    ({"train": {"gamma": -3.0}}, "gamma must be finite and positive, got -3.0"),
    ({"train": {"corrections": {"shift": float("inf")}}},
     "learning-rate correction 'shift' must be nonnegative and finite, got inf"),
    ({"train": {"milestones": [4, 4]}}, r"lr milestones must be strictly increasing, got \[4, 4\]"),
    # the cv fields used to fail only at the first fold, after the dataset was built
    ({"cv": {"kind": "holdout", "valid_fraction": 1.5}},
     r"^cv.valid_fraction must be in \(0, 1\), got 1.5$"),
    ({"cv": {"kind": "holdout", "valid_fraction": 0.0}},
     r"^cv.valid_fraction must be in \(0, 1\), got 0.0$"),
    ({"cv": {"kind": "holdout", "valid_fraction": float("nan")}},
     r"^cv.valid_fraction must be in \(0, 1\), got nan$"),
    ({"cv": {"kind": "anchored", "boundaries": [0, 80, 40, 120]}},
     r"^cv.boundaries must be strictly increasing, got \[0, 80, 40, 120\]$"),
    ({"cv": {"kind": "anchored", "boundaries": [0, 40, 40, 120]}},
     r"^cv.boundaries must be strictly increasing, got \[0, 40, 40, 120\]$"),
    # each fold trains with its own seed, so another train.seed would change
    # only edain_kl's fit, and the report would not say so
    ({"train": {"seed": 7}}, "^train.seed must be 0, got 7: each fold trains with a seed drawn "
                             "from the config seed$"),
    ({"train": {"seed": -1}}, "^train.seed must be 0, got -1: "),
    # a field of another cv kind used to load, unread and left out of the echo
    ({"cv": {"kind": "kfold", "k": 3, "valid_fraction": 1.5}},
     "^cv.valid_fraction does not apply to cv kind 'kfold'$"),
    ({"cv": {"kind": "holdout", "k": -4}}, "^cv.k does not apply to cv kind 'holdout'$"),
    ({"cv": {"kind": "holdout", "boundaries": [0, 40, 80]}},
     "^cv.boundaries does not apply to cv kind 'holdout'$"),
    ({"cv": {"kind": "anchored", "boundaries": [0, 40, 80], "k": 3}},
     "^cv.k does not apply to cv kind 'anchored'$"),
    # repeats and other orders used to be echoed as given, and an unknown
    # name failed only inside the first fold
    *(({"method": method, "sublayers": sublayers},
       re.escape(f"sublayers must be a subset of ['om', 'shift', 'scale', 'power'], each named "
                 f"once and in that order, got {sublayers}"))
      for method in ("edain_global", "edain_local")
      for sublayers in (["shift", "shift"], ["power", "om"], ["scale", "shift"], ["bogus"],
                        ["om", "shift", "scale", "power", "om"])),
])
def test_malformed_config_values_are_refused(doc, message):
    with pytest.raises(ValueError, match=message):
        hx.ExperimentConfig.from_json_dict(doc)


@pytest.mark.parametrize("extra, message", [
    ({"train": {"max_epochs": "3"}}, "config train.max_epochs must be int, got '3'"),
    ({"cv": {"kind": "kfold", "k": "3"}}, "config cv.k must be Optional[int], got '3'"),
    ({"cv": {"kind": "anchored", "boundaries": [0, 1.5, 3]}},
     "config cv.boundaries must be Optional[tuple[int, ...]], got (0, 1.5, 3)"),
    ({"cv": {"kind": 3}}, "config cv.kind must be str, got 3"),
    ({"repetitions": True}, "config repetitions must be int, got True"),
    ({"seed": 1.5}, "config seed must be int, got 1.5"),
    ({"method": None}, "config method must be str, got None"),
    ({"preset": ["desk-global"]}, "config preset must be Optional[str], got ('desk-global',)"),
    ({"sublayers": ["shift", 3]}, "config sublayers must be tuple[str, ...], got ('shift', 3)"),
    ({"kdit_alpha": "1"}, "config kdit_alpha must be float, got '1'"),
    ({"winsorize_quantiles": [0.1]},
     "config winsorize_quantiles must be tuple[float, float], got (0.1,)"),
    ({"warm_start": 1}, "config warm_start must be bool, got 1"),
    ({"model": {"hidden": [4, "8"]}}, "config model.hidden must be tuple[int, ...], got (4, '8')"),
    ({"model": {"head": [[4]]}}, "config model.head must be tuple[int, ...], got ([4],)"),
    ({"model": {"dropout": "0.1"}}, "config model.dropout must be float, got '0.1'"),
    ({"train": {"base_lr": None}}, "config train.base_lr must be float, got None"),
    ({"train": {"milestones": [4.5]}}, "config train.milestones must be tuple[int, ...], got (4.5,)"),
    ({"train": {"corrections": {"shift": "x"}}},
     "config train.corrections must be Optional[dict[str, float]], got {'shift': 'x'}"),
    ({"train": {"optimizer": 1}}, "config train.optimizer must be str, got 1"),
    ({"dataset": {"synthetic": {"n": 1.5}}}, "config dataset.synthetic.n must be int, got 1.5"),
    ({"dataset": {"csv": 5}}, "config dataset.csv must be Optional[str], got 5"),
], ids=lambda v: "" if isinstance(v, str) else json.dumps(v))
def test_config_value_of_the_wrong_type_is_refused_by_name(extra, message):
    # before, most of these ended in a bare TypeError from a later comparison
    with pytest.raises(ValueError) as info:
        hx.ExperimentConfig.from_json_dict(small_doc(**extra))
    assert str(info.value) == message


@pytest.mark.parametrize("extra, field", [
    ({"kdit_alpha": float("nan")}, "kdit_alpha"), ({"kdit_alpha": 0}, "kdit_alpha"),
    ({"winsorize_quantiles": [0.9, 0.1]}, "winsorize_quantiles"),
    ({"winsorize_quantiles": [0.0, 1.5]}, "winsorize_quantiles"),
])
@pytest.mark.parametrize("method", ["edain_global", "kdit"])
def test_static_fields_are_checked_when_the_config_loads(extra, field, method):
    # the EDAIN and DAIN methods never build a static pipeline, so only the
    # config can refuse these
    with pytest.raises(ValueError, match=f"^config {field} must be .*, got "):
        hx.ExperimentConfig.from_json_dict(small_doc(method=method, **extra))


def _loads_as(method, **extra):
    """The config of ``small_doc`` with ``extra`` given as lists loads with
    them as tuples, on a config of a ``method`` that reads them."""
    cfg = hx.ExperimentConfig.from_json_dict(small_doc(
        method=method, cv={"kind": "anchored", "boundaries": [0, 40, 80, 120]},
        **{name: list(value) for name, value in extra.items()}))
    assert cfg == hx.ExperimentConfig(
        method=method, seed=1, synthetic=hx.SyntheticSource(n=120, t=4),
        model=hx.ModelConfig(hidden=(4,), head=(4,), dropout=0.0),
        train=TrainConfig(max_epochs=2, batch_size=32, milestones=(), patience=5),
        cv=hx.CvConfig(kind="anchored", boundaries=(0, 40, 80, 120)), **extra)


def test_config_loader_turns_lists_into_tuples():
    _loads_as("edain_global", sublayers=("shift", "scale"))


def test_config_loader_turns_winsorize_quantiles_into_a_tuple():
    _loads_as("winsorize+zscore", winsorize_quantiles=(0.05, 0.95))


def test_each_cv_kind_fills_in_its_own_field():
    assert hx.CvConfig() == hx.CvConfig(kind="holdout") == hx.CvConfig("holdout", None, 0.2)
    assert hx.CvConfig(kind="kfold") == hx.CvConfig(kind="kfold", k=5)
    for cv, echo in (({"kind": "holdout"}, {"kind": "holdout", "valid_fraction": 0.2}),
                     ({"kind": "kfold"}, {"kind": "kfold", "k": 5}),
                     ({"kind": "kfold", "k": 3}, {"kind": "kfold", "k": 3}),
                     ({"kind": "anchored", "boundaries": [0, 40, 80]},
                      {"kind": "anchored", "boundaries": [0, 40, 80]})):
        assert hx.ExperimentConfig.from_json_dict(small_doc(cv=cv)).to_json_dict()["cv"] == echo


# every method under every cv kind, plus a sublayer subset and a preset
RERUN_CV = {"holdout": hx.CvConfig(kind="holdout"), "kfold": hx.CvConfig(kind="kfold", k=2),
            "anchored": hx.CvConfig(kind="anchored", boundaries=(0, 30, 48, 60))}
RERUN_CONFIGS = [*((method, cv, {}) for method in hx.METHODS for cv in RERUN_CV),
                 ("edain_global", "kfold", {"sublayers": ("shift", "scale", "power")}),
                 ("edain_local", "holdout", {"preset": "paper-synthetic"})]


@pytest.mark.parametrize("method, cv, extra", RERUN_CONFIGS,
                         ids=[f"{m}-{cv}-{'-'.join(map(str, e.values()))}"
                              for m, cv, e in RERUN_CONFIGS])
def test_a_reports_config_reruns_the_report(tmp_path, method, cv, extra):
    config = hx.ExperimentConfig(
        method=method, seed=2, synthetic=hx.SyntheticSource(n=60, t=4),
        model=hx.ModelConfig(hidden=(2,), head=(2,), dropout=0.1),
        train=TrainConfig(max_epochs=2, batch_size=16, milestones=(1,), gamma=0.5),
        cv=RERUN_CV[cv], **extra)
    first, again = tmp_path / "first.json", tmp_path / "again.json"
    hx.save_report(hx.run_experiment(config).to_json_dict(), first)
    report = json.loads(first.read_text(encoding="utf-8"))
    assert report["rows"] and not report["incomplete"]
    echo = report["config"]
    hx.save_report(hx.run_experiment(hx.ExperimentConfig.from_json_dict(echo)).to_json_dict(),
                   again)
    assert again.read_bytes() == first.read_bytes()


def test_anchored_boundaries_past_the_dataset_are_refused(monkeypatch):
    calls = []
    monkeypatch.setattr(hx, "_run_fold", lambda *args: calls.append(args))
    for boundaries in ([0, 40, 80, 500], [-40, 40, 80]):
        config = hx.ExperimentConfig.from_json_dict(small_doc(
            cv={"kind": "anchored", "boundaries": boundaries}))
        with pytest.raises(ValueError, match=re.escape(
                f"cv.boundaries {boundaries} must lie in [0, N] for N = 120 series")):
            hx.run_experiment(config)
    assert calls == []  # refused before any fold ran


def _labelled_csv(tmp_path, labels) -> str:
    path = tmp_path / "labels.csv"
    values = np.random.default_rng(4).normal(size=(len(labels), 2, 3))
    save_csv(LabeledDataset(TimeSeriesBatch(values), np.asarray(labels)), path)
    return str(path)


def test_anchored_validation_segment_of_one_class_is_refused(tmp_path, monkeypatch):
    calls = []
    monkeypatch.setattr(hx, "_run_fold", lambda *args: calls.append(args))
    labels = [*(np.arange(80) % 2), *[0] * 40]  # no positive in the last segment
    config = tiny_config(synthetic=None, csv_path=_labelled_csv(tmp_path, labels),
                         cv=hx.CvConfig(kind="anchored", boundaries=(0, 40, 80, 120)))
    with pytest.raises(ValueError, match="^rep 0 fold 1: the validation rows hold no positive "
                                         "label, so the fold's binary metrics are undefined$"):
        hx.run_experiment(config)
    assert calls == []  # refused before fold 0 trained


@pytest.mark.parametrize("rare, missing", [(1, "positive"), (0, "negative")])
def test_kfold_validation_fold_of_one_class_is_refused(tmp_path, monkeypatch, rare, missing):
    calls = []
    monkeypatch.setattr(hx, "_run_fold", lambda *args: calls.append(args))
    labels = np.full(120, 1 - rare)
    labels[[3, 70]] = rare  # two series of the rare class cannot reach all five folds
    config = tiny_config(seed=5, synthetic=None, csv_path=_labelled_csv(tmp_path, labels),
                         cv=hx.CvConfig(kind="kfold", k=5))
    folds = hx._make_folds(120, config.cv, RngState(5).child(0).child(9999))
    first = next(f for f, (_, valid) in enumerate(folds) if rare not in labels[valid])
    with pytest.raises(ValueError, match=f"^rep 0 fold {first}: the validation rows hold no "
                                         f"{missing} label"):
        hx.run_experiment(config)
    assert calls == []


def test_each_method_saves_a_kind_its_checkpoint_reloads_by():
    batch = TimeSeriesBatch(np.random.default_rng(6).normal(size=(12, 2, 3)))
    for method in hx.METHODS:
        layer = hx.make_preproc(tiny_config(method), batch)
        assert hx.PREPROC_KINDS[layer.to_json_dict()["kind"]] is type(layer), method


# --- a config refuses a setting its method does not read ----------------------

PROPERTY_TRAIN = TrainConfig(max_epochs=2, batch_size=16, milestones=(1,), gamma=0.5)


def _property_report(method, name=None, value=None) -> dict:
    """The report of a tiny run of ``method`` with the field ``name`` set to
    ``value``; a ValueError when the config refuses it."""
    given = {"train": PROPERTY_TRAIN}
    if name == "train.corrections":
        given["train"] = replace(PROPERTY_TRAIN, corrections=value)
    elif name is not None:
        given[name] = value
    config = hx.ExperimentConfig(
        method=method, seed=2, synthetic=hx.SyntheticSource(n=60, t=4),
        model=hx.ModelConfig(hidden=(2,), head=(2,), dropout=0.1), **given)
    return json.loads(json.dumps(hx.run_experiment(config).to_json_dict()))


_default_report = functools.cache(_property_report)


def _changes(method, name):
    """Values of the field ``name`` that change what ``method`` trains if it
    reads the field: every learning-rate group moves for a preset or a
    correction, so a preset equal to the default on the groups a method
    trains is not drawn."""
    default = hx.ExperimentConfig(method=method).resolved_corrections()
    return {
        "sublayers": st.sampled_from([("shift", "scale"), ("om",), ("shift", "scale", "power")]),
        "kdit_alpha": st.sampled_from([0.5, 2.0, 3.0]),
        "winsorize_quantiles": st.sampled_from([(0.05, 0.95), (0.1, 0.9), (0.0, 1.0)]),
        "warm_start": st.just(False),
        "preset": st.sampled_from([p for p in sorted(hx.PRESETS)
                                   if all(hx.PRESETS[p][g] != default[g] for g in default)]),
        "train.corrections": st.sampled_from([0.5, 2.0, 10.0]).map(
            lambda f: {g: rate * f for g, rate in default.items()}),
    }[name]


def test_the_method_table_names_every_setting():
    assert set(hx.SETTINGS) == {"sublayers", "kdit_alpha", "winsorize_quantiles", "warm_start",
                                "preset", "train.corrections"}
    assert {m for m, row in hx.METHODS.items() if "kdit_alpha" in row.reads} == {"kdit"}
    assert {m for m, row in hx.METHODS.items() if "warm_start" in row.reads} == {"edain_global"}
    assert {m for m, row in hx.METHODS.items() if "winsorize_quantiles" in row.reads} == \
        {"winsorize+zscore", "winsorize+zscore+yj"}
    assert {m for m, row in hx.METHODS.items() if "sublayers" in row.reads} == \
        {"edain_global", "edain_local"}
    for name in ("preset", "train.corrections"):
        assert {m for m, row in hx.METHODS.items() if name in row.reads} == \
            {"dain", "edain_global", "edain_local", "edain_kl"}


@pytest.mark.parametrize("name", hx.SETTINGS)
@pytest.mark.parametrize("method", list(hx.METHODS))
@settings(max_examples=3, deadline=None, derandomize=True)
@given(data=st.data())
def test_a_setting_changes_the_rows_or_is_refused(method, name, data):
    # two configs whose rows are equal must echo alike: a setting the method
    # does not read is refused by name, and one it reads changes the rows
    value = data.draw(_changes(method, name))
    try:
        report = _property_report(method, name, value)
    except ValueError as err:
        assert name not in hx.METHODS[method].reads
        assert str(err) == (f"{name} is not read by method {method!r}: leave it out or at its "
                            f"default, got {value!r}")
        return
    assert name in hx.METHODS[method].reads
    default = _default_report(method)
    assert report["config"] != default["config"]
    assert (report["rows"], report["incomplete"]) != (default["rows"], default["incomplete"])


@pytest.mark.parametrize("method", list(hx.METHODS))
def test_an_unread_setting_left_as_the_echo_shows_it_loads(method):
    # a static report echoes the unit corrections, and its config reruns it
    unit = dict.fromkeys(("power", "scale", "shift", "outlier"), 1.0)
    for extra in ({"kdit_alpha": 1.0}, {"winsorize_quantiles": [0.01, 0.99]},
                  {"warm_start": True}, {"preset": None},
                  {"sublayers": ["om", "shift", "scale", "power"]},
                  {"train": {"max_epochs": 2, "corrections": unit}}):
        doc = small_doc(method=method, **extra)
        assert hx.ExperimentConfig.from_json_dict(doc).method == method


def test_readme_example_config_loads():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"### Experiment config \(JSON\).*?```json\n(.*?)```", readme, re.S)
    cfg = hx.ExperimentConfig.from_json_dict(json.loads(block.group(1)))
    assert cfg.method == "edain_global" and cfg.repetitions == 5
    assert cfg.resolved_corrections() == hx.PRESETS["desk-global"]


def test_digest_configs_load():
    path = Path(__file__).resolve().parents[1] / "tools" / "digests.py"
    spec = importlib.util.spec_from_file_location("digests", path)
    digests = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(digests)
    for doc in [digests.DEEP_CONFIG, *map(digests._config, digests.METHODS)]:
        cfg = hx.ExperimentConfig.from_json_dict(doc)
        assert cfg.csv_path == doc["dataset"]["csv"] and cfg.synthetic is None
        assert cfg.model.hidden == tuple(doc["model"]["hidden"])


@pytest.mark.parametrize("name", sorted(hx.PRESETS))
def test_every_preset_reaches_the_corrections_and_the_echo(name):
    for method in ("dain", "edain_global", "edain_local", "edain_kl"):
        for cfg in (tiny_config(method=method, preset=name),
                    hx.ExperimentConfig.from_json_dict(small_doc(method=method, preset=name))):
            assert cfg.resolved_corrections() == hx.PRESETS[name]
            echo = json.loads(json.dumps(cfg.to_json_dict()))
            assert echo["preset"] == name
            assert echo["train"]["corrections"] == hx.PRESETS[name]
    # a static method trains no preprocessing group, so it refuses a preset
    with pytest.raises(ValueError, match="^preset is not read by method 'zscore'"):
        tiny_config(method="zscore", preset=name)


def test_corrections_precedence_preset_then_config_then_method_default():
    mine = {"outlier": 2.0, "shift": 3.0, "scale": 4.0, "power": 5.0}
    with_mine = TrainConfig(max_epochs=2, corrections=mine)
    assert tiny_config("edain_global", preset="lob-local", train=with_mine) \
        .resolved_corrections() == hx.PRESETS["lob-local"]
    for method in ("dain", "edain_global", "edain_local", "edain_kl"):
        assert tiny_config(method, train=with_mine).resolved_corrections() == mine
    with pytest.raises(ValueError, match="^train.corrections is not read by method 'zscore'"):
        tiny_config("zscore", train=with_mine)
    presets = {method: row.preset for method, row in hx.METHODS.items() if row.preset}
    assert presets == {"dain": "desk-dain", "edain_global": "desk-global",
                       "edain_local": "desk-local", "edain_kl": "desk-kl"}
    for method, preset in presets.items():
        assert tiny_config(method).resolved_corrections() == hx.PRESETS[preset]
    assert tiny_config("zscore").resolved_corrections() == dict.fromkeys(mine, 1.0)


def test_zero_corrections_freeze_edain_global(monkeypatch):
    zero = dict.fromkeys(("outlier", "shift", "scale", "power"), 0.0)
    real = hx.make_preproc
    starts = []

    def spy(config, train_batch):
        layer = real(config, train_batch)
        starts.append({k: v.copy() for k, v in layer.parameters().items()})
        return layer

    monkeypatch.setattr(hx, "make_preproc", spy)
    report = hx.run_experiment(hx.ExperimentConfig.from_json_dict(
        small_doc(train={"max_epochs": 3, "batch_size": 32, "milestones": [], "corrections": zero})))
    assert report.rows and not report.incomplete
    learned = report.first_fold.preproc.parameters()
    assert sorted(learned) == ["alpha", "beta", "lam", "m", "s"]
    for name, start in starts[0].items():
        assert np.array_equal(learned[name], start), name
    assert report.to_json_dict()["config"]["train"]["corrections"] == zero
