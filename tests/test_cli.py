import json

import numpy as np
import pytest

from tsnorm import cli, harness, neural
from tsnorm.cli import main
from tsnorm.data import load_csv, save_csv


def small_experiment_config(tmp_path, data_path, method="zscore", **extra):
    doc = {
        "method": method,
        "seed": 0,
        "dataset": {"csv": str(data_path)},
        "model": {"hidden": [4], "head": [4], "dropout": 0.0},
        "train": {"max_epochs": 2, "batch_size": 32, "milestones": [], "patience": 5},
        "cv": {"kind": "holdout", "valid_fraction": 0.2},
    }
    doc.update(extra)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path


@pytest.fixture()
def dataset_csv(tmp_path):
    path = tmp_path / "data.csv"
    code = main(["generate", "--n", "200", "--t", "6", "--seed", "11", "--out", str(path)])
    assert code == 0
    return path


def test_generate_writes_loadable_csv(dataset_csv):
    ds = load_csv(dataset_csv)
    assert ds.n == 200
    assert ds.batch.d == 3
    assert ds.batch.t == 6
    assert abs(ds.labels.mean() - 0.5) < 0.1


def test_generate_then_train_end_to_end(tmp_path, dataset_csv):
    report_path = tmp_path / "report.json"
    cfg = small_experiment_config(tmp_path, dataset_csv, method="edain_global")
    code = main(["train", "--config", str(cfg), "--out", str(report_path)])
    assert code == 0
    doc = json.loads(report_path.read_text())
    assert doc["method"] == "edain_global"
    assert doc["rows"] and not doc["incomplete"]


def test_unknown_subcommand_exits_one(capsys):
    assert main(["frobnicate"]) == 1
    assert main(["train", "--bogus-flag"]) == 1


def test_missing_file_is_runtime_error(tmp_path):
    cfg = small_experiment_config(tmp_path, tmp_path / "missing.csv")
    assert main(["train", "--config", str(cfg)]) == 2


def test_report_json_byte_identical_across_runs(tmp_path, dataset_csv):
    cfg = small_experiment_config(tmp_path, dataset_csv)
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    assert main(["train", "--config", str(cfg), "--out", str(out_a)]) == 0
    assert main(["train", "--config", str(cfg), "--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()


def test_train_checkpoint_evaluate_and_preprocess(tmp_path, dataset_csv):
    cfg = small_experiment_config(tmp_path, dataset_csv, method="zscore")
    ckpt = tmp_path / "ckpt.json"
    code = main(["train", "--config", str(cfg), "--checkpoint-out", str(ckpt)])
    assert code == 0
    doc = json.loads(ckpt.read_text())
    assert doc["preproc"]["kind"] == "static"
    assert "params" in doc["model"]

    assert main(["evaluate", "--data", str(dataset_csv), "--checkpoint", str(ckpt),
                 "--out", str(tmp_path / "eval.json")]) == 0
    eval_doc = json.loads((tmp_path / "eval.json").read_text())
    assert "bce" in eval_doc["metrics"]

    out_csv = tmp_path / "norm.csv"
    assert main(["preprocess", "--checkpoint", str(ckpt), "--data", str(dataset_csv),
                 "--out", str(out_csv)]) == 0
    normalized = load_csv(out_csv)
    original = load_csv(dataset_csv)
    assert normalized.batch.values.shape == original.batch.values.shape
    assert np.array_equal(normalized.labels, original.labels)
    # z-score output has pooled mean ~0 on the training portion
    assert abs(normalized.batch.values.mean()) < 0.5


def test_train_history_out(tmp_path, dataset_csv):
    cfg = small_experiment_config(tmp_path, dataset_csv)
    hist = tmp_path / "history.csv"
    assert main(["train", "--config", str(cfg), "--history-out", str(hist)]) == 0
    lines = hist.read_text().strip().splitlines()
    assert lines[0] == "epoch,train_loss,valid_loss,lr"
    assert len(lines) >= 2
    first = lines[1].split(",")
    assert first[0] == "1"
    assert float(first[1]) > 0.0


def test_train_checkpoints_the_fold_it_trained(tmp_path, dataset_csv, monkeypatch):
    real = neural.train_loop
    valid_sets = []

    def spy(train, valid, *args, **kwargs):
        valid_sets.append(valid)
        return real(train, valid, *args, **kwargs)

    for module in (neural, harness, cli):
        if getattr(module, "train_loop", None) is real:
            monkeypatch.setattr(module, "train_loop", spy)
    cfg = small_experiment_config(tmp_path, dataset_csv, method="edain_global",
                                  cv={"kind": "kfold", "k": 3})
    report, ckpt, hist = tmp_path / "report.json", tmp_path / "ckpt.json", tmp_path / "h.csv"
    assert main(["train", "--config", str(cfg), "--out", str(report),
                 "--checkpoint-out", str(ckpt), "--history-out", str(hist)]) == 0
    assert len(valid_sets) == 3  # one training run per fold, none for the checkpoint

    row = json.loads(report.read_text())["rows"][0]
    assert len(hist.read_text().splitlines()) == 1 + row["epochs_run"]
    valid_csv, evaluated = tmp_path / "valid0.csv", tmp_path / "eval.json"
    save_csv(valid_sets[0], valid_csv)
    assert main(["evaluate", "--data", str(valid_csv), "--checkpoint", str(ckpt),
                 "--out", str(evaluated)]) == 0
    assert json.loads(evaluated.read_text())["metrics"] == row["metrics"]


def test_train_checkpoint_of_failed_first_fold_exits_two(tmp_path, dataset_csv, monkeypatch,
                                                         capsys):
    def diverge(*args, **kwargs):
        raise FloatingPointError("non-finite training loss")

    monkeypatch.setattr(harness, "train_loop", diverge)
    cfg = small_experiment_config(tmp_path, dataset_csv)
    ckpt = tmp_path / "ckpt.json"
    assert main(["train", "--config", str(cfg), "--checkpoint-out", str(ckpt)]) == 2
    assert "FloatingPointError: non-finite training loss" in capsys.readouterr().err
    assert not ckpt.exists()


def test_identity_checkpoint_preprocess_is_passthrough(tmp_path, dataset_csv):
    cfg = small_experiment_config(tmp_path, dataset_csv, method="none")
    ckpt, out_csv = tmp_path / "ckpt.json", tmp_path / "same.csv"
    assert main(["train", "--config", str(cfg), "--checkpoint-out", str(ckpt)]) == 0
    assert json.loads(ckpt.read_text())["preproc"] == {"kind": "identity"}
    assert main(["preprocess", "--checkpoint", str(ckpt), "--data", str(dataset_csv),
                 "--out", str(out_csv)]) == 0
    assert np.array_equal(load_csv(out_csv).batch.values, load_csv(dataset_csv).batch.values)


def test_unknown_preprocessing_kind_is_runtime_error(tmp_path, dataset_csv, capsys):
    ckpt = tmp_path / "ckpt.json"
    ckpt.write_text(json.dumps({"preproc": {"kind": "quantile"}}))
    assert main(["preprocess", "--checkpoint", str(ckpt), "--data", str(dataset_csv),
                 "--out", str(tmp_path / "x.csv")]) == 2
    assert "unknown preprocessing kind 'quantile'" in capsys.readouterr().err


def test_malformed_checkpoint_names_the_field(tmp_path, dataset_csv, capsys):
    ckpt = tmp_path / "ckpt.json"
    assert main(["train", "--config", str(small_experiment_config(tmp_path, dataset_csv)),
                 "--out", str(tmp_path / "r.json"), "--checkpoint-out", str(ckpt)]) == 0
    doc = json.loads(ckpt.read_text())
    doc["model"]["params"]["cell0.whr"] = [0.5]
    del doc["preproc"]["stages"][0]["std"]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["preprocess", "--checkpoint", str(bad), "--data", str(dataset_csv),
                 "--out", str(tmp_path / "x.csv")]) == 2
    assert "stage 0 (zscore) is missing field 'std'" in capsys.readouterr().err
    doc["preproc"] = {"kind": "identity"}
    bad.write_text(json.dumps(doc))
    assert main(["evaluate", "--checkpoint", str(bad), "--data", str(dataset_csv)]) == 2
    assert "'cell0.whr' has shape (1,), expected (4, 4)" in capsys.readouterr().err


def test_kl_fit_then_preprocess(tmp_path, dataset_csv):
    ckpt = tmp_path / "kl.json"
    code = main(["kl-fit", "--data", str(dataset_csv), "--out", str(ckpt),
                 "--epochs", "5", "--seed", "3"])
    assert code == 0
    doc = json.loads(ckpt.read_text())
    assert doc["preproc"]["kind"] == "edain_kl"
    assert len(doc["history"]) >= 1

    out_csv = tmp_path / "klnorm.csv"
    assert main(["preprocess", "--checkpoint", str(ckpt), "--data", str(dataset_csv),
                 "--out", str(out_csv)]) == 0
    assert load_csv(out_csv).batch.values.shape == load_csv(dataset_csv).batch.values.shape


def test_ablate_writes_seven_rows(tmp_path, dataset_csv):
    cfg = small_experiment_config(tmp_path, dataset_csv, method="edain_global",
                                  train={"max_epochs": 1, "batch_size": 64,
                                         "milestones": [], "patience": 5})
    out = tmp_path / "ablation.json"
    assert main(["ablate", "--config", str(cfg), "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert len(doc["rows"]) == 7
    labels = [row["label"] for row in doc["rows"]]
    assert labels == ["zscore", "scale", "shift", "shift+scale", "shift+scale+PT",
                      "OM+shift+scale", "OM+shift+scale+PT"]


def test_generate_with_pdf_expressions(tmp_path):
    pdf_cfg = tmp_path / "pdfs.json"
    pdf_cfg.write_text(json.dumps({
        "features": [
            {"pdf": "phi(x)", "bounds": [-6, 6], "theta": [-1, 0.5]},
            {"pdf": "np.exp(-x) * (x > 0)", "bounds": [0, 10], "theta": [-1]},
        ],
    }))
    out = tmp_path / "custom.csv"
    code = main(["generate", "--pdf-config", str(pdf_cfg), "--n", "300", "--t", "4",
                 "--seed", "0", "--out", str(out)])
    assert code == 0
    ds = load_csv(out)
    assert ds.batch.d == 2
    # second feature is exponential: strictly positive, right-skewed
    feat = ds.batch.values[:, 1, :]
    assert feat.min() >= 0.0
    assert feat.mean() == pytest.approx(1.0, abs=0.2)
