import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.special import ndtr

from tsnorm import cli, harness, neural
from tsnorm.cli import main
from tsnorm.data import LabeledDataset, load_csv, save_csv


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


def test_ablate_with_a_preset_runs_all_seven_rows(tmp_path, dataset_csv):
    # the zscore row reads no preset, so it runs with the preset left out
    cfg = small_experiment_config(tmp_path, dataset_csv)
    out = tmp_path / "ablation.json"
    assert main(["ablate", "--config", str(cfg), "--preset", "desk-global", "--epochs", "1",
                 "--out", str(out)]) == 0
    rows = json.loads(out.read_text())["rows"]
    assert len(rows) == 7 and all(row["report"]["rows"] for row in rows)
    assert [row["report"]["config"]["preset"] for row in rows] == [None] + ["desk-global"] * 6
    assert rows[0]["report"]["config"]["train"]["corrections"] == dict.fromkeys(
        ("outlier", "shift", "scale", "power"), 1.0)


def test_kl_fit_defaults_are_the_edain_kl_methods(tmp_path, dataset_csv):
    assert harness.kl_fit_config({"power": 2.0}) == neural.TrainConfig(
        base_lr=1e-2, optimizer="adam", batch_size=256, max_epochs=30, milestones=(),
        patience=30, corrections={"power": 2.0})
    ckpt = tmp_path / "kl.json"
    assert main(["kl-fit", "--data", str(dataset_csv), "--out", str(ckpt)]) == 0
    config = harness.ExperimentConfig(method="edain_kl", synthetic=None, csv_path=str(dataset_csv))
    fitted = harness.make_preproc(config, load_csv(dataset_csv).batch)
    assert json.loads(ckpt.read_text())["preproc"] == json.loads(json.dumps(fitted.to_json_dict()))


def _ablation_of(losses):
    """run_ablation's rows, each with one complete fold of the given bce, or
    with its only fold failed where the loss is None."""
    def report(loss):
        if loss is None:
            return harness.MetricsReport("zscore", [], {}, [
                {"rep": 0, "fold": 0, "error": "FloatingPointError: diverged"}], {}, 0)
        row = {"rep": 0, "fold": 0, "metrics": {"bce": loss}}
        return harness.MetricsReport("edain_global", [row], harness._aggregate([row]), [], {}, 0)
    return lambda config: [(label, report(loss))
                           for (label, _), loss in zip(harness.ABLATION_ROWS, losses)]


def test_ablate_reads_its_loss_column_from_any_complete_row(tmp_path, dataset_csv, monkeypatch,
                                                            capsys):
    # the column used to come from the first row alone: ce, and nan on every row
    monkeypatch.setattr(cli, "run_ablation", _ablation_of([None, 0.5, 0.25, 0.125, 1.0, 2.0, 4.0]))
    assert main(["ablate", "--config", str(small_experiment_config(tmp_path, dataset_csv))]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["configuration", "bce", "+/-"]
    assert lines[1].split() == ["zscore", "nan", "nan"]
    assert [line.split()[1] for line in lines[2:]] == \
        ["0.5000", "0.2500", "0.1250", "1.0000", "2.0000", "4.0000"]


def test_ablate_with_no_complete_fold_exits_two(tmp_path, dataset_csv, monkeypatch, capsys):
    # it used to print a ce column of nan rows and exit 0
    monkeypatch.setattr(cli, "run_ablation", _ablation_of([None] * 7))
    out = tmp_path / "ablation.json"
    assert main(["ablate", "--config", str(small_experiment_config(tmp_path, dataset_csv)),
                 "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out.splitlines()[0].split() == ["configuration", "loss", "+/-"]
    assert captured.err == "error: RuntimeError: all folds failed: FloatingPointError: diverged\n"
    assert len(json.loads(out.read_text())["rows"]) == 7


def _identity_checkpoint(path, n_classes):
    model = neural.GruStack(d_in=3, hidden=(4,), head=(4,), n_classes=n_classes, dropout=0.0,
                            rng=np.random.default_rng(5))
    harness.save_report({"preproc": {"kind": "identity"}, "model": model.to_json_dict()}, path)
    return path


def test_evaluate_takes_the_label_kind_from_the_model(tmp_path, dataset_csv):
    # a ternary model on a file that holds only labels 0 and 1 used to end in
    # "prediction/label shape mismatch"
    ckpt, out = _identity_checkpoint(tmp_path / "ckpt.json", 3), tmp_path / "eval.json"
    assert set(load_csv(dataset_csv).labels.tolist()) == {0, 1}
    assert main(["evaluate", "--data", str(dataset_csv), "--checkpoint", str(ckpt),
                 "--out", str(out)]) == 0
    assert set(json.loads(out.read_text())["metrics"]) == {"ce", "accuracy", "kappa", "macro_f1"}


def test_evaluate_refuses_a_label_the_model_cannot_predict(tmp_path, dataset_csv, capsys):
    dataset = load_csv(dataset_csv)
    labels = dataset.labels.copy()
    labels[7] = 2
    ternary = tmp_path / "ternary.csv"
    save_csv(LabeledDataset(dataset.batch, labels), ternary)
    ckpt = _identity_checkpoint(tmp_path / "ckpt.json", 1)
    assert main(["evaluate", "--data", str(ternary), "--checkpoint", str(ckpt)]) == 2
    assert capsys.readouterr().err == ("error: ValueError: label 2 is outside a binary "
                                       "model's 2 classes, 0 and 1\n")


@pytest.mark.parametrize("method", ["none", "dain", "zscore", "edain_global"])
def test_holdout_that_leaves_no_training_rows_exits_two(capsys, method):
    assert main(["train", "--synth-n", "10", "--synth-t", "4", "--method", method, "--cv",
                 "holdout", "--valid-fraction", "0.99", "--epochs", "1"]) == 2
    assert capsys.readouterr().err == ("error: ValueError: holdout of 10 series at "
                                       "valid_fraction 0.99 leaves no training rows\n")


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


ESCAPE = "x*0 + ().__class__.__base__.__subclasses__().__len__()"


@pytest.mark.parametrize("expr, node", [
    (ESCAPE, "Attribute '().__class__.__base__.__subclasses__().__len__'"),
    ("np.load('pdf.npy')", "Attribute 'np.load'"),
    ("__import__('os')", "Name '__import__'"),
    ("np.exp(x=1)", "keyword 'x=1'"),
    ("[x][0]", "Subscript '[x][0]'"),
    ("(x > 0) and (x < 1)", "BoolOp 'x > 0 and x < 1'"),
    ("not x", "UnaryOp 'not x'"),
    ("0 < x < 1", "Compare '0 < x < 1'"),
], ids=["escape", "np-load", "import", "keyword", "subscript", "and", "not", "chained"])
def test_pdf_expression_outside_the_whitelist_is_rejected(expr, node):
    with pytest.raises(ValueError, match=re.escape(f"may not contain {node}")):
        cli._pdf_from_expression(expr)


def test_generate_rejects_escaping_pdf_expression(tmp_path, capsys):
    pdf_cfg = tmp_path / "pdfs.json"
    pdf_cfg.write_text(json.dumps({"features": [{"pdf": ESCAPE, "bounds": [-6, 6]}]}))
    out = tmp_path / "custom.csv"
    assert main(["generate", "--pdf-config", str(pdf_cfg), "--n", "20", "--t", "4",
                 "--out", str(out)]) == 2
    assert "may not contain Attribute" in capsys.readouterr().err
    assert not out.exists()


def test_pdf_expression_whitelist_keeps_the_documented_forms():
    x = np.linspace(-3.0, 3.0, 13)
    pdf = cli._pdf_from_expression("phi(x - 2) + 0.5 * Phi(x) * ind(-1, 1, x)"
                                   " + np.exp(-x) * (x > 0) + ((x >= 0) & ~(x >= 2))"
                                   " + e ** -np.abs(x) / pi")
    want = (np.exp(-0.5 * (x - 2) ** 2) / np.sqrt(2 * np.pi)
            + 0.5 * ndtr(x) * ((x > -1) & (x < 1)) + np.exp(-x) * (x > 0)
            + ((x >= 0) & (x < 2)) + np.e ** -np.abs(x) / np.pi)
    assert np.allclose(pdf(x), want)


@pytest.mark.parametrize("section, key, message", [
    (None, "methd", "config has unknown field 'methd'"),
    ("model", "hiden", "config model has unknown field 'hiden'"),
    ("cv", "kk", "config cv has unknown field 'kk'"),
    ("train", "max_epoch", "config train has unknown field 'max_epoch'"),
    ("dataset", "cvs", "config dataset has unknown field 'cvs'"),
], ids=["top", "model", "cv", "train", "dataset"])
def test_train_refuses_an_unknown_config_key(tmp_path, dataset_csv, capsys, section, key,
                                             message):
    cfg = small_experiment_config(tmp_path, dataset_csv)
    doc = json.loads(cfg.read_text())
    (doc if section is None else doc[section])[key] = 1
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "report.json"
    assert main(["train", "--config", str(cfg), "--out", str(out)]) == 2
    assert f"error: ValueError: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_ablate_refuses_an_unknown_synthetic_key(tmp_path, capsys):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"dataset": {"synthetic": {"n": 100, "T": 5}}}))
    assert main(["ablate", "--config", str(cfg)]) == 2
    assert "config dataset.synthetic has unknown field 'T'" in capsys.readouterr().err


@pytest.mark.parametrize("flags, message", [
    (["--epochs", "0"], "train.max_epochs must be positive, got 0"),
    (["--epochs", "-3"], "max_epochs must be nonnegative, got -3"),
    (["--repetitions", "0"], "repetitions must be positive, got 0"),
    (["--batch-size", "0"], "batch_size must be positive, got 0"),
    (["--synth-n", "0"], "synthetic n must be positive, got 0"),
    (["--synth-n", "50", "--synth-t", "0"], "synthetic t must be positive, got 0"),
], ids=["epochs-0", "epochs-neg", "repetitions", "batch-size", "synth-n", "synth-t"])
@pytest.mark.parametrize("command", ["train", "ablate"])
def test_non_positive_flag_exits_two_and_names_the_field(capsys, command, flags, message):
    assert main([command, *flags]) == 2
    assert f"error: ValueError: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("flags, message", [
    (["--n", "0"], "synthetic n must be positive, got 0"),
    (["--t", "0"], "synthetic t must be positive, got 0"),
    (["--n", "-3"], "synthetic n must be positive, got -3"),
    (["--t", "-1"], "synthetic t must be positive, got -1"),
], ids=["n-0", "t-0", "n-neg", "t-neg"])
@pytest.mark.parametrize("pdf_config", [False, True])
def test_generate_with_a_size_below_one_exits_two(tmp_path, capsys, flags, message, pdf_config):
    pdf_cfg, out = tmp_path / "pdfs.json", tmp_path / "custom.csv"
    pdf_cfg.write_text(json.dumps({"features": [{"pdf": "phi(x)", "bounds": [-6, 6]}]}))
    extra = ["--pdf-config", str(pdf_cfg)] if pdf_config else []
    assert main(["generate", *extra, *flags, "--out", str(out)]) == 2
    assert f"error: ValueError: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_data_and_synth_n_together_are_refused(dataset_csv, capsys):
    assert main(["train", "--data", str(dataset_csv), "--synth-n", "50"]) == 2
    assert "exactly one of synthetic/csv_path must be set" in capsys.readouterr().err


@pytest.mark.parametrize("flags, message", [
    (["--k", "7"], "--k needs --cv kfold"),
    (["--cv", "holdout", "--k", "7"], "--k needs --cv kfold"),
    (["--valid-fraction", "0.5"], "--valid-fraction needs --cv holdout"),
    (["--cv", "kfold", "--valid-fraction", "0.5"], "--valid-fraction needs --cv holdout"),
    (["--synth-t", "3"], "--synth-t needs --synth-n"),
], ids=["k", "k-holdout", "valid-fraction", "valid-fraction-kfold", "synth-t"])
@pytest.mark.parametrize("command", ["train", "ablate"])
def test_refining_flag_without_its_partner_is_a_usage_error(capsys, command, flags, message):
    # before, argparse defaults made these flags indistinguishable from not given,
    # and they were dropped without a word
    assert main([command, *flags]) == 1
    assert message in capsys.readouterr().err


def test_partner_flag_alone_keeps_the_defaults(tmp_path):
    alone, spelled = tmp_path / "alone.json", tmp_path / "spelled.json"
    common = ["train", "--method", "zscore", "--epochs", "1", "--batch-size", "32"]
    assert main([*common, "--synth-n", "60", "--cv", "kfold", "--out", str(alone)]) == 0
    assert main([*common, "--synth-n", "60", "--synth-t", "10", "--cv", "kfold", "--k", "5",
                 "--out", str(spelled)]) == 0
    assert alone.read_bytes() == spelled.read_bytes()
    echo = json.loads(alone.read_text())["config"]
    assert echo["cv"] == {"kind": "kfold", "k": 5}
    assert echo["dataset"] == {"synthetic": {"n": 60, "t": 10}}
    assert main([*common, "--synth-n", "60", "--cv", "holdout", "--out", str(alone)]) == 0
    assert json.loads(alone.read_text())["config"]["cv"] == {"kind": "holdout",
                                                             "valid_fraction": 0.2}


@pytest.mark.parametrize("extra, message", [
    ({"kdit_alpha": float("nan")}, "config kdit_alpha must be a finite positive number, got nan"),
    ({"winsorize_quantiles": [0.9, 0.1]},
     "config winsorize_quantiles must be two quantiles 0 <= lower < upper <= 1, got (0.9, 0.1)"),
    ({"train": {"max_epochs": "3"}}, "config train.max_epochs must be int, got '3'"),
    ({"cv": {"kind": "kfold", "k": "3"}}, "config cv.k must be Optional[int], got '3'"),
], ids=["kdit_alpha", "winsorize_quantiles", "max_epochs", "k"])
def test_train_refuses_a_bad_config_value_with_exit_two(tmp_path, dataset_csv, capsys, extra,
                                                        message):
    config = small_experiment_config(tmp_path, dataset_csv, method="edain_global", **extra)
    out = tmp_path / "report.json"
    assert main(["train", "--config", str(config), "--out", str(out)]) == 2
    assert f"error: ValueError: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_anchored_boundaries_past_the_dataset_exit_two(tmp_path, dataset_csv, capsys):
    config = small_experiment_config(tmp_path, dataset_csv,
                                     cv={"kind": "anchored", "boundaries": [0, 40, 80, 500]})
    assert main(["train", "--config", str(config)]) == 2
    assert ("error: ValueError: cv.boundaries [0, 40, 80, 500] must lie in [0, N] "
            "for N = 200 series") in capsys.readouterr().err


def test_flags_write_the_fields_of_the_config_they_override(tmp_path, dataset_csv):
    # a config plus flags and one config holding the same values give one report
    base = small_experiment_config(tmp_path, tmp_path / "elsewhere.csv", method="zscore")
    by_flags, by_config = tmp_path / "flags.json", tmp_path / "config.json"
    assert main(["train", "--config", str(base), "--data", str(dataset_csv),
                 "--method", "edain_local", "--seed", "7", "--repetitions", "2",
                 "--preset", "lob-local", "--cv", "kfold", "--k", "3", "--epochs", "1",
                 "--batch-size", "64", "--out", str(by_flags)]) == 0
    doc = json.loads(base.read_text())
    doc.update(method="edain_local", seed=7, repetitions=2, preset="lob-local",
               dataset={"csv": str(dataset_csv)}, cv={"kind": "kfold", "k": 3})
    doc["train"].update(max_epochs=1, batch_size=64)
    base.write_text(json.dumps(doc))
    assert main(["train", "--config", str(base), "--out", str(by_config)]) == 0
    assert by_flags.read_bytes() == by_config.read_bytes()
    echo = json.loads(by_flags.read_text())["config"]
    assert echo["cv"] == {"kind": "kfold", "k": 3} and echo["train"]["max_epochs"] == 1
    assert echo["model"]["hidden"] == [4] and echo["train"]["milestones"] == []


@pytest.mark.parametrize("name", sorted(harness.PRESETS))
def test_preset_flag_reaches_the_report_echo(tmp_path, dataset_csv, name):
    cfg = small_experiment_config(tmp_path, dataset_csv, method="edain_global")
    out = tmp_path / "report.json"
    assert main(["train", "--config", str(cfg), "--preset", name, "--epochs", "1",
                 "--out", str(out)]) == 0
    echo = json.loads(out.read_text())["config"]
    assert echo["preset"] == name
    assert echo["train"]["corrections"] == harness.PRESETS[name]


@pytest.mark.parametrize("doc, message", [
    ({"features": [{"pdf": "phi(x)", "bounds": [-6, 6]}], "sigma_corr": 1.0},
     "pdf config has unknown field 'sigma_corr'"),
    ({"features": [{"pdf": "phi(x)", "bounds": [-6, 6]},
                   {"pdf": "phi(x)", "bounds": [-6, 6], "sigma_esp": 2.0}]},
     "pdf config feature 1 has unknown field 'sigma_esp'"),
    ({"features": ["phi(x)"]}, "pdf config feature 0 must be a JSON object, not str"),
], ids=["top", "feature", "not-an-object"])
def test_generate_refuses_unknown_pdf_config_keys(tmp_path, capsys, doc, message):
    pdf_cfg, out = tmp_path / "pdfs.json", tmp_path / "custom.csv"
    pdf_cfg.write_text(json.dumps(doc))
    assert main(["generate", "--pdf-config", str(pdf_cfg), "--n", "20", "--t", "4",
                 "--out", str(out)]) == 2
    assert f"error: ValueError: {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("doc, message", [
    ({}, "pdf config is missing field 'features'"),
    ({"features": [{"bounds": [0, 1]}]}, "pdf config feature 0 is missing field 'pdf'"),
    ({"features": [{"pdf": "phi(x)"}]}, "pdf config feature 0 is missing field 'bounds'"),
    ({"features": 3}, "pdf config features must be list, got 3"),
    ({"features": [{"pdf": 3, "bounds": [0, 1]}]}, "pdf config feature 0.pdf must be str, got 3"),
    ({"features": [{"pdf": "phi(x)", "bounds": 3}]},
     "pdf config feature 0.bounds must be tuple[float, float], got 3"),
    ({"features": [{"pdf": "phi(x)", "bounds": [0, 1], "theta": "x"}]},
     "pdf config feature 0.theta must be tuple[float, ...], got 'x'"),
    ({"features": [{"pdf": "phi(x)", "bounds": [0, 1], "theta": []}]},
     "theta must have one non-empty coefficient row per feature"),
    ({"features": [{"pdf": "phi(x)", "bounds": [0, 1], "sigma_eps": "x"}]},
     "pdf config feature 0.sigma_eps must be float, got 'x'"),
    ({"features": [{"pdf": "phi(x)", "bounds": [0, 1]}], "sigma_cor": "x"},
     "pdf config sigma_cor must be float, got 'x'"),
    ({"features": [{"pdf": "phi(x)", "bounds": [0, 1]}], "response_threshold": [1]},
     "pdf config response_threshold must be Union[float, str], got (1,)"),
    ({"features": [{"pdf": "phi(x)", "bounds": [0, 1]}, {"pdf": "phi(x) +", "bounds": [0, 1]}]},
     "pdf config feature 1.pdf is not an expression (invalid syntax): 'phi(x) +'"),
], ids=["features-missing", "pdf-missing", "bounds-missing", "features", "pdf", "bounds",
        "theta", "theta-empty", "sigma_eps", "sigma_cor", "response_threshold", "pdf-syntax"])
def test_generate_names_a_bad_pdf_config_field(tmp_path, capsys, doc, message):
    pdf_cfg, out = tmp_path / "pdfs.json", tmp_path / "custom.csv"
    pdf_cfg.write_text(json.dumps(doc))
    assert main(["generate", "--pdf-config", str(pdf_cfg), "--n", "20", "--t", "4",
                 "--out", str(out)]) == 2
    assert f"error: ValueError: {message}" in capsys.readouterr().err
    assert not out.exists()


# Run under the C locale with Python's UTF-8 mode and locale coercion off, so
# open() without an encoding would read and write ASCII.
ASCII_LOCALE_SCRIPT = """
import locale
from tsnorm.cli import main
from tsnorm.data import CsvFormatError, load_csv, save_csv
print(locale.getpreferredencoding(False))
dataset = load_csv("nbsp.csv")
print(dataset.batch.values.ravel().tolist())
save_csv(dataset, "saved.csv")
print(load_csv("saved.csv").batch.values.ravel().tolist())
try:
    load_csv("latin1.csv")
except CsvFormatError as exc:
    print(exc)
print(main(["train", "--config", "config.json"]))
print(main(["generate", "--pdf-config", "pdfs.json", "--n", "10", "--t", "3",
            "--out", "out.csv"]))
"""


def test_text_files_are_utf8_under_an_ascii_locale(tmp_path):
    header = b"series_id,timestep,f1,label\r\n"
    # a no-break space before a number, which float() strips
    (tmp_path / "nbsp.csv").write_bytes(header + b"0,0,\xc2\xa02.5,1\r\n0,1,3.0,1\r\n")
    # the quoted line break makes the third record start on the fourth line
    (tmp_path / "latin1.csv").write_bytes(
        header + b'0,0,"2.5\n",1\r\n0,1,3\xe9,1\r\n0,2,4.0,1\r\n')
    (tmp_path / "config.json").write_bytes(
        b'{"method": "ed\xc3\xa4in", "dataset": {"synthetic": {"n": 20, "t": 3}}}')
    (tmp_path / "pdfs.json").write_bytes(
        b'{"features": [{"pdf": "ph\xc3\xaf(x)", "bounds": [0, 1]}]}')
    env = dict(os.environ, LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0",
               PYTHONPATH=str(Path(cli.__file__).resolve().parent.parent))
    env.pop("PYTHONIOENCODING", None)
    proc = subprocess.run([sys.executable, "-c", ASCII_LOCALE_SCRIPT], cwd=tmp_path, env=env,
                          capture_output=True, timeout=120)
    out = proc.stdout.decode("ascii").splitlines()
    if out and out[0].lower() not in ("ascii", "ansi_x3.4-1968", "us-ascii"):
        pytest.skip(f"the C locale reads {out[0]} here")
    assert proc.returncode == 0, proc.stderr.decode("ascii", "backslashreplace")
    assert out[1:] == ["[2.5, 3.0]", "[2.5, 3.0]", "row 3: text is not UTF-8", "2", "2"]
    err = proc.stderr.decode("ascii")
    assert "UnicodeDecodeError" not in err
    assert "unknown preprocessing method 'ed\\xe4in'" in err
    assert "pdf config feature 0.pdf may not contain Name 'ph\\xef'" in err
