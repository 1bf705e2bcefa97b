"""Checkpoint loading: stored fixtures reload bit for bit, bad entries are named."""

import json
import re
from pathlib import Path

import numpy as np
import pytest

from tsnorm import flow_kl as fk
from tsnorm.adaptive import DainLayer, EdainLayer
from tsnorm.cli import _load_preproc, main
from tsnorm.data import LabeledDataset, TimeSeriesBatch, save_csv
from tsnorm.harness import fold_metrics
from tsnorm.neural import GruStack, gru_forward

DATA = Path(__file__).parent / "data"

# written by tools/checkpoint_fixtures.py before the loaders were unified
FIXTURES = ("edain_global", "edain_local", "dain", "edain_kl", "static", "identity")


@pytest.mark.parametrize("kind", FIXTURES)
def test_stored_checkpoint_reloads_bit_identical(kind):
    doc = json.loads((DATA / f"ckpt_{kind}.json").read_text())
    preproc = _load_preproc(doc["checkpoint"]["preproc"])
    model = GruStack.from_json_dict(doc["checkpoint"]["model"])
    held = LabeledDataset(TimeSeriesBatch(np.array(doc["values"])), np.array(doc["labels"]))
    xn, _ = preproc.forward(held.batch, training=False)
    probs, _ = gru_forward(xn, model, training=False)
    assert np.array_equal(xn.values, np.array(doc["preproc_out"]))
    assert np.array_equal(probs, np.array(doc["probs"]))
    assert fold_metrics(held, probs) == doc["metrics"]
    resaved = {"preproc": preproc.to_json_dict(), "model": model.to_json_dict()}
    assert json.dumps(resaved, sort_keys=True) == json.dumps(doc["checkpoint"], sort_keys=True)


def _edain_doc():
    return EdainLayer(3).to_json_dict()


def _dain_doc():
    return DainLayer(3).to_json_dict()


def _kl_doc():
    return fk.init_kl_params(3).to_json_dict()


def _truncate(field):
    def edit(doc):
        doc[field] = doc[field][:2]
    return edit


def _set_first(field, value):
    def edit(doc):
        doc[field][0] = value
    return edit


def _drop(field):
    return lambda doc: doc.pop(field)


def _set(field, value):
    def edit(doc):
        doc[field] = value
    return edit


# (checkpoint, edit, message): a 2-long first parameter makes the layer 2 wide,
# so the next 3-wide parameter is the misshapen one
MALFORMED = {
    "edain-shape": (_edain_doc, _truncate("alpha"),
                    "edain parameter 'beta' has shape (3,), expected (2,)"),
    "edain-nan": (_edain_doc, _set_first("s", float("nan")), "edain parameter 's' is not finite"),
    "edain-text": (_edain_doc, _set_first("lam", "x"), "edain parameter 'lam' is not numeric"),
    "edain-missing": (_edain_doc, _drop("alpha"), "edain checkpoint is missing parameter 'alpha'"),
    "edain-missing-mu-hat": (_edain_doc, _drop("mu_hat"),
                             "edain checkpoint is missing parameter 'mu_hat'"),
    "edain-missing-mode": (_edain_doc, _drop("mode"), "edain checkpoint is missing field 'mode'"),
    "edain-count-text": (_edain_doc, _set("count", "many"),
                         "edain field 'count' must be a non-negative integer, got 'many'"),
    "edain-count-negative": (_edain_doc, _set("count", -1),
                             "edain field 'count' must be a non-negative integer, got -1"),
    "edain-enabled-bogus": (_edain_doc, _set("enabled", ["om", "bogus"]),
                            "edain field 'enabled' has unknown sublayer 'bogus'"),
    "dain-shape": (_dain_doc, _truncate("bias"),
                   "dain parameter 'w_a' has shape (3, 3), expected (2, 2)"),
    "dain-nan": (_dain_doc, _set_first("bias", float("nan")),
                 "dain parameter 'bias' is not finite"),
    "dain-text": (_dain_doc, _set_first("w_b", [1.0, "x", 0.0]),
                  "dain parameter 'w_b' is not numeric"),
    "dain-missing": (_dain_doc, _drop("bias"), "dain checkpoint is missing parameter 'bias'"),
    "kl-shape": (_kl_doc, _truncate("beta"),
                 "edain_kl parameter 'm' has shape (3,), expected (2,)"),
    "kl-nan": (_kl_doc, _set_first("mu_hat", float("inf")),
               "edain_kl parameter 'mu_hat' is not finite"),
    "kl-null": (_kl_doc, _set_first("s", None), "edain_kl parameter 's' is not finite"),
    "kl-text-string": (_kl_doc, _set_first("lam", "x"), "edain_kl parameter 'lam' is not numeric"),
    "kl-missing": (_kl_doc, _drop("beta"), "edain_kl checkpoint is missing parameter 'beta'"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_layer_checkpoint_names_the_parameter(case):
    make, edit, message = MALFORMED[case]
    doc = make()
    edit(doc)
    with pytest.raises(ValueError, match=re.escape(message)):
        _load_preproc(doc)


@pytest.mark.parametrize("case", ["edain-shape", "dain-nan", "kl-text-string", "kl-missing",
                                  "edain-missing-mode", "edain-count-text",
                                  "edain-count-negative", "edain-enabled-bogus"])
def test_cli_reports_malformed_layer_checkpoint(tmp_path, capsys, case):
    make, edit, message = MALFORMED[case]
    doc = make()
    edit(doc)
    ckpt, data = tmp_path / "ckpt.json", tmp_path / "data.csv"
    ckpt.write_text(json.dumps({"preproc": doc}))
    values = np.random.default_rng(0).normal(size=(4, 3, 5))
    save_csv(LabeledDataset(TimeSeriesBatch(values), np.array([0, 1, 0, 1])), data)
    assert main(["preprocess", "--checkpoint", str(ckpt), "--data", str(data),
                 "--out", str(tmp_path / "out.csv")]) == 2
    assert f"error: ValueError: {message}" in capsys.readouterr().err


# the layer each adaptive fixture's preprocessing names in a feature-count error
LAYER_NAMES = {"edain_global": "EDAIN layer", "edain_local": "EDAIN layer",
               "dain": "DAIN layer", "edain_kl": "EDAIN-KL bijector"}


@pytest.mark.parametrize("kind", sorted(LAYER_NAMES))
@pytest.mark.parametrize("d", [1, 2, 4])
def test_cli_names_both_feature_counts_of_an_adaptive_layer(tmp_path, capsys, kind, d):
    doc = json.loads((DATA / f"ckpt_{kind}.json").read_text())
    ckpt, data = tmp_path / "ckpt.json", tmp_path / "data.csv"
    ckpt.write_text(json.dumps(doc["checkpoint"]))
    values = np.random.default_rng(0).normal(size=(12, d, 5))
    save_csv(LabeledDataset(TimeSeriesBatch(values), np.array(doc["labels"])), data)
    message = f"error: ValueError: batch has {d} features, {LAYER_NAMES[kind]} expects 3"
    assert main(["preprocess", "--checkpoint", str(ckpt), "--data", str(data),
                 "--out", str(tmp_path / "out.csv")]) == 2
    assert message in capsys.readouterr().err
    assert main(["evaluate", "--checkpoint", str(ckpt), "--data", str(data)]) == 2
    assert message in capsys.readouterr().err
