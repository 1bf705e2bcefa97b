"""Checkpoint loading: stored fixtures reload bit for bit, bad entries are
named, and no one-node change to a checkpoint, config or pdf config gets past
the loaders unnamed."""

import copy
import json
import re
import warnings
from functools import reduce
from operator import getitem
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tsnorm import cli, flow_kl as fk
from tsnorm.adaptive import DainLayer, EdainLayer
from tsnorm.cli import _load_preproc, main
from tsnorm.data import LabeledDataset, TimeSeriesBatch, load_fields, save_csv
from tsnorm.harness import ExperimentConfig, StaticPreproc, fold_metrics
from tsnorm.neural import GruStack, gru_forward
from tsnorm.static_norm import StaticPipeline

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
                    "edain parameter 'beta' has shape (3,), expected (2,) to match 'alpha'"),
    "edain-nan": (_edain_doc, _set_first("s", float("nan")),
                  "edain parameter 's' is not finite: entry [0] is nan"),
    "edain-text": (_edain_doc, _set_first("lam", "x"),
                   "edain parameter 'lam' is not numeric: entry [0] is 'x'"),
    "edain-missing": (_edain_doc, _drop("alpha"), "edain is missing parameter 'alpha'"),
    "edain-missing-mu-hat": (_edain_doc, _drop("mu_hat"), "edain is missing parameter 'mu_hat'"),
    "edain-missing-mode": (_edain_doc, _drop("mode"), "edain is missing field 'mode'"),
    "edain-count-text": (_edain_doc, _set("count", "many"), "edain count must be int, got 'many'"),
    "edain-count-negative": (_edain_doc, _set("count", -1),
                             "edain count must be non-negative, got -1"),
    "edain-enabled-bogus": (_edain_doc, _set("enabled", ["om", "bogus"]),
                            "edain enabled has unknown sublayer 'bogus'"),
    "dain-shape": (_dain_doc, _truncate("bias"),
                   "dain parameter 'w_a' has shape (3, 3), expected (2, 2) to match 'bias'"),
    "dain-nan": (_dain_doc, _set_first("bias", float("nan")),
                 "dain parameter 'bias' is not finite: entry [0] is nan"),
    "dain-text": (_dain_doc, _set_first("w_b", [1.0, "x", 0.0]),
                  "dain parameter 'w_b' is not numeric: entry [0, 1] is 'x'"),
    "dain-missing": (_dain_doc, _drop("bias"), "dain is missing parameter 'bias'"),
    "kl-shape": (_kl_doc, _truncate("beta"),
                 "edain_kl parameter 'm' has shape (3,), expected (2,) to match 'beta'"),
    "kl-nan": (_kl_doc, _set_first("mu_hat", float("inf")),
               "edain_kl parameter 'mu_hat' is not finite: entry [0] is inf"),
    "kl-null": (_kl_doc, _set_first("s", None),
                "edain_kl parameter 's' is not numeric: entry [0] is None"),
    "kl-text-string": (_kl_doc, _set_first("lam", "x"),
                       "edain_kl parameter 'lam' is not numeric: entry [0] is 'x'"),
    "kl-missing": (_kl_doc, _drop("beta"), "edain_kl is missing parameter 'beta'"),
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



def _fixture(kind: str) -> dict:
    return json.loads((DATA / f"ckpt_{kind}.json").read_text())


# (command, the checkpoint document made from a valid one, message)
MALFORMED_DOCUMENTS = {
    "evaluate-no-preproc": ("evaluate", lambda doc: {"model": doc["model"]},
                            "checkpoint is missing field 'preproc'"),
    "preprocess-no-preproc": ("preprocess", lambda doc: {"model": doc["model"]},
                              "checkpoint is missing field 'preproc'"),
    "evaluate-no-model": ("evaluate", lambda doc: {"preproc": doc["preproc"]},
                          "checkpoint is missing field 'model'"),
    "evaluate-list": ("evaluate", lambda doc: [doc], "checkpoint must be a JSON object, not list"),
    "preprocess-list": ("preprocess", lambda doc: [doc],
                        "checkpoint must be a JSON object, not list"),
    "evaluate-preproc-number": ("evaluate", lambda doc: {**doc, "preproc": 3},
                                "checkpoint preproc must be dict, got 3"),
    "preprocess-preproc-number": ("preprocess", lambda doc: {**doc, "preproc": 3},
                                  "checkpoint preproc must be dict, got 3"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_DOCUMENTS))
def test_cli_names_the_field_of_a_malformed_checkpoint_document(tmp_path, capsys, case):
    command, make, message = MALFORMED_DOCUMENTS[case]
    fixture = _fixture("identity")
    ckpt, data = tmp_path / "ckpt.json", tmp_path / "data.csv"
    ckpt.write_text(json.dumps(make(fixture["checkpoint"])))
    save_csv(LabeledDataset(TimeSeriesBatch(np.array(fixture["values"])),
                            np.array(fixture["labels"])), data)
    out = ["--out", str(tmp_path / "out.csv")] if command == "preprocess" else []
    assert main([command, "--checkpoint", str(ckpt), "--data", str(data), *out]) == 2
    assert f"error: ValueError: {message}" in capsys.readouterr().err


def _entry(*path):
    """Set the first entry of the array at ``path`` (keys below the preproc)."""
    def edit(preproc, value):
        target = preproc
        for key in path:
            target = target[key]
        target[0] = value
    return edit


# one bad array entry of ckpt_static.json (a winsorize, zscore and
# yeo_johnson pipeline) or of ckpt_edain_global.json; every one but the
# last loaded at the parent commit, and the last was a TypeError
BAD_ENTRIES = {
    "static-nan": ("static", _entry("stages", 0, "lower_clip"), float("nan"),
                   "stage 0 (winsorize) lower_clip is not finite: entry [0] is nan"),
    "static-inf": ("static", _entry("stages", 1, "mean"), float("inf"),
                   "stage 1 (zscore) mean is not finite: entry [0] is inf"),
    "static-null": ("static", _entry("stages", 1, "std"), None,
                    "stage 1 (zscore) std is not numeric: entry [0] is None"),
    "static-text": ("static", _entry("stages", 2, "lam"), "1.0",
                    "stage 2 (yeo_johnson) lam is not numeric: entry [0] is '1.0'"),
    "static-object": ("static", _entry("stages", 0, "lower_clip"), {},
                      "stage 0 (winsorize) lower_clip is not numeric: entry [0] is {}"),
    "static-flag": ("static", _entry("stages", 1, "zero_variance"), 0,
                    "stage 1 (zscore) zero_variance is not boolean: entry [0] is 0"),
    "edain-nan": ("edain_global", _entry("alpha"), float("nan"),
                  "edain parameter 'alpha' is not finite: entry [0] is nan"),
    "edain-inf": ("edain_global", _entry("m"), float("inf"),
                  "edain parameter 'm' is not finite: entry [0] is inf"),
    "edain-null": ("edain_global", _entry("s"), None,
                   "edain parameter 's' is not numeric: entry [0] is None"),
    "edain-text": ("edain_global", _entry("lam"), "1.0",
                   "edain parameter 'lam' is not numeric: entry [0] is '1.0'"),
    "edain-object": ("edain_global", _entry("alpha"), {},
                     "edain parameter 'alpha' is not numeric: entry [0] is {}"),
}


@pytest.mark.parametrize("case", sorted(BAD_ENTRIES))
def test_array_entry_that_is_not_a_finite_number_is_named(case):
    kind, edit, value, message = BAD_ENTRIES[case]
    preproc = _fixture(kind)["checkpoint"]["preproc"]
    edit(preproc, value)
    with pytest.raises(ValueError) as info:
        _load_preproc(preproc)
    assert str(info.value) == message


# --- loader property ------------------------------------------------------------

DELETE = "<delete>"
MUTANTS = (None, "x", 1.5, -1, True, [], {}, [[1.0]], 0, float("nan"), [1.0, "a"], {"a": 1},
           DELETE)
FULL_CONFIG = {
    "method": "edain_global", "seed": 3, "repetitions": 2,
    "dataset": {"synthetic": {"n": 120, "t": 4}},
    "cv": {"kind": "kfold", "k": 3},
    "model": {"hidden": [4, 4], "head": [4], "dropout": 0.1},
    "train": {"base_lr": 0.001, "optimizer": "adam", "batch_size": 32, "max_epochs": 2,
              "milestones": [1], "gamma": 0.1, "patience": 5, "seed": 0,
              "corrections": {"outlier": 1.0, "shift": 1.0, "scale": 1.0, "power": 1.0}},
    "sublayers": ["om", "shift", "scale", "power"], "preset": "desk-global",
    "kdit_alpha": 1.0, "winsorize_quantiles": [0.01, 0.99], "warm_start": True,
}
PDF_CONFIG = {
    "features": [{"pdf": "phi(x - 2) + 0.5 * phi(x + 3)", "bounds": [-8, 8], "theta": [-1, 0.5],
                  "sigma_eps": 1.0, "delta": 0.01},
                 {"pdf": "np.exp(-x) * (x > 0)", "bounds": [0, 12], "theta": [-1]}],
    "sigma_cor": 1.4, "sigma_zeta": 0.5, "sigma_beta": 2.0, "response_threshold": "adaptive",
}


def _round_trips(obj, load) -> None:
    text = json.dumps(obj.to_json_dict(), sort_keys=True)
    assert json.dumps(load(json.loads(text)).to_json_dict(), sort_keys=True) == text


def _load_checkpoint(doc) -> None:
    # what evaluate does with a checkpoint document once it is parsed
    doc = load_fields(doc, cli._CHECKPOINT, "checkpoint", required=("preproc", "model"))
    _round_trips(_load_preproc(doc["preproc"]), _load_preproc)
    _round_trips(GruStack.from_json_dict(doc["model"]), GruStack.from_json_dict)


def _static_all_steps() -> dict:
    """A fitted pipeline of the static steps the fixtures lack, with a
    constant feature (which the power transform refuses); each kdit grid
    keeps every 256th point so the document stays small."""
    values = np.random.default_rng(3).normal(size=(6, 2, 3))
    values[:, 1, :] = 1.5
    pipe = StaticPipeline(["minmax", "kdit", "cdf_inversion", "winsorize", "zscore"])
    pipe.fit(TimeSeriesBatch(values))
    doc = json.loads(json.dumps(StaticPreproc(pipe).to_json_dict()))
    kdit = doc["stages"][1]
    kdit["grid"], kdit["cdf"] = ([row[::256] for row in kdit[key]] for key in ("grid", "cdf"))
    return doc


def _load_pdf_config(doc) -> None:
    cli._synth_from_pdf_config(doc, n=20, t=3, seed=0)


DOCUMENTS = [(_fixture(kind)["checkpoint"], _load_checkpoint) for kind in FIXTURES] + [
    (_static_all_steps(), lambda doc: _round_trips(_load_preproc(doc), _load_preproc)),
    (FULL_CONFIG, lambda doc: _round_trips(ExperimentConfig.from_json_dict(doc),
                                           ExperimentConfig.from_json_dict)),
    (PDF_CONFIG, _load_pdf_config),
    ({"features": [{"pdf": "phi(x)", "bounds": [-3, 3]}]}, _load_pdf_config),
]


def _paths(node, path=()):
    """The key path of every node below the root of a JSON document."""
    items = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield path + (key,)
        yield from _paths(child, path + (key,))


NODES = [(i, path) for i, (doc, _) in enumerate(DOCUMENTS) for path in _paths(doc)]


def _names(path) -> list[str]:
    """What an error about the node at ``path`` may name: a key on the path,
    or a stage or feature (by index, or by the list that holds them)."""
    out = []
    for parent, key in zip((None, *path), path):
        if key in ("stages", "features"):
            out.append(key[:-1])
        if isinstance(key, str):
            out.append(key)
        elif parent in ("stages", "features"):
            out.append(f"{parent[:-1]} {key}")
    return out


@settings(max_examples=2000, deadline=None, derandomize=True)
@given(node=st.sampled_from(NODES), value=st.sampled_from(MUTANTS))
def test_one_node_mutation_loads_or_is_refused_by_name(node, value):
    i, path = node
    doc, load = DOCUMENTS[i]
    doc = copy.deepcopy(doc)
    parent = reduce(getitem, path[:-1], doc)
    if value == DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = copy.deepcopy(value)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            load(doc)
        except ValueError as exc:
            names = _names(path)
            assert any(re.search(rf"(?<![\w.]){re.escape(name)}\b", str(exc)) for name in names), \
                (path, value, str(exc))
