"""Experiment orchestration: preprocessing method registry, cross-validation
schemes, fold execution, and report assembly.

Reports carry per-fold metric rows plus aggregates of the form
mean +/- 1.96 * std / sqrt(K).  Fold assignment depends only on
(seed, n, k), never on data values or the method under test, so runs that
share a seed are controlled comparisons row for row.  Wall-clock runtime is
kept on the report object and printed in the text table but deliberately
left out of the JSON document, which must be byte-identical across
same-seed runs.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Callable, NamedTuple, Optional

import numpy as np

from .adaptive import ALL_SUBLAYERS, DainLayer, EdainLayer, GLOBAL_AWARE, LOCAL_AWARE
from .data import (LabeledDataset, NonFiniteBatchError, RngState, TimeSeriesBatch,
                   check_keys, from_fields, load_csv, load_fields)
from .flow_kl import FlowDomainError, KlBijectorParams, fit_kl, normalize_direction
from .metrics import amex_metric, cohen_kappa, macro_f1, predicted_class
from .neural import UNIT_CORRECTIONS, GruStack, IdentityPreproc, TrainConfig, TrainResult, \
    model_loss, train_loop
from .static_norm import StaticPipeline, check_static_fields
from .synthgen import check_sizes, default_config, generate_dataset
from .yeojohnson import PowerDomainError

# numeric failures that end one fold and are recorded as an incomplete row;
# any other exception is a bug and propagates
FOLD_FAILURES = (FloatingPointError, np.linalg.LinAlgError, PowerDomainError, FlowDomainError,
                 NonFiniteBatchError)

# Per-sublayer learning-rate corrections (relative to the base model rate).
# The reference full-scale runs used an order of magnitude more gradient
# steps than the desk-scale defaults, so the desk presets push the
# preprocessing parameters proportionally harder.
PRESETS = {
    "paper-synthetic": {"outlier": 0.1, "shift": 0.1, "scale": 0.1, "power": 0.1},
    "desk-global": {"outlier": 100.0, "shift": 0.01, "scale": 0.01, "power": 10.0},
    "desk-local": {"outlier": 10.0, "shift": 1.0, "scale": 1.0, "power": 10.0},
    "desk-dain": {"outlier": 1.0, "shift": 1.0, "scale": 1.0, "power": 1.0},
    "desk-kl": {"outlier": 100.0, "shift": 10.0, "scale": 10.0, "power": 1.0},
    "amex-global": {"outlier": 100.0, "shift": 0.01, "scale": 0.01, "power": 10.0},
    "amex-local": {"outlier": 10.0, "shift": 1.0, "scale": 1.0, "power": 10.0},
    "amex-kl": {"outlier": 100.0, "shift": 10.0, "scale": 10.0, "power": 1e-7},
    "lob-global": {"outlier": 1e-6, "shift": 10.0, "scale": 10.0, "power": 1e-3},
    "lob-local": {"outlier": 10.0, "shift": 0.01, "scale": 1e-4, "power": 10.0},
}


class Method(NamedTuple):
    """``build(config, train_batch)`` makes a fold's layer, ``reads`` names the
    method-specific config fields it reads, ``preset`` gives the corrections
    when the config sets none, and ``steps`` is a static method's pipeline."""
    build: Callable
    reads: tuple[str, ...] = ()
    preset: Optional[str] = None
    steps: tuple[str, ...] = ()


def _static(*steps: str, reads: tuple[str, ...] = ()) -> Method:
    return Method(lambda config, batch: StaticPreproc(StaticPipeline(
        list(steps), winsorize_quantiles=config.winsorize_quantiles,
        kdit_alpha=config.kdit_alpha).fit(batch)), reads, steps=steps)


def kl_fit_config(corrections: dict, seed: int = 0, lr: float = 1e-2, batch_size: int = 256,
                  epochs: int = 30) -> TrainConfig:
    """EDAIN-KL's fit settings: Adam, no milestones and patience = epochs.  An
    ``edain_kl`` fold fits with the defaults, and ``kl-fit``'s flags default to them."""
    return TrainConfig(base_lr=lr, optimizer="adam", batch_size=batch_size, max_epochs=epochs,
                       milestones=(), patience=epochs, seed=seed, corrections=corrections)


_TUNED = ("preset", "train.corrections")
METHODS = {
    "none": Method(lambda config, batch: IdentityPreproc()),
    "zscore": _static("zscore"),
    "minmax": _static("minmax"),
    "winsorize+zscore": _static("winsorize", "zscore", reads=("winsorize_quantiles",)),
    "zscore+yj": _static("zscore", "yeo_johnson"),
    "winsorize+zscore+yj": _static("winsorize", "zscore", "yeo_johnson",
                                   reads=("winsorize_quantiles",)),
    "cdf_inversion": _static("cdf_inversion"),
    "kdit": _static("kdit", reads=("kdit_alpha",)),
    "dain": Method(lambda config, batch: DainLayer(batch.d), _TUNED, "desk-dain"),
    "edain_global": Method(lambda config, batch: EdainLayer(
        batch.d, GLOBAL_AWARE, config.sublayers, batch if config.warm_start else None),
        ("sublayers", "warm_start", *_TUNED), "desk-global"),
    "edain_local": Method(lambda config, batch: EdainLayer(batch.d, LOCAL_AWARE, config.sublayers),
                          ("sublayers", *_TUNED), "desk-local"),
    "edain_kl": Method(lambda config, batch: KlPreproc(
        fit_kl(batch, kl_fit_config(config.resolved_corrections()))[0]), _TUNED, "desk-kl"),
}
# the method-specific fields, each refused by a method that does not read it
SETTINGS = tuple(dict.fromkeys(name for method in METHODS.values() for name in method.reads))

ABLATION_ROWS = (
    ("zscore", None),
    ("scale", ("scale",)),
    ("shift", ("shift",)),
    ("shift+scale", ("shift", "scale")),
    ("shift+scale+PT", ("shift", "scale", "power")),
    ("OM+shift+scale", ("om", "shift", "scale")),
    ("OM+shift+scale+PT", ("om", "shift", "scale", "power")),
)


def _section_json(obj) -> dict:
    """Each field of the dataclass ``obj`` that is set, a tuple as a list."""
    return {f.name: list(value) if isinstance(value, tuple) else value
            for f in fields(obj) if (value := getattr(obj, f.name)) is not None}


@dataclass
class ModelConfig:
    hidden: tuple[int, ...] = (32, 32)
    head: tuple[int, ...] = (64, 32)
    dropout: float = 0.2


@dataclass
class CvConfig:
    kind: str = "holdout"          # holdout | kfold | anchored
    k: Optional[int] = None
    valid_fraction: Optional[float] = None
    boundaries: Optional[tuple[int, ...]] = None

    def __post_init__(self):
        # each kind reads one field, whose default fills it when left out
        own = {"holdout": "valid_fraction", "kfold": "k", "anchored": "boundaries"}.get(self.kind)
        if own is None:
            raise ValueError(f"unknown cv scheme {self.kind!r}")
        for name in ("k", "valid_fraction", "boundaries"):
            if name != own and getattr(self, name) is not None:
                raise ValueError(f"cv.{name} does not apply to cv kind {self.kind!r}")
        if getattr(self, own) is None:
            setattr(self, own, {"valid_fraction": 0.2, "k": 5}.get(own))
        if self.kind == "kfold" and self.k < 2:
            raise ValueError("kfold needs k >= 2")
        if self.kind == "holdout" and not 0.0 < self.valid_fraction < 1.0:
            raise ValueError(f"cv.valid_fraction must be in (0, 1), got {self.valid_fraction!r}")
        if self.kind == "anchored":
            bounds = self.boundaries or ()
            if len(bounds) < 3:
                raise ValueError("anchored cv needs at least three segment boundaries")
            if any(a >= b for a, b in zip(bounds, bounds[1:])):
                raise ValueError(f"cv.boundaries must be strictly increasing, got {list(bounds)}")


@dataclass
class SyntheticSource:
    n: int = 5000
    t: int = 10

    def __post_init__(self):
        check_sizes(self.n, self.t)


@dataclass
class ExperimentConfig:
    method: str = "zscore"
    seed: int = 0
    repetitions: int = 1
    synthetic: Optional[SyntheticSource] = field(default_factory=SyntheticSource)
    csv_path: Optional[str] = None
    sublayers: tuple[str, ...] = ALL_SUBLAYERS
    model: ModelConfig = field(default_factory=ModelConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    cv: CvConfig = field(default_factory=CvConfig)
    preset: Optional[str] = None
    kdit_alpha: float = 1.0
    winsorize_quantiles: tuple[float, float] = (0.01, 0.99)
    warm_start: bool = True

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown preprocessing method {self.method!r}; "
                             f"choose from {', '.join(METHODS)}")
        if (self.synthetic is None) == (self.csv_path is None):
            raise ValueError("exactly one of synthetic/csv_path must be set "
                             "(dataset csv or synthetic)")
        # the order EdainLayer runs them in, so two configs that train alike echo alike
        if tuple(self.sublayers) != tuple(s for s in ALL_SUBLAYERS if s in self.sublayers):
            raise ValueError(f"sublayers must be a subset of {list(ALL_SUBLAYERS)}, each named "
                             f"once and in that order, got {list(self.sublayers)}")
        if self.train.seed != 0:
            raise ValueError(f"train.seed must be 0, got {self.train.seed!r}: each fold trains "
                             f"with a seed drawn from the config seed")
        if self.preset is not None and self.preset not in PRESETS:
            raise ValueError(f"unknown preset {self.preset!r}")
        for name, value in (("repetitions", self.repetitions),
                            ("train.max_epochs", self.train.max_epochs)):
            if value < 1:
                raise ValueError(f"{name} must be positive, got {value}")
        check_static_fields(self.winsorize_quantiles, self.kdit_alpha, "config")
        # a field the method does not read must echo as it does when left out
        for name in (s for s in SETTINGS if s not in METHODS[self.method].reads):
            value = self.train.corrections if name == "train.corrections" else getattr(self, name)
            unread = (None, UNIT_CORRECTIONS) if name == "train.corrections" else \
                (getattr(ExperimentConfig, name),)
            if json.dumps(value, sort_keys=True) not in [json.dumps(v, sort_keys=True)
                                                         for v in unread]:
                raise ValueError(f"{name} is not read by method {self.method!r}: leave it out "
                                 f"or at its default, got {value!r}")

    def resolved_corrections(self) -> dict:
        """The named preset, else the corrections the train config sets, else
        the method's default preset, else every group at the base rate."""
        if self.preset is not None:
            return dict(PRESETS[self.preset])
        if self.train.corrections is not None:
            return dict(self.train.corrections)
        return dict(PRESETS.get(METHODS[self.method].preset, UNIT_CORRECTIONS))

    def to_json_dict(self):
        train = {key: getattr(self.train, key) for key in
                 ("base_lr", "optimizer", "batch_size", "max_epochs", "gamma", "patience")}
        return {
            "method": self.method,
            "seed": self.seed,
            "repetitions": self.repetitions,
            "sublayers": list(self.sublayers),
            "model": _section_json(self.model),
            "cv": _section_json(self.cv),
            "preset": self.preset,
            "kdit_alpha": self.kdit_alpha,
            "winsorize_quantiles": list(self.winsorize_quantiles),
            "warm_start": self.warm_start,
            "train": {**train, "milestones": list(self.train.milestones),
                      "corrections": self.resolved_corrections()},
            "dataset": ({"csv": self.csv_path} if self.synthetic is None
                        else {"synthetic": _section_json(self.synthetic)}),
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "ExperimentConfig":
        """The config a JSON document describes, each section loaded by
        ``data.load_fields``.  An unknown key or a value that does not fit its
        field is a ValueError that names the section and the field."""
        names = {f.name for f in fields(cls)} - {"synthetic", "csv_path"} | {"dataset"}
        doc = dict(check_keys(doc, "config", names))
        sources = {"csv": Optional[str], "synthetic": Optional[SyntheticSource]}
        dataset = load_fields(doc.pop("dataset", {}), sources, "config", "dataset")
        if dataset:
            # both or neither of the two sources is refused by __post_init__
            doc["csv_path"], doc["synthetic"] = dataset.get("csv"), dataset.get("synthetic")
        return from_fields(cls, doc, "config")


# ---------------------------------------------------------------------------
# fold construction


def kfold_indices(n: int, k: int, rng: RngState) -> list[tuple[np.ndarray, np.ndarray]]:
    """k disjoint validation folds covering 0..n-1 after a seeded shuffle."""
    CvConfig(kind="kfold", k=k)  # refuses k < 2 as a config does
    if k > n:
        raise ValueError(f"cannot split {n} rows into {k} folds")
    perm = rng.generator().permutation(n)
    folds = np.array_split(perm, k)
    return [(np.sort(np.concatenate(folds[:i] + folds[i + 1:])), np.sort(folds[i]))
            for i in range(k)]


def holdout_split(n: int, valid_fraction: float, rng: RngState) -> list[tuple[np.ndarray, np.ndarray]]:
    CvConfig(kind="holdout", valid_fraction=valid_fraction)  # refuses one outside (0, 1)
    perm = rng.generator().permutation(n)
    n_valid = max(1, int(round(n * valid_fraction)))
    if n_valid >= n:
        raise ValueError(f"holdout of {n} series at valid_fraction {valid_fraction} "
                         "leaves no training rows")
    return [(np.sort(perm[n_valid:]), np.sort(perm[:n_valid]))]


def anchored_folds(boundaries) -> list[tuple[np.ndarray, np.ndarray]]:
    """Expanding-window folds: fold i trains on segments 1..i and validates
    on segment i+1.  m+1 boundaries give m segments and m-1 folds."""
    bounds = CvConfig(kind="anchored", boundaries=tuple(map(int, boundaries))).boundaries
    return [(np.arange(bounds[0], bounds[i]), np.arange(bounds[i], bounds[i + 1]))
            for i in range(1, len(bounds) - 1)]


def _make_folds(n: int, cv: CvConfig, rng: RngState):
    if cv.kind == "kfold":
        return kfold_indices(n, cv.k, rng)
    if cv.kind == "holdout":
        return holdout_split(n, cv.valid_fraction, rng)
    if min(cv.boundaries) < 0 or max(cv.boundaries) > n:
        raise ValueError(f"cv.boundaries {list(cv.boundaries)} must lie in [0, N] "
                         f"for N = {n} series")
    return anchored_folds(cv.boundaries)


# ---------------------------------------------------------------------------
# preprocessing wrappers


class StaticPreproc(IdentityPreproc):
    """A fitted static pipeline behind the trainable-layer interface."""

    def __init__(self, pipeline: StaticPipeline):
        self.pipeline = pipeline

    def forward(self, x: TimeSeriesBatch, training: bool):
        return self.pipeline.apply(x), None

    def to_json_dict(self):
        return {"kind": "static", **self.pipeline.to_json_dict()}

    @classmethod
    def from_json_dict(cls, doc: dict) -> "StaticPreproc":
        return cls(StaticPipeline.from_json_dict({k: v for k, v in doc.items() if k != "kind"}))


class KlPreproc(IdentityPreproc):
    """A fitted invertible stack applied as a frozen normalizer."""

    def __init__(self, params: KlBijectorParams):
        self.params = params

    def forward(self, x: TimeSeriesBatch, training: bool):
        return normalize_direction(x, self.params)[0], None

    def to_json_dict(self):
        return self.params.to_json_dict()

    @classmethod
    def from_json_dict(cls, doc: dict) -> "KlPreproc":
        return cls(KlBijectorParams.from_json_dict(doc))


# the layer class of each checkpoint kind that a layer of METHODS saves
PREPROC_KINDS = {"static": StaticPreproc, "edain": EdainLayer, "edain_kl": KlPreproc,
                 "dain": DainLayer, "identity": IdentityPreproc}


def make_preproc(config: ExperimentConfig, train_batch: TimeSeriesBatch):
    """One fold's preprocessing: a static pipeline or the KL layer fitted on
    the training rows alone, or an untrained adaptive layer."""
    return METHODS[config.method].build(config, train_batch)


# ---------------------------------------------------------------------------
# reports


@dataclass
class MetricsReport:
    method: str
    rows: list
    aggregate: dict
    incomplete: list
    config_echo: dict
    seed: int
    runtime_seconds: float = 0.0
    # the trained preprocessing and model of repetition 0, fold 0 (None when
    # that fold failed); the CLI checkpoints it
    first_fold: Optional[TrainResult] = None

    def to_json_dict(self) -> dict:
        # runtime and the trained objects are intentionally omitted: the JSON
        # document is the determinism surface and must be identical across
        # same-seed runs
        return {
            "method": self.method,
            "seed": self.seed,
            "rows": self.rows,
            "aggregate": self.aggregate,
            "incomplete": self.incomplete,
            "config": self.config_echo,
        }

    def text_table(self) -> str:
        lines = [f"method: {self.method}   seed: {self.seed}   folds: {len(self.rows)}"
                 f"   runtime: {self.runtime_seconds:.1f}s"]
        header = f"{'metric':<14}{'mean':>12}{'+/-':>12}"
        lines.append(header)
        lines.append("-" * len(header))
        for name in sorted(self.aggregate):
            agg = self.aggregate[name]
            lines.append(f"{name:<14}{agg['mean']:>12.4f}{agg['half_width']:>12.4f}")
        if self.incomplete:
            lines.append(f"incomplete folds: {len(self.incomplete)}")
        return "\n".join(lines)


def _aggregate(rows: list) -> dict:
    if not rows:
        return {}
    keys = [k for k, v in rows[0]["metrics"].items() if isinstance(v, float)]
    out = {}
    for key in keys:
        vals = np.array([r["metrics"][key] for r in rows], dtype=np.float64)
        k = len(vals)
        half = 0.0 if k < 2 else float(1.96 * vals.std(ddof=1) / np.sqrt(k))
        out[key] = {"mean": float(vals.mean()), "half_width": half}
    return out


def save_report(doc: dict, path: str | Path) -> None:
    """Canonical JSON emission: sorted keys, two-space indent, newline."""
    Path(path).write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n",
                          encoding="utf-8")


# ---------------------------------------------------------------------------
# experiment execution


def _load_dataset(config: ExperimentConfig, rep_state: RngState) -> LabeledDataset:
    if config.csv_path is not None:
        return load_csv(config.csv_path)
    synth = default_config(n=config.synthetic.n, t=config.synthetic.t,
                           seed=rep_state.child(1).seed)
    return generate_dataset(synth)


def fold_metrics(dataset: LabeledDataset, probs: np.ndarray) -> dict:
    """A fold's metrics, set by the model's output width, not by the labels
    held: ``bce`` and ``amex_*`` for (N,) probabilities, ``ce`` for (N, C)
    rows, and accuracy, kappa and macro-F1 of the predicted class for both."""
    y = dataset.labels
    loss, _ = model_loss(probs, y)
    hard = predicted_class(probs)
    classes = 2 if probs.ndim == 1 else probs.shape[1]
    metrics = {"bce" if probs.ndim == 1 else "ce": loss, "accuracy": float((hard == y).mean())}
    if probs.ndim == 1:
        metrics["amex_m"], metrics["amex_d"], metrics["amex_g"] = amex_metric(probs, y)
    metrics["kappa"] = cohen_kappa(hard, y, num_classes=classes)
    metrics["macro_f1"] = macro_f1(hard, y, num_classes=classes)
    return metrics


def _run_fold(config: ExperimentConfig, dataset: LabeledDataset,
              train_idx: np.ndarray, valid_idx: np.ndarray,
              rep: int, fold: int, fold_state: RngState) -> tuple[dict, TrainResult]:
    train_ds = dataset.subset(train_idx)
    valid_ds = dataset.subset(valid_idx)
    preproc = make_preproc(config, train_ds.batch)
    model = GruStack(d_in=dataset.batch.d, hidden=config.model.hidden,
                     head=config.model.head, n_classes=1 if dataset.classes == 2 else 3,
                     dropout=config.model.dropout,
                     rng=fold_state.child(1).generator())
    train_cfg = replace(config.train, seed=fold_state.child(2).seed,
                        corrections=config.resolved_corrections())
    result = train_loop(train_ds, valid_ds, preproc, model, train_cfg)

    metrics = fold_metrics(valid_ds, result.valid_probs)
    return {
        "rep": rep,
        "fold": fold,
        "n_train": int(len(train_idx)),
        "n_valid": int(len(valid_idx)),
        "best_epoch": result.best_epoch,
        "epochs_run": len(result.history),
        "metrics": metrics,
    }, result


def run_experiment(config: ExperimentConfig) -> MetricsReport:
    """Train and evaluate one preprocessing method under the configured CV.

    A fold that ends in a numeric failure (``FOLD_FAILURES``) is recorded as
    an incomplete row and the run goes on; any other exception propagates.
    """
    start = time.perf_counter()
    root = RngState(config.seed)
    rows, incomplete, first_fold = [], [], None
    for rep in range(config.repetitions):
        rep_state = root.child(rep)
        dataset = _load_dataset(config, rep_state)
        folds = _make_folds(dataset.n, config.cv, rep_state.child(9999))
        for f, (_, va_idx) in enumerate(folds if dataset.classes == 2 else ()):
            held = np.bincount(dataset.labels[va_idx], minlength=2)
            if not held.all():
                raise ValueError(f"rep {rep} fold {f}: the validation rows hold no "
                                 f"{'positive' if held[0] else 'negative'} label, so the "
                                 f"fold's binary metrics are undefined")
        for f, (tr_idx, va_idx) in enumerate(folds):
            try:
                row, result = _run_fold(config, dataset, tr_idx, va_idx, rep, f,
                                        rep_state.child(100 + f))
            except FOLD_FAILURES as exc:
                incomplete.append({"rep": rep, "fold": f,
                                   "error": f"{type(exc).__name__}: {exc}"})
                continue
            rows.append(row)
            if rep == 0 and f == 0:
                first_fold = result
    return MetricsReport(
        method=config.method,
        rows=rows,
        aggregate=_aggregate(rows),
        incomplete=incomplete,
        config_echo=config.to_json_dict(),
        seed=config.seed,
        runtime_seconds=time.perf_counter() - start,
        first_fold=first_fold,
    )


def run_ablation(config: ExperimentConfig) -> list[tuple[str, MetricsReport]]:
    """The seven-row sublayer ablation under one seed and shared folds."""
    out = []
    for label, sublayers in ABLATION_ROWS:
        if sublayers is None:
            row_cfg = replace(config, method="zscore", sublayers=ALL_SUBLAYERS, warm_start=True,
                              preset=None, train=replace(config.train, corrections=None))
        else:
            row_cfg = replace(config, method="edain_global", sublayers=sublayers)
        out.append((label, run_experiment(row_cfg)))
    return out


def ablation_json(rows: list[tuple[str, MetricsReport]]) -> dict:
    return {"rows": [{"label": label, "report": rep.to_json_dict()} for label, rep in rows]}
