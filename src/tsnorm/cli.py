"""Command-line interface.

Subcommands: generate | train | evaluate | ablate | kl-fit | preprocess.
Exit codes: 0 success, 1 usage error, 2 runtime failure.  Reports are
written as canonical JSON (byte-identical for identical seeds) and a plain
text table goes to stdout.
"""

from __future__ import annotations

import argparse
import ast
import json
import math
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
from scipy.special import ndtr

from .flow_kl import fit_kl
from .data import LabeledDataset, load_csv, load_fields, save_csv, type_hints
from .harness import (METHODS, PREPROC_KINDS, PRESETS, ExperimentConfig, ablation_json,
                      fold_metrics, kl_fit_config, run_ablation, run_experiment, save_report)
from .neural import GruStack, history_to_csv, predict
from .synthgen import SynthConfig, default_config, generate_dataset


# the fields of a checkpoint file: ``train`` writes preproc and model,
# ``kl-fit`` preproc and history
_CHECKPOINT = {"preproc": dict, "model": dict, "history": list}


def _read_checkpoint(path: str, *required: str) -> dict:
    """The checkpoint file at ``path``, once it holds the ``required`` fields."""
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    return load_fields(doc, _CHECKPOINT, "checkpoint", required=required)


def _load_preproc(doc: dict):
    kind = doc.get("kind")
    if not isinstance(kind, str) or kind not in PREPROC_KINDS:
        raise ValueError(f"checkpoint preproc has unknown preprocessing kind {kind!r}")
    return PREPROC_KINDS[kind].from_json_dict(doc)


# the elementwise numpy functions an expression may call as np.<name>
_PDF_NUMPY = ("abs", "arctan", "ceil", "clip", "cos", "cosh", "exp", "expm1", "floor", "log",
              "log1p", "maximum", "minimum", "power", "sign", "sin", "sinh", "sqrt", "square",
              "tan", "tanh", "where")
_PDF_NAMES = {
    "np": SimpleNamespace(**{name: getattr(np, name) for name in _PDF_NUMPY}),
    "pi": math.pi,
    "e": math.e,
    "Phi": ndtr,
    "phi": lambda v: np.exp(-0.5 * np.asarray(v) ** 2) / math.sqrt(2 * math.pi),
    "ind": lambda lo, hi, v: ((np.asarray(v) > lo) & (np.asarray(v) < hi)).astype(float),
}
_PDF_SYNTAX = (ast.Expression, ast.BinOp, ast.Call, ast.Load, ast.operator, ast.unaryop,
               ast.cmpop)


def _pdf_from_expression(expr: str, name: str = "pdf expression"):
    """Compile a density expression of ``x``.

    Only number constants, arithmetic and unary operators, single
    comparisons, the elementwise boolean operators ``& | ~``, the names
    ``x pi e phi Phi ind`` and ``np.<f>`` for the functions in ``_PDF_NUMPY``
    are accepted; anything else, or text that does not parse, is a ValueError
    that names ``name`` and the node.  ``np`` is bound to those functions
    alone, not to the module.
    """
    try:
        tree = ast.parse(expr, mode="eval")
    except SyntaxError as err:
        raise ValueError(f"{name} is not an expression ({err.msg}): {expr!r}") from None
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and type(node.value) in (int, float):
            node.value = float(node.value)  # float powers overflow instead of growing unbounded
        # and/or/not and chained comparisons are left out: they cannot act on arrays
        elif not (isinstance(node, _PDF_SYNTAX)
                  or isinstance(node, ast.UnaryOp) and not isinstance(node.op, ast.Not)
                  or isinstance(node, ast.Compare) and len(node.ops) == 1
                  or isinstance(node, ast.Name) and node.id in ("x", *_PDF_NAMES)
                  or isinstance(node, ast.Attribute) and node.attr in _PDF_NUMPY
                  and isinstance(node.value, ast.Name) and node.value.id == "np"):
            raise ValueError(f"{name} may not contain {type(node).__name__} "
                             f"{ast.unparse(node)!r}")
    code = compile(tree, "<pdf>", "eval")

    def pdf(x):
        return np.asarray(eval(code, {"__builtins__": {}}, {**_PDF_NAMES, "x": x}),
                          dtype=np.float64)

    return pdf


# the fields of one feature of a pdf config; SynthConfig holds them per feature
_PDF_FEATURE = {"pdf": str, "bounds": tuple[float, float], "theta": tuple[float, ...],
                "sigma_eps": float, "delta": float}


def _synth_from_pdf_config(doc: dict, n: int, t: int, seed: int) -> SynthConfig:
    """The SynthConfig a pdf config describes; a field it leaves out takes
    SynthConfig's default, and a feature's ``theta``, ``sigma_eps`` and
    ``delta`` default to (-1), 1 and a thousandth of its bounds' width."""
    hints = type_hints(SynthConfig)
    scalars = {key: hints[key] for key in ("sigma_cor", "sigma_zeta", "sigma_beta",
                                           "response_threshold")}
    top = load_fields(doc, {"features": list, **scalars}, "pdf config", required=("features",))
    feats = [load_fields(f, _PDF_FEATURE, "pdf config", f"feature {j}", required=("pdf", "bounds"))
             for j, f in enumerate(top.pop("features"))]
    rows = [f.get("theta", (-1.0,)) for f in feats]
    theta = np.zeros((len(feats), max(map(len, rows), default=1)))
    for j, row in enumerate(rows):
        theta[j, :len(row)] = row
    return SynthConfig(
        pdfs=[_pdf_from_expression(f["pdf"], f"pdf config feature {j}.pdf")
              for j, f in enumerate(feats)], bounds=[f["bounds"] for f in feats],
        theta=theta, n=n, t=t, sigma_eps=np.array([f.get("sigma_eps", 1.0) for f in feats]),
        delta=[f.get("delta", 1e-3 * (f["bounds"][1] - f["bounds"][0])) for f in feats],
        seed=seed, **top)


def _experiment_config(args) -> ExperimentConfig:
    """The ``--config`` document, or ``{}``, with each given flag written over
    the field it names, loaded once by ``ExperimentConfig.from_json_dict``."""
    doc = json.loads(Path(args.config).read_text(encoding="utf-8")) if args.config else {}
    if not isinstance(doc, dict):
        raise ValueError(f"config must be a JSON object, not {type(doc).__name__}")

    def given(**flags):
        return {key: value for key, value in flags.items() if value is not None}

    doc.update(given(method=getattr(args, "method", None), seed=args.seed, preset=args.preset,
                     repetitions=args.repetitions))
    if args.data is not None or args.synth_n is not None:
        synthetic = None if args.synth_n is None else given(n=args.synth_n, t=args.synth_t)
        doc["dataset"] = given(csv=args.data, synthetic=synthetic)
    if args.cv is not None:
        doc["cv"] = (given(kind="holdout", valid_fraction=args.valid_fraction)
                     if args.cv == "holdout" else given(kind="kfold", k=args.k))
    train = given(max_epochs=args.epochs, batch_size=args.batch_size)
    if train:
        doc["train"] = {**doc.get("train", {}), **train}
    return ExperimentConfig.from_json_dict(doc)


def _add_experiment_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--data", help="CSV dataset path (mutually exclusive with --synth-n)")
    p.add_argument("--synth-n", type=int, dest="synth_n",
                   help="generate a built-in synthetic dataset with this many series")
    p.add_argument("--synth-t", type=int, dest="synth_t",
                   help="timesteps for --synth-n (default 10)")
    p.add_argument("--config", help="JSON experiment config (flags override it)")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--preset", choices=sorted(PRESETS),
                   help="named per-sublayer learning-rate preset")
    p.add_argument("--repetitions", type=int)
    p.add_argument("--cv", choices=["holdout", "kfold"])
    p.add_argument("--k", type=int, help="folds for --cv kfold (default 5)")
    p.add_argument("--valid-fraction", type=float, dest="valid_fraction",
                   help="validation share for --cv holdout (default 0.2)")
    p.add_argument("--epochs", type=int)
    p.add_argument("--batch-size", type=int, dest="batch_size")
    p.add_argument("--out", help="report JSON output path")


def _check_flag_partners(parser: argparse.ArgumentParser, args) -> None:
    """Refuse a flag that only refines another one when that one is not given,
    rather than drop it."""
    cv, synth_n = getattr(args, "cv", None), getattr(args, "synth_n", None)
    for name, flag, ok, needs in (
            ("k", "--k", cv == "kfold", "--cv kfold"),
            ("valid_fraction", "--valid-fraction", cv == "holdout", "--cv holdout"),
            ("synth_t", "--synth-t", synth_n is not None, "--synth-n")):
        if getattr(args, name, None) is not None and not ok:
            parser.error(f"{flag} needs {needs}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="tsnorm",
                                     description="adaptive time series normalization toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="write a synthetic dataset CSV")
    g.add_argument("--builtin", default="synth3", choices=["synth3"],
                   help="built-in marginal set (three irregular densities)")
    g.add_argument("--pdf-config", dest="pdf_config",
                   help="JSON file with per-feature pdf expressions (overrides --builtin)")
    g.add_argument("--n", type=int, default=1000)
    g.add_argument("--t", type=int, default=10)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", required=True)

    t = sub.add_parser("train", help="train a model with one preprocessing method")
    t.add_argument("--method", help=f"preprocessing method: {', '.join(METHODS)}")
    t.add_argument("--checkpoint-out", dest="checkpoint_out",
                   help="save trained preprocessing+model JSON here")
    t.add_argument("--history-out", dest="history_out",
                   help="save the training curve (epoch, losses, lr) as CSV")
    _add_experiment_flags(t)

    e = sub.add_parser("evaluate", help="evaluate a saved checkpoint on a dataset")
    e.add_argument("--data", required=True)
    e.add_argument("--checkpoint", required=True)
    e.add_argument("--out")

    a = sub.add_parser("ablate", help="run the seven-row sublayer ablation")
    a.set_defaults(method="edain_global")  # its config is checked as the EDAIN rows read it
    _add_experiment_flags(a)

    k = sub.add_parser("kl-fit", help="fit the invertible normalizer unsupervised",
                       argument_default=argparse.SUPPRESS)
    k.add_argument("--data", required=True)
    k.add_argument("--out", required=True)
    k.add_argument("--seed", type=int)
    k.add_argument("--epochs", type=int)
    k.add_argument("--batch-size", type=int, dest="batch_size")
    k.add_argument("--lr", type=float)

    p = sub.add_parser("preprocess", help="apply a saved preprocessing checkpoint to a dataset")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)

    return parser


def _cmd_generate(args) -> int:
    if args.pdf_config:
        doc = json.loads(Path(args.pdf_config).read_text(encoding="utf-8"))
        config = _synth_from_pdf_config(doc, n=args.n, t=args.t, seed=args.seed)
    else:
        config = default_config(n=args.n, t=args.t, seed=args.seed)
    dataset = generate_dataset(config)
    save_csv(dataset, args.out)
    balance = float(dataset.labels.mean())
    print(f"wrote {dataset.n} series x {dataset.batch.d} features x {dataset.batch.t} steps "
          f"to {args.out} (label balance {balance:.3f})")
    return 0


def _cmd_train(args) -> int:
    report = run_experiment(_experiment_config(args))
    print(report.text_table())
    if args.out:
        save_report(report.to_json_dict(), args.out)
        print(f"report written to {args.out}")
    if args.checkpoint_out or args.history_out:
        result = report.first_fold
        if result is None:
            raise RuntimeError(f"fold 0 of repetition 0 failed, nothing to save: "
                               f"{report.incomplete[0]['error']}")
        if args.checkpoint_out:
            doc = {"preproc": result.preproc.to_json_dict(), "model": result.model.to_json_dict()}
            save_report(doc, args.checkpoint_out)
            print(f"checkpoint written to {args.checkpoint_out}")
        if args.history_out:
            Path(args.history_out).write_text(history_to_csv(result.history), encoding="utf-8")
            print(f"training history written to {args.history_out}")
    if report.incomplete and not report.rows:
        raise RuntimeError(f"all folds failed: {report.incomplete[0]['error']}")
    return 0


def _cmd_evaluate(args) -> int:
    doc = _read_checkpoint(args.checkpoint, "preproc", "model")
    preproc = _load_preproc(doc["preproc"])
    model = GruStack.from_json_dict(doc["model"])
    dataset = load_csv(args.data)
    metrics = fold_metrics(dataset, predict(dataset.batch, preproc, model))
    for name in sorted(metrics):
        print(f"{name:<14}{metrics[name]:>12.4f}")
    if args.out:
        save_report({"metrics": metrics, "data": str(args.data)}, args.out)
    return 0


def _cmd_ablate(args) -> int:
    rows = run_ablation(_experiment_config(args))
    width = max(len(label) for label, _ in rows)
    key = next((k for _, report in rows for k in ("bce", "ce") if k in report.aggregate), "loss")
    print(f"{'configuration':<{width + 2}}{key:>10}{'+/-':>10}")
    for label, report in rows:
        agg = report.aggregate.get(key, {"mean": float("nan"), "half_width": float("nan")})
        print(f"{label:<{width + 2}}{agg['mean']:>10.4f}{agg['half_width']:>10.4f}")
    if args.out:
        save_report(ablation_json(rows), args.out)
        print(f"ablation report written to {args.out}")
    if not any(report.rows for _, report in rows):
        raise RuntimeError(f"all folds failed: {rows[0][1].incomplete[0]['error']}")
    return 0


def _cmd_kl_fit(args) -> int:
    dataset = load_csv(args.data)
    # a flag left out is not set, and kl_fit_config supplies its default
    flags = {k: v for k, v in vars(args).items() if k in ("seed", "lr", "batch_size", "epochs")}
    cfg = kl_fit_config(dict(PRESETS[METHODS["edain_kl"].preset]), **flags)
    params, history = fit_kl(dataset.batch, cfg)
    save_report({"preproc": params.to_json_dict(), "history": history}, args.out)
    print(f"fitted invertible normalizer on {dataset.n} series; "
          f"per-value NLL {history[0]['nll']:.4f} -> {min(h['nll'] for h in history):.4f}")
    print(f"checkpoint written to {args.out}")
    return 0


def _cmd_preprocess(args) -> int:
    preproc = _load_preproc(_read_checkpoint(args.checkpoint, "preproc")["preproc"])
    dataset = load_csv(args.data)
    out_batch, _ = preproc.forward(dataset.batch, training=False)
    save_csv(LabeledDataset(out_batch, dataset.labels, dataset.label_kind), args.out)
    print(f"normalized dataset written to {args.out}")
    return 0


_COMMANDS = {
    "generate": _cmd_generate,
    "train": _cmd_train,
    "evaluate": _cmd_evaluate,
    "ablate": _cmd_ablate,
    "kl-fit": _cmd_kl_fit,
    "preprocess": _cmd_preprocess,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        _check_flag_partners(parser, args)
    except SystemExit as exc:
        # argparse uses status 2 for usage errors; this tool reserves 2 for
        # runtime failures and reports usage problems as 1
        return 1 if exc.code not in (0, None) else 0
    try:
        return _COMMANDS[args.command](args)
    except Exception as exc:  # noqa: BLE001 - boundary of the process
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
