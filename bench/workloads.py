"""The three benchmark workloads: set-up, one timed job, and output checks.

Every workload is a closed loop: one process runs one job at a time and the
next job starts when the previous one has returned.  All inputs derive from
the benchmark seed; the program only ever sees the generated data.

desk-fold     one holdout fold of edain_global at the acceptance-panel
              configuration (synth3, n=5000, T=10, GRU 32x32, head 64x32,
              batch 128, 30 epochs, milestones (4, 7), patience 5) through
              ``harness.run_experiment``.  GRU forward/BPTT and the optimizer
              step take most of each training step; EDAIN is a few percent.
wide-fold     one holdout fold each of edain_global and edain_local on a
              credit-default-like wide dataset (n=2048, d=128, T=13).  At this
              shape the elementwise EDAIN stack costs more than the GRU.
desk-offline  the fit-once path that trains no GRU: CLI ``generate``,
              ``kl-fit`` and ``preprocess``, then the seven static pipelines
              fitted and applied on the same data.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
from contextlib import contextmanager, nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter as clock

import numpy as np

from tsnorm import cli, data, flow_kl, harness, metrics, neural, synthgen

DESK_N, DESK_T = 5000, 10
WIDE_N, WIDE_D, WIDE_T = 2048, 128, 13
# Three epochs keep a wide job near 7 s on one core, so a run holds several
# jobs.  Early stopping cannot end a three-epoch run, so every job trains the
# same number of steps.
WIDE_EPOCHS = 3
KL_EPOCHS = 30
KL_ROUNDTRIP_BOUND = 1e-9  # acceptance criterion 4
STATIC_METHODS = ("zscore", "minmax", "winsorize+zscore", "zscore+yj",
                  "winsorize+zscore+yj", "cdf_inversion", "kdit")


class Ledger:
    """Attempted and failed operations: folds, CLI calls and output checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def record(self, what: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(f"{what}: {detail}" if detail else what)
        return ok


class Stages:
    """Wall time of a job's timed blocks; each block is also a span when traced.

    Output checks run outside these blocks, so neither the job time nor the
    traced layer shares include them.
    """

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.seconds: dict[str, float] = {}

    @contextmanager
    def time(self, name: str):
        start = clock()
        with self.tracer.span(f"bench.{name}") if self.tracer else nullcontext():
            yield
        self.seconds[name] = self.seconds.get(name, 0.0) + clock() - start

    @property
    def total(self) -> float:
        return sum(self.seconds.values())


@dataclass
class JobResult:
    seconds: float          # wall time of the timed blocks (job_s)
    train_seconds: float    # wall time of the training call(s)
    series_epochs: int      # training series x epochs run
    report: str             # digest of the same-seed determinism surface
    stages: dict = field(default_factory=dict)   # printed breakdown, seconds
    notes: dict = field(default_factory=dict)    # printed extra (value, unit) pairs


def _digest(*parts: bytes) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p)
    return h.hexdigest()


def wide_config(seed: int) -> synthgen.SynthConfig:
    """128 features cycling the three builtin densities and their MA rows."""
    pdfs = synthgen.builtin_pdfs()
    cycle = [k % 3 for k in range(WIDE_D)]
    return synthgen.SynthConfig(
        pdfs=[pdfs[k] for k in cycle],
        bounds=[synthgen.BUILTIN_BOUNDS[k] for k in cycle],
        theta=synthgen.BUILTIN_THETA[cycle],
        n=WIDE_N, t=WIDE_T, seed=seed,
    )


class DeskFold:
    name = "desk-fold"

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.csv = workdir / "desk-fold.csv"
        self.report_path = workdir / "desk-fold-report.json"

    def setup(self) -> None:
        dataset = synthgen.generate_dataset(synthgen.default_config(n=DESK_N, t=DESK_T,
                                                                    seed=self.seed))
        data.save_csv(dataset, self.csv)
        self.labels = dataset.labels
        self.config = harness.ExperimentConfig(
            method="edain_global", seed=self.seed, synthetic=None, csv_path=str(self.csv),
            model=harness.ModelConfig(hidden=(32, 32), head=(64, 32)),
            train=neural.TrainConfig(batch_size=128, max_epochs=30, milestones=(4, 7),
                                     patience=5),
            cv=harness.CvConfig(kind="holdout"),
        )

    def job(self, ledger: Ledger, stages: Stages) -> JobResult:
        with stages.time("fold_s"):
            report = harness.run_experiment(self.config)
        fold_s = stages.total
        complete = len(report.rows) == 1 and not report.incomplete
        ledger.record("desk-fold: fold completes", complete, str(report.incomplete))
        if not complete:
            raise RuntimeError(f"fold incomplete: {report.incomplete}")
        row = report.rows[0]
        bce = row["metrics"]["bce"]
        ledger.record("desk-fold: valid_bce finite", math.isfinite(bce), repr(bce))
        # quality guard: the fold must beat predicting the label rate
        rate = self.labels.mean()
        chance = -(rate * math.log(rate) + (1 - rate) * math.log(1 - rate))
        ledger.record("desk-fold: valid_bce below the constant predictor's", bce < chance,
                      f"{bce:.4f} >= {chance:.4f}")
        harness.save_report(report.to_json_dict(), self.report_path)
        return JobResult(
            seconds=fold_s, train_seconds=fold_s,
            series_epochs=row["n_train"] * row["epochs_run"],
            report=_digest(self.report_path.read_bytes()),
            stages=stages.seconds,
            notes={"epochs_run": (row["epochs_run"], "count"), "valid_bce": (bce, "nat")},
        )


class WideFold:
    name = "wide-fold"
    methods = ("edain_global", "edain_local")

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed

    def setup(self) -> None:
        dataset = synthgen.generate_dataset(wide_config(self.seed))
        (train_idx, valid_idx), = harness.holdout_split(dataset.n, 0.2, data.RngState(self.seed))
        self.train = dataset.subset(train_idx)
        self.valid = dataset.subset(valid_idx)

    def _fold(self, index: int, method: str) -> dict:
        # make_preproc reads only the method, preset and warm-start fields
        config = harness.ExperimentConfig(method=method, seed=self.seed)
        state = data.RngState(self.seed).child(index)
        preproc = harness.make_preproc(config, self.train.batch)
        model = neural.GruStack(d_in=WIDE_D, hidden=(32, 32), head=(64, 32), n_classes=1,
                                dropout=0.2, rng=state.child(1).generator())
        train_cfg = replace(config.train, max_epochs=WIDE_EPOCHS, seed=state.child(2).seed,
                            corrections=config.resolved_corrections())
        result = neural.train_loop(self.train, self.valid, preproc, model, train_cfg)
        xn, _ = result.preproc.forward(self.valid.batch, training=False)
        probs, _ = neural.gru_forward(xn, result.model, training=False)
        bce, _ = neural.bce_loss(probs, self.valid.labels)
        amex = metrics.amex_metric(probs, self.valid.labels)
        return {"history": result.history, "best_epoch": result.best_epoch,
                "valid_bce": bce, "amex": list(amex)}

    def job(self, ledger: Ledger, stages: Stages) -> JobResult:
        docs, epochs = {}, 0
        for index, method in enumerate(self.methods):
            with stages.time("fold_s"):
                docs[method] = self._fold(index, method)
            history = docs[method]["history"]
            epochs += len(history)
            ledger.record(f"wide-fold: {method} fold completes", len(history) == WIDE_EPOCHS)
            ledger.record(f"wide-fold: {method} valid_bce finite",
                          math.isfinite(docs[method]["valid_bce"]))
            # quality guard: three epochs barely beat chance on validation at
            # this shape, but the training loss must come down
            first, last = history[0]["train_loss"], history[-1]["train_loss"]
            ledger.record(f"wide-fold: {method} train loss decreases", last < first,
                          f"{first:.4f} -> {last:.4f}")
        text = json.dumps(docs, sort_keys=True, indent=2)
        return JobResult(
            seconds=stages.total, train_seconds=stages.total,
            series_epochs=self.train.n * epochs, report=_digest(text.encode()),
            stages=stages.seconds,
            notes={f"valid_bce.{m}": (docs[m]["valid_bce"], "nat") for m in self.methods},
        )


class DeskOffline:
    name = "desk-offline"

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.csv = workdir / "offline.csv"
        self.kl_json = workdir / "offline-kl.json"
        self.normalized = workdir / "offline-normalized.csv"

    def setup(self) -> None:
        # the in-memory dataset `generate` must write, bit for bit
        self.reference = synthgen.generate_dataset(
            synthgen.default_config(n=DESK_N, t=DESK_T, seed=self.seed))

    def _cli(self, ledger: Ledger, stages: Stages, stage: str, argv: list[str]) -> None:
        """Run one CLI subcommand in this process, its output captured."""
        out, err = io.StringIO(), io.StringIO()
        with stages.time(stage), redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
        detail = err.getvalue().strip()
        if not ledger.record(f"desk-offline: cli {argv[0]} exits 0", code == 0, detail):
            raise RuntimeError(f"cli {argv[0]} exited {code}: {detail}")

    def job(self, ledger: Ledger, stages: Stages) -> JobResult:
        seed = str(self.seed)
        self._cli(ledger, stages, "generate_s",
                  ["generate", "--builtin", "synth3", "--n", str(DESK_N), "--t", str(DESK_T),
                   "--seed", seed, "--out", str(self.csv)])
        self._cli(ledger, stages, "kl_fit_s",
                  ["kl-fit", "--data", str(self.csv), "--out", str(self.kl_json),
                   "--epochs", str(KL_EPOCHS), "--seed", seed])
        self._cli(ledger, stages, "preprocess_s",
                  ["preprocess", "--checkpoint", str(self.kl_json), "--data", str(self.csv),
                   "--out", str(self.normalized)])
        dataset = data.load_csv(self.csv)
        batch = dataset.batch
        ledger.record("desk-offline: CSV save/load bit-exact",
                      np.array_equal(batch.values, self.reference.batch.values)
                      and np.array_equal(dataset.labels, self.reference.labels))

        with stages.time("static_fit_s"):
            fitted = {m: harness.make_preproc(harness.ExperimentConfig(method=m, seed=self.seed),
                                              batch) for m in STATIC_METHODS}
            outputs = {m: p.forward(batch, training=False)[0].values for m, p in fitted.items()}
        static_docs = self._check_static(ledger, batch, fitted, outputs)

        kl_bytes = self.kl_json.read_bytes()
        kl_doc = json.loads(kl_bytes)
        roundtrip_err = self._check_kl(ledger, batch, kl_doc)
        history = kl_doc["history"]
        nll = min(h["nll"] for h in history)
        ledger.record("desk-offline: kl-fit lowers the NLL", nll < history[0]["nll"],
                      f"{history[0]['nll']:.4f} -> {nll:.4f}")
        return JobResult(
            seconds=stages.total, train_seconds=stages.seconds["kl_fit_s"],
            series_epochs=batch.n * (len(history) - 1),
            report=_digest(kl_bytes, self.normalized.read_bytes(), static_docs.encode()),
            stages=stages.seconds,
            notes={"kl_nll_initial": (history[0]["nll"], "nat"), "kl_nll_final": (nll, "nat"),
                   "kl_epochs_run": (len(history) - 1, "count"),
                   "kl_roundtrip_max_abs_err": (roundtrip_err, "abs")},
        )

    def _check_static(self, ledger, batch, fitted, outputs) -> str:
        docs = {}
        for method, preproc in fitted.items():
            out = outputs[method]
            ledger.record(f"desk-offline: {method} output finite", bool(np.all(np.isfinite(out))))
            text = json.dumps(preproc.pipeline.to_json_dict(), sort_keys=True)
            again = harness.StaticPreproc.from_json_dict(json.loads(text))
            same = np.array_equal(again.forward(batch, training=False)[0].values, out) and \
                json.dumps(again.pipeline.to_json_dict(), sort_keys=True) == text
            ledger.record(f"desk-offline: {method} JSON round-trips", same)
            docs[method] = text
        return json.dumps(docs, sort_keys=True)

    def _check_kl(self, ledger, batch, kl_doc) -> float:
        params = flow_kl.KlBijectorParams.from_json_dict(kl_doc["preproc"])
        z, _ = flow_kl.normalize_direction(batch, params)
        back = flow_kl.generate_direction(z, params)
        err = float(np.max(np.abs(back.values - batch.values)))
        ledger.record("desk-offline: KL normalize->generate roundtrip < 1e-9",
                      err < KL_ROUNDTRIP_BOUND, f"max abs error {err:.3e}")
        normalized = data.load_csv(self.normalized).batch.values
        ledger.record("desk-offline: preprocess output equals normalize_direction",
                      np.array_equal(normalized, z.values))
        ledger.record("desk-offline: preprocess output finite",
                      bool(np.all(np.isfinite(normalized))))
        return err


WORKLOADS = {w.name: w for w in (DeskFold, WideFold, DeskOffline)}
