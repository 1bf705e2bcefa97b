"""Byte-identity recipe: sha256 of every CLI artefact of one small, seeded run.

Runs ``generate``, then ``train`` (report, checkpoint, history) followed by
``evaluate`` and ``preprocess`` for five methods, then ``kl-fit`` and its
``preprocess``, all with the ``tsnorm`` package found under ``--src``, in a
fresh temporary directory with relative paths (reports echo the CSV path).
Each checkpoint is also loaded and written back, which pins the loaders and
the writers.  A larger ``generate`` CSV (20,000 rows, several loader
chunks) is loaded and saved again, and a ``kdit`` static pipeline is fitted
on it.  On that CSV a two-cell ``edain_global`` model with dropout
0.2 between the cells is trained (report, checkpoint, history) and evaluated;
its 400 validation and 2,000 evaluated series span several evaluation
blocks.  A ``train`` is driven by flags alone, with no ``--config``,
on a generated synthetic set, which pins the flag-to-config path.  Then a
``generate --pdf-config`` set of 80 features x 13 steps trains
``edain_global`` and ``edain_local`` at batch 128 (report, checkpoint,
history) and is evaluated: each minibatch and evaluation block holds more
values than one EDAIN row block, so those runs go through several.  Last,
the 20,000-row CSV is respelled from row 10,002 on (ids like ``1_234``,
quoted feature cells, one of them broken over two lines) and loaded and
saved again: its first chunks take numpy's parser and the rest the csv
module's, and the saved file equals the one saved from the plain CSV.  Then
a ``generate --pdf-config`` set of 1 feature x 700 steps: its (700 x 700)
covariance spans several of ``synthgen.ROW_BLOCK``'s 128-row strips and is
not a multiple of them.  One ``name sha256`` line is printed per artefact,
so two trees compare with a single diff:

    python3 tools/digests.py --src . > new.txt
    python3 tools/digests.py --src /path/to/other/checkout > old.txt
    diff old.txt new.txt

``tests/data/digests.txt`` holds these lines under a ``# fingerprint``
line of :func:`fingerprint`, and ``tests/test_digests.py`` checks the
recipe against them.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

METHODS = ("edain_global", "edain_local", "dain", "edain_kl", "kdit")

# loads a checkpoint's preprocessing and model and writes them back unchanged
RESAVE = """
import json, sys
from tsnorm.cli import _load_preproc
from tsnorm.harness import save_report
from tsnorm.neural import GruStack
doc = json.loads(open(sys.argv[1]).read())
save_report({"preproc": _load_preproc(doc["preproc"]).to_json_dict(),
             "model": GruStack.from_json_dict(doc["model"]).to_json_dict()}, sys.argv[2])
"""

# loads a CSV, writes it back and writes the kdit static pipeline fitted on it
RESAVE_CSV = """
import sys
from tsnorm.data import load_csv, save_csv
from tsnorm.harness import save_report
from tsnorm.static_norm import StaticPipeline
dataset = load_csv(sys.argv[1])
save_csv(dataset, sys.argv[2])
save_report(StaticPipeline(["kdit"]).fit(dataset.batch).to_json_dict(), sys.argv[3])
"""

# loads a CSV and writes it back
RESAVE_PLAIN_CSV = """
import sys
from tsnorm.data import load_csv, save_csv
save_csv(load_csv(sys.argv[1]), sys.argv[2])
"""


def _respelled(csv_text: str, start: int) -> str:
    """The CSV text with every line from ``start`` on respelled: a series id
    of two or more digits as ``1_234``, each feature cell quoted, and the
    first respelled line's first feature cell broken over two lines."""
    lines = csv_text.split("\r\n")
    for i in range(start, len(lines) - 1):  # the text ends with a line break
        sid, step, *feats, label = lines[i].split(",")
        sid = sid[0] + "_" + sid[1:] if len(sid) > 1 else sid
        feats = [f'"{cell}"' for cell in feats]
        if i == start:
            feats[0] = feats[0][:-1] + '\n"'
        lines[i] = ",".join([sid, step, *feats, label])
    return "\r\n".join(lines)


def _config(method: str) -> dict:
    cv = ({"kind": "kfold", "k": 3} if method == "edain_global"
          else {"kind": "holdout", "valid_fraction": 0.2})
    return {
        "method": method, "seed": 3, "repetitions": 2, "dataset": {"csv": "data.csv"},
        "model": {"hidden": [4], "head": [4], "dropout": 0.1},
        "train": {"max_epochs": 3, "batch_size": 32, "milestones": [2], "patience": 5},
        "cv": cv,
    }


# a train run set by experiment flags alone, with no --config
FLAG_RUN = ("--synth-n", "200", "--synth-t", "6", "--method", "edain_local", "--seed", "4",
            "--epochs", "2", "--batch-size", "32", "--cv", "kfold", "--k", "3",
            "--repetitions", "2")

# two GRU cells, so the inter-cell dropout mask is exercised
DEEP_CONFIG = {
    "method": "edain_global", "seed": 5, "repetitions": 1, "dataset": {"csv": "big.csv"},
    "model": {"hidden": [4, 4], "head": [4], "dropout": 0.2},
    "train": {"max_epochs": 2, "batch_size": 64, "milestones": [1], "patience": 5},
    "cv": {"kind": "holdout", "valid_fraction": 0.2},
}


# 80 features x 13 steps: 128 series hold 133,120 values, over two EDAIN row
# blocks (adaptive.EDAIN_BLOCK_ELEMENTS = 2**16)
_WIDE_SHAPES = (("phi(x)", [-6, 6], [-1, 0.5]), ("np.exp(-x) * (x > 0)", [0, 10], [-1]),
                ("0.3 * phi(x + 2) + 0.7 * phi((x - 1) / 0.5) / 0.5", [-7, 4], [-1, 0.8, 0.3]))
WIDE_PDFS = {"features": [{"pdf": pdf, "bounds": bounds, "theta": theta}
                          for pdf, bounds, theta in (_WIDE_SHAPES[k % 3] for k in range(80))]}
WIDE_METHODS = ("edain_global", "edain_local")

# one feature x 700 steps: a 700 x 700 covariance, over six 128-row strips
LONG_PDFS = {"features": [{"pdf": "0.3 * phi(x + 2) + 0.7 * phi((x - 1) / 0.5) / 0.5",
                           "bounds": [-7, 4], "theta": [-1, 0.8, 0.3]}]}


def _wide_config(method: str) -> dict:
    return {
        "method": method, "seed": 6, "repetitions": 1, "dataset": {"csv": "wide.csv"},
        "model": {"hidden": [4], "head": [4], "dropout": 0.1},
        "train": {"max_epochs": 2, "batch_size": 128, "milestones": [2], "patience": 5},
        "cv": {"kind": "holdout", "valid_fraction": 0.2},
    }


def _package_root(src: Path) -> Path:
    for root in (src / "src", src):
        if (root / "tsnorm" / "cli.py").is_file():
            return root.resolve()
    raise SystemExit(f"no tsnorm package under {src}")


def fingerprint() -> dict:
    """What the digests depend on besides the source: the numpy, scipy and
    BLAS builds, python and the machine architecture."""
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "python": platform.python_version(), "machine": platform.machine()}


def run_recipe(src: Path, work: Path) -> list[tuple[str, str]]:
    env = dict(os.environ, PYTHONPATH=str(_package_root(src)), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")

    def python(*args: str) -> None:
        subprocess.run([sys.executable, *args], cwd=work, env=env, check=True,
                       stdout=subprocess.DEVNULL)

    def tsnorm(*args: str) -> None:
        python("-m", "tsnorm.cli", *args)

    artefacts = ["data.csv"]
    tsnorm("generate", "--n", "300", "--t", "6", "--seed", "11", "--out", "data.csv")
    for method in METHODS:
        names = {k: f"{method}.{k}" for k in
                 ("report.json", "ckpt.json", "history.csv", "eval.json", "norm.csv",
                  "resaved.json")}
        (work / f"{method}.config.json").write_text(json.dumps(_config(method)))
        tsnorm("train", "--config", f"{method}.config.json", "--out", names["report.json"],
               "--checkpoint-out", names["ckpt.json"], "--history-out", names["history.csv"])
        tsnorm("evaluate", "--data", "data.csv", "--checkpoint", names["ckpt.json"],
               "--out", names["eval.json"])
        tsnorm("preprocess", "--checkpoint", names["ckpt.json"], "--data", "data.csv",
               "--out", names["norm.csv"])
        python("-c", RESAVE, names["ckpt.json"], names["resaved.json"])
        artefacts.extend(names.values())
    tsnorm("kl-fit", "--data", "data.csv", "--out", "kl.json", "--epochs", "5", "--seed", "3")
    tsnorm("preprocess", "--checkpoint", "kl.json", "--data", "data.csv", "--out", "klnorm.csv")
    artefacts.extend(["kl.json", "klnorm.csv"])
    tsnorm("generate", "--n", "2000", "--t", "10", "--seed", "12", "--out", "big.csv")
    python("-c", RESAVE_CSV, "big.csv", "big.resaved.csv", "big.kdit.json")
    artefacts.extend(["big.csv", "big.resaved.csv", "big.kdit.json"])
    (work / "deep.config.json").write_text(json.dumps(DEEP_CONFIG))
    tsnorm("train", "--config", "deep.config.json", "--out", "deep.report.json",
           "--checkpoint-out", "deep.ckpt.json", "--history-out", "deep.history.csv")
    tsnorm("evaluate", "--data", "big.csv", "--checkpoint", "deep.ckpt.json",
           "--out", "deep.eval.json")
    artefacts.extend(["deep.report.json", "deep.ckpt.json", "deep.history.csv", "deep.eval.json"])
    tsnorm("train", *FLAG_RUN, "--out", "flags.report.json", "--checkpoint-out", "flags.ckpt.json",
           "--history-out", "flags.history.csv")
    artefacts.extend(["flags.report.json", "flags.ckpt.json", "flags.history.csv"])
    (work / "wide.pdfs.json").write_text(json.dumps(WIDE_PDFS))
    tsnorm("generate", "--pdf-config", "wide.pdfs.json", "--n", "400", "--t", "13",
           "--seed", "13", "--out", "wide.csv")
    artefacts.append("wide.csv")
    for method in WIDE_METHODS:
        names = {k: f"wide.{method}.{k}" for k in
                 ("report.json", "ckpt.json", "history.csv", "eval.json")}
        (work / f"wide.{method}.config.json").write_text(json.dumps(_wide_config(method)))
        tsnorm("train", "--config", f"wide.{method}.config.json", "--out", names["report.json"],
               "--checkpoint-out", names["ckpt.json"], "--history-out", names["history.csv"])
        tsnorm("evaluate", "--data", "wide.csv", "--checkpoint", names["ckpt.json"],
               "--out", names["eval.json"])
        artefacts.extend(names.values())
    big = (work / "big.csv").read_bytes().decode()
    (work / "respelled.csv").write_bytes(_respelled(big, 10_001).encode())
    python("-c", RESAVE_PLAIN_CSV, "respelled.csv", "respelled.resaved.csv")
    artefacts.extend(["respelled.csv", "respelled.resaved.csv"])
    (work / "long.pdfs.json").write_text(json.dumps(LONG_PDFS))
    tsnorm("generate", "--pdf-config", "long.pdfs.json", "--n", "60", "--t", "700",
           "--seed", "14", "--out", "long.csv")
    artefacts.append("long.csv")
    return [(name, hashlib.sha256((work / name).read_bytes()).hexdigest()) for name in artefacts]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True, type=Path,
                        help="checkout (or its src/ directory) whose tsnorm to run")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="tsnorm-digests-") as tmp:
        for name, digest in run_recipe(args.src, Path(tmp)):
            print(f"{name} {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
