"""Write the checkpoint fixtures that ``tests/test_checkpoints.py`` loads.

For each preprocessing kind (EDAIN global and local, DAIN, EDAIN-KL, a static
pipeline and the identity) this trains a small GRU for three epochs on a
seeded synthetic set with the ``tsnorm`` package found under ``--src``, and
writes one JSON file holding the checkpoint, a held-out batch, and what that
checkpoint produced on it: the preprocessing output, the probabilities and
the ``evaluate`` metrics.  A later tree must load each file and reproduce all
three bit for bit, and write the checkpoint back unchanged:

    python3 tools/checkpoint_fixtures.py --src /path/to/checkout --out tests/data
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

KINDS = {
    "edain_global": "edain_global",
    "edain_local": "edain_local",
    "dain": "dain",
    "edain_kl": "edain_kl",
    "static": "winsorize+zscore+yj",
    "identity": "none",
}


def write_fixtures(out: Path) -> None:
    import numpy as np
    from tsnorm.harness import ExperimentConfig, fold_metrics, make_preproc, save_report
    from tsnorm.neural import GruStack, TrainConfig, gru_forward, train_loop
    from tsnorm.synthgen import default_config, generate_dataset

    data = generate_dataset(default_config(n=48, t=5, seed=7))
    train, held = data.subset(np.arange(36)), data.subset(np.arange(36, 48))
    for kind, method in KINDS.items():
        config = ExperimentConfig(method=method, seed=0)
        preproc = make_preproc(config, train.batch)
        model = GruStack(d_in=data.batch.d, hidden=(3,), head=(3,), dropout=0.0,
                         rng=np.random.default_rng(5))
        train_config = TrainConfig(base_lr=1e-2, batch_size=12, max_epochs=3, milestones=(),
                                   patience=3, seed=1,
                                   corrections=config.resolved_corrections())
        result = train_loop(train, held, preproc, model, train_config)
        xn, _ = result.preproc.forward(held.batch, training=False)
        probs, _ = gru_forward(xn, result.model, training=False)
        save_report({
            "checkpoint": {"preproc": result.preproc.to_json_dict(),
                           "model": result.model.to_json_dict()},
            "values": held.batch.values.tolist(),
            "labels": held.labels.tolist(),
            "preproc_out": xn.values.tolist(),
            "probs": probs.tolist(),
            "metrics": fold_metrics(held, probs),
        }, out / f"ckpt_{kind}.json")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True, type=Path,
                        help="checkout (or its src/ directory) whose tsnorm writes the files")
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)
    root = args.src / "src" if (args.src / "src" / "tsnorm").is_dir() else args.src
    sys.path.insert(0, str(root.resolve()))
    args.out.mkdir(parents=True, exist_ok=True)
    write_fixtures(args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
