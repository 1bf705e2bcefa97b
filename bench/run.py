"""tsnorm benchmark: one workload per invocation, outputs checked, one JSON result line.

Run from the repository root:

    python3 bench/run.py --workload desk-fold --seed 1 --seconds 25 --trace 0

Workloads are described in ``workloads.py``.  The program is imported from
``src/`` of the checkout this file sits in; nothing needs installing.  Files
the run writes go to ``.bench_work/`` at the checkout root.

``--trace 0`` repeats the workload's job for ``--seconds`` (at least twice,
so same-seed reports can be compared) and prints the end-to-end metrics.
``--trace 1`` alternates untraced and traced jobs, reports each layer's share
of self time, call counts and the tracing overhead, then runs the per-layer
microbenchmarks; the spans are written to ``.bench_work/``.

The last stdout line is
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
``failed_ops`` is ``failed / attempted``; an operation is a fold, a CLI call
or an output check.  The exit status is non-zero, with no result line, when
the program cannot be imported from ``src/`` or no job completes.
"""

from __future__ import annotations

import os

# BLAS threads are pinned before numpy loads.  On the 2-core reference
# machine one thread trained no slower than two, and one thread keeps the
# benchmark to a single core's worth of load.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import ctypes
import json
import math
import platform
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter as clock

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".bench_work"
# set-up repeats until it has run at least this often and this long
SETUP_REPEATS, SETUP_MIN_S = 3, 1.0
MIN_JOBS = 2
# stop starting jobs once another one could push the run past this
HARD_LIMIT_S = 150.0

# Functions whose self-time share and call count the traced run reports.
TRACED_FUNCTIONS = (
    "neural.gru_forward", "neural.gru_backward", "neural.Optimizer.step", "neural.train_loop",
    "adaptive.edain_forward", "adaptive.edain_backward",
    "yeojohnson.forward", "yeojohnson.dx", "yeojohnson.dlam", "yeojohnson.inverse",
    "data.TimeSeriesBatch", "data.load_csv", "data.save_csv",
    "flow_kl.negative_log_likelihood", "flow_kl.normalize_direction",
    "flow_kl.generate_direction",
    "static_norm.fit_kdit", "static_norm.fit_yeo_johnson_static",
    "static_norm.fit_cdf_inversion", "static_norm.apply_zscore", "static_norm.apply_minmax",
    "static_norm.apply_winsorize", "static_norm.apply_yeo_johnson_static",
    "static_norm.apply_cdf_inversion", "static_norm.apply_kdit",
    "synthgen.generate_dataset", "synthgen.nearest_psd",
    "harness.make_preproc", "metrics.amex_metric",
)
LAYERS = ("data", "synthgen", "static_norm", "yeojohnson", "adaptive", "flow_kl", "neural",
          "metrics", "harness", "cli")


def import_program() -> None:
    if not (SRC / "tsnorm" / "__init__.py").is_file():
        sys.exit(f"error: no program source at {SRC / 'tsnorm'}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import tsnorm
    if Path(tsnorm.__file__).resolve().parent != SRC / "tsnorm":
        sys.exit(f"error: imported tsnorm from {tsnorm.__file__}, not from {SRC}")


def blas_threads() -> str:
    """Thread count OpenBLAS reports, read through its own C entry point."""
    import numpy as np
    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                return str(getattr(handle, symbol)())
    return f"unknown (OPENBLAS_NUM_THREADS={os.environ['OPENBLAS_NUM_THREADS']})"


def machine_facts() -> dict:
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "machine": platform.machine(),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def run_job(workload, ledger, stages, results: list) -> bool:
    """One job; a job that raises is a failed operation and ends the run."""
    try:
        results.append(workload.job(ledger, stages))
        return True
    except Exception:  # noqa: BLE001 - the benchmark reports the failure and stops
        ledger.record(f"{workload.name}: job raised", False,
                      traceback.format_exc(limit=-3).strip().replace("\n", " | "))
        return False


def keep_going(start: float, seconds: float, done: int, minimum: int, last: float) -> bool:
    elapsed = clock() - start
    if elapsed + last > HARD_LIMIT_S:
        return False
    return done < minimum or elapsed < seconds


def end_to_end(results, setup_times) -> dict:
    med = statistics.median
    return {
        "job_s": (med(r.seconds for r in results), "s"),
        "train_series_per_s": (med(r.series_epochs / r.train_seconds for r in results), "1/s"),
        "setup_s": (med(setup_times), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def layer_shares(tracer) -> tuple[dict, dict, float]:
    """Self-time share (%) per layer, per-function totals, and the traced wall time.

    The roots are the jobs' timed blocks; calls made by output checks fall
    outside them and are left out.
    """
    totals: dict[str, dict] = {}
    wall = 0.0
    for root, span in enumerate(tracer.spans):
        if span[3] != -1 or not span[0].startswith("bench."):
            continue
        wall += span[2] - span[1]
        for name, row in tracer.self_times(root).items():
            acc = totals.setdefault(name, {"calls": 0, "self_s": 0.0})
            acc["calls"] += row["calls"]
            acc["self_s"] += row["self_s"]
    by_layer = {layer: 0.0 for layer in (*LAYERS, "bench")}
    for name, row in totals.items():
        by_layer[name.split(".")[0]] += row["self_s"]
    return {layer: 100.0 * s / wall for layer, s in by_layer.items()}, totals, wall


def run_jobs(workload, ledger, stages_cls, tracer, seconds: float) -> tuple[list, list]:
    """Repeat the job; with a tracer, each round is one untraced then one traced job."""
    results, traced_results = [], []
    minimum = 1 if tracer else MIN_JOBS
    start, last, rounds = clock(), 0.0, 0
    while keep_going(start, seconds, rounds, minimum, last):
        t0 = clock()
        if not run_job(workload, ledger, stages_cls(), results):
            break
        if tracer:
            tracer.install()
            try:
                ok = run_job(workload, ledger, stages_cls(tracer), traced_results)
            finally:
                tracer.uninstall()
            if not ok:
                break
        last = clock() - t0
        rounds += 1
    return results, traced_results


def traced_metrics(tracer, results, traced_results) -> dict:
    """Tracing overhead, layer and function self-time shares, and call counts."""
    shares, totals, wall = layer_shares(tracer)
    jobs = len(traced_results)
    untraced = statistics.median(r.seconds for r in results)
    traced = statistics.median(r.seconds for r in traced_results)
    layer = {"trace_overhead_pct": (100.0 * (traced / untraced - 1.0), "%"),
             "trace_spans": (sum(row["calls"] for row in totals.values()) / jobs, "count")}
    layer.update({f"self_pct.{k}": (v, "%") for k, v in shares.items()})
    for name in TRACED_FUNCTIONS:
        row = totals.get(name, {"calls": 0, "self_s": 0.0})
        layer[f"self_pct.{name}"] = (100.0 * row["self_s"] / wall, "%")
        layer[f"calls.{name}"] = (row["calls"] / jobs, "count")
    print_table("self seconds per traced function, per job", {
        name: (row["self_s"] / jobs, f"s  calls {row['calls'] // jobs}")
        for name, row in sorted(totals.items(), key=lambda kv: -kv[1]["self_s"])})
    return layer


def print_table(title: str, rows: dict) -> None:
    print(f"== {title}")
    for name, (value, unit) in rows.items():
        print(f"  {name:<48} {value:>16.6g} {unit}")


def main(argv=None) -> int:
    from workloads import WORKLOADS  # noqa: E402 - needs the program on sys.path

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import tsnorm
    import micro
    from spans import Tracer
    from workloads import Ledger, Stages

    WORKDIR.mkdir(exist_ok=True)
    facts = machine_facts()
    print("== machine " + json.dumps(facts, sort_keys=True))
    workload = WORKLOADS[args.workload](args.seed, WORKDIR)
    ledger = Ledger()

    setup_times = []
    while len(setup_times) < SETUP_REPEATS or sum(setup_times) < SETUP_MIN_S:
        start = clock()
        workload.setup()
        setup_times.append(clock() - start)

    tracer = Tracer(tsnorm)
    results, traced_results = run_jobs(workload, ledger, Stages, tracer if args.trace else None,
                                       args.seconds)
    if not results:
        print("error: no job completed: " + "; ".join(ledger.errors), file=sys.stderr)
        return 2
    every = results + traced_results
    ledger.record(f"{workload.name}: same-seed reports identical",
                  all(r.report == every[0].report for r in every),
                  f"{len({r.report for r in every})} distinct digests in {len(every)} jobs")

    print("== job_s per job: " + " ".join(f"{r.seconds:.4f}" for r in results)
          + "  traced: " + " ".join(f"{r.seconds:.4f}" for r in traced_results))
    metrics = end_to_end(results, setup_times)
    # Stage times and quality values are printed, not bounded: valid_bce and
    # kl_nll depend on the seed's dataset more than any bound allows.
    # failed_ops is 0 when all is well, so it travels in "failed"/"attempted".
    med = statistics.median
    printed = {**metrics,
               **{k: (med(r.stages[k] for r in results), "s") for k in results[0].stages},
               **{k: (med(r.notes[k][0] for r in results), unit)
                  for k, (_, unit) in results[0].notes.items()},
               "failed_ops": (ledger.failed / ledger.attempted, "ratio")}
    print_table(f"end-to-end {workload.name} seed {args.seed}, median of {len(results)} jobs "
                f"and {len(setup_times)} set-ups", printed)

    if args.trace:
        if not traced_results:
            print("error: traced job failed: " + "; ".join(ledger.errors), file=sys.stderr)
            return 2
        layer = traced_metrics(tracer, results, traced_results)
        layer.update(micro.run(args.seed, WORKDIR))
        print_table(f"per-layer {workload.name} seed {args.seed}", layer)
        tracer.write(WORKDIR / f"spans-{workload.name}-seed{args.seed}.json",
                     {"workload": workload.name, "seed": args.seed, "machine": facts})
        metrics = layer

    for msg in ledger.errors:
        print(f"FAILED {msg}")
    bad = [k for k, (v, _) in metrics.items() if not math.isfinite(v)]
    if bad:
        print(f"error: non-finite metrics {bad}", file=sys.stderr)
        return 2
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    import_program()
    sys.exit(main())
