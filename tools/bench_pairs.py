"""Alternating benchmark pairs: a parent commit against this checkout.

    python3 tools/bench_pairs.py --parent HEAD~1 --workload desk-offline \\
        --pairs 10 --seed-base 2301 --out BENCH.json

The parent's committed files are extracted with ``git archive`` into a
temporary directory, so the parent runs from a fresh tree of its commit and
the repository's own worktree list is left alone.  The change side is the
checkout this file sits in.  Pair ``i`` (from 1) runs the benchmark command
of ``BENCHMARK.json`` (``bench/run.py``, for ``run_seconds``) in both trees
with seed ``seed-base + i - 1``, the parent first when ``i`` is odd; the two
runs of a pair go one after the other, never side by side.  ``--workload``
may be given more than once; each workload's pairs run in turn.

The output holds the machine fingerprint (``tools/digests.fingerprint()``),
the commits, the commands, every run (side, order, seed, exit status and its
JSON result line) and, per workload and end-to-end metric of
``BENCHMARK.json``, each side's median and quartiles, the ratio of the
medians (change over parent), the pairs the change won, lost and tied,
whether the change's median is inside the metric's bound, whether the
metric is unresolved (the parent's interquartile range is wider than the
bound, relative to its median, and not every change run reads better than
every parent run), and whether a gain may be claimed: the change wins at
least nine tenths of the pairs and the medians differ by more than the
parent's interquartile range.  ``--dry-run`` prints the plan and runs nothing.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 900  # one bench/run.py invocation; its own hard limit is 150 s of jobs


def plan(workloads: list[str], pairs: int, seed_base: int) -> list[dict]:
    """Every run in order: workload, pair, seed, side and its place in the pair."""
    runs = []
    for workload in workloads:
        for pair in range(1, pairs + 1):
            sides = ("parent", "change") if pair % 2 else ("change", "parent")
            runs += [{"workload": workload, "pair": pair, "seed": seed_base + pair - 1,
                      "side": side, "order": order} for order, side in enumerate(sides, 1)]
    return runs


def result_line(stdout: str):
    """The JSON result line that ends a benchmark run's output, or None."""
    lines = stdout.strip().splitlines()
    try:
        doc = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None
    return doc if isinstance(doc, dict) and "metrics" in doc else None


def _quartiles(values: list[float]) -> dict:
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3}


def summarise(runs: list[dict], end_to_end: list[dict]) -> dict:
    """Per workload: the failed-operation share of each side, and per
    end-to-end metric each side's median and quartiles over the pairs in
    which both sides gave a result line, the ratio, wins, the bound check,
    whether the parent's spread leaves the metric unresolved, and the claim
    rule.  ``runs`` are :func:`plan` entries with a ``result``
    (the parsed result line, or None for a run that gave none)."""
    out = {}
    for workload in dict.fromkeys(run["workload"] for run in runs):
        mine = [run for run in runs if run["workload"] == workload]
        by_pair = {}
        for run in mine:
            by_pair.setdefault(run["pair"], {})[run["side"]] = run.get("result")
        complete = {pair: sides for pair, sides in sorted(by_pair.items())
                    if sides.get("parent") and sides.get("change")}
        summary = {"pairs": len(by_pair), "complete_pairs": len(complete), "failed_ops": {}}
        for side in ("parent", "change"):
            results = [run.get("result") for run in mine if run["side"] == side]
            attempted = sum(r["attempted"] for r in results if r)
            failed = sum(r["failed"] for r in results if r)
            summary["failed_ops"][side] = {
                "failed": failed, "attempted": attempted, "runs_without_result":
                    sum(r is None for r in results),
                "ratio": failed / attempted if attempted else None}
        metrics = {}
        for spec in end_to_end:
            name, lower = spec["name"], spec["better"] == "lower"
            pairs = [(sides["parent"]["metrics"][name]["value"],
                      sides["change"]["metrics"][name]["value"]) for sides in complete.values()
                     if name in sides["parent"]["metrics"] and name in sides["change"]["metrics"]]
            if not pairs:
                continue
            parent, change = (_quartiles([p[i] for p in pairs]) for i in (0, 1))
            wins = sum((c < p) if lower else (c > p) for p, c in pairs)
            ties = sum(c == p for p, c in pairs)
            ratio = change["median"] / parent["median"] if parent["median"] else math.nan
            worse_by = (ratio - 1.0) if lower else (1.0 - ratio)
            olds, news = [p for p, _ in pairs], [c for _, c in pairs]
            all_better = max(news) < min(olds) if lower else min(news) > max(olds)
            metrics[name] = {
                "unit": spec.get("unit"), "better": spec["better"], "bound": spec["bound"],
                "parent": parent, "change": change, "ratio": ratio,
                "wins": wins, "losses": len(pairs) - wins - ties, "ties": ties,
                "within_bound": worse_by <= spec["bound"],
                "unresolved": parent["q3"] - parent["q1"] > spec["bound"] * abs(parent["median"])
                              and not all_better,
                "gain": wins >= 0.9 * len(pairs) and (1.0 if lower else -1.0) *
                        (parent["median"] - change["median"]) > parent["q3"] - parent["q1"],
                "pairs": [{"parent": p, "change": c} for p, c in pairs]}
        summary["metrics"] = metrics
        out[workload] = summary
    return out


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def _extract(rev: str, dest: Path) -> None:
    archive = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT, check=True,
                             capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        # extraction filters exist from Python 3.10.12 and 3.11.4 on
        tar.extractall(dest, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))


def _run(command: list[str], tree: Path) -> dict:
    try:
        proc = subprocess.run(command, cwd=tree, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"exit": None, "result": None, "error": f"timed out after {RUN_TIMEOUT_S} s"}
    machine = next((json.loads(line[len("== machine "):]) for line in proc.stdout.splitlines()
                    if line.startswith("== machine ")), None)
    run = {"exit": proc.returncode, "machine": machine, "result": result_line(proc.stdout)}
    if run["result"] is None:
        run["error"] = proc.stderr.strip()[-2000:]
    return run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision of the parent side")
    parser.add_argument("--workload", required=True, action="append",
                        help="benchmark workload; repeat for several")
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed-base", type=int, required=True, dest="seed_base")
    parser.add_argument("--out", default="BENCH.json", help="JSON file to write")
    parser.add_argument("--dry-run", action="store_true", dest="dry_run",
                        help="print the plan and run nothing")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be positive")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    known = [w["name"] for w in bench["workloads"]]
    for workload in args.workload:
        if workload not in known:
            parser.error(f"unknown workload {workload!r}; choose from {', '.join(known)}")
    runs = plan(args.workload, args.pairs, args.seed_base)
    seconds = str(bench["run_seconds"])

    def command(run: dict) -> list[str]:
        return [*bench["command"], "--workload", run["workload"], "--seed", str(run["seed"]),
                "--seconds", seconds]

    if args.dry_run:
        for run in runs:
            print(f"{run['workload']} pair {run['pair']} run {run['order']}: {run['side']:<6} "
                  + " ".join(command(run)))
        return 0

    from digests import fingerprint  # tools/ is on sys.path when this file runs
    doc = {"fingerprint": fingerprint(), "nproc": os.cpu_count(),
           "parent": _git("rev-parse", args.parent), "change": _git("rev-parse", "HEAD"),
           "change_tree_dirty": bool(_git("status", "--porcelain", "--untracked-files=no")),
           "run_seconds": bench["run_seconds"], "runs": runs}
    with tempfile.TemporaryDirectory(prefix="bench-parent-") as tmp:
        trees = {"parent": Path(tmp), "change": ROOT}
        _extract(doc["parent"], trees["parent"])
        for run in runs:
            run["command"] = command(run)
            run.update(_run(run["command"], trees[run["side"]]))
            metrics = (run["result"] or {}).get("metrics", {})
            print(f"{run['workload']} pair {run['pair']} {run['side']:<6} seed {run['seed']}: "
                  + ("; ".join(f"{k} {metrics[k]['value']:.6g}" for k in
                               (m["name"] for m in bench["end_to_end"]) if k in metrics)
                     or run.get("error", "no result")), flush=True)
    doc["summary"] = summarise(runs, bench["end_to_end"])
    Path(args.out).write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
