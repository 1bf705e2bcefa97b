"""``tools/bench_pairs.py``: the run plan and the summary of canned result
lines.  Nothing here starts a process."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
END_TO_END = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]


@pytest.fixture
def tool(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the summariser started a process")

    monkeypatch.setattr(subprocess, "run", refuse)
    monkeypatch.setattr(subprocess, "Popen", refuse)
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def line(job_s, series_per_s, setup_s=0.01, rss=88.0, failed=0, attempted=30):
    metrics = {"job_s": (job_s, "s"), "train_series_per_s": (series_per_s, "1/s"),
               "setup_s": (setup_s, "s"), "peak_rss_mb": (rss, "MB"),
               "kl_fit_s": (0.5, "s")}
    return json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                       "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}})


def test_pairs_alternate_which_side_runs_first(tool):
    runs = tool.plan(["desk-offline", "wide-fold"], 3, 100)
    assert len(runs) == 12
    first = [(r["workload"], r["pair"], r["seed"], r["side"]) for r in runs if r["order"] == 1]
    assert first == [("desk-offline", 1, 100, "parent"), ("desk-offline", 2, 101, "change"),
                     ("desk-offline", 3, 102, "parent"), ("wide-fold", 1, 100, "parent"),
                     ("wide-fold", 2, 101, "change"), ("wide-fold", 3, 102, "parent")]
    for a, b in zip(runs[::2], runs[1::2]):  # one pair: one seed, both sides
        assert (a["pair"], a["seed"]) == (b["pair"], b["seed"]) and a["side"] != b["side"]


def test_the_result_line_is_the_last_json_line(tool):
    out = "== machine {}\n  job_s 1.0 s\n" + line(1.0, 9000.0) + "\n"
    assert tool.result_line(out)["metrics"]["job_s"]["value"] == 1.0
    assert tool.result_line("FAILED something\nTraceback ...") is None
    assert tool.result_line(out + "[1, 2]\n") is None
    assert tool.result_line("") is None


def test_summary_of_canned_pairs(tool):
    runs = tool.plan(["desk-offline"], 10, 200)
    # the change is faster in pairs 1-9 and slower in pair 10; pair 10's
    # parent also failed one operation
    parent_job = [1.00, 1.10, 0.90, 1.05, 0.95, 1.20, 1.02, 0.98, 1.01, 0.80]
    change_job = [0.80, 0.85, 0.70, 0.82, 0.78, 0.90, 0.81, 0.79, 0.80, 0.85]
    for run in runs:
        i = run["pair"] - 1
        job = parent_job[i] if run["side"] == "parent" else change_job[i]
        failed = 1 if (run["side"], run["pair"]) == ("parent", 10) else 0
        run["result"] = tool.result_line(line(job, 5000.0 / job, failed=failed))
    summary = tool.summarise(runs, END_TO_END)["desk-offline"]
    assert summary["pairs"] == summary["complete_pairs"] == 10
    assert summary["failed_ops"]["parent"] == {"failed": 1, "attempted": 300,
                                               "runs_without_result": 0, "ratio": 1 / 300}
    assert summary["failed_ops"]["change"]["ratio"] == 0.0
    job = summary["metrics"]["job_s"]
    assert job["parent"]["median"] == pytest.approx(1.005)
    assert job["change"]["median"] == pytest.approx(0.805)
    assert (job["parent"]["q1"], job["parent"]["q3"]) == pytest.approx((0.9575, 1.0425))
    assert job["ratio"] == pytest.approx(0.805 / 1.005)
    assert (job["wins"], job["losses"], job["ties"]) == (9, 1, 0)
    assert job["gain"] and job["within_bound"]
    rate = summary["metrics"]["train_series_per_s"]
    assert rate["better"] == "higher" and (rate["wins"], rate["losses"]) == (9, 1)
    assert rate["gain"] and rate["ratio"] > 1.2
    # equal values in every pair: no wins, a ratio of 1, inside the bound, no gain
    rss = summary["metrics"]["peak_rss_mb"]
    assert (rss["wins"], rss["ties"], rss["ratio"]) == (0, 10, 1.0)
    assert rss["within_bound"] and not rss["gain"]
    assert "kl_fit_s" not in summary["metrics"]  # a stage time, not an end-to-end metric


def test_a_gain_needs_nine_tenths_of_the_pairs_and_a_gap_past_the_parent_spread(tool):
    def job_summary(parent, change):
        runs = tool.plan(["desk-fold"], len(parent), 1)
        for run in runs:
            job = (parent if run["side"] == "parent" else change)[run["pair"] - 1]
            run["result"] = tool.result_line(line(job, 1.0 / job))
        return tool.summarise(runs, END_TO_END)["desk-fold"]["metrics"]["job_s"]

    parent = [1.0, 1.2, 1.4, 1.6, 1.8, 2.0, 2.2, 2.4, 2.6, 2.8]
    # wins all ten pairs, but the medians differ by 0.1 against a parent spread of 0.9
    close = job_summary(parent, [v - 0.1 for v in parent])
    assert close["wins"] == 10 and not close["gain"]
    # eight of ten pairs won by a wide margin is not nine tenths
    wide = job_summary(parent, [v * 0.5 for v in parent[:8]] + [5.0, 5.0])
    assert wide["wins"] == 8 and not wide["gain"]
    # 30% slower against a bound of 25%
    slow = job_summary(parent, [v * 1.3 for v in parent])
    assert not slow["within_bound"] and slow["losses"] == 10


def test_a_run_without_a_result_leaves_its_pair_out(tool):
    runs = tool.plan(["wide-fold"], 3, 7)
    for run in runs:
        run["result"] = None if (run["pair"], run["side"]) == (2, "change") else \
            tool.result_line(line(2.0, 1000.0))
    summary = tool.summarise(runs, END_TO_END)["wide-fold"]
    assert (summary["pairs"], summary["complete_pairs"]) == (3, 2)
    assert summary["failed_ops"]["change"]["runs_without_result"] == 1
    assert summary["metrics"]["job_s"]["ties"] == 2


def test_a_spread_wider_than_the_bound_leaves_a_metric_unresolved(tool):
    def setup_summary(parent, change):
        runs = tool.plan(["desk-fold"], len(parent), 1)
        for run in runs:
            setup = (parent if run["side"] == "parent" else change)[run["pair"] - 1]
            run["result"] = tool.result_line(line(6.4, 700.0, setup_s=setup))
        return tool.summarise(runs, END_TO_END)["desk-fold"]["metrics"]

    # desk-fold's bimodal setup: runs near 0.09 s and near 0.16-0.17 s on both sides
    parent = [0.089, 0.165, 0.091, 0.170, 0.090, 0.162, 0.088, 0.168, 0.092, 0.116]
    change = [0.163, 0.090, 0.171, 0.089, 0.166, 0.091, 0.160, 0.093, 0.169, 0.118]
    bimodal = setup_summary(parent, change)
    setup = bimodal["setup_s"]
    assert (setup["parent"]["q3"] - setup["parent"]["q1"]) / setup["parent"]["median"] > 0.25
    assert setup["unresolved"] and not setup["gain"]
    assert not bimodal["job_s"]["unresolved"]  # equal in every pair: no spread
    # the same parent spread, but every change run reads better than every parent run
    faster = setup_summary(parent, [0.080 + i * 0.0005 for i in range(10)])["setup_s"]
    assert not faster["unresolved"] and faster["wins"] == 10
    # every change run slower than every parent run is still unresolved
    slower = setup_summary(parent, [0.2 + i * 0.001 for i in range(10)])["setup_s"]
    assert slower["unresolved"] and not slower["within_bound"]
    # a tight parent spread resolves the metric whatever the change reads
    tight = setup_summary([0.09 + i * 1e-4 for i in range(10)], change)["setup_s"]
    assert not tight["unresolved"]
