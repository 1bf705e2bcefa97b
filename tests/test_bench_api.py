"""The library surface that the ``--trace 1`` microbenchmarks call.

``bench/micro.py`` is loaded from its file, unchanged, and every case it
times is called once at a small shape, so a refactor that renames or
re-signs a function it uses fails here rather than in a benchmark run.
"""

import importlib.util
from pathlib import Path

import numpy as np

MICRO = Path(__file__).resolve().parent.parent / "bench" / "micro.py"


def load_micro():
    spec = importlib.util.spec_from_file_location("bench_micro", MICRO)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_shape_case_runs():
    micro = load_micro()
    cases = micro._shape_cases((6, 3, 4), np.random.default_rng(0))
    assert "kl_nll_grad" in cases and "power_backward" in cases
    for fn in cases.values():
        fn()


def test_every_desk_only_case_runs(tmp_path):
    micro = load_micro()
    cases = micro._desk_only_cases(np.random.default_rng(1), tmp_path)
    assert set(cases) == {"fit_kdit", "fit_yeo_johnson_static", "fit_cdf_inversion",
                          "save_csv", "load_csv"}
    for fn in cases.values():
        fn()
