"""The library surface that the benchmark calls.

``bench/micro.py`` is loaded from its file, unchanged, and every case it
times is called once at a small shape, so a refactor that renames or
re-signs a function it uses fails here rather than in a benchmark run.
Every ``tsnorm`` attribute that ``micro.py``, ``workloads.py`` and ``run.py``
name, including the dotted names of ``run.TRACED_FUNCTIONS``, must resolve,
and the arguments of every call that ``micro.py`` and ``workloads.py`` make
to a ``tsnorm`` callable must bind to its signature, so a removed or renamed
parameter or config field fails here too.
"""

import ast
import importlib.util
import inspect
import itertools
import pkgutil
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np

BENCH = Path(__file__).resolve().parent.parent / "bench"
MICRO = BENCH / "micro.py"


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


def _dotted(node) -> list[str]:
    """``a.b.c`` as ["a", "b", "c"]; [] unless the chain starts at a name."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.insert(0, node.attr)
        node = node.value
    return [node.id, *parts] if isinstance(node, ast.Name) else []


def _parse(file: str) -> tuple[ast.Module, dict[str, str]]:
    """The syntax tree of a bench file and the package name of each alias it
    binds through ``from tsnorm import m [as a]`` or ``import tsnorm``."""
    tree = ast.parse((BENCH / file).read_text(encoding="utf-8"))
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "tsnorm":
            aliases.update({a.asname or a.name: f"tsnorm.{a.name}" for a in node.names})
        elif isinstance(node, ast.Import):
            aliases.update({a.asname or a.name: a.name for a in node.names if a.name == "tsnorm"})
    return tree, aliases


def bench_names() -> set[tuple[str, str]]:
    """(file, full dotted name) of every package attribute that a bench file
    reads through an alias of :func:`_parse`, and of every entry of
    ``TRACED_FUNCTIONS``."""
    names = set()
    for file in ("micro.py", "workloads.py", "run.py"):
        tree, aliases = _parse(file)
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "TRACED_FUNCTIONS" for t in node.targets):
                names.update((file, f"tsnorm.{elt.value}") for elt in node.value.elts)
            chain = _dotted(node)
            if len(chain) > 1 and chain[0] in aliases:
                names.add((file, ".".join([aliases[chain[0]], *chain[1:]])))
    return names


def bench_calls() -> list[tuple[str, str, ast.Call]]:
    """(where, dotted name, call) of every call that ``micro.py`` and
    ``workloads.py`` make to a ``tsnorm`` callable; a
    ``dataclasses.replace(<x>.train, ...)`` call is one to ``TrainConfig``
    with its first argument dropped."""
    calls = []
    for file in ("micro.py", "workloads.py"):
        tree, aliases = _parse(file)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            chain, where = _dotted(node.func), f"{file}:{node.lineno}"
            if chain == ["replace"] and isinstance(node.args[0], ast.Attribute) \
                    and node.args[0].attr == "train":
                calls.append((where, "tsnorm.neural.TrainConfig",
                              ast.Call(node.func, node.args[1:], node.keywords)))
            elif len(chain) > 1 and chain[0] in aliases:
                calls.append((where, ".".join([aliases[chain[0]], *chain[1:]]), node))
    return calls


def test_every_tsnorm_name_the_bench_reads_resolves():
    names = bench_names()
    assert ("run.py", "tsnorm.harness.make_preproc") in names
    assert ("workloads.py", "tsnorm.neural.train_loop") in names
    assert ("micro.py", "tsnorm.yeojohnson.dlam") in names
    missing = []
    for file, name in sorted(names):
        try:
            pkgutil.resolve_name(name)
        except (ImportError, AttributeError):
            missing.append(f"{file}: {name}")
    assert not missing, "\n".join(missing)


def test_every_bench_call_binds_to_its_tsnorm_signature():
    calls = bench_calls()
    called = {name for _, name, _ in calls}
    assert {"tsnorm.neural.TrainConfig", "tsnorm.neural.GruStack", "tsnorm.harness.CvConfig",
            "tsnorm.harness.ExperimentConfig", "tsnorm.cli.main"} <= called
    # micro.py's TrainConfig(), the desk-fold config and the wide-fold replace(...)
    assert sum(name == "tsnorm.neural.TrainConfig" for _, name, _ in calls) >= 3
    unbound = []
    for where, name, call in calls:
        target = pkgutil.resolve_name(name)
        if not callable(target):
            continue
        assert not any(isinstance(a, ast.Starred) for a in call.args), where
        assert all(k.arg is not None for k in call.keywords), where
        try:
            inspect.signature(target).bind(*[None] * len(call.args),
                                           **{k.arg: None for k in call.keywords})
        except TypeError as err:
            unbound.append(f"{where}: {name}: {err}")
    assert not unbound, "\n".join(unbound)


def test_every_config_the_workloads_build_loads(monkeypatch):
    # each ExperimentConfig call of workloads.py, once for every value its loop
    # variable takes there, so a setting its method refuses fails here rather
    # than in a benchmark run
    from tsnorm import harness, neural
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclasses look it up
    spec.loader.exec_module(workloads)
    loops = {"method": workloads.WideFold.methods, "m": workloads.STATIC_METHODS}
    scope = {"harness": harness, "neural": neural,
             "self": SimpleNamespace(seed=0, csv=Path("desk-fold.csv"))}
    built = []
    for where, name, call in bench_calls():
        if not (where.startswith("workloads.py") and name == "tsnorm.harness.ExperimentConfig"):
            continue
        code = compile(ast.Expression(call), where, "eval")
        free = sorted({node.id for node in ast.walk(call) if isinstance(node, ast.Name)} & {*loops})
        for values in itertools.product(*(loops[v] for v in free)):
            built.append(eval(code, {**scope, **dict(zip(free, values))}))
    # DeskFold's holdout edain_global, WideFold's two methods, DeskOffline's seven
    assert sorted(config.method for config in built) == sorted(
        ["edain_global", "edain_global", "edain_local", *workloads.STATIC_METHODS])
    assert len(workloads.STATIC_METHODS) == 7
