"""Golden digests: every artefact of ``tools/digests.py``'s seeded recipe is
byte-identical to the sha256 recorded in ``tests/data/digests.txt``.

The bits depend on the numpy, scipy and BLAS builds as well as the source, so
the file's first line is the :func:`fingerprint` it was recorded under.  On a
machine with another fingerprint the test skips, naming both.  A declared
numeric change rewrites the file (see README, "Byte identity").
"""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).parent / "data" / "digests.txt"
HEADER = "# fingerprint "


def _digests_tool():
    spec = importlib.util.spec_from_file_location("digests", ROOT / "tools" / "digests.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_recipe_artefacts_match_the_golden_digests(tmp_path):
    tool = _digests_tool()
    header, *lines = GOLDEN.read_text(encoding="utf-8").splitlines()
    recorded, here = json.loads(header.removeprefix(HEADER)), tool.fingerprint()
    if here != recorded:
        pytest.skip(f"golden digests were recorded under {recorded}; this machine is {here}")
    got = tool.run_recipe(ROOT, tmp_path)
    want, have = dict(line.split(" ") for line in lines), dict(got)
    moved = [name for name in {**want, **have} if want.get(name) != have.get(name)]
    assert not moved, f"{len(moved)} artefacts moved: {', '.join(moved)}"
    assert [f"{name} {digest}" for name, digest in got] == lines  # and in the same order
