"""In-memory span tracer that wraps tsnorm's public functions from outside.

Nothing inside ``src/tsnorm`` is edited: :meth:`Tracer.install` replaces each
public function and public method of the package's modules with a wrapper
that records a span ``[name, start, end, parent]``, and :meth:`uninstall`
puts the originals back.  A function that another module imported by name
(``cli`` and ``harness`` do this) is replaced there too, so calls are seen
whichever name they go through.  Spans stay in a list until the run ends.

A span's self time is its duration minus the part covered by its direct
children; summed per module, self times add up to the traced interval.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from contextlib import contextmanager
from pathlib import Path

# ``__post_init__`` is where the dataclass containers validate and copy their
# inputs, so construction cost shows up under the class name.
_DUNDERS_TRACED = ("__post_init__",)


def _label(module_short: str, owner: str | None, attr: str) -> str:
    if owner is None:
        return f"{module_short}.{attr}"
    if attr == "__post_init__":
        return f"{module_short}.{owner}"
    return f"{module_short}.{owner}.{attr}"


class Tracer:
    def __init__(self, package):
        self.package = package
        self.modules = [m for name, m in sorted(vars(package).items())
                        if inspect.ismodule(m) and m.__name__.startswith(package.__name__ + ".")]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return traced

    def _targets(self):
        """(owner, attribute, label, original) for every function to wrap."""
        prefix = self.package.__name__ + "."
        for module in self.modules:
            short = module.__name__[len(prefix):]
            for attr, obj in vars(module).items():
                if inspect.isfunction(obj) and obj.__module__ == module.__name__ \
                        and not attr.startswith("_"):
                    yield module, attr, _label(short, None, attr), obj
                elif inspect.isclass(obj) and obj.__module__ == module.__name__:
                    for mattr, meth in vars(obj).items():
                        if inspect.isfunction(meth) and \
                                (not mattr.startswith("_") or mattr in _DUNDERS_TRACED):
                            yield obj, mattr, _label(short, obj.__name__, mattr), meth

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for owner, attr, label, fn in self._targets():
            wrappers[fn] = self._wrap(label, fn)
            self._patches.append((owner, attr, fn))
            setattr(owner, attr, wrappers[fn])
        # names bound by ``from .x import f`` elsewhere in the package
        for holder in [self.package, *self.modules]:
            for attr, obj in list(vars(holder).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patches.append((holder, attr, obj))
                    setattr(holder, attr, wrappers[obj])

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._patches):
            setattr(owner, attr, fn)
        self._patches.clear()

    @contextmanager
    def span(self, name: str):
        """Record one span around benchmark code."""
        span = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            yield
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()

    def self_times(self, root: int) -> dict[str, dict]:
        """Per-label {"calls", "total_s", "self_s"} over the subtree of span ``root``."""
        spans = self.spans
        root_end = spans[root][2]
        inside = {root}
        child_sum = {}
        for i in range(root + 1, len(spans)):
            name, start, end, parent = spans[i]
            if start > root_end:
                break
            if parent not in inside:
                continue
            inside.add(i)
            child_sum[parent] = child_sum.get(parent, 0.0) + (end - start)
        out: dict[str, dict] = {}
        for i in sorted(inside):
            name, start, end, _ = spans[i]
            dur = end - start
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += dur
            row["self_s"] += dur - child_sum.get(i, 0.0)
        return out

    def write(self, path: Path, meta: dict) -> None:
        doc = {**meta, "clock": "time.perf_counter seconds",
               "fields": ["name", "start", "end", "parent"], "spans": self.spans}
        path.write_text(json.dumps(doc, separators=(",", ":")))

