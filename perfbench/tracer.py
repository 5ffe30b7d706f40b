"""Outside-in tracer: wraps the public functions of each qcascade module.

Nothing in ``src/`` is changed. ``Tracer.installed()`` replaces every
public function defined in a traced module by a timing wrapper, on its
own module and on every ``qcascade`` module that imported the name, and
restores the originals on exit. Each call records a span (name, start,
end, parent span, task id) in memory; ``write_spans`` writes them out
when the run ends.

Self time is a span's duration minus the durations of its direct child
spans. Calls run one at a time on one thread, so children never overlap.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import sys
import time
from pathlib import Path

MODULES = ("linalg", "oscillator", "covariance", "gradients", "sensitivity", "balance", "zcascade", "cli")


class FunctionStats:
    __slots__ = ("calls", "self_s", "total_s", "fails")

    def __init__(self) -> None:
        self.calls = 0
        self.self_s = 0.0
        self.total_s = 0.0
        self.fails = 0


class Tracer:
    def __init__(self) -> None:
        self.task = -1
        self.names: list[str] = []
        self.stats: dict[str, FunctionStats] = {}
        self.module_fails = {name: 0 for name in MODULES}
        # (name index, start, end, parent span index or -1, task id)
        self.spans: list[tuple[int, float, float, int, int] | None] = []
        self._stack: list[list] = []  # [span index, module, child seconds]
        self._replacements: dict[int, tuple[object, object]] = {}

    def _wrap(self, module: str, qualname: str, fn):
        name_id = len(self.names)
        self.names.append(qualname)
        stats = self.stats[qualname] = FunctionStats()
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [len(spans), module, 0.0]
            spans.append(None)
            stack.append(frame)
            failed = False
            start = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                failed = True
                raise
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                stats.calls += 1
                stats.total_s += elapsed
                stats.self_s += elapsed - frame[2]
                if parent is not None:
                    parent[2] += elapsed
                if failed:
                    stats.fails += 1
                    if parent is None or parent[1] != module:
                        self.module_fails[module] += 1
                spans[frame[0]] = (name_id, start, end, parent[0] if parent else -1, self.task)

        return traced

    def _wrappers(self) -> dict[int, tuple[object, object]]:
        """id(original) -> (original, wrapper), built once per tracer."""
        if not self._replacements:
            for module in MODULES:
                mod = importlib.import_module(f"qcascade.{module}")
                for attr, obj in vars(mod).items():
                    if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not attr.startswith("_"):
                        self._replacements[id(obj)] = (obj, self._wrap(module, f"{module}.{attr}", obj))
        return self._replacements

    @contextlib.contextmanager
    def installed(self):
        replacements = self._wrappers()
        patched: list[tuple[object, str, object]] = []
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "qcascade" or mod_name.startswith("qcascade.")):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = replacements.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])
                    patched.append((mod, attr, obj))
        try:
            yield self
        finally:
            for mod, attr, obj in patched:
                setattr(mod, attr, obj)

    def write_spans(self, path: Path) -> None:
        doc = {
            "fields": ["name", "start_s", "end_s", "parent", "task"],
            "names": self.names,
            "spans": [s for s in self.spans if s is not None],
        }
        path.write_text(json.dumps(doc, separators=(",", ":")))
