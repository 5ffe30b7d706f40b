"""The functions a traced benchmark run wraps by name stay plain functions.

``perfbench/tracer.py`` wraps only objects that pass ``inspect.isfunction``
and ``perfbench/run.py`` then reads the statistics of every name in its
``TRACED_FUNCTIONS``; a name that is missing, or that is a decorator
object such as an ``lru_cache`` wrapper, aborts the traced run with a
``KeyError``. The list is read with ``ast``, so the benchmark module is
never imported.
"""

import ast
import importlib
import inspect
from pathlib import Path

RUN_PY = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"


def traced_functions() -> tuple[str, ...]:
    for node in ast.parse(RUN_PY.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "TRACED_FUNCTIONS"
            for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TRACED_FUNCTIONS assignment in {RUN_PY}")


def test_traced_names_are_plain_functions_of_their_modules():
    names = traced_functions()
    assert names
    broken = []
    for name in names:
        module_name, attr = name.split(".")
        module = importlib.import_module(f"qcascade.{module_name}")
        fn = getattr(module, attr, None)
        if not (inspect.isfunction(fn) and fn.__module__ == module.__name__):
            broken.append(f"{name}: {fn!r}")
    assert not broken, broken
