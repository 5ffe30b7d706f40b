"""What the benchmark needs from ``src/`` stays in place.

The functions a traced benchmark run wraps by name stay plain functions:
``perfbench/tracer.py`` wraps only objects that pass ``inspect.isfunction``
and ``perfbench/run.py`` then reads the statistics of every name in its
``TRACED_FUNCTIONS``; a name that is missing, or that is a decorator
object such as an ``lru_cache`` wrapper, aborts the traced run with a
``KeyError``. The library calls of ``perfbench/workloads.py`` still bind,
and ``qcascade.cli`` still binds the name its smoke test patches.
``perfbench/test_smoke.py`` is not part of this suite, so these tests
are what catches such a break here. The benchmark sources are read with
``ast``, so no benchmark module is imported.
"""

import ast
import importlib
import inspect
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
RUN_PY = PERFBENCH / "run.py"


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


def test_cli_binds_the_covariance_name_the_smoke_test_patches():
    import qcascade.cli
    import qcascade.covariance

    assert qcascade.cli.invariant_covariance_direct is qcascade.covariance.invariant_covariance_direct


def library_calls() -> list[tuple[str, str, int]]:
    """(module, function, positional argument count) of every
    ``runner.library(out, name, <module>.<function>, *args)`` call."""
    calls = []
    for node in ast.walk(ast.parse((PERFBENCH / "workloads.py").read_text())):
        if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "library":
            fn = node.args[2]
            calls.append((fn.value.id, fn.attr, len(node.args) - 3))
    return calls


def test_benchmark_library_calls_still_bind():
    calls = library_calls()
    assert {(m, f) for m, f, _ in calls} >= {
        ("cli", "load_spec"),
        ("cli", "build_cascade"),
        ("gradients", "purity_gradients_direct"),
        ("gradients", "purity_gradients_recursive"),
    }
    for module_name, attr, count in calls:
        fn = getattr(importlib.import_module(f"qcascade.{module_name}"), attr)
        inspect.signature(fn).bind(*[object()] * count)
