import os
import subprocess
import sys
import types
from pathlib import Path

import qcascade


def test_all_lists_the_public_names_and_no_modules():
    exported = qcascade.__all__
    assert len(set(exported)) == len(exported)
    public = {
        name
        for name, value in vars(qcascade).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert set(exported) == public
    namespace = {}
    exec("from qcascade import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(exported)


def test_importing_the_cli_loads_no_quadrature_or_sparse_module():
    # every command would pay for importing these at start-up; the
    # quadrature oracles import scipy.integrate when they run
    code = (
        "import sys, qcascade.cli; "
        "print(sorted(m for m in ('scipy.integrate', 'scipy.sparse') if m in sys.modules))"
    )
    src = str(Path(qcascade.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
