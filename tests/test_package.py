import types

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
