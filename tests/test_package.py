import ast
import importlib
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import qcascade
import qcascade.cli
import qcascade.oracles

REPO = Path(__file__).resolve().parents[1]


def test_all_lists_the_public_names_and_no_modules():
    # the exports load lazily, so vars(qcascade) holds only what was loaded;
    # dir() lists every name, and each resolves to its defining module's object
    exported = qcascade.__all__
    assert len(set(exported)) == len(exported)
    public = {
        name
        for name in dir(qcascade)
        if not name.startswith("_") and not isinstance(getattr(qcascade, name), types.ModuleType)
    }
    assert set(exported) == public
    for name in exported:
        value = getattr(qcascade, name)
        owner = importlib.import_module(value.__module__)
        assert owner.__name__.startswith("qcascade.") and getattr(owner, name) is value
    with pytest.raises(AttributeError, match="no_such_name"):
        qcascade.no_such_name
    namespace = {}
    exec("from qcascade import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(exported)
    # the reference routes are imported from qcascade.oracles, never from the package
    assert not set(exported) & ORACLES - PINNED_ORACLES


def test_the_oracles_module_lists_its_public_functions():
    oracles = qcascade.oracles
    public = {
        name
        for name, value in vars(oracles).items()
        if not name.startswith("_") and getattr(value, "__module__", None) == oracles.__name__
    }
    assert set(oracles.__all__) == public
    assert len(oracles.__all__) == len(public)


def _fresh_python(code: str) -> str:
    """Standard output of ``code`` run by a fresh interpreter that imports ``src/``."""
    src = str(Path(qcascade.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True).stdout


def test_importing_the_cli_loads_no_quadrature_or_sparse_module():
    # every command would pay for importing these at start-up; the
    # quadrature oracles import scipy.integrate when they run
    code = (
        "import sys, qcascade.cli; "
        "print(sorted(m for m in ('scipy.integrate', 'scipy.sparse') if m in sys.modules))"
    )
    assert _fresh_python(code).strip() == "[]"


#: the order in which one fresh interpreter runs every command, mc-check last
COMMAND_ORDER = (
    "validate", "covariance", "purity", "gradients", "ti-bounds", "sensitivity", "balance",
    "reproduce-paper", "mc-check",
)


@pytest.fixture(scope="module")
def fresh_commands(tmp_path_factory) -> dict:
    """Every command run on the reference spec by one fresh interpreter: its
    exit code, the qcascade modules, ``concurrent.futures`` and ``logging``
    that importing the cli and then each command newly loaded, and the
    ``scipy.linalg*`` and array-API modules loaded at the end."""
    spec, out = REPO / "tests" / "data" / "cascade_n3_m6.json", tmp_path_factory.mktemp("fresh")
    code = (
        "import contextlib, io, json, sys\n"
        "watched = lambda: {m for m in sys.modules if m.startswith('qcascade.') or m in ('concurrent.futures', 'logging')}\n"
        "import qcascade.cli\n"
        "codes, loads = {}, {'import': sorted(watched())}\n"
        f"for c in {COMMAND_ORDER!r}:\n"
        "    extra, before = (['--samples', '2000'] if c == 'mc-check' else []), watched()\n"
        "    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        f"        codes[c] = qcascade.cli.main([c, {str(spec)!r}, '--out', {str(out)!r} + '/' + c, *extra])\n"
        "    loads[c] = sorted(watched() - before)\n"
        "scipy = sorted(m for m in sys.modules if m.startswith(('scipy.linalg', 'scipy._lib._array_api')))\n"
        "print(json.dumps({'codes': codes, 'loads': loads, 'scipy': scipy}))"
    )
    return json.loads(_fresh_python(code))


def test_no_command_loads_scipy_linalg_or_its_array_api_layer(fresh_commands):
    # importing scipy.linalg costs about half of a command's start-up, most of
    # it scipy's array-API layer; production loads its LAPACK and BLAS routines
    # from scipy's compiled modules, and only the reference routes import the package
    assert sorted(COMMAND_ORDER) == sorted(qcascade.cli.COMMANDS)
    # reproduce-paper refuses a spec without an expected block
    assert fresh_commands["codes"] == {c: int(c == "reproduce-paper") for c in COMMAND_ORDER}
    assert fresh_commands["scipy"] == []


def test_each_command_loads_only_the_layers_it_runs(fresh_commands):
    # importing the cli loads what every command needs; a command's own layer
    # loads when it runs; no command loads the oracles, concurrent.futures or logging
    assert fresh_commands["loads"] == {
        "import": ["qcascade.cli", "qcascade.covariance", "qcascade.errors", "qcascade.linalg",
                   "qcascade.oscillator"],
        "validate": [], "covariance": [], "purity": [],
        "gradients": ["qcascade.gradients"],
        "ti-bounds": ["qcascade.zcascade"],
        "sensitivity": ["qcascade.sensitivity"],
        "balance": ["qcascade.balance"],
        "reproduce-paper": [],
        "mc-check": [],
    }


def _unused_imports(path: Path) -> list[str]:
    """Names an import statement of ``path`` binds that no expression of the
    module reads; ``import a.b`` binds ``a``, and ``__future__`` binds nothing."""
    tree = ast.parse(path.read_text(), filename=str(path))
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                if name not in read:
                    unused.append(f"{path.relative_to(REPO)}:{node.lineno}: {name}")
    return unused


def test_no_module_imports_a_name_it_never_uses():
    # the project runs no linter; the package's __init__ re-exports lazily, by name
    modules = [path for top in ("src", "tests", "scripts") for path in sorted((REPO / top).rglob("*.py"))]
    assert len(modules) > 20
    assert [line for path in modules for line in _unused_imports(path)] == []


def test_only_the_monte_carlo_check_draws_random_numbers():
    # every other result is a function of the spec alone, so --seed drives only mc-check
    uses = []
    for path in sorted((REPO / "src").rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        functions = [n for n in ast.walk(tree) if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]
        for node in ast.walk(tree):
            if getattr(node, "attr", getattr(node, "id", None)) == "default_rng":
                # ast.walk is breadth first: the innermost enclosing function comes last
                owners = [f.name for f in functions if f.lineno <= node.lineno <= f.end_lineno]
                uses.append(f"{path.stem}.{owners[-1] if owners else '<module>'}")
    assert uses == ["sensitivity.monte_carlo_variance"]


def _is_vech_size(node: ast.AST) -> bool:
    """``x * (x + 1) // 2`` for one expression x, either factor first."""
    if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.FloorDiv)):
        return False
    if not (isinstance(node.right, ast.Constant) and node.right.value == 2):
        return False
    product = node.left
    if not (isinstance(product, ast.BinOp) and isinstance(product.op, ast.Mult)):
        return False
    for x, succ in ((product.left, product.right), (product.right, product.left)):
        if (
            isinstance(succ, ast.BinOp) and isinstance(succ.op, ast.Add)
            and isinstance(succ.right, ast.Constant) and succ.right.value == 1
            and ast.dump(succ.left) == ast.dump(x)
        ):
            return True
    return False


def test_only_parameter_sizes_computes_the_vech_size():
    # one owner for the layout [vech dR; vec dM]; linalg's vech primitives are exempt
    uses = []
    for path in sorted((REPO / "src").rglob("*.py")):
        if path.name == "linalg.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        functions = [n for n in ast.walk(tree) if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]
        for node in ast.walk(tree):
            if _is_vech_size(node):
                owners = [f.name for f in functions if f.lineno <= node.lineno <= f.end_lineno]
                uses.append(f"{path.stem}.{owners[-1] if owners else '<module>'}")
    assert uses == ["oscillator.parameter_sizes"]


def _owners(predicate) -> list[str]:
    """``module.function`` of every node of ``src/`` that ``predicate`` accepts."""
    uses = []
    for path in sorted((REPO / "src").rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        functions = [n for n in ast.walk(tree) if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]
        for node in ast.walk(tree):
            if predicate(node):
                owners = [f.name for f in functions if f.lineno <= node.lineno <= f.end_lineno]
                uses.append(f"{path.stem}.{owners[-1] if owners else '<module>'}")
    return uses


def _name(node: ast.AST) -> str | None:
    return getattr(node, "attr", getattr(node, "id", None))


def _module_level(tree: ast.Module):
    """Every node of a module that runs when it is imported: its body, not the
    bodies of its functions."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            stack.extend(ast.iter_child_nodes(node))


def test_only_the_oracles_import_scipy_when_imported():
    # production modules load no scipy package at import time; the reference
    # routes in them import scipy.linalg inside the function
    def imports_scipy(node):
        if isinstance(node, ast.Import):
            return any(alias.name.partition(".")[0] == "scipy" for alias in node.names)
        return isinstance(node, ast.ImportFrom) and (node.module or "").partition(".")[0] == "scipy"

    importers = [
        path.stem
        for path in sorted((REPO / "src" / "qcascade").glob("*.py"))
        if any(imports_scipy(node) for node in _module_level(ast.parse(path.read_text())))
    ]
    assert set(importers) <= {"oracles"}
    assert imports_scipy(ast.parse("import scipy.linalg").body[0])
    assert imports_scipy(ast.parse("from scipy.linalg.lapack import dpotrf").body[0])


def test_only_linalg_binds_compiled_routines():
    # scipy's compiled LAPACK and BLAS modules have one owner; every other
    # module imports dgees, dtrsyl, dpotrf, dpotrs, dtrtrs and nrm2 from it
    compiled = {
        "lapack", "blas", "_flapack", "_fblas", "_fblas_64",
        "get_lapack_funcs", "get_blas_funcs", "_scipy_linalg_extension",
    }

    def binds(node):
        if isinstance(node, ast.ImportFrom):
            parts = (node.module or "").split(".") + [alias.name for alias in node.names]
            return bool(compiled & set(parts))
        if isinstance(node, ast.Constant):
            return node.value in compiled
        return _name(node) in compiled

    assert {use.partition(".")[0] for use in _owners(binds)} == {"linalg"}


def test_only_the_monte_carlo_check_starts_threads():
    # no production module starts a thread, the Monte-Carlo check included:
    # every result is computed on the calling thread
    starters = {"Thread", "ThreadPoolExecutor", "ProcessPoolExecutor", "Process", "Pool", "start_new_thread"}

    def starts(node):
        return isinstance(node, ast.Call) and _name(node.func) in starters

    assert _owners(starts) == []


def test_only_the_layout_helpers_work_out_block_offsets():
    # a cumsum of block orders, or a block-index mask np.repeat(np.arange(...), dims)
    def offsets_or_mask(node):
        if not isinstance(node, ast.Call):
            return False
        if _name(node.func) == "repeat":
            return any(_name(getattr(arg, "func", None)) == "arange" for arg in node.args[:1])
        return _name(node.func) == "cumsum"

    assert sorted(_owners(offsets_or_mask)) == ["linalg.block_slices", "linalg.block_upper_mask"]


def test_only_linalg_reads_the_hurwitz_tolerance():
    def reads(node):
        if isinstance(node, ast.ImportFrom):
            return any(alias.name == "HURWITZ_TOL" for alias in node.names)
        return _name(node) == "HURWITZ_TOL"

    assert {use.partition(".")[0] for use in _owners(reads)} == {"linalg"}


def test_only_the_admissibility_rule_reads_the_psd_tolerance():
    def reads(node):
        if isinstance(node, ast.ImportFrom):
            return any(alias.name == "PSD_TOL" for alias in node.names)
        if isinstance(node, ast.Name):
            return node.id == "PSD_TOL" and isinstance(node.ctx, ast.Load)
        return isinstance(node, ast.Attribute) and node.attr == "PSD_TOL"

    assert _owners(reads) == ["covariance.admissible"]


def test_only_the_realizability_rule_reads_its_tolerance():
    # one rule judges every (residual, scale) pair: the series builder's
    # blocks, assembly's composite and validate's pr_ok
    def reads(node):
        if isinstance(node, ast.ImportFrom):
            return any(alias.name == "PR_SELF_CHECK_TOL" for alias in node.names)
        if isinstance(node, ast.Name):
            return node.id == "PR_SELF_CHECK_TOL" and isinstance(node.ctx, ast.Load)
        return isinstance(node, ast.Attribute) and node.attr == "PR_SELF_CHECK_TOL"

    assert _owners(reads) == ["oscillator._realizable"]


def _outside_fstrings(node: ast.AST):
    """Every node below ``node`` but those of an f-string, which only prints its values."""
    stack = [node]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(child for child in ast.iter_child_nodes(node) if not isinstance(child, ast.JoinedStr))


def test_only_the_certificate_rule_compares_with_the_residual_tolerance():
    # every certificate of P, the gradients, the responses, the index, the
    # balancing and the route gaps is judged by linalg.certified; a message
    # may still print the tolerance
    def compares(node):
        return isinstance(node, (ast.Compare, ast.BinOp)) and any(
            _name(x) == "RESIDUAL_TOL" for x in _outside_fstrings(node)
        )

    def imports(node):
        return isinstance(node, ast.ImportFrom) and any(alias.name == "RESIDUAL_TOL" for alias in node.names)

    assert set(_owners(compares)) == {"linalg.certified"}
    assert compares(ast.parse("r <= RESIDUAL_TOL * s").body[0].value)
    assert not compares(ast.parse("'x' + f'{RESIDUAL_TOL:.1e}'").body[0].value)
    assert not {use.partition(".")[0] for use in _owners(imports)} & {"balance", "sensitivity"}


def _plus_own_transpose(node: ast.AST) -> bool:
    """Whether ``node`` is x + x.T, a name plus its own transpose."""
    return (
        isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add) and isinstance(node.left, ast.Name)
        and _name(node.right) == "T" and _name(getattr(node.right, "value", None)) == node.left.id
    )


def test_one_residual_form_per_sylvester_certificate():
    # R + R^T + gamma is the residual of a bitwise-symmetric solution only:
    # the Schur solve forms it for its own X, and certify_sylvester judges
    # any pair by its two-product residual, with no branch between forms
    def symmetric_residual(node):
        return isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add) and _plus_own_transpose(node.left)

    assert _owners(symmetric_residual) == ["linalg.solve_cascade_sylvester"]
    assert symmetric_residual(ast.parse("r + r.T + gamma").body[0].value)
    assert not symmetric_residual(ast.parse("0.5 * (u + u.T)").body[0].value)
    linalg = ast.parse((REPO / "src" / "qcascade" / "linalg.py").read_text())
    certify = next(n for n in linalg.body if isinstance(n, ast.FunctionDef) and n.name == "certify_sylvester")
    conditionals = (ast.If, ast.IfExp, ast.Match, ast.BoolOp, ast.While)
    assert not [type(n).__name__ for n in ast.walk(certify) if isinstance(n, conditionals)]


#: the one parameter no body reads: LAPACK's dgees calls its eigenvalue
#: selector with (wr, wi), so linalg._no_sort takes both, though an unsorted
#: factorization never calls it
UNREAD_PARAMETERS = {"linalg._no_sort": {"wr", "wi"}}


def test_every_parameter_of_a_function_is_read():
    unread = {}
    for path in sorted((REPO / "src" / "qcascade").glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            args = fn.args
            params = {a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg) if a}
            read = {
                node.id for stmt in fn.body for node in ast.walk(stmt)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
            }
            if params - read:
                unread[f"{path.stem}.{fn.name}"] = params - read
    assert unread == UNREAD_PARAMETERS


def test_only_the_purity_takes_a_log_determinant_by_slogdet():
    # ln det P comes from a Cholesky factor, and the relative entropy from the
    # spectrum of a whitened difference; slogdet is left with det theta alone
    def calls(node):
        return isinstance(node, ast.Call) and _name(node.func) == "slogdet"

    assert _owners(calls) == ["covariance._purity"]


def test_only_the_oscillator_module_computes_realizability_residuals():
    # the builder and assembly; validate reports the certificate assembly kept
    def calls(node):
        return isinstance(node, ast.Call) and _name(node.func) == "realizability_residual"

    assert {use.partition(".")[0] for use in _owners(calls)} == {"oscillator"}


def _range_from(node: ast.AST, name: str) -> bool:
    """``range(name, ...)``: a loop that starts at another loop's index."""
    return (
        isinstance(node, ast.Call) and _name(node.func) == "range" and len(node.args) > 1
        and isinstance(node.args[0], ast.Name) and node.args[0].id == name
    )


def _column_tail(node: ast.AST, name: str) -> bool:
    """``x[name:, name]``: the lower part of column ``name``, diagonal included."""
    if not (isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Tuple)):
        return False
    if len(node.slice.elts) != 2:
        return False
    rows, col = node.slice.elts
    return (
        isinstance(rows, ast.Slice) and rows.upper is None and rows.step is None
        and isinstance(rows.lower, ast.Name) and rows.lower.id == name
        and isinstance(col, ast.Name) and col.id == name
    )


def _enumerates_the_lower_triangle(node: ast.AST) -> bool:
    """A triangle of indices from numpy, a loop nest over (i, j) with i >= j, a
    comprehension of column tails, or vech positions read off a duplication matrix."""
    if isinstance(node, ast.Call) and _name(node.func) in {"tril", "triu", "tril_indices", "triu_indices"}:
        return True
    if isinstance(node, ast.Call) and _name(node.func) == "argmax":
        receiver = getattr(node.func, "value", None)
        return isinstance(receiver, ast.Call) and _name(receiver.func) == "duplication_matrix"
    if isinstance(node, ast.For) and isinstance(node.target, ast.Name):
        return any(_range_from(inner, node.target.id) for stmt in node.body for inner in ast.walk(stmt))
    if isinstance(node, (ast.ListComp, ast.GeneratorExp, ast.SetComp)):
        indices = [g.target.id for g in node.generators if isinstance(g.target, ast.Name)]
        parts = [g.iter for g in node.generators] + [node.elt]
        return any(
            _range_from(x, i) or _column_tail(x, i)
            for i in indices for part in parts for x in ast.walk(part)
        )
    return False


def test_only_vech_indices_enumerates_the_lower_triangle():
    # one owner for the vech order, column by column down the lower
    # triangle: vech, its inverse, the duplication matrix, the oracle's
    # probe labels and the parameter positions all read it
    assert _owners(_enumerates_the_lower_triangle) == ["linalg.vech_indices"]


def _builds_a_position_map(node: ast.AST) -> bool:
    """``vech_to_symmetric(arange(...), ...)``, the vech position of every entry
    of dR, or ``arange(...).reshape(...)``, the vec position of every entry of dM."""
    if not isinstance(node, ast.Call):
        return False
    if _name(node.func) == "vech_to_symmetric":
        return bool(node.args) and isinstance(node.args[0], ast.Call) and _name(node.args[0].func) == "arange"
    receiver = getattr(node.func, "value", None)
    return (
        _name(node.func) == "reshape" and isinstance(receiver, ast.Call) and _name(receiver.func) == "arange"
    )


def test_only_parameter_positions_builds_the_position_map():
    # one owner for where each entry of [dR | dM^T] sits in de = [vech dR; vec dM]:
    # the series builder, the covariance responses and d_vector and its inverse read it
    assert _owners(_builds_a_position_map) == ["oscillator.parameter_positions"] * 2
    assert _builds_a_position_map(ast.parse("vech_to_symmetric(np.arange(d), n)").body[0].value)
    assert _builds_a_position_map(ast.parse("np.arange(m * n).reshape(n, m)").body[0].value)
    assert not _builds_a_position_map(ast.parse("vech_to_symmetric(v, n)").body[0].value)


def test_only_the_schur_complement_oracle_solves_with_cho_solve():
    # solves with the factor of P go through covariance._lapack_solve
    def binds(node):
        if isinstance(node, ast.ImportFrom):
            return any(alias.name == "cho_solve" for alias in node.names)
        return isinstance(node, ast.Attribute) and node.attr == "cho_solve"

    assert {use.partition(".")[0] for use in _owners(binds)} == {"covariance"}
    assert _owners(lambda node: isinstance(node, ast.Name) and node.id == "cho_solve") == [
        "covariance.schur_complements"
    ]


def test_one_owner_per_kept_quantity():
    # CascadeModel.derived is written by covariance._keep alone and read by
    # the owners of P, of the steady-state record and of the gradients
    mutators = {"update", "setdefault", "pop", "popitem", "clear", "__setitem__", "__delitem__"}

    def mentions(node):
        return isinstance(node, (ast.Attribute, ast.Name)) and _name(node) == "derived"

    def writes(node):
        if isinstance(node, ast.Subscript):
            return isinstance(node.ctx, (ast.Store, ast.Del)) and mentions(node.value)
        method = node.func if isinstance(node, ast.Call) else None
        return isinstance(method, ast.Attribute) and method.attr in mutators and mentions(method.value)

    assert _owners(writes) == ["covariance._keep"]
    assert set(_owners(mentions)) == {
        "covariance._keep", "covariance.invariant_covariance_direct", "covariance.steady_state",
        "gradients.purity_gradients_direct", "oscillator.<module>",
    }
    assert writes(ast.parse("c.derived.setdefault('p', p)").body[0].value)
    assert not writes(ast.parse("c.derived['p']").body[0].value)
    assert not writes(ast.parse("c.derived.get('p')").body[0].value)


def test_cli_turns_spec_content_into_numbers_in_one_place():
    # the number rule of spec content (JSON numbers only, no bool and no
    # string) is _non_numbers; _matrices alone makes arrays from spec content
    # and _convert alone scalars, and both apply that rule, so no second
    # conversion can accept what the rule refuses
    def cli(predicate):
        return sorted(set(use for use in _owners(predicate) if use.startswith("cli.")))

    def makes_an_array(node):
        return isinstance(node, ast.Call) and any(kw.arg == "dtype" for kw in node.keywords)

    def tests_for_bool_or_str(node):
        return (
            isinstance(node, ast.Call) and _name(node.func) == "isinstance"
            and any(_name(arg) in {"bool", "str"} for arg in ast.walk(node.args[1]))
        )

    assert cli(makes_an_array) == ["cli._matrices"]
    assert cli(lambda node: isinstance(node, ast.Call) and _name(node.func) == "_non_numbers") == [
        "cli._convert", "cli._matrices"
    ]
    assert cli(lambda node: isinstance(node, ast.Name) and node.id == "JSON_NUMBERS") == [
        "cli.<module>", "cli._non_numbers"
    ]
    assert cli(tests_for_bool_or_str) == []


#: reference routes that stay in their production modules, as the benchmark
#: names them by module path
PINNED_ORACLES = {
    "solve_sylvester", "symplectic_exponential", "invariant_covariance_recursive",
    "schur_complements", "purity_gradients_recursive", "gradient_fd_oracle",
}
#: routes kept as oracles that the tests compare production with
ORACLES = set(qcascade.oracles.__all__) | PINNED_ORACLES


def _imports_the_oracles(node: ast.AST) -> bool:
    """``from . import oracles``, ``from .oracles import ...``, or either through
    ``qcascade``, or ``import qcascade.oracles``."""
    if isinstance(node, ast.Import):
        return any(alias.name == "qcascade.oracles" for alias in node.names)
    if not isinstance(node, ast.ImportFrom):
        return False
    module = "." * node.level + (node.module or "")
    if module in (".oracles", "qcascade.oracles"):
        return True
    return module in (".", "qcascade") and any(alias.name == "oracles" for alias in node.names)


def test_dependencies_run_from_the_oracles_to_production_only():
    # no production module, and not the package itself, imports qcascade.oracles
    importers = [
        path.name
        for path in sorted((REPO / "src" / "qcascade").glob("*.py"))
        if any(_imports_the_oracles(node) for node in ast.walk(ast.parse(path.read_text())))
    ]
    assert importers == []
    assert _imports_the_oracles(ast.parse("from .oracles import probe_psi").body[0])
    assert _imports_the_oracles(ast.parse("from . import oracles").body[0])
    assert _imports_the_oracles(ast.parse("import qcascade.oracles").body[0])


def test_every_oracle_is_called_by_a_test():
    called = set()
    for path in sorted((REPO / "tests").glob("test_*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        called |= {_name(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}
    assert set(qcascade.oracles.__all__) - called == set()


def test_the_cli_imports_no_oracle_but_the_route_gap_routes():
    # the recursive covariance and gradients feed the two route_gap fields
    assert all(hasattr(qcascade, name) for name in PINNED_ORACLES)
    assert all(hasattr(qcascade.oracles, name) for name in qcascade.oracles.__all__)
    tree = ast.parse((REPO / "src" / "qcascade" / "cli.py").read_text())
    names = {_name(node) for node in ast.walk(tree)}
    names |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert names & ORACLES == {"invariant_covariance_recursive", "purity_gradients_recursive"}


#: public production names that no production code refers to: the routes the
#: benchmark traces by module path, and library API that no command calls
TRACED_ROUTES = PINNED_ORACLES | {"sylvester_kron_solve"}
LIBRARY_ONLY = {
    "multimode_lower_bound", "fisher_metric", "kl_gaussian", "cross_covariance", "phi_z_resolvent",
    "phi_z_h2_norm",
}


def _referenced(name: str, definition: ast.AST, trees) -> bool:
    """Whether a Name, an Attribute or an import of ``trees`` outside ``definition`` names ``name``."""
    inside = {id(node) for node in ast.walk(definition)}
    for tree in trees:
        for node in ast.walk(tree):
            if id(node) in inside:
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                if any(alias.name.rpartition(".")[2] == name for alias in node.names):
                    return True
            elif isinstance(node, (ast.Name, ast.Attribute)) and _name(node) == name:
                return True
    return False


def test_every_public_production_name_has_a_production_caller():
    # a function or class only the tests call is a reference route, kept in
    # qcascade.oracles, or it goes; the oracles module is not production
    paths = [path for path in sorted((REPO / "src" / "qcascade").glob("*.py")) if path.name != "oracles.py"]
    trees = [ast.parse(path.read_text(), filename=str(path)) for path in paths]
    public = [
        node
        for tree in trees
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    ]
    assert len(public) > 50
    unreferenced = {node.name for node in public if not _referenced(node.name, node, trees)}
    assert unreferenced - TRACED_ROUTES == LIBRARY_ONLY
