import ast
import os
import subprocess
import sys
import types
from pathlib import Path

import qcascade
import qcascade.oracles

REPO = Path(__file__).resolve().parents[1]


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
    # the project runs no linter; __init__.py is exempt, since it imports to re-export
    modules = [
        path
        for top in ("src", "tests", "scripts")
        for path in sorted((REPO / top).rglob("*.py"))
        if path.name != "__init__.py"
    ]
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


def test_only_the_monte_carlo_check_starts_threads():
    # concurrency has one owner: every other result is computed on the calling thread
    starters = {"Thread", "ThreadPoolExecutor", "ProcessPoolExecutor", "Process", "Pool", "start_new_thread"}

    def starts(node):
        return isinstance(node, ast.Call) and _name(node.func) in starters

    assert _owners(starts) == ["sensitivity.monte_carlo_variance"]


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
    # probe labels and the series builder's vech positions all read it
    assert _owners(_enumerates_the_lower_triangle) == ["linalg.vech_indices"]


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
