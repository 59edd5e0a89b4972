"""Import structure of the package, read from the source with ``ast``.

No function body imports a package module, and the package's runtime imports
form no cycle. Imports under ``if TYPE_CHECKING:`` never run and do not count.
"""

import ast
from graphlib import CycleError, TopologicalSorter
from pathlib import Path

import pytest

import hicot

PACKAGE = Path(hicot.__file__).resolve().parent
MODULES = {path.stem for path in PACKAGE.glob("*.py")}


def _is_type_checking(test) -> bool:
    return (isinstance(test, ast.Name) and test.id == "TYPE_CHECKING") or (
        isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING"
    )


def _targets(node) -> set:
    """Package modules an import statement loads (``__init__`` for the package)."""
    if isinstance(node, ast.Import):
        names = [alias.name for alias in node.names]
        return {
            name.split(".")[1] if "." in name else "__init__"
            for name in names
            if name.split(".")[0] == "hicot"
        }
    if node.level:
        base = node.module or ""
    elif node.module and node.module.split(".")[0] == "hicot":
        base = node.module.partition(".")[2]
    else:
        return set()
    if base:
        return {base.split(".")[0]}
    return {alias.name if alias.name in MODULES else "__init__" for alias in node.names}


def _scan(nodes, in_function, top, nested) -> None:
    for node in nodes:
        if isinstance(node, ast.If) and _is_type_checking(node.test):
            _scan(node.orelse, in_function, top, nested)
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            (nested if in_function else top).update(_targets(node))
        inner = in_function or isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
        )
        _scan(ast.iter_child_nodes(node), inner, top, nested)


def _package_imports() -> dict:
    """module -> (module-level targets, function-level targets)."""
    imports = {}
    for name in sorted(MODULES):
        tree = ast.parse((PACKAGE / f"{name}.py").read_text(encoding="utf-8"))
        top, nested = set(), set()
        _scan(tree.body, False, top, nested)
        imports[name] = (top, nested)
    return imports


def test_no_function_body_imports_a_package_module():
    imports = _package_imports()
    offenders = {name: sorted(nested) for name, (_, nested) in imports.items() if nested}
    assert not offenders, f"function-level package imports: {offenders}"


def test_runtime_imports_form_no_cycle():
    graph = {name: top | nested for name, (top, nested) in _package_imports().items()}
    try:
        TopologicalSorter(graph).prepare()
    except CycleError as exc:
        pytest.fail("import cycle: " + " -> ".join(exc.args[1]))


def test_scanner_sees_the_import_forms_in_use():
    # The guard is only as good as its reading of the source: every module
    # that the package root re-exports must show up as an edge.
    top, nested = _package_imports()["__init__"]
    assert {"judge", "prompts", "traces"} <= top
    assert not nested
