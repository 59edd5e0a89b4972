"""Import structure of the package, read from the source with ``ast``.

No function body imports a package module, the package's runtime imports
form no cycle, and no module imports another's private name. Imports under
``if TYPE_CHECKING:`` never run and do not count. The JSON codec imports
nothing from the package, and the client nothing but the codec and prompts.
Importing the command line loads the standard library only, and it and the
commands that build no client leave the network stack unloaded.
"""

import ast
import json
import os
import subprocess
import sys
from graphlib import CycleError, TopologicalSorter
from pathlib import Path

import pytest

import hicot
from hicot import EXECUTION_MARKER, INSTRUCTION_MARKER, AnswerKind, PromptStrategy
from hicot.cli import EXIT_OK, EXIT_VALIDATION, score_completion
from hicot.datasets import EvalRecord, Problem, write_records
from hicot.traces import DEFAULT_THINK_CLOSE, DEFAULT_THINK_OPEN

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


def test_no_module_imports_another_modules_private_name():
    offenders = []
    for name in sorted(MODULES):
        tree = ast.parse((PACKAGE / f"{name}.py").read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and _targets(node):
                offenders += [
                    f"{name}: from {'.' * node.level}{node.module or ''} import {alias.name}"
                    for alias in node.names
                    if alias.name.startswith("_") and not alias.name.endswith("__")
                ]
    assert not offenders, f"private names imported across modules: {offenders}"


def test_codec_imports_nothing_from_the_package():
    top, nested = _package_imports()["codec"]
    assert top | nested == set()


def test_client_imports_only_the_codec_and_prompts():
    imports = _package_imports()
    graph = {name: top | nested for name, (top, nested) in imports.items()}
    assert graph["client"] <= {"codec", "prompts", "__init__"}
    loaded, queue = set(), ["client"]
    while queue:  # what importing the client loads, through every module it loads
        for target in graph[queue.pop()] - loaded:
            loaded.add(target)
            queue.append(target)
    assert "datasets" not in loaded


def test_scanner_sees_the_import_forms_in_use():
    # The guard is only as good as its reading of the source: every module
    # that the package root re-exports must show up as an edge.
    top, nested = _package_imports()["__init__"]
    assert {"judge", "prompts", "traces"} <= top
    assert not nested


# The modules a command that builds no client must not load: the network stack
# (``email.parser`` comes with ``http.client``) and the cache key's hash.
NETWORK_STACK = ("http.client", "ssl", "email.parser", "urllib.request", "hashlib")


def test_cli_imports_only_the_standard_library():
    # A fresh interpreter, so modules loaded by the test run do not hide any.
    probe = (
        "import sys; before = set(sys.modules); import hicot.cli; "
        "print('\\n'.join(sorted(set(sys.modules) - before)))"
    )
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    loaded = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    ).stdout.split()
    assert "hicot.client" in loaded
    third_party = {
        name for name in loaded
        if name.partition(".")[0] not in sys.stdlib_module_names | {"hicot"}
    }
    assert not third_party
    assert sorted(set(loaded) & set(NETWORK_STACK)) == []


_STARTUP_PROBE = """
import json, sys
from hicot import cli
before = set(sys.modules)
loaded = {}
codes = [cli.main(["validate", sys.argv[1]])]
loaded["validate"] = set(sys.modules) - before
codes.append(cli.main(["score", sys.argv[2]]))
loaded["score"] = set(sys.modules) - before
from hicot.client import ChatClient, Endpoint
ChatClient(Endpoint("http://127.0.0.1:1"), sys.argv[3])
loaded["client"] = set(sys.modules) - before
print(json.dumps({"codes": codes, **{stage: sorted(names) for stage, names in loaded.items()}}))
"""


def test_commands_without_a_client_leave_the_network_stack_unloaded(tmp_path):
    text = f"{INSTRUCTION_MARKER} Add.\n{EXECUTION_MARKER} 1 + 1 = 2.\n\\boxed{{2}}"
    completion = tmp_path / "completion.txt"
    completion.write_text(text, encoding="utf-8")
    problem = Problem("1", "toy", "What is 1 + 1?", "2", AnswerKind.INTEGER_EXACT)
    judgment, report, compliant = score_completion(
        text, problem, PromptStrategy.HICOT, (DEFAULT_THINK_OPEN, DEFAULT_THINK_CLOSE)
    )
    record = EvalRecord(
        problem_id="1", benchmark="toy", model_id="m", strategy=PromptStrategy.HICOT,
        completion_text=text, completion_tokens=9, token_source="api_usage",
        judgment=judgment, format_report=report, compliant=compliant,
    )
    records = tmp_path / "records.jsonl"
    write_records([record], records)

    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    command = [sys.executable, "-c", _STARTUP_PROBE, str(completion), str(records), str(tmp_path)]
    result = json.loads(
        subprocess.run(command, env=env, capture_output=True, text=True, check=True)
        .stdout.splitlines()[-1]
    )
    assert result["codes"][0] in (EXIT_OK, EXIT_VALIDATION)
    assert result["codes"][1] == EXIT_OK
    assert sorted(set(result["validate"]) & set(NETWORK_STACK)) == []
    assert sorted(set(result["score"]) & set(NETWORK_STACK)) == []
    # The control: building a client is what loads the network stack.
    assert "http.client" in result["client"]
