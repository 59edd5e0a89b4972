"""Import structure of the package, read from the source with ``ast``.

No function body imports a package module, the package's runtime imports
form no cycle, and no module imports another's private name. Imports under
``if TYPE_CHECKING:`` never run and do not count. The JSON codec imports
nothing from the package, the client nothing but the codec and prompts, and
metrics nothing of the record schema. Importing a module loads exactly the
package modules its imports reach. Importing the command line loads the
standard library only; it, the commands that build no client and a run
whose every item is a cache hit leave the network stack unloaded.
Standard-library modules that only one command or a harness fault uses load
with that command, not with the import.
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
from hicot.cli import EXIT_OK, EXIT_VALIDATION, _request, score_completion
from hicot.client import ChatClient, CompletionResult, TokenSource
from hicot.config import load_run_config
from hicot.datasets import EvalRecord, Problem, load_dataset, write_records
from hicot.judge import AnswerKind
from hicot.prompts import PromptStrategy
from hicot.traces import (
    DEFAULT_THINK_CLOSE,
    DEFAULT_THINK_OPEN,
    EXECUTION_MARKER,
    INSTRUCTION_MARKER,
)

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


def _closure(graph: dict, name: str) -> set:
    """``name`` and every package module its imports reach."""
    reached, queue = {name}, [name]
    while queue:
        for target in graph[queue.pop()] - reached:
            reached.add(target)
            queue.append(target)
    return reached


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
    assert "datasets" not in _closure(graph, "client")


def test_metrics_reaches_no_record_schema_or_scoring():
    # Metrics names ``EvalRecord`` only in annotations, so it needs no module of
    # the record schema or of scoring a completion.
    graph = {name: top | nested for name, (top, nested) in _package_imports().items()}
    assert not {"datasets", "judge", "traces"} & _closure(graph, "metrics")


def test_scanner_sees_the_import_forms_in_use():
    # The guard is only as good as its reading of the source: every module the
    # command line imports from, by a one-line, a multi-line or an aliased
    # (``judge as judge_completion``) import, must show up as an edge.
    top, nested = _package_imports()["cli"]
    assert {"judge", "prompts", "traces", "client", "datasets", "metrics"} <= top
    assert not nested


# ``__main__`` is left out: importing it runs the command line.
@pytest.mark.parametrize("name", sorted(MODULES - {"__main__"}))
def test_import_loads_exactly_the_static_closure(name):
    graph = {module: top | nested for module, (top, nested) in _package_imports().items()}
    # Importing a submodule first loads the package, ``hicot``: a package root
    # that imported its modules would load them with every submodule.
    expected = {
        "hicot" if module == "__init__" else f"hicot.{module}"
        for module in _closure(graph, name) | {"__init__"}
    }
    target = "hicot" if name == "__init__" else f"hicot.{name}"
    # A fresh interpreter, so modules loaded by the test run do not show up.
    probe = (
        f"import sys, {target}; "
        "print('\\n'.join(m for m in sys.modules if m.partition('.')[0] == 'hicot'))"
    )
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    loaded = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    ).stdout.split()
    assert sorted(loaded) == sorted(expected)


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


# Standard-library modules that only one command or the harness-fault path
# uses, so importing the command line must not load them: ``argparse`` (with
# ``gettext``) builds the parser, ``concurrent.futures`` (with ``logging`` and
# ``queue``) runs the grid, ``traceback`` shows a harness fault, ``fractions``
# (with ``numbers``) compares rational answers, ``decimal`` rounds for display
# and ``csv`` writes CSV. ``datetime`` is not needed at all.
STARTUP_DEFERRED = (
    "argparse", "gettext", "concurrent.futures", "logging", "queue", "traceback",
    "fractions", "numbers", "decimal", "csv", "datetime",
)
# The standard-library modules the package needs at import. What they load on
# their own, which differs between Python versions, is not the package's doing.
STARTUP_PREREQUISITES = (
    "dataclasses", "json", "re", "enum", "pathlib", "typing", "importlib.resources",
    "threading", "random", "urllib.parse",
)

_STARTUP_PROBE = """
import json, sys
from hicot import cli
from hicot.datasets import load_registry
load_registry()
loaded = {"import": set(sys.modules)}
before = set(sys.modules)
codes = [cli.main(["validate", sys.argv[1]])]
loaded["validate"] = set(sys.modules) - before
codes.append(cli.main(["score", sys.argv[2]]))
loaded["score"] = set(sys.modules) - before
codes.append(cli.main(["report", sys.argv[2], "--format", "csv", "--output-dir", sys.argv[3]]))
loaded["report"] = set(sys.modules) - before
codes.append(cli.main(["run", "--config", sys.argv[5]]))
loaded["warm_run"] = set(sys.modules) - before
codes.append(cli.main(["run", "--config", sys.argv[4]]))
loaded["run"] = set(sys.modules) - before
print(json.dumps({"codes": codes, **{stage: sorted(names) for stage, names in loaded.items()}}))
"""


def _fresh_interpreter(probe: str, *args) -> dict:
    """The JSON that ``probe`` prints last, run in a fresh interpreter that
    imports the package under test, so modules loaded by the test run do not
    show up."""
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    command = [sys.executable, "-c", probe, *map(str, args)]
    result = subprocess.run(command, env=env, capture_output=True, text=True, check=True)
    return json.loads(result.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def startup(tmp_path_factory) -> dict:
    """What each stage of ``_STARTUP_PROBE`` loaded, and its exit codes."""
    root = tmp_path_factory.mktemp("startup")
    text = f"{INSTRUCTION_MARKER} Add.\n{EXECUTION_MARKER} 1 + 1 = 2.\n\\boxed{{2}}"
    completion = root / "completion.txt"
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
    records = root / "records.jsonl"
    write_records([record], records)
    # A one-item grid whose one request is refused: the run writes its error record.
    dataset = root / "toy.jsonl"
    dataset.write_text(
        json.dumps({"problem": "What is 1 + 1?", "answer": "2"}) + "\n", encoding="utf-8"
    )
    configs = {}
    for name in ("run", "warm_run"):
        configs[name] = root / f"{name}_config.json"
        configs[name].write_text(json.dumps({
            "endpoint": {"base_url": "http://127.0.0.1:1", "max_attempts": 1},
            "models": ["m"],
            "strategies": ["standard"],
            "benchmarks": {"toy": {"path": str(dataset), "kind": "integer_exact"}},
            "output_dir": str(root / name),
        }), encoding="utf-8")
    # The same grid over a cache that holds its one completion: the run sends nothing.
    config = load_run_config(configs["warm_run"])
    path, spec = config.benchmarks["toy"]
    [problem] = load_dataset(path, "toy", spec.field_map, spec.kind)
    request = _request(config, "m", PromptStrategy.STANDARD, problem)
    client = ChatClient(config.endpoint, config.cache_dir)
    client._write_cache(
        client._cache_path(request, request.cache_key()),
        CompletionResult("\\boxed{2}", 3, TokenSource.API_USAGE, 1),
    )
    return _fresh_interpreter(
        _STARTUP_PROBE, completion, records, root / "out", configs["run"], configs["warm_run"]
    )


def test_commands_without_a_client_leave_the_network_stack_unloaded(startup):
    assert startup["codes"][0] in (EXIT_OK, EXIT_VALIDATION)
    assert startup["codes"][1] == EXIT_OK
    assert sorted(set(startup["validate"]) & set(NETWORK_STACK)) == []
    assert sorted(set(startup["score"]) & set(NETWORK_STACK)) == []


def test_run_that_sends_no_request_leaves_the_network_stack_unloaded(startup):
    # Every item of the warm run is a cache hit; it hashes its keys, so it loads hashlib.
    assert startup["codes"][3] == EXIT_OK
    assert sorted(set(startup["warm_run"]) & set(NETWORK_STACK) - {"hashlib"}) == []
    # The control: sending a request is what loads the network stack.
    assert {"http.client", "ssl", "urllib.request"} <= set(startup["run"])


def test_start_up_leaves_the_deferred_modules_unloaded(startup):
    baseline = _fresh_interpreter(
        "import json, sys\n"
        f"import {', '.join(STARTUP_PREREQUISITES)}\n"
        "base = sorted(sys.modules)\n"
        "import argparse\n"
        "print(json.dumps({'base': base, 'argparse': sorted(sys.modules)}))"
    )
    deferred = set(STARTUP_DEFERRED) - set(baseline["base"])
    assert sorted(set(startup["import"]) & deferred) == []
    # ``main`` builds the parser, so every command loads ``argparse`` and what it imports.
    parser = set(baseline["argparse"]) - set(baseline["base"])
    assert "argparse" in parser
    assert sorted((set(startup["validate"]) - parser) & deferred) == []
    assert sorted((set(startup["score"]) - parser) & deferred) == []
    # The controls: the commands that use them load them.
    assert startup["codes"][2:] == [EXIT_OK, EXIT_OK, EXIT_OK]
    assert {"csv", "decimal"} <= set(startup["report"])
    assert "concurrent.futures" in startup["run"]
