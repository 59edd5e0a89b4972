"""One reader maps JSON onto dataclasses, read from the source with ``ast``.

``codec.from_json_dict`` reads every JSON schema: the run config, benchmark
entries, records and cache entries. A class that decodes itself (``from_dict``)
or a module that reads type hints for itself would be a second decoder, with
checks of its own that drift from the first. Likewise ``codec.parse_json``
parses every JSON text: a module that calls ``json.loads`` itself would have to
catch JSON nested too deep to parse on its own.
"""

import ast
from pathlib import Path

import hicot

PACKAGE = Path(hicot.__file__).resolve().parent


def _trees() -> dict:
    return {
        path.name: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(PACKAGE.glob("*.py"))
    }


def test_no_class_defines_from_dict():
    offenders = [
        f"{name}:{node.name}.{item.name}"
        for name, tree in _trees().items()
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
        for item in node.body
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and item.name == "from_dict"
    ]
    assert not offenders, f"classes that decode themselves: {offenders}"


def test_only_codec_reads_type_hints():
    users = {
        name
        for name, tree in _trees().items()
        for node in ast.walk(tree)
        if (isinstance(node, ast.Name) and node.id == "get_type_hints")
        or (isinstance(node, ast.Attribute) and node.attr == "get_type_hints")
        or (isinstance(node, ast.alias) and node.name == "get_type_hints")
    }
    assert users == {"codec.py"}


def test_only_codec_calls_json_loads():
    callers = {
        name
        for name, tree in _trees().items()
        for node in ast.walk(tree)
        if (
            isinstance(node, ast.Attribute)
            and node.attr == "loads"
            and isinstance(node.value, ast.Name)
            and node.value.id == "json"
        )
        or (isinstance(node, ast.ImportFrom) and node.module == "json"
            and any(alias.name == "loads" for alias in node.names))
    }
    assert callers == {"codec.py"}
