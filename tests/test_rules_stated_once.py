"""Each answer-normalization rule is stated once, read from the source with ``ast``.

``judge.normalize_math`` runs every pass of its rules through one executor.
A pattern that a rule looks for, written as a second string constant in
``judge.py``, would be a second statement of that rule: one that a change to
the first could miss.
"""

import ast
from pathlib import Path

import pytest

import hicot

JUDGE = Path(hicot.__file__).resolve().parent / "judge.py"
PATTERNS = ["\\left", "\\right", "\\text{", "\\mathrm{", "\\dfrac"]


def _code_strings() -> list:
    """The str constants of ``judge.py``, docstrings left out."""
    tree = ast.parse(JUDGE.read_text(encoding="utf-8"))
    docstrings = {
        id(node.body[0].value)
        for node in ast.walk(tree)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        and node.body
        and isinstance(node.body[0], ast.Expr)
        and isinstance(node.body[0].value, ast.Constant)
        and isinstance(node.body[0].value.value, str)
    }
    return [
        node.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
        and id(node) not in docstrings
    ]


@pytest.mark.parametrize("pattern", PATTERNS)
def test_each_pattern_is_in_one_string_constant(pattern):
    holders = [value for value in _code_strings() if pattern in value]
    assert len(holders) == 1, f"{pattern!r} is in {holders}"
