"""Every name a module imports is read somewhere in that module.

Package ``__init__.py`` files are skipped: re-exporting is what their
imports are for.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(
    path
    for path in [*ROOT.glob("src/heatansatz/*.py"), *ROOT.glob("tests/*.py")]
    if path.name != "__init__.py"
)


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Bound name -> line of each import, ``from __future__`` excluded."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def read_names(tree: ast.Module) -> set[str]:
    """Names loaded anywhere, including inside string annotations such as ``"GradedPoly"``."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        for annotation in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            for part in ast.walk(annotation) if annotation else ():
                if isinstance(part, ast.Constant) and isinstance(part.value, str):
                    names |= read_names(ast.parse(part.value, mode="eval"))
    return names


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    read = read_names(tree)
    return [f"{name} (line {line})" for name, line in imported_names(tree).items() if name not in read]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: f"{path.parent.name}/{path.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_the_scan_sees_an_unused_import():
    source = "import math\nfrom typing import Sequence, Union\n\nx: Union[int, None] = 1\n"
    assert unused_imports(source) == ["math (line 1)", "Sequence (line 2)"]
    assert unused_imports('import typing\nfrom fractions import Fraction\n\ny: "Fraction" = typing.cast(int, 1)\n') == []
