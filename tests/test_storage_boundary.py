"""Only ``grpoly`` knows how a polynomial's coefficients are stored.

Every other module of the package reaches the terms through the public
methods or through ``grpoly``'s working-form helpers, so a change of
coefficient storage touches ``grpoly.py`` alone.  The scan flags the stored
attributes, ``_nums`` and ``_den``, and the ``_terms`` view of them, and any
use of the packed exponent key's layout constants: other modules make keys
only through ``grpoly``'s helpers.
"""

import ast
from pathlib import Path

import pytest

from heatansatz import grpoly
from heatansatz.grpoly import GradedPoly

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(path for path in ROOT.glob("src/heatansatz/*.py") if path.name != "grpoly.py")
STORAGE = {"_nums", "_den", "_terms"}  # the stored working form and its Fraction view
LAYOUT = {"_SLOT", "_MASK", "_LIMIT"}  # the slot width of a packed key and the constants made from it


def storage_reads(source: str) -> list[int]:
    """Lines that read an attribute named in ``STORAGE``."""
    nodes = ast.walk(ast.parse(source))
    return [node.lineno for node in nodes if isinstance(node, ast.Attribute) and node.attr in STORAGE]


def layout_uses(source: str) -> list[int]:
    """Lines that import, name or read a constant named in ``LAYOUT``."""
    nodes = ast.walk(ast.parse(source))
    return sorted(
        node.lineno
        for node in nodes
        if (isinstance(node, ast.alias) and node.name in LAYOUT)
        or (isinstance(node, ast.Name) and node.id in LAYOUT)
        or (isinstance(node, ast.Attribute) and node.attr in LAYOUT)
    )


def test_the_stored_attributes_are_scanned():
    assert set(GradedPoly.__slots__) - {"family", "nvars"} <= STORAGE


def test_the_modules_are_found():
    assert {path.name for path in MODULES} >= {"operators.py", "ansatz.py", "solution.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_module_but_grpoly_reads_the_storage(path):
    assert storage_reads(path.read_text()) == []


def test_the_scan_sees_a_storage_read():
    assert storage_reads("n = len(p._terms)\nq = p.terms()\n\nfor e, c in poly._terms.items():\n    pass\n") == [1, 4]
    assert storage_reads("d = p._den\nq = p.coefficient((1,))\nfor e, n in p._nums.items():\n    pass\n") == [1, 3]


def test_the_layout_constants_are_grpoly_s():
    assert LAYOUT <= set(vars(grpoly))


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_module_but_grpoly_knows_the_key_layout(path):
    assert layout_uses(path.read_text()) == []


def test_the_scan_sees_a_layout_use():
    source = "from .grpoly import _SLOT, _times\nw = 1 << _SLOT\nm = grpoly._MASK\nk = _unit(2)\n"
    assert layout_uses(source) == [1, 2, 3]
