"""No module of the package imports a name it never uses, no private
top-level name or public UPPER_CASE constant of the package goes unread,
and no module checks anything with `assert`, which `python -O` strips.

The package's `__init__.py` imports names only to re-export them, so its
imports are not checked; its reads still count for the private names."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "opendyn"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    """Names bound by a top-level import that the module never reads."""
    tree = ast.parse(source)
    bound = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound |= {a.asname or a.name for a in node.names}
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(bound - read)


def test_checker_finds_an_unused_import():
    source = "import json\nimport os.path\nfrom math import pi as PI\nos.sep\n"
    assert unused_imports(source) == ["PI", "json"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_has_no_unused_import(path):
    assert unused_imports(path.read_text()) == []


def assigned_names(tree: ast.Module) -> set:
    """Names a module assigns at top level."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            names |= {n.id for t in targets for n in ast.walk(t)
                      if isinstance(n, ast.Name)}
    return names


def private_definitions(tree: ast.Module) -> set:
    """Private (single-underscore) names a module defines at top level:
    functions, classes and assigned names."""
    defined = assigned_names(tree) | {
        node.name for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef))}
    return {name for name in defined
            if name.startswith("_") and not name.startswith("__")}


def public_constants(tree: ast.Module) -> set:
    """Public UPPER_CASE names a module assigns at top level."""
    return {name for name in assigned_names(tree)
            if name.isupper() and not name.startswith("_")}


def unread_names(sources: list, definitions) -> list:
    """Names that definitions(tree) gives for some source and that no
    source reads, as a bare name or as an attribute."""
    trees = [ast.parse(source) for source in sources]
    defined = set().union(*map(definitions, trees))
    read = {n.id for tree in trees for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    read |= {n.attr for tree in trees for n in ast.walk(tree)
             if isinstance(n, ast.Attribute)}
    return sorted(defined - read)


def unread_private_names(sources: list) -> list:
    """Private top-level names that no source reads: a helper nothing
    calls any more."""
    return unread_names(sources, private_definitions)


def unread_public_constants(sources: list) -> list:
    """Public UPPER_CASE constants that no source reads: a setting nothing
    uses any more.  Re-exporting one is not a read."""
    return unread_names(sources, public_constants)


def test_checker_finds_an_unread_private_name():
    first = ("def _called():\n    pass\n\ndef _orphan():\n    pass\n\n"
             "_TABLE, _SPARE = {}, 0\n_TABLE['k'] = 1\n__all__ = []\n")
    second = "from first import _called\nimport first\n_called()\n" \
        "first._SPARE\n"
    assert unread_private_names([first, second]) == ["_orphan"]
    assert unread_private_names([first]) == ["_SPARE", "_called", "_orphan"]


def test_checker_finds_an_unread_public_constant():
    first = ("ROUNDS = 40\nLIMIT: int = 3\nSEED, _HIDDEN = 1, 2\n"
             "Mixed = 0\nLEFTOVER = 5\n\ndef run():\n"
             "    return [LIMIT] * 2\n")
    second = ("from first import LEFTOVER, SEED\nimport first\n"
              "first.ROUNDS\n")
    assert unread_public_constants([first, second]) == ["LEFTOVER", "SEED"]
    assert unread_public_constants([first]) == ["LEFTOVER", "ROUNDS", "SEED"]


def test_package_has_no_unread_private_name():
    sources = [p.read_text() for p in sorted(SRC.glob("*.py"))]
    assert unread_private_names(sources) == []


def test_package_reads_every_public_constant():
    sources = [p.read_text() for p in sorted(SRC.glob("*.py"))]
    assert unread_public_constants(sources) == []


def assert_lines(source: str) -> list:
    """Line numbers of the assert statements in a source."""
    return [n.lineno for n in ast.walk(ast.parse(source))
            if isinstance(n, ast.Assert)]


def test_checker_finds_an_assert():
    source = ("def f(x):\n    if x:\n        assert x > 0, 'x'\n"
              "    return 'assert x'\n")
    assert assert_lines(source) == [3]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_module_has_no_assert(path):
    assert assert_lines(path.read_text()) == []
