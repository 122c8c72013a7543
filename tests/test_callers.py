"""The library is what the program runs: every public function or class in
`src/taf` is used somewhere in `src/taf` besides its own definition.

A re-export in `__init__.py` does not count as a use, and a name used only
by tests belongs in the tests.
"""

import ast
from pathlib import Path

import taf

_SOURCES = sorted(
    path for path in Path(taf.__file__).parent.glob("*.py") if path.name != "__init__.py"
)


def _definitions(tree, prefix):
    """(qualified name, bare name) of every def and class, nested ones too."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield f"{prefix}.{node.name}", node.name
            yield from _definitions(node, f"{prefix}.{node.name}")
        else:
            yield from _definitions(node, prefix)


def _uses(tree):
    """Every name the module reads, as a Name, an Attribute or an import."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.asname or node.name


def uncalled_names():
    """Qualified names of the public defs and classes nothing else uses."""
    trees = {path.stem: ast.parse(path.read_text()) for path in _SOURCES}
    used = {name for tree in trees.values() for name in _uses(tree)}
    return sorted(
        qualified
        for module, tree in trees.items()
        for qualified, name in _definitions(tree, module)
        if not name.startswith("_") and name not in used
    )


def test_every_public_name_has_a_program_caller():
    assert uncalled_names() == []
