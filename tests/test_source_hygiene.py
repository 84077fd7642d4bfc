"""Source hygiene of the ``smpg`` package, read with the standard ``ast``.

No module other than ``__init__`` (which re-exports) imports a name it never
reads, a local of the same name not counting as a read, and every private
top-level function or class is referenced somewhere in the package outside
its own definition: a deletion that leaves an import or a helper behind
fails here.  The double ``Game`` (``Reduction.doubled``) is for output
only: no module but ``cli`` and ``transforms`` reads the attribute.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "smpg"
MODULES = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}


def _imported(tree: ast.Module) -> set[str]:
    """The names a module's imports bind, ``from __future__`` left out."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            names.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
    return names


def _references(*nodes) -> set[str]:
    """Every name read or written, attribute taken or name imported under ``nodes``."""
    out = set()
    for node in (sub for top in nodes for sub in ast.walk(top)):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name)
    return out


SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _bound(scope) -> set[str]:
    """The names a function binds: its arguments and every name it stores,
    nested functions' own bindings left out; all of them are local to it."""
    names = {arg.arg for arg in ast.walk(scope.args) if isinstance(arg, ast.arg)}
    todo = list(ast.iter_child_nodes(scope))
    while todo:
        node = todo.pop()
        if isinstance(node, SCOPES):
            if not isinstance(node, ast.Lambda):
                names.add(node.name)
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        todo.extend(ast.iter_child_nodes(node))
    return names


def _module_reads(node, bound=frozenset()) -> set[str]:
    """The module-level names read under ``node``: every load of a name that
    no enclosing function binds, so a local that shadows an import does not
    count as a use of it."""
    if isinstance(node, SCOPES):
        bound = bound | _bound(node)
    out = set()
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id not in bound:
        out.add(node.id)
    for child in ast.iter_child_nodes(node):
        out |= _module_reads(child, bound)
    return out


@pytest.mark.parametrize("module", sorted(name for name in MODULES if name != "__init__"))
def test_no_module_imports_a_name_it_never_uses(module):
    tree = MODULES[module]
    assert sorted(_imported(tree) - _module_reads(tree)) == []


def _private_definitions():
    for module, tree in MODULES.items():
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name.startswith("_")
                    and not node.name.startswith("__")):
                yield module, node


@pytest.mark.parametrize("module, definition", [
    pytest.param(module, node, id=f"{module}.{node.name}") for module, node in _private_definitions()])
def test_every_private_definition_is_referenced(module, definition):
    elsewhere = [node for name, tree in MODULES.items() for node in tree.body
                 if not (name == module and node is definition)]
    assert definition.name in _references(*elsewhere)


def test_only_the_output_modules_read_the_double_game():
    readers = {module for module, tree in MODULES.items() for node in ast.walk(tree)
               if isinstance(node, ast.Attribute) and node.attr == "doubled"}
    assert readers <= {"cli", "transforms"}
