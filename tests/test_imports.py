"""Every module under src/thinspan uses the names it imports.

No linter runs over the package, so this parses each module and reports an
imported name that never appears in it.  The names that perfbench's tracer
wraps in a module are exempt there: the module imports them so that the
tracer can replace them, whether or not it calls them itself.
"""

import ast
from pathlib import Path

import pytest

from support import load_tracing

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "thinspan"
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")


def imported_names(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Import):
            names.update(a.asname or a.name.split(".")[0] for a in node.names)
    return names


def used_names(tree: ast.Module) -> set[str]:
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


@pytest.mark.parametrize("module", MODULES)
def test_every_import_is_used(module):
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    traced = {name for mod, name, _ in load_tracing().WRAPPED if mod == module}
    unused = imported_names(tree) - used_names(tree) - traced
    assert not unused, sorted(unused)
