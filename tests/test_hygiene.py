"""Source hygiene: no module in the package imports a name it never
uses.  The package's __init__.py is exempt, since its imports are the
public re-exports, and so is `from __future__`."""
import ast
import pathlib

import pytest

import orthomono

PACKAGE = pathlib.Path(orthomono.__file__).parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # `import a.b` binds a
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(imported.items())
            if name not in used]


def test_finds_an_unused_import():
    assert _unused_imports("import os\nfrom typing import Any, List\n"
                           "x: List = os.sep\n") == ["line 2: Any"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert _unused_imports(path.read_text()) == []
