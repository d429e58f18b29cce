"""Every name a dyadlab module imports is used in that module, so a deleted
function cannot linger in an import list.  __init__.py is left out: its
imports are the package's public names."""
import ast
from pathlib import Path

import pytest

import dyadlab

MODULES = sorted(p for p in Path(dyadlab.__file__).parent.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # `import a.b` binds a; `from m import x as y` binds y
                name = alias.asname or alias.name.partition(".")[0]
                imported.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_check_sees_an_unused_name():
    source = "from x import a, b as c\nimport d.e\nimport f\nprint(a, d, c.attr)\n"
    assert unused_imports(source) == ["f (line 3)"]
