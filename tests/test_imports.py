"""Every name a dyadlab module imports is used in that module, so a deleted
function cannot linger in an import list.  __init__.py is left out: its
imports are the package's public names.

Every function, method, property and class a dyadlab module defines is
referenced by name somewhere in the source, the tests, the benchmark or the
scripts, so code that nothing calls does not stay."""
import ast
from pathlib import Path

import pytest

import dyadlab

PACKAGE = Path(dyadlab.__file__).resolve().parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
# the trees whose code may reference a definition
SEARCHED = [PACKAGE.parents[1] / d for d in ("src", "tests", "perfbench", "scripts")]


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


def definitions(source: str) -> list:
    """(qualified name, name) of every class, function and method, nested ones
    included, dunders aside."""
    found = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, prefix)
                continue
            if not (child.name.startswith("__") and child.name.endswith("__")):
                found.append((prefix + child.name, child.name))
            visit(child, f"{prefix}{child.name}.")

    visit(ast.parse(source), "")
    return found


def references(source: str) -> set:
    """Every name the source uses: a variable, an attribute, an imported name,
    or a string constant that is exactly an identifier (getattr dispatch)."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.update(node.name.split("."))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and node.value.isidentifier():
            names.add(node.value)
    return names


@pytest.fixture(scope="module")
def referenced():
    return set().union(*(references(p.read_text())
                         for root in SEARCHED for p in sorted(root.rglob("*.py"))))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_definition_is_referenced(path, referenced):
    assert [qual for qual, name in definitions(path.read_text()) if name not in referenced] == []


def test_check_sees_an_unreferenced_definition():
    source = ("class A:\n    def __init__(self):\n        self.used()\n"
              "    def used(self):\n        pass\n    def idle(self):\n        def inner():\n"
              "            pass\n        return inner\n"
              "def by_string():\n    pass\ngetattr(A, 'by_string')\n")
    idle = [qual for qual, name in definitions(source) if name not in references(source)]
    assert idle == ["A.idle"]
