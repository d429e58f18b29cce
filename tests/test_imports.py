"""Every name a dyadlab module or a test file imports is used in that file,
so a deleted function cannot linger in an import list.  __init__.py is left
out: its imports are the package's public names.

Every function, method, property and class a dyadlab module defines is
referenced by name somewhere in the source, the tests, the benchmark or the
scripts, so code that nothing calls does not stay.

Every public top-level function and class of a dyadlab module, and every
public method and property of such a class, is reached by a run or a gate:
the package itself, the scripts, the benchmark harness or the acceptance
tests reference it, or TEST_ORACLES names it with the reason the tests need
it.  Code that only its own tests call does not stay.

Every defaulted parameter of a dyadlab function or method is passed by some
call in those trees, so a setting that no caller changes does not stay.

No dyadlab module calls a function or method named mean: every mean goes
through tree._mean, the sum and division numpy's mean makes on a 1-d array
without its microseconds of Python-level dispatch per call.

No dyadlab module divides 1 by an array's `.values` (or a slice of it): the
dual weight sigma = 1.0 / w is formed once, when the Weight is built, and
every reader takes w.sigma."""
import ast
from pathlib import Path

import pytest

import dyadlab

PACKAGE = Path(dyadlab.__file__).resolve().parent
REPO = PACKAGE.parents[1]
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
TEST_FILES = sorted((REPO / "tests").glob("*.py"))
# the trees whose code may reference a definition
SEARCHED = [REPO / d for d in ("src", "tests", "perfbench", "scripts")]
# the code that runs dyadlab or gates it: the package (__init__.py aside),
# the scripts, the benchmark harness and the acceptance criteria
REACHING = (MODULES + sorted((REPO / "scripts").glob("*.py"))
            + sorted(p for p in (REPO / "perfbench").glob("*.py")
                     if not p.name.startswith("test_"))
            + [REPO / "tests" / "test_acceptance.py"])

# Public definitions that no run or gate reaches, kept because the tests
# check reached code against them.
TEST_ORACLES = {
    "maximal_weighted": "M_w 1 = 1, domination and monotonicity checks of _maximal, "
                        "the kernel of duality_product and carleson_box_check",
    "form_value": "independent value of a shift_form witness",
    "haar_coefficient": "scalar (f, h_I) that haar_analysis is checked against",
    "weighted_haar": "scalar h^w_I through which Weight._haar is checked orthonormal",
    "haar_split": "scalar split of h_I that haar_splits is checked against",
    "weighted_norm": "scalar L2(w) norm that form witnesses and Haar energies are checked with",
    "weighted_inner": "scalar L2(w) inner product of the weighted Haar orthogonality check",
    "shift_matrix": "dense matrix that ShiftOperator is checked against",
    "weighted_haar_matrix": "dense matrix that the weighted Haar operator is checked against",
    "internal_indices": "interval enumeration that the heap order is checked against",
    "save_weight": "writes the weight files that --family file reads",
    "BellmanPoint.swapped": "the X <-> Y mirror through which DpEstimator is checked symmetric",
    "DyadicIndex.contains": "interval inclusion through which Carleson box sums are checked",
    "LeafFunction.norm2": "L2 norm through which Haar energies are checked (Parseval)",
}


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


@pytest.mark.parametrize("path", MODULES + TEST_FILES, ids=lambda p: p.name)
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


def references(source) -> set:
    """Every name the source (a string or a parsed node) uses: a variable, an
    attribute, an imported name, or a string constant that is exactly an
    identifier (getattr dispatch)."""
    names = set()
    for node in ast.walk(ast.parse(source) if isinstance(source, str) else source):
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


def attribute_references(node) -> set:
    """The names a parsed node uses as an attribute or as a string constant
    that is exactly an identifier: the ways code reaches a method."""
    return {n.attr if isinstance(n, ast.Attribute) else n.value for n in ast.walk(node)
            if isinstance(n, ast.Attribute)
            or (isinstance(n, ast.Constant) and isinstance(n.value, str)
                and n.value.isidentifier())}


def unreached(modules: dict, reaching: dict) -> list:
    """Sorted names of the public top-level functions and classes of the
    modules, and Class.name of the public methods and properties of their
    public classes, that no top-level statement of the reaching sources
    references, the definition itself aside; a method counts as referenced
    only as an attribute or a string, and is also reached from the other
    members of its class.  Both dicts map a file (a path or a name) to its
    source."""
    statements = [(path, node, references(node), attribute_references(node))
                  for path, source in reaching.items() for node in ast.parse(source).body]
    idle = []
    for path, source in modules.items():
        for node in ast.parse(source).body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) \
                    or node.name.startswith("_"):
                continue
            others = [st for st in statements if (st[0], st[1].lineno) != (path, node.lineno)]
            if not any(node.name in names for _, _, names, _ in others):
                idle.append(node.name)
            if not isinstance(node, ast.ClassDef):
                continue
            for member in node.body:
                if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                        and not member.name.startswith("_") \
                        and not any(member.name in attrs for _, _, _, attrs in others) \
                        and not any(member.name in attribute_references(other)
                                    for other in node.body if other is not member):
                    idle.append(f"{node.name}.{member.name}")
    return sorted(idle)


def test_every_public_definition_is_reached():
    # a name that a run or a gate reaches again leaves TEST_ORACLES
    reaching = {p: p.read_text() for p in REACHING}
    assert unreached({p: reaching[p] for p in MODULES}, reaching) == sorted(TEST_ORACLES)


def test_check_sees_a_definition_only_tests_reach():
    module = ("def run():\n    return helper()\n"
              "def helper():\n    return 1\n"
              "def idle(n):\n    return idle(n - 1)\n"
              "class Point:\n    def moved(self) -> 'Point':\n        return Point()\n"
              "def _private():\n    pass\n")
    script = "from m import run\nrun()\n"
    test = "from m import Point, idle\nidle(Point().moved())\n"
    assert unreached({"m.py": module}, {"m.py": module, "run.py": script}) \
        == ["Point", "Point.moved", "idle"]
    assert unreached({"m.py": module}, {"m.py": module, "run.py": script, "t.py": test}) == []
    # a method or property of a reached class: reached as an attribute from
    # outside the class or from another member, or only by a test; a plain
    # name that spells it reaches nothing
    module = ("class Box:\n    def size(self):\n        return self.area\n"
              "    @property\n    def area(self):\n        return 1\n"
              "    def grown(self):\n        return self.grown()\n"
              "    def _private(self):\n        pass\n")
    script = "from m import Box\ngrown = Box().size()\n"
    test = "from m import Box\nBox().grown()\n"
    assert unreached({"m.py": module}, {"m.py": module, "run.py": script}) == ["Box.grown"]
    assert unreached({"m.py": module}, {"m.py": module, "run.py": script, "t.py": test}) == []


def defaulted_parameters(source: str) -> list:
    """(qualified name, callee name, parameter, positional index) of every
    defaulted parameter.  A method's index leaves out self (cls for a
    classmethod), since its calls go through an instance or the class, and
    __init__ is called by its class's name; other dunders are left out."""
    found = []

    def visit(node, prefix, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.", child.name)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, f"{prefix}{child.name}.", None)
                dunder = child.name.startswith("__") and child.name.endswith("__")
                if dunder and not (cls and child.name == "__init__"):
                    continue
                a = child.args
                positional = a.posonlyargs + a.args
                static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                             for d in child.decorator_list)
                skip = 1 if cls and not static else 0
                callee = cls if child.name == "__init__" else child.name
                for i in range(len(positional) - len(a.defaults), len(positional)):
                    found.append((prefix + child.name, callee, positional[i].arg, i - skip))
                for arg, default in zip(a.kwonlyargs, a.kw_defaults):
                    if default is not None:
                        found.append((prefix + child.name, callee, arg.arg, None))
            else:
                visit(child, prefix, cls)

    visit(ast.parse(source), "", None)
    return found


def passed_arguments(sources) -> dict:
    """{callee name: (most positional arguments of one call, keywords passed)}
    over the sources.  A Name callee is read through its source's
    `import ... as` aliases.  A call with * or **, and a name used as a value
    (a runner in a tuple, a getattr string), pass every parameter: positional
    count inf."""
    passed = {}
    for source in sources:
        _add_passed(ast.parse(source), passed)
    return passed


def _add_passed(tree, passed: dict) -> None:
    aliases = {alias.asname: alias.name for node in ast.walk(tree)
               if isinstance(node, (ast.Import, ast.ImportFrom))
               for alias in node.names if alias.asname}

    def add(name, n, keywords):
        most, seen = passed.get(aliases.get(name, name), (0, set()))
        passed[aliases.get(name, name)] = (max(most, n), seen | keywords)

    not_values = set()  # callees, and the objects whose attributes are read
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            not_values.add(id(node.value))
        if isinstance(node, ast.Call):
            not_values.add(id(node.func))
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            star = any(isinstance(a, ast.Starred) for a in node.args) \
                or any(k.arg is None for k in node.keywords)
            add(name, float("inf") if star else len(node.args),
                {k.arg for k in node.keywords})
    for node in ast.walk(tree):
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load) \
                and id(node) not in not_values:
            add(getattr(node, "id", getattr(node, "attr", None)), float("inf"), set())
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and node.value.isidentifier():
            add(node.value, float("inf"), set())


def never_passed(definitions_source: str, passed: dict) -> list:
    """'qualified name(parameter)' of every defaulted parameter no call passes."""
    idle = []
    for qual, callee, param, index in defaulted_parameters(definitions_source):
        most, keywords = passed.get(callee, (0, set()))
        if param not in keywords and not (index is not None and index < most):
            idle.append(f"{qual}({param})")
    return idle


@pytest.fixture(scope="module")
def passed():
    return passed_arguments(p.read_text() for root in SEARCHED for p in sorted(root.rglob("*.py")))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_default_is_passed_somewhere(path, passed):
    # a parameter whose default every caller keeps is a setting that changes nothing
    assert never_passed(path.read_text(), passed) == []


def test_check_sees_a_default_no_call_passes():
    source = ("from m import f as g\n"
              "class A:\n    def __init__(self, a=1, b=2):\n        pass\n"
              "    def m(self, c=3, *, d=4):\n        pass\n"
              "def f(e=5, h=6):\n    pass\n"
              "def run(i=7):\n    pass\n"
              "def spread(j=8):\n    pass\n"
              "A(0)\na.m(d=1)\ng(h=0)\nrunners = (run,)\nspread(*args)\n")
    assert never_passed(source, passed_arguments([source])) == [
        "A.__init__(b)", "A.m(c)", "f(e)"]


def mean_calls(source: str) -> list:
    """Line numbers of the calls of a function or method named mean."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Call)
                  and getattr(node.func, "attr", getattr(node.func, "id", None)) == "mean")


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_means_go_through_the_helper(path):
    assert mean_calls(path.read_text()) == []


def test_check_sees_a_mean_call():
    source = ("import numpy as np\nfrom numpy import mean\n"
              "a = np.mean(x)\nb = x[1:].mean()\nc = mean(x)\nd = _mean(x) + x.mean\n")
    assert mean_calls(source) == [3, 4, 5]


def _values_of(node) -> bool:
    """Whether node is `<...>.values` or a subscript of it."""
    if isinstance(node, ast.Subscript):
        node = node.value
    return isinstance(node, ast.Attribute) and node.attr == "values"


def reciprocals_of_values(source: str) -> list:
    """Line numbers of the divisions 1 / <...>.values (1 or 1.0, sliced or not)."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div)
                  and isinstance(node.left, ast.Constant) and node.left.value == 1
                  and _values_of(node.right))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_sigma_is_read_from_the_weight(path):
    assert reciprocals_of_values(path.read_text()) == []


def test_check_sees_a_reciprocal_of_values():
    source = ("a = 1.0 / w.values\nb = 1 / self.base.values\nc = x * (1.0 / w.values[sl])\n"
              "d = psi.values / w.values\ne = 1.0 / v\nf = 2.0 / w.values\ng = w.sigma\n")
    assert reciprocals_of_values(source) == [1, 2, 3]
