"""Every module of the package uses each name it imports, imports only
the standard library and the package itself, reads integers and clears
denominators only in ``rational``, and leaves instance files to ``cli``.

No linter runs on the package, so this walks each module's syntax tree:
a name bound by an import must be read somewhere in the module, and in
``__init__.py`` it must be listed in ``__all__``, which re-exports it,
and every entry of ``__all__`` must be bound there, or
``from conepack import *`` fails.
A non-relative import must name a module of ``sys.stdlib_module_names``
or ``conepack``, and no module may import ``dataclasses``: a record is a
``typing.NamedTuple``, which generates no code when the module is
imported, so a cold import of ``conepack.cli`` loads neither
``dataclasses`` nor ``inspect``.  Outside ``rational.py`` no module may call
``isinstance(..., int)`` or ``hasattr(..., "denominator")``, the type
tests of a second integer reader, nor read an attribute ``.numerator``
or ``.denominator``, the mark of a second clearing of denominators, nor
hold a comprehension whose element is ``integer(v, ...)`` or
``exact(v, ...)`` of its own variable ``v``, the mark of a second vector
reader; a record read field by field, such as a ``(release, deadline,
length)`` triple, is no vector.
Outside ``cli.py`` no module may call ``.splitlines()`` or define a
``*_from_text`` function, the marks of a second file reader.  No module
may subscript an attribute ``.windows`` outside
``scheduling._machine_windows``, the one reader of a machine type, and
``SchedulingInstance.__init__``, which builds the windows.
No module but ``geometry.py`` may name the attribute ``._lattice``,
``._runs`` or ``._bounds``, the caches geometry keeps on a polytope, and
within it only ``lattice_points`` may assign ``._lattice`` or ``._runs``
a value other than None, so a lattice is never cached without its runs.
No module but ``geometry.py`` may call ``Polytope(...)``, so every
polytope with coordinate bounds is written by ``bounded_polytope``.
Every parameter of every function and lambda of the package must be
read in its body, but ``self`` and ``_``-prefixed names.
Every top-level function and class of the package but ``oracle.py``, the
reference code, and every method and property of those classes but
dunders, must be read by name in the package or in ``conebench``: as a
name, an attribute or a string, such as an entry of ``__all__`` or of the
tracer's ``TRACED``.  Every top-level function and class of the shared
test helpers, ``tests/genutil.py``, must be read by name in a test module
or in the helpers themselves.  Every parameter with a default of a
package function must be passed, by keyword or by position, at some call
in the package, ``conebench`` or the tests; a call to a class counts for
its ``__init__``.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import conepack

PACKAGE = Path(conepack.__file__).resolve().parent
MODULES = sorted(PACKAGE.glob("*.py"))
TESTS = sorted(Path(__file__).resolve().parent.glob("*.py"))
CONEBENCH = sorted(
    (Path(__file__).resolve().parent.parent / "conebench").glob("*.py"))


def imported_names(tree):
    """The names bound by the module's imports, with their line numbers."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                out[name] = node.lineno
    return out


def exported_names(tree):
    """The strings of the module's ``__all__`` list, if it has one."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


def parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def unused_imports(path):
    tree = parse(path)
    if path.name == "__init__.py":
        used = exported_names(tree)
    else:
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})"
                  for name, line in imported_names(tree).items()
                  if name not in used)


def imported_modules(path):
    """``(top-level module, line number)`` of each module the module's
    non-relative imports name."""
    for node in ast.walk(parse(path)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
        else:
            continue
        for name in names:
            yield name.split(".")[0], node.lineno


def foreign_imports(path):
    """The top-level modules of the module's non-relative imports that are
    neither in the standard library nor the package, with line numbers."""
    return sorted(f"{top} (line {line})"
                  for top, line in imported_modules(path)
                  if top not in sys.stdlib_module_names and top != "conepack")


def dataclass_imports(path):
    """The module's imports of ``dataclasses``, with line numbers."""
    return sorted(f"{top} (line {line})"
                  for top, line in imported_modules(path)
                  if top == "dataclasses")


def integer_type_tests(path):
    """The ``isinstance(..., int)`` and ``hasattr(..., "denominator")``
    calls of the module, with line numbers."""
    out = []
    for node in ast.walk(parse(path)):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and len(node.args) == 2):
            continue
        kind = node.args[1]
        if node.func.id == "isinstance":
            kinds = kind.elts if isinstance(kind, ast.Tuple) else [kind]
            if any(isinstance(k, ast.Name) and k.id == "int" for k in kinds):
                out.append(f"isinstance (line {node.lineno})")
        elif node.func.id == "hasattr" and isinstance(kind, ast.Constant) \
                and kind.value == "denominator":
            out.append(f"hasattr (line {node.lineno})")
    return sorted(out)


def fraction_part_reads(path):
    """The ``.numerator`` and ``.denominator`` attributes the module reads,
    with line numbers."""
    return sorted(f"{node.attr} (line {node.lineno})"
                  for node in ast.walk(parse(path))
                  if isinstance(node, ast.Attribute)
                  and node.attr in ("numerator", "denominator"))


def text_readers(path):
    """The ``.splitlines()`` calls and ``*_from_text`` functions of the
    module, with line numbers."""
    out = []
    for node in ast.walk(parse(path)):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                and node.func.attr == "splitlines":
            out.append(f"splitlines (line {node.lineno})")
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                and node.name.endswith("_from_text"):
            out.append(f"{node.name} (line {node.lineno})")
    return sorted(out)


# the scopes, as nested def and class names, that may subscript .windows
WINDOWS_READERS = {("_machine_windows",), ("SchedulingInstance", "__init__")}


def windows_lookups(path):
    """The subscripts ``<expr>.windows[...]`` of the module outside
    ``WINDOWS_READERS``, with line numbers."""
    out = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            scope += (node.name,)
            if scope in WINDOWS_READERS:
                return
        if isinstance(node, ast.Subscript) \
                and isinstance(node.value, ast.Attribute) \
                and node.value.attr == "windows":
            out.append(f"windows (line {node.lineno})")
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(parse(path), ())
    return sorted(out)


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_import_is_used(path):
    assert unused_imports(path) == []


def test_an_unused_import_is_caught(tmp_path):
    module = tmp_path / "sample.py"
    module.write_text("import os\nfrom math import gcd, lcm\n"
                      "from . import budget as spent\n\nprint(gcd(4, 6))\n")
    assert unused_imports(module) == ["lcm (line 2)", "os (line 1)",
                                      "spent (line 3)"]


def stale_exports(path):
    """The entries of the module's ``__all__`` that no import, top-level
    definition or top-level assignment of the module binds."""
    tree = parse(path)
    bound = set(imported_names(tree))
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, ast.Assign):
            bound.update(t.id for t in node.targets if isinstance(t, ast.Name))
    return sorted(exported_names(tree) - bound)


def test_every_export_is_bound():
    assert stale_exports(PACKAGE / "__init__.py") == []
    namespace = {}
    exec("from conepack import *", namespace)
    assert set(conepack.__all__) <= set(namespace)


def test_a_stale_export_is_caught(tmp_path):
    module = tmp_path / "__init__.py"
    module.write_text("from .geometry import Polytope\n"
                      "from . import budget\n\n"
                      "VERSION = 1\n\n\n"
                      "def solve():\n    pass\n\n\n"
                      "__all__ = ['Polytope', 'budget', 'VERSION', 'solve',\n"
                      "           'Combination', 'combo_sum']\n")
    assert stale_exports(module) == ["Combination", "combo_sum"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_only_the_standard_library_is_imported(path):
    assert foreign_imports(path) == []


def test_a_foreign_import_is_caught(tmp_path):
    module = tmp_path / "sample.py"
    module.write_text("import os.path\nimport numpy as np\n"
                      "from conepack.rational import Rat\n"
                      "from .geometry import Polytope\n"
                      "from numpy.linalg import solve\n")
    assert foreign_imports(module) == ["numpy (line 2)", "numpy (line 5)"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_module_imports_dataclasses(path):
    assert dataclass_imports(path) == []


def test_a_dataclass_import_is_caught(tmp_path):
    module = tmp_path / "sample.py"
    module.write_text("import dataclasses\n"
                      "from typing import NamedTuple\n"
                      "from dataclasses import dataclass, replace\n"
                      "from .dataclasses import Record\n")
    assert dataclass_imports(module) == ["dataclasses (line 1)",
                                         "dataclasses (line 3)"]


def test_a_cold_import_generates_no_code():
    # the subprocess imports the package under test, installed or not
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, conepack.cli; print(sorted("
         "{'dataclasses', 'inspect'} & set(sys.modules)))"],
        capture_output=True, text=True, env=env, check=True)
    assert proc.stdout == "[]\n"


READERS = [p for p in MODULES if p.name != "rational.py"]


@pytest.mark.parametrize("path", READERS, ids=[p.name for p in READERS])
def test_integers_are_read_only_through_rational(path):
    assert integer_type_tests(path) == []


def test_a_second_integer_reader_is_caught(tmp_path):
    module = tmp_path / "sample.py"
    module.write_text("def read(v, w):\n"
                      "    if isinstance(v, int):\n"
                      "        return v\n"
                      "    if isinstance(w, (bool, int)) or isinstance(w, str):"
                      "\n        return w\n"
                      "    return hasattr(v, 'denominator') or hasattr(v, 'x')"
                      "\n")
    assert integer_type_tests(module) == ["hasattr (line 6)",
                                          "isinstance (line 2)",
                                          "isinstance (line 4)"]


COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.GeneratorExp)


def vector_reads(path):
    """The comprehensions of the module whose element is ``integer(v,
    ...)`` or ``exact(v, ...)`` of the comprehension's own variable, with
    line numbers."""
    out = []
    for node in ast.walk(parse(path)):
        if not isinstance(node, COMPREHENSIONS):
            continue
        own = {name.id for gen in node.generators
               for name in ast.walk(gen.target) if isinstance(name, ast.Name)}
        elt = node.elt
        if isinstance(elt, ast.Call) and isinstance(elt.func, ast.Name) \
                and elt.func.id in ("integer", "exact") and elt.args \
                and isinstance(elt.args[0], ast.Name) \
                and elt.args[0].id in own:
            out.append(f"{elt.func.id} (line {node.lineno})")
    return sorted(out)


@pytest.mark.parametrize("path", READERS, ids=[p.name for p in READERS])
def test_vectors_are_read_only_through_rational(path):
    assert vector_reads(path) == []


def test_a_second_vector_reader_is_caught(tmp_path):
    # the job vector and sizes as scheduling.py and solver.py once read
    # them; a record read field by field, or a value read outside the
    # comprehension, reads no vector
    module = tmp_path / "sample.py"
    module.write_text("def read(x, sizes, jobs, n):\n"
                      "    x = tuple(integer(v, 'job count') for v in x)\n"
                      "    sizes = [exact(s, 'item size') for s in sizes]\n"
                      "    pts = {tuple(integer(v, 'c') for v in p)\n"
                      "           for p in x}\n"
                      "    jobs = [(integer(r, 'start'), integer(d, 'end'))\n"
                      "            for r, d in jobs]\n"
                      "    return [integer(n, 'n') for _ in x], pts, jobs\n")
    assert vector_reads(module) == ["exact (line 3)", "integer (line 2)",
                                    "integer (line 4)"]


@pytest.mark.parametrize("path", READERS, ids=[p.name for p in READERS])
def test_denominators_are_cleared_only_in_rational(path):
    assert fraction_part_reads(path) == []


def test_a_second_clearing_is_caught(tmp_path):
    # the size row and the load check of a packing, as solver.py once
    # cleared them; a message or a name that mentions a denominator reads
    # none
    module = tmp_path / "sample.py"
    module.write_text("from math import lcm\n"
                      "\n\n"
                      "def _pattern_rows(sizes, capacity):\n"
                      "    scale = lcm(*(v.denominator for v in sizes))\n"
                      "    row = [s.numerator * (scale // s.denominator)\n"
                      "           for s in sizes]\n"
                      "    return [row], [capacity.numerator]\n"
                      "\n\n"
                      "def _numerators(point, denominator):\n"
                      "    raise ValueError('zero denominator')\n")
    assert fraction_part_reads(module) == [
        "denominator (line 5)", "denominator (line 6)",
        "numerator (line 6)", "numerator (line 8)"]


NOT_CLI = [p for p in MODULES if p.name != "cli.py"]


@pytest.mark.parametrize("path", NOT_CLI, ids=[p.name for p in NOT_CLI])
def test_instance_files_are_read_only_in_cli(path):
    assert text_readers(path) == []


def test_a_second_file_reader_is_caught(tmp_path):
    module = tmp_path / "sample.py"
    module.write_text("def polytope_from_text(text):\n"
                      "    return [ln.split() for ln in text.splitlines()]\n"
                      "\n\ndef lines(text):\n"
                      "    return text.split('\\n')\n")
    assert text_readers(module) == ["polytope_from_text (line 1)",
                                    "splitlines (line 2)"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_machine_types_are_read_only_by_their_reader(path):
    assert windows_lookups(path) == []


def test_a_second_machine_type_reader_is_caught(tmp_path):
    module = tmp_path / "sample.py"
    module.write_text("class SchedulingInstance:\n"
                      "    def __init__(self, w):\n"
                      "        self.windows = w\n"
                      "        self.d = len(self.windows[0])\n"
                      "\n"
                      "    def horizon(self, i):\n"
                      "        return self.windows[i]\n"
                      "\n\n"
                      "def _machine_windows(inst, i):\n"
                      "    return inst.windows[i]\n"
                      "\n\n"
                      "def brute(inst, i, j):\n"
                      "    windows = inst.windows\n"
                      "    return windows[i], inst.windows[i][j]\n")
    assert windows_lookups(module) == ["windows (line 16)",
                                       "windows (line 7)"]


# the lattice, column runs and bounds that geometry caches on a polytope
LATTICE_CACHES = {"_lattice", "_runs", "_bounds"}


def cache_attributes(path):
    """The attributes ``._lattice``, ``._runs`` and ``._bounds`` that the
    module names, with line numbers."""
    return sorted(f"{node.attr} (line {node.lineno})"
                  for node in ast.walk(parse(path))
                  if isinstance(node, ast.Attribute)
                  and node.attr in LATTICE_CACHES)


NOT_GEOMETRY = [p for p in MODULES if p.name != "geometry.py"]


@pytest.mark.parametrize("path", NOT_GEOMETRY,
                         ids=[p.name for p in NOT_GEOMETRY])
def test_only_geometry_names_the_lattice_caches(path):
    assert cache_attributes(path) == []


def test_a_cache_named_outside_geometry_is_caught(tmp_path):
    module = tmp_path / "sample.py"
    module.write_text("def probe(poly, points):\n"
                      "    poly._lattice, poly._runs = points, None\n"
                      "    return poly._bounds or poly.lattice\n")
    assert cache_attributes(module) == [
        "_bounds (line 3)", "_lattice (line 2)", "_runs (line 2)"]


def cache_writers(path):
    """The top-level functions and the methods (``Class.method``) of the
    module that assign ``._lattice`` or ``._runs`` a value other than the
    constant None."""
    defs = []
    for node in parse(path).body:
        if isinstance(node, ast.ClassDef):
            defs += [(f"{node.name}.{f.name}", f) for f in node.body
                     if isinstance(f, ast.FunctionDef)]
        elif isinstance(node, ast.FunctionDef):
            defs.append((node.name, node))

    def writes(stmt):
        if not isinstance(stmt, ast.Assign) or (
                isinstance(stmt.value, ast.Constant)
                and stmt.value.value is None):
            return False
        return any(isinstance(t, ast.Attribute)
                   and t.attr in ("_lattice", "_runs")
                   for target in stmt.targets for t in ast.walk(target))

    return [name for name, node in defs if any(map(writes, ast.walk(node)))]


def test_only_lattice_points_caches_a_lattice():
    assert cache_writers(PACKAGE / "geometry.py") == ["lattice_points"]


def test_a_lattice_cached_elsewhere_is_caught(tmp_path):
    module = tmp_path / "sample.py"
    module.write_text("class Polytope:\n"
                      "    def __init__(self):\n"
                      "        self._lattice = None\n"
                      "        self._runs = None\n"
                      "\n\n"
                      "def lattice_points(poly):\n"
                      "    poly._lattice, poly._runs = [], []\n"
                      "    return poly._lattice\n"
                      "\n\n"
                      "def seeded_union(poly, points):\n"
                      "    poly._lattice = sorted(points)\n"
                      "    return poly\n")
    assert cache_writers(module) == ["lattice_points", "seeded_union"]


def polytope_calls(path):
    """The calls ``Polytope(...)`` and ``<expr>.Polytope(...)`` of the
    module, with line numbers."""
    return sorted(f"Polytope (line {node.lineno})"
                  for node in ast.walk(parse(path))
                  if isinstance(node, ast.Call)
                  and "Polytope" in (getattr(node.func, "id", None),
                                     getattr(node.func, "attr", None)))


@pytest.mark.parametrize("path", NOT_GEOMETRY,
                         ids=[p.name for p in NOT_GEOMETRY])
def test_only_geometry_builds_a_polytope(path):
    assert polytope_calls(path) == []


def test_a_polytope_built_outside_geometry_is_caught(tmp_path):
    # a call by name or through the module is caught; naming the class
    # (a type test, a reader handed the class) builds nothing here
    module = tmp_path / "sample.py"
    module.write_text("from . import geometry\n"
                      "from .geometry import Polytope, bounded_polytope\n"
                      "\n\n"
                      "def build_edf_polytope(rows, rhs):\n"
                      "    return Polytope(rows, rhs)\n"
                      "\n\n"
                      "def _cycle_polytope(rows, rhs):\n"
                      "    return geometry.Polytope(rows, rhs)\n"
                      "\n\n"
                      "def read(src, rows, rhs, lo, hi):\n"
                      "    poly = src.build(Polytope, rows, rhs)\n"
                      "    assert isinstance(poly, Polytope)\n"
                      "    return bounded_polytope(rows, rhs, lo, hi)\n")
    assert polytope_calls(module) == ["Polytope (line 10)",
                                      "Polytope (line 6)"]


def unread_parameters(path):
    """The parameters of the module's functions and lambdas that their
    bodies never read, but ``self`` and ``_``-prefixed names, as
    ``function.parameter`` with line numbers."""
    out = []
    for node in ast.walk(parse(path)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
            continue
        args = node.args
        params = args.posonlyargs + args.args + args.kwonlyargs
        params += [a for a in (args.vararg, args.kwarg) if a]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {n.id for stmt in body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        name = getattr(node, "name", "lambda")
        out += [f"{name}.{a.arg} (line {node.lineno})" for a in params
                if a.arg != "self" and not a.arg.startswith("_")
                and a.arg not in read]
    return sorted(out)


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_parameter_is_read(path):
    assert unread_parameters(path) == []


def test_an_unread_parameter_is_caught(tmp_path):
    module = tmp_path / "sample.py"
    module.write_text("def used(a, _b, *args, key=None, **kw):\n"
                      "    return a, args, key, kw\n"
                      "\n\n"
                      "class Shape:\n"
                      "    def area(self, scale, unit):\n"
                      "        return scale\n"
                      "\n\n"
                      "def closure(x, y, *rest):\n"
                      "    def inner(z):\n"
                      "        return x + z\n"
                      "    return inner\n"
                      "\n\n"
                      "pick = lambda p, q: p\n")
    assert unread_parameters(module) == [
        "area.unit (line 6)", "closure.rest (line 10)",
        "closure.y (line 10)", "lambda.q (line 16)"]


def unread_definitions(definers, readers):
    """The top-level functions and classes of the ``definers``, and the
    methods and properties of those classes but dunders, that no module of
    the ``readers`` reads by name, as a name, an attribute or a string,
    with module names and line numbers."""
    read = set()
    for path in readers:
        for node in ast.walk(parse(path)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) \
                    and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                read.add(node.value)
    defs = (ast.FunctionDef, ast.AsyncFunctionDef)
    out = []
    for path in definers:
        for node in parse(path).body:
            if not isinstance(node, defs + (ast.ClassDef,)):
                continue
            if node.name not in read:
                out.append(f"{path.stem}.{node.name} (line {node.lineno})")
            if isinstance(node, ast.ClassDef):
                out += [f"{path.stem}.{node.name}.{m.name} (line {m.lineno})"
                        for m in node.body if isinstance(m, defs)
                        and not (m.name.startswith("__")
                                 and m.name.endswith("__"))
                        and m.name not in read]
    return sorted(out)


DEFINERS = [p for p in MODULES if p.name != "oracle.py"]


def test_every_definition_is_read():
    assert unread_definitions(DEFINERS, MODULES + CONEBENCH) == []


def test_every_test_helper_is_read():
    helpers = [p for p in TESTS if p.name == "genutil.py"]
    assert helpers and unread_definitions(helpers, TESTS) == []


def test_an_unread_definition_is_caught(tmp_path):
    module = tmp_path / "sample.py"
    module.write_text("def called():\n    pass\n\n\n"
                      "def by_attribute():\n    pass\n\n\n"
                      "def listed():\n    pass\n\n\n"
                      "def unread():\n    pass\n\n\n"
                      "class Unread:\n    pass\n\n\n"
                      "class Shape:\n"
                      "    def __init__(self, side):\n"
                      "        self.side = side\n\n"
                      "    def area(self):\n"
                      "        return self.side ** 2\n\n"
                      "    @property\n"
                      "    def width(self):\n"
                      "        return self.side\n\n"
                      "    def perimeter(self):\n"
                      "        return 4 * self.side\n\n"
                      "    @staticmethod\n"
                      "    def scaled(side):\n"
                      "        return Shape(2 * side)\n")
    user = tmp_path / "user.py"
    user.write_text("import sample\n\n"
                    "called()\nsample.by_attribute()\n"
                    "TRACED = {'sample': ('listed',)}\n"
                    "unread = sample.Unread = None\n"
                    "shape = sample.Shape(2)\n"
                    "print(shape.area(), shape.width)\n")
    assert unread_definitions([module], [module, user]) == [
        "sample.Shape.perimeter (line 32)", "sample.Shape.scaled (line 36)",
        "sample.Unread (line 17)", "sample.unread (line 13)"]


def unset_defaults(definers, callers):
    """The parameters with a default of the ``definers``' functions that no
    call in the ``callers`` passes, by keyword or by position, as
    ``function.parameter`` with module names and line numbers.  A call is
    matched to a function by name, and a call to a class counts for its
    ``__init__``; a method's ``self`` takes no position."""
    passed = {}
    for path in callers:
        for node in ast.walk(parse(path)):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = getattr(func, "id", None) or getattr(func, "attr", None)
            positions = next((k for k, a in enumerate(node.args)
                              if isinstance(a, ast.Starred)), len(node.args))
            passed.setdefault(name, []).append(
                (positions, {kw.arg for kw in node.keywords}))
    out = []

    def visit(node, cls, module):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child.name, module)
                continue
            if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, cls, module)
                continue
            args = child.args
            params = args.posonlyargs + args.args
            if cls and not any(getattr(d, "id", None) == "staticmethod"
                               for d in child.decorator_list):
                params = params[1:]
            name = cls if child.name == "__init__" else child.name
            calls = passed.get(name, [])
            first = len(params) - len(args.defaults)
            defaulted = [(a.arg, k) for k, a in enumerate(params) if k >= first]
            defaulted += [(a.arg, None) for a, d in zip(args.kwonlyargs,
                                                        args.kw_defaults)
                          if d is not None]
            out.extend(f"{module}.{child.name}.{arg} (line {child.lineno})"
                       for arg, k in defaulted
                       if not any(arg in keys or (k is not None and k < n)
                                  for n, keys in calls))
            visit(child, None, module)

    for path in definers:
        visit(parse(path), None, path.stem)
    return sorted(out)


def test_every_default_is_passed_somewhere():
    assert unset_defaults(MODULES, MODULES + TESTS + CONEBENCH) == []


def test_an_unset_default_is_caught(tmp_path):
    module = tmp_path / "sample.py"
    module.write_text("def solve(a, cap=5, mode='x', *, tries=1, seen=None):\n"
                      "    return a, cap, mode, tries, seen\n"
                      "\n\n"
                      "class Box:\n"
                      "    def __init__(self, side, unit=1):\n"
                      "        self.side = side * unit\n"
                      "\n"
                      "    def grow(self, by=1, times=2):\n"
                      "        return self.side + by * times\n")
    user = tmp_path / "user.py"
    user.write_text("import sample\n\n"
                    "sample.solve(1, 2, tries=3)\n"
                    "args = (1, 2, 3)\n"
                    "solve(*args)\n"
                    "box = sample.Box(2, 3)\n"
                    "box.grow(4)\n")
    assert unset_defaults([module], [module, user]) == [
        "sample.grow.times (line 9)", "sample.solve.mode (line 1)",
        "sample.solve.seen (line 1)"]
