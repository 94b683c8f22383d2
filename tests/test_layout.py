"""Layout rules of the package source: no private name without a caller,
no exported name without a definition, no public name or public method
without a caller, and one export list, each module's ``__all__``."""
import ast
import importlib
import inspect
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "diraconf"

# what reads the public names besides the package: the benchmark, and the
# acceptance criteria of the paper's results
READERS = [*sorted((ROOT / "perfbench").glob("*.py")),
           ROOT / "tests" / "test_acceptance.py"]

# public names kept with no caller in the package or its readers, each with
# its reason
UNREAD_EXPORTS = {
    "radial_wavefunction": "the hydrogenic oracle that tests/test_coulomb.py "
                           "integrates for <r>, <1/r> and the norm",
}

# public methods and properties of public classes (``Class.method``) kept
# with no caller in the package or its readers, each with its reason
UNREAD_METHODS = {}


def _module_names(tree):
    """The names a module binds at module level: functions, classes,
    assigned names and imports."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [
                node.target]
            for target in targets:
                names.update(n.id for n in ast.walk(target)
                             if isinstance(n, ast.Name))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update((a.asname or a.name).split(".")[0]
                         for a in node.names)
    return names


def _defined(tree):
    """The module-level private names a module binds.  (A private name it
    imports with ``from`` is read by that import.)"""
    return {name for name in _module_names(tree)
            if name.startswith("_") and not name.startswith("__")}


def _exported(tree):
    """The strings of a module's ``__all__`` (empty without one)."""
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            return {e.value for e in node.value.elts}
    return set()


def _referenced(tree):
    """Every name a module reads: loaded names, attributes and names
    imported from another module."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(a.name for a in node.names)
    return names


def _read_outside_definitions(tree):
    """The names a module reads (``_referenced``), each outside the
    top-level function or class that defines it."""
    names = set()
    for node in tree.body:
        own = ({node.name} if isinstance(node, (
            ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) else set())
        names |= _referenced(node) - own
    return names


def _attributes_read_outside_methods(tree):
    """The attribute names a module reads, each outside the top-level
    function or method of a top-level class that defines it.  (A method is
    read as an attribute; a local variable of the same name is not a
    read.)"""
    names = set()
    for node in tree.body:
        for part in node.body if isinstance(node, ast.ClassDef) else [node]:
            own = ({part.name} if isinstance(part, (
                ast.FunctionDef, ast.AsyncFunctionDef)) else set())
            names |= {n.attr for n in ast.walk(part)
                      if isinstance(n, ast.Attribute)} - own
    return names


def _named_by_string(tree):
    """The identifiers a module spells as string constants, as perfbench's
    span table names the functions it wraps."""
    return {node.value for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
            and node.value.isidentifier()}


def unreferenced(sources):
    """(module, name) of each module-level private name that no module of
    ``sources`` (module name -> source text) reads."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    read = set().union(*map(_referenced, trees.values()))
    return sorted((module, name) for module, tree in trees.items()
                  for name in _defined(tree) - read)


def stale_exports(sources):
    """(module, name) of each ``__all__`` entry of ``sources`` (module
    name -> source text) that its module does not bind at module level."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    return sorted((module, name) for module, tree in trees.items()
                  for name in _exported(tree) - _module_names(tree))


def unread_exports(sources, readers):
    """(module, name) of each ``__all__`` entry of ``sources`` (module name
    -> source text) that no module of ``sources`` but ``__init__`` reads
    outside the name's own definition, and that no text of ``readers``
    reads or names by string."""
    trees = {module: ast.parse(text) for module, text in sources.items()
             if module != "__init__"}
    read = set().union(*map(_read_outside_definitions, trees.values()))
    for text in readers:
        tree = ast.parse(text)
        read |= _read_outside_definitions(tree) | _named_by_string(tree)
    return sorted((module, name) for module, tree in trees.items()
                  for name in _exported(tree) - read)


def unread_methods(sources, readers):
    """(module, ``Class.method``) of each public method or property of a
    public module-level class of ``sources`` (module name -> source text)
    that no module of ``sources`` but ``__init__`` reads as an attribute
    outside the method's own definition, and that no text of ``readers``
    reads so or names by string."""
    trees = {module: ast.parse(text) for module, text in sources.items()
             if module != "__init__"}
    read = set().union(*map(_attributes_read_outside_methods,
                            trees.values()))
    for text in readers:
        tree = ast.parse(text)
        read |= _attributes_read_outside_methods(tree) | _named_by_string(tree)
    return sorted(
        (module, f"{node.name}.{part.name}")
        for module, tree in trees.items() for node in tree.body
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_")
        for part in node.body
        if isinstance(part, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not part.name.startswith("_") and part.name not in read)


def _package_sources():
    sources = {path.stem: path.read_text()
               for path in sorted(PACKAGE.glob("*.py"))}
    assert len(sources) > 5
    return sources


def test_every_private_name_has_a_caller():
    assert unreferenced(_package_sources()) == []


def test_every_export_is_defined():
    assert stale_exports(_package_sources()) == []


def test_a_leftover_helper_is_caught():
    # a helper whose only caller was deleted, next to one still called
    # from another module and a table read as an attribute
    sources = {
        "solver": "def _glue_node(pair):\n    return pair\n"
                  "def _merge(pair):\n    return pair\n"
                  "_TABLE = 1\n",
        "cli": "from .solver import _merge\nimport solver\n"
               "x = _merge(solver._TABLE)\n",
    }
    assert unreferenced(sources) == [("solver", "_glue_node")]


def test_a_stale_export_is_caught():
    # an export whose definition was deleted, next to a function, a class,
    # an assigned table and an import, all still bound
    sources = {
        "special": "import math\nfrom .errors import DomainError\n"
                   "__all__ = ['zeros', 'Result', 'TABLE', 'math',\n"
                   "           'DomainError', 'airy_ai']\n"
                   "TABLE = (1.0,)\n"
                   "class Result:\n    pass\n"
                   "def zeros(k):\n    return list(TABLE[:k])\n",
    }
    assert stale_exports(sources) == [("special", "airy_ai")]


def test_every_public_name_has_a_caller():
    readers = [path.read_text() for path in READERS]
    unread = unread_exports(_package_sources(), readers)
    assert {name for _, name in unread} == set(UNREAD_EXPORTS)


def test_every_public_method_has_a_caller():
    readers = [path.read_text() for path in READERS]
    unread = unread_methods(_package_sources(), readers)
    assert {name for _, name in unread} == set(UNREAD_METHODS)


def test_the_modules_all_is_the_one_export_list():
    # __init__ re-exports each module with a star import and lists nothing
    # itself, so the package's public names are the union of the __all__
    init = ast.parse((PACKAGE / "__init__.py").read_text())
    for node in init.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            assert [a.name for a in node.names] == ["*"], ast.unparse(node)
    assert "__all__" not in _module_names(init)
    package = importlib.import_module("diraconf")
    exported = set()
    for path in PACKAGE.glob("*.py"):
        if path.stem != "__init__":
            module = importlib.import_module(f"diraconf.{path.stem}")
            exported.update(getattr(module, "__all__", ()))
    public = {name for name, value in vars(package).items()
              if not name.startswith("_") and not inspect.ismodule(value)}
    assert public == exported


def test_an_unread_public_function_is_caught():
    # a function only its own body and __init__ read, next to one the CLI
    # calls, a result class only its own module's function reads, and a
    # function a benchmark script names in its span table
    sources = {
        "special": "__all__ = ['Result', 'zeros', 'airy_ai', 'rmax']\n"
                   "class Result:\n    pass\n"
                   "def zeros(k):\n    return Result()\n"
                   "def airy_ai(x):\n    return airy_ai(x - 1)\n"
                   "def rmax():\n    return 1\n",
        "cli": "from .special import zeros\nzeros(3)\n",
        "__init__": "from .special import *\nairy_ai(0)\n",
    }
    readers = ["SPANS = [('diraconf.special', 'rmax')]\n"]
    assert unread_exports(sources, readers) == [("special", "airy_ai")]


def test_an_unread_public_method_is_caught():
    # a method only its own body reads, next to one a sibling method reads,
    # a method and a property the CLI reads, a private helper, and the
    # method of a private class
    sources = {
        "special": "class State:\n"
                   "    def f(self, r):\n        return self.f(r - 1)\n"
                   "    def g(self, r):\n        return -self.f(r)\n"
                   "    def dg(self, r):\n        return self.dg(r)\n"
                   "    @property\n"
                   "    def scale(self):\n        return 1.0\n"
                   "    def _cache(self):\n        return None\n"
                   "class _Work:\n"
                   "    def run(self):\n        return 0\n",
        "cli": "from .special import State\n"
               "print(State().scale, State().g(1.0))\n",
    }
    assert unread_methods(sources, []) == [("special", "State.dg")]
