"""Layout rules of the package source: no private name without a caller,
no exported name without a definition."""
import ast
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "diraconf"


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
