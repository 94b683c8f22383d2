"""Layout rules of the package source: no private name without a caller."""
import ast
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "diraconf"


def _defined(tree):
    """The module-level private names a module defines: functions,
    classes and assigned names."""
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
    return {name for name in names
            if name.startswith("_") and not name.startswith("__")}


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


def test_every_private_name_has_a_caller():
    sources = {path.stem: path.read_text()
               for path in sorted(PACKAGE.glob("*.py"))}
    assert len(sources) > 5
    assert unreferenced(sources) == []


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
