"""No module under src/, tests/ or scripts/ imports a name at top level that
it never uses, no function there assigns a local that it never reads, and
no private top-level function or class of the package goes unnamed.
Package __init__ modules are skipped by the import check: their imports are
the package's re-exports."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def unused_imports(path):
    """(line, name) of each top-level import of path that no name in the
    module reads."""
    tree = ast.parse(path.read_text(), str(path))
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


# Scopes whose assignments bind local names: a name read inside one resolves
# to the innermost of them that binds it.  A class body is walked as part of
# the scope around it.
SCOPES = (
    ast.FunctionDef,
    ast.AsyncFunctionDef,
    ast.Lambda,
    ast.ListComp,
    ast.SetComp,
    ast.DictComp,
    ast.GeneratorExp,
)


def own_nodes(scope):
    """The nodes of scope down to, but not into, the scopes nested in it."""
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, SCOPES):
            stack.extend(ast.iter_child_nodes(node))


def unread_locals(path):
    """(line, function, name) of each local a function of path assigns that
    no code reads.  A read in a nested scope counts when no scope between
    binds the name.  Names starting with an underscore are left out."""
    found = []

    def visit(scope, chain):
        stored, free = {}, set()
        for node in own_nodes(scope):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                stored.setdefault(node.id, node.lineno)
            elif isinstance(node, ast.arg):
                stored.setdefault(node.arg, None)
            elif isinstance(node, (ast.Global, ast.Nonlocal)):
                free.update(node.names)
        bound, read = set(stored) - free, set()
        chain = chain + [(bound, read)]
        for node in own_nodes(scope):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                for names, reads in reversed(chain):
                    if node.id in names:
                        reads.add(node.id)
                        break
            elif isinstance(node, SCOPES):
                visit(node, chain)
        if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found.extend(
                (line, scope.name, name)
                for name, line in stored.items()
                if line is not None and name in bound - read and not name.startswith("_")
            )

    visit(ast.parse(path.read_text(), str(path)), [])
    return sorted(found)


def python_files():
    paths = [
        path for top in ("src", "tests", "scripts") for path in sorted((ROOT / top).rglob("*.py"))
    ]
    assert paths
    return paths


def test_no_unused_top_level_imports():
    paths = [path for path in python_files() if path.name != "__init__.py"]
    found = [
        "%s:%d %s" % (path.relative_to(ROOT), line, name)
        for path in paths
        for line, name in unused_imports(path)
    ]
    assert found == [], "unused imports:\n" + "\n".join(found)


def test_no_function_assigns_a_local_it_never_reads():
    found = [
        "%s:%d %s() %s" % (path.relative_to(ROOT), line, func, name)
        for path in python_files()
        for line, func, name in unread_locals(path)
    ]
    assert found == [], "locals assigned and never read:\n" + "\n".join(found)


def named(path):
    """Every name path's code reads, imports, looks up as an attribute or
    spells as a string (for setattr and friends); definitions do not count."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.add(node.value)
    return out


def test_no_private_top_level_definition_goes_unnamed():
    # a helper whose last caller went is dead code; private names are not
    # part of the package's interface, so nothing outside the repo calls them
    paths = python_files()
    names = set().union(*(named(path) for path in paths))
    found = [
        "%s:%d %s" % (path.relative_to(ROOT), node.lineno, node.name)
        for path in sorted((ROOT / "src" / "quandlekit").rglob("*.py"))
        for node in ast.parse(path.read_text(), str(path)).body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and node.name not in names
    ]
    assert found == [], "private definitions nothing names:\n" + "\n".join(found)
