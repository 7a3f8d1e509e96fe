"""No module under src/, tests/ or scripts/ imports a name at top level that
it never uses.  Package __init__ modules are skipped: their imports are the
package's re-exports."""

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


def test_no_unused_top_level_imports():
    paths = [
        path
        for top in ("src", "tests", "scripts")
        for path in sorted((ROOT / top).rglob("*.py"))
        if path.name != "__init__.py"
    ]
    assert paths
    found = [
        "%s:%d %s" % (path.relative_to(ROOT), line, name)
        for path in paths
        for line, name in unused_imports(path)
    ]
    assert found == [], "unused imports:\n" + "\n".join(found)
