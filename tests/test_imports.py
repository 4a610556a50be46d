"""Every module of the package, its tests and its scripts reads each name it imports."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _unread_imports(path: Path) -> list[str]:
    """'file:line: name' for each imported name that no expression of the module reads."""
    tree = ast.parse(path.read_text(), str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    rel = path.relative_to(ROOT)
    return [f"{rel}:{line}: {name}" for name, line in sorted(imported.items()) if name not in read]


def test_no_unread_imports():
    modules = [p for p in sorted((ROOT / "src" / "whittak").glob("*.py")) if p.name != "__init__.py"]
    modules += sorted((ROOT / "tests").glob("*.py")) + sorted((ROOT / "scripts").glob("*.py"))
    assert len(modules) > 20
    assert [u for p in modules for u in _unread_imports(p)] == []
