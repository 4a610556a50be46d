"""Every module of the package, its tests and its scripts reads each name it imports, every
package name the benchmark traces or expects a call of still exists, and importing the package
loads only what its cold start needs."""

import ast
import importlib
import subprocess
import sys
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


def _benchmark_names() -> list[str]:
    """Dotted names under whittak that perfbench needs, read from its source without importing it:
    each workload's `expect_calls`, and the tracer's `METHODS` and `ELIM` (`UNTRACED` may name stale
    functions, which are only left unwrapped)."""
    names = []
    for node in ast.walk(ast.parse((ROOT / "perfbench" / "workloads.py").read_text())):
        if isinstance(node, ast.keyword) and node.arg == "expect_calls":
            names += ast.literal_eval(node.value)
    for node in ast.parse((ROOT / "perfbench" / "tracing.py").read_text()).body:
        target = node.targets[0].id if isinstance(node, ast.Assign) else None
        if target == "METHODS":
            names += [f"{ast.unparse(t.elts[0])}.{ast.literal_eval(t.elts[1])}" for t in node.value.elts]
        elif target == "ELIM":
            names += ast.literal_eval(node.value)
    return names


def _resolves(name: str) -> bool:
    module, *attrs = name.split(".")
    obj = importlib.import_module(f"whittak.{module}")
    for attr in attrs:
        obj = getattr(obj, attr, None)
    return callable(obj)


def test_benchmark_names_resolve():
    names = _benchmark_names()
    assert {"fockrep.build_fock", "fockrep.FockModule.apply_lift", "exactlin.EchelonSpan.add"} <= set(names)
    assert [n for n in names if not _resolves(n)] == []


def test_import_loads_neither_dataclasses_nor_inspect():
    """A fresh interpreter that imports the package and its CLI module, as every CLI process does,
    loads neither module (nor, through `inspect`, `ast`, `dis` and `tokenize`)."""
    code = "import sys; sys.path.insert(0, sys.argv[1]); import whittak.cli; print(sorted(sys.modules))"
    proc = subprocess.run([sys.executable, "-c", code, str(ROOT / "src")], capture_output=True, text=True, check=True)
    loaded = set(ast.literal_eval(proc.stdout))
    assert {"whittak", "whittak.cli", "whittak.wfinite"} <= loaded
    assert loaded & {"dataclasses", "inspect"} == set()
