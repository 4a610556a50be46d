"""Every module of the package, its tests and its scripts reads each name it imports, every
package name the benchmark traces or expects a call of still exists, every function and class of
the package is reached from outside the tests, importing the package loads only what its cold
start needs, `serialize.dumps` is the one JSON writer and `cli.main` the one writer of CLI output."""

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


def test_import_loads_no_dataclasses_inspect_or_fractions():
    """A fresh interpreter that imports the package and its CLI module, as every CLI process does,
    loads none of `dataclasses`, `inspect` (nor, through it, `ast`, `dis` and `tokenize`),
    `fractions`, `decimal` and `numbers`."""
    code = "import sys; sys.path.insert(0, sys.argv[1]); import whittak.cli; print(sorted(sys.modules))"
    proc = subprocess.run([sys.executable, "-c", code, str(ROOT / "src")], capture_output=True, text=True, check=True)
    loaded = set(ast.literal_eval(proc.stdout))
    assert {"whittak", "whittak.cli", "whittak.wfinite"} <= loaded
    assert loaded & {"dataclasses", "inspect", "fractions", "decimal", "numbers"} == set()


def _read_names(node: ast.AST) -> set[str]:
    """The plain and attribute names that the code under `node` reads or binds."""
    names = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            names.add(n.id)
        elif isinstance(n, ast.Attribute):
            names.add(n.attr)
    return names


def _unreached_src_names(root: Path) -> list[str]:
    """Module-level functions and classes of the package under `root` that nothing but the tests
    reaches. The roots are the scripts, perfbench, the package's `__init__` exports and every
    module's top-level statements other than imports and definitions; a definition is reached when
    a root or the body of a reached definition names it. Names are matched by text, so a name
    defined in two modules counts as one."""
    defs: dict[str, set[str]] = {}  # name -> the names its body reads
    roots: set[str] = set()
    for path in sorted((root / "src" / "whittak").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs.setdefault(node.name, set()).update(_read_names(node) - {node.name})
            elif isinstance(node, ast.ImportFrom):
                if path.name == "__init__.py":
                    roots |= {alias.name for alias in node.names}
            else:
                roots |= _read_names(node)
    for path in sorted((root / "scripts").glob("*.py")) + sorted((root / "perfbench").glob("*.py")):
        roots |= _read_names(ast.parse(path.read_text()))
    reached: set[str] = set()
    frontier = roots & defs.keys()
    while frontier:
        reached |= frontier
        frontier = set().union(*(defs[n] for n in frontier)) & defs.keys() - reached
    return sorted(defs.keys() - reached)


def test_src_names_are_reached():
    """No module-level function or class of the package is reached only from the tests: test-only
    code lives under tests/ (`modules.py`, `reference_engines.py`, `oracles.py`)."""
    assert _unreached_src_names(ROOT) == []


def _json_writer_uses(path: Path) -> list[tuple[str, str, str]]:
    """(file, enclosing top-level function, name) for each json writer the module reaches: an
    attribute `json.dump`, `json.dumps` or `json.JSONEncoder`, or any name imported from json."""
    uses = []
    for top in ast.parse(path.read_text()).body:
        where = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else "<module>"
        for n in ast.walk(top):
            if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name) and n.value.id == "json":
                if n.attr in {"dump", "dumps", "JSONEncoder"}:
                    uses.append((path.name, where, n.attr))
            elif isinstance(n, ast.ImportFrom) and (n.module or "").split(".")[0] == "json":
                uses += [(path.name, where, alias.name) for alias in n.names]
    return uses


def test_serialize_dumps_is_the_one_json_writer():
    """No module of the package writes JSON but through `serialize.dumps`, whose C encoders
    `serialize._encoder` makes: every file and report keeps one writer and one text."""
    uses = [u for p in sorted((ROOT / "src" / "whittak").glob("*.py")) for u in _json_writer_uses(p)]
    assert uses == [("serialize.py", "_encoder", "JSONEncoder")]


def _writes(path: Path) -> list[tuple[str, str]]:
    """(enclosing top-level function, what) for each write to a file or stdout that the module
    makes: an `open` call with a mode other than reading, a reach of `sys.stdout`, or a `print`
    with no `file` argument."""
    writes = []
    for top in ast.parse(path.read_text()).body:
        where = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else "<module>"
        for n in ast.walk(top):
            if isinstance(n, ast.Attribute) and ast.unparse(n) == "sys.stdout":
                writes.append((where, "sys.stdout"))
            elif isinstance(n, ast.Call) and isinstance(n.func, ast.Name):
                mode = n.args[1:2] + [k.value for k in n.keywords if k.arg == "mode"]
                if n.func.id == "open" and mode and ast.unparse(mode[0]) not in ("'r'", "'rb'"):
                    writes.append((where, "open"))
                elif n.func.id == "print" and all(k.arg != "file" for k in n.keywords):
                    writes.append((where, "print"))
    return writes


def test_cli_main_is_the_one_writer():
    """No function of `cli` but `main` opens a file for writing or writes to stdout: every command
    returns its text and exit code, and `main` writes them once, to --out or stdout."""
    assert sorted(_writes(ROOT / "src" / "whittak" / "cli.py")) == [("main", "open"), ("main", "sys.stdout")]


def _covector_fstrings(path: Path) -> list[str]:
    """'file:line' for each f-string field that reads a `.covector` attribute other than as the
    argument of `covector_text`, the one writer of a covector in witnesses and errors."""
    out = []
    for n in ast.walk(ast.parse(path.read_text())):
        if not isinstance(n, ast.FormattedValue):
            continue
        v = n.value
        if isinstance(v, ast.Call) and isinstance(v.func, ast.Name) and v.func.id == "covector_text":
            continue
        if any(isinstance(a, ast.Attribute) and a.attr == "covector" for a in ast.walk(v)):
            out.append(f"{path.name}:{n.lineno}")
    return out


def test_covectors_are_written_by_one_helper():
    """Every witness and error line writes a covector in the scalar grammar of the files,
    `(1, 0, -1)`, through `superalg.covector_text`, not as a tuple of `Scalar` reprs."""
    assert [u for p in sorted((ROOT / "src" / "whittak").glob("*.py")) for u in _covector_fstrings(p)] == []
