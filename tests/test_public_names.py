"""The package ships only what runs: every public top-level name in
src/charsum, and every public method of a package class, has a caller in the
package, the benchmark or the scripts.  References from the tests do not
count; test-only helpers live in the tests (ringref.py holds the dense
reference algebra)."""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "charsum"


def _scanned_files() -> list[Path]:
    bench = ROOT / "bench"
    files = [*(ROOT / "src").rglob("*.py"), *(ROOT / "scripts").rglob("*.py")]
    files += [p for p in bench.rglob("*.py") if bench / "tests" not in p.parents]
    return sorted(files)


def _defined(stmt: ast.stmt) -> list[str]:
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, ast.Assign):
        return [t.id for t in stmt.targets if isinstance(t, ast.Name)]
    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
        return [stmt.target.id]
    return []


def _public_methods(stmt: ast.stmt) -> list[ast.stmt]:
    if not isinstance(stmt, ast.ClassDef):
        return []
    return [
        f for f in stmt.body
        if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef)) and not f.name.startswith("_")
    ]


def _referenced(node: ast.AST) -> Counter:
    """How often each name occurs inside node as a name, attribute or import."""
    names: Counter = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            names[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            names[sub.attr] += 1
        elif isinstance(sub, ast.ImportFrom):
            names.update(alias.name for alias in sub.names)
    return names


def public_definitions() -> list[tuple[str, str, ast.AST]]:
    """(qualified name, name, defining node) for each public top-level
    definition of the package (module.name) and each public method of a
    package class (module.Class.method)."""
    defs = []
    for path in _scanned_files():
        if path.parent != PACKAGE:
            continue
        for stmt in ast.parse(path.read_text(encoding="utf-8"), filename=str(path)).body:
            public = [n for n in _defined(stmt) if not n.startswith("_")]
            defs += [(f"{path.stem}.{n}", n, stmt) for n in public]
            defs += [
                (f"{path.stem}.{stmt.name}.{f.name}", f.name, f) for f in _public_methods(stmt)
            ]
    return defs


def unreferenced_public_names() -> list[str]:
    """The qualified name of each public definition that nothing in the
    scanned files outside the definition itself refers to by name, attribute
    or import."""
    total: Counter = Counter()
    for path in _scanned_files():
        total += _referenced(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
    return [
        qual for qual, name, node in public_definitions() if total[name] == _referenced(node)[name]
    ]


def test_every_public_name_has_a_caller_outside_the_tests():
    offenders = unreferenced_public_names()
    assert not offenders, f"public names used only by tests, or by nothing: {offenders}"


def test_scan_sees_the_package_and_its_callers():
    # guards the guard: a scan that found no files would pass vacuously
    files = _scanned_files()
    assert PACKAGE / "evaluator.py" in files
    assert ROOT / "bench" / "make_reference.py" in files
    assert ROOT / "scripts" / "oracle_digest.py" in files
    assert not any("tests" in p.relative_to(ROOT).parts for p in files)
    quals = {qual for qual, _, _ in public_definitions()}
    assert {"evaluator.closed_form", "evaluator.ClosedForm.value", "sweep.CheckReport.ok"} <= quals
