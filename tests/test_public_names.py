"""The package ships only what runs: every public top-level name in
src/charsum, and every public method of a package class, has a caller in the
package, the benchmark or the scripts.  A top-level name counts as used when
something names, imports or reads it as an attribute; a method only when
something reads it as an attribute, so a local variable of the same name is
no use of it.  References from the tests do not count; test-only helpers
live in the tests (ringref.py holds the dense reference algebra and the
character algebra)."""

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
    """How often each name occurs inside node, keyed (name, is_attribute):
    True for an attribute, False for a loaded name or an import."""
    names: Counter = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            names[sub.id, False] += 1
        elif isinstance(sub, ast.Attribute):
            names[sub.attr, True] += 1
        elif isinstance(sub, ast.ImportFrom):
            names.update((alias.name, False) for alias in sub.names)
    return names


def _uses(refs: Counter, name: str, method: bool) -> int:
    """References to name in refs that count: attributes only for a method."""
    return refs[name, True] + (0 if method else refs[name, False])


def public_definitions() -> list[tuple[str, str, ast.AST, bool]]:
    """(qualified name, name, defining node, is_method) for each public
    top-level definition of the package (module.name) and each public method
    of a package class (module.Class.method)."""
    defs = []
    for path in _scanned_files():
        if path.parent != PACKAGE:
            continue
        for stmt in ast.parse(path.read_text(encoding="utf-8"), filename=str(path)).body:
            public = [n for n in _defined(stmt) if not n.startswith("_")]
            defs += [(f"{path.stem}.{n}", n, stmt, False) for n in public]
            defs += [
                (f"{path.stem}.{stmt.name}.{f.name}", f.name, f, True)
                for f in _public_methods(stmt)
            ]
    return defs


def unreferenced_public_names() -> list[str]:
    """The qualified name of each public definition that nothing in the
    scanned files outside the definition itself uses: by name, attribute or
    import for a top-level name, by attribute for a method."""
    total: Counter = Counter()
    for path in _scanned_files():
        total += _referenced(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
    return [
        qual
        for qual, name, node, method in public_definitions()
        if _uses(total, name, method) == _uses(_referenced(node), name, method)
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
    quals = {qual for qual, _, _, _ in public_definitions()}
    assert {"evaluator.closed_form", "evaluator.ClosedForm.value", "sweep.CheckReport.ok"} <= quals
    # a local variable named like a method is no use of the method
    refs = _referenced(ast.parse("value = f()\nprint(value, ok)\nx.ok()"))
    assert _uses(refs, "value", method=True) == 0 and _uses(refs, "value", method=False) == 1
    assert _uses(refs, "ok", method=True) == 1 and _uses(refs, "ok", method=False) == 2
