"""The package ships only what runs: every public top-level name in
src/charsum has a caller in the package, the benchmark or the scripts.
References from the tests do not count; test-only helpers live in the tests
(ringref.py holds the dense reference algebra)."""

import ast
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


def _referenced(stmt: ast.stmt) -> set[str]:
    names: set[str] = set()
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def unreferenced_public_names() -> list[str]:
    """module.name for each public top-level definition of the package that
    no other top-level statement of the scanned files refers to by name,
    attribute or import."""
    refs = []  # (file, statement index, names it refers to)
    defs = []  # (file, statement index, module.name)
    for path in _scanned_files():
        body = ast.parse(path.read_text(encoding="utf-8"), filename=str(path)).body
        for i, stmt in enumerate(body):
            refs.append((path, i, _referenced(stmt)))
            if path.parent == PACKAGE:
                public = [n for n in _defined(stmt) if not n.startswith("_")]
                defs += [(path, i, f"{path.stem}.{n}") for n in public]
    return [
        qual
        for path, i, qual in defs
        if not any(
            qual.split(".")[1] in names for p, j, names in refs if (p, j) != (path, i)
        )
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
