"""scripts/mutants.py applies each mutant by exact text replacement, so every
mutant's old text must still occur exactly once in its file."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_each_mutant_old_text_occurs_exactly_once():
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "scripts" / "mutants.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    names = [mu.name for mu in script.MUTANTS]
    assert len(set(names)) == len(names)
    for mu in script.MUTANTS:
        text = (ROOT / mu.path).read_text(encoding="utf-8")
        assert text.count(mu.old) == 1, mu.name
        assert mu.new != mu.old and mu.reason, mu.name
