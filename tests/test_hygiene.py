"""Source hygiene of `src/filterlab/`: no orphans, no unused imports, no dataclasses.

A module-level function, class or name bound by assignment, and a function
defined in any class body, must be spelled somewhere besides its
definition: in `src/`, `tests/`, `benchmarks/` or `README.md` (dunder names
aside).  A module other than the package root, and every test file, must
name every module-level import it makes.  No module imports `dataclasses`:
node classes come from `domains.node`, and importing `dataclasses` costs
every CLI run.
"""

import ast
import re
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
# paths relative to the repo root, as the messages print them
MODULES = sorted(p.relative_to(ROOT) for p in (ROOT / "src" / "filterlab").glob("*.py"))
TESTS = sorted(p.relative_to(ROOT) for p in (ROOT / "tests").glob("*.py"))


def _words() -> Counter:
    """How often each word is spelled in the corpus."""
    corpus = "\n".join(
        p.read_text(errors="replace")
        for root in ("src", "tests", "benchmarks")
        for p in (ROOT / root).rglob("*")
        if p.is_file() and "__pycache__" not in p.parts
    ) + (ROOT / "README.md").read_text()
    return Counter(re.findall(r"\w+", corpus))


def _tree(path: Path) -> ast.Module:
    return ast.parse((ROOT / path).read_text())


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def orphans(path: Path, words: Counter) -> list[str]:
    tree = _tree(path)
    methods = [
        item
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        for item in cls.body
        if isinstance(item, FUNCTIONS)
    ]
    bad = []
    for node in [*tree.body, *methods]:
        if isinstance(node, (*FUNCTIONS, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [
                n.id
                for t in targets
                for n in (t.elts if isinstance(t, (ast.Tuple, ast.List)) else [t])
                if isinstance(n, ast.Name)
            ]
        else:
            names = []
        for name in names:
            if not (name.startswith("__") and name.endswith("__")) and words[name] < 2:
                bad.append(f"{path}:{node.lineno}: {name} is defined but used nowhere")
    return bad


def dataclass_imports(path: Path) -> list[str]:
    bad = []
    for node in ast.walk(_tree(path)):
        names = [a.name for a in node.names] if isinstance(node, ast.Import) else []
        if isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        if any(n.split(".")[0] == "dataclasses" for n in names):
            bad.append(f"{path}:{node.lineno}: dataclasses imported; use domains.node")
    return bad


def unused_imports(path: Path) -> list[str]:
    if path.name == "__init__.py":
        return []
    tree = _tree(path)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    bad = []
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", "") != "__future__":
            for a in node.names:
                name = (a.asname or a.name).split(".")[0]
                if name not in used:
                    bad.append(f"{path}:{node.lineno}: {name} imported but unused")
    return bad


def test_the_modules_are_found():
    assert "rank.py" in {p.name for p in MODULES}


def test_every_module_level_name_is_used():
    words = _words()
    assert [line for p in MODULES for line in orphans(p, words)] == []


@pytest.mark.parametrize("check", [unused_imports, dataclass_imports])
def test_imports_are_used_and_dataclasses_is_not(check):
    assert [line for p in MODULES for line in check(p)] == []


def test_test_files_use_their_imports():
    assert len(TESTS) > 1
    assert [line for p in TESTS for line in unused_imports(p)] == []
