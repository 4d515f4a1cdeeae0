"""Every module of the package, every script and every test module uses
what it imports.

A stdlib-ast check, so it needs no linter: a name bound by an import must
appear as a name somewhere in the module (string annotations included).
The package's __init__.py is skipped, since its imports are re-exports.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted(
    path for directory in (ROOT / "src" / "hdlp", ROOT / "scripts", ROOT / "tests")
    for path in directory.glob("*.py") if path.name != "__init__.py"
)


def unused_imports(source: str) -> list[str]:
    """'name (line n)' for each imported name the module never reads."""
    tree = ast.parse(source)
    bound = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign, ast.FunctionDef,
                               ast.AsyncFunctionDef)):
            note = node.returns if hasattr(node, "returns") else node.annotation
            if isinstance(note, ast.Constant) and isinstance(note.value, str):
                used |= {n.id for n in ast.walk(ast.parse(note.value, mode="eval"))
                         if isinstance(n, ast.Name)}
    return [f"{name} (line {line})" for name, line in sorted(bound.items())
            if name not in used]


def test_the_check_finds_an_unused_import():
    source = 'import os\nimport sys\nfrom json import dumps as d\ndef f() -> "Path": sys.exit()\n'
    assert unused_imports(source) == ["d (line 3)", "os (line 1)"]
    assert unused_imports("from pathlib import Path\ndef f(p: 'Path'): pass\n") == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
