"""Every module of the package, every script and every test module uses
what it imports, the package uses what it defines, and the commands load
only what they run.

Stdlib-ast checks, so they need no linter: a name bound by an import must
appear as a name somewhere in the module (string annotations included).
The package's __init__.py is skipped, since its imports are re-exports.
A function, method, class or module-level UPPER_CASE constant the package
defines must be read somewhere in the package outside its own definition:
as a name, an attribute or a re-export from __init__.py.

The import graph is checked in a fresh interpreter, since pytest's own
process has scipy loaded already: greedy double selection runs on numpy
alone, so estimate, lpdid, simulate and montecarlo with it must not load
scipy, and a serial run must not load the process pool.
"""

import ast
import csv
import json
import os
import subprocess
import sys
import types
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
import yaml

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


def names_read(tree, reexports: bool = False) -> Counter:
    """How often each name is read, as a Name or an Attribute, in tree; with
    reexports, names imported from a module count as read too."""
    read = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            read[node.id] += 1
        elif isinstance(node, ast.Attribute):
            read[node.attr] += 1
        elif reexports and isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    return read


def unused_definitions(sources: dict[str, str]) -> list[str]:
    """'module.name' for each top-level function or class, each method that
    is not a dunder, and each module-level UPPER_CASE constant, that the
    modules (by name; __init__ re-exports) read nowhere outside its own
    definition."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = sum((names_read(tree, module == "__init__") for module, tree in trees.items()),
               Counter())
    unused = []
    for module, tree in trees.items():
        defs = [(node.name, node) for node in tree.body
                if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
        defs += [(node.name, node) for _, cls in defs if isinstance(cls, ast.ClassDef)
                 for node in cls.body if isinstance(node, ast.FunctionDef)
                 and not node.name.startswith("__")]
        defs += [(target.id, node) for node in tree.body
                 if isinstance(node, (ast.Assign, ast.AnnAssign))
                 for target in (node.targets if isinstance(node, ast.Assign)
                                else [node.target])
                 if isinstance(target, ast.Name) and target.id.isupper()]
        unused += [f"{module}.{name}" for name, node in defs
                   if read[name] <= names_read(node)[name]]
    return unused


def test_the_check_finds_an_unused_definition():
    sources = {
        "__init__": "from .a import shown\n",
        "a": ("def shown(): pass\n"
              "def loop(n): return loop(n - 1)\n"  # reads itself only
              "def called(): pass\n"
              "class C:\n"
              "    def __init__(self): self.kept()\n"
              "    def kept(self): pass\n"
              "    def dropped(self): pass\n"
              "LIMIT = 3\n"
              "SPARE: int = 4\n"
              "lower = 5\n"),  # not UPPER_CASE, so not checked
        "b": "from .a import LIMIT, C, called\nC(); called(LIMIT)\n",
    }
    assert unused_definitions(sources) == ["a.loop", "a.dropped", "a.SPARE"]


def test_the_package_uses_what_it_defines():
    package = ROOT / "src" / "hdlp"
    assert unused_definitions({path.stem: path.read_text()
                               for path in sorted(package.glob("*.py"))}) == []


def test_all_lists_every_reexport_once_sorted():
    import hdlp

    tree = ast.parse((ROOT / "src" / "hdlp" / "__init__.py").read_text())
    reexported = {alias.asname or alias.name for node in tree.body
                  if isinstance(node, ast.ImportFrom) and node.level == 1
                  for alias in node.names}
    assert hdlp.__all__ == sorted(reexported)
    assert not any(isinstance(getattr(hdlp, name), types.ModuleType)
               for name in hdlp.__all__)
    namespace = {}
    exec("from hdlp import *", namespace)
    assert set(namespace) - {"__builtins__"} == reexported


# run in a fresh interpreter: each argument is a command and its config
# path; prints which of the watched modules the commands loaded
CHILD = """
import json, sys
from hdlp.cli import main
for command, config in zip(sys.argv[1::2], sys.argv[2::2]):
    assert main([command, "--config", config]) == 0, command
watched = ("scipy", "scipy.linalg", "concurrent.futures.process")
print(json.dumps([name for name in watched if name in sys.modules]))
"""


def loaded_after(*commands) -> list[str]:
    path = filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    done = subprocess.run([sys.executable, "-c", CHILD, *commands], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


@pytest.fixture
def configs(tmp_path):
    """Config paths of tiny estimate, lpdid, simulate and montecarlo runs,
    by name."""
    rng = np.random.default_rng(0)
    with open(tmp_path / "wide.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["y", "x", "z"])
        writer.writerows(rng.standard_normal((80, 3)).tolist())
    with open(tmp_path / "long.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["unit", "time", "outcome", "treatment"])
        for i in range(8):
            for t in range(10):
                d = int(i < 4 and t >= 5 + i % 2)
                writer.writerow([f"u{i}", t, 0.3 * i + d + rng.normal(), d])
    estimate = {"data": str(tmp_path / "wide.csv"), "response": "y", "shock": "x",
                "lagged": ["y", "x", "z"], "lags": 2, "horizons": [1, 2],
                "selection": {"c_star": "auto"}}
    lpdid = {"data": str(tmp_path / "long.csv"), "horizons": [0, 1],
             "outcome_lags": 1, "method": "double_oga"}
    var = {"kind": "var", "coefficients": [[[0.5, 0], [0.2, 0.3]]],
           "sigma": [[1, 0], [0, 1]]}
    runs = {
        "estimate": dict(estimate, methods=["double_oga"]),
        "conventional": dict(estimate, methods=["conventional_lp"]),
        "hac": dict(lpdid, variance="hac"),
        "cluster": dict(lpdid, variance="cluster"),
        "simulate": {"T": 60, "response": "y2", "innovation": "y1",
                     "horizons": [0, 1], "true_irf_output": str(tmp_path / "t.csv"),
                     "design": var},
        "montecarlo": {"n_reps": 3, "methods": ["double_oga"], "T": 60, "design": var,
                       "estimation": {"response": "y2", "shock": "y1",
                                      "lagged": ["y1", "y2"], "lags": 1,
                                      "horizons": [1, 2]}},
    }
    for name, cfg in runs.items():
        path = tmp_path / f"{name}.yaml"
        path.write_text(yaml.safe_dump(dict(cfg, output=str(tmp_path / name))))
    return {name: str(tmp_path / f"{name}.yaml") for name in runs}


def test_selection_commands_load_neither_scipy_nor_the_pool(configs):
    assert loaded_after("estimate", configs["estimate"], "lpdid", configs["hac"],
                        "lpdid", configs["cluster"], "simulate",
                        configs["simulate"], "montecarlo",
                        configs["montecarlo"]) == []


def test_conventional_lp_loads_scipy_linalg(configs):
    assert loaded_after("estimate", configs["conventional"]) == ["scipy", "scipy.linalg"]
