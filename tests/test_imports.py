"""Every module of the package, every script and every test module uses
what it imports, and the commands load only what they run.

A stdlib-ast check, so it needs no linter: a name bound by an import must
appear as a name somewhere in the module (string annotations included).
The package's __init__.py is skipped, since its imports are re-exports.

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
