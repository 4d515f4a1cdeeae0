"""Self-tests of the benchmark (not part of the package's test suite).

    python3 perfbench/selftest.py

Checks that
1. the same seed gives byte-identical inputs and another seed different ones;
2. a beta perturbed by +1e-6 (injected by a wrapper) is counted as failed;
3. traced and untraced runs write byte-identical output tables;
4. the metric names run.py prints match BENCHMARK.json, traced and untraced;
5. run.py exits nonzero, printing no result, in a directory that holds only
   BENCHMARK.json and the benchmark's files.
Takes a few minutes; run it on an otherwise idle machine.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer, hdlp_modules, rebind, restore  # noqa: E402
from worker import import_hdlp  # noqa: E402

FAILURES = []


def expect(condition: bool, what: str):
    print(("ok   " if condition else "FAIL ") + what, flush=True)
    if not condition:
        FAILURES.append(what)


def inputs_are_seeded(tmp: Path):
    def files(seed, tag):
        d = tmp / f"inputs_{tag}"
        d.mkdir()
        inputs.write_wide_series(d / "series.csv", seed, 0)
        inputs.write_panel(d / "panel.csv", seed, inputs.PANEL_UNITS)
        return [workloads.digest(d / n) for n in ("series.csv", "panel.csv")]

    first, again, other = files(1, "a"), files(1, "b"), files(2, "c")
    expect(first == again, "same seed gives byte-identical inputs")
    expect(all(x != y for x, y in zip(first, other)), "another seed gives other inputs")


def perturbed_beta_fails(tmp: Path):
    import hdlp.lp

    w = workloads.make("estimate_tuned", workloads.DEFAULT_SEED, tmp)
    w.prepare()
    w.setup()
    w.warm_up()
    clean = w.check(w.step(0))
    expect(clean.failed == 0 and w.reference is not None,
           "unperturbed estimate passes its reference check")

    original = hdlp.lp.double_oga_lp

    def perturbed(*args, **kwargs):
        est = original(*args, **kwargs)
        return dataclasses.replace(est, beta=est.beta + 1e-6)

    undo = []
    rebind(hdlp_modules(), original, perturbed, undo)
    try:
        w.first_digest.clear()  # judge the perturbed table by the reference
        verdict = w.check(w.step(0))
    finally:
        restore(undo)
    expect(verdict.failed == verdict.attempted == len(workloads.ESTIMATE_HORIZONS),
           f"beta + 1e-6 fails every horizon ({verdict.failed}/{verdict.attempted})")


def tracing_keeps_outputs(tmp: Path):
    est = workloads.make("estimate_tuned", 3, tmp)
    panel = workloads.Lpdid(3, tmp, n_units=inputs.PANEL_UNITS_SMALL)
    tables = []
    for w in (est, panel):
        w.prepare()
        w.setup()
    for traced in (False, True):
        tracer = Tracer()
        if traced:
            tracer.install()
        try:
            est.step(0)
            panel.step(0)
        finally:
            tracer.uninstall()
        tables.append([workloads.digest(p) for p in
                       [est.outputs[0], *panel.outputs.values()]])
        if traced:
            expect(tracer.calls["selection.oga_order"] > 0, "the tracer saw calls")
    expect(tables[0] == tables[1], "traced and untraced runs write identical tables")


def printed_names_match():
    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    wanted = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            proc = subprocess.run(
                [*bench["command"], "--workload", workload, "--seed", "5",
                 "--seconds", "1", "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=600,
            )
            ok = proc.returncode == 0
            if ok:
                result = json.loads(proc.stdout.strip().splitlines()[-1])
                printed = {k: v["unit"] for k, v in result["metrics"].items()}
                ok = printed == wanted[trace] and result["correct"]
            expect(ok, f"{workload} --trace {trace} prints the BENCHMARK.json metrics")


def fails_without_source(tmp: Path):
    bare = tmp / "bare"
    bare.mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / HERE.name,
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    with open(ROOT / "BENCHMARK.json") as fh:
        command = json.load(fh)["command"]
    proc = subprocess.run(
        [*command, "--workload", "mc_serial", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    expect(proc.returncode != 0 and '"metrics"' not in proc.stdout,
           "exits nonzero without a source tree")


def main() -> int:
    import_hdlp()
    (HERE / ".work").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=HERE / ".work") as tmp:
        tmp = Path(tmp)
        for i, test in enumerate((inputs_are_seeded, perturbed_beta_fails,
                                  tracing_keeps_outputs, fails_without_source)):
            d = tmp / str(i)
            d.mkdir()
            test(d)
    printed_names_match()
    print(f"{len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    raise SystemExit(main())
