"""Workload process, started by run.py with one BLAS thread.

    worker.py prepare <workload> <seed> <trace 0|1> <workdir>
    worker.py run <workload> <seed> <seconds> <trace 0|1> <workdir>
    worker.py setup <workload> <seed> <workdir>
    worker.py blas-probe <seed>

``prepare`` writes the workload's inputs into <workdir>, in a process of its
own so that input generation does not count in the workload's memory.
``run`` sets up, warms up, then repeats steps until the timed part reaches
<seconds>, checking every step. Untraced, it times the host-speed kernel
between steps (hostspeed.py) and reports calibrated times. With trace 1 it
runs the same loop untraced, then traced, and reports per-layer values. It
prints one JSON object as its last stdout line.

``setup`` imports hdlp and builds the run objects, then prints "ready";
run.py times it from process start. ``blas-probe`` runs one
Monte Carlo pool step (parallelism 2) in whatever BLAS environment it
inherits and prints its wall time.
"""

from __future__ import annotations

import json
import math
import os
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Highest percentile with at least ten ops beyond it at the benchmark's run
# length; lpdid_panel runs only a few long ops, so its tail is the maximum.
TAIL_PERCENTILE = {
    "mc_serial": 75,
    "estimate_tuned": 80,
    "lpdid_panel": 100,
}
GROWTH_OPS = 3
POOL_STEPS = 2  # pool batches of the traced mc_serial run


def import_hdlp():
    sys.path.insert(0, str(ROOT / "src"))
    import hdlp

    src = (ROOT / "src").resolve()
    if src not in Path(hdlp.__file__).resolve().parents:
        raise SystemExit(f"hdlp imported from {hdlp.__file__}, not from {src}")
    return hdlp


def percentile(values, p: float) -> float:
    """Nearest-rank percentile."""
    s = sorted(values)
    return s[max(0, math.ceil(p / 100.0 * len(s)) - 1)]


class Phase:
    """Timed steps of one loop and the verdicts of their checks."""

    def __init__(self):
        self.ops = 0
        self.busy = 0.0
        self.latencies = []
        self.first_results = []
        self.attempted = 0
        self.failed = 0
        self.notes = []

    def add(self, step, verdict):
        self.ops += step.ops
        self.busy += step.wall
        self.latencies += step.latencies
        if step.first_result_s is not None:
            self.first_results.append(step.first_result_s)
        self.attempted += verdict.attempted
        self.failed += verdict.failed
        self.notes += verdict.notes


def measure(workload, seconds: float, calibrator=None) -> Phase:
    """Steps until the timed part reaches seconds, in whole rounds of the
    workload's distinct inputs, so per-op counts repeat exactly per seed.
    A calibrator gets its kernel samples between steps, outside the timing."""
    phase = Phase()
    i = 0
    while phase.busy < seconds or i % workload.round != 0:
        step = workload.step(i)
        phase.add(step, workload.check(step))
        i += 1
        if calibrator is not None:
            calibrator.keep_up(phase.busy)
    return phase


def versions() -> dict:
    import numpy
    import scipy
    import yaml

    def blas(mod):
        try:
            info = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
            return f"{info.get('name')} {info.get('version')}"
        except (AttributeError, KeyError, TypeError):  # older show_config
            return "unknown"

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "pyyaml": yaml.__version__,
        "numpy_blas": blas(numpy),
        "scipy_blas": blas(scipy),
    }


def run(name: str, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    import workloads
    from hostspeed import Calibrator
    from metrics import layer_values
    from tracing import Tracer

    hdlp = import_hdlp()
    w = workloads.make(name, seed, workdir)
    w.setup()
    warm = w.warm_up()
    checks = Phase()
    if warm is not None:
        checks.add(warm, w.check(warm))

    calibrator = None if trace else Calibrator()
    base = measure(w, seconds, calibrator)
    detail = {
        "hdlp": hdlp.__version__,
        "versions": versions(),
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "seed": seed,
        "reference_checked": w.reference is not None,
    }
    phases = [checks, base]
    if not trace:
        p = TAIL_PERCENTILE[name]
        measured = {
            "ops_per_s": base.ops / base.busy,
            "op_s_p50": statistics.median(base.latencies),
            "op_s_tail": percentile(base.latencies, p),
        }
        f = calibrator.factor()
        metrics = {
            "ops_per_s": measured["ops_per_s"] / f,
            "op_s_p50": measured["op_s_p50"] * f,
            "op_s_tail": measured["op_s_tail"] * f,
        }
        detail.update(
            ops=base.ops, timed_s=base.busy, latency_samples=len(base.latencies),
            tail_percentile=p, uncalibrated=measured, host_factor=f,
            kernel_samples=len(calibrator.samples), calibration_s=calibrator.spent,
        )
    else:
        tracer = Tracer()
        tracer.install()
        try:
            traced = measure(w, seconds)
        finally:
            tracer.uninstall()
        phases.append(traced)
        metrics = layer_values(tracer, traced.ops)
        detail["span_total_s_per_op"] = {
            k: v / traced.ops for k, v in sorted(tracer.total_s.items())
        }
        metrics["trace.overhead_frac"] = (
            (traced.busy / traced.ops) / (base.busy / base.ops) - 1.0
        )
        if traced.first_results:
            metrics["montecarlo.run_monte_carlo.first_result_s"] = statistics.median(
                traced.first_results
            )
        if name == "mc_serial":
            pool = Phase()
            for _ in range(POOL_STEPS):
                step = w.run_batch(workloads.MC_BATCH, 2)
                pool.add(step, w.check(step))  # must equal the serial report
            phases.append(pool)
            metrics["montecarlo.pool.efficiency"] = (pool.ops / pool.busy) / (
                2.0 * base.ops / base.busy
            )
        if name == "lpdid_panel":
            small, phase = growth_probe(seed, workdir)
            phases.append(phase)
            for key in small:
                metrics[f"{key}.growth"] = metrics[key] / small[key] if small[key] else 0.0
        detail.update(
            untraced_ops=base.ops, untraced_s=base.busy,
            traced_ops=traced.ops, traced_s=traced.busy,
        )

    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    detail["failed_frac"] = failed / attempted if attempted else 0.0
    detail["check_notes"] = [n for p in phases for n in p.notes][:20]
    return {"attempted": attempted, "failed": failed, "metrics": metrics, "detail": detail}


def growth_probe(seed: int, workdir: Path):
    """lpdid layer self times per op on the 250-unit (6k-row) panel."""
    import inputs
    import workloads
    from metrics import GROWTH, layer_values
    from tracing import Tracer

    w = workloads.Lpdid(seed, workdir, n_units=inputs.PANEL_UNITS_SMALL)
    w.setup()
    phase = Phase()
    tracer = Tracer()
    tracer.install()
    try:
        for i in range(GROWTH_OPS):
            step = w.step(i)
            phase.add(step, w.check(step))
    finally:
        tracer.uninstall()
    values = layer_values(tracer, phase.ops)
    return {key: values[key] for key in GROWTH}, phase


BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def main(argv) -> int:
    mode = argv[0]
    if mode == "prepare":
        import inputs
        import workloads

        name, seed, trace, workdir = argv[1], int(argv[2]), argv[3] == "1", Path(argv[4])
        workloads.make(name, seed, workdir).prepare()
        if name == "lpdid_panel" and trace:
            workloads.Lpdid(seed, workdir, n_units=inputs.PANEL_UNITS_SMALL).prepare()
        print("{}", flush=True)
        return 0
    if mode == "run":
        name, seed, seconds, trace, workdir = argv[1:6]
        result = run(name, int(seed), float(seconds), trace == "1", Path(workdir))
        print(json.dumps(result), flush=True)
        return 0
    if mode == "setup":
        import workloads

        name, seed, workdir = argv[1:4]
        import_hdlp()
        w = workloads.make(name, int(seed), Path(workdir))
        w.setup()
        print("ready", flush=True)
        return 0
    if mode == "blas-probe":
        import workloads

        import_hdlp()
        w = workloads.MonteCarlo(int(argv[1]), ROOT, 2)
        w.setup()
        step = w.step(0)
        print(json.dumps({"wall": step.wall}), flush=True)
        return 0
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
