"""hdlp benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source tree (the package is imported from ./src; no
build step). Workloads: mc_serial, estimate_tuned, lpdid_panel (see
BENCHMARK.json for why each exists).

Every workload runs in a child process with OPENBLAS_NUM_THREADS and
OMP_NUM_THREADS set to 1 before numpy loads. With --trace 0 the last stdout
line holds the end-to-end metrics: ops_per_s, op_s_p50 and op_s_tail from
the child's timed loop, setup_s as the median of several fresh set-up
processes, all four in seconds calibrated to the host's speed that the
timed loop measured (see hostspeed.py), and peak_rss_mb as the peak summed
resident memory of the child and its pool workers (from their VmHWM).
With --trace 1 it holds the
per-layer metrics (see metrics.py); on mc_serial the traced run also
repeats one pool step in the caller's own BLAS environment. The line before
the last is a JSON provenance record (versions, thread environment, sample
counts, uncalibrated times).

Exit status is 0 only when every output checked correct.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from metrics import END_TO_END, per_layer_definitions  # noqa: E402

WORKLOADS = ("mc_serial", "estimate_tuned", "lpdid_panel")
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
SETUP_REPEATS = 7
BLAS_PROBE_REPEATS = 3
BLAS_PROBE_BUDGET = 1.0  # probe time budget, in multiples of --seconds
CHILD_TIMEOUT_S = 40.0  # plus 4 x --seconds
RSS_POLL_S = 0.1


def child_env(pinned: bool) -> dict:
    env = dict(os.environ)
    if pinned:
        env.update(PINNED)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def start(args, pinned=True):
    return subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *map(str, args)],
        cwd=ROOT, env=child_env(pinned), stdout=subprocess.PIPE,
        start_new_session=True, text=True,
    )


def stop(proc):
    """Kill the child's whole process group (pool workers too) and reap it."""
    if proc.poll() is None:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    proc.wait()
    deadline = time.monotonic() + 10.0
    while _group_alive(proc.pid) and time.monotonic() < deadline:
        time.sleep(0.05)


def _group_alive(pgid: int) -> bool:
    return any(pgrp == pgid for _, _, pgrp in _proc_table())


def _proc_table():
    """(pid, ppid, pgrp) of every visible process."""
    rows = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                stat = fh.read()
        except OSError:
            continue
        fields = stat[stat.rfind(")") + 2:].split()  # state, ppid, pgrp, ...
        rows.append((int(entry), int(fields[1]), int(fields[2])))
    return rows


def _peak_rss(pid: int) -> int:
    """VmHWM (the process's own resident-memory peak) in bytes, 0 if gone."""
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) * 1024
    except OSError:
        pass
    return 0


class RssSampler(threading.Thread):
    """Peak over time of the summed resident-memory peaks (VmHWM) of a
    process and its live descendants; a pool worker's peak is caught by
    the last sample before it exits."""

    def __init__(self, pid: int):
        super().__init__(daemon=True)
        self.pid = pid
        self.peak = 0
        self.done = threading.Event()

    def run(self):
        while not self.done.is_set():
            table = _proc_table()
            tree = {self.pid}
            grew = True
            while grew:
                grew = False
                for pid, ppid, _ in table:
                    if ppid in tree and pid not in tree:
                        tree.add(pid)
                        grew = True
            self.peak = max(self.peak, sum(_peak_rss(p) for p in tree))
            self.done.wait(RSS_POLL_S)


def run_child(args, timeout: float, pinned=True, sample_rss=False):
    """Run a worker; return (last stdout line parsed as JSON, peak RSS bytes)."""
    proc = start(args, pinned)
    sampler = RssSampler(proc.pid) if sample_rss else None
    if sampler:
        sampler.start()
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        stop(proc)
        raise
    finally:
        if sampler:
            sampler.done.set()
            sampler.join()
        stop(proc)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {args[0]} exited {proc.returncode}")
    lines = out.strip().splitlines()
    return json.loads(lines[-1]) if lines else None, (sampler.peak if sampler else 0)


def setup_seconds(workload: str, seed: int, workdir: Path) -> list[float]:
    """Wall time from starting a fresh process to its "ready" line."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = start(["setup", workload, seed, workdir])
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.communicate(timeout=60)
        finally:
            stop(proc)
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up process failed ({proc.returncode})")
        times.append(elapsed)
    return times


def blas_probe(seed: int, budget: float) -> dict:
    """Monte Carlo pool steps in the caller's BLAS environment, within a
    time budget.

    A repeat starts only while the budget left exceeds the longest repeat so
    far, so a repeat cut at the budget (censored) ran longer than every
    completed one and its elapsed time is a lower bound that never lowers
    the minimum.
    """
    walls, censored = [], 0
    deadline = time.monotonic() + budget
    for _ in range(BLAS_PROBE_REPEATS):
        left = deadline - time.monotonic()
        if left < max([5.0, *walls]):
            break
        t0 = time.perf_counter()
        try:
            result, _ = run_child(["blas-probe", seed], timeout=left, pinned=False)
            walls.append(result["wall"])
        except subprocess.TimeoutExpired:
            walls.append(time.perf_counter() - t0)
            censored += 1
    return {"walls": walls, "censored": censored}


def provenance() -> dict:
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return {
        "commit": commit,
        "source_sha256": h.hexdigest(),
        "caller_blas_env": {k: os.environ.get(k) for k in
                            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "hdlp" / "__init__.py").is_file():
        print(f"no hdlp source tree under {ROOT}/src", file=sys.stderr)
        return 2

    work_parent = HERE / ".work"
    work_parent.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=work_parent))
    try:
        timeout = CHILD_TIMEOUT_S + 4 * args.seconds
        run_child(["prepare", args.workload, args.seed, args.trace, workdir], timeout=timeout)
        result, peak = run_child(
            ["run", args.workload, args.seed, args.seconds, args.trace, workdir],
            timeout=timeout, sample_rss=not args.trace,
        )
        values = result["metrics"]
        detail = result["detail"]
        if args.trace:
            if args.workload == "mc_serial":
                probe = blas_probe(args.seed, BLAS_PROBE_BUDGET * args.seconds)
                detail["blas_probe"] = probe
                if probe["walls"]:
                    key = "montecarlo.pool.blas_inherited_s"
                    values[key] = statistics.median(probe["walls"])
                    values[f"{key}.min"] = min(probe["walls"])
                    values[f"{key}.max"] = max(probe["walls"])
            names = [(n, u) for n, u, _ in per_layer_definitions()]
        else:
            # set-up runs right after the timed loop: calibrate it with the
            # loop's host-speed factor
            setups = setup_seconds(args.workload, args.seed, workdir)
            values["setup_s"] = statistics.median(setups) * detail["host_factor"]
            detail["setup_samples"] = setups
            values["peak_rss_mb"] = peak / 1e6
            names = [(n, u) for n, u, _, _ in END_TO_END]
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, KeyError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    detail.update(provenance(), workload=args.workload, trace=args.trace)
    print(json.dumps({"provenance": detail}, sort_keys=True))
    correct = result["failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {n: {"value": values.get(n, 0.0), "unit": u} for n, u in names},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
