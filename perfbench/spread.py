"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload <name> [--seeds 0-9] [--seconds <s>]

Runs run.py untraced once per seed, one run at a time, and prints for each
metric the median, the quartiles and the spread (quartile distance over the
median, as statistics.quantiles(values, n=4) gives them), for the
calibrated metric and for the uncalibrated time the provenance line holds.
--seconds defaults to run_seconds from BENCHMARK.json. Ends with one JSON
line of the same figures.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += list(range(int(lo), int(hi or lo) + 1))
    return out


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def main() -> int:
    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    args = parser.parse_args()

    runs = []
    for seed in seeds(args.seeds):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [*bench["command"], "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(args.seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True,
        )
        wall = time.perf_counter() - t0
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}", file=sys.stderr)
            return 1
        detail = json.loads(lines[-2])["provenance"]
        result = json.loads(lines[-1])
        values = {k: v["value"] for k, v in result["metrics"].items()}
        raw = dict(detail["uncalibrated"])
        raw["setup_s"] = statistics.median(detail["setup_samples"])
        runs.append((values, raw))
        print(f"seed {seed}: {wall:.1f} s, " + ", ".join(
            f"{k} {v:.4g} ({raw[k]:.4g})" if k in raw else f"{k} {v:.4g}"
            for k, v in values.items()), flush=True)

    report = {}
    for name in runs[0][0]:
        report[name] = summary([v[name] for v, _ in runs])
        if name in runs[0][1]:
            report[name + ".uncalibrated"] = summary([r[name] for _, r in runs])
    for name, s in report.items():
        print(f"{name:28s} median {s['median']:.4g}  spread {s['spread']:.3f}")
    print(json.dumps({"workload": args.workload, "seconds": args.seconds,
                      "seeds": args.seeds, "metrics": report}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
