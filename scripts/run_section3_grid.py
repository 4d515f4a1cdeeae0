"""Full simulation grid over the ten-variable designs.

Runs 1000 replications at horizons 1-60 for every (persistence, sparsity)
combination with both estimation methods, writing one report per cell plus
a combined long-format table. This is the long-running recipe. With
OPENBLAS_NUM_THREADS=1 on a shared 2-vCPU machine (Python 3.11, numpy 2.4,
scipy 1.17) the whole grid took 202 s on one worker (42-55 s per design)
and 108 s with --threads 2 (25-28 s per design); both wrote the same bytes.

conventional_lp cannot fit horizons 58-60 at T=300: its 220 columns leave
no residual degrees of freedom at horizon 58 (InsufficientSample) and no
shock variation at 59 and 60 (DegenerateShock). Those cells report
n_ok = 0; they are the 3,000 failed cells per design (5% of the cells of
conventional_lp).
The desk-scale variant (500 replications, horizons 1-20, sparse rho=0.5
only) lives in configs/montecarlo.yaml and runs in under a minute.

Usage:
    python scripts/run_section3_grid.py [--out-dir out/grid] [--reps 1000]
                                        [--threads N] [--seed 20240501]
"""

import argparse
import csv
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from hdlp.cli import fmt, write_csv_atomic  # noqa: E402
from hdlp.dgp import Section3Design  # noqa: E402
from hdlp.hac import HacConfig  # noqa: E402
from hdlp.lp import CONVENTIONAL_LP, DOUBLE_OGA  # noqa: E402
from hdlp.montecarlo import (  # noqa: E402
    REPORT_COLUMNS,
    run_monte_carlo,
    section3_mc_design,
)
from hdlp.selection import OgaConfig  # noqa: E402

GRID = [
    ("sparse", 0.5), ("sparse", 0.95), ("dense", 0.5), ("dense", 0.95),
]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out-dir", default="out/grid")
    parser.add_argument("--reps", type=int, default=1000)
    parser.add_argument("--threads", type=int, default=1)
    parser.add_argument("--seed", type=int, default=20240501)
    parser.add_argument("--horizon-max", type=int, default=60)
    args = parser.parse_args()

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    horizons = range(1, args.horizon_max + 1)

    combined = []
    for variant, rho in GRID:
        designer = (
            Section3Design.sparse if variant == "sparse" else Section3Design.dense
        )
        design = section3_mc_design(
            designer(rho),
            horizons=horizons,
            oga=OgaConfig(c_star=2.0),
            hac=HacConfig(),
        )
        label = f"{variant}_rho{str(rho).replace('.', '')}"
        print(f"== {label}: {args.reps} replications, horizons 1-"
              f"{args.horizon_max}", file=sys.stderr)
        t0 = time.perf_counter()
        report = run_monte_carlo(
            design,
            methods=(DOUBLE_OGA, CONVENTIONAL_LP),
            n_reps=args.reps,
            levels=(0.95,),
            seed=args.seed,
            parallelism=args.threads,
            progress=lambda done, total: (
                print(f"  {label}: {done}/{total}", file=sys.stderr)
                if done % 50 == 0 or done == total else None
            ),
        )
        elapsed = time.perf_counter() - t0
        print(f"  {label}: done in {elapsed:.0f}s, {report.failures} cell "
              f"failures", file=sys.stderr)
        rows = report.rows()
        write_csv_atomic(out_dir / f"{label}.csv", REPORT_COLUMNS, rows)
        combined += [(variant, rho, *row) for row in rows]

    write_csv_atomic(
        out_dir / "combined.csv",
        ["variant", "rho", *REPORT_COLUMNS],
        combined,
    )
    print(f"wrote {out_dir}/combined.csv", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
