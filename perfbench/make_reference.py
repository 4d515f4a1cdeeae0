"""Write the stored reference outputs for the default seed.

    python3 perfbench/make_reference.py

Run with one BLAS thread, only on a commit whose outputs are the accepted
ones: the workloads' checks compare every later commit against these files.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from pathlib import Path

os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from worker import import_hdlp  # noqa: E402


def main() -> int:
    import_hdlp()
    seed = workloads.DEFAULT_SEED
    workloads.REFERENCE_DIR.mkdir(exist_ok=True)
    (HERE / ".work").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=HERE / ".work") as tmp:
        workdir = Path(tmp)
        mc = workloads.make("mc_serial", seed, workdir)
        mc.setup()
        cells, failures = mc.run_batch(workloads.MC_BATCH, 1).payload
        blobs = {"mc": {"batch": workloads.MC_BATCH, "failures": failures,
                        "cells": [[*k, *v] for k, v in sorted(cells.items())]}}
        for name in ("estimate_tuned", "lpdid_panel"):
            w = workloads.make(name, seed, workdir)
            w.prepare()
            w.setup()
            blobs[name] = w.reference_outputs()
    for name, blob in blobs.items():
        path = workloads.REFERENCE_DIR / f"{name}.json"
        path.write_text(json.dumps({"seed": seed, **blob}, indent=1, sort_keys=True) + "\n")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
