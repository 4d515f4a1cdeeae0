"""SHA-256 digests of a fixed set of command outputs, for byte-identity checks.

Runs, with one BLAS thread, into a temporary directory:
  - simulate from configs/simulate.yaml;
  - estimate on that dataset with both methods, with fixed and with tuned
    c_star, and once with no controls;
  - montecarlo at 24 replications with both methods, plus the records of a
    12-replication run (the checkpoint format);
  - lpdid on a generated 250-unit panel (perfbench/inputs.py), with both
    methods, both variances, and time effects on and off.
and prints one "sha256 name" line per output file. Run it in two checkouts
and diff what they print: a change that keeps every output bit prints the
same lines.

Usage:
    python scripts/output_digests.py
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy loads its BLAS

import hashlib  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

import yaml  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from hdlp.cli import main  # noqa: E402
from hdlp.config import build_montecarlo_run  # noqa: E402
from hdlp.montecarlo import run_monte_carlo  # noqa: E402
from perfbench.inputs import PANEL_COVARIATES, write_panel  # noqa: E402

PANEL_SEED, PANEL_UNITS = 0, 250


def bundled(name: str, **overrides) -> dict:
    with open(ROOT / "configs" / name) as fh:
        cfg = yaml.safe_load(fh)
    cfg.update(overrides)
    return cfg


def run(tmp: Path, command: str, name: str, cfg: dict):
    """hdlp <command> on cfg, saved as <name>.yaml; a nonzero exit stops."""
    path = tmp / f"{name}.yaml"
    with open(path, "w") as fh:
        yaml.safe_dump(cfg, fh)
    code = main([command, "--config", str(path)])
    if code != 0:
        raise SystemExit(f"{command} {name} exited {code}")


def outputs(tmp: Path):
    data = tmp / "section3.csv"
    run(tmp, "simulate", "simulate", bundled(
        "simulate.yaml", output=str(data),
        true_irf_output=str(tmp / "section3_true_irf.csv")))

    for c_star in (2.0, "auto"):
        tag = "tuned" if c_star == "auto" else "fixed"
        cfg = bundled("estimate.yaml", data=str(data),
                      output=str(tmp / f"estimate_{tag}.csv"))
        cfg["selection"]["c_star"] = c_star
        run(tmp, "estimate", f"estimate_{tag}", cfg)
    run(tmp, "estimate", "estimate_no_controls", bundled(
        "estimate.yaml", data=str(data), output=str(tmp / "estimate_no_controls.csv"),
        contemporaneous=[], lagged=[], lags=0, lag_augment=0))

    mc = bundled("montecarlo.yaml", n_reps=24, checkpoint=False,
                 output=str(tmp / "montecarlo.csv"))
    run(tmp, "montecarlo", "montecarlo", mc)
    mc_run = build_montecarlo_run(dict(mc, n_reps=12))
    records = []
    run_monte_carlo(mc_run.design, mc_run.methods, 12, mc_run.levels, mc_run.seed,
                    records=records)
    (tmp / "montecarlo_records.json").write_text(json.dumps(records))

    panel = tmp / "panel.csv"
    write_panel(panel, PANEL_SEED, PANEL_UNITS)
    covariates = [f"c{j + 1}" for j in range(PANEL_COVARIATES)]
    for method in ("double_oga", "conventional_lp"):
        for variance in ("hac", "cluster"):
            for time_effects in (True, False):
                name = f"lpdid_{method}_{variance}_{'te' if time_effects else 'no_te'}"
                run(tmp, "lpdid", name, bundled(
                    "lpdid.yaml", data=str(panel), output=str(tmp / f"{name}.csv"),
                    method=method, variance=variance, time_effects=time_effects,
                    extra_controls=covariates))
    return sorted(p for p in tmp.iterdir() if p.suffix != ".yaml")


def main_digests() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        for path in outputs(Path(tmp)):
            print(hashlib.sha256(path.read_bytes()).hexdigest(), path.name)
    return 0


if __name__ == "__main__":
    raise SystemExit(main_digests())
