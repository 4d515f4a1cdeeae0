"""SHA-256 digests of a fixed set of command outputs, for byte-identity checks,
and a cell-by-cell comparison of two kept sets of them.

Runs, with one BLAS thread, into a temporary directory (or DIR with --keep):
  - simulate from configs/simulate.yaml;
  - estimate on that dataset with both methods, with fixed and with tuned
    c_star, and once with no controls;
  - estimate with conventional_lp on that dataset plus a control that is
    nonzero on the last five rows of the horizon-1 sample only, so the
    design loses rank from horizon 6 on and is factored afresh there, and
    again with y3 and that control as the only controls and no lags, a
    tall design whose prefixes lose rank in the same way;
  - montecarlo at 24 replications with both methods, once at the bundled
    level and once at levels 0.5, 0.9, 0.95 and 0.99, plus the records of a
    12-replication run (the checkpoint's records line) and the checkpoint
    file that save_checkpoint writes for them;
  - lpdid on a generated 250-unit panel (perfbench/inputs.py), with both
    methods, both variances, and time effects on and off;
  - tuning.json: the tuned c_star and chosen set of every column of a few
    hundred seeded random selection problems (tunings).
and prints one "sha256 name" line per output file. Run it in two checkouts
and diff what they print: a change that keeps every output bit prints the
same lines.

A change that moves the last bits of some outputs is checked with --keep in
both checkouts and --compare on the two directories: per output, the
largest relative difference over its float cells and every other cell
(integers, text) that differs. It exits 1 when a float cell differs by more
than --rtol or another cell differs at all.

Usage:
    python scripts/output_digests.py [--keep DIR]
    python scripts/output_digests.py --compare DIR_A DIR_B [--rtol 1e-11]
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy loads its BLAS

import argparse  # noqa: E402
import csv  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import yaml  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from hdlp.cli import _config_fingerprint, main, save_checkpoint  # noqa: E402
from hdlp.config import build_montecarlo_run  # noqa: E402
from hdlp.montecarlo import run_monte_carlo  # noqa: E402
from hdlp.selection import OgaConfig, oga_hdaic_select  # noqa: E402
from perfbench.inputs import PANEL_COVARIATES, write_panel  # noqa: E402

PANEL_SEED, PANEL_UNITS = 0, 250
SPIKE_ROWS = 5  # the rank-losing control is nonzero on this many rows
TUNING_SEED, TUNINGS = 0, 300


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


def with_spike(data: Path, out: Path):
    """data plus a column "spike", zero but for 1, 2, .., SPIKE_ROWS on the
    rows before the last: the rows that only the shortest horizons reach."""
    with open(data, newline="") as fh:
        rows = list(csv.reader(fh))
    last = len(rows) - 2  # the index of the last data row
    for i, row in enumerate(rows[1:]):
        row.append(repr(float(max(0, i - (last - 1 - SPIKE_ROWS)) if i < last else 0)))
    rows[0].append("spike")
    with open(out, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


def tunings(path: Path, count: int = TUNINGS, seed: int = TUNING_SEED):
    """Write to path, as JSON, the tuned c_star and chosen set (or the error
    name) of every column of count seeded random problems: 12-80 rows and
    2-8 candidate columns, white noise or persistent random walks, with and
    without intercept, one to four columns of y, each on its own leading
    rows, 2-7 c_star candidates and a held-out share of 0.1-0.3. A third of
    the problems add a duplicated column, and a third a column nearly
    spanned by another (its part outside it about 1e-6 of its norm) that y
    loads on, so a training path picks it: the smallest pivot tuning meets.
    """
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        n, p, k = (int(rng.integers(lo, hi)) for lo, hi in ((12, 81), (2, 9), (1, 5)))
        intercept = bool(rng.random() < 0.5)
        W = rng.standard_normal((n, p)) + intercept * rng.uniform(-1, 1, p)
        if rng.random() < 0.3:
            W = np.cumsum(W, axis=0) / np.sqrt(n)
        Y = W @ (rng.standard_normal((p, k)) * (rng.random((p, 1)) < 0.6))
        Y += rng.standard_normal((n, k))
        extra, j = rng.integers(3), int(rng.integers(p))
        if extra == 1:
            W = np.column_stack([W, W[:, j]])
        elif extra == 2:
            a, e = W[:, j], rng.standard_normal(n)
            e -= a * (a @ e) / (a @ a)
            e *= np.linalg.norm(a) / np.linalg.norm(e)
            W = np.column_stack([W, a + 1e-6 * e])
            Y += np.outer(e, rng.uniform(0.5, 2.0, k)) / np.sqrt(n)
        rows = rng.integers(max(3, n // 2), n + 1, size=k)
        candidates = tuple(sorted({round(float(c), 2) for c in
                                   rng.uniform(0.1, 12.0, int(rng.integers(2, 8)))}))
        config = OgaConfig(c_star=candidates,
                           eval_fraction=float(rng.choice([0.1, 0.2, 0.3])))
        out.append([
            type(path).__name__ if isinstance(path, Exception)
            else [path.c_star_used, list(path.chosen_set)]
            for path in oga_hdaic_select(W, Y, config, intercept, rows)[0]
        ])
    path.write_text(json.dumps(out))


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
    spiked = tmp / "section3_spike.csv"
    with_spike(data, spiked)
    cfg = bundled("estimate.yaml", data=str(spiked), methods=["conventional_lp"],
                  output=str(tmp / "estimate_rank_loss.csv"))
    cfg["contemporaneous"] = cfg["contemporaneous"] + ["spike"]
    run(tmp, "estimate", "estimate_rank_loss", cfg)
    run(tmp, "estimate", "estimate_rank_loss_tall", dict(
        cfg, output=str(tmp / "estimate_rank_loss_tall.csv"),
        contemporaneous=["y3", "spike"], lagged=[], lags=0, lag_augment=0))

    mc = bundled("montecarlo.yaml", n_reps=24, checkpoint=False,
                 output=str(tmp / "montecarlo.csv"))
    run(tmp, "montecarlo", "montecarlo", mc)
    run(tmp, "montecarlo", "montecarlo_levels", dict(
        mc, levels=[0.5, 0.9, 0.95, 0.99], output=str(tmp / "montecarlo_levels.csv")))
    mc_run = build_montecarlo_run(dict(mc, n_reps=12))
    records = []
    run_monte_carlo(mc_run.design, mc_run.methods, 12, mc_run.levels, mc_run.seed,
                    records=records)
    (tmp / "montecarlo_records.json").write_text(json.dumps(records))
    save_checkpoint(tmp / "montecarlo_checkpoint.ckpt", _config_fingerprint(mc_run),
                    records)

    tunings(tmp / "tuning.json")

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


def cells(path: Path) -> list:
    """(where, value) for every cell of an output: a CSV's cells under their
    line and column names, or the leaves of a JSON document, or of the two
    of a checkpoint, under their keys. A checkpoint's digest is left out: it
    follows from the records, which are compared cell by cell."""
    if path.suffix in (".json", ".ckpt"):
        leaves = []

        def walk(node, key):
            items = node.items() if isinstance(node, dict) else (
                enumerate(node) if isinstance(node, list) else None)
            if items is None:
                leaves.append((key, node))
            for k, child in items or ():
                walk(child, f"{key}[{k!r}]")

        docs = [json.loads(line) for line in path.read_text().splitlines()]
        if path.suffix == ".ckpt":
            del docs[0]["digest"]
        walk(docs, "")
        return leaves
    with open(path, newline="") as fh:
        header, *rows = csv.reader(fh)
    return [(f"line {i} {name}", text) for i, row in enumerate(rows, start=2)
            for name, text in zip(header, row)]


def as_float(value):
    """value as a float when it is a non-integer number (a float or its
    text), else None: integers, such as counts and ranks, compare exactly."""
    if isinstance(value, float):
        return value
    if not isinstance(value, str):
        return None
    try:
        int(value)
        return None
    except ValueError:
        pass
    try:
        return float(value)
    except ValueError:
        return None


def compare(a_dir: Path, b_dir: Path, rtol: float) -> int:
    """Print, per output of the two kept directories, the largest relative
    float difference and the other cells that differ; 1 if any exceeds."""
    bad = False
    names = sorted({p.name for d in (a_dir, b_dir) for p in d.iterdir()
                    if p.suffix != ".yaml"})
    for name in names:
        a, b = a_dir / name, b_dir / name
        if not (a.exists() and b.exists()):
            print(f"{name}: only in {a_dir if a.exists() else b_dir}")
            bad = True
            continue
        ca, cb = cells(a), cells(b)
        other = [] if len(ca) == len(cb) else [f"{len(ca)} cells against {len(cb)}"]
        worst = 0.0
        for (where, x), (_, y) in zip(ca, cb):
            fx, fy = as_float(x), as_float(y)
            if fx is None or fy is None:
                if x != y:
                    other.append(f"{where}: {x!r} against {y!r}")
            elif fx != fy and not (math.isnan(fx) and math.isnan(fy)):
                rel = abs(fx - fy) / max(abs(fx), abs(fy))
                worst = max(worst, math.inf if math.isnan(rel) else rel)
        print(f"{name}: largest relative float difference {worst:.3g}"
              + (f", {len(other)} other cells differ" if other else ""))
        for line in other[:20]:
            print(f"  {line}")
        bad = bad or worst > rtol or bool(other)
    return int(bad)


def main_digests(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--keep", type=Path, metavar="DIR",
                        help="write the outputs into DIR and keep them")
    parser.add_argument("--compare", type=Path, nargs=2, metavar=("DIR_A", "DIR_B"),
                        help="compare two kept output directories instead of running")
    parser.add_argument("--rtol", type=float, default=1e-11,
                        help="relative tolerance on float cells for --compare")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare, args.rtol)
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        if args.keep:
            out = args.keep
            out.mkdir(parents=True, exist_ok=True)
        for path in outputs(out):
            print(hashlib.sha256(path.read_bytes()).hexdigest(), path.name)
    return 0


if __name__ == "__main__":
    raise SystemExit(main_digests())
