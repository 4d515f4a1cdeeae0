"""Command-line entry points: estimate, simulate, montecarlo, lpdid.

Every command takes --config pointing at a YAML file; --seed, --threads and
--out override the corresponding config scalars. Output tables are CSV with
floats at 17 significant digits, written to a temporary file and renamed,
so an aborted run never leaves a partial table. Exit codes: 0 success,
2 configuration problem (any malformed config value, named by its dotted
key), 3 input-data problem, 4 computation problem. An exception outside
those, which is a bug, also exits 4 but is labelled "internal error" and
printed with its traceback.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import json
import os
import sys
import tempfile
import traceback
from pathlib import Path

import numpy as np

from . import __version__
from .config import (
    EstimateRun,
    LpdidRun,
    MontecarloRun,
    SimulateRun,
    build_estimate_run,
    build_lpdid_run,
    build_montecarlo_run,
    build_simulate_run,
    load_yaml,
)
from .dgp import simulate_dfm, simulate_var, true_dfm_irf, true_reduced_form_irf
from .errors import ConfigError, DataError, HdlpError
from .lp import TimeSeriesMatrix, estimate_irf
from .lpdid import PanelDataset, lpdid_estimate
from .montecarlo import REPORT_COLUMNS, run_monte_carlo

CHECKPOINT_VERSION = 5  # 5: records of the batched partialling-out tail
CHECKPOINT_EVERY = 50


def fmt(value) -> str:
    """17-significant-digit float formatting; everything else via str."""
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _write_atomic(path: Path, write):
    """Call write(fh) on a temp file next to path, then rename it into place."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            write(fh)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_csv_atomic(path: Path, header, rows):
    """Write the full table to a temp file, then rename into place."""

    def write(fh):
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([fmt(v) for v in row])

    _write_atomic(path, write)


def _report_failures(out_path: Path, lines: list[str]) -> int:
    """Log one line per failed horizon next to the (unwritten) table; exit 4."""
    log_path = out_path.with_suffix(out_path.suffix + ".log")
    log_path.write_text("".join(f"{line}\n" for line in lines))
    print(
        f"estimation failed for {len(lines)} horizon(s); detail in {log_path}",
        file=sys.stderr,
    )
    return 4


def read_wide_csv(path: Path) -> TimeSeriesMatrix:
    """Header row of series names, numeric body, no missing cells."""
    path = Path(path)
    if not path.exists():
        raise DataError(f"data file not found: {path}")
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path} is empty") from None
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise DataError(f"{path}:{lineno}: expected {len(header)} cells")
            try:
                rows.append([float(v) for v in row])
            except ValueError:
                raise DataError(f"{path}:{lineno}: non-numeric cell") from None
    if not rows:
        raise DataError(f"{path} has no data rows")
    try:
        return TimeSeriesMatrix(values=np.asarray(rows), columns=tuple(header))
    except HdlpError as exc:
        raise DataError(f"{path}: {exc}") from exc


def read_long_csv(path: Path, run: LpdidRun) -> PanelDataset:
    """Long panel: unit, integer time, outcome, 0/1 treatment, covariates."""
    path = Path(path)
    if not path.exists():
        raise DataError(f"data file not found: {path}")
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path} is empty") from None
        needed = [run.unit_col, run.time_col, run.outcome_col, run.treatment_col]
        needed += list(run.spec.extra_controls)
        col = {}
        for name in needed:
            if name not in header:
                raise DataError(f"{path}: missing column {name!r}")
            col[name] = header.index(name)

        unit, time, outcome, treatment = [], [], [], []
        covs: dict[str, list] = {c: [] for c in run.spec.extra_controls}
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise DataError(f"{path}:{lineno}: expected {len(header)} cells")
            try:
                unit.append(row[col[run.unit_col]])
                time.append(int(row[col[run.time_col]]))
                val = row[col[run.outcome_col]]
                outcome.append(float(val) if val != "" else np.nan)
                treatment.append(float(row[col[run.treatment_col]]))
                for c in run.spec.extra_controls:
                    v = row[col[c]]
                    covs[c].append(float(v) if v != "" else np.nan)
            except ValueError:
                raise DataError(f"{path}:{lineno}: malformed cell") from None
    if not unit:
        raise DataError(f"{path} has no data rows")
    try:
        return PanelDataset(
            unit=np.array(unit, dtype=object),
            time=np.array(time),
            outcome=np.array(outcome),
            treatment=np.array(treatment),
            covariates={k: np.array(v) for k, v in covs.items()},
        )
    except HdlpError as exc:
        raise DataError(f"{path}: {exc}") from exc


def _estimate_table(estimates, levels, tail_header, tail):
    """Header and rows of an estimate table: horizon, method, beta, se and
    the interval at each level, then tail(est) under tail_header."""
    header = ["horizon", "method", "beta", "se"]
    for level in levels:
        tag = format(level, "g")
        header += [f"ci_low_{tag}", f"ci_high_{tag}"]
    rows = [[est.horizon, est.method, est.beta, est.se]
            + [bound for level in levels for bound in est.cis[level]] + tail(est)
            for est in estimates]
    return header + tail_header, rows


def cmd_estimate(run: EstimateRun) -> int:
    data = read_wide_csv(run.data_path)
    estimates, failed = [], []
    for method in run.methods:
        result = estimate_irf(
            data, run.lp_spec, run.oga, run.hac, run.levels, method=method
        )
        failed += [
            f"{method} horizon {h}: {msg}" for h, msg in sorted(result.errors.items())
        ]
        estimates += result.estimates
    if failed:
        return _report_failures(run.out_path, failed)
    header, rows = _estimate_table(
        estimates, run.levels,
        ["n_selected_y", "n_selected_x", "n_union", "bandwidth", "c_star_y",
         "c_star_x", "effective_T"],
        lambda est: [
            len(est.selected_y), len(est.selected_x), len(est.union), est.bandwidth,
            "" if est.c_star_y is None else est.c_star_y,
            "" if est.c_star_x is None else est.c_star_x, est.effective_T,
        ],
    )
    write_csv_atomic(run.out_path, header, rows)
    return 0


def cmd_simulate(run: SimulateRun) -> int:
    if run.kind == "dfm":
        data, irf = simulate_dfm(run.spec, seed=run.seed), true_dfm_irf
    else:
        data, irf = simulate_var(run.spec, run.T, seed=run.seed), true_reduced_form_irf
    truth = irf(run.spec, run.response, run.innovation, run.horizons)
    write_csv_atomic(
        run.sidecar_path,
        ["horizon", "true_irf"],
        [(h, float(v)) for h, v in zip(run.horizons, truth)],
    )
    write_csv_atomic(run.out_path, list(data.columns), data.values.tolist())
    return 0


def _checkpoint_path(out_path: Path) -> Path:
    return out_path.with_suffix(out_path.suffix + ".ckpt")


# fields that do not change the report, so a checkpoint survives edits to them
_NOT_FINGERPRINTED = ("out_path", "parallelism", "checkpoint")
# the BLAS thread count moves a record's last bits, so a checkpoint keeps the
# process's settings of these variables and resumes only under the same ones
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _fingerprint_value(value):
    """JSON-ready copy of value: dataclasses by field, arrays as nested lists,
    floats at 17 significant digits."""
    if dataclasses.is_dataclass(value):
        return {
            f.name: _fingerprint_value(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    if isinstance(value, (np.ndarray, np.generic)):
        value = value.tolist()
    if isinstance(value, (list, tuple)):
        return [_fingerprint_value(v) for v in value]
    if isinstance(value, float):
        return format(value, ".17g")
    if value is None or isinstance(value, (bool, int, str)):
        return value
    raise TypeError(f"cannot fingerprint a {type(value).__name__}")


def _config_fingerprint(run: MontecarloRun) -> str:
    """Identity of a run for checkpoint compatibility: every field of the run
    that can change the report."""
    payload = {
        f.name: _fingerprint_value(getattr(run, f.name))
        for f in dataclasses.fields(run) if f.name not in _NOT_FINGERPRINTED
    }
    blob = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def _blas_threads() -> dict:
    return {var: os.environ.get(var) for var in _BLAS_THREAD_VARS}


def save_checkpoint(path: Path, fingerprint: str, records: list):
    blob = {"version": CHECKPOINT_VERSION, "fingerprint": fingerprint,
            "blas_threads": _blas_threads(), "records": records}
    _write_atomic(path, lambda fh: json.dump(blob, fh))


def load_checkpoint(path: Path, fingerprint: str) -> list | None:
    path = Path(path)
    if not path.exists():
        return None
    try:
        with open(path) as fh:
            blob = json.load(fh)
    except (OSError, json.JSONDecodeError):
        return None
    if blob.get("version") != CHECKPOINT_VERSION:
        return None
    if blob.get("fingerprint") != fingerprint:
        return None
    if blob.get("blas_threads") != _blas_threads():
        return None
    return blob.get("records")


def cmd_montecarlo(run: MontecarloRun) -> int:
    fingerprint = _config_fingerprint(run)
    ckpt_path = _checkpoint_path(run.out_path)
    resume = load_checkpoint(ckpt_path, fingerprint) if run.checkpoint else None
    if resume:
        print(
            f"montecarlo: resuming from checkpoint with {len(resume)} "
            f"replications", file=sys.stderr,
        )

    writer = None
    if run.checkpoint:
        writer = lambda records: save_checkpoint(ckpt_path, fingerprint, records)

    def progress(done, total):
        step = max(1, total // 20)
        if done % step == 0 or done == total:
            print(f"montecarlo: {done}/{total} replications", file=sys.stderr)

    report = run_monte_carlo(
        run.design,
        methods=run.methods,
        n_reps=run.n_reps,
        levels=run.levels,
        seed=run.seed,
        parallelism=run.parallelism,
        checkpoint_every=CHECKPOINT_EVERY if run.checkpoint else 0,
        checkpoint_writer=writer,
        resume_records=resume,
        progress=progress,
    )
    if report.failure_fraction > 0.10:
        print(
            f"montecarlo: {report.failures} estimation failures "
            f"({report.failure_fraction:.1%} of cells) exceed the 10% limit",
            file=sys.stderr,
        )
        return 4
    write_csv_atomic(run.out_path, REPORT_COLUMNS, report.rows())
    if run.checkpoint and ckpt_path.exists():
        ckpt_path.unlink()
    return 0


def cmd_lpdid(run: LpdidRun) -> int:
    panel = read_long_csv(run.data_path, run)
    result = lpdid_estimate(panel, run.spec, run.oga, run.hac)
    if result.errors:
        return _report_failures(
            run.out_path,
            [f"horizon {h}: {msg}" for h, msg in sorted(result.errors.items())],
        )
    header, rows = _estimate_table(
        result.estimates, run.spec.levels,
        ["n_treated", "n_clean", "n_controls", "n_selected", "bandwidth",
         "variance", "effective_T"],
        lambda est: [
            est.n_treated, est.n_clean, len(est.control_names), len(est.selected),
            "" if est.bandwidth is None else est.bandwidth,
            est.variance, est.effective_T,
        ],
    )
    write_csv_atomic(run.out_path, header, rows)
    return 0


BUILDERS = {
    "estimate": (build_estimate_run, cmd_estimate),
    "simulate": (build_simulate_run, cmd_simulate),
    "montecarlo": (build_montecarlo_run, cmd_montecarlo),
    "lpdid": (build_lpdid_run, cmd_lpdid),
}


def _apply_overrides(cfg: dict, args) -> dict:
    cfg = dict(cfg)
    if args.seed is not None:
        cfg["seed"] = args.seed
    if args.out is not None:
        cfg["output"] = args.out
    if args.threads is not None:
        if args.command != "montecarlo":
            raise ConfigError("--threads applies to montecarlo only")
        cfg["parallelism"] = args.threads
    return cfg


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hdlp",
        description=(
            "Impulse-response and event-study estimation with greedy "
            "high-dimensional control selection"
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("estimate", "per-horizon shock coefficients from a wide CSV"),
        ("simulate", "draw a synthetic dataset plus its true response path"),
        ("montecarlo", "coverage and width experiment over many replications"),
        ("lpdid", "panel event-study estimates from a long CSV"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="YAML run configuration")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
        p.add_argument("--threads", type=int, default=None,
                       help="override montecarlo parallelism")
        p.add_argument("--out", default=None, help="override the output path")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    builder, command = BUILDERS[args.command]
    try:
        cfg = _apply_overrides(load_yaml(args.config), args)
        run = builder(cfg)
        return command(run)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except (HdlpError, np.linalg.LinAlgError, OSError) as exc:
        print(f"computation error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4
    except Exception as exc:  # noqa: BLE001 - a bug: same exit code, full trace
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        traceback.print_exc()
        return 4


if __name__ == "__main__":
    raise SystemExit(main())
