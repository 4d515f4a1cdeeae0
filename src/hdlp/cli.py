"""Command-line entry points: estimate, simulate, montecarlo, lpdid.

Every command takes --config pointing at a YAML file; --out overrides the
output path, --seed the seed of simulate and montecarlo, and --threads the
worker count of montecarlo. Output tables are CSV with floats at 17
significant digits, written to a temporary file and renamed, so an aborted
run never leaves a partial table. Exit codes: 0 success, 2 configuration
problem (any malformed config value, named by its dotted key), 3 input-data
problem, 4 computation problem. An exception outside those, which is a
bug, also exits 4 but is labelled "internal error" and printed with its
traceback.
"""

from __future__ import annotations

import argparse
import csv
import ctypes
import dataclasses
import hashlib
import json
import os
import sys
import tempfile
import traceback
from array import array
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
from .dgp import simulate_var, true_reduced_form_irf
from .errors import ConfigError, DataError, HdlpError
from .lp import TimeSeriesMatrix, _irfs
from .lpdid import PanelDataset, lpdid_estimate
from .montecarlo import REPORT_COLUMNS, run_monte_carlo

CHECKPOINT_VERSION = 9  # 9: records hold beta and se, not intervals per level
CHECKPOINT_EVERY = 50

# mallopt pairs: M_MMAP_THRESHOLD 32 MiB, the ceiling of glibc's dynamic threshold
# on 64-bit, and M_TRIM_THRESHOLD twice that, as that rule sets it: no run maps or
# trims more than under the defaults. Minor faults of the 4th tuned `hdlp estimate`
# in one process, defaults -> these: T=300 719 -> 10, T=1200 2,585 -> 0; `hdlp lpdid`
# on 24,000 rows 15,300 -> 2. 4 / 8 MiB left 2,886 at T=1200 and 4,100 on the panel.
_MALLOPT = ((-3, 32 << 20), (-1, 64 << 20))


def fmt(value) -> str:
    """17-significant-digit float formatting, None as an empty cell,
    everything else via str."""
    if isinstance(value, float):
        return format(value, ".17g")
    return "" if value is None else str(value)


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


def _read_csv(path: Path, make, parse):
    """The frame both CSV readers share. path must be a file and start with
    a header; parse(header, rows) turns rows, the (line number, cells) of each
    non-blank data row, into the keyword arguments of make. A row without
    one cell per header name, a byte that is not UTF-8, a malformed or
    over-long field, a file without data rows and a package error that make
    raises are DataErrors naming the file."""
    if not path.is_file():
        raise DataError(f"data file not found: {path}")

    def data_rows(reader, width):
        empty = True
        for row in reader:
            if row:  # line_num: the physical line the row ends on
                if len(row) != width:
                    raise DataError(f"{path}:{reader.line_num}: expected {width} cells")
                empty = False
                yield reader.line_num, row
        if empty:
            raise DataError(f"{path} has no data rows")

    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:  # drops a byte-order mark
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise DataError(f"{path} is empty")
            kwargs = parse(header, data_rows(reader, len(header)))
    except csv.Error as exc:
        raise DataError(f"{path}:{reader.line_num}: {exc}") from None
    except UnicodeDecodeError:  # no UTF-8 sequence spans a newline: find the line
        lineno = next(i for i, line in enumerate(path.read_bytes().split(b"\n"), 1)
                      if line.decode("utf-8", "ignore").encode() != line)
        raise DataError(f"{path}:{lineno}: not UTF-8 text") from None
    try:
        return make(**kwargs)
    except HdlpError as exc:
        raise DataError(f"{path}: {exc}") from exc


def read_wide_csv(path: Path) -> TimeSeriesMatrix:
    """Header row of series names, numeric body, no missing cells."""
    path = Path(path)

    def parse(header, rows):
        values = []
        for lineno, row in rows:
            try:
                values.append([float(v) for v in row])
            except ValueError:
                raise DataError(f"{path}:{lineno}: non-numeric cell") from None
        return {"values": np.asarray(values), "columns": tuple(header)}

    return _read_csv(path, TimeSeriesMatrix, parse)


def read_long_csv(path: Path, run: LpdidRun) -> PanelDataset:
    """Long panel: unit, integer time, outcome, 0/1 treatment, covariates.
    Numeric cells go straight into typed arrays, 8 bytes each; times stay
    Python ints until PanelDataset checks their range."""
    path = Path(path)

    def parse(header, rows):
        needed = [run.unit_col, run.time_col, run.outcome_col, run.treatment_col]
        needed += list(run.spec.extra_controls)
        col = {}
        for name in needed:
            if name not in header:
                raise DataError(f"{path}: missing column {name!r}")
            col[name] = header.index(name)

        unit, time, outcome, treatment = [], [], array("d"), array("d")
        covs = {c: array("d") for c in run.spec.extra_controls}
        for lineno, row in rows:
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
        return {
            "unit": np.array(unit, dtype=object), "time": np.array(time),
            "outcome": np.frombuffer(outcome), "treatment": np.frombuffer(treatment),
            "covariates": {k: np.frombuffer(v) for k, v in covs.items()},
        }

    return _read_csv(path, PanelDataset, parse)


def _write_estimates(out_path: Path, results: dict, levels, tail_header, tail) -> int:
    """Write the estimates of results, {label: IrfResult}, as one table:
    horizon, method, beta, se and the interval at each level, then tail(est)
    under tail_header. If any horizon failed, log one line per failure, led
    by its label, next to the unwritten table instead, and exit 4."""
    failed = [f"{label} horizon {h}: {msg}".lstrip()
              for label, result in results.items()
              for h, msg in sorted(result.errors.items())]
    if failed:
        log_path = out_path.with_suffix(out_path.suffix + ".log")
        _write_atomic(log_path,
                      lambda fh: fh.writelines(f"{line}\n" for line in failed))
        print(f"estimation failed for {len(failed)} horizon(s); detail in {log_path}",
              file=sys.stderr)
        return 4
    header = ["horizon", "method", "beta", "se"]
    for level in levels:
        tag = repr(level)
        header += [f"ci_low_{tag}", f"ci_high_{tag}"]
    rows = [[est.horizon, est.method, est.beta, est.se]
            + [bound for level in levels for bound in est.ci(level)] + tail(est)
            for result in results.values() for est in result.estimates]
    write_csv_atomic(out_path, header + tail_header, rows)
    return 0


def cmd_estimate(run: EstimateRun) -> int:
    data, spec = read_wide_csv(run.data_path), run.lp_spec
    for name in (spec.response, spec.shock, *spec.contemporaneous, *spec.lagged):
        if name not in data.columns:  # checked before any horizon is estimated
            raise DataError(f"{run.data_path}: missing column {name!r}")
    return _write_estimates(
        run.out_path, _irfs(data, spec, run.oga, run.hac, run.methods),
        run.levels,
        ["n_selected_y", "n_selected_x", "n_union", "bandwidth", "c_star_y",
         "c_star_x", "effective_T"],
        lambda est: [len(est.selected_y), len(est.selected_x), len(est.union),
                     est.bandwidth, est.c_star_y, est.c_star_x, est.effective_T],
    )


def cmd_simulate(run: SimulateRun) -> int:
    data = simulate_var(run.spec, run.T, seed=run.seed)
    truth = true_reduced_form_irf(run.spec, run.response, run.innovation, run.horizons)
    write_csv_atomic(
        run.sidecar_path,
        ["horizon", "true_irf"],
        [(h, float(v)) for h, v in zip(run.horizons, truth)],
    )
    write_csv_atomic(run.out_path, list(data.columns), data.values.tolist())
    return 0


def _checkpoint_path(out_path: Path) -> Path:
    return out_path.with_suffix(out_path.suffix + ".ckpt")


# fields no record depends on, so a checkpoint survives edits to them: the
# report applies levels and the replication count to the records it is given
_NOT_FINGERPRINTED = ("out_path", "parallelism", "checkpoint", "levels", "n_reps")
# the BLAS thread count moves a record's last bits, so a checkpoint keeps the
# process's settings of these variables and resumes only under the same ones
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _numpy_as_json(value):
    """json.dumps default hook: numpy arrays and scalars as lists and numbers."""
    if isinstance(value, (np.ndarray, np.generic)):
        return value.tolist()
    raise TypeError(f"cannot fingerprint a {type(value).__name__}")


def _config_fingerprint(run: MontecarloRun) -> str:
    """Identity of a run for checkpoint compatibility: every field of the run
    that a record depends on, which is the design, the methods and the seed."""
    payload = {name: value for name, value in dataclasses.asdict(run).items()
               if name not in _NOT_FINGERPRINTED}
    blob = json.dumps(payload, sort_keys=True, default=_numpy_as_json).encode()
    return hashlib.sha256(blob).hexdigest()


def _blas_threads() -> dict:
    return {var: os.environ.get(var) for var in _BLAS_THREAD_VARS}


def _checkpoint_header(fingerprint: str, records_text: str) -> dict:
    return {"version": CHECKPOINT_VERSION, "fingerprint": fingerprint,
            "blas_threads": _blas_threads(),
            "digest": hashlib.sha256(records_text.encode()).hexdigest()}


def save_checkpoint(path: Path, fingerprint: str, records: list):
    """Write records to path as two lines: a JSON header (version, run
    fingerprint, BLAS thread settings and the SHA-256 of the second line),
    then the records as JSON."""
    text = json.dumps(records)
    header = json.dumps(_checkpoint_header(fingerprint, text))
    _write_atomic(path, lambda fh: fh.write(f"{header}\n{text}\n"))


def load_checkpoint(path: Path, fingerprint: str) -> list | None:
    """The records saved at path, or None if the file is missing, unreadable,
    not UTF-8 or not JSON, or its header is not the one save_checkpoint
    writes for these records under this version, run and BLAS setting: a
    record edited after it was written changes the digest."""
    try:
        with open(path, encoding="utf-8") as fh:
            header, text = json.loads(fh.readline()), fh.read().removesuffix("\n")
        if header != _checkpoint_header(fingerprint, text):
            return None
        return json.loads(text)
    except (OSError, ValueError):
        return None


def cmd_montecarlo(run: MontecarloRun) -> int:
    fingerprint = _config_fingerprint(run)
    ckpt_path = _checkpoint_path(run.out_path)
    if run.checkpoint and ckpt_path.is_dir():
        raise ConfigError(f"montecarlo config.output: its checkpoint {ckpt_path} "
                          "must be a file path, not an existing directory")
    records = (run.checkpoint and load_checkpoint(ckpt_path, fingerprint)) or []
    if records:
        print(
            f"montecarlo: resuming from checkpoint with {len(records)} "
            f"replications", file=sys.stderr,
        )

    def progress(done, total):
        step = max(1, total // 20)
        if done % step == 0 or done == total:
            print(f"montecarlo: {done}/{total} replications", file=sys.stderr)
        if run.checkpoint and done % CHECKPOINT_EVERY == 0 and done < total:
            save_checkpoint(ckpt_path, fingerprint, records)

    report = run_monte_carlo(
        run.design,
        methods=run.methods,
        n_reps=run.n_reps,
        levels=run.levels,
        seed=run.seed,
        parallelism=run.parallelism,
        records=records,
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
    return _write_estimates(
        run.out_path, {"": lpdid_estimate(panel, run.spec, run.oga, run.hac)},
        run.levels,
        ["n_treated", "n_clean", "n_controls", "n_selected", "bandwidth",
         "variance", "effective_T"],
        lambda est: [est.n_treated, est.n_clean, len(est.control_names),
                     len(est.union), est.bandwidth, est.variance, est.effective_T],
    )


BUILDERS = {
    "estimate": (build_estimate_run, cmd_estimate),
    "simulate": (build_simulate_run, cmd_simulate),
    "montecarlo": (build_montecarlo_run, cmd_montecarlo),
    "lpdid": (build_lpdid_run, cmd_lpdid),
}


def _apply_overrides(cfg: dict, args) -> dict:
    cfg = dict(cfg)
    if args.seed is not None:
        if args.command not in ("simulate", "montecarlo"):
            raise ConfigError("--seed applies to simulate and montecarlo only")
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
                       help="override the simulate or montecarlo seed")
        p.add_argument("--threads", type=int, default=None,
                       help="override montecarlo parallelism")
        p.add_argument("--out", default=None, help="override the output path")
    return parser


def _keep_freed_memory():
    """Keep freed memory below _MALLOPT's thresholds in this process: nothing
    where libc lacks mallopt (macOS) or ignores it (musl). Only main calls it."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    for param, value in _MALLOPT:
        mallopt(param, value)


def main(argv=None) -> int:
    _keep_freed_memory()
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
