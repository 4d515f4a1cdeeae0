"""The four workloads: inputs, set-up, one timed step, and its correctness check.

A step is the unit the timing loop runs; it holds one or more ops:

- mc_serial: one ``run_monte_carlo`` call of BATCH replications (an op is
  one replication). Every step of a run uses the same inputs, so every step
  must produce the same report, and so must a step on the process pool.
- estimate_tuned: one in-process ``hdlp estimate`` on the next of K
  generated datasets (an op is one command).
- lpdid_panel: one ``hdlp lpdid`` with variance hac, then one with
  variance cluster, on the same panel (an op is the pair).

Checks count cells: one cell is one method x horizon. A cell fails when the
program reports it as failed or when it disagrees with the reference
(stored for DEFAULT_SEED, floats to 1e-9 relative, counts exactly) or with
a reference-free invariant (determinism across steps, interval algebra,
counts, known effect).
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import inputs

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
DEFAULT_SEED = 0
RTOL = 1e-9

MC_BATCH = 8
MC_HORIZONS = tuple(range(1, 21))
MC_METHODS = ("double_oga", "conventional_lp")
MC_LEVEL = 0.95
ESTIMATE_FILES = 16  # enough distinct datasets that the latency median is not one dataset's
ESTIMATE_HORIZONS = tuple(range(1, 21))
ESTIMATE_DEPTH = 21  # lags 12 + lag_augment 9
C_STAR_CANDIDATES = (1.6, 1.8, 2.0, 2.2, 2.4)
LPDID_HORIZONS = (0, 1, 2, 3, 4)
LPDID_VARIANCES = ("hac", "cluster")
EFFECT_Z = 10.0  # |beta - true effect| must stay within this many se


@dataclass
class Step:
    ops: int
    wall: float
    latencies: list
    first_result_s: float | None = None
    payload: object = None


@dataclass
class Verdict:
    attempted: int = 0
    failed: int = 0
    notes: list = field(default_factory=list)

    def fail(self, cells: int, note: str):
        self.failed += cells
        if len(self.notes) < 20:
            self.notes.append(note)


def close(a: float, b: float) -> bool:
    if a == b or (math.isnan(a) and math.isnan(b)):
        return True
    return abs(a - b) <= RTOL * max(abs(a), abs(b))


def _is_int(text: str) -> bool:
    return text.lstrip("-").isdigit()


def same_cell(ref: str, got: str) -> bool:
    """Table cells agree: text exactly, counts exactly, floats to RTOL."""
    if ref == got:
        return True
    if _is_int(ref) and _is_int(got):
        return False
    try:
        return close(float(ref), float(got))
    except ValueError:
        return False


def read_table(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def digest(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def load_reference(name: str, seed: int):
    """Stored outputs for DEFAULT_SEED, or None on any other seed."""
    path = REFERENCE_DIR / f"{name}.json"
    if seed != DEFAULT_SEED or not path.exists():
        return None
    with open(path) as fh:
        blob = json.load(fh)
    return blob if blob.get("seed") == seed else None


# -- Monte Carlo ---------------------------------------------------------


class MonteCarlo:
    """Coverage study on the sparse rho=0.5 design, T=300, horizons 1-20."""

    reference_name = "mc"
    round = 1  # steps with distinct inputs

    def __init__(self, seed: int, workdir: Path, parallelism: int):
        self.seed = seed
        self.workdir = workdir
        self.parallelism = parallelism
        self.expected = None  # cells every step must reproduce
        self.reference = None

    def prepare(self):
        pass

    def setup(self):
        from hdlp.dgp import Section3Design
        from hdlp.hac import HacConfig
        from hdlp.montecarlo import section3_mc_design
        from hdlp.selection import OgaConfig

        self.design = section3_mc_design(
            Section3Design.sparse(inputs.RHO),
            horizons=MC_HORIZONS,
            oga=OgaConfig(c_star=2.0),
            hac=HacConfig(),
        )

    def run_batch(self, n_reps: int, parallelism: int) -> Step:
        import hdlp.montecarlo as mc

        stamps = []
        t0 = time.perf_counter()
        report = mc.run_monte_carlo(
            self.design, methods=MC_METHODS, n_reps=n_reps, levels=(MC_LEVEL,),
            seed=self.seed, parallelism=parallelism,
            progress=lambda done, total: stamps.append(time.perf_counter()),
        )
        wall = time.perf_counter() - t0
        if parallelism > 1:
            # results arrive in chunks: one amortized latency per step
            latencies = [wall / n_reps]
        else:
            latencies = [b - a for a, b in zip([t0] + stamps[:-1], stamps)]
        first = stamps[0] - t0 if stamps else wall
        return Step(n_reps, wall, latencies, first, report_cells(report))

    def warm_up(self):
        self.reference = load_reference(self.reference_name, self.seed)
        self.run_batch(1, 1)
        return None

    def step(self, i: int) -> Step:
        return self.run_batch(MC_BATCH, self.parallelism)

    def check(self, step: Step) -> Verdict:
        cells, failures = step.payload
        v = Verdict(attempted=MC_BATCH * len(MC_METHODS) * len(MC_HORIZONS))
        if failures:
            v.fail(failures, f"{failures} estimation cells failed")
        if self.expected is None:
            self.expected = step.payload
        bad = set()
        for key, (coverage, width, n_ok) in cells.items():
            if not (0.0 <= coverage <= 1.0 and width > 0 and n_ok == MC_BATCH):
                bad.add(key[:2])
        exp_cells, _ = self.expected
        if cells.keys() != exp_cells.keys():
            v.fail(v.attempted, "report cells differ from the in-run reference")
            return v
        for key, got in cells.items():
            if got != exp_cells[key]:
                bad.add(key[:2])
        if self.reference is not None:
            for method, h, level, coverage, width, n_ok in self.reference["cells"]:
                got = cells.get((method, h, level))
                if got is None or not (
                    close(got[0], coverage) and close(got[1], width) and got[2] == n_ok
                ):
                    bad.add((method, h))
        if bad:
            v.fail(MC_BATCH * len(bad), f"report cells wrong: {sorted(bad)[:4]}")
        return v


def report_cells(report):
    cells = {}
    for (method, h, level), cell in report.cells.items():
        cells[(method, int(h), float(level))] = (
            float(cell.coverage), float(cell.median_width), int(cell.n_ok)
        )
    return cells, int(report.failures)


# -- estimate ------------------------------------------------------------


ESTIMATE_FIELDS = ("horizon", "beta", "se", "c_star_y", "c_star_x", "n_union")


class Estimate:
    """`hdlp estimate` with tuned c_star on K distinct T=300 datasets."""

    reference_name = "estimate_tuned"
    round = ESTIMATE_FILES

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.configs = [workdir / f"estimate_{k}.yaml" for k in range(ESTIMATE_FILES)]
        self.outputs = [workdir / f"irf_{k}.csv" for k in range(ESTIMATE_FILES)]
        self.first_digest = {}
        self.reference = None

    def prepare(self):
        for k in range(ESTIMATE_FILES):
            data = self.workdir / f"series_{k}.csv"
            inputs.write_wide_series(data, self.seed, k)
            inputs.write_config(
                "estimate.yaml", self.configs[k], data=data, output=self.outputs[k]
            )

    def setup(self):
        import hdlp.cli
        from hdlp.config import build_estimate_run, load_yaml

        # what a user's first command builds; kept so setup_s covers it
        self.run = build_estimate_run(load_yaml(self.configs[0]))

    def warm_up(self):
        self.reference = load_reference(self.reference_name, self.seed)
        self.step(0)
        self.first_digest.clear()
        return None

    def step(self, i: int) -> Step:
        import hdlp.cli

        k = i % ESTIMATE_FILES
        t0 = time.perf_counter()
        rc = hdlp.cli.main(["estimate", "--config", str(self.configs[k])])
        wall = time.perf_counter() - t0
        return Step(1, wall, [wall], payload=(k, rc))

    def check(self, step: Step) -> Verdict:
        k, rc = step.payload
        n = len(ESTIMATE_HORIZONS)
        v = Verdict(attempted=n)
        if rc != 0:
            v.fail(n, f"estimate on dataset {k} exited {rc}")
            return v
        rows = {int(r["horizon"]): r for r in read_table(self.outputs[k])}
        bad = {h for h in ESTIMATE_HORIZONS if h not in rows}
        bad |= {h for h, row in rows.items() if not estimate_row_ok(h, row)}
        sha = digest(self.outputs[k])
        if self.first_digest.setdefault(k, sha) != sha:
            bad.update(ESTIMATE_HORIZONS)
        if self.reference is not None:
            for ref in self.reference["files"][k]:
                row = rows.get(int(ref["horizon"]))
                if row is None or not all(same_cell(ref[f], row[f]) for f in ESTIMATE_FIELDS):
                    bad.add(int(ref["horizon"]))
        if bad:
            v.fail(len(bad), f"dataset {k}: horizons {sorted(bad)} wrong")
        return v

    def reference_outputs(self):
        files = []
        for k in range(ESTIMATE_FILES):
            step = self.step(k)
            if step.payload[1] != 0:
                raise RuntimeError(f"estimate on dataset {k} failed")
            rows = read_table(self.outputs[k])
            files.append([{f: r[f] for f in ESTIMATE_FIELDS} for r in rows])
        return {"files": files}


def estimate_row_ok(h: int, row: dict) -> bool:
    try:
        beta, se = float(row["beta"]), float(row["se"])
        ny, nx, nu = (int(row[c]) for c in ("n_selected_y", "n_selected_x", "n_union"))
        cy, cx = float(row["c_star_y"]), float(row["c_star_x"])
        for level in ("0.95", "0.68"):
            lo, hi = float(row[f"ci_low_{level}"]), float(row[f"ci_high_{level}"])
            if not abs((lo + hi) / 2 - beta) <= RTOL * max(abs(beta), se, 1e-300):
                return False
    except (KeyError, ValueError):
        return False
    return (
        math.isfinite(beta) and se > 0 and math.isfinite(se)
        and max(ny, nx) <= nu <= ny + nx
        and cy in C_STAR_CANDIDATES and cx in C_STAR_CANDIDATES
        and row["method"] == "double_oga"
        and int(row["effective_T"]) == inputs.T - h - ESTIMATE_DEPTH
    )


# -- LP-DiD --------------------------------------------------------------


class Lpdid:
    """`hdlp lpdid` on a 1,000-unit x 24-period panel, hac then cluster."""

    reference_name = "lpdid_panel"
    round = 1

    def __init__(self, seed: int, workdir: Path, n_units: int = inputs.PANEL_UNITS):
        self.seed = seed
        self.workdir = workdir
        self.n_units = n_units
        tag = f"{n_units}u"
        self.data = workdir / f"panel_{tag}.csv"
        self.configs = {v: workdir / f"lpdid_{tag}_{v}.yaml" for v in LPDID_VARIANCES}
        self.outputs = {v: workdir / f"lpdid_{tag}_{v}.csv" for v in LPDID_VARIANCES}
        self.first_digest = None
        self.reference = None

    def prepare(self):
        inputs.write_panel(self.data, self.seed, self.n_units)
        for v in LPDID_VARIANCES:
            inputs.write_config(
                "lpdid.yaml", self.configs[v], data=self.data,
                output=self.outputs[v], variance=v,
            )

    def setup(self):
        import hdlp.cli
        from hdlp.config import build_lpdid_run, load_yaml

        # what a user's first commands build; kept so setup_s covers it
        self.runs = [build_lpdid_run(load_yaml(self.configs[v])) for v in LPDID_VARIANCES]

    def warm_up(self):
        if self.n_units == inputs.PANEL_UNITS:
            self.reference = load_reference(self.reference_name, self.seed)
        return None

    def step(self, i: int) -> Step:
        import hdlp.cli

        t0 = time.perf_counter()
        rcs = [
            hdlp.cli.main(["lpdid", "--config", str(self.configs[v])])
            for v in LPDID_VARIANCES
        ]
        wall = time.perf_counter() - t0
        return Step(1, wall, [wall], payload=rcs)

    def check(self, step: Step) -> Verdict:
        n = len(LPDID_HORIZONS)
        v = Verdict(attempted=n * len(LPDID_VARIANCES))
        if any(step.payload):
            v.fail(v.attempted, f"lpdid exited {step.payload}")
            return v
        tables = {var: read_table(self.outputs[var]) for var in LPDID_VARIANCES}
        bad = set()
        for var, rows in tables.items():
            by_h = {int(r["horizon"]): r for r in rows}
            for h in LPDID_HORIZONS:
                if h not in by_h or not lpdid_row_ok(h, by_h[h], var):
                    bad.add((var, h))
        hac = {int(r["horizon"]): r for r in tables["hac"]}
        for row in tables["cluster"]:
            h = int(row["horizon"])
            other = hac.get(h)
            same = ("beta", "n_treated", "n_clean", "n_selected", "effective_T")
            if other is None or any(row[c] != other[c] for c in same):
                bad.update({("hac", h), ("cluster", h)})
        digests = tuple(digest(self.outputs[var]) for var in LPDID_VARIANCES)
        if self.first_digest is None:
            self.first_digest = digests
        elif digests != self.first_digest:
            bad.update((var, h) for var in LPDID_VARIANCES for h in LPDID_HORIZONS)
        if self.reference is not None:
            for var in LPDID_VARIANCES:
                got = tables[var]
                ref = self.reference["tables"][var]
                for i, ref_row in enumerate(ref):
                    row = got[i] if i < len(got) else None
                    if row is None or ref_row.keys() != row.keys() or not all(
                        same_cell(ref_row[c], row[c]) for c in ref_row
                    ):
                        bad.add((var, int(ref_row["horizon"])))
        if bad:
            v.fail(len(bad), f"lpdid cells wrong: {sorted(bad)[:4]}")
        return v

    def reference_outputs(self):
        step = self.step(0)
        if any(step.payload):
            raise RuntimeError("lpdid failed")
        return {"tables": {v: read_table(self.outputs[v]) for v in LPDID_VARIANCES}}


def lpdid_row_ok(h: int, row: dict, variance: str) -> bool:
    try:
        beta, se = float(row["beta"]), float(row["se"])
        lo, hi = float(row["ci_low_0.95"]), float(row["ci_high_0.95"])
        treated, clean = int(row["n_treated"]), int(row["n_clean"])
        eff = int(row["effective_T"])
    except (KeyError, ValueError):
        return False
    return (
        math.isfinite(beta) and se > 0 and math.isfinite(se)
        and abs((lo + hi) / 2 - beta) <= RTOL * max(abs(beta), se)
        and treated > 0 and clean > 0 and treated + clean == eff
        and row["variance"] == variance
        and (row["bandwidth"] == "") == (variance == "cluster")
        and abs(beta - inputs.treatment_effect(h)) <= EFFECT_Z * se
    )


def make(name: str, seed: int, workdir: Path):
    if name == "mc_serial":
        return MonteCarlo(seed, workdir, 1)
    if name == "estimate_tuned":
        return Estimate(seed, workdir)
    if name == "lpdid_panel":
        return Lpdid(seed, workdir)
    raise ValueError(f"unknown workload {name!r}")
