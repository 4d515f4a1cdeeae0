"""Coverage and interval-width experiments against the companion-power truth.

Each replication simulates one dataset, estimates the shock coefficient at
every horizon with each method, and records whether the interval contains
the true response and how wide it is. Per-replication seeds derive from
(base_seed, replication) counter pairs and records are reduced in
replication order, so a report is bit-identical no matter how many workers
ran it. Replication records are plain JSON-friendly dicts, which is also
the checkpoint format.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .dgp import Section3Design, VarDgpSpec, build_section3_coefficients, \
    section3_lp_spec, simulate_var, true_reduced_form_irf
from .hac import HacConfig
from .lp import DEFAULT_LEVELS, DOUBLE_OGA, LpSpec, estimate_irf
from .selection import OgaConfig

DEFAULT_METHODS = (DOUBLE_OGA,)
# report table columns; coverage and width are taken over the n_ok
# replications whose estimate succeeded
REPORT_COLUMNS = (
    "method", "horizon", "level", "coverage", "median_width", "n_reps", "n_ok",
)


@dataclass(eq=False)
class McDesign:
    """Everything one replication needs: the process, its length, the estimator.

    The truth is the response of series lp_spec.response to the innovation
    of series lp_spec.shock; both must be series of dgp (y1 .. yn), and their
    positions there are read off the names, not passed.
    """

    dgp: VarDgpSpec
    T: int
    lp_spec: LpSpec
    oga: OgaConfig = field(default_factory=OgaConfig)
    hac: HacConfig = field(default_factory=HacConfig)
    # set from the names; fields, so that a run's checkpoint fingerprint has them
    response_index: int = field(init=False)
    innovation_index: int = field(init=False)

    def __post_init__(self):
        for name in (self.lp_spec.response, self.lp_spec.shock):
            if name not in self.dgp.names:
                raise ValueError(f"{name!r} is not a series of the VAR: {self.dgp.names}")
        self.response_index = self.dgp.names.index(self.lp_spec.response)
        self.innovation_index = self.dgp.names.index(self.lp_spec.shock)


def section3_mc_design(
    design: Section3Design,
    horizons=None,
    oga: OgaConfig | None = None,
    hac: HacConfig | None = None,
) -> McDesign:
    """Wire the ten-variable design into a runnable experiment (y2 to u1)."""
    return McDesign(
        dgp=build_section3_coefficients(design),
        T=design.T,
        lp_spec=section3_lp_spec(design, horizons=horizons),
        oga=oga or OgaConfig(),
        hac=hac or HacConfig(),
    )


@dataclass(frozen=True)
class McCell:
    """One (method, horizon, level) aggregate."""

    coverage: float
    median_width: float
    n_ok: int


@dataclass(eq=False)
class McReport:
    """Aggregated coverage rates and median interval widths."""

    n_reps: int
    methods: tuple[str, ...]
    horizons: tuple[int, ...]
    levels: tuple[float, ...]
    truth: dict[int, float]
    cells: dict[tuple[str, int, float], McCell]
    failures: int

    def coverage(self, method: str, horizon: int, level: float) -> float:
        return self.cells[(method, horizon, float(level))].coverage

    def median_width(self, method: str, horizon: int, level: float) -> float:
        return self.cells[(method, horizon, float(level))].median_width

    def rows(self):
        """Long-format rows, one per cell, in REPORT_COLUMNS order."""
        out = []
        for method in self.methods:
            for h in self.horizons:
                for level in self.levels:
                    cell = self.cells[(method, h, level)]
                    out.append(
                        (method, h, level, cell.coverage, cell.median_width,
                         self.n_reps, cell.n_ok)
                    )
        return out

    @property
    def failure_fraction(self) -> float:
        total = self.n_reps * len(self.methods) * len(self.horizons)
        return self.failures / total if total else 0.0


def run_replication(design: McDesign, methods, levels, seed: int, rep: int) -> dict:
    """One replication: simulate, estimate each method, record the intervals."""
    data = simulate_var(design.dgp, design.T, seed=(seed, rep))
    record = {"rep": rep, "methods": {}}
    for method in methods:
        result = estimate_irf(data, design.lp_spec, design.oga, design.hac,
                              method=method)
        by_h = result.by_horizon()
        cells = {}
        for h in design.lp_spec.horizons:
            if h in by_h:
                intervals = {str(level): list(by_h[h].ci(level)) for level in levels}
                cells[str(h)] = {"ok": True, "cis": intervals}
            else:
                cells[str(h)] = {"ok": False, "error": result.errors[h]}
        record["methods"][method] = cells
    return record


def _replication_star(args):
    return run_replication(*args)


def aggregate_records(design: McDesign, methods, levels, records) -> McReport:
    """Reduce replication records (in replication order) to a report."""
    methods = tuple(methods)
    levels = tuple(float(v) for v in levels)
    horizons = design.lp_spec.horizons
    truth_arr = true_reduced_form_irf(
        design.dgp, design.response_index, design.innovation_index, horizons
    )
    truth = {h: float(v) for h, v in zip(horizons, truth_arr)}

    cells: dict[tuple[str, int, float], McCell] = {}
    failures = 0
    for method in methods:
        for h in horizons:
            entries = [rec["methods"][method][str(h)] for rec in records]
            ok = [e for e in entries if e["ok"]]
            failures += len(entries) - len(ok)
            for level in levels:
                hits = 0
                widths = []
                for e in ok:
                    lo, hi = e["cis"][str(level)]
                    if lo <= truth[h] <= hi:
                        hits += 1
                    widths.append(hi - lo)
                coverage = hits / len(ok) if ok else float("nan")
                width = float(np.median(widths)) if widths else float("nan")
                cells[(method, h, level)] = McCell(coverage, width, len(ok))
    return McReport(
        n_reps=len(records), methods=methods, horizons=horizons,
        levels=levels, truth=truth, cells=cells, failures=failures,
    )


def run_monte_carlo(
    design: McDesign,
    methods=DEFAULT_METHODS,
    n_reps: int = 100,
    levels=DEFAULT_LEVELS,
    seed: int = 0,
    parallelism: int = 1,
    records: list | None = None,
    progress=None,
) -> McReport:
    """Run the experiment and aggregate.

    records, when given, holds the completed records of replications
    0..k-1 (entries past n_reps are dropped); the run appends the rest to
    that same list, in replication order. progress(done, total) is called
    after each record is appended, so it can save the list as a checkpoint.
    """
    if n_reps < 1:
        raise ValueError("need at least one replication")
    methods = tuple(methods)
    levels = tuple(float(v) for v in levels)

    records = [] if records is None else records
    del records[n_reps:]
    pending = range(len(records), n_reps)
    tasks = ((design, methods, levels, seed, rep) for rep in pending)

    def collect(iterator):
        for record in iterator:
            records.append(record)
            if progress is not None:
                progress(len(records), n_reps)

    if parallelism > 1 and len(pending) > 1:
        chunk = max(1, len(pending) // (parallelism * 4))
        with ProcessPoolExecutor(max_workers=parallelism) as pool:
            collect(pool.map(_replication_star, tasks, chunksize=chunk))
    else:
        collect(map(_replication_star, tasks))

    return aggregate_records(design, methods, levels, records)
