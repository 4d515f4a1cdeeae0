"""Coverage and interval-width experiments against the companion-power truth.

Each replication simulates one dataset, estimates the shock coefficient at
every horizon with each method (one build of its datasets for all), and
records what the estimator returned: beta and se, or the error. The report
forms each interval from them at each level and scores it against the true
response, so a record does not depend on the levels asked for. Serial runs
and pool workers alike simulate blocks of replications in one loop, then
estimate them one by one. Per-replication seeds derive from
(base_seed, replication) counter pairs, a replication's bits do not depend
on its block, and records are reduced in replication order, so a report is
bit-identical whatever the workers, block widths or resume point. Records
are plain JSON-friendly dicts, written as they are as the records line of a
CLI checkpoint.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, product

import numpy as np

from .dgp import Section3Design, VarDgpSpec, build_section3_coefficients, \
    section3_lp_spec, simulate_var_block, true_reduced_form_irf
from .errors import _count
from .hac import HacConfig
from .lp import DEFAULT_LEVELS, DOUBLE_OGA, METHODS, LpSpec, _irfs, interval
from .selection import OgaConfig

DEFAULT_METHODS = (DOUBLE_OGA,)
BLOCK = 8  # replications simulated together; the records do not depend on it
# report table columns; coverage and width are taken over the n_ok
# replications whose estimate succeeded
REPORT_COLUMNS = (
    "method", "horizon", "level", "coverage", "median_width", "n_reps", "n_ok",
)


@dataclass(frozen=True, eq=False)
class McDesign:
    """Everything one replication needs: the process, its length, the estimator.

    The truth is the response of series lp_spec.response to the innovation
    of series lp_spec.shock; every series lp_spec names must be one of dgp's
    (y1 .. yn). Positions are read off the names, not passed, and frozen.
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
        object.__setattr__(self, "T", _count(self.T, "T"))
        names, spec = self.dgp.names, self.lp_spec
        for name in (spec.response, spec.shock, *spec.contemporaneous, *spec.lagged):
            if name not in names:
                raise ValueError(f"{name!r} is not a series of the VAR: {names}")
        object.__setattr__(self, "response_index", names.index(spec.response))
        object.__setattr__(self, "innovation_index", names.index(spec.shock))


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

    def rows(self):
        """Long-format rows, one per cell, in REPORT_COLUMNS order."""
        out = []
        for key in product(self.methods, self.horizons, self.levels):
            cell = self.cells[key]
            out.append((*key, cell.coverage, cell.median_width, self.n_reps, cell.n_ok))
        return out

    @property
    def failure_fraction(self) -> float:
        total = self.n_reps * len(self.methods) * len(self.horizons)
        return self.failures / total if total else 0.0


def _block(design: McDesign, methods, seed: int, reps):
    """Simulate the replications reps in one block, then estimate them one at
    a time and yield each one's record, in order: per method and horizon,
    {"beta": b, "se": s}, or {"error": "Class: message"} if it failed."""
    datas = simulate_var_block(design.dgp, design.T, [(seed, rep) for rep in reps])
    for rep, data in zip(reps, datas):
        record = {"rep": rep, "methods": {}}
        for method, result in _irfs(data, design.lp_spec, design.oga, design.hac,
                                    methods).items():
            by_h = result.by_horizon()
            record["methods"][method] = {
                str(h): {"beta": by_h[h].beta, "se": by_h[h].se} if h in by_h
                else {"error": result.errors[h]}
                for h in design.lp_spec.horizons}
        yield record


def _block_records(args) -> list:
    return list(_block(*args))


def _checked(methods, levels):
    """methods and levels as tuples, or a ValueError: each must be distinct,
    a method one of METHODS and a level strictly between 0 and 1."""
    methods, levels = tuple(methods), tuple(float(v) for v in levels)
    if (not set(methods) <= set(METHODS) or len(set(methods)) < len(methods)
            or len(set(levels)) < len(levels) or not all(0 < v < 1 for v in levels)):
        raise ValueError(f"need distinct methods of {METHODS} and distinct levels "
                         f"strictly between 0 and 1; got {methods} and {levels}")
    return methods, levels


def aggregate_records(design: McDesign, methods, levels, records) -> McReport:
    """Reduce replication records (in replication order) to a report: at each
    level, the interval of every successful replication, by the formula
    LpEstimate.ci uses, scored against the truth."""
    methods, levels = _checked(methods, levels)
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
            ok = [e for e in entries if "error" not in e]
            failures += len(entries) - len(ok)
            beta = np.array([e["beta"] for e in ok])
            se = np.array([e["se"] for e in ok])
            for level in levels:
                lo, hi = interval(beta, se, level)
                hits = int(np.count_nonzero((lo <= truth[h]) & (truth[h] <= hi)))
                coverage = hits / len(ok) if ok else float("nan")
                width = float(np.median(hi - lo)) if ok else float("nan")
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
    """Run the experiment and aggregate. methods and levels are checked
    (_checked) before any replication is simulated.

    records, when given, holds the completed records of replications
    0..k-1 (entries past n_reps are dropped); the run appends the rest to
    that same list, in replication order. progress(done, total) is called
    after each record is appended, so it can save the list as a checkpoint.
    """
    if n_reps < 1:
        raise ValueError("need at least one replication")
    methods, levels = _checked(methods, levels)

    records = [] if records is None else records
    del records[n_reps:]
    pending = range(len(records), n_reps)
    # narrower blocks when that gives every worker one
    width = max(1, min(BLOCK, -(-len(pending) // max(1, parallelism))))
    tasks = [(design, methods, seed, pending[i : i + width])
             for i in range(0, len(pending), width)]

    def collect(blocks):
        for record in chain.from_iterable(blocks):
            records.append(record)
            if progress is not None:
                progress(len(records), n_reps)

    if parallelism > 1 and len(tasks) > 1:
        # imported here: a serial run need not load multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        workers = min(parallelism, len(tasks))  # no worker forked without a task
        with ProcessPoolExecutor(max_workers=workers) as pool:
            collect(pool.map(_block_records, tasks,
                             chunksize=max(1, len(tasks) // (workers * 4))))
    else:
        collect(_block(*task) for task in tasks)

    return aggregate_records(design, methods, levels, records)
