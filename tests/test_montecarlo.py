import concurrent.futures
import dataclasses
import json
import multiprocessing.process

import numpy as np
import pytest

import hdlp.lp
import hdlp.montecarlo
from hdlp.dgp import Section3Design, VarDgpSpec, toeplitz_power_sigma
from hdlp.hac import HacConfig
from hdlp.lp import CONVENTIONAL_LP, DOUBLE_OGA, LpSpec
from hdlp.montecarlo import McDesign, run_monte_carlo, section3_mc_design
from hdlp.selection import OgaConfig
from reference import coverage, per_level_report, replication


def small_design(n_horizons=3, lags=2):
    """Cheap three-variable experiment for harness tests."""
    B = (np.array([[0.5, 0.0, 0.0], [0.2, 0.3, 0.0], [0.0, 0.1, 0.4]]),)
    dgp = VarDgpSpec(B=B, sigma=toeplitz_power_sigma(3, 0.3), burn_in=50)
    lp = LpSpec(
        response="y2", shock="y1", horizons=tuple(range(1, n_horizons + 1)),
        contemporaneous=("y2", "y3"), lagged=("y1", "y2", "y3"), lags=lags,
    )
    return McDesign(dgp=dgp, T=120, lp_spec=lp, oga=OgaConfig(c_star=2.0),
                    hac=HacConfig())


class TestRunMonteCarlo:
    def test_single_rep_coverage_is_binary(self):
        report = run_monte_carlo(small_design(), methods=(DOUBLE_OGA,),
                                 n_reps=1, levels=(0.95,), seed=3)
        for h in report.horizons:
            assert coverage(report, DOUBLE_OGA, h, 0.95) in (0.0, 1.0)

    def test_parallelism_does_not_change_report(self):
        design = small_design()
        a = run_monte_carlo(design, methods=(DOUBLE_OGA, CONVENTIONAL_LP),
                            n_reps=6, levels=(0.95,), seed=11, parallelism=1)
        b = run_monte_carlo(design, methods=(DOUBLE_OGA, CONVENTIONAL_LP),
                            n_reps=6, levels=(0.95,), seed=11, parallelism=3)
        assert a.cells == b.cells
        assert a.truth == b.truth

    def test_resume_from_partial_records(self):
        design = small_design()
        full = run_monte_carlo(design, methods=(DOUBLE_OGA,), n_reps=8,
                               levels=(0.95,), seed=5)
        checkpoints, records = [], []

        def progress(done, total):
            if done % 3 == 0 and done < total:
                checkpoints.append([dict(r) for r in records])

        run_monte_carlo(design, methods=(DOUBLE_OGA,), n_reps=8,
                        levels=(0.95,), seed=5, records=records,
                        progress=progress)
        assert len(records) == 8
        assert checkpoints and len(checkpoints[0]) == 3
        resumed = run_monte_carlo(design, methods=(DOUBLE_OGA,), n_reps=8,
                                  levels=(0.95,), seed=5,
                                  records=checkpoints[0])
        assert resumed.cells == full.cells

    def test_coverage_monotone_in_level(self):
        report = run_monte_carlo(small_design(), methods=(DOUBLE_OGA,),
                                 n_reps=30, levels=(0.68, 0.95), seed=7)
        for h in report.horizons:
            assert (coverage(report, DOUBLE_OGA, h, 0.95)
                    >= coverage(report, DOUBLE_OGA, h, 0.68))

    def test_report_rows_layout(self):
        report = run_monte_carlo(small_design(n_horizons=5),
                                 methods=(DOUBLE_OGA, CONVENTIONAL_LP),
                                 n_reps=2, levels=(0.95,), seed=9)
        rows = report.rows()
        assert len(rows) == 2 * 5
        methods = [r[0] for r in rows]
        assert methods == [DOUBLE_OGA] * 5 + [CONVENTIONAL_LP] * 5
        assert all(r[5] == 2 for r in rows)

    def test_failures_counted_not_fatal(self):
        # horizon far beyond the sample: every rep errors at that horizon
        design = dataclasses.replace(small_design(), lp_spec=LpSpec(
            response="y2", shock="y1", horizons=(1, 110),
            contemporaneous=("y2", "y3"), lagged=("y1", "y2", "y3"), lags=2,
        ))
        report = run_monte_carlo(design, methods=(DOUBLE_OGA,), n_reps=3,
                                 levels=(0.95,), seed=13)
        assert report.failures == 3
        assert np.isnan(coverage(report, DOUBLE_OGA, 110, 0.95))
        assert coverage(report, DOUBLE_OGA, 1, 0.95) in (0.0, 1/3, 2/3, 1.0)
        assert report.failure_fraction == pytest.approx(0.5)

    def test_section3_design_wiring(self):
        design = section3_mc_design(Section3Design.sparse(0.5),
                                    horizons=(1, 2))
        assert design.T == 300
        assert design.lp_spec.horizons == (1, 2)
        assert design.response_index == 1
        assert design.innovation_index == 0
        assert design.dgp.n == 10

    def test_indices_are_read_off_the_series_names(self):
        design = small_design()
        lp_spec = dataclasses.replace(design.lp_spec, response="y3", shock="y2",
                                      contemporaneous=("y3",))
        moved = McDesign(dgp=design.dgp, T=design.T, lp_spec=lp_spec)
        assert (moved.response_index, moved.innovation_index) == (2, 1)

    def test_frozen_so_the_indices_cannot_go_stale(self):
        design = small_design()
        with pytest.raises(dataclasses.FrozenInstanceError):
            design.lp_spec = dataclasses.replace(design.lp_spec, response="y3")
        moved = dataclasses.replace(
            design, lp_spec=dataclasses.replace(design.lp_spec, response="y3"))
        assert (moved.response_index, design.response_index) == (2, 1)

    def test_rows_equal_the_per_level_reduction(self):
        # at 28 lags conventional_lp runs out of degrees of freedom from
        # horizon 4 on, while double_oga fits every horizon
        design = small_design(n_horizons=6, lags=28)
        methods, levels = (DOUBLE_OGA, CONVENTIONAL_LP), (0.5, 0.9, 0.95, 0.99)
        records = []
        report = run_monte_carlo(design, methods=methods, n_reps=12, levels=levels,
                                 seed=4, records=records)
        expected = per_level_report(design, methods, levels,
                                    json.loads(json.dumps(records)))
        assert 0 < report.failures == expected.failures < 12 * 6
        assert {tuple(cell) for record in records
                for cells in record["methods"].values()
                for cell in cells.values()} == {("beta", "se"), ("error",)}
        assert [tuple(map(repr, row)) for row in report.rows()] == [
            tuple(map(repr, row)) for row in expected.rows()]
        assert len(report.rows()) == 2 * 6 * 4

    @pytest.mark.parametrize("kwargs", [
        {"methods": ("double_oga", "lasso")},
        {"methods": (DOUBLE_OGA, DOUBLE_OGA)},
        {"levels": (0.95, 0.95)},
        {"levels": (1.0,)},
        {"levels": (0.0, 0.5)},
        {"levels": (float("nan"),)},
    ])
    def test_bad_methods_or_levels_refused_before_any_simulation(self, monkeypatch,
                                                                 kwargs):
        calls = []
        simulate = hdlp.montecarlo.simulate_var_block

        def counted(*args):
            calls.append(args)
            return simulate(*args)

        monkeypatch.setattr(hdlp.montecarlo, "simulate_var_block", counted)
        with pytest.raises(ValueError):
            run_monte_carlo(small_design(), n_reps=2, seed=1, **kwargs)
        assert not calls
        run_monte_carlo(small_design(), n_reps=1, seed=1)
        assert len(calls) == 1  # the counter sees a valid run

    def test_fractional_length_is_refused_and_numpy_integers_pass(self):
        design = small_design()
        with pytest.raises(ValueError, match="T must be a nonnegative integer, got 120.5"):
            McDesign(dgp=design.dgp, T=120.5, lp_spec=design.lp_spec)
        moved = McDesign(dgp=design.dgp, T=np.int64(120), lp_spec=design.lp_spec)
        assert type(moved.T) is int

    @pytest.mark.parametrize("role", ["response", "shock"])
    def test_series_outside_the_var_is_refused(self, role):
        design = small_design()
        lp_spec = dataclasses.replace(design.lp_spec, **{role: "y4"})
        with pytest.raises(ValueError, match="'y4' is not a series of the VAR"):
            McDesign(dgp=design.dgp, T=design.T, lp_spec=lp_spec)


class TestBlocks:
    """Replications are simulated in blocks; no record depends on the block."""

    def records(self, n_reps, parallelism=1, records=None, progress=None):
        records = [] if records is None else records
        run_monte_carlo(small_design(), methods=(DOUBLE_OGA, CONVENTIONAL_LP),
                        n_reps=n_reps, levels=(0.9, 0.95), seed=21,
                        parallelism=parallelism, records=records,
                        progress=progress)
        return json.dumps(records)

    def test_parallelism_does_not_change_records(self):
        serial = self.records(10)  # blocks of 8 and 2
        assert self.records(10, parallelism=2) == serial  # 5 and 5
        assert self.records(10, parallelism=3) == serial  # 4, 4 and 2

    def test_pool_has_no_worker_without_a_task(self, monkeypatch):
        # a stand-in pool records its size and maps in this process; a real
        # one forks max_workers processes at its first submit
        sizes = []

        class SerialPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks, chunksize=1):
                return map(fn, tasks)

        def refuse(process):
            raise AssertionError(f"started process {process.name}")

        serial = self.records(3)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", refuse)
        assert self.records(3, parallelism=8) == serial  # 3 one-replication tasks
        assert self.records(10, parallelism=2) == self.records(10)  # 5 and 5
        assert sizes == [3, 2]

    def test_shorter_run_is_a_prefix(self):
        full = json.loads(self.records(10))
        for k in (1, 3, 9):
            assert self.records(k) == json.dumps(full[:k])

    def test_resumed_mid_block_matches_clean_run(self):
        clean = self.records(10)
        done = []
        resumed = self.records(10, records=json.loads(clean)[:5],
                               progress=lambda d, total: done.append(d))
        assert resumed == clean
        assert done == list(range(6, 11))  # once per record, not per block


def test_one_dataset_build_per_horizon_for_both_methods(monkeypatch):
    horizons = []
    build = hdlp.lp.build_lp_dataset

    def counted(data, spec, h, *args, **kwargs):
        horizons.append(h)
        return build(data, spec, h, *args, **kwargs)

    monkeypatch.setattr(hdlp.lp, "build_lp_dataset", counted)
    record = replication(small_design(n_horizons=20),
                         (DOUBLE_OGA, CONVENTIONAL_LP), 0, 0)
    assert horizons == list(range(1, 21))
    assert all(cell.keys() == {"beta", "se"} for cells in record["methods"].values()
               for cell in cells.values())
