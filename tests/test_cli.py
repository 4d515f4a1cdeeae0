import copy
import csv
import dataclasses
import json

import numpy as np
import pytest
import yaml

from hdlp.cli import (
    CHECKPOINT_VERSION,
    _blas_threads,
    _checkpoint_path,
    _config_fingerprint,
    main,
    save_checkpoint,
)
from hdlp.config import build_montecarlo_run, load_yaml


def write_yaml(path, cfg):
    with open(path, "w") as fh:
        yaml.safe_dump(cfg, fh)
    return str(path)


def write_wide_csv(path, names, values):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(names)
        writer.writerows(values)
    return str(path)


@pytest.fixture
def sim_csv(tmp_path):
    rng = np.random.default_rng(0)
    T = 140
    x = rng.standard_normal(T)
    z = rng.standard_normal(T)
    y = np.zeros(T)
    for t in range(1, T):
        y[t] = 0.4 * y[t - 1] + 0.6 * x[t - 1] + 0.5 * rng.standard_normal()
    return write_wide_csv(
        tmp_path / "data.csv", ["y", "x", "z"], np.column_stack([y, x, z])
    )


def estimate_cfg(tmp_path, sim_csv, **overrides):
    cfg = {
        "data": sim_csv,
        "output": str(tmp_path / "irf.csv"),
        "methods": ["double_oga", "conventional_lp"],
        "levels": [0.95],
        "response": "y",
        "shock": "x",
        "lagged": ["y", "x", "z"],
        "lags": 2,
        "horizons": [1, 2, 3],
        "selection": {"c_star": 2.0},
    }
    cfg.update(overrides)
    return cfg


def small_var_mc_cfg(tmp_path, **overrides):
    cfg = {
        "output": str(tmp_path / "mc.csv"),
        "seed": 11,
        "n_reps": 8,
        "methods": ["double_oga", "conventional_lp"],
        "levels": [0.95],
        "T": 120,
        "design": {
            "kind": "var",
            "coefficients": [
                [[0.5, 0.0, 0.0], [0.2, 0.3, 0.0], [0.0, 0.1, 0.4]]
            ],
            "sigma": [[1.0, 0.3, 0.09], [0.3, 1.0, 0.3], [0.09, 0.3, 1.0]],
            "burn_in": 50,
        },
        "estimation": {
            "response": "y2",
            "shock": "y1",
            "contemporaneous": ["y2", "y3"],
            "lagged": ["y1", "y2", "y3"],
            "lags": 2,
            "horizons": [1, 2, 3, 4, 5],
        },
        "selection": {"c_star": 2.0},
    }
    cfg.update(overrides)
    return cfg


def dfm_simulate_cfg(tmp_path, **overrides):
    cfg = {
        "output": str(tmp_path / "dfm.csv"),
        "seed": 3,
        "T": 60,
        "response": 2,
        "innovation": 1,
        "horizons": [0, 1, 2],
        "design": {
            "kind": "dfm",
            "phi": [[0.8]],
            "shock_loadings": [[1.0]],
            "loadings": [[1.0], [0.5]],
            "idio_ar": [[0.4], []],
            "idio_scale": [0.5, 1.0],
            "burn_in": 50,
        },
    }
    cfg.update(overrides)
    return cfg


class TestEstimateCommand:
    def test_row_count_and_schema(self, tmp_path, sim_csv):
        cfg_path = write_yaml(tmp_path / "cfg.yaml", estimate_cfg(tmp_path, sim_csv))
        assert main(["estimate", "--config", cfg_path]) == 0
        with open(tmp_path / "irf.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 3 * 2  # horizons x methods
        assert {r["method"] for r in rows} == {"double_oga", "conventional_lp"}
        assert "ci_low_0.95" in rows[0]
        assert "c_star_y" in rows[0]

    def test_determinism(self, tmp_path, sim_csv):
        cfg_path = write_yaml(tmp_path / "cfg.yaml", estimate_cfg(tmp_path, sim_csv))
        assert main(["estimate", "--config", cfg_path]) == 0
        first = (tmp_path / "irf.csv").read_bytes()
        assert main(["estimate", "--config", cfg_path]) == 0
        assert (tmp_path / "irf.csv").read_bytes() == first

    def test_malformed_csv_is_data_error(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("y,x\n1.0,2.0\n3.0,not_a_number\n")
        cfg_path = write_yaml(
            tmp_path / "cfg.yaml", estimate_cfg(tmp_path, str(bad))
        )
        assert main(["estimate", "--config", cfg_path]) == 3
        assert not (tmp_path / "irf.csv").exists()

    def test_unknown_key_is_config_error(self, tmp_path, sim_csv):
        cfg = estimate_cfg(tmp_path, sim_csv)
        cfg["unexpected_key"] = 1
        cfg_path = write_yaml(tmp_path / "cfg.yaml", cfg)
        assert main(["estimate", "--config", cfg_path]) == 2
        assert not (tmp_path / "irf.csv").exists()

    def test_candidates_key_is_gone(self, tmp_path, sim_csv):
        # a list-valued c_star is the one way to name a candidate set
        cfg = estimate_cfg(tmp_path, sim_csv,
                           selection={"c_star": None, "candidates": [1.0, 2.0]})
        cfg_path = write_yaml(tmp_path / "cfg.yaml", cfg)
        assert main(["estimate", "--config", cfg_path]) == 2
        assert not (tmp_path / "irf.csv").exists()

    def test_bug_is_internal_error_with_traceback(self, tmp_path, sim_csv,
                                                  capsys, monkeypatch):
        def broken(*args, **kwargs):
            raise TypeError("injected bug")

        monkeypatch.setattr("hdlp.cli.estimate_irf", broken)
        cfg_path = write_yaml(tmp_path / "cfg.yaml", estimate_cfg(tmp_path, sim_csv))
        assert main(["estimate", "--config", cfg_path]) == 4
        err = capsys.readouterr().err
        assert "internal error: TypeError: injected bug" in err
        assert "Traceback" in err
        assert not (tmp_path / "irf.csv").exists()

    def test_unknown_column_is_computation_error(self, tmp_path, sim_csv):
        cfg = estimate_cfg(tmp_path, sim_csv, response="nope")
        cfg_path = write_yaml(tmp_path / "cfg.yaml", cfg)
        assert main(["estimate", "--config", cfg_path]) == 4
        assert not (tmp_path / "irf.csv").exists()
        assert (tmp_path / "irf.csv.log").exists()

    def test_out_override(self, tmp_path, sim_csv):
        cfg_path = write_yaml(tmp_path / "cfg.yaml", estimate_cfg(tmp_path, sim_csv))
        other = tmp_path / "elsewhere.csv"
        assert main(["estimate", "--config", cfg_path, "--out", str(other)]) == 0
        assert other.exists()


class TestSimulateCommand:
    def test_writes_data_and_sidecar(self, tmp_path):
        cfg = {
            "output": str(tmp_path / "sim.csv"),
            "true_irf_output": str(tmp_path / "truth.csv"),
            "seed": 5,
            "T": 80,
            "response": "y2",
            "innovation": "y1",
            "horizons": {"from": 0, "to": 6},
            "design": {
                "kind": "var",
                "coefficients": [[[0.5, 0.0], [0.3, 0.2]]],
                "sigma": [[1.0, 0.2], [0.2, 1.0]],
                "burn_in": 20,
            },
        }
        cfg_path = write_yaml(tmp_path / "cfg.yaml", cfg)
        assert main(["simulate", "--config", cfg_path]) == 0
        with open(tmp_path / "sim.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["y1", "y2"]
        assert len(rows) == 81
        with open(tmp_path / "truth.csv") as fh:
            truth = list(csv.DictReader(fh))
        assert len(truth) == 7
        # horizon 1 response of y2 to u1 is B[1,0] = 0.3
        assert float(truth[1]["true_irf"]) == pytest.approx(0.3)

    def test_seed_determinism(self, tmp_path):
        cfg = {
            "output": str(tmp_path / "sim.csv"),
            "seed": 9,
            "T": 50,
            "horizons": [0, 1],
            "design": {
                "kind": "section3",
                "variant": "sparse",
                "rho": 0.5,
                "burn_in": 100,
            },
        }
        cfg_path = write_yaml(tmp_path / "cfg.yaml", cfg)
        assert main(["simulate", "--config", cfg_path]) == 0
        first = (tmp_path / "sim.csv").read_bytes()
        assert main(["simulate", "--config", cfg_path]) == 0
        assert (tmp_path / "sim.csv").read_bytes() == first

    def test_dfm_kind(self, tmp_path):
        cfg_path = write_yaml(tmp_path / "cfg.yaml", dfm_simulate_cfg(tmp_path))
        assert main(["simulate", "--config", cfg_path]) == 0
        with open(tmp_path / "dfm_true_irf.csv") as fh:
            truth = list(csv.DictReader(fh))
        # lam_2 * phi^h: 0.5, 0.4, 0.32
        assert float(truth[0]["true_irf"]) == pytest.approx(0.5)
        assert float(truth[1]["true_irf"]) == pytest.approx(0.4)


class TestMontecarloCommand:
    def test_report_cardinality(self, tmp_path):
        cfg_path = write_yaml(tmp_path / "cfg.yaml", small_var_mc_cfg(tmp_path))
        assert main(["montecarlo", "--config", cfg_path]) == 0
        with open(tmp_path / "mc.csv") as fh:
            reader = csv.DictReader(fh)
            rows = list(reader)
        assert reader.fieldnames == ["method", "horizon", "level", "coverage",
                                     "median_width", "n_reps", "n_ok"]
        assert len(rows) == 2 * 5  # methods x horizons, one level
        assert all(r["n_reps"] == "8" and r["n_ok"] == "8" for r in rows)
        assert not _checkpoint_path(tmp_path / "mc.csv").exists()

    def test_thread_count_does_not_change_bytes(self, tmp_path):
        cfg_path = write_yaml(tmp_path / "cfg.yaml", small_var_mc_cfg(tmp_path))
        assert main(["montecarlo", "--config", cfg_path, "--threads", "1"]) == 0
        one = (tmp_path / "mc.csv").read_bytes()
        assert main(["montecarlo", "--config", cfg_path, "--threads", "3"]) == 0
        assert (tmp_path / "mc.csv").read_bytes() == one

    def test_resume_from_checkpoint_matches_clean_run(self, tmp_path):
        cfg = small_var_mc_cfg(tmp_path, n_reps=10)
        cfg_path = write_yaml(tmp_path / "cfg.yaml", cfg)
        assert main(["montecarlo", "--config", cfg_path]) == 0
        clean = (tmp_path / "mc.csv").read_bytes()

        # craft a mid-run checkpoint: first 4 replications only
        run = build_montecarlo_run(load_yaml(cfg_path))
        from hdlp.montecarlo import run_replication

        records = [
            run_replication(run.design, run.methods, run.levels, run.seed, rep)
            for rep in range(4)
        ]
        save_checkpoint(
            _checkpoint_path(run.out_path), _config_fingerprint(run), records
        )
        assert main(["montecarlo", "--config", cfg_path]) == 0
        assert (tmp_path / "mc.csv").read_bytes() == clean

    def test_fingerprint_covers_every_field_that_changes_the_report(self, tmp_path):
        run = build_montecarlo_run(load_yaml(
            write_yaml(tmp_path / "cfg.yaml", small_var_mc_cfg(tmp_path))
        ))

        def leaves(obj, path=()):
            for f in dataclasses.fields(obj):
                value = getattr(obj, f.name)
                if dataclasses.is_dataclass(value):
                    yield from leaves(value, path + (f.name,))
                else:
                    yield path + (f.name,)

        def perturbed(value):
            if isinstance(value, bool):
                return not value
            if isinstance(value, (int, float)):
                return value + 1
            if isinstance(value, str):
                return value + "_"
            if value is None:
                return 1
            if isinstance(value, np.ndarray):
                out = value.copy()
                out.flat[-1] += 1.0
                return out
            if isinstance(value, tuple):
                return value[:-1] + (perturbed(value[-1]),) if value else (1,)
            return value.with_name(value.name + "_")  # a Path

        def replaced(obj, path):
            # bypasses validation: the fingerprint only reads fields
            clone = copy.copy(obj)
            value = getattr(obj, path[0])
            new = perturbed(value) if len(path) == 1 else replaced(value, path[1:])
            object.__setattr__(clone, path[0], new)
            return clone

        base = _config_fingerprint(run)
        paths = list(leaves(run))
        assert len(paths) > 25
        for path in paths:
            changed = _config_fingerprint(replaced(run, path)) != base
            assert changed == (path[0] not in ("out_path", "parallelism",
                                               "checkpoint")), path

    def test_stale_checkpoint_ignored(self, tmp_path):
        cfg_path = write_yaml(tmp_path / "cfg.yaml", small_var_mc_cfg(tmp_path))
        ckpt = _checkpoint_path(tmp_path / "mc.csv")
        fingerprint = _config_fingerprint(build_montecarlo_run(load_yaml(cfg_path)))
        # a wrong fingerprint, or records of the version-1 simulator, the
        # version-3 per-path greedy kernel or the version-4 per-horizon tail:
        # the broken record would fail the run if it were resumed
        for version, fp in ((CHECKPOINT_VERSION, "stale"), (1, fingerprint),
                            (3, fingerprint), (4, fingerprint)):
            ckpt.write_text(json.dumps(
                {"version": version, "fingerprint": fp,
                 "blas_threads": _blas_threads(), "records": [{"rep": 0}]}
            ))
            assert main(["montecarlo", "--config", cfg_path]) == 0
            with open(tmp_path / "mc.csv") as fh:
                assert len(list(csv.DictReader(fh))) == 10

    def test_changed_blas_threads_restart_the_run(self, tmp_path, monkeypatch):
        # records hash differently under 1 and 2 BLAS threads, so a checkpoint
        # written under one setting is not resumed under another
        cfg_path = write_yaml(tmp_path / "cfg.yaml", small_var_mc_cfg(tmp_path))
        ckpt = _checkpoint_path(tmp_path / "mc.csv")
        fingerprint = _config_fingerprint(build_montecarlo_run(load_yaml(cfg_path)))
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        save_checkpoint(ckpt, fingerprint, [{"rep": 0}])
        # under the same setting the broken record is resumed and fails the run
        assert main(["montecarlo", "--config", cfg_path]) == 4
        assert not (tmp_path / "mc.csv").exists()
        save_checkpoint(ckpt, fingerprint, [{"rep": 0}])
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
        assert main(["montecarlo", "--config", cfg_path]) == 0
        with open(tmp_path / "mc.csv") as fh:
            assert len(list(csv.DictReader(fh))) == 10

    def test_widespread_failures_exit_4(self, tmp_path):
        cfg = small_var_mc_cfg(tmp_path)
        cfg["estimation"]["horizons"] = [1, 200]  # second horizon never fits
        cfg_path = write_yaml(tmp_path / "cfg.yaml", cfg)
        assert main(["montecarlo", "--config", cfg_path]) == 4
        assert not (tmp_path / "mc.csv").exists()

    def test_dfm_design_rejected(self, tmp_path):
        cfg = small_var_mc_cfg(tmp_path)
        cfg["design"] = {
            "kind": "dfm",
            "phi": [[0.5]],
            "shock_loadings": [[1.0]],
            "loadings": [[1.0]],
            "idio_ar": [[]],
            "idio_scale": [1.0],
        }
        cfg_path = write_yaml(tmp_path / "cfg.yaml", cfg)
        assert main(["montecarlo", "--config", cfg_path]) == 2


class TestLpdidCommand:
    @pytest.fixture
    def panel_csv(self, tmp_path):
        rng = np.random.default_rng(1)
        rows = []
        for i in range(8):
            adopt = 6 + (i % 3) if i < 4 else None
            for t in range(14):
                d = 1 if adopt is not None and t >= adopt else 0
                y = 0.5 * i + 0.2 * t + 0.9 * d + rng.normal(0, 0.2)
                rows.append([f"u{i}", t, y, d, np.sin(i + t)])
        path = tmp_path / "panel.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["unit", "time", "outcome", "treatment", "z"])
            writer.writerows(rows)
        return str(path)

    def test_writes_per_horizon_rows(self, tmp_path, panel_csv):
        cfg = {
            "data": panel_csv,
            "output": str(tmp_path / "did.csv"),
            "horizons": [0, 1, 2],
            "outcome_lags": 1,
            "extra_controls": ["z"],
            "method": "conventional_lp",
            "levels": [0.95],
        }
        cfg_path = write_yaml(tmp_path / "cfg.yaml", cfg)
        assert main(["lpdid", "--config", cfg_path]) == 0
        with open(tmp_path / "did.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["horizon"] for r in rows] == ["0", "1", "2"]
        for r in rows:
            assert float(r["beta"]) == pytest.approx(0.9, abs=0.5)
            assert int(r["n_treated"]) > 0

    def test_missing_column_is_data_error(self, tmp_path, panel_csv):
        cfg = {
            "data": panel_csv,
            "output": str(tmp_path / "did.csv"),
            "horizons": [1],
            "treatment_col": "not_there",
        }
        cfg_path = write_yaml(tmp_path / "cfg.yaml", cfg)
        assert main(["lpdid", "--config", cfg_path]) == 3

    def test_non_absorbing_is_data_error(self, tmp_path):
        path = tmp_path / "bad_panel.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["unit", "time", "outcome", "treatment"])
            for t, d in enumerate([0, 1, 0, 1]):
                writer.writerow(["a", t, float(t), d])
            for t in range(4):
                writer.writerow(["b", t, float(t), 0])
        cfg = {
            "data": str(path),
            "output": str(tmp_path / "did.csv"),
            "horizons": [1],
        }
        cfg_path = write_yaml(tmp_path / "cfg.yaml", cfg)
        assert main(["lpdid", "--config", cfg_path]) == 3

    @pytest.mark.parametrize("bad_row", [
        ["b", 2, 2.0, 0],    # a second (b, 2) row
        ["b", 4, 4.0, 0.5],  # treatment neither 0 nor 1
    ])
    def test_bad_panel_cell_is_data_error(self, tmp_path, capsys, bad_row):
        path = tmp_path / "bad_panel.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["unit", "time", "outcome", "treatment"])
            for unit, adopt in (("a", 2), ("b", 9)):
                for t in range(4):
                    writer.writerow([unit, t, float(t), int(t >= adopt)])
            writer.writerow(bad_row)
        out = tmp_path / "did.csv"
        cfg = {"data": str(path), "output": str(out), "horizons": [1]}
        cfg_path = write_yaml(tmp_path / "cfg.yaml", cfg)
        assert main(["lpdid", "--config", cfg_path]) == 3
        assert "data error" in capsys.readouterr().err
        # no table, no failure log, no leftover temporary file
        assert set(tmp_path.iterdir()) == {path, tmp_path / "cfg.yaml"}

    def test_two_row_sample_with_tuned_c_star_is_a_failed_horizon(
        self, tmp_path, capsys
    ):
        path = tmp_path / "tiny.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["unit", "time", "outcome", "treatment", "c1"])
            for unit, adopt in (("a", 2), ("b", None)):
                for t in (1, 2, 3):
                    d = int(adopt is not None and t >= adopt)
                    writer.writerow([unit, t, 0.5 * t + d, d, np.sin(t + (unit == "b"))])
        out = tmp_path / "did.csv"
        cfg = {"data": str(path), "output": str(out), "horizons": [1],
               "extra_controls": ["c1"], "selection": {"c_star": "auto"}}
        cfg_path = write_yaml(tmp_path / "cfg.yaml", cfg)
        assert main(["lpdid", "--config", cfg_path]) == 4
        err = capsys.readouterr().err
        assert "internal error" not in err and "Traceback" not in err
        assert "estimation failed for 1 horizon(s)" in err
        log = (tmp_path / "did.csv.log").read_text()
        assert log.startswith("horizon 1: InsufficientSample: ")

    def test_bogus_variance_is_config_error(self, tmp_path, capsys, panel_csv):
        cfg = {"data": panel_csv, "output": str(tmp_path / "did.csv"),
               "horizons": [1], "variance": "bogus"}
        cfg_path = write_yaml(tmp_path / "cfg.yaml", cfg)
        assert main(["lpdid", "--config", cfg_path]) == 2
        assert "config error" in capsys.readouterr().err
        assert set(tmp_path.iterdir()) == {tmp_path / "panel.csv",
                                           tmp_path / "cfg.yaml"}


class TestExampleConfigs:
    def test_bundled_configs_parse(self, tmp_path):
        from hdlp.config import (
            build_estimate_run,
            build_lpdid_run,
            build_montecarlo_run,
            build_simulate_run,
        )

        build_estimate_run(load_yaml("configs/estimate.yaml"))
        build_simulate_run(load_yaml("configs/simulate.yaml"))
        build_montecarlo_run(load_yaml("configs/montecarlo.yaml"))
        build_lpdid_run(load_yaml("configs/lpdid.yaml"))
        # the benchmark's configs, read through the same builders
        build_estimate_run(load_yaml("perfbench/configs/estimate.yaml"))
        build_lpdid_run(load_yaml("perfbench/configs/lpdid.yaml"))
