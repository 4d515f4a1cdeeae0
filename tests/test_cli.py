import contextlib
import copy
import csv
import dataclasses
import hashlib
import io
import json
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

import hdlp.cli
import hdlp.lp
from hdlp.cli import (
    CHECKPOINT_VERSION,
    _blas_threads,
    _checkpoint_path,
    _config_fingerprint,
    _write_atomic,
    load_checkpoint,
    main,
    read_long_csv,
    read_wide_csv,
    save_checkpoint,
)
from hdlp.config import build_lpdid_run, build_montecarlo_run, load_yaml
from hdlp.errors import DataError
from hdlp.montecarlo import run_monte_carlo
from reference import replication


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


def short_run_records(run, n_reps):
    """The records of run's first n_reps replications, from a real run."""
    records = []
    run_monte_carlo(run.design, run.methods, n_reps, run.levels, run.seed,
                    records=records)
    return records


def rewrite_checkpoint_records(path, records):
    """Replace the records line of the checkpoint at path, keeping its
    header: an edit made after the file was written."""
    header = path.read_text().splitlines()[0]
    path.write_text(f"{header}\n{json.dumps(records)}\n")


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


def var_simulate_cfg(tmp_path, **overrides):
    cfg = {
        "output": str(tmp_path / "var.csv"),
        "seed": 3,
        "T": 60,
        "response": 2,
        "innovation": "y1",
        "horizons": [0, 1, 2],
        "design": {
            "kind": "var",
            "coefficients": [[[0.5, 0.0], [0.2, 0.3]], [[0.1, 0.0], [0.0, 0.1]]],
            "sigma": [[1.0, 0.3], [0.3, 1.0]],
            "y1_rho": 0.6,
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

    def test_duplicate_series_name_is_data_error(self, tmp_path, capsys):
        data = write_wide_csv(tmp_path / "dup.csv", ["y", "y", "x"],
                              np.ones((40, 3)))
        cfg_path = write_yaml(tmp_path / "cfg.yaml", estimate_cfg(tmp_path, data))
        assert main(["estimate", "--config", cfg_path]) == 3
        err = capsys.readouterr().err
        assert err == f"data error: {data}: column names must be unique; 'y' repeats\n"

    @pytest.mark.parametrize("key, value", [
        ("response", "nosuch"), ("shock", "nosuch"),
        ("contemporaneous", ["nosuch"]), ("lagged", ["y", "x", "nosuch"]),
    ])
    def test_series_missing_from_the_csv_is_data_error(self, tmp_path, capsys,
                                                        sim_csv, key, value):
        # refused before any horizon is estimated: no table and no failure log
        cfg_path = write_yaml(tmp_path / "cfg.yaml",
                              estimate_cfg(tmp_path, sim_csv, **{key: value}))
        assert main(["estimate", "--config", cfg_path]) == 3
        assert capsys.readouterr().err == (
            f"data error: {sim_csv}: missing column 'nosuch'\n")
        assert not (tmp_path / "irf.csv").exists()
        assert not (tmp_path / "irf.csv.log").exists()

    def test_unknown_key_is_config_error(self, tmp_path, sim_csv):
        cfg = estimate_cfg(tmp_path, sim_csv)
        cfg["unexpected_key"] = 1
        cfg_path = write_yaml(tmp_path / "cfg.yaml", cfg)
        assert main(["estimate", "--config", cfg_path]) == 2
        assert not (tmp_path / "irf.csv").exists()

    @pytest.mark.parametrize("key, value, message", [
        ("horizons", [1, 1, 2], "horizons must be nonempty, nonnegative and distinct"),
        ("levels", [0.9, 0.95, 0.9], "a list of distinct levels"),
        ("selection", {"c_star": 2.0, "max_steps": 0},
         "estimate config.selection.max_steps must be an integer >= 1, got 0"),
        ("selection", {"c_star": 2.0, "max_steps": -3},
         "estimate config.selection.max_steps must be an integer >= 1, got -3"),
        ("selection", {"c_star": 2.0, "delta": 0.5},
         "estimate config.selection.delta must be a number > 1, got 0.5"),
        ("selection", {"c_star": 2.0, "mbar_scale": 0},
         "estimate config.selection.mbar_scale must be a number > 0, got 0"),
        ("selection", {"c_star": 2.0, "eval_fraction": 0.5},
         "estimate config.selection.eval_fraction must be a number strictly "
         "between 0 and 0.5, got 0.5"),
    ])
    def test_repeated_horizon_or_level_or_step_cap_below_one_is_config_error(
            self, tmp_path, sim_csv, capsys, key, value, message):
        cfg_path = write_yaml(tmp_path / "cfg.yaml",
                              estimate_cfg(tmp_path, sim_csv, **{key: value}))
        assert main(["estimate", "--config", cfg_path]) == 2
        assert message in capsys.readouterr().err
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

        monkeypatch.setattr("hdlp.cli._irfs", broken)
        cfg_path = write_yaml(tmp_path / "cfg.yaml", estimate_cfg(tmp_path, sim_csv))
        assert main(["estimate", "--config", cfg_path]) == 4
        err = capsys.readouterr().err
        assert "internal error: TypeError: injected bug" in err
        assert "Traceback" in err
        assert not (tmp_path / "irf.csv").exists()

    def test_one_dataset_build_per_horizon_for_both_methods(self, tmp_path, sim_csv,
                                                            monkeypatch):
        horizons = []
        build = hdlp.lp.build_lp_dataset

        def counted(data, spec, h, *args, **kwargs):
            horizons.append(h)
            return build(data, spec, h, *args, **kwargs)

        monkeypatch.setattr(hdlp.lp, "build_lp_dataset", counted)
        cfg = estimate_cfg(tmp_path, sim_csv, horizons={"from": 1, "to": 20})
        cfg_path = write_yaml(tmp_path / "cfg.yaml", cfg)
        assert main(["estimate", "--config", cfg_path]) == 0
        assert horizons == list(range(1, 21))
        with open(tmp_path / "irf.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [(r["method"], r["horizon"]) for r in rows] == [
            (method, str(h)) for method in ("double_oga", "conventional_lp")
            for h in range(1, 21)]

    def test_a_control_float64_cannot_square_is_logged(self, tmp_path, sim_csv):
        # every horizon of both methods fails with NonFinite, and the failure
        # log names it: the control is not silently left out of the design
        with open(sim_csv) as fh:
            rows = list(csv.reader(fh))
        values = np.array(rows[1:], dtype=float)
        values[:, 2] *= 1e200
        data = write_wide_csv(tmp_path / "big.csv", rows[0], values)
        cfg_path = write_yaml(tmp_path / "cfg.yaml", estimate_cfg(tmp_path, data))
        with np.errstate(all="ignore"):
            assert main(["estimate", "--config", cfg_path]) == 4
        assert not (tmp_path / "irf.csv").exists()
        log = (tmp_path / "irf.csv.log").read_text().splitlines()
        assert len(log) == 6
        assert all(line.endswith(": NonFinite: the squares of a candidate control "
                                 "overflow") for line in log)

    def test_an_overflowing_control_warns_nothing(self, tmp_path, capsys, sim_csv):
        # the overflow is checked, so numpy prints no warning before hdlp's
        # own line: under an error filter, a warning would be a crash
        with open(sim_csv) as fh:
            rows = list(csv.reader(fh))
        values = np.array(rows[1:], dtype=float)
        values[:, 2] *= 1e200
        data = write_wide_csv(tmp_path / "big.csv", rows[0], values)
        cfg_path = write_yaml(tmp_path / "cfg.yaml", estimate_cfg(tmp_path, data))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["estimate", "--config", cfg_path]) == 4
        assert capsys.readouterr().err == (
            f"estimation failed for 6 horizon(s); detail in {tmp_path / 'irf.csv.log'}\n")

    def test_levels_alike_to_six_digits_get_distinct_columns(self, tmp_path, sim_csv):
        cfg = estimate_cfg(tmp_path, sim_csv, levels=[0.95, 0.9500001])
        assert main(["estimate", "--config", write_yaml(tmp_path / "cfg.yaml", cfg)]) == 0
        with open(tmp_path / "irf.csv") as fh:
            header = next(csv.reader(fh))
        assert len(set(header)) == len(header)
        assert header[4:8] == ["ci_low_0.95", "ci_high_0.95", "ci_low_0.9500001",
                               "ci_high_0.9500001"]

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
        records = [
            replication(run.design, run.methods, run.levels, run.seed, rep)
            for rep in range(4)
        ]
        save_checkpoint(
            _checkpoint_path(run.out_path), _config_fingerprint(run), records
        )
        assert main(["montecarlo", "--config", cfg_path]) == 0
        assert (tmp_path / "mc.csv").read_bytes() == clean

    def test_an_interrupted_run_resumes_from_its_periodic_checkpoint(
            self, tmp_path, capsys, monkeypatch):
        cfg_path = write_yaml(tmp_path / "cfg.yaml", small_var_mc_cfg(tmp_path))
        assert main(["montecarlo", "--config", cfg_path]) == 0
        clean = (tmp_path / "mc.csv").read_bytes()
        (tmp_path / "mc.csv").unlink()

        def stop_after_five(*args, progress, **kwargs):
            def counted(done, total):
                progress(done, total)
                if done == 5:
                    raise KeyboardInterrupt
            return run_monte_carlo(*args, progress=counted, **kwargs)

        monkeypatch.setattr(hdlp.cli, "CHECKPOINT_EVERY", 2)
        monkeypatch.setattr(hdlp.cli, "run_monte_carlo", stop_after_five)
        with pytest.raises(KeyboardInterrupt):
            main(["montecarlo", "--config", cfg_path])
        run = build_montecarlo_run(load_yaml(cfg_path))
        ckpt = _checkpoint_path(run.out_path)
        saved = load_checkpoint(ckpt, _config_fingerprint(run))
        assert saved == short_run_records(run, 4)
        assert not (tmp_path / "mc.csv").exists()

        monkeypatch.setattr(hdlp.cli, "run_monte_carlo", run_monte_carlo)
        capsys.readouterr()
        assert main(["montecarlo", "--config", cfg_path]) == 0
        assert "resuming from checkpoint with 4 replications" in capsys.readouterr().err
        assert (tmp_path / "mc.csv").read_bytes() == clean
        assert not ckpt.exists()

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

    def test_stale_checkpoint_ignored(self, tmp_path, capsys):
        cfg_path = write_yaml(tmp_path / "cfg.yaml", small_var_mc_cfg(tmp_path))
        ckpt = _checkpoint_path(tmp_path / "mc.csv")
        run = build_montecarlo_run(load_yaml(cfg_path))
        fingerprint = _config_fingerprint(run)
        text = json.dumps(short_run_records(run, 2))
        digest = hashlib.sha256(text.encode()).hexdigest()

        def write(version, fp):  # a correct digest: only version or fp can reject
            header = {"version": version, "fingerprint": fp,
                      "blas_threads": _blas_threads(), "digest": digest}
            ckpt.write_text(f"{json.dumps(header)}\n{text}\n")

        write(CHECKPOINT_VERSION, fingerprint)
        assert main(["montecarlo", "--config", cfg_path]) == 0
        assert "resuming from checkpoint with 2 replications" in capsys.readouterr().err
        # a wrong fingerprint, or records of the version-1 simulator, the
        # version-3 per-path greedy kernel, the version-4 per-horizon tail,
        # the version-5 no-selection residuals off the full range basis, the
        # version-6 ones off the range basis of a tall design or the
        # version-7 one-line file whose records were checked by shape
        for version, fp in ((CHECKPOINT_VERSION, "stale"), (1, fingerprint),
                            (3, fingerprint), (4, fingerprint), (5, fingerprint),
                            (6, fingerprint), (7, fingerprint)):
            write(version, fp)
            assert main(["montecarlo", "--config", cfg_path]) == 0
            assert "resuming" not in capsys.readouterr().err
            with open(tmp_path / "mc.csv") as fh:
                assert len(list(csv.DictReader(fh))) == 10

    @pytest.mark.parametrize("content", [b"\xff\xfe{}", b"[1]", b"null", b"{"],
                             ids=["not UTF-8", "array", "null", "not JSON"])
    def test_checkpoint_that_holds_no_json_object_is_ignored(self, tmp_path, capsys,
                                                             content):
        cfg_path = write_yaml(tmp_path / "cfg.yaml", small_var_mc_cfg(tmp_path))
        _checkpoint_path(tmp_path / "mc.csv").write_bytes(content)
        assert main(["montecarlo", "--config", cfg_path]) == 0
        assert "resuming" not in capsys.readouterr().err
        with open(tmp_path / "mc.csv") as fh:
            assert len(list(csv.DictReader(fh))) == 10

    @pytest.mark.parametrize("how", [
        "records not a list", "record not a dict", "rep only", "misnumbered",
        "repeated", "method missing", "horizon missing", "level missing",
        "interval not a pair", "interval of strings", "error not a string",
    ])
    def test_malformed_records_restart_the_run(self, tmp_path, capsys, how):
        # real records rewritten after they were saved no longer match the digest
        cfg_path = write_yaml(tmp_path / "cfg.yaml", small_var_mc_cfg(tmp_path))
        run = build_montecarlo_run(load_yaml(cfg_path))
        records = short_run_records(run, 3)
        ckpt = _checkpoint_path(run.out_path)
        save_checkpoint(ckpt, _config_fingerprint(run), records)
        cell = records[0]["methods"]["double_oga"]["1"]
        if how == "records not a list":
            records = 5
        elif how == "record not a dict":
            records = [1]
        elif how == "rep only":
            records = [{"rep": 0}]
        elif how == "misnumbered":
            records = records[1:]
        elif how == "repeated":
            records = [records[0], records[0]]
        elif how == "method missing":
            del records[1]["methods"]["conventional_lp"]
        elif how == "horizon missing":
            del records[2]["methods"]["double_oga"]["5"]
        elif how == "level missing":
            cell["cis"].clear()
        elif how == "interval not a pair":
            cell["cis"]["0.95"].pop()
        elif how == "interval of strings":
            cell["cis"]["0.95"] = ["0.1", "0.2"]
        else:
            records[0]["methods"]["double_oga"]["1"] = {"ok": False, "error": 5}
        rewrite_checkpoint_records(ckpt, records)
        assert main(["montecarlo", "--config", cfg_path]) == 0
        assert "resuming" not in capsys.readouterr().err
        with open(tmp_path / "mc.csv") as fh:
            assert len(list(csv.DictReader(fh))) == 10

    def test_an_edited_interval_is_not_resumed(self, tmp_path, capsys):
        # well-formed records with one number changed: only the digest tells
        cfg_path = write_yaml(tmp_path / "cfg.yaml", small_var_mc_cfg(tmp_path))
        assert main(["montecarlo", "--config", cfg_path]) == 0
        clean = (tmp_path / "mc.csv").read_bytes()
        run = build_montecarlo_run(load_yaml(cfg_path))
        records = short_run_records(run, 4)
        ckpt = _checkpoint_path(run.out_path)
        save_checkpoint(ckpt, _config_fingerprint(run), records)
        records[0]["methods"]["double_oga"]["1"]["cis"]["0.95"] = [-1e9, 1e9]
        rewrite_checkpoint_records(ckpt, records)
        assert main(["montecarlo", "--config", cfg_path]) == 0
        assert "resuming" not in capsys.readouterr().err
        assert (tmp_path / "mc.csv").read_bytes() == clean

    def test_changed_blas_threads_restart_the_run(self, tmp_path, capsys, monkeypatch):
        # records hash differently under 1 and 2 BLAS threads, so a checkpoint
        # written under one setting is not resumed under another
        cfg_path = write_yaml(tmp_path / "cfg.yaml", small_var_mc_cfg(tmp_path))
        ckpt = _checkpoint_path(tmp_path / "mc.csv")
        run = build_montecarlo_run(load_yaml(cfg_path))
        records = short_run_records(run, 2)
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        save_checkpoint(ckpt, _config_fingerprint(run), records)
        assert main(["montecarlo", "--config", cfg_path]) == 0
        assert "resuming from checkpoint with 2 replications" in capsys.readouterr().err
        save_checkpoint(ckpt, _config_fingerprint(run), records)
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
        assert main(["montecarlo", "--config", cfg_path]) == 0
        assert "resuming" not in capsys.readouterr().err
        with open(tmp_path / "mc.csv") as fh:
            assert len(list(csv.DictReader(fh))) == 10

    def test_widespread_failures_exit_4(self, tmp_path):
        cfg = small_var_mc_cfg(tmp_path)
        cfg["estimation"]["horizons"] = [1, 200]  # second horizon never fits
        cfg_path = write_yaml(tmp_path / "cfg.yaml", cfg)
        assert main(["montecarlo", "--config", cfg_path]) == 4
        assert not (tmp_path / "mc.csv").exists()

    @pytest.mark.parametrize("role, value", [
        ("response", "y9"), ("shock", "y9"),
        ("contemporaneous", ["y2", "y9"]), ("lagged", ["y1", "y2", "y9"]),
    ])
    def test_series_outside_the_var_is_config_error(self, tmp_path, capsys, role,
                                                    value):
        cfg = small_var_mc_cfg(tmp_path)
        cfg["estimation"][role] = value  # the VAR has y1..y3
        cfg_path = write_yaml(tmp_path / "cfg.yaml", cfg)
        assert main(["montecarlo", "--config", cfg_path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: invalid montecarlo config.estimation: ")
        assert "'y9' is not a series of the VAR" in err
        assert "replications" not in err  # refused before any replication runs
        assert not (tmp_path / "mc.csv").exists()

    def test_checkpoint_path_that_is_a_directory_is_config_error(self, tmp_path,
                                                                  capsys):
        cfg_path = write_yaml(tmp_path / "cfg.yaml", small_var_mc_cfg(tmp_path))
        _checkpoint_path(tmp_path / "mc.csv").mkdir()
        assert main(["montecarlo", "--config", cfg_path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: montecarlo config.output: its checkpoint ")
        assert "must be a file path, not an existing directory" in err
        assert not (tmp_path / "mc.csv").exists()
        # without checkpoints the directory is never read or written
        cfg_path = write_yaml(tmp_path / "cfg.yaml",
                              small_var_mc_cfg(tmp_path, checkpoint=False))
        assert main(["montecarlo", "--config", cfg_path]) == 0
        assert (tmp_path / "mc.csv").is_file()

    def test_repeated_horizon_is_config_error(self, tmp_path, capsys):
        # each horizon would be estimated and counted against the failure limit twice
        cfg = small_var_mc_cfg(tmp_path)
        cfg["estimation"]["horizons"] = [1, 2, 1]
        cfg_path = write_yaml(tmp_path / "cfg.yaml", cfg)
        assert main(["montecarlo", "--config", cfg_path]) == 2
        assert "distinct" in capsys.readouterr().err
        assert not (tmp_path / "mc.csv").exists()


@pytest.mark.parametrize("command, base", [("simulate", var_simulate_cfg),
                                           ("montecarlo", small_var_mc_cfg)])
def test_dfm_design_rejected(tmp_path, capsys, command, base):
    # the dynamic factor model design was retired; both commands name the kinds
    cfg = base(tmp_path)
    cfg["design"] = {"kind": "dfm", "phi": [[0.5]], "shock_loadings": [[1.0]],
                     "loadings": [[1.0]], "idio_ar": [[]], "idio_scale": [1.0]}
    assert main([command, "--config", write_yaml(tmp_path / "cfg.yaml", cfg)]) == 2
    assert capsys.readouterr().err == (
        f"config error: {command} config.design.kind must be one of section3, var, "
        "got 'dfm'\n")
    assert set(tmp_path.iterdir()) == {tmp_path / "cfg.yaml"}


@pytest.fixture
def panel_csv(tmp_path):
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


class TestLpdidCommand:
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

    @pytest.mark.parametrize("time_effects", [True, False])
    def test_an_overflowing_control_warns_nothing(self, tmp_path, capsys,
                                                  time_effects):
        # as for estimate: with or without time effects, only hdlp's line
        rng = np.random.default_rng(1)
        path = tmp_path / "panel.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["unit", "time", "outcome", "treatment", "z"])
            for i in range(8):
                for t in range(14):
                    d = int(i < 4 and t >= 6 + i % 3)
                    writer.writerow([f"u{i}", t, 0.9 * d + rng.normal(), d,
                                     1e200 * np.sin(i + t)])
        cfg = {"data": str(path), "output": str(tmp_path / "did.csv"),
               "horizons": [0, 1], "outcome_lags": 1, "extra_controls": ["z"],
               "method": "conventional_lp", "time_effects": time_effects}
        cfg_path = write_yaml(tmp_path / "cfg.yaml", cfg)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["lpdid", "--config", cfg_path]) == 4
        assert capsys.readouterr().err == (
            f"estimation failed for 2 horizon(s); detail in {tmp_path / 'did.csv.log'}\n")

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

    @pytest.mark.parametrize("time", [
        "100000000000000000000", "2.5",
        pytest.param("1" + "0" * 400, id="too-wide-even-for-a-float")])
    def test_out_of_range_or_non_integral_time_is_data_error(
        self, tmp_path, capsys, time
    ):
        path = tmp_path / "panel.csv"
        path.write_text(f"unit,time,outcome,treatment\na,1,0.0,0\na,{time},1.0,1\n")
        cfg = {"data": str(path), "output": str(tmp_path / "did.csv"),
               "horizons": [1]}
        cfg_path = write_yaml(tmp_path / "cfg.yaml", cfg)
        assert main(["lpdid", "--config", cfg_path]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and "Traceback" not in err

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

    def test_sample_under_the_variance_floor_is_insufficient(self, tmp_path, capsys):
        # unit a adopts at 2, b and c never: horizon 1 keeps a at 2 and b, c
        # at 1 and 2, five rows, under the long-run variance's floor of 8
        path = tmp_path / "small.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["unit", "time", "outcome", "treatment"])
            for k, unit in enumerate("abc"):
                for t in range(4):
                    d = int(unit == "a" and t >= 2)
                    writer.writerow([unit, t, 0.5 * t + d + 0.1 * k * t * t, d])
        out = tmp_path / "did.csv"
        cfg = {"data": str(path), "output": str(out), "horizons": [1]}
        assert main(["lpdid", "--config", write_yaml(tmp_path / "cfg.yaml", cfg)]) == 4
        err = capsys.readouterr().err
        assert "internal error" not in err and "Traceback" not in err
        log = (tmp_path / "did.csv.log").read_text()
        assert log == ("horizon 1: InsufficientSample: need at least 8 observations "
                       "for the variance\n")
        assert not out.exists()

    def test_repeated_horizon_is_config_error(self, tmp_path, capsys, panel_csv):
        cfg = {"data": panel_csv, "output": str(tmp_path / "did.csv"),
               "horizons": [0, 0]}
        cfg_path = write_yaml(tmp_path / "cfg.yaml", cfg)
        assert main(["lpdid", "--config", cfg_path]) == 2
        assert "distinct" in capsys.readouterr().err
        assert not (tmp_path / "did.csv").exists()

    def test_bogus_variance_is_config_error(self, tmp_path, capsys, panel_csv):
        cfg = {"data": panel_csv, "output": str(tmp_path / "did.csv"),
               "horizons": [1], "variance": "bogus"}
        cfg_path = write_yaml(tmp_path / "cfg.yaml", cfg)
        assert main(["lpdid", "--config", cfg_path]) == 2
        assert "config error" in capsys.readouterr().err
        assert set(tmp_path.iterdir()) == {tmp_path / "panel.csv",
                                           tmp_path / "cfg.yaml"}


class TestCsvReaderFrame:
    """The file-level checks both CSV readers share: exit 3, path:line."""

    HEADERS = {"estimate": "y,x,z", "lpdid": "unit,time,outcome,treatment"}
    ROWS = {"estimate": "0.5,1.0,2.0", "lpdid": "a,1,0.5,0"}

    @pytest.mark.parametrize("case, body, message", [
        ("missing", None, "data file not found: {path}"),
        ("directory", "/", "data file not found: {path}"),  # "/": a directory
        ("empty", "", "{path} is empty"),
        ("header only", "{header}\n", "{path} has no data rows"),
        ("blank lines only", "{header}\n\n\n", "{path} has no data rows"),
        ("ragged row", "{header}\n{row}\n{row},9\n", "{path}:3: expected {n} cells"),
        ("short row after a blank line", "{header}\n{row}\n\n1\n",
         "{path}:4: expected {n} cells"),
        # a surrogate escape writes one raw byte: 0xff is never UTF-8
        ("byte that is not UTF-8", "{header}\n{row}\n\n\udcff{row}\n",
         "{path}:4: not UTF-8 text"),
        ("field over the csv module's limit", "{header}\n{row}\n{over_long}",
         "{path}:3: field larger than field limit (131072)"),
    ])
    @pytest.mark.parametrize("command", ["estimate", "lpdid"])
    def test_file_level_problem_is_data_error(self, tmp_path, capsys, command,
                                              case, body, message):
        path = tmp_path / "data.csv"
        header = self.HEADERS[command]
        if body == "/":
            path.mkdir()
        elif body is not None:
            body = body.format(header=header, row=self.ROWS[command],
                               over_long="9" * (csv.field_size_limit() + 1))
            path.write_bytes(body.encode("utf-8", "surrogateescape"))
        if command == "estimate":
            cfg = estimate_cfg(tmp_path, str(path))
        else:
            cfg = {"data": str(path), "output": str(tmp_path / "did.csv"),
                   "horizons": [1]}
        cfg_path = write_yaml(tmp_path / "cfg.yaml", cfg)
        assert main([command, "--config", cfg_path]) == 3
        n = len(header.split(","))
        expected = message.format(path=path, n=n)
        assert capsys.readouterr().err == f"data error: {expected}\n"

    @pytest.mark.parametrize("bad_row, message", [
        ("u2,1,0.1", "4: expected 4 cells"), ("u2,1,x,0", "4: malformed cell"),
        ("u2,1,0.1,0\n\udcff", "5: not UTF-8 text"),
    ])
    def test_a_quoted_line_break_counts_as_a_line(self, tmp_path, capsys, bad_row,
                                                  message):
        # the unit "u\n1" spans lines 2 and 3; errors name the physical line
        path = tmp_path / "panel.csv"
        body = f'unit,time,outcome,treatment\n"u\n1",1,0.5,0\n{bad_row}\n'
        path.write_bytes(body.encode("utf-8", "surrogateescape"))
        cfg = {"data": str(path), "output": str(tmp_path / "did.csv"), "horizons": [0]}
        assert main(["lpdid", "--config", write_yaml(tmp_path / "cfg.yaml", cfg)]) == 3
        assert capsys.readouterr().err == f"data error: {path}:{message}\n"

    @pytest.mark.parametrize("command", ["estimate", "lpdid"])
    def test_byte_order_mark_changes_nothing(self, tmp_path, sim_csv, panel_csv,
                                             command):
        # spreadsheet programs save UTF-8 CSVs with a leading byte-order mark
        plain = Path(sim_csv if command == "estimate" else panel_csv)
        marked = tmp_path / "marked.csv"
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        tables = []
        for data in (plain, marked):
            out = tmp_path / f"{data.stem}_table.csv"
            if command == "estimate":
                cfg = estimate_cfg(tmp_path, str(data), output=str(out))
            else:
                cfg = {"data": str(data), "output": str(out), "horizons": [0, 1, 2],
                       "outcome_lags": 1, "extra_controls": ["z"]}
            assert main([command, "--config", write_yaml(tmp_path / "cfg.yaml", cfg)]) == 0
            tables.append(out.read_bytes())
        assert tables[0] == tables[1]


# cells float() reads, including the empty cell the reader reads as NaN
NUMERIC_CELLS = ["", "nan", "-inf", "inf", "-0", "1e400", "-1e400", "1e-320", " 4 ",
                 "1_0", "0.5", "-3.25e2"]
# cells that break a column: text, a 20-digit time, a non-integral time,
# quoted commas
ODD_CELLS = ["x", "100000000000000000000", "-100000000000000000000", "2.5", "1,5",
             "u,1", '"', "nan", ""]


def cell_value(cell: str) -> float:
    return float(cell) if cell != "" else np.nan


@st.composite
def long_csvs(draw):
    """Data rows of a long panel CSV (unit, time, outcome, treatment, c1):
    up to six odd numeric cells among the outcomes and covariates, up to
    two cells of text, 20-digit times and the like anywhere, maybe a ragged
    row, in random row order."""
    n_units, n_times = draw(st.integers(1, 8)), draw(st.integers(2, 6))
    number = st.floats(-1e3, 1e3).map(repr)
    rows = []
    for i in range(n_units):
        adopt = draw(st.integers(1, n_times))  # n_times: never treated
        rows += [[f"u,{i}" if i % 2 else f"u{i}", str(t), draw(number),
                  str(int(t >= adopt)), draw(number)] for t in range(n_times)]
    row = st.integers(0, len(rows) - 1)
    numeric = st.tuples(row, st.sampled_from([2, 4]), st.sampled_from(NUMERIC_CELLS))
    odd = st.tuples(row, st.integers(0, 4),
                    st.one_of(st.sampled_from(ODD_CELLS), st.text(max_size=3)))
    for r, c, cell in draw(st.lists(numeric, max_size=6)) + draw(st.lists(odd, max_size=2)):
        rows[r][c] = cell
    if draw(st.integers(0, 9)) == 0:  # one ragged row
        r = draw(st.integers(0, len(rows) - 1))
        rows[r] = rows[r][:-1] if draw(st.booleans()) else rows[r] + ["9"]
    return draw(st.permutations(rows))


@st.composite
def wide_csvs(draw):
    """A wide CSV's header (y, x, z, maybe one renamed or repeated) and data
    rows: floats with up to three odd or text cells, maybe a ragged row."""
    header = ["y", "x", "z"]
    if draw(st.integers(0, 9)) == 0:
        header[draw(st.integers(0, 2))] = draw(st.sampled_from(["y", "x", "", "w"]))
    n_rows = draw(st.integers(1, 30))
    rows = draw(st.lists(st.lists(st.floats(-1e3, 1e3).map(repr), min_size=3,
                                  max_size=3), min_size=n_rows, max_size=n_rows))
    odd = st.tuples(st.integers(0, n_rows - 1), st.integers(0, 2),
                    st.one_of(st.sampled_from(NUMERIC_CELLS + ODD_CELLS),
                              st.text(max_size=3)))
    for r, c, cell in draw(st.lists(odd, max_size=3)):
        rows[r][c] = cell
    if draw(st.integers(0, 9)) == 0:  # one ragged row
        r = draw(st.integers(0, n_rows - 1))
        rows[r] = rows[r][:-1] if draw(st.booleans()) else rows[r] + ["9"]
    return header, rows


# byte sequences that are never UTF-8 (stray continuation, truncated lead,
# encoded surrogate, overlong form, past U+10FFFF), and a field over the csv
# module's size limit
NOT_UTF8 = [b"\xff", b"\xfe", b"\x80", b"\xc3", b"\xe2\x82", b"\xed\xa0\x80",
            b"\xc0\xaf", b"\xf4\x90\x80\x80"]
OVER_LONG = b"9" * (csv.field_size_limit() + 1)


def run_captured(command, cfg_path) -> tuple[int, str]:
    """main's exit code and stderr for one command."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main([command, "--config", str(cfg_path)])
    return code, err.getvalue()


def write_table(path, header, rows, bom=False, splice=None, at=0):
    """Write the CSV at path, with the bytes splice inserted at byte at."""
    text = io.StringIO(newline="")
    csv.writer(text).writerows([header] + rows)
    raw = ("\ufeff" if bom else "").encode() + text.getvalue().encode("utf-8")
    at = min(at, len(raw))
    path.write_bytes(raw[:at] + (splice or b"") + raw[at:])
    return raw[:at].count(b"\n") + 1  # the line of the spliced bytes


def assert_spliced_data_error(code, err, path, line):
    """Spliced bytes exit 3, as the first problem of the file that the
    reader meets does; a message about bytes that are not UTF-8 names their
    line."""
    assert code == 3 and err.startswith(f"data error: {path}")
    assert "internal error" not in err and "Traceback" not in err
    if "UTF-8" in err:
        assert err == f"data error: {path}:{line}: not UTF-8 text\n"


class TestEstimateFuzz:
    @given(wide_csvs(), st.booleans(), st.sampled_from([None, OVER_LONG] + NOT_UTF8),
           st.integers(0, 4000))
    @settings(max_examples=40, deadline=None)
    def test_random_wide_csvs_exit_cleanly_and_parse_like_float(
            self, table, bom, splice, at):
        header, rows = table
        with tempfile.TemporaryDirectory() as tmp:
            path, cfg_path = Path(tmp) / "data.csv", Path(tmp) / "cfg.yaml"
            line = write_table(path, header, rows, bom, splice, at)
            cfg = estimate_cfg(Path(tmp), str(path), methods=["double_oga"],
                               horizons=[1, 2])
            write_yaml(cfg_path, cfg)
            code, err = run_captured("estimate", cfg_path)
            if splice is not None:
                assert_spliced_data_error(code, err, path, line)
                return
            assert code in (0, 3, 4)
            assert "internal error" not in err
            try:
                data = read_wide_csv(path)
            except DataError:
                assert code == 3
                return
        assert data.columns == tuple(header)
        want = np.array([[float(cell) for cell in row] for row in rows])
        assert data.values.tobytes() == want.tobytes()


class TestLpdidFuzz:
    @given(long_csvs(), st.booleans(), st.integers(0, 1), st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_random_long_csvs_exit_cleanly_and_parse_like_float(
            self, rows, bom, lags, covariate):
        with tempfile.TemporaryDirectory() as tmp:
            path, cfg_path = Path(tmp) / "panel.csv", Path(tmp) / "cfg.yaml"
            with open(path, "w", newline="", encoding="utf-8") as fh:
                fh.write("\ufeff" if bom else "")
                writer = csv.writer(fh)
                writer.writerow(["unit", "time", "outcome", "treatment", "c1"])
                writer.writerows(rows)
            cfg = {"data": str(path), "output": str(Path(tmp) / "did.csv"),
                   "horizons": [0, 1], "outcome_lags": lags,
                   "extra_controls": ["c1"] if covariate else [],
                   "selection": {"c_star": 2.0}}
            write_yaml(cfg_path, cfg)
            code, err = run_captured("lpdid", cfg_path)
            assert code in (0, 3, 4)
            assert "internal error" not in err
            try:
                panel = read_long_csv(path, build_lpdid_run(load_yaml(cfg_path)))
            except DataError:
                assert code == 3
                return
        columns = [(panel.outcome, 2), (panel.treatment, 3)]
        columns += [(panel.covariates["c1"], 4)] if covariate else []
        for parsed, c in columns:
            want = np.array([cell_value(row[c]) for row in rows])
            assert parsed.dtype == np.float64 and parsed.tobytes() == want.tobytes()

    @given(long_csvs(), st.booleans(), st.sampled_from([OVER_LONG] + NOT_UTF8),
           st.integers(0, 4000))
    @settings(max_examples=40, deadline=None)
    def test_spliced_raw_bytes_are_data_errors(self, rows, bom, splice, at):
        with tempfile.TemporaryDirectory() as tmp:
            path, cfg_path = Path(tmp) / "panel.csv", Path(tmp) / "cfg.yaml"
            line = write_table(path, ["unit", "time", "outcome", "treatment", "c1"],
                               rows, bom, splice, at)
            write_yaml(cfg_path, {"data": str(path), "output": str(Path(tmp) / "did.csv"),
                                  "horizons": [0, 1], "extra_controls": ["c1"]})
            assert_spliced_data_error(*run_captured("lpdid", cfg_path), path, line)


class TestOverrideFlags:
    """--seed and --threads set what only some commands read; elsewhere
    they are config errors (exit 2), raised before any file is written."""

    @pytest.mark.parametrize("command, flag, value", [
        ("estimate", "--seed", "7"), ("lpdid", "--seed", "7"),
        ("estimate", "--threads", "2"), ("lpdid", "--threads", "2"),
        ("simulate", "--threads", "2"),
    ])
    def test_flag_nothing_reads_is_config_error(self, tmp_path, capsys, sim_csv,
                                                panel_csv, command, flag, value):
        cfg = {
            "estimate": estimate_cfg(tmp_path, sim_csv),
            "simulate": var_simulate_cfg(tmp_path),
            "lpdid": {"data": panel_csv, "output": str(tmp_path / "did.csv"),
                      "horizons": [1]},
        }[command]
        args = [command, "--config", write_yaml(tmp_path / "cfg.yaml", cfg), flag, value]
        before = set(tmp_path.rglob("*"))
        assert main(args) == 2
        applies = {"--seed": "simulate and montecarlo", "--threads": "montecarlo"}
        assert capsys.readouterr().err == (
            f"config error: {flag} applies to {applies[flag]} only\n")
        assert set(tmp_path.rglob("*")) == before

    def test_seed_flag_sets_the_simulate_seed(self, tmp_path):
        cfg_path = write_yaml(tmp_path / "cfg.yaml", var_simulate_cfg(tmp_path))
        tables = []
        for seed in ("3", "4"):
            assert main(["simulate", "--config", cfg_path, "--seed", seed]) == 0
            tables.append((tmp_path / "var.csv").read_bytes())
        assert main(["simulate", "--config", cfg_path]) == 0  # the file says 3
        assert (tmp_path / "var.csv").read_bytes() == tables[0] != tables[1]


@pytest.mark.parametrize("command", ["estimate", "lpdid"])
def test_failure_log_goes_into_a_new_output_directory(tmp_path, capsys, sim_csv,
                                                      panel_csv, command):
    # the log is written like a table, so the directories it needs are made
    out = tmp_path / "newdir" / "sub" / "out.csv"
    cfg = (estimate_cfg(tmp_path, sim_csv, output=str(out), horizons=[1, 200])
           if command == "estimate" else
           {"data": panel_csv, "output": str(out), "horizons": [1, 200]})
    assert main([command, "--config", write_yaml(tmp_path / "cfg.yaml", cfg)]) == 4
    log = Path(f"{out}.log")
    labels = ["double_oga ", "conventional_lp "] if command == "estimate" else [""]
    assert capsys.readouterr().err == (
        f"estimation failed for {len(labels)} horizon(s); detail in {log}\n")
    lines = log.read_text().splitlines()
    assert [line.split(": ")[0] for line in lines] == [
        f"{label}horizon 200" for label in labels]
    assert not out.exists()


def test_a_failed_write_leaves_the_target_and_no_temp_file(tmp_path):
    target = tmp_path / "irf.csv"
    target.write_bytes(b"old,table\r\n")

    def broken(fh):
        fh.write("half a table")
        raise RuntimeError("the writer failed")

    with pytest.raises(RuntimeError, match="the writer failed"):
        _write_atomic(target, broken)
    assert target.read_bytes() == b"old,table\r\n"
    assert list(tmp_path.iterdir()) == [target]


class TestOutputIsADirectory:
    """An output path that names an existing directory, or lies below an
    existing file, is a config error naming its key (exit 2), raised before
    any file is written."""

    @pytest.mark.parametrize("command, key, flag", [
        ("estimate", "output", False), ("estimate", "output", True),
        ("simulate", "output", False), ("simulate", "true_irf_output", False),
        ("montecarlo", "output", False), ("lpdid", "output", False),
        ("lpdid", "output", True),
    ])
    def test_config_error_before_any_file(self, tmp_path, capsys, sim_csv,
                                          panel_csv, command, key, flag):
        cfg = {
            "estimate": estimate_cfg(tmp_path, sim_csv),
            "simulate": var_simulate_cfg(tmp_path),
            "montecarlo": small_var_mc_cfg(tmp_path),
            "lpdid": {"data": panel_csv, "output": str(tmp_path / "did.csv"),
                      "horizons": [1]},
        }[command]
        target = tmp_path / "existing"
        target.mkdir()
        if not flag:
            cfg[key] = str(target)
        args = [command, "--config", write_yaml(tmp_path / "cfg.yaml", cfg)]
        args += ["--out", str(target)] if flag else []  # --out: the same check
        before = set(tmp_path.rglob("*"))
        assert main(args) == 2
        assert f" config.{key} must be a file path, not an existing directory" in (
            capsys.readouterr().err)
        assert set(tmp_path.rglob("*")) == before

    @pytest.mark.parametrize("command, key", [
        ("estimate", "output"), ("simulate", "output"),
        ("simulate", "true_irf_output"),
    ])
    def test_a_path_below_a_file_is_config_error(self, tmp_path, capsys, sim_csv,
                                                command, key):
        cfg = {"estimate": estimate_cfg(tmp_path, sim_csv),
               "simulate": var_simulate_cfg(tmp_path)}[command]
        (tmp_path / "afile").write_text("a file\n")
        cfg[key] = str(tmp_path / "afile" / "irf.csv")
        cfg_path = write_yaml(tmp_path / "cfg.yaml", cfg)
        before = {p: p.read_bytes() for p in tmp_path.rglob("*")}
        assert main([command, "--config", cfg_path]) == 2
        assert (f" config.{key} must be a path whose existing parents are "
                "directories") in capsys.readouterr().err
        assert {p: p.read_bytes() for p in tmp_path.rglob("*")} == before

    def test_derived_sidecar_path(self, tmp_path, capsys):
        (tmp_path / "var_true_irf.csv").mkdir()  # where output var.csv puts it
        cfg_path = write_yaml(tmp_path / "cfg.yaml", var_simulate_cfg(tmp_path))
        assert main(["simulate", "--config", cfg_path]) == 2
        assert "config.true_irf_output must be a file path" in capsys.readouterr().err
        assert not (tmp_path / "var.csv").exists()


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
