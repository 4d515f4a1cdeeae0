"""Config parsing: strict converters, malformed values as exit 2, checkpoint
continuity of the bundled Monte Carlo run."""

import copy
import csv
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hdlp.cli import _config_fingerprint, main
from hdlp.config import (
    build_estimate_run,
    build_lpdid_run,
    build_montecarlo_run,
    build_simulate_run,
    load_yaml,
)
import hdlp.config
from hdlp.errors import ConfigError
from test_cli import estimate_cfg, small_var_mc_cfg, var_simulate_cfg, write_yaml

REPO = Path(__file__).resolve().parent.parent
OUT = Path("out")  # builders only name output paths, they never write

CONFIGS = {
    "estimate": (build_estimate_run, load_yaml(REPO / "configs/estimate.yaml")),
    "simulate": (build_simulate_run, load_yaml(REPO / "configs/simulate.yaml")),
    "montecarlo": (build_montecarlo_run,
                   load_yaml(REPO / "configs/montecarlo.yaml")),
    "lpdid": (build_lpdid_run, load_yaml(REPO / "configs/lpdid.yaml")),
    "montecarlo_var": (build_montecarlo_run, small_var_mc_cfg(OUT)),
    "simulate_var": (build_simulate_run, var_simulate_cfg(OUT)),
}


def node_paths(node, path=()):
    """Key/index path of every node below the root, leaves and containers."""
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield path + (key,)
        yield from node_paths(child, path + (key,))


def replaced(cfg, path, value):
    cfg = copy.deepcopy(cfg)
    node = cfg
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return cfg


CASES = [(name, path) for name, (_, cfg) in CONFIGS.items()
         for path in node_paths(cfg)]

# what a YAML file can hold; ints stay small so that no draw asks for a huge
# design or horizon range
yaml_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 24),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(st.characters(min_codepoint=32, max_codepoint=126), max_size=5),
    st.sampled_from(["auto", "no", "false", "y1", "y2", "x1", "sparse", "var",
                     "dfm", "section3", "hac", "double_oga", "from", "to"]),
)
yaml_values = st.recursive(
    yaml_scalars,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["from", "to", "kind", "n", "a", "x"])
                      | st.integers(0, 3), inner, max_size=3),
    max_leaves=6,
)


class TestEveryNodeIsValidated:
    def test_cases_cover_every_bundled_key(self):
        assert len(CASES) > 150
        assert ("montecarlo", ("design", "rho")) in CASES
        assert ("simulate_var", ("design", "coefficients", 1, 0, 1)) in CASES

    @settings(max_examples=600, deadline=None)
    @given(case=st.sampled_from(CASES), value=yaml_values)
    @example(case=("simulate_var", ("output",)), value="/")  # a path with no file name
    def test_one_replaced_node_builds_or_raises_config_error(self, case, value):
        name, path = case
        build, cfg = CONFIGS[name]
        try:
            build(replaced(cfg, path, value))
        except ConfigError:
            pass

    @pytest.mark.parametrize("value", [
        None, True, -1, 0, 2.7, float("nan"), float("inf"), "no", "", [], {},
        [[1.0]], {"from": 1},
    ], ids=repr)
    def test_every_node_with_a_fixed_value(self, value):
        for name, path in CASES:
            build, cfg = CONFIGS[name]
            try:
                build(replaced(cfg, path, value))
            except ConfigError:
                pass


def _bundled(name, tmp_path, **overrides):
    cfg = load_yaml(REPO / "configs" / f"{name}.yaml")
    cfg.update(output=str(tmp_path / "out" / f"{name}.csv"), **overrides)
    return cfg


def _estimate(tmp_path):
    data = tmp_path / "data.csv"
    rng = np.random.default_rng(0)
    with open(data, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["y", "x", "z"])
        writer.writerows(rng.standard_normal((120, 3)).tolist())
    cfg = estimate_cfg(tmp_path, str(data), output=str(tmp_path / "out" / "irf.csv"))
    cfg["hac"] = {"bandwidth": "auto", "dof_correction": True}
    return cfg


def _montecarlo(tmp_path):
    return _bundled("montecarlo", tmp_path, n_reps=2,
                    estimation={"horizons": [1, 2]})


def _lpdid(tmp_path):
    return {"data": str(tmp_path / "panel.csv"),
            "output": str(tmp_path / "out" / "did.csv"), "horizons": [0, 1]}


def _simulate(tmp_path):
    return _bundled("simulate", tmp_path,
                    true_irf_output=str(tmp_path / "out" / "truth.csv"))


def _var(tmp_path):
    return var_simulate_cfg(tmp_path / "out")


@pytest.mark.parametrize("command, base, path, value", [
    ("montecarlo", _montecarlo, ("n_reps",), "lots"),
    ("montecarlo", _montecarlo, ("n_reps",), 0),
    ("montecarlo", _montecarlo, ("seed",), -1),
    ("montecarlo", _montecarlo, ("seed",), 2**64),
    ("simulate", _simulate, ("seed",), 2**128),
    ("montecarlo", _montecarlo, ("parallelism",), 0),
    ("montecarlo", _montecarlo, ("design", "rho"), [1]),
    ("montecarlo", _montecarlo, ("design", "a"), 3),
    ("montecarlo", _montecarlo, ("design", "n"), 1.5),
    ("montecarlo", _montecarlo, ("checkpoint",), "no"),
    ("montecarlo", _montecarlo, ("estimation",), 5),
    ("montecarlo", _montecarlo, ("methods",), []),
    ("estimate", _estimate, ("hac", "dof_correction"), "false"),
    ("estimate", _estimate, ("intercept",), "no"),
    ("estimate", _estimate, ("lags",), 2.7),
    ("estimate", _estimate, ("horizons",), [1.7, 2]),
    ("estimate", _estimate, ("hac", "bandwidth"), 3.9),
    ("estimate", _estimate, ("response",), ["y2"]),
    ("estimate", _estimate, ("hac",), 5),
    ("estimate", _estimate, ("selection", "c_star"), "fast"),
    ("estimate", _estimate, ("methods",), []),
    ("lpdid", _lpdid, ("time_effects",), "false"),
    ("simulate", _var, ("response",), "y9"),
    ("simulate", _var, ("innovation",), "x1"),
    ("simulate", _simulate, ("response",), 0),
], ids=lambda v: v.__name__.strip("_") if callable(v) else repr(v))
def test_malformed_value_exits_2_and_writes_nothing(tmp_path, capsys, command,
                                                    base, path, value):
    cfg = replaced(base(tmp_path), path, value)
    cfg_path = write_yaml(tmp_path / "cfg.yaml", cfg)
    assert main([command, "--config", cfg_path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "config." + ".".join(path) in err
    assert not (tmp_path / "out").exists()


def test_seed_flag_out_of_generator_range_exits_2(tmp_path, capsys):
    cfg_path = write_yaml(tmp_path / "cfg.yaml", _montecarlo(tmp_path))
    assert main(["montecarlo", "--config", cfg_path, "--seed", str(2**64)]) == 2
    assert "config.seed" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


LOADERS = [yaml.SafeLoader] + ([yaml.CSafeLoader] if yaml.__with_libyaml__ else [])


class TestYamlLoader:
    @pytest.mark.parametrize("path", sorted((REPO / "configs").glob("*.yaml")),
                             ids=lambda path: path.name)
    def test_both_loaders_read_every_bundled_config_alike(self, path):
        text = path.read_text()
        dicts = [yaml.load(text, Loader=loader) for loader in LOADERS]
        assert all(d == dicts[0] for d in dicts)
        assert load_yaml(path) == dicts[0]

    def test_libyaml_parses_when_available(self):
        want = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader
        assert hdlp.config.SAFE_LOADER is want

    @pytest.mark.parametrize("loader", LOADERS, ids=lambda loader: loader.__name__)
    @pytest.mark.parametrize("text", ["methods: [double_oga\n", "a: b: c\n",
                                      "x: 1\n\tbad: tab\n"])
    def test_malformed_file_exits_2(self, tmp_path, capsys, monkeypatch, loader,
                                    text):
        monkeypatch.setattr(hdlp.config, "SAFE_LOADER", loader)
        path = tmp_path / "cfg.yaml"
        path.write_text(text)
        with pytest.raises(ConfigError, match="cannot parse"):
            load_yaml(path)
        assert main(["estimate", "--config", str(path)]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("loader", LOADERS, ids=lambda loader: loader.__name__)
    @pytest.mark.parametrize("case, message", [
        ("latin-1 byte", "cannot parse {path}: 'utf-8' codec can't decode byte 0xe9"),
        ("directory", "config file not found: {path}"),
    ])
    def test_unreadable_file_exits_2(self, tmp_path, capsys, monkeypatch, loader,
                                     case, message):
        monkeypatch.setattr(hdlp.config, "SAFE_LOADER", loader)
        path = tmp_path / "cfg.yaml"
        if case == "directory":
            path.mkdir()
        else:
            path.write_bytes(b"output: out.csv\n# caf\xe9\n")
        assert main(["estimate", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: " + message.format(path=path))
        assert "internal error" not in err and "Traceback" not in err


class TestSimulateSeries:
    @pytest.mark.parametrize("response, innovation", [("y2", "y1"), (2, 1)])
    def test_var_names_and_1_based_ints_agree(self, response, innovation):
        _, cfg = CONFIGS["simulate"]
        run = build_simulate_run({**cfg, "response": response,
                                  "innovation": innovation})
        assert (run.response, run.innovation) == (1, 0)


def test_bundled_montecarlo_checkpoint_still_resumes():
    # digest of the run the bundled config described before the schema
    # tables: parsing changes must not move it (the checkpoint version, not
    # the fingerprint, retires records of an older simulator)
    run = build_montecarlo_run(load_yaml(REPO / "configs/montecarlo.yaml"))
    assert _config_fingerprint(run) == (
        "eb832546734fe1260509a26c93d02b344aa488c24e01f9bec86ef8ba5d81e612"
    )


def test_values_taken_as_written_are_unchanged():
    build, cfg = CONFIGS["estimate"]
    base = build(cfg)
    run = build(replaced(cfg, ("selection", "c_star"), 2))
    assert run.oga == base.oga
    assert build(replaced(cfg, ("selection", "c_star"), "auto")).oga.c_star is None
    assert build(replaced(cfg, ("selection", "c_star"), None)).oga.c_star is None
    assert build(replaced(cfg, ("methods",), "double_oga")).methods == ("double_oga",)
    assert build(replaced(cfg, ("hac", "bandwidth"), None)).hac == base.hac
    assert build(replaced(cfg, ("selection", "max_steps"), None)).oga == base.oga
