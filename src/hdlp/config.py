"""Run-configuration parsing and validation.

One YAML file fully describes a run; command-line flags may override the
seed, worker count, and output path only. Each config section is one table
that maps a YAML key to the field it sets and a strict converter: integers
must be YAML integers, booleans unquoted true/false, numbers finite. The
allowed keys of a section are its table's keys, so typos fail before any
computation starts, and a malformed value raises ConfigError naming its
dotted key. A key set to null counts as unset, except selection.c_star,
where null means auto. Defaults live in the dataclasses the tables fill.
"""

from __future__ import annotations

import dataclasses
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

from .dgp import Section3Design, VarDgpSpec, build_section3_coefficients
from .errors import ConfigError
from .hac import HacConfig
from .lp import DEFAULT_LEVELS, METHODS, LpSpec
from .lpdid import LpDidSpec
from .montecarlo import DEFAULT_METHODS, McDesign, section3_mc_design
from .selection import OgaConfig

# optional third element of a table entry
REQUIRED = "required"  # the key must be set
NULLABLE = "nullable"  # null is passed to the converter instead of meaning unset


# libyaml's parser when PyYAML was built with it: same documents, ~7x faster
SAFE_LOADER = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader


def load_yaml(path) -> dict:
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        with open(path, encoding="utf-8") as fh:
            cfg = yaml.load(fh, Loader=SAFE_LOADER)
    except (yaml.YAMLError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from exc
    return as_mapping(cfg, "config root")


def _fail(where: str, what: str, value):
    raise ConfigError(f"{where} must be {what}, got {value!r}")


def as_int(lo: int | None = None, hi: int | None = None):
    def conv(value, where):
        if (type(value) is not int or (lo is not None and value < lo)
                or (hi is not None and value > hi)):
            what = "an integer" if lo is None else f"an integer >= {lo}"
            _fail(where, what if hi is None else f"{what} and <= {hi}", value)
        return value
    return conv


def as_float(value, where):
    if type(value) not in (int, float) or not abs(value) <= sys.float_info.max:
        _fail(where, "a finite number", value)
    return float(value)


def as_float_in(lo: float, hi: float = math.inf):
    """A finite number strictly between lo and hi."""
    def conv(value, where):
        number = as_float(value, where)
        if not lo < number < hi:
            _fail(where, f"a number > {lo:g}" if hi == math.inf
                  else f"a number strictly between {lo:g} and {hi:g}", value)
        return number
    return conv


def as_type(*types, what: str):
    """Converter taking a value whose exact type is one of types (a bool is no int)."""
    def conv(value, where):
        if type(value) not in types:
            _fail(where, what, value)
        return value
    return conv


as_bool = as_type(bool, what="true or false")
as_str = as_type(str, what="a string")
as_mapping = as_type(dict, what="a mapping")
as_series = as_type(str, int, what="a series name or a 1-based index")


def as_path(value, where):
    if type(value) is not str or not Path(value).name:
        _fail(where, "a path that ends in a file name", value)
    return Path(value)


def as_output(value, where):
    """A path as_path accepts that names no directory and lies below no file."""
    path = as_path(value, where)
    if path.is_dir():
        _fail(where, "a file path, not an existing directory", value)
    if any(up.exists() and not up.is_dir() for up in path.parents):
        _fail(where, "a path whose existing parents are directories", value)
    return path


def as_choice(choices):
    """One of the names in choices; a dict maps each name to what it returns."""
    def conv(value, where):
        if type(value) is not str or value not in choices:
            _fail(where, f"one of {', '.join(choices)}", value)
        return choices[value] if isinstance(choices, dict) else value
    return conv


def list_of(conv, nonempty: bool = False):
    def conv_list(value, where):
        if not isinstance(value, list) or (nonempty and not value):
            _fail(where, "a nonempty list" if nonempty else "a list", value)
        return tuple(conv(v, f"{where}[{i}]") for i, v in enumerate(value))
    return conv_list


def as_levels(value, where):
    levels = list_of(as_float, nonempty=True)(value, where)
    if len(set(levels)) < len(levels) or not all(0.0 < level < 1.0 for level in levels):
        _fail(where, "a list of distinct levels strictly between 0 and 1", value)
    return levels


def as_methods(value, where):
    """One method name or a nonempty list of distinct ones."""
    methods = list_of(as_choice(METHODS), nonempty=True)(
        [value] if type(value) is str else value, where)
    if len(set(methods)) != len(methods):
        _fail(where, "a list of distinct methods", value)
    return methods


def as_method(value, where):
    methods = as_methods(value, where)
    if len(methods) != 1:
        _fail(where, "exactly one method", value)
    return methods[0]


def as_horizons(value, where):
    """A nonempty list of horizons or an inclusive {from, to} range."""
    if not isinstance(value, dict):
        return list_of(as_int(0), nonempty=True)(value, where)
    (span,) = read(value, where, RANGE)
    if span["hi"] < span["lo"]:
        raise ConfigError(f"{where}: empty range {span['lo']}..{span['hi']}")
    return tuple(range(span["lo"], span["hi"] + 1))


def as_c_star(value, where):
    """A number, a list of candidates, or auto/null for the default candidates."""
    if value is None or value == "auto":
        return None
    if isinstance(value, list):
        return list_of(as_float)(value, where)
    return as_float(value, where)


def as_bandwidth(value, where):
    return None if value == "auto" else as_int()(value, where)


def as_matrix(value, where):
    """A number, a list of numbers, or a list of equal-length number lists."""
    def nested(v, w):
        return list_of(nested)(v, w) if isinstance(v, list) else as_float(v, w)

    numbers = nested(value, where)
    try:
        arr = np.atleast_2d(np.array(numbers, dtype=float))
    except ValueError:  # rows of unequal length
        arr = None
    if arr is None or arr.ndim > 2:
        _fail(where, "a matrix (a list of equal-length lists of numbers)", value)
    return arr


def read(d, where: str, *tables) -> list[dict]:
    """Convert mapping d to one {field: value} dict per table. Absent or
    null keys are left out, so the target's defaults apply."""
    as_mapping(d, where)
    allowed = [key for table in tables for key in table]
    unknown = [key for key in d if key not in allowed]
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(map(str, unknown))}; "
                          f"allowed: {sorted(allowed)}")
    out = []
    for table in tables:
        kw = {}
        for key, (target, conv, *flags) in table.items():
            if d.get(key) is not None or (key in d and NULLABLE in flags):
                kw[target] = conv(d[key], f"{where}.{key}")
            elif REQUIRED in flags:
                raise ConfigError(f"missing required key {key!r} in {where}")
        out.append(kw)
    return out


def make(build, kw: dict, where: str):
    """build(**kw), with the target's own validation failures as ConfigError."""
    try:
        return build(**kw)
    except ValueError as exc:
        raise ConfigError(f"invalid {where}: {exc}") from exc


def section(table: dict, build):
    """Converter for a nested mapping that becomes one build(**fields) object."""
    def conv(value, where):
        (kw,) = read(value, where, table)
        return make(build, kw, where)
    return conv


def _section3(variant=Section3Design, **kw) -> Section3Design:
    # an explicit loading vector a overrides the variant's
    return (Section3Design if "a" in kw else variant)(**kw)


RANGE = {"from": ("lo", as_int(0), REQUIRED), "to": ("hi", as_int(0), REQUIRED)}
SELECTION = {
    "c_star": ("c_star", as_c_star, NULLABLE),
    "max_steps": ("max_steps_override", as_int(1)),
    "mbar_scale": ("mbar_scale", as_float_in(0.0)),
    "delta": ("delta_assumed", as_float_in(1.0)),
    "eval_fraction": ("eval_fraction", as_float_in(0.0, 0.5)),
}
HAC = {
    "bandwidth": ("bandwidth", as_bandwidth),
    "psi_source": ("psi_source", as_str),
    "dof_correction": ("dof_correction", as_bool),
}
LP = {
    "response": ("response", as_str, REQUIRED),
    "shock": ("shock", as_str, REQUIRED),
    "horizons": ("horizons", as_horizons, REQUIRED),
    "contemporaneous": ("contemporaneous", list_of(as_str)),
    "lagged": ("lagged", list_of(as_str)),
    "lags": ("lags", as_int()),
    "lag_augment": ("lag_augment", as_int()),
    "intercept": ("include_intercept", as_bool),
}
SECTION3 = {
    "rho": ("rho", as_float),
    "variant": ("variant", as_choice({"sparse": Section3Design.sparse,
                                      "dense": Section3Design.dense})),
    "a": ("a", list_of(as_float)),
    "tau": ("tau", as_float),
    "n": ("n", as_int(2)),
    "T": ("T", as_int(1)),
    "lags": ("lags_dgp", as_int(1)),
    "lags_est": ("lags_est", as_int(1)),
    "burn_in": ("burn_in", as_int(0)),
}
VAR = {
    "coefficients": ("B", list_of(as_matrix, nonempty=True), REQUIRED),
    "sigma": ("sigma", as_matrix, REQUIRED),
    "y1_rho": ("y1_rho", as_float),
    "burn_in": ("burn_in", as_int(0)),
}
DESIGNS = {"section3": (SECTION3, _section3), "var": (VAR, VarDgpSpec)}


def as_design(value, where):
    """A design mapping whose kind picks its table in DESIGNS."""
    kind = as_mapping(value, where).get("kind")
    table, build = as_choice(DESIGNS)(kind, f"{where}.kind")
    rest = {k: v for k, v in value.items() if k != "kind"}
    return section(table, build)(rest, where)


# root sections, shared by the commands that take them
RUN = {"output": ("out_path", as_output, REQUIRED), "seed": ("seed", as_int(0))}
DATA = {"data": ("data_path", as_path, REQUIRED)}
REPORT = {"methods": ("methods", as_methods), "levels": ("levels", as_levels)}
TUNING = {"selection": ("oga", section(SELECTION, OgaConfig)),
          "hac": ("hac", section(HAC, HacConfig))}
DESIGN = {"design": ("spec", as_design, REQUIRED), "T": ("T", as_int(1))}
SIMULATE = {
    "seed": ("seed", as_int(0, 2**128 - 1)),  # the Philox key
    "true_irf_output": ("sidecar_path", as_output),
    "response": ("response", as_series),
    "innovation": ("innovation", as_series),
    "horizons": ("horizons", as_horizons),
}
MONTECARLO = {
    "seed": ("seed", as_int(0, 2**64 - 1)),  # one uint64 word of the Philox key
    "n_reps": ("n_reps", as_int(1), REQUIRED),
    "parallelism": ("parallelism", as_int(1)),
    "checkpoint": ("checkpoint", as_bool),
}
LPDID = {key: (key, as_str)
         for key in ("unit_col", "time_col", "outcome_col", "treatment_col")}
LPDID["levels"] = REPORT["levels"]  # one method per run, set in LPDID_SPEC
LPDID_SPEC = {
    "horizons": ("horizons", as_horizons, REQUIRED),
    "outcome_lags": ("outcome_lags", as_int()),
    "extra_controls": ("extra_controls", list_of(as_str)),
    "time_effects": ("time_effects", as_bool),
    "method": ("method", as_method),
    "variance": ("variance", as_str),
}


@dataclass(eq=False, kw_only=True)
class EstimateRun:
    data_path: Path
    out_path: Path
    lp_spec: LpSpec
    methods: tuple[str, ...] = DEFAULT_METHODS
    levels: tuple[float, ...] = DEFAULT_LEVELS
    oga: OgaConfig = field(default_factory=OgaConfig)
    hac: HacConfig = field(default_factory=HacConfig)
    seed: int = 0


@dataclass(eq=False, kw_only=True)
class SimulateRun:
    out_path: Path
    sidecar_path: Path
    spec: VarDgpSpec  # a section3 design resolves to one
    T: int
    seed: int = 0
    response: int  # 0-based series index
    innovation: int  # 0-based innovation index
    horizons: tuple[int, ...] = tuple(range(21))


@dataclass(eq=False, kw_only=True)
class MontecarloRun:
    out_path: Path
    design: McDesign
    methods: tuple[str, ...] = DEFAULT_METHODS
    levels: tuple[float, ...] = DEFAULT_LEVELS
    n_reps: int
    seed: int = 0
    parallelism: int = 1
    checkpoint: bool = True


@dataclass(eq=False, kw_only=True)
class LpdidRun:
    data_path: Path
    out_path: Path
    unit_col: str = "unit"
    time_col: str = "time"
    outcome_col: str = "outcome"
    treatment_col: str = "treatment"
    levels: tuple[float, ...] = DEFAULT_LEVELS
    spec: LpDidSpec
    oga: OgaConfig = field(default_factory=OgaConfig)
    hac: HacConfig = field(default_factory=HacConfig)
    seed: int = 0


def _index(value, names: tuple[str, ...], where: str) -> int:
    """0-based index of a series given by its name or as 1-based i."""
    if value in names:
        return names.index(value)
    if type(value) is not int or not 1 <= value <= len(names):
        _fail(where, f"1..{len(names)} or {names[0]}..{names[-1]}", value)
    return value - 1


def _length(spec, T, where: str):
    """Apply a root-level T to a design that has its own; var designs need it."""
    if isinstance(spec, VarDgpSpec):
        if T is None:
            raise ConfigError(f"missing required key 'T' in {where} (var design)")
        return spec, T
    spec = spec if T is None else dataclasses.replace(spec, T=T)
    return spec, spec.T


def build_estimate_run(cfg: dict) -> EstimateRun:
    where = "estimate config"
    run, lp = read(cfg, where, {**RUN, **DATA, **REPORT, **TUNING}, LP)
    return EstimateRun(lp_spec=make(LpSpec, lp, where), **run)


def build_simulate_run(cfg: dict) -> SimulateRun:
    where = "simulate config"
    (kw,) = read(cfg, where, {**RUN, **SIMULATE, **DESIGN})
    spec, kw["T"] = _length(kw.pop("spec"), kw.pop("T", None), where)
    if isinstance(spec, Section3Design):
        spec = make(build_section3_coefficients, {"design": spec}, f"{where}.design")
    if "sidecar_path" not in kw:
        out = kw["out_path"]
        kw["sidecar_path"] = as_output(str(out.with_name(out.stem + "_true_irf.csv")),
                                       f"{where}.true_irf_output")
    return SimulateRun(
        spec=spec,
        response=_index(kw.pop("response", 2), spec.names, f"{where}.response"),
        innovation=_index(kw.pop("innovation", 1), spec.names, f"{where}.innovation"),
        **kw,
    )


def build_montecarlo_run(cfg: dict) -> MontecarloRun:
    where = "montecarlo config"
    run, kw = read(cfg, where, {**RUN, **REPORT, **MONTECARLO},
                   {**TUNING, **DESIGN, "estimation": ("estimation", as_mapping)})
    spec, T = _length(kw.pop("spec"), kw.pop("T", None), where)
    est = kw.pop("estimation", {})
    est_where = f"{where}.estimation"
    if isinstance(spec, Section3Design):
        # the design fixes the estimation layout; only its horizons may be set
        (lp,) = read(est, est_where, {"horizons": LP["horizons"]})
        design = make(section3_mc_design, {"design": spec, **lp, **kw}, where)
    else:
        (lp,) = read(est, est_where, LP)
        design = make(McDesign, {"dgp": spec, "T": T,
                                 "lp_spec": make(LpSpec, lp, est_where), **kw}, est_where)
    return MontecarloRun(design=design, **run)


def build_lpdid_run(cfg: dict) -> LpdidRun:
    where = "lpdid config"
    run, spec = read(cfg, where, {**RUN, **DATA, **TUNING, **LPDID}, LPDID_SPEC)
    return LpdidRun(spec=make(LpDidSpec, spec, where), **run)
