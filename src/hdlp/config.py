"""Run-configuration parsing and validation.

One YAML file fully describes a run; command-line flags may override the
seed, worker count, and output path only. Every mapping is validated
against an explicit key list and unknown keys are rejected, so typos fail
before any computation starts.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np
import yaml

from .dgp import DfmDgpSpec, Section3Design, VarDgpSpec, \
    alternating_decay_vector, build_section3_coefficients, \
    DENSE_ENDPOINTS, SPARSE_ENDPOINTS, toeplitz_power_sigma
from .errors import ConfigError
from .hac import HacConfig
from .lp import METHODS, DOUBLE_OGA, LpSpec
from .lpdid import LpDidSpec, VARIANCE_HAC
from .montecarlo import McDesign, section3_mc_design
from .selection import OgaConfig


def load_yaml(path) -> dict:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        with open(path) as fh:
            cfg = yaml.safe_load(fh)
    except yaml.YAMLError as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a mapping")
    return cfg


def _check_keys(d: dict, allowed, where: str):
    unknown = set(d) - set(allowed)
    if unknown:
        raise ConfigError(
            f"unknown keys in {where}: {sorted(unknown)}; allowed: {sorted(allowed)}"
        )


def _require(d: dict, key: str, where: str):
    if key not in d:
        raise ConfigError(f"missing required key {key!r} in {where}")
    return d[key]


def _as_str_tuple(value, where: str) -> tuple[str, ...]:
    if value is None:
        return ()
    if not isinstance(value, (list, tuple)) or not all(
        isinstance(v, str) for v in value
    ):
        raise ConfigError(f"{where} must be a list of column names")
    return tuple(value)


def parse_horizons(value, where: str = "horizons") -> tuple[int, ...]:
    """Either an explicit list or a {from, to} inclusive range."""
    if isinstance(value, dict):
        _check_keys(value, {"from", "to"}, where)
        lo = int(_require(value, "from", where))
        hi = int(_require(value, "to", where))
        if hi < lo:
            raise ConfigError(f"{where}: empty range {lo}..{hi}")
        return tuple(range(lo, hi + 1))
    if isinstance(value, (list, tuple)) and value:
        try:
            return tuple(int(h) for h in value)
        except (TypeError, ValueError):
            raise ConfigError(f"{where} must contain integers") from None
    raise ConfigError(f"{where} must be a nonempty list or a from/to mapping")


def parse_levels(value) -> tuple[float, ...]:
    if value is None:
        return (0.95,)
    if not isinstance(value, (list, tuple)) or not value:
        raise ConfigError("levels must be a nonempty list")
    levels = tuple(float(v) for v in value)
    if any(not 0.0 < v < 1.0 for v in levels):
        raise ConfigError("levels must lie strictly between 0 and 1")
    return levels


def parse_methods(value) -> tuple[str, ...]:
    if value is None:
        return (DOUBLE_OGA,)
    if isinstance(value, str):
        value = [value]
    methods = tuple(value)
    for m in methods:
        if m not in METHODS:
            raise ConfigError(f"unknown method {m!r}; choose from {METHODS}")
    if len(set(methods)) != len(methods):
        raise ConfigError("duplicate methods")
    return methods


def parse_selection(d: dict | None) -> OgaConfig:
    if d is None:
        return OgaConfig()
    _check_keys(
        d,
        {"c_star", "max_steps", "mbar_scale", "delta", "eval_fraction"},
        "selection",
    )
    kwargs = {}
    if "c_star" in d:
        c = d["c_star"]
        if c == "auto" or c is None:
            kwargs["c_star"] = None
        elif isinstance(c, (list, tuple)):
            kwargs["c_star"] = tuple(float(v) for v in c)
        else:
            kwargs["c_star"] = float(c)
    if "max_steps" in d and d["max_steps"] is not None:
        kwargs["max_steps_override"] = int(d["max_steps"])
    if "mbar_scale" in d:
        kwargs["mbar_scale"] = float(d["mbar_scale"])
    if "delta" in d:
        kwargs["delta_assumed"] = float(d["delta"])
    if "eval_fraction" in d:
        kwargs["eval_fraction"] = float(d["eval_fraction"])
    try:
        return OgaConfig(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"invalid selection config: {exc}") from exc


def parse_hac(d: dict | None) -> HacConfig:
    if d is None:
        return HacConfig()
    _check_keys(d, {"bandwidth", "psi_source", "dof_correction"}, "hac")
    kwargs = {}
    if "bandwidth" in d:
        bw = d["bandwidth"]
        kwargs["bandwidth"] = None if bw in (None, "auto") else int(bw)
    if "psi_source" in d:
        kwargs["psi_source"] = str(d["psi_source"])
    if "dof_correction" in d:
        kwargs["dof_correction"] = bool(d["dof_correction"])
    try:
        return HacConfig(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"invalid hac config: {exc}") from exc


def _parse_matrix(value, where: str):
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        raise ConfigError(f"{where} must be numeric") from None
    return arr


def parse_design(d: dict, where: str = "design"):
    """Returns ("section3", Section3Design) or ("var", VarDgpSpec) or
    ("dfm", DfmDgpSpec)."""
    if not isinstance(d, dict):
        raise ConfigError(f"{where} must be a mapping")
    kind = _require(d, "kind", where)
    if kind == "section3":
        _check_keys(
            d,
            {"kind", "rho", "variant", "a", "tau", "n", "T", "lags",
             "lags_est", "burn_in"},
            where,
        )
        n = int(d.get("n", 10))
        variant = d.get("variant", "sparse")
        if "a" in d and d["a"] is not None:
            a = tuple(float(v) for v in d["a"])
        elif variant == "sparse":
            a = tuple(alternating_decay_vector(*SPARSE_ENDPOINTS, n - 1))
        elif variant == "dense":
            a = tuple(alternating_decay_vector(*DENSE_ENDPOINTS, n - 1))
        else:
            raise ConfigError(f"unknown variant {variant!r}; sparse or dense")
        try:
            design = Section3Design(
                rho=float(d.get("rho", 0.5)),
                a=a,
                tau=float(d.get("tau", 0.3)),
                n=n,
                T=int(d.get("T", 300)),
                lags_dgp=int(d.get("lags", 12)),
                lags_est=int(d.get("lags_est", 21)),
                burn_in=int(d.get("burn_in", 500)),
            )
        except ValueError as exc:
            raise ConfigError(f"invalid {where}: {exc}") from exc
        return "section3", design
    if kind == "var":
        _check_keys(
            d, {"kind", "coefficients", "sigma", "y1_rho", "burn_in"}, where
        )
        coeffs = _require(d, "coefficients", where)
        if not isinstance(coeffs, list) or not coeffs:
            raise ConfigError(f"{where}.coefficients must be a list of matrices")
        B = tuple(_parse_matrix(b, f"{where}.coefficients") for b in coeffs)
        n = B[0].shape[0]
        sigma = _parse_matrix(_require(d, "sigma", where), f"{where}.sigma")
        try:
            spec = VarDgpSpec(
                n=n,
                K=len(B),
                B=B,
                sigma=sigma,
                burn_in=int(d.get("burn_in", 500)),
                y1_rho=(float(d["y1_rho"]) if d.get("y1_rho") is not None
                        else None),
            )
        except Exception as exc:
            raise ConfigError(f"invalid {where}: {exc}") from exc
        return "var", spec
    if kind == "dfm":
        _check_keys(
            d,
            {"kind", "phi", "shock_loadings", "loadings", "idio_ar",
             "idio_scale", "T", "burn_in"},
            where,
        )
        try:
            spec = DfmDgpSpec(
                phi=_parse_matrix(_require(d, "phi", where), "phi"),
                h_load=_parse_matrix(
                    _require(d, "shock_loadings", where), "shock_loadings"
                ),
                lam=_parse_matrix(_require(d, "loadings", where), "loadings"),
                idio_ar=tuple(
                    tuple(float(c) for c in row)
                    for row in _require(d, "idio_ar", where)
                ),
                idio_scale=tuple(
                    float(s) for s in _require(d, "idio_scale", where)
                ),
                T=int(d.get("T", 200)),
                burn_in=int(d.get("burn_in", 500)),
            )
        except ConfigError:
            raise
        except Exception as exc:
            raise ConfigError(f"invalid {where}: {exc}") from exc
        return "dfm", spec
    raise ConfigError(f"unknown design kind {kind!r}; section3, var, or dfm")


def parse_lp_spec(d: dict, where: str = "estimation") -> LpSpec:
    _check_keys(
        d,
        {"response", "shock", "horizons", "contemporaneous", "lagged", "lags",
         "lag_augment", "intercept"},
        where,
    )
    try:
        return LpSpec(
            response=str(_require(d, "response", where)),
            shock=str(_require(d, "shock", where)),
            horizons=parse_horizons(_require(d, "horizons", where)),
            contemporaneous=_as_str_tuple(
                d.get("contemporaneous"), f"{where}.contemporaneous"
            ),
            lagged=_as_str_tuple(d.get("lagged"), f"{where}.lagged"),
            lags=int(d.get("lags", 0)),
            lag_augment=int(d.get("lag_augment", 0)),
            include_intercept=bool(d.get("intercept", True)),
        )
    except ValueError as exc:
        raise ConfigError(f"invalid {where}: {exc}") from exc


@dataclass(eq=False)
class EstimateRun:
    data_path: Path
    out_path: Path
    lp_spec: LpSpec
    methods: tuple[str, ...]
    levels: tuple[float, ...]
    oga: OgaConfig
    hac: HacConfig
    seed: int


@dataclass(eq=False)
class SimulateRun:
    out_path: Path
    sidecar_path: Path
    kind: str
    spec: object  # VarDgpSpec or DfmDgpSpec (section3 resolved to VarDgpSpec)
    T: int
    seed: int
    response: str | int
    innovation: str | int
    horizons: tuple[int, ...]


@dataclass(eq=False)
class MontecarloRun:
    out_path: Path
    design: McDesign
    methods: tuple[str, ...]
    levels: tuple[float, ...]
    n_reps: int
    seed: int
    parallelism: int
    checkpoint: bool


@dataclass(eq=False)
class LpdidRun:
    data_path: Path
    out_path: Path
    unit_col: str
    time_col: str
    outcome_col: str
    treatment_col: str
    spec: LpDidSpec
    oga: OgaConfig
    hac: HacConfig
    seed: int


def build_estimate_run(cfg: dict) -> EstimateRun:
    _check_keys(
        cfg,
        {"data", "output", "seed", "methods", "levels", "response", "shock",
         "horizons", "contemporaneous", "lagged", "lags", "lag_augment",
         "intercept", "selection", "hac"},
        "estimate config",
    )
    lp_keys = {"response", "shock", "horizons", "contemporaneous", "lagged",
               "lags", "lag_augment", "intercept"}
    lp_cfg = {k: cfg[k] for k in lp_keys if k in cfg}
    return EstimateRun(
        data_path=Path(str(_require(cfg, "data", "estimate config"))),
        out_path=Path(str(_require(cfg, "output", "estimate config"))),
        lp_spec=parse_lp_spec(lp_cfg, "estimate config"),
        methods=parse_methods(cfg.get("methods")),
        levels=parse_levels(cfg.get("levels")),
        oga=parse_selection(cfg.get("selection")),
        hac=parse_hac(cfg.get("hac")),
        seed=int(cfg.get("seed", 0)),
    )


def build_simulate_run(cfg: dict) -> SimulateRun:
    _check_keys(
        cfg,
        {"output", "true_irf_output", "seed", "T", "response", "innovation",
         "horizons", "design"},
        "simulate config",
    )
    kind, spec = parse_design(_require(cfg, "design", "simulate config"))
    if kind == "section3":
        T = int(cfg.get("T", spec.T))
        spec = build_section3_coefficients(spec)
        kind = "var"
    elif kind == "dfm":
        T = int(cfg.get("T", spec.T))
    else:
        T = int(_require(cfg, "T", "simulate config"))
    out_path = Path(str(_require(cfg, "output", "simulate config")))
    sidecar = cfg.get("true_irf_output")
    sidecar_path = (
        Path(str(sidecar))
        if sidecar
        else out_path.with_name(out_path.stem + "_true_irf.csv")
    )
    response = cfg.get("response", "y2" if kind == "var" else 1)
    innovation = cfg.get("innovation", "y1" if kind == "var" else 1)
    return SimulateRun(
        out_path=out_path,
        sidecar_path=sidecar_path,
        kind=kind,
        spec=spec,
        T=T,
        seed=int(cfg.get("seed", 0)),
        response=response,
        innovation=innovation,
        horizons=parse_horizons(cfg.get("horizons", {"from": 0, "to": 20})),
    )


def build_montecarlo_run(cfg: dict) -> MontecarloRun:
    _check_keys(
        cfg,
        {"output", "seed", "n_reps", "parallelism", "checkpoint", "methods",
         "levels", "design", "T", "estimation", "selection", "hac"},
        "montecarlo config",
    )
    kind, design_spec = parse_design(_require(cfg, "design", "montecarlo config"))
    oga = parse_selection(cfg.get("selection"))
    hac = parse_hac(cfg.get("hac"))
    est = cfg.get("estimation") or {}
    if kind == "section3":
        extra = {k: v for k, v in est.items() if k != "horizons"}
        if extra:
            raise ConfigError(
                "section3 designs derive the estimation layout; only "
                f"estimation.horizons may be set, got {sorted(extra)}"
            )
        horizons = (
            parse_horizons(est["horizons"]) if "horizons" in est else None
        )
        design = section3_mc_design(design_spec, horizons=horizons, oga=oga,
                                    hac=hac)
        if "T" in cfg:
            design.T = int(cfg["T"])
    elif kind == "var":
        lp_spec = parse_lp_spec(est, "estimation")
        names = tuple(f"y{i + 1}" for i in range(design_spec.n))
        for col in (lp_spec.response, lp_spec.shock):
            if col not in names:
                raise ConfigError(
                    f"estimation references {col!r}; simulated columns are "
                    f"y1..y{design_spec.n}"
                )
        design = McDesign(
            dgp=design_spec,
            T=int(_require(cfg, "T", "montecarlo config")),
            lp_spec=lp_spec,
            response_index=names.index(lp_spec.response),
            innovation_index=names.index(lp_spec.shock),
            oga=oga,
            hac=hac,
        )
    else:
        raise ConfigError(
            "montecarlo requires a design with a companion-form truth; "
            "use kind section3 or var"
        )
    return MontecarloRun(
        out_path=Path(str(_require(cfg, "output", "montecarlo config"))),
        design=design,
        methods=parse_methods(cfg.get("methods")),
        levels=parse_levels(cfg.get("levels")),
        n_reps=int(_require(cfg, "n_reps", "montecarlo config")),
        seed=int(cfg.get("seed", 0)),
        parallelism=int(cfg.get("parallelism", 1)),
        checkpoint=bool(cfg.get("checkpoint", True)),
    )


def build_lpdid_run(cfg: dict) -> LpdidRun:
    _check_keys(
        cfg,
        {"data", "output", "seed", "unit_col", "time_col", "outcome_col",
         "treatment_col", "horizons", "outcome_lags", "extra_controls",
         "time_effects", "method", "levels", "variance", "selection", "hac"},
        "lpdid config",
    )
    methods = parse_methods(cfg.get("method"))
    if len(methods) != 1:
        raise ConfigError("lpdid takes a single method")
    try:
        spec = LpDidSpec(
            horizons=parse_horizons(_require(cfg, "horizons", "lpdid config")),
            outcome_lags=int(cfg.get("outcome_lags", 0)),
            extra_controls=_as_str_tuple(
                cfg.get("extra_controls"), "extra_controls"
            ),
            time_effects=bool(cfg.get("time_effects", True)),
            method=methods[0],
            levels=parse_levels(cfg.get("levels")),
            variance=str(cfg.get("variance", VARIANCE_HAC)),
        )
    except ValueError as exc:
        raise ConfigError(f"invalid lpdid config: {exc}") from exc
    return LpdidRun(
        data_path=Path(str(_require(cfg, "data", "lpdid config"))),
        out_path=Path(str(_require(cfg, "output", "lpdid config"))),
        unit_col=str(cfg.get("unit_col", "unit")),
        time_col=str(cfg.get("time_col", "time")),
        outcome_col=str(cfg.get("outcome_col", "outcome")),
        treatment_col=str(cfg.get("treatment_col", "treatment")),
        spec=spec,
        oga=parse_selection(cfg.get("selection")),
        hac=parse_hac(cfg.get("hac")),
        seed=int(cfg.get("seed", 0)),
    )
