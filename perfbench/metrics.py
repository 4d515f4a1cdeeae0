"""Metric names, units and directions, and the per-layer values of a trace.

BENCHMARK.json lists the same names; ``selftest.py`` checks that they agree.
Per-layer counts and times are per op of the workload. A layer a workload
does not reach reads 0 there, and so does a probe that belongs to another
workload (pool efficiency and the inherited-BLAS probe to mc_serial,
growth to lpdid_panel).
"""

from __future__ import annotations

END_TO_END = (
    # name, unit, better, bound
    ("ops_per_s", "1/s", "higher", 0.25),
    ("op_s_p50", "s", "lower", 0.25),
    ("op_s_tail", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("setup_s", "s", "lower", 0.25),
)

# Spans reported as calls and self time per op (name -> stats).
SPAN_STATS = {
    "linalg.qr": ("calls", "self_s"),
    "linalg.ols_fit": ("calls", "self_s"),
    "linalg.project_out": ("calls", "self_s"),
    "linalg.orthonormal_columns": ("calls", "self_s"),
    "linalg.gram_schmidt_extend": ("calls", "self_s"),
    "lp.build_lp_dataset": ("calls", "self_s"),
    "lp.double_oga_lp": ("self_s",),
    "lp.conventional_lp": ("self_s",),
    "selection.oga_hdaic_select": ("calls", "self_s"),
    "selection.oga_order": ("calls", "self_s"),
    "selection.select_c_star": ("calls", "self_s"),
    "hac.hac_variance": ("calls", "self_s"),
    "dgp.simulate_var": ("calls", "self_s"),
    "lpdid.PanelDataset": ("self_s",),
    "lpdid.restrict_sample": ("self_s",),
    "lpdid.lpdid_estimate.hac": ("self_s",),
    "lpdid.lpdid_estimate.cluster": ("self_s",),
    "cli.read_long_csv": ("self_s",),
    "cli.read_wide_csv": ("self_s",),
    "cli.write_csv_atomic": ("self_s",),
    "config.build_estimate_run": ("self_s",),
    "config.build_lpdid_run": ("self_s",),
}
# Self times repeated on the small panel; <metric>.growth = 24k rows / 6k rows.
GROWTH = (
    "lpdid.PanelDataset.self_s",
    "lpdid.restrict_sample.self_s",
    "lpdid.lpdid_estimate.self_s.hac",
    "lpdid.lpdid_estimate.self_s.cluster",
    "cli.read_long_csv.self_s",
)
COUNTERS = (
    # name, unit, better
    ("linalg.qr.gflop", "GFLOP/op", "lower"),
    ("lp.build_lp_dataset.mb_built", "MB/op", "lower"),
    ("selection.paths_per_tuning", "ratio", "lower"),
    ("selection.steps_kept_ratio", "ratio", "higher"),
    ("montecarlo.run_monte_carlo.first_result_s", "s", "lower"),
    ("montecarlo.pool.efficiency", "ratio", "higher"),
    ("montecarlo.pool.blas_inherited_s", "s", "lower"),
    ("montecarlo.pool.blas_inherited_s.min", "s", "lower"),
    ("montecarlo.pool.blas_inherited_s.max", "s", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
)


def _metric_name(span: str, stat: str) -> str:
    # lpdid_estimate splits by variance after the stat: ...self_s.hac
    if span.startswith("lpdid.lpdid_estimate."):
        base, variant = span.rsplit(".", 1)
        return f"{base}.{stat}.{variant}"
    return f"{span}.{stat}"


def per_layer_definitions():
    out = []
    for span, stats in SPAN_STATS.items():
        for stat in stats:
            unit = "calls/op" if stat == "calls" else "s/op"
            out.append((_metric_name(span, stat), unit, "lower"))
    out += list(COUNTERS)
    out += [(f"{name}.growth", "ratio", "lower") for name in GROWTH]
    return out


def layer_values(tracer, ops: int) -> dict:
    """Per-op values of every span stat and trace counter."""
    values = {}
    for span, stats in SPAN_STATS.items():
        for stat in stats:
            total = tracer.calls[span] if stat == "calls" else tracer.self_s[span]
            values[_metric_name(span, stat)] = total / ops
    c = tracer.counters
    values["linalg.qr.gflop"] = c["linalg.qr.flop_x3"] / ops / 3e9
    values["lp.build_lp_dataset.mb_built"] = c["lp.build_lp_dataset.bytes"] / ops / 1e6
    tunings = tracer.calls["selection.select_c_star"]
    values["selection.paths_per_tuning"] = (
        c["selection.orders_in_tuning"] / tunings if tunings else 0.0
    )
    steps = c["selection.steps_computed"]
    values["selection.steps_kept_ratio"] = c["selection.steps_kept"] / steps if steps else 0.0
    return values
