"""In-process tracing of hdlp layers by rebinding module attributes.

The tracer never edits the package. It swaps each traced function for a
timing wrapper wherever an ``hdlp`` module holds a reference to it (module
globals, and dicts or tuples stored in module globals such as the CLI's
builder table), so calls that go through ``from .linalg import ols_fit``
bindings are seen as well as calls through the defining module.
``scipy.linalg.qr`` is traced as reached from ``hdlp``: module references to
``scipy`` or ``scipy.linalg`` inside the package are replaced by proxies
whose ``qr`` is wrapped, so scipy's own internal callers are untouched.

A name that no longer exists, or is no longer called, reads 0 calls.

Spans nest: a span's self time is its duration minus the durations of the
traced spans it directly contains. Spans are aggregated in memory per name
(calls, total seconds, self seconds); nothing is written while tracing.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# (module, attribute) pairs traced as plain functions; the span name is
# "<module>.<attribute>".
FUNCTIONS = (
    ("linalg", "ols_fit"),
    ("linalg", "project_out"),
    ("linalg", "orthonormal_columns"),
    ("linalg", "gram_schmidt_extend"),
    ("lp", "build_lp_dataset"),
    ("lp", "double_oga_lp"),
    ("lp", "conventional_lp"),
    ("selection", "oga_hdaic_select"),
    ("selection", "oga_order"),
    ("selection", "select_c_star"),
    ("hac", "hac_variance"),
    ("dgp", "simulate_var"),
    ("lpdid", "restrict_sample"),
    ("lpdid", "lpdid_estimate"),
    ("cli", "read_long_csv"),
    ("cli", "read_wide_csv"),
    ("cli", "write_csv_atomic"),
    ("config", "build_estimate_run"),
    ("config", "build_lpdid_run"),
    ("montecarlo", "run_monte_carlo"),
)
# Classes whose construction is traced (span "<module>.<class>").
CLASSES = (("lpdid", "PanelDataset"),)

TUNING = "selection.select_c_star"


def qr_flops_x3(shape) -> int:
    """Three times the Householder QR cost 2*m*n^2 - 2*n^3/3 (long side m,
    short side n), kept integral so per-op sums repeat exactly."""
    if len(shape) != 2:
        return 0
    m, n = max(shape), min(shape)
    return 6 * m * n * n - 2 * n**3


class Tracer:
    """Aggregated spans plus the counters that need call arguments or results."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counters = defaultdict(int)
        self._stack: list[list] = []  # [name, seconds spent in child spans]
        self._active = defaultdict(int)
        self._undo: list = []

    # -- spans -------------------------------------------------------------

    def wrap(self, name, fn, variant=None, observe=None):
        """Timing wrapper; variant(args, kwargs) appends a suffix to the name,
        observe(tracer, args, result) updates counters after the call."""
        tracer = self

        def traced(*args, **kwargs):
            span = name
            if variant is not None:
                span = f"{name}.{variant(args, kwargs)}"
            frame = [span, 0.0]
            tracer._stack.append(frame)
            tracer._active[name] += 1
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                tracer._active[name] -= 1
                tracer._stack.pop()
                tracer.calls[span] += 1
                tracer.total_s[span] += dt
                tracer.self_s[span] += dt - frame[1]
                if tracer._stack:
                    tracer._stack[-1][1] += dt
            if observe is not None:
                try:
                    observe(tracer, args, result)
                except (AttributeError, IndexError, TypeError, ValueError):
                    pass  # a changed return shape leaves the counter alone
            return result

        traced.__wrapped__ = fn
        return traced

    def inside(self, name) -> bool:
        return self._active[name] > 0

    # -- installation ------------------------------------------------------

    def install(self):
        """Rebind every traced name in the loaded hdlp modules."""
        import scipy
        import scipy.linalg

        modules = hdlp_modules()
        for mod_name, attr in FUNCTIONS:
            module = sys.modules.get(f"hdlp.{mod_name}")
            fn = getattr(module, attr, None) if module is not None else None
            if not callable(fn):
                continue
            name = f"{mod_name}.{attr}"
            wrapper = self.wrap(name, fn, VARIANTS.get(name), OBSERVERS.get(name))
            rebind(modules, fn, wrapper, self._undo)

        for mod_name, attr in CLASSES:
            module = sys.modules.get(f"hdlp.{mod_name}")
            cls = getattr(module, attr, None) if module is not None else None
            if not isinstance(cls, type):
                continue
            init = cls.__dict__.get("__init__")
            if init is None:
                continue
            cls.__init__ = self.wrap(f"{mod_name}.{attr}", init)
            self._undo.append((cls, "__init__", init))

        qr = self.wrap("linalg.qr", scipy.linalg.qr, observe=_observe_qr)
        linalg_proxy = _Proxy(scipy.linalg, qr=qr)
        scipy_proxy = _Proxy(scipy, linalg=linalg_proxy)
        rebind(modules, scipy.linalg.qr, qr, self._undo)
        rebind(modules, scipy.linalg, linalg_proxy, self._undo)
        rebind(modules, scipy, scipy_proxy, self._undo)

    def uninstall(self):
        restore(self._undo)


class _Proxy:
    """Attribute view of a module with a few names overridden."""

    def __init__(self, target, **overrides):
        self._target = target
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._target, name)


def rebind(modules, original, replacement, undo: list):
    """Point every reference to original in the modules' namespaces (and in
    dicts stored there, one tuple level deep) at replacement."""
    for module in modules:
        namespace = vars(module)
        for key, value in list(namespace.items()):
            if value is original:
                undo.append((namespace, key, value))
                namespace[key] = replacement
            elif isinstance(value, dict):
                for k, v in list(value.items()):
                    if v is original:
                        undo.append((value, k, v))
                        value[k] = replacement
                    elif isinstance(v, tuple) and any(e is original for e in v):
                        undo.append((value, k, v))
                        value[k] = tuple(replacement if e is original else e for e in v)


def restore(undo: list):
    for target, key, original in reversed(undo):
        if isinstance(target, dict):
            target[key] = original
        else:
            setattr(target, key, original)
    undo.clear()


def hdlp_modules():
    return [
        m for n, m in list(sys.modules.items())
        if m is not None and (n == "hdlp" or n.startswith("hdlp."))
    ]


def _observe_qr(tracer, args, result):
    tracer.counters["linalg.qr.flop_x3"] += qr_flops_x3(args[0].shape)


def _observe_dataset(tracer, args, result):
    nbytes = sum(getattr(result, k).nbytes for k in ("y", "x", "W"))
    tracer.counters["lp.build_lp_dataset.bytes"] += nbytes


def _observe_order(tracer, args, result):
    order = result[0]
    tracer.counters["selection.steps_computed"] += len(order)
    if tracer.inside(TUNING):
        tracer.counters["selection.orders_in_tuning"] += 1


def _observe_select(tracer, args, result):
    if not tracer.inside(TUNING):
        tracer.counters["selection.steps_kept"] += int(result.chosen_m)


def _lpdid_variance(args, kwargs):
    spec = kwargs.get("spec", args[1] if len(args) > 1 else None)
    return getattr(spec, "variance", "unknown")


VARIANTS = {"lpdid.lpdid_estimate": _lpdid_variance}
OBSERVERS = {
    "lp.build_lp_dataset": _observe_dataset,
    "selection.oga_order": _observe_order,
    "selection.oga_hdaic_select": _observe_select,
}
