"""Local projections with greedy high-dimensional control selection."""

from types import ModuleType as _ModuleType

from .dgp import (
    Section3Design,
    VarDgpSpec,
    alternating_decay_vector,
    build_section3_coefficients,
    section3_lp_spec,
    simulate_var,
    toeplitz_power_sigma,
    true_reduced_form_irf,
)
from .hac import HacConfig, auto_bandwidth, hac_variance, newey_west
from .lp import (
    CONVENTIONAL_LP,
    DOUBLE_OGA,
    METHODS,
    IrfResult,
    LpDataset,
    LpEstimate,
    LpSpec,
    TimeSeriesMatrix,
    build_lp_dataset,
    conventional_lp,
    double_oga_lp,
    estimate_irf,
)
from .lpdid import LpDidSpec, PanelDataset, lpdid_estimate
from .montecarlo import (
    McDesign,
    McReport,
    aggregate_records,
    run_monte_carlo,
    section3_mc_design,
)
from .selection import (
    OgaConfig,
    SelectionPath,
    max_steps,
    oga_hdaic_select,
    oga_order,
)

__version__ = "0.1.0"

# every public name imported above, the submodules those imports bind excepted
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _ModuleType))
