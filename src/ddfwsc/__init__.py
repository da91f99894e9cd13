"""Differential decode-and-forward relaying with weighted selection combining."""

__version__ = "0.1.0"

from .analysis import ClosedFormContext, aber_asymptotic_wsc2, aber_wsc1, aber_wsc2, optimize_beta
from .combiners import SchemeId
from .link import SystemParams
from .simulator import BerEstimate, SimConfig, run_simulation, sweep, wilson_interval

__all__ = ["__version__", "ClosedFormContext", "aber_wsc1", "aber_wsc2", "aber_asymptotic_wsc2", "optimize_beta",
           "SchemeId", "SystemParams", "SimConfig", "BerEstimate", "run_simulation", "sweep", "wilson_interval"]
