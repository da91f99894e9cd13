"""Differential decode-and-forward relaying with weighted selection combining."""

__version__ = "0.1.0"

from .analysis import (
    ClosedFormContext,
    aber_asymptotic_wsc2,
    aber_wsc1,
    aber_wsc2,
    diversity_order_estimate,
    exp_integral_e1,
    optimize_beta,
)
from .combiners import SchemeId, beta_wsc2
from .fading import derive_stream
from .link import BlockObservables, SystemParams, simulate_block
from .simulator import BerEstimate, SimConfig, run_simulation, sweep, wilson_interval
