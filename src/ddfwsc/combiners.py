"""Destination-side decision rules: SC, the two weighted SC variants, and LAR.

``SCHEMES`` is the one table of the four rules: how each decides a block,
what it reports in the CSV beta column, and its closed-form ABER.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

from . import analysis

__all__ = [
    "SchemeId",
    "Scheme",
    "SCHEMES",
    "beta_wsc2",
    "wsc_bits",
    "lar_bits",
]


class SchemeId(str, Enum):
    SC = "sc"
    WSC1 = "wsc1"
    WSC2 = "wsc2"
    LAR = "lar"


@dataclass(frozen=True)
class Scheme:
    """One destination rule, in terms of the configured WSC1 weight ``beta_wsc1``.

    ``weight(beta_wsc1, beta_adaptive)`` is the selection weight for one
    block, given that block's min(1, gamma1/gbar2); it is None for LAR,
    which adds the direct and relay branches instead of selecting.
    ``aber(beta_wsc1, ctx)`` is the closed-form ABER (None for LAR, which
    has none); it raises ValueError where the form is undefined.
    """

    weight: Callable[[float, float], float] | None
    aber: Callable[[float, analysis.ClosedFormContext], float] | None

    def beta_column(self, beta_wsc1: float) -> float | None:
        """The CSV beta column: the weight when it is fixed before the block
        is seen, None when it adapts per block (WSC2) or there is none (LAR)."""
        return None if self.weight is None else self.weight(beta_wsc1, None)

    def closed_form(self, beta_wsc1: float, ctx: analysis.ClosedFormContext) -> float | None:
        """The closed-form ABER, or None where there is none (LAR, degenerate gbar)."""
        if self.aber is None:
            return None
        try:
            return self.aber(beta_wsc1, ctx)
        except ValueError:
            return None


# The closed forms are looked up on the analysis module at call time, so a
# replaced analysis function is the one that runs.
SCHEMES: dict[SchemeId, Scheme] = {
    SchemeId.SC: Scheme(weight=lambda beta_wsc1, beta_adaptive: 1.0,
                        aber=lambda beta_wsc1, ctx: analysis.aber_wsc1(1.0, ctx)),
    SchemeId.WSC1: Scheme(weight=lambda beta_wsc1, beta_adaptive: beta_wsc1,
                          aber=lambda beta_wsc1, ctx: analysis.aber_wsc1(beta_wsc1, ctx)),
    SchemeId.WSC2: Scheme(weight=lambda beta_wsc1, beta_adaptive: beta_adaptive,
                          aber=lambda beta_wsc1, ctx: analysis.aber_wsc2(ctx)),
    SchemeId.LAR: Scheme(weight=None, aber=None),
}


def beta_wsc2(gamma1, gamma_bar2: float):
    """Adaptive selection weight min(1, gamma1/gamma_bar2), of gamma1's shape.

    The same factor scales the relay's transmit power under LAR.  gamma1 = 0
    yields beta = 0, which deterministically selects the direct link; so does
    a dead R-D link (gamma_bar2 = 0) for every block, where LAR's relay sends nothing.
    """
    if gamma_bar2 < 0:
        raise ValueError(f"gamma_bar2 must be >= 0, got {gamma_bar2}")
    if np.any(np.asarray(gamma1) < 0):
        raise ValueError(f"gamma1 must be >= 0, got {np.min(gamma1)}")
    if gamma_bar2 == 0:
        return np.zeros_like(gamma1, dtype=float)[()]
    return np.minimum(1.0, gamma1 / gamma_bar2)


def wsc_bits(xi0: np.ndarray, xi2: np.ndarray, beta, out=None, work=None) -> np.ndarray:
    """Weighted-selection decisions for whole blocks; beta = 0 allowed.

    beta is one weight, or an array of weights that broadcasts against the
    decision variables: (N, 1) per-block weights for (N, L) blocks, or
    (K, M) for K weights stacked over M gathered bits.  The relay branch
    is used only where beta*|xi2| beats |xi0|: ties go to the direct link,
    which carries no error propagation.  Returns booleans of the broadcast
    shape, True for a +1 decision; ``out`` receives them when given, and
    ``work``, a pair of float arrays of that shape, holds |xi0| and
    beta*|xi2| instead of fresh arrays.
    """
    if np.any(np.asarray(beta) < 0):
        raise ValueError(f"beta must be >= 0, got {np.min(beta)}")
    mag0, mag2 = (None, None) if work is None else work
    mag0 = np.abs(xi0, out=mag0)
    mag2 = np.multiply(beta, np.abs(xi2, out=mag2), out=mag2)
    use_direct = mag0 >= mag2
    # Select the sign of the chosen branch: pos2, flipped where the direct
    # branch is used and its sign differs.
    pos2 = np.greater_equal(xi2, 0)
    if out is None:
        out = np.empty(use_direct.shape, dtype=bool)
    positive = np.greater_equal(xi0, 0, out=out)
    positive ^= pos2
    positive &= use_direct
    positive ^= pos2
    return positive


def lar_bits(xi0: np.ndarray, xiL: np.ndarray, out=None, work=None) -> np.ndarray:
    """LAR decisions for a whole block: True where the summed branches are >= 0.

    ``out`` and ``work`` (one float array of xi0's shape, for the sum) as
    in ``wsc_bits``.
    """
    return np.greater_equal(np.add(xi0, xiL, out=work), 0, out=out)
