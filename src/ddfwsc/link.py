"""Differential BPSK source-relay-destination pipeline for one fading block.

Noise power is normalized to N0 = 1 everywhere; the SNR axis P0/N0 (dB)
maps to the transmit power P0 = 10**(dB/10).  Each block carries one
reference symbol s(0) = 1 plus L data symbols.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .combiners import _sign, beta_wsc2
from .fading import sample_fading_block

__all__ = [
    "SystemParams",
    "BlockObservables",
    "diff_encode",
    "decision_variables",
    "relay_detect",
    "estimate_relay_snr",
    "simulate_block",
]


@dataclass(frozen=True)
class SystemParams:
    """Single source of configuration truth for the link simulation."""

    p0_over_n0_db: float
    sigma_sq: tuple[float, float, float] = (1.0, 1.0, 1.0)
    block_len: int = 256
    snr_mode: str = "exact"  # how the relay SNR reaches the destination

    def __post_init__(self):
        if self.block_len < 1:
            raise ValueError("block_len must be >= 1")
        if not math.isfinite(self.p0_over_n0_db):
            raise ValueError(f"p0_over_n0_db must be finite, got {self.p0_over_n0_db}")
        if not all(math.isfinite(s) and s >= 0 for s in self.sigma_sq):
            raise ValueError(f"channel variances must be finite and >= 0, got {self.sigma_sq}")
        if self.snr_mode not in ("exact", "estimated"):
            raise ValueError(f"snr_mode must be 'exact' or 'estimated', got {self.snr_mode!r}")

    @property
    def p0(self) -> float:
        return 10.0 ** (self.p0_over_n0_db / 10.0)

    @property
    def gamma_bars(self) -> tuple[float, float, float]:
        """Average link SNRs (P0 * sigma_i^2 with N0 = 1)."""
        p0 = self.p0
        return tuple(p0 * s for s in self.sigma_sq)


@dataclass
class BlockObservables:
    """Per-block decision variables and relay-side quantities.

    beta_adaptive is min(1, gamma1/gbar2), with gamma1 as snr_mode delivers
    it: the LAR relay power factor and the WSC2 weight of this block.
    """

    xi0: np.ndarray
    xi2: np.ndarray
    xiL: np.ndarray
    gamma1_exact: float
    gamma1_est: float
    beta_adaptive: float
    relay_bits: np.ndarray
    tx_bits: np.ndarray


def diff_encode(bits: np.ndarray) -> np.ndarray:
    """Differentially encode +/-1 bits; output has the s(0)=1 reference prepended."""
    bits = np.asarray(bits)
    if bits.size == 0:
        raise ValueError("bits must be nonempty")
    out = np.empty(bits.size + 1, dtype=bits.dtype)
    out[0] = 1
    np.cumprod(bits, out=out[1:])
    return out


def decision_variables(y: np.ndarray) -> np.ndarray:
    """Re{y(k) y*(k-1)} for k = 1..L: the differential detection statistics."""
    return (y[1:] * np.conj(y[:-1])).real


def relay_detect(y1: np.ndarray) -> np.ndarray:
    """Hard differential decisions at the relay from L+1 received symbols."""
    y1 = np.asarray(y1)
    if y1.size < 2:
        raise ValueError("need at least 2 received symbols")
    return _sign(decision_variables(y1))


def estimate_relay_snr(y1: np.ndarray, block_len: int) -> float:
    """Moment estimate of the relay SNR from received energy, clamped at 0.

    Divides by the L+1 symbols actually observed (reference included).
    """
    y1 = np.asarray(y1)
    if block_len < 1:
        raise ValueError("block_len must be >= 1")
    est = np.vdot(y1, y1).real / (block_len + 1) - 1.0
    return max(0.0, est)


def simulate_block(params: SystemParams, rng: np.random.Generator) -> BlockObservables:
    """Run one fading block end to end and return all decision variables.

    The LAR observables reuse the same h2 and n2 realizations with the
    relay transmit power scaled by the link-adaptive factor, so scheme
    comparisons on one block are paired.
    """
    L = params.block_len
    p0 = params.p0
    sqrt_p0 = np.sqrt(p0)

    h0, h1, h2 = sample_fading_block(rng, params.sigma_sq)
    tx_bits = _sign(rng.random(L) - 0.5)
    s = diff_encode(tx_bits)

    # One batched draw for all three unit-variance noise vectors.
    n = rng.standard_normal((3, L + 1, 2)) * np.sqrt(0.5)
    n0, n1, n2 = n[..., 0] + 1j * n[..., 1]

    y0 = sqrt_p0 * h0 * s + n0
    y1 = sqrt_p0 * h1 * s + n1

    relay_bits = relay_detect(y1)
    s_hat = diff_encode(relay_bits)

    y2 = sqrt_p0 * h2 * s_hat + n2

    gamma1_exact = p0 * abs(h1) ** 2
    gamma1_est = estimate_relay_snr(y1, L)
    gamma1 = gamma1_exact if params.snr_mode == "exact" else gamma1_est

    gbar2 = p0 * params.sigma_sq[2]
    # A dead relay link (gbar2 = 0) degenerates to direct-only decisions.
    beta_adaptive = beta_wsc2(gamma1, gbar2) if gbar2 > 0 else 0.0
    yL = np.sqrt(beta_adaptive) * sqrt_p0 * h2 * s_hat + n2

    return BlockObservables(
        xi0=decision_variables(y0),
        xi2=decision_variables(y2),
        xiL=decision_variables(yL),
        gamma1_exact=gamma1_exact,
        gamma1_est=gamma1_est,
        beta_adaptive=beta_adaptive,
        relay_bits=relay_bits,
        tx_bits=tx_bits,
    )
