"""Differential BPSK source-relay-destination pipeline over fading blocks.

Noise power is normalized to N0 = 1 everywhere; the SNR axis P0/N0 (dB)
maps to the transmit power P0 = 10**(dB/10).  Each block carries one
reference symbol s(0) = 1 plus L data symbols.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .combiners import _sign, beta_wsc2
from .fading import sample_block
# Not called here any more; perfbench/tracing.py wraps it under this module's name.
from .fading import sample_fading_block  # noqa: F401

__all__ = [
    "SystemParams",
    "BlockObservables",
    "diff_encode",
    "decision_variables",
    "relay_detect",
    "estimate_relay_snr",
    "simulate_blocks",
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

    From simulate_block the arrays have length L and the rest are scalars;
    from simulate_blocks every field gains a leading block axis.  gamma1 is
    the S-R SNR as snr_mode delivers it to the destination: P0|h1|^2
    ("exact") or the received-energy estimate ("estimated").  beta_adaptive
    is min(1, gamma1/gbar2), the LAR relay power factor and the WSC2 weight
    of the block.
    """

    xi0: np.ndarray
    xi2: np.ndarray
    xiL: np.ndarray
    gamma1: float | np.ndarray
    beta_adaptive: float | np.ndarray
    relay_bits: np.ndarray
    tx_bits: np.ndarray


def diff_encode(bits: np.ndarray) -> np.ndarray:
    """Differentially encode +/-1 bits along the last axis; the s(0)=1 reference is prepended."""
    bits = np.asarray(bits)
    if bits.size == 0:
        raise ValueError("bits must be nonempty")
    out = np.empty(bits.shape[:-1] + (bits.shape[-1] + 1,), dtype=bits.dtype)
    out[..., 0] = 1
    np.cumprod(bits, axis=-1, out=out[..., 1:])
    return out


def decision_variables(y: np.ndarray) -> np.ndarray:
    """Re{y(k) y*(k-1)} for k = 1..L along the last axis: the differential detection statistics."""
    return (y[..., 1:] * np.conj(y[..., :-1])).real


def relay_detect(y1: np.ndarray) -> np.ndarray:
    """Hard differential decisions at the relay from L+1 received symbols (last axis)."""
    y1 = np.asarray(y1)
    if y1.ndim == 0 or y1.shape[-1] < 2:
        raise ValueError("need at least 2 received symbols")
    return _sign(decision_variables(y1))


def estimate_relay_snr(y1: np.ndarray, block_len: int):
    """Moment estimate of the relay SNR from received energy, clamped at 0.

    Divides by the L+1 symbols actually observed (reference included).  The
    energy is summed along the last axis, so a 2-D y1 holding one block per
    row gives one estimate per row.
    """
    y1 = np.asarray(y1)
    if block_len < 1:
        raise ValueError("block_len must be >= 1")
    energy = np.sum(y1.real ** 2 + y1.imag ** 2, axis=-1)
    return np.maximum(0.0, energy / (block_len + 1) - 1.0)


def simulate_blocks(params: SystemParams, h: np.ndarray, bit_uniforms: np.ndarray,
                    noise_normals: np.ndarray) -> BlockObservables:
    """Run a batch of fading blocks end to end from their draws.

    h (N, 3) holds the S-D, S-R and R-D gains, bit_uniforms (N, L) the
    uniforms that make the data bits, noise_normals (N, 3, L+1, 2) the
    unit normals of the three noise vectors (see ``fading`` for the order
    they are drawn in).  Every field of the result has the batch as its
    first axis.

    The LAR observables reuse the same h2 and n2 realizations with the
    relay transmit power scaled by the link-adaptive factor, so scheme
    comparisons on one block are paired.
    """
    L = params.block_len
    p0 = params.p0
    sqrt_p0 = np.sqrt(p0)
    h0, h1, h2 = h.T

    tx_bits = _sign(bit_uniforms - 0.5)
    s = diff_encode(tx_bits)

    n = noise_normals * np.sqrt(0.5)
    noise = n[..., 0] + 1j * n[..., 1]
    n0, n1, n2 = noise[:, 0], noise[:, 1], noise[:, 2]

    y0 = (sqrt_p0 * h0)[:, None] * s + n0
    y1 = (sqrt_p0 * h1)[:, None] * s + n1

    relay_bits = relay_detect(y1)
    s_hat = diff_encode(relay_bits)

    y2 = (sqrt_p0 * h2)[:, None] * s_hat + n2

    if params.snr_mode == "exact":
        gamma1 = p0 * (h1.real ** 2 + h1.imag ** 2)
    else:
        gamma1 = estimate_relay_snr(y1, L)

    gbar2 = p0 * params.sigma_sq[2]
    # A dead relay link (gbar2 = 0) degenerates to direct-only decisions.
    beta_adaptive = beta_wsc2(gamma1, gbar2) if gbar2 > 0 else np.zeros(len(h))
    yL = (np.sqrt(beta_adaptive) * sqrt_p0 * h2)[:, None] * s_hat + n2

    return BlockObservables(
        xi0=decision_variables(y0),
        xi2=decision_variables(y2),
        xiL=decision_variables(yL),
        gamma1=gamma1,
        beta_adaptive=beta_adaptive,
        relay_bits=relay_bits,
        tx_bits=tx_bits,
    )


def simulate_block(params: SystemParams, rng: np.random.Generator) -> BlockObservables:
    """Run one fading block, drawn from rng where it stands: simulate_blocks with N = 1."""
    batch = simulate_blocks(params, *sample_block(rng, params.sigma_sq, params.block_len))
    return BlockObservables(**{f.name: getattr(batch, f.name)[0] for f in fields(batch)})
