"""Differential BPSK source-relay-destination pipeline over fading blocks.

Noise power is normalized to N0 = 1 everywhere; the SNR axis P0/N0 (dB)
maps to the transmit power P0 = 10**(dB/10).  Each block carries one
reference symbol s(0) = 1 plus L data symbols.  A bit is a boolean, True
for +1, from the draws to the error count; only symbols are float +/-1.

``simulate_blocks`` is the one link pass: it runs a batch of blocks from
their finished draws (``fading.sample_blocks``) and writes every
block-sized intermediate (symbols, received signals, decision variables,
relay decisions) into a ``_LinkBuffers`` set: fresh, or the leading rows
of ``out``, the set the simulator's chunk kernel keeps per thread, so that
a chunk allocates nothing large.  No stage writes its inputs.
``diff_encode``, ``decision_variables``, ``relay_detect`` and
``estimate_relay_snr`` take optional destinations for that purpose;
without them they return fresh arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .analysis import _check_variances, _db_to_power
from .combiners import beta_wsc2
from .fading import sample_blocks
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
        _check_variances(self.sigma_sq)
        if self.snr_mode not in ("exact", "estimated"):
            raise ValueError(f"snr_mode must be 'exact' or 'estimated', got {self.snr_mode!r}")

    @property
    def p0(self) -> float:
        return _db_to_power(self.p0_over_n0_db)

    @property
    def gamma_bars(self) -> tuple[float, float, float]:
        """Average link SNRs (P0 * sigma_i^2 with N0 = 1)."""
        p0 = self.p0
        return tuple(p0 * s for s in self.sigma_sq)


@dataclass
class BlockObservables:
    """Per-block decision variables and relay-side quantities.

    Every field has the batch of blocks as its leading axis; simulate_block
    returns one row of it (arrays of length L, scalars).  xi0, xi2 and xiL
    are the real parts of complex product arrays (strided views).
    tx_bits (the data) and relay_bits are boolean, True for +1.  gamma1 is
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


class _LinkBuffers:
    """The block-sized arrays a link pass over up to count blocks of block_len bits writes."""

    def __init__(self, count: int, block_len: int) -> None:
        self.relay = np.empty((count, block_len), dtype=bool)  # the relay's decisions
        self.signs = np.empty((count, block_len))  # the +/-1 bits diff_encode multiplies up
        self.symbols = np.empty((count, block_len + 1))  # the source's, then the relay's symbols
        # Received signals, each reused once its xi is taken, and the products
        # y(k) y*(k-1) of the direct, relay and LAR branches.
        self.y = np.empty((2, count, block_len + 1), dtype=complex)
        self.xi = np.empty((3, count, block_len), dtype=complex)


def diff_encode(bits: np.ndarray, out=None, work=None) -> np.ndarray:
    """Differentially encode boolean bits (True is +1) along the last axis; s(0)=1 is prepended.

    Returns float +/-1 symbols, written into ``out`` when given; ``work``,
    a float array of bits' shape, holds the bits as +/-1.
    """
    bits = np.asarray(bits)
    if bits.dtype != bool:
        raise ValueError(f"bits must be boolean (True is +1), got dtype {bits.dtype}")
    if bits.size == 0:
        raise ValueError("bits must be nonempty")
    if out is None:
        out = np.empty(bits.shape[:-1] + (bits.shape[-1] + 1,))
    signs = np.multiply(bits, 2.0, out=work)
    signs -= 1.0
    out[..., 0] = 1.0
    np.cumprod(signs, axis=-1, out=out[..., 1:])
    return out


def decision_variables(y: np.ndarray, out=None) -> np.ndarray:
    """Re{y(k) y*(k-1)} for k = 1..L along the last axis: the differential detection statistics.

    The result is the real part (a view) of the complex products
    y(k) y*(k-1), which go into ``out`` when it is given.
    """
    out = np.conjugate(y[..., :-1], out=out)
    return np.multiply(y[..., 1:], out, out=out).real


def relay_detect(y1: np.ndarray, out=None, work=None) -> np.ndarray:
    """Hard differential decisions at the relay from L+1 received symbols (last axis).

    Returns booleans, True for +1 and for the zero-measure tie, written into
    ``out`` when given; ``work`` is decision_variables' ``out``.
    """
    y1 = np.asarray(y1)
    if y1.ndim == 0 or y1.shape[-1] < 2:
        raise ValueError("need at least 2 received symbols")
    return np.greater_equal(decision_variables(y1, out=work), 0, out=out)


def estimate_relay_snr(y1: np.ndarray, work=None):
    """Moment estimate of the relay SNR from received energy, clamped at 0.

    The energy is summed along the last axis and divided by its length, the
    L+1 symbols actually observed (reference included), so a 2-D y1 holding
    one block per row gives one estimate per row.  ``work``, optional, is a
    complex array of y1's shape whose real and imaginary parts hold the
    squares.
    """
    y1 = np.asarray(y1)
    if y1.ndim == 0 or y1.shape[-1] == 0:
        raise ValueError("need at least 1 received symbol")
    if work is None:
        work = np.empty(y1.shape, dtype=complex)
    power = np.add(np.square(y1.real, out=work.real), np.square(y1.imag, out=work.imag), out=work.real)
    energy = np.sum(power, axis=-1)
    return np.maximum(0.0, energy / y1.shape[-1] - 1.0)


def _received(gain: np.ndarray, symbols: np.ndarray, noise: np.ndarray, out: np.ndarray) -> np.ndarray:
    """y = gain * s + n for a batch, gain (N,) per block, written into out."""
    np.multiply(gain[:, None], symbols, out=out)
    out += noise
    return out


def simulate_blocks(params: SystemParams, h: np.ndarray, tx_bits: np.ndarray, noise: np.ndarray,
                    out: _LinkBuffers | None = None) -> BlockObservables:
    """Run a batch of fading blocks end to end from their draws.

    h (N, 3) holds the S-D, S-R and R-D gains, tx_bits (N, L) the boolean
    data bits and noise (N, 3, L+1) the complex noise of the three links,
    as ``fading.sample_blocks`` returns them; they are read, never written.
    Every field of the result has the batch as its first axis; tx_bits is
    the input, and xi0, xi2, xiL and relay_bits are views of the leading N
    rows of ``out``, a ``_LinkBuffers`` of at least N blocks of L bits
    (fresh when not given).

    The LAR observables reuse the same h2 and n2 realizations with the
    relay transmit power scaled by the link-adaptive factor, so scheme
    comparisons on one block are paired.
    """
    n = len(h)
    buf = _LinkBuffers(n, params.block_len) if out is None else out
    relay, signs, symbols = buf.relay[:n], buf.signs[:n], buf.symbols[:n]
    y, xi = buf.y[:, :n], buf.xi[:, :n]
    p0 = params.p0
    sqrt_p0 = np.sqrt(p0)
    h0, h1, h2 = h.T
    n0, n1, n2 = noise[:, 0], noise[:, 1], noise[:, 2]

    s = diff_encode(tx_bits, out=symbols, work=signs)
    xi0 = decision_variables(_received(sqrt_p0 * h0, s, n0, y[0]), out=xi[0])
    y1 = _received(sqrt_p0 * h1, s, n1, y[1])

    relay_bits = relay_detect(y1, out=relay, work=xi[2])
    if params.snr_mode == "exact":
        gamma1 = p0 * (h1.real ** 2 + h1.imag ** 2)
    else:
        gamma1 = estimate_relay_snr(y1, work=y[0])
    s_hat = diff_encode(relay_bits, out=symbols, work=signs)

    xi2 = decision_variables(_received(sqrt_p0 * h2, s_hat, n2, y[0]), out=xi[1])

    beta_adaptive = beta_wsc2(gamma1, p0 * params.sigma_sq[2])
    yL = _received(np.sqrt(beta_adaptive) * sqrt_p0 * h2, s_hat, n2, y[1])

    return BlockObservables(
        xi0=xi0,
        xi2=xi2,
        xiL=decision_variables(yL, out=xi[2]),
        gamma1=gamma1,
        beta_adaptive=beta_adaptive,
        relay_bits=relay_bits,
        tx_bits=tx_bits,
    )


def simulate_block(params: SystemParams, seed: int, block: int) -> BlockObservables:
    """Run block ``block`` of seed ``seed``: row 0 of simulate_blocks on sample_blocks(seed, [block])."""
    batch = simulate_blocks(params, *sample_blocks(seed, [block], params.sigma_sq, params.block_len))
    return BlockObservables(**{f.name: getattr(batch, f.name)[0] for f in fields(batch)})
