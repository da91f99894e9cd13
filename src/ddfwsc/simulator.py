"""Monte Carlo harness: paired per-block scheme evaluation with early stopping.

Every block is generated from its own (seed, block_index) stream (see
``fading``), so results are bit-exact for a fixed configuration
regardless of how many workers are used.  The kernel, ``_chunk_errors``,
works on a chunk of consecutive blocks at once: it hashes the chunk's
Philox keys in numpy, draws each block from one reused generator reset to
that block's key, runs the link for the whole chunk and calls each
scheme's combiner once, with a per-block weight array for WSC2.  Errors
are counted on boolean decisions (decision is +1) against the link's
boolean data bits (uniform >= 0.5).

A chunk allocates nothing large: its draws, symbols, received signals,
decision variables and decisions go into a ``_Workspace`` that each
thread keeps from one chunk to the next (``threading.local``), for one
chunk shape at a time.  At L = 256 it is about 2.9 MB; no returned array
aliases it.  An in-process ``run_simulation`` releases its thread's
workspace when it returns; a pool worker keeps its own until the pool
shuts down.  Fresh temporaries every chunk cost more than the arithmetic
at L = 256: the allocator returned them to the OS between chunks, so every
chunk page-faulted them back in.  Every count is the same as with fresh
arrays.

A chunk is sized by work, not by block count (``_chunk_len``): as many
blocks as fit in 4096 channel uses, but at least 64, so short blocks do
not pay the kernel's fixed per-call cost every 64 blocks.  Blocks are
simulated in rounds of one chunk per worker; workers only split each
round, and early stopping is applied at block granularity, so the stop
point is the same for every chunk length, round size and worker count.
"""

from __future__ import annotations

import math
import threading
from concurrent.futures import Executor, ProcessPoolExecutor
from contextlib import nullcontext, suppress
from dataclasses import dataclass, replace

import numpy as np

from . import analysis
from .analysis import ClosedFormContext
from .combiners import SCHEMES, SchemeId, lar_bits, wsc_bits
from .fading import _empty_draws, sample_blocks
from .link import SystemParams, _LinkBuffers, _simulate_into
# Not called here any more; perfbench/tracing.py wraps them under this module's names.
from .fading import derive_stream  # noqa: F401
from .link import simulate_block  # noqa: F401

__all__ = ["SimConfig", "BerEstimate", "SweepRecord", "run_simulation", "sweep", "wilson_interval"]

_MIN_CHUNK = 64  # blocks
_CHUNK_USES = 64 * 64  # channel uses: a 64-block chunk at L = 63 (L + 1 symbols a block)
_SWEEP_SEED_STRIDE = 10 ** 9


@dataclass(frozen=True)
class SimConfig:
    params: SystemParams
    schemes: tuple[SchemeId, ...] = (SchemeId.SC, SchemeId.WSC2)
    beta_wsc1: float = 1.0
    max_blocks: int = 100_000
    min_errors: int = 200
    seed: int = 0
    workers: int = 1

    def __post_init__(self):
        if self.max_blocks < 1:
            raise ValueError("max_blocks must be >= 1")
        if self.min_errors < 0:
            raise ValueError("min_errors must be >= 0")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not (math.isfinite(self.beta_wsc1) and self.beta_wsc1 > 0):
            raise ValueError(f"beta_wsc1 must be finite and > 0, got {self.beta_wsc1}")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if not self.schemes:
            raise ValueError("at least one scheme is required")


@dataclass(frozen=True)
class BerEstimate:
    """One scheme's errors over a run; the ci95 bounds are the bit-level wilson_interval."""

    scheme: SchemeId
    bit_errors: int
    bits: int
    ber: float
    ci95_low: float
    ci95_high: float


@dataclass(frozen=True)
class SweepRecord:
    axis_value: float
    estimates: tuple[BerEstimate, ...]
    analytic: dict
    beta_wsc1: float
    asymptotic: float | None = None


def wilson_interval(errors: int, n: int, z: float = 1.959963984540054) -> tuple[float, float]:
    """95% Wilson score interval for an error proportion of n independent trials.

    Applied to bits it assumes independent bits, but a fading block's bits
    share its gains, so it under-covers on few blocks (3 blocks of 16 bits
    at 0 dB: sc 0.479, interval [0.345, 0.617], closed form 0.242).
    """
    if n == 0:
        return 0.0, 1.0
    p = errors / n
    denom = 1.0 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = (z / denom) * math.sqrt(p * (1.0 - p) / n + z * z / (4.0 * n * n))
    return max(0.0, center - half), min(1.0, center + half)


def _chunk_len(block_len: int) -> int:
    """Blocks per kernel call: as many as fit in _CHUNK_USES channel uses, but at least _MIN_CHUNK.

    Every block_len >= 63 keeps the 64-block chunk; L = 4 gets 819 blocks.
    """
    return max(_MIN_CHUNK, _CHUNK_USES // (block_len + 1))


class _Workspace:
    """Every block-sized array of one chunk shape (count blocks of block_len bits)."""

    def __init__(self, count: int, block_len: int) -> None:
        self.shape = (count, block_len)
        self.draws = _empty_draws(count, block_len)
        self.link = _LinkBuffers.empty(count, block_len)
        self.work = (np.empty(self.shape), np.empty(self.shape))
        self.decision = np.empty(self.shape, dtype=bool)


_local = threading.local()


def _workspace(count: int, block_len: int) -> _Workspace:
    """This thread's workspace, replaced when the chunk shape changes."""
    ws = getattr(_local, "workspace", None)
    if ws is None or ws.shape != (count, block_len):
        _local.workspace = None  # free the old one before allocating the new
        ws = _local.workspace = _Workspace(count, block_len)
    return ws


def _chunk_errors(params: SystemParams, schemes, beta_wsc1: float, seed: int,
                  start: int, count: int) -> np.ndarray:
    """Per-block error counts for blocks [start, start+count), shape (count, n_schemes)."""
    ws = _workspace(count, params.block_len)
    h, uniforms, noise = sample_blocks(seed, np.arange(start, start + count, dtype=np.uint64),
                                       params.sigma_sq, params.block_len, out=ws.draws)
    obs = _simulate_into(params, h, uniforms, noise, ws.link)
    out = np.empty((count, len(schemes)), dtype=np.int64)
    for j, scheme in enumerate(schemes):
        weight = SCHEMES[scheme].weight
        if weight is None:
            decision = lar_bits(obs.xi0, obs.xiL, out=ws.decision, work=ws.work[0])
        else:
            decision = wsc_bits(obs.xi0, obs.xi2, weight(beta_wsc1, obs.beta_adaptive[:, None]),
                                out=ws.decision, work=ws.work)
        out[:, j] = np.count_nonzero(np.not_equal(decision, obs.tx_bits, out=decision), axis=1)
    return out


def run_simulation(cfg: SimConfig, pool: Executor | None = None) -> list[BerEstimate]:
    """Simulate until every scheme has min_errors errors or max_blocks is hit.

    All schemes are evaluated on the same block realizations.  Blocks run
    in rounds of one chunk (``_chunk_len`` blocks) per worker, and the run
    stops at the first block whose cumulative counts meet min_errors for
    every scheme, so the stop point depends on neither the chunk length nor
    the worker count.
    Chunks run on ``pool`` when one is given; otherwise a run with
    workers > 1 opens its own process pool for the run, and a run with
    workers = 1 runs them in this thread and frees the thread's chunk
    workspace before it returns.
    """
    schemes = tuple(cfg.schemes)
    args = (cfg.params, schemes, cfg.beta_wsc1, cfg.seed)
    target = cfg.min_errors or math.inf  # min_errors = 0 runs to max_blocks
    chunk = _chunk_len(cfg.params.block_len)
    step = chunk * cfg.workers
    totals = np.zeros(len(schemes), dtype=np.int64)
    own_pool = pool is None and cfg.workers > 1
    try:
        with ProcessPoolExecutor(cfg.workers) if own_pool else nullcontext(pool) as pool:
            for start in range(0, cfg.max_blocks, step):
                stop = min(start + step, cfg.max_blocks)
                errors = (_chunk_errors(*args, start, stop - start) if pool is None else
                          np.concatenate([f.result() for f in [
                              pool.submit(_chunk_errors, *args, s, min(chunk, stop - s))
                              for s in range(start, stop, chunk)]]))
                cum = totals + np.cumsum(errors, axis=0)
                met = np.flatnonzero(np.all(cum >= target, axis=1))
                used = int(met[0]) + 1 if met.size else stop - start
                totals, blocks_used = cum[used - 1], start + used
                if met.size:
                    break
    finally:
        _local.workspace = None  # in-process chunks used this thread's workspace

    bits = blocks_used * cfg.params.block_len
    results = []
    for j, scheme in enumerate(schemes):
        errs = int(totals[j])
        lo, hi = wilson_interval(errs, bits)
        results.append(BerEstimate(scheme=scheme, bit_errors=errs, bits=bits,
                                   ber=errs / bits, ci95_low=lo, ci95_high=hi))
    return results


def sweep(cfg: SimConfig, axis: str, values, optimize_wsc1: bool = False) -> list[SweepRecord]:
    """One run_simulation per axis value (snr_db or beta), with analytic columns.

    Seeds are offset per axis index so points are independent yet each
    point stays individually reproducible.  With optimize_wsc1 on the
    snr_db axis, WSC1 uses each point's optimize_beta weight instead of
    cfg.beta_wsc1.  Every point is validated before any is simulated, and
    with workers > 1 the whole sweep shares one process pool.
    """
    values = list(values)
    if not values:
        raise ValueError("values must be nonempty")
    if any(b >= a for a, b in zip(values[1:], values[:-1])):
        raise ValueError("values must be strictly increasing")
    if axis == "snr_db":
        points = [replace(cfg, params=replace(cfg.params, p0_over_n0_db=v)) for v in values]
    elif axis == "beta":
        if optimize_wsc1:
            raise ValueError("optimize_wsc1 applies to the snr_db axis only")
        points = [replace(cfg, beta_wsc1=v) for v in values]
    else:
        raise ValueError(f"axis must be 'snr_db' or 'beta', got {axis!r}")
    contexts = [ClosedFormContext(*p.params.gamma_bars) for p in points]
    if optimize_wsc1 and SchemeId.WSC1 in cfg.schemes:
        points = [replace(p, beta_wsc1=analysis.optimize_beta(ctx)[0]) for p, ctx in zip(points, contexts)]

    records = []
    symmetric = len(set(cfg.params.sigma_sq)) == 1 and cfg.params.sigma_sq[0] == 1.0
    with ProcessPoolExecutor(cfg.workers) if cfg.workers > 1 else nullcontext() as pool:
        for idx, (value, point, ctx) in enumerate(zip(values, points, contexts)):
            point = replace(point, seed=cfg.seed + _SWEEP_SEED_STRIDE * idx)
            estimates = tuple(run_simulation(point, pool=pool))
            analytic = {s: ber for s in cfg.schemes
                        if (ber := SCHEMES[s].closed_form(point.beta_wsc1, ctx)) is not None}
            asym = None
            if symmetric and SchemeId.WSC2 in cfg.schemes:
                # Left empty where it overflows, as closed_form leaves undefined forms.
                with suppress(ValueError):
                    asym = analysis.aber_asymptotic_wsc2(point.params.p0)
            records.append(SweepRecord(axis_value=value, estimates=estimates, analytic=analytic,
                                       beta_wsc1=point.beta_wsc1, asymptotic=asym))
    return records
