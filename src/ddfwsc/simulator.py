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
not pay the kernel's fixed per-call cost every 64 blocks.

One dispatch (``_dispatch``) runs a single run and every point of a sweep
through one queue of chunks.  Each run folds its chunks' per-block counts
in block order and stops at the first block that meets min_errors, so the
stop point is the same for every chunk length and worker count.  With
workers = 1 the queue holds one chunk, computed in this thread.  With more,
one process pool keeps workers + 1 chunks in flight, and there is no
barrier between rounds: a chunk that some open run certainly needs (one
with no chunk in flight) goes out first, so the points of a sweep run side
by side, and only then a speculative next chunk of the lowest open run,
whose counts are dropped if the run stops before it.  Results are
collected in submission order, so what is submitted depends on the counts
alone.
"""

from __future__ import annotations

import math
import threading
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from contextlib import suppress
from dataclasses import dataclass, replace

import numpy as np

from . import analysis
from .analysis import ClosedFormContext
from .combiners import SCHEMES, SchemeId, lar_bits, wsc_bits
from .fading import _DrawBuffers, sample_blocks
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
        repeated = [s for i, s in enumerate(self.schemes) if s in self.schemes[:i]]
        if repeated:
            raise ValueError(f"scheme {SchemeId(repeated[0]).value!r} is given more than once")


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
        self.draws = _DrawBuffers(count, block_len)
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


class _Run:
    """One point's early stop: its chunks' per-block counts, folded in block order."""

    def __init__(self, cfg: SimConfig) -> None:
        self.cfg = cfg
        self.args = (cfg.params, tuple(cfg.schemes), cfg.beta_wsc1, cfg.seed)
        self.chunk = _chunk_len(cfg.params.block_len)
        self.target = cfg.min_errors or math.inf  # min_errors = 0 runs to max_blocks
        self.totals = np.zeros(len(cfg.schemes), dtype=np.int64)
        self.blocks_used = 0  # blocks folded
        self.submitted = 0  # blocks sent out
        self.in_flight = 0  # chunks sent out and not yet collected
        self.stopped = False  # min_errors met

    def fold(self, errors: np.ndarray) -> None:
        """Add the next chunk's counts up to the first block that meets min_errors for every scheme."""
        cum = self.totals + np.cumsum(errors, axis=0)
        met = np.flatnonzero(np.all(cum >= self.target, axis=1))
        used = int(met[0]) + 1 if met.size else len(errors)
        self.totals = cum[used - 1]
        self.blocks_used += used
        self.stopped = met.size > 0

    def estimates(self) -> list[BerEstimate]:
        bits = self.blocks_used * self.cfg.params.block_len
        results = []
        for scheme, errs in zip(self.cfg.schemes, self.totals.tolist()):
            lo, hi = wilson_interval(errs, bits)
            results.append(BerEstimate(scheme=scheme, bit_errors=errs, bits=bits,
                                       ber=errs / bits, ci95_low=lo, ci95_high=hi))
        return results


class _InThread:
    """The one-worker stand-in for the pool: submit() runs the chunk in this thread.

    On exit it frees the thread's chunk workspace.
    """

    def __enter__(self) -> _InThread:
        return self

    def __exit__(self, *exc) -> None:
        _local.workspace = None

    def submit(self, fn, *args):
        self._out = fn(*args)
        return self

    def result(self):
        return self._out


def _dispatch(runs: list[_Run], workers: int) -> None:
    """Run every run to its stop through one queue of chunks.

    With workers = 1 the queue holds one chunk, computed in this thread;
    otherwise one process pool holds workers + 1 chunks in flight, one more
    than the workers, so none of them waits on the parent's fold.  The next
    chunk goes to the lowest open run with no chunk in flight, which
    certainly needs it.  Only when every open run has one does the lowest
    open run get another, speculative one.  Speculative chunks come last
    because a run drops the counts of every chunk past its stop.  Results
    are collected in submission order, so what is submitted depends on the
    counts alone, never on timing.
    """
    queue: deque[tuple[_Run, object]] = deque()
    depth = workers + 1 if workers > 1 else 1
    with ProcessPoolExecutor(workers) if workers > 1 else _InThread() as pool:
        while True:
            while len(queue) < depth:
                open_runs = [r for r in runs if not r.stopped and r.submitted < r.cfg.max_blocks]
                if not open_runs:
                    break
                run = next((r for r in open_runs if not r.in_flight), open_runs[0])
                count = min(run.chunk, run.cfg.max_blocks - run.submitted)
                queue.append((run, pool.submit(_chunk_errors, *run.args, run.submitted, count)))
                run.submitted += count
                run.in_flight += 1
            if not queue:
                return
            run, future = queue.popleft()
            errors = future.result()
            run.in_flight -= 1
            if not run.stopped:
                run.fold(errors)


def run_simulation(cfg: SimConfig) -> list[BerEstimate]:
    """Simulate until every scheme has min_errors errors or max_blocks is hit.

    All schemes are evaluated on the same block realizations.  The run
    stops at the first block whose cumulative counts meet min_errors for
    every scheme, so the stop point depends on neither the chunk length nor
    the worker count.  With workers = 1 the chunks run one at a time in
    this thread, which frees its chunk workspace before returning.  With
    workers > 1 a process pool opened for this run keeps workers + 1 chunks
    in flight (``_dispatch``); at most that many chunks past the stop are
    simulated and dropped.
    """
    run = _Run(cfg)
    _dispatch([run], cfg.workers)
    return run.estimates()


def sweep(cfg: SimConfig, axis: str, values, optimize_wsc1: bool = False) -> list[SweepRecord]:
    """One simulated point per axis value (snr_db or beta), with analytic columns.

    Each point's estimates are those run_simulation gives for its config.
    Seeds are offset per axis index so points are independent yet each
    point stays individually reproducible.  With optimize_wsc1 on the
    snr_db axis, WSC1 uses each point's optimize_beta weight instead of
    cfg.beta_wsc1.  Only snr_db records of a unit-variance wsc2 sweep carry
    the asymptote.  Every point is validated before any is simulated.  All
    points go to one ``_dispatch`` at once, so with workers > 1 they share
    one process pool and run side by side: a point with no chunk in flight
    gets the next one before any point gets a speculative second.
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

    points = [replace(p, seed=cfg.seed + _SWEEP_SEED_STRIDE * idx) for idx, p in enumerate(points)]
    runs = [_Run(p) for p in points]
    _dispatch(runs, cfg.workers)

    records = []
    symmetric = len(set(cfg.params.sigma_sq)) == 1 and cfg.params.sigma_sq[0] == 1.0
    for value, point, ctx, run in zip(values, points, contexts, runs):
        analytic = {s: ber for s in cfg.schemes
                    if (ber := SCHEMES[s].closed_form(point.beta_wsc1, ctx)) is not None}
        asym = None
        if axis == "snr_db" and symmetric and SchemeId.WSC2 in cfg.schemes:
            # Left empty where it overflows, as closed_form leaves undefined forms.
            with suppress(ValueError):
                asym = analysis.aber_asymptotic_wsc2(point.params.p0)
        records.append(SweepRecord(axis_value=value, estimates=tuple(run.estimates()), analytic=analytic,
                                   beta_wsc1=point.beta_wsc1, asymptotic=asym))
    return records
