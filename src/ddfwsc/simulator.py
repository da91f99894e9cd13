"""Monte Carlo harness: paired per-block scheme evaluation with early stopping.

This module simulates; it does not report.  ``run_simulation`` and
``sweep`` take ready ``SimConfig``s and return ``BerEstimate``s; choosing
the points of a sweep (a beta grid, an SNR grid, an optimized WSC1 weight)
and the analytic columns beside the estimates are the CLI's job.

Every block is generated from its own (seed, block_index) stream (see
``fading``), so results are bit-exact for a fixed configuration
regardless of how many workers are used.  The kernel, ``_chunk_errors``,
works on a chunk of consecutive blocks at once: it hashes the chunk's
Philox keys in numpy, draws each block from one reused generator reset to
that block's key, runs the link for the whole chunk and calls each
scheme's combiner once, with a per-block weight array for WSC2.  Errors
are counted on boolean decisions (decision is +1) against the data bits
that ``fading.sample_blocks`` draws.

A chunk allocates nothing large: its draws, symbols, received signals,
decision variables and decisions go into a ``_Workspace`` that each
thread keeps from one chunk to the next (``threading.local``), for one
block length at a time.  A chunk uses the workspace's leading rows, so a
run's shorter last chunk reuses the workspace its full chunks built.  At
L = 256 it is about 2.9 MB, at L = 4 about 1.4 MB; no returned array
aliases it.  An in-process ``run_simulation`` releases its thread's
workspace when it returns; a pool worker keeps its own until the pool
shuts down.  Fresh temporaries every chunk cost more than the arithmetic
at L = 256: the allocator returned them to the OS between chunks, so every
chunk page-faulted them back in.  Every count is the same as with fresh
arrays.

A chunk is sized by work, not by block count (``_chunk_len``): as many
blocks as fit in 8192 channel uses, but at least 64, so short blocks do
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
from dataclasses import dataclass, replace

import numpy as np

from .combiners import SCHEMES, SchemeId, lar_bits, wsc_bits
from .fading import _DrawBuffers, sample_blocks
from .link import SystemParams, _LinkBuffers, simulate_blocks
# Not called here any more; perfbench/tracing.py wraps them under this module's names.
from .fading import derive_stream  # noqa: F401
from .link import simulate_block  # noqa: F401

__all__ = ["SimConfig", "BerEstimate", "run_simulation", "sweep", "wilson_interval"]

_MIN_CHUNK = 64  # blocks
_CHUNK_USES = 64 * 128  # channel uses: a 64-block chunk at L = 127 (L + 1 symbols a block)
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

    Every block_len >= 126 keeps the 64-block chunk; L = 64 gets 126 blocks
    and L = 4 gets 1638.
    """
    return max(_MIN_CHUNK, _CHUNK_USES // (block_len + 1))


class _Workspace:
    """Every block-sized array of up to count blocks of block_len bits; a chunk uses the leading rows."""

    def __init__(self, count: int, block_len: int) -> None:
        self.count, self.block_len = count, block_len
        self.draws = _DrawBuffers(count, block_len)
        self.link = _LinkBuffers(count, block_len)
        self.work = np.empty((2, count, block_len))
        self.decision = np.empty((count, block_len), dtype=bool)


_local = threading.local()


def _workspace(count: int, block_len: int) -> _Workspace:
    """This thread's workspace, replaced when the block length changes or it holds fewer than count blocks."""
    ws = getattr(_local, "workspace", None)
    if ws is None or ws.block_len != block_len or ws.count < count:
        _local.workspace = None  # free the old one before allocating the new
        ws = _local.workspace = _Workspace(count, block_len)
    return ws


def _chunk_errors(params: SystemParams, schemes, beta_wsc1: float, seed: int,
                  start: int, count: int) -> np.ndarray:
    """Per-block error counts for blocks [start, start+count), shape (count, n_schemes)."""
    ws = _workspace(count, params.block_len)
    draws = sample_blocks(seed, np.arange(start, start + count, dtype=np.uint64),
                          params.sigma_sq, params.block_len, out=ws.draws)
    obs = simulate_blocks(params, *draws, out=ws.link)
    decision_buf, work = ws.decision[:count], ws.work[:, :count]
    out = np.empty((count, len(schemes)), dtype=np.int64)
    for j, scheme in enumerate(schemes):
        weight = SCHEMES[scheme].weight
        if weight is None:
            decision = lar_bits(obs.xi0, obs.xiL, out=decision_buf, work=work[0])
        else:
            decision = wsc_bits(obs.xi0, obs.xi2, weight(beta_wsc1, obs.beta_adaptive[:, None]),
                                out=decision_buf, work=work)
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
    simulated and dropped.  It is the one-point sweep: ``sweep([cfg])[0]``.
    """
    return sweep([cfg])[0]


def sweep(points: list[SimConfig]) -> list[list[BerEstimate]]:
    """Each point's estimates, every point simulated through one ``_dispatch``.

    Point i runs with seed ``points[i].seed + 10**9 * i``, so points are
    independent yet each stays reproducible, and a one-point sweep is
    ``run_simulation``.  Every point must have the same ``workers``
    (ValueError otherwise), since one dispatch serves them all: with
    workers > 1 they share one process pool and run side by side, and a
    point with no chunk in flight gets the next one before any point gets a
    speculative second.  An empty list is a ValueError.
    """
    points = list(points)
    if not points:
        raise ValueError("points must be nonempty")
    if len({p.workers for p in points}) > 1:
        raise ValueError("every point of a sweep must have the same workers")
    runs = [_Run(replace(p, seed=p.seed + _SWEEP_SEED_STRIDE * i)) for i, p in enumerate(points)]
    _dispatch(runs, points[0].workers)
    return [run.estimates() for run in runs]
