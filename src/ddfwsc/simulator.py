"""Monte Carlo harness: paired per-block scheme evaluation with early stopping.

This module simulates; it does not report.  ``run_simulation`` and
``sweep`` take ready ``SimConfig``s and return ``BerEstimate``s; choosing
the points of a sweep (a beta grid, an SNR grid, an optimized WSC1 weight)
and the analytic columns beside the estimates are the CLI's job.

Every block is generated from its own (seed, block_index) stream (see
``fading``), so results are bit-exact for a fixed configuration
regardless of how many workers are used.  The kernel, ``_group_errors``,
works on a chunk of consecutive blocks for a group of points that draw the
same blocks: it hashes the chunk's Philox keys in numpy, draws each block
once from one reused generator reset to that block's key, then runs the
link for the whole chunk and counts each point's errors on it
(``_count_errors``).  The draws depend on neither P0 nor the WSC1 weight,
so they serve every point; consecutive points with equal ``SystemParams``
(a weight sweep) share the link pass and its error count too.  Errors are
counted on boolean decisions (decision is +1) against the data bits that
``fading.sample_blocks`` draws.  ``_chunk_errors`` is the one-point group.

The count runs the selection rule only where it can change the answer.
SC, WSC1 and WSC2 each take a bit's decision from one branch, the direct
xi0 or the relay's xi2, so where both branches decide the same bit value
every weight makes that decision: the errors both branches make there
count for every selecting scheme, and no weight is looked at.  The bits
where the branches disagree are gathered once per link pass, and one
``wsc_bits`` call, the one statement of the rule, decides them for every
distinct weight of the pass stacked (SC's 1, each WSC1 weight, WSC2's
per-block weights).  The counts are the same, bit for bit, as deciding
every bit per scheme.  The branches disagree on about 43% of the bits at
0 dB, 12% at 10 dB and almost none at 30 dB, so the count costs least at
the high SNRs where a sweep spends its blocks.  LAR adds the branches, so
it is decided on every bit, once per link pass.

A chunk allocates nothing large: its draws, symbols, received signals,
decision variables and error masks go into a ``_Workspace`` that each
thread keeps from one chunk to the next (``threading.local``), for one
block length at a time; only the gathered bits where the branches
disagree are fresh.  A chunk uses the workspace's leading rows, so a
run's shorter last chunk reuses the workspace its full chunks built.  At
L = 256 it is about 2.7 MB, at L = 4 about 1.3 MB; no returned array
aliases it.  An in-process ``run_simulation`` releases its thread's
workspace when it returns; a pool worker keeps its own until the pool
shuts down.  Fresh temporaries every chunk cost more than the arithmetic
at L = 256: the allocator returned them to the OS between chunks, so every
chunk page-faulted them back in.  Every count is the same as with fresh
arrays.

A chunk is sized by work, not by block count (``_chunk_len``): as many
blocks as fit in 8192 channel uses, but at least 64, so short blocks do
not pay the kernel's fixed per-call cost every 64 blocks.  A group's chunk
has the same length however many of its points are open: the draws, its
largest part at one point, are shared, and each open point adds one link
pass and its error count; a point that shares its link pass adds only its
own weight's decisions on the bits where the branches disagree.

One dispatch (``_dispatch``) runs a single run and every point of a sweep
through one queue of chunks.  ``sweep`` groups the points that share seed,
block length and sigma_sq, the only inputs of ``fading.sample_blocks``, and
each group has one block cursor.  Each point folds its chunks' per-block
counts in block order and stops at the first block that meets min_errors,
so its stop point is the same for every chunk length and worker count, and
a point of a sweep counts exactly what its own ``run_simulation`` counts.
The points of a group are therefore paired, not independent: each
point's interval means what it did before, but a statement across points
(a slope, a crossover SNR) must treat them as paired.  A stopped point
leaves the later chunks of its group.  With workers = 1
the queue holds one chunk, computed in this thread.  With more, one process
pool keeps workers + 1 chunks in flight, and there is no barrier between
rounds: a chunk that some open group certainly needs (one with no chunk in
flight) goes out first, so the groups of a sweep run side by side, and
only then a speculative next chunk of the lowest open group, whose counts
each point drops if it stops before it.  Results are collected in
submission order, so what is submitted depends on the counts alone.
"""

from __future__ import annotations

import itertools
import math
import threading
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

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
        self.masks = np.empty((2, count, block_len), dtype=bool)
        self.work = np.empty((count, block_len))


_local = threading.local()


def _workspace(count: int, block_len: int) -> _Workspace:
    """This thread's workspace, replaced when the block length changes or it holds fewer than count blocks."""
    ws = getattr(_local, "workspace", None)
    if ws is None or ws.block_len != block_len or ws.count < count:
        _local.workspace = None  # free the old one before allocating the new
        ws = _local.workspace = _Workspace(count, block_len)
    return ws


def _row_counts(mask: np.ndarray, dtype) -> np.ndarray:
    """The True bits of each row of a boolean (N, L) array, as dtype (which must hold L).

    einsum's row sum costs about half of ``count_nonzero(axis=1)`` at L = 4.
    """
    return np.einsum("ij->i", mask.view(np.int8), dtype=dtype)


def _count_errors(obs, points, ws: _Workspace) -> list[np.ndarray]:
    """Each point's per-block error counts on one link pass, one (count, len(schemes)) array per point.

    points is a sequence of (schemes, beta_wsc1) that share the link pass
    ``obs``.  A selecting scheme (SC, WSC1, WSC2) decides a bit by the sign
    of one branch, xi0 or xi2.  Where the two branches' hard decisions
    (xi >= 0, as in ``wsc_bits``) are the same, every weight therefore
    makes that decision, ties and zeros included, so the errors both
    branches make there count for every selecting scheme, exactly.  Only
    the bits where the branches disagree depend on the weight: they are
    gathered once, and one ``wsc_bits`` call decides them for every
    distinct weight of every point, stacked (SC's 1, each WSC1 beta,
    WSC2's per-block weights).  LAR adds the branches, so it is decided on
    every bit, once per link pass.
    """
    count, block_len = obs.tx_bits.shape
    tx = obs.tx_bits
    errors0, differ = ws.masks[0, :count], ws.masks[1, :count]
    # A block has at most L errors; the smallest signed type that holds -(L + 1) holds L,
    # which keeps a group's per-point arrays small (int8 at L = 4, int16 at L = 256).
    dtype = np.min_scalar_type(-block_len - 1)
    # A selecting scheme's count is keyed by its weight as the beta column shows it (a fixed
    # weight by value, WSC2's per-block one as None), so equal weights are decided once; LAR by itself.
    keys = [[scheme if SCHEMES[scheme].weight is None else SCHEMES[scheme].beta_column(beta_wsc1)
             for scheme in schemes] for schemes, beta_wsc1 in points]
    weights = {}
    for (schemes, beta_wsc1), point_keys in zip(points, keys):
        for scheme, key in zip(schemes, point_keys):
            if SCHEMES[scheme].weight is not None:
                weights.setdefault(key, (SCHEMES[scheme], beta_wsc1))
    counts = {}
    if weights:
        np.not_equal(np.greater_equal(obs.xi0, 0, out=errors0), np.greater_equal(obs.xi2, 0, out=differ),
                     out=differ)
        np.not_equal(errors0, tx, out=errors0)
        agreed = _row_counts(np.greater(errors0, differ, out=errors0), dtype)  # errors of both branches
        at = np.flatnonzero(differ)
        block = at // block_len
        stacked = np.empty((len(weights), at.size))
        for row, (scheme, beta_wsc1) in zip(stacked, weights.values()):
            row[...] = scheme.weight(beta_wsc1, obs.beta_adaptive[block])
        wrong = wsc_bits(obs.xi0.reshape(-1)[at], obs.xi2.reshape(-1)[at], stacked)
        wrong ^= tx.reshape(-1)[at]
        for key, row in zip(weights, wrong):
            # bincount's weights make it float; the counts are exact.
            counts[key] = agreed + np.bincount(block, weights=row, minlength=count)
    if any(SchemeId.LAR in point_keys for point_keys in keys):
        decision = lar_bits(obs.xi0, obs.xiL, out=errors0, work=ws.work[:count])
        counts[SchemeId.LAR] = _row_counts(np.not_equal(decision, tx, out=decision), dtype)
    errors = []
    for point_keys in keys:
        out = np.empty((count, len(point_keys)), dtype=dtype)
        for j, key in enumerate(point_keys):
            out[:, j] = counts[key]
        errors.append(out)
    return errors


def _group_errors(points, seed: int, start: int, count: int) -> list[np.ndarray]:
    """Per-block error counts of each point for blocks [start, start+count) of seed.

    points is a sequence of (params, schemes, beta_wsc1) that share the
    block length and sigma_sq, so one draw serves them all; consecutive
    points with equal params share one link pass and its error count
    (``_count_errors``) as well.  Returns one (count, len(schemes)) array
    per point.
    """
    params = points[0][0]
    ws = _workspace(count, params.block_len)
    draws = sample_blocks(seed, np.arange(start, start + count, dtype=np.uint64),
                          params.sigma_sq, params.block_len, out=ws.draws)
    errors = []
    for params, shared in itertools.groupby(points, key=lambda point: point[0]):
        obs = simulate_blocks(params, *draws, out=ws.link)
        errors += _count_errors(obs, [(schemes, beta_wsc1) for _, schemes, beta_wsc1 in shared], ws)
    return errors


def _chunk_errors(params: SystemParams, schemes, beta_wsc1: float, seed: int,
                  start: int, count: int) -> np.ndarray:
    """Per-block error counts for blocks [start, start+count), shape (count, n_schemes): a one-point group."""
    return _group_errors([(params, schemes, beta_wsc1)], seed, start, count)[0]


class _Run:
    """One point's early stop: its chunks' per-block counts, folded in block order."""

    def __init__(self, cfg: SimConfig) -> None:
        self.cfg = cfg
        self.point = (cfg.params, tuple(cfg.schemes), cfg.beta_wsc1)
        self.target = cfg.min_errors or math.inf  # min_errors = 0 runs to max_blocks
        self.totals = np.zeros(len(cfg.schemes), dtype=np.int64)
        self.blocks_used = 0  # blocks folded
        self.stopped = False  # min_errors met

    def fold(self, errors: np.ndarray) -> None:
        """Add the next chunk's counts up to the first block that meets min_errors for every scheme."""
        totals = self.totals + errors.sum(axis=0)
        if (totals < self.target).any():  # the counts only grow, so no block of the chunk meets it
            self.totals = totals
            self.blocks_used += len(errors)
            return
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


class _Group:
    """The runs that draw the same blocks (one seed, block length and sigma_sq), behind one block cursor."""

    def __init__(self, runs: list[_Run]) -> None:
        cfg = runs[0].cfg
        self.runs = runs
        self.seed = cfg.seed
        self.chunk = _chunk_len(cfg.params.block_len)
        self.submitted = 0  # blocks sent out
        self.in_flight = 0  # chunks sent out and not yet collected

    def open_runs(self) -> list[_Run]:
        """The runs that need the next chunk: not stopped, and the cursor below their max_blocks."""
        return [r for r in self.runs if not r.stopped and self.submitted < r.cfg.max_blocks]


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


def _dispatch(groups: list[_Group], workers: int) -> None:
    """Run every run of every group to its stop through one queue of chunks.

    A chunk is one block range of one group, simulated for the group's
    open runs.  With workers = 1 the queue holds one chunk, computed in
    this thread; otherwise one process pool holds workers + 1 chunks in
    flight, one more than the workers, so none of them waits on the
    parent's fold.  The next chunk goes to the lowest open group with no
    chunk in flight, which certainly needs it.  Only when every open group
    has one does the lowest open group get another, speculative one.
    Speculative chunks come last because a run drops the counts of every
    chunk past its stop.  Results are collected in submission order, so
    what is submitted depends on the counts alone, never on timing.
    """
    queue: deque[tuple[_Group, int, list[_Run], object]] = deque()
    depth = workers + 1 if workers > 1 else 1
    with ProcessPoolExecutor(workers) if workers > 1 else _InThread() as pool:
        while True:
            while len(queue) < depth:
                open_groups = [(g, runs) for g in groups if (runs := g.open_runs())]
                if not open_groups:
                    break
                group, runs = next((o for o in open_groups if not o[0].in_flight), open_groups[0])
                start = group.submitted
                count = min(group.chunk, max(r.cfg.max_blocks for r in runs) - start)
                future = pool.submit(_group_errors, [r.point for r in runs], group.seed, start, count)
                queue.append((group, start, runs, future))
                group.submitted += count
                group.in_flight += 1
            if not queue:
                return
            group, start, runs, future = queue.popleft()
            group.in_flight -= 1
            for run, errors in zip(runs, future.result()):
                if not run.stopped:
                    run.fold(errors[:run.cfg.max_blocks - start])


def run_simulation(cfg: SimConfig) -> list[BerEstimate]:
    """Simulate until every scheme has min_errors errors or max_blocks is hit.

    All schemes are evaluated on the same block realizations.  The run
    stops at the first block whose cumulative counts meet min_errors for
    every scheme, so the stop point depends on neither the chunk length nor
    the worker count.  With workers = 1 the chunks run one at a time in
    this thread, which frees its chunk workspace before returning.  With
    workers > 1 a process pool opened for this run keeps workers + 1 chunks
    in flight (``_dispatch``); at most that many chunks past the stop are
    simulated and dropped.  It is the one-point sweep: ``sweep([cfg])[0]``,
    and every point of a sweep equals its own ``run_simulation``, though
    the points of a sweep that share seed, block length and sigma_sq share
    their blocks, so they are paired, not independent.
    """
    return sweep([cfg])[0]


def sweep(points: list[SimConfig]) -> list[list[BerEstimate]]:
    """Each point's estimates, every point simulated through one ``_dispatch``.

    Every point runs on its own seed, so point i's estimates equal
    ``run_simulation(points[i])``.  Points that share seed, block length
    and sigma_sq draw the same blocks, and those blocks are drawn once for
    all of them: such points are paired, not independent.  Each point's
    interval means what it did before, but a statement across points (a
    slope, a crossover SNR) must treat them as paired.  Every point must
    have the same ``workers`` (ValueError otherwise), since one dispatch
    serves them all: with workers > 1 they share one process pool, groups
    run side by side, and a group with no chunk in flight gets the next one
    before any group gets a speculative second.  An empty list is a
    ValueError.
    """
    points = list(points)
    if not points:
        raise ValueError("points must be nonempty")
    if len({p.workers for p in points}) > 1:
        raise ValueError("every point of a sweep must have the same workers")
    runs = [_Run(p) for p in points]
    members: dict[tuple, list[_Run]] = {}
    for run in runs:
        params = run.cfg.params
        members.setdefault((run.cfg.seed, params.block_len, tuple(params.sigma_sq)), []).append(run)
    _dispatch([_Group(group) for group in members.values()], points[0].workers)
    return [run.estimates() for run in runs]
