"""In-memory span tracer that wraps ddfwsc functions from outside the package.

Each wrapper replaces a name where the caller looks it up (for example
``ddfwsc.simulator.derive_stream``, not only ``ddfwsc.fading``), records one
span (name, start, end, parent) per call, and is removed again by
``Tracer.uninstall``.  Spans are kept in flat arrays so that a few million of
them fit in memory; ``Tracer.save`` writes them out after the run.

Monte Carlo chunks that ``run_simulation`` sends to a process pool run
under a traced pool: the parent counts the blocks it submits, and each
worker sends its own spans back with the chunk result, so worker-side layer
times are summed busy time over all workers.
"""

from __future__ import annotations

import array
import time
from collections import Counter

import numpy as np

# Fork-started pool workers find the parent's tracer here (see _traced_chunk).
_ACTIVE: "Tracer | None" = None

DENSITY_FUNCS = ("pdf_xi0", "pdf_xiw", "cdf_abs_xi0", "cdf_abs_xiw")


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.parent = array.array("q")
        self.remote = array.array("b")  # 1 for spans recorded in a pool worker
        self._stack = [-1]
        self.counts: Counter = Counter()
        self._patches: list[tuple[object, str, object]] = []
        self._chunk_fn = None
        self._chunk_wrapper = None

    # -- recording -----------------------------------------------------------

    def _nid(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, name: str) -> int:
        idx = len(self.start)
        self.name_id.append(self._nid(name))
        self.parent.append(self._stack[-1])
        self.remote.append(0)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn, name: str, after=None):
        open_, close = self.open, self.close

        def traced(*args, **kwargs):
            idx = open_(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                close(idx)
            if after is not None:
                after(args, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def patch(self, obj, attr: str, replacement) -> None:
        self._patches.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, replacement)

    def span(self, obj, attr: str, name: str, after=None) -> None:
        self.patch(obj, attr, self.wrap(getattr(obj, attr), name, after))

    # -- installing over the package ----------------------------------------

    def install(self) -> None:
        """Wrap every traced layer of ddfwsc where its callers look it up."""
        global _ACTIVE
        import ddfwsc.analysis as analysis
        import ddfwsc.cli as cli
        import ddfwsc.link as link
        import ddfwsc.simulator as simulator
        import ddfwsc.validation as validation

        counts = self.counts

        self.span(simulator, "derive_stream", "fading.derive_stream")
        self.span(link, "sample_fading_block", "fading.sample_fading_block")
        self.span(simulator, "simulate_block", "link.simulate_block")
        for fn in ("diff_encode", "relay_detect", "estimate_relay_snr"):
            self.span(link, fn, f"link.{fn}")
        self.span(simulator, "wsc_bits", "combiners.wsc_bits")
        self.span(simulator, "lar_bits", "combiners.lar_bits")

        def after_run(args, results):
            cfg = args[0]
            counts["simulator.blocks_used"] += results[0].bits // cfg.params.block_len
            if cfg.min_errors > 0 and all(r.bit_errors >= cfg.min_errors for r in results):
                counts["simulator.stops_min_errors"] += 1

        self.span(simulator, "run_simulation", "simulator.run_simulation", after_run)
        self.span(cli, "run_simulation", "simulator.run_simulation", after_run)

        chunk_fn = simulator._chunk_errors

        def counted_chunk(params, schemes, beta_wsc1, seed, start, count):
            counts["simulator.blocks_simulated"] += count
            return chunk_fn(params, schemes, beta_wsc1, seed, start, count)

        self._chunk_fn, self._chunk_wrapper = chunk_fn, counted_chunk
        self.patch(simulator, "_chunk_errors", counted_chunk)
        self.patch(simulator, "ProcessPoolExecutor", self._pool_class(simulator.ProcessPoolExecutor))

        for fn in ("aber_wsc1", "aber_wsc2", "optimize_beta"):
            self.span(analysis, fn, f"analysis.{fn}")
        for fn in DENSITY_FUNCS:
            self.patch(analysis, fn, _counted(getattr(analysis, fn), counts, "validation.density_calls"))
        for fn in ("aber_wsc1_by_integration", "aber_wsc2_by_integration"):
            self.span(validation, fn, f"validation.{fn}")
        self.span(cli, "emit", "cli.emit")
        _ACTIVE = self

    def uninstall(self) -> None:
        global _ACTIVE
        for obj, attr, original in reversed(self._patches):
            setattr(obj, attr, original)
        self._patches.clear()
        _ACTIVE = None

    def _pool_class(self, base):
        tracer = self

        class TracedPool(base):
            def __init__(self, *args, **kwargs):
                idx = tracer.open("simulator.pool.create")
                try:
                    super().__init__(*args, **kwargs)
                finally:
                    tracer.close(idx)
                tracer.counts["simulator.pool.starts"] += 1

            def submit(self, fn, /, *args, **kwargs):
                if fn is not tracer._chunk_wrapper:
                    return super().submit(fn, *args, **kwargs)
                tracer.counts["simulator.blocks_simulated"] += args[5]
                idx = tracer.open("simulator.pool.submit")
                try:
                    fut = super().submit(_traced_chunk, *args)
                finally:
                    tracer.close(idx)
                return _ChunkFuture(fut, tracer)

            def shutdown(self, *args, **kwargs):
                idx = tracer.open("simulator.pool.shutdown")
                try:
                    return super().shutdown(*args, **kwargs)
                finally:
                    tracer.close(idx)

        return TracedPool

    # -- worker spans --------------------------------------------------------

    def _reset(self) -> None:
        for arr in (self.name_id, self.start, self.end, self.parent, self.remote):
            del arr[:]
        self._stack = [-1]

    def _export(self) -> tuple[list[str], np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        return (list(self.names), np.frombuffer(self.name_id, dtype=np.int32).copy(),
                np.frombuffer(self.start).copy(), np.frombuffer(self.end).copy(),
                np.frombuffer(self.parent, dtype=np.int64).copy())

    def _merge(self, exported) -> None:
        names, nid, start, end, parent = exported
        offset = len(self.start)
        remap = np.array([self._nid(n) for n in names], dtype=np.int32)
        self.name_id.frombytes(remap[nid].tobytes())
        self.start.frombytes(start.tobytes())
        self.end.frombytes(end.tobytes())
        self.parent.frombytes(np.where(parent >= 0, parent + offset, -1).tobytes())
        self.remote.frombytes(np.ones(len(start), dtype=np.int8).tobytes())

    # -- results -------------------------------------------------------------

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per span name: call count, total time and self time (seconds).

        Self time is a span's duration minus the time its direct child spans
        cover.
        """
        nid = np.frombuffer(self.name_id, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
        self_t = dur - child
        n = len(self.names)
        calls = np.bincount(nid, minlength=n)
        total = np.bincount(nid, weights=dur, minlength=n)
        selfs = np.bincount(nid, weights=self_t, minlength=n)
        return {name: {"calls": int(calls[i]), "total_s": float(total[i]), "self_s": float(selfs[i])}
                for i, name in enumerate(self.names)}

    def children_of(self, child_name: str, parent_name: str) -> int:
        """Number of child_name spans whose direct parent is a parent_name span."""
        if child_name not in self._ids or parent_name not in self._ids:
            return 0
        nid = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        is_child = nid == self._ids[child_name]
        par = parent[is_child]
        par = par[par >= 0]
        return int(np.count_nonzero(nid[par] == self._ids[parent_name]))

    def save(self, path) -> None:
        np.savez_compressed(
            path, names=np.array(self.names), name_id=np.frombuffer(self.name_id, dtype=np.int32),
            start=np.frombuffer(self.start), end=np.frombuffer(self.end),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            remote=np.frombuffer(self.remote, dtype=np.int8))


def _counted(fn, counts: Counter, key: str):
    def counted(*args, **kwargs):
        counts[key] += 1
        return fn(*args, **kwargs)

    counted.__wrapped__ = fn
    return counted


def _traced_chunk(*args):
    """Runs in a fork-started pool worker: the chunk plus the spans it made."""
    tracer = _ACTIVE
    tracer._reset()
    out = tracer._chunk_fn(*args)
    exported = tracer._export()
    tracer._reset()
    return out, exported


class _ChunkFuture:
    """The parent's view of a traced chunk: result() merges the worker's spans."""

    def __init__(self, fut, tracer: Tracer) -> None:
        self._fut = fut
        self._tracer = tracer

    def result(self, timeout=None):
        idx = self._tracer.open("simulator.pool.wait")
        try:
            out, exported = self._fut.result(timeout)
        finally:
            self._tracer.close(idx)
        self._tracer._merge(exported)
        return out
