import hashlib
import itertools
import sys
import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from ddfwsc import simulator
from ddfwsc.analysis import ClosedFormContext, aber_wsc1, optimize_beta
from ddfwsc.combiners import SchemeId
from ddfwsc.link import SystemParams
from ddfwsc.simulator import SimConfig, run_simulation, sweep, wilson_interval

# Per-block error matrices of _chunk_errors(params, all four schemes,
# beta_wsc1=0.5, seed, start, count), captured from the per-block
# derive_stream/simulate_block loop that the chunk kernel replaced.  Each
# string lists the sc, wsc1, wsc2 and lar columns in turn.
_L4 = """
    0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 3 0 0 0 0 1 0 0 0 0 0
    0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 2 0 0 0 0 0 0
    0 0 0 0 0 0 0 0 0 0 0 1 2 0 0 0 0 0 0 0 0 0 1 0 0 0 0 0 2 0 0 0 0 0 0 0

    0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 3 0 0 0 0 1 0 0 0 0 0
    0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 2 0 0 0 0 0 0
    0 0 0 0 0 0 0 0 0 0 0 2 2 0 0 0 0 0 0 0 0 0 1 0 0 0 0 0 2 0 0 0 0 0 0 0

    0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 1 0 0 0 0 0 0 0 0 0 0 0 0 0 3 0 0 0 0 1 0 0 0 0 0
    0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 1 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 1 0 0 0 0 0 0
    0 0 0 0 0 0 0 0 0 0 0 1 0 0 0 0 0 0 0 0 0 0 1 0 0 0 0 0 0 0 0 0 0 0 0 0

    0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 1 0 0 0 0 0 0 0 0 0 0 0 0 0 3 0 0 0 0 1 0 0 0 0 0
    0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 1 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 1 0 0 0 0 0 0
    0 0 0 0 0 0 0 0 0 0 0 1 0 0 0 0 0 0 0 0 0 0 1 0 0 0 0 0 0 0 0 0 0 0 0 0
"""

_ESTIMATED = """
    0 0 0 1 0 2 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 4 1 0 0 0 0 11 0 0 0 0 0 0 0 0 0 6 0 27
    0 0 0 0 6 0 2 1 0 0 0 0 0 0 2 0 0 0 0

    0 0 0 0 0 1 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 7 0 0 0 0 0 16 0 0 0 0 0 0 0 0 0 11 0 27
    0 0 0 0 8 0 3 0 0 0 0 0 0 0 3 0 0 0 0

    0 0 0 0 0 2 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 4 1 0 0 0 0 11 0 0 0 0 0 0 0 0 0 6 0 27
    0 0 0 0 6 0 2 1 0 0 0 0 0 0 2 0 0 0 0

    0 0 0 0 0 2 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 4 1 0 0 0 0 11 0 0 0 0 0 0 0 0 0 6 0 25
    0 0 0 0 6 0 2 1 0 0 0 0 0 0 2 0 0 0 0
"""

_DEAD_RELAY = """
    0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 4 0 3 0 0 0 0 4 0 0 0 8 0 0 1 7 0 0 0 5 0 0 0 1 0 2 0 0 1
    0 0 0 0 5 0 0 1 0 0 0 0 0 7 0 1 0 0

    0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 5 0 3 0 0 0 0 4 0 0 0 10 0 0 1 7 0 0 0 4 0 0 0 0 0 0 0 0 1
    0 0 0 0 3 0 0 1 0 0 0 0 0 7 0 0 0 0

    0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 6 0 4 0 0 0 0 4 0 0 0 7 0 0 1 10 0 0 0 2 0 0 0 0 0 1 0 0 1
    0 0 0 0 5 0 0 1 0 0 0 0 0 4 0 0 0 0

    0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 4 0 3 0 0 0 0 4 0 0 0 8 0 0 1 7 0 0 0 5 0 0 0 1 0 2 0 0 1
    0 0 0 0 5 0 0 1 0 0 0 0 0 7 0 1 0 0
"""

_ALL_ZERO = """
    10 8 9 10 7 9 8 9 9 5 8 7 7 10 5 13 8 9 10 8 9 10 7 7 6 5 8 10 8 5 9 8 11 9 8 5 12 7 8 8 8 7
    8 10 9 7 5 7 10 7 7 6 12 6 6 9 10 8 9 6 8 7 9 11

    8 6 9 10 7 8 7 9 9 5 10 8 7 10 5 12 9 9 7 8 9 9 4 7 6 5 7 9 9 6 7 11 11 6 8 5 10 8 9 9 7 8 9
    9 7 5 4 7 8 7 6 6 11 6 5 8 9 8 10 6 8 7 9 12

    8 6 10 9 7 7 9 8 11 5 10 8 8 8 5 9 10 9 7 8 8 9 6 8 7 6 10 9 8 6 6 11 10 5 10 7 10 7 10 10 8
    9 7 8 6 6 5 9 7 8 9 8 9 6 2 5 9 9 10 7 8 8 7 9

    10 8 9 10 7 9 8 9 9 5 8 7 7 10 5 13 8 9 10 8 9 10 7 7 6 5 8 10 8 5 9 8 11 9 8 5 12 7 8 8 8 7
    8 10 9 7 5 7 10 7 7 6 12 6 6 9 10 8 9 6 8 7 9 11
"""

_FROZEN_CHUNKS = {
    "L4": (SystemParams(p0_over_n0_db=10.0, block_len=4), 1, 0, 128, _L4),
    "estimated": (SystemParams(p0_over_n0_db=10.0, sigma_sq=(1.0, 2.0, 0.5), block_len=64,
                               snr_mode="estimated"), 3 * 10 ** 9 + 17, 640, 64, _ESTIMATED),
    "dead_relay": (SystemParams(p0_over_n0_db=10.0, sigma_sq=(1.0, 1.0, 0.0), block_len=16),
                   5, 0, 64, _DEAD_RELAY),
    "all_zero": (SystemParams(p0_over_n0_db=10.0, sigma_sq=(0.0, 0.0, 0.0), block_len=16),
                 7, 0, 64, _ALL_ZERO),
}
_ALL_SCHEMES = (SchemeId.SC, SchemeId.WSC1, SchemeId.WSC2, SchemeId.LAR)

# 288 configurations: block lengths, variance triples (dead links included),
# both SNR modes, three SNRs, and two scheme lists.  _GRID_SHA256 hashes the
# _chunk_errors matrices (48 blocks each, as little-endian int64) of the
# whole grid, captured from the kernel that allocated fresh arrays for
# every chunk.
_GRID = list(itertools.product(
    (1, 4, 64, 256),
    ((1.0, 1.0, 1.0), (2.0, 1.0, 0.5), (0.0, 1.0, 1.0), (1.0, 0.0, 1.0), (1.0, 1.0, 0.0), (0.5, 3.0, 1.0)),
    ("exact", "estimated"),
    (-5.0, 10.0, 37.0),
    (_ALL_SCHEMES, (SchemeId.LAR, SchemeId.WSC2))))
_GRID_SHA256 = "889d09430830b5d85d71619a0ff9d510b8488315e3ef2cbd1273bf957f3365dd"


class TestStreamContract:
    @pytest.mark.parametrize("case", list(_FROZEN_CHUNKS))
    def test_chunk_errors_frozen(self, case):
        params, seed, start, count, text = _FROZEN_CHUNKS[case]
        frozen = np.array(text.split(), dtype=np.int64).reshape(len(_ALL_SCHEMES), count).T
        got = simulator._chunk_errors(params, _ALL_SCHEMES, 0.5, seed, start, count)
        assert np.array_equal(got, frozen)
        # Chunk boundaries do not matter: the same blocks in uneven pieces.
        pieces = [simulator._chunk_errors(params, _ALL_SCHEMES, 0.5, seed, s, min(37, start + count - s))
                  for s in range(start, start + count, 37)]
        assert np.array_equal(np.concatenate(pieces), frozen)


    def test_chunk_errors_grid_hash(self):
        digest = hashlib.sha256()
        for i, (block_len, sigma_sq, mode, db, schemes) in enumerate(_GRID):
            params = SystemParams(p0_over_n0_db=db, sigma_sq=sigma_sq, block_len=block_len, snr_mode=mode)
            got = simulator._chunk_errors(params, schemes, 0.5, i, 7 * i, 48)
            digest.update(got.astype("<i8").tobytes())
        assert len(_GRID) == 288
        assert digest.hexdigest() == _GRID_SHA256


class TestChunkWorkspace:
    """A chunk reuses its thread's buffers: little is allocated per chunk, and nothing outlives a run."""

    @pytest.mark.parametrize("block_len, snr_mode, bound", [
        (256, "exact", 1 << 20), (256, "estimated", 1 << 20), (4, "exact", 512 << 10)])
    def test_steady_state_chunk_allocates_little(self, block_len, snr_mode, bound):
        # Fresh arrays for every chunk peaked at 4.8 MiB (L = 256, 64 blocks)
        # and 1.3 MiB (L = 4, 819 blocks).
        params = SystemParams(p0_over_n0_db=10.0, block_len=block_len, snr_mode=snr_mode)
        count = simulator._chunk_len(block_len)
        tracemalloc.start()
        try:
            simulator._chunk_errors(params, _ALL_SCHEMES, 0.5, 1, 0, count)
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            simulator._chunk_errors(params, _ALL_SCHEMES, 0.5, 1, count, count)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
            simulator._local.workspace = None
        assert peak < bound

    def test_in_process_run_frees_its_workspace(self):
        def run(block_len):
            params = SystemParams(p0_over_n0_db=10.0, block_len=block_len)
            return run_simulation(SimConfig(params=params, schemes=_ALL_SCHEMES, max_blocks=200,
                                            min_errors=0, seed=2))

        # The first run's chunks have another shape, so a workspace it left
        # behind would be replaced, not reused, by the measured run.
        run(8)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            run(256)
            after = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert after - before < 64 << 10

    def test_reused_workspace_rebuilds_rows_when_live_links_change(self):
        # The draw buffers keep per-block row views for one live-link count.
        # One workspace serves 3, 2 and 1 live links in turn (and 3 again),
        # at two chunk lengths; every chunk must be what a fresh workspace gives.
        cases = [(count, sigma_sq) for count in (48, 37)
                 for sigma_sq in ((1.0, 2.0, 0.5), (1.0, 0.0, 0.5), (0.0, 0.0, 3.0), (1.0, 2.0, 0.5))]

        def chunk(count, sigma_sq):
            params = SystemParams(p0_over_n0_db=10.0, sigma_sq=sigma_sq, block_len=4)
            return simulator._chunk_errors(params, _ALL_SCHEMES, 0.5, 9, 100, count)

        fresh = []
        for case in cases:
            simulator._local.workspace = None
            fresh.append(chunk(*case))
        simulator._local.workspace = None
        try:
            reused, workspaces = [], []
            for case in cases:
                reused.append(chunk(*case))
                workspaces.append(simulator._local.workspace)
        finally:
            simulator._local.workspace = None
        assert len({id(ws) for ws in workspaces[:4]}) == 1  # one workspace per chunk length
        assert all(np.array_equal(a, b) for a, b in zip(reused, fresh))

    def test_run_with_a_shorter_last_chunk_builds_one_workspace(self, monkeypatch):
        # An L = 4 run of one full chunk and a shorter last one: the last
        # chunk works on the leading rows of the workspace the first built,
        # and counts what a fresh workspace for each chunk counts.
        params = SystemParams(p0_over_n0_db=10.0, block_len=4)
        chunk = simulator._chunk_len(4)
        cfg = SimConfig(params=params, schemes=_ALL_SCHEMES, beta_wsc1=0.5, max_blocks=chunk + 629,
                        min_errors=0, seed=4)
        fresh = []
        for start in (0, chunk):
            simulator._local.workspace = None
            fresh.append(simulator._chunk_errors(params, _ALL_SCHEMES, 0.5, 4, start,
                                                 min(chunk, cfg.max_blocks - start)))
        simulator._local.workspace = None
        built = []

        class Counting(simulator._Workspace):
            def __init__(self, count, block_len):
                built.append(count)
                super().__init__(count, block_len)

        monkeypatch.setattr(simulator, "_Workspace", Counting)
        estimates = run_simulation(cfg)
        assert built == [chunk]
        assert [e.bit_errors for e in estimates] == np.concatenate(fresh).sum(axis=0).tolist()

    def test_threads_keep_their_own_workspace(self):
        # Two threads per case, more threads than cores.  The two cases have
        # the same chunk shape (64 blocks of 16 bits), so buffers shared
        # between threads would be overwritten mid-chunk.
        cases = ("dead_relay", "all_zero") * 2
        results = [[] for _ in cases]

        def repeat(case, got):
            params, seed, start, count, _ = _FROZEN_CHUNKS[case]
            for _ in range(20):
                got.append(simulator._chunk_errors(params, _ALL_SCHEMES, 0.5, seed, start, count))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=repeat, args=args) for args in zip(cases, results)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for case, got in zip(cases, results):
            _, _, _, count, text = _FROZEN_CHUNKS[case]
            frozen = np.array(text.split(), dtype=np.int64).reshape(len(_ALL_SCHEMES), count).T
            assert len(got) == 20
            assert all(np.array_equal(g, frozen) for g in got)


class TestWilsonInterval:
    def test_bounds_and_ordering(self):
        lo, hi = wilson_interval(5, 100)
        assert 0.0 <= lo <= 0.05 <= hi <= 1.0

    def test_zero_errors(self):
        lo, hi = wilson_interval(0, 1000)
        assert lo == pytest.approx(0.0, abs=1e-12)
        assert 0 < hi < 0.01

    def test_empty(self):
        assert wilson_interval(0, 0) == (0.0, 1.0)

    def test_coverage_at_half(self):
        # Pure-noise truth p = 0.5 with iid bits: the 95% interval must
        # cover in at least 90 of 100 repetitions.
        rng = np.random.default_rng(0)
        n = 2000
        covered = 0
        for _ in range(100):
            errs = rng.binomial(n, 0.5)
            lo, hi = wilson_interval(errs, n)
            covered += lo <= 0.5 <= hi
        assert covered >= 90


class TestRunSimulation:
    def test_pure_noise_gives_half(self):
        params = SystemParams(p0_over_n0_db=0.0, sigma_sq=(0.0, 0.0, 0.0), block_len=256)
        cfg = SimConfig(params=params,
                        schemes=(SchemeId.SC, SchemeId.WSC1, SchemeId.WSC2, SchemeId.LAR),
                        max_blocks=400, min_errors=0, seed=1)
        for est in run_simulation(cfg):
            assert est.bits >= 10 ** 5
            assert est.ber == pytest.approx(0.5, abs=0.01)

    def test_sc_matches_formula_within_ci(self):
        # Short blocks keep the bit-level Wilson interval calibrated.
        params = SystemParams(p0_over_n0_db=10.0, block_len=4)
        cfg = SimConfig(params=params, schemes=(SchemeId.SC,),
                        max_blocks=100_000, min_errors=1000, seed=3)
        est = run_simulation(cfg)[0]
        truth = aber_wsc1(1.0, ClosedFormContext.from_db(10.0))
        assert est.ci95_low <= truth <= est.ci95_high

    def test_worker_determinism(self):
        params = SystemParams(p0_over_n0_db=10.0, block_len=32)
        workers = (1, 2, 3, 8)
        # One run stops on min_errors inside a chunk, with later chunks in
        # flight; the other runs to a cap that is not a multiple of the chunk
        # length times any worker count.
        for max_blocks, min_errors in ((3000, 150), (1000, 10 ** 9)):
            cfg = SimConfig(params=params, schemes=(SchemeId.SC, SchemeId.WSC2),
                            max_blocks=max_blocks, min_errors=min_errors, seed=9)
            runs = [run_simulation(replace(cfg, workers=w)) for w in workers]
            blocks = runs[0][0].bits // 32
            for w in workers:
                assert blocks % (simulator._chunk_len(32) * w) != 0
            if min_errors < 10 ** 9:
                assert blocks < max_blocks
                assert all(e.bit_errors >= min_errors for e in runs[0])
            else:
                assert blocks == max_blocks
            for r in runs[1:]:
                assert [(e.bit_errors, e.bits) for e in r] == [(e.bit_errors, e.bits) for e in runs[0]]

    def test_stop_wastes_less_than_one_round(self, monkeypatch):
        chunk_errors = simulator._chunk_errors
        params = SystemParams(p0_over_n0_db=10.0, block_len=32)
        for workers in (1, 2):
            events = []

            def counting(params, schemes, beta_wsc1, seed, start, count):
                events.append(("submit", seed, start, count))
                return chunk_errors(params, schemes, beta_wsc1, seed, start, count)

            with monkeypatch.context() as m:
                if workers == 1:
                    m.setattr(simulator, "_chunk_errors", counting)
                else:
                    m.setattr(simulator, "ProcessPoolExecutor", _recording_pool(events))
                cfg = SimConfig(params=params, schemes=(SchemeId.SC,), max_blocks=100_000,
                                min_errors=150, seed=9, workers=workers)
                used = run_simulation(cfg)[0].bits // 32
            assert used < cfg.max_blocks
            simulated = [e[3] for e in events if e[0] == "submit"]
            # Every chunk is sized by block length; the queue holds one chunk
            # in this thread, or workers + 1 on a pool.
            chunk = simulator._chunk_len(32)
            assert set(simulated[:-1]) <= {chunk}
            assert 0 <= sum(simulated) - used < (1 if workers == 1 else workers + 1) * chunk

    def test_chunk_is_64_blocks_from_block_len_126(self):
        for block_len in (126, 127, 128, 200, 256, 1024, 10 ** 6):
            assert simulator._chunk_len(block_len) == 64
        # Shorter blocks get as many blocks as fit in 8192 channel uses (L + 1 per block).
        for block_len in range(1, 126):
            chunk = simulator._chunk_len(block_len)
            assert chunk > 64
            assert chunk * (block_len + 1) <= 8192 < (chunk + 1) * (block_len + 1)
        assert simulator._chunk_len(4) == 1638 and simulator._chunk_len(64) == 126

    def test_chunk_length_does_not_change_estimates(self, monkeypatch):
        # An L = 4 run that stops mid-chunk on min_errors, with its own chunk
        # length and with the chunk forced to 64 blocks.
        params = SystemParams(p0_over_n0_db=10.0, block_len=4)
        cfg = SimConfig(params=params, schemes=(SchemeId.SC, SchemeId.WSC1, SchemeId.WSC2, SchemeId.LAR),
                        max_blocks=20_000, min_errors=300, seed=5)
        sized = [run_simulation(replace(cfg, workers=w)) for w in (1, 2)]
        blocks = sized[0][0].bits // 4
        assert blocks < cfg.max_blocks
        assert blocks % simulator._chunk_len(4) != 0 and blocks % 64 != 0
        monkeypatch.setattr(simulator, "_chunk_len", lambda block_len: 64)
        fixed = [run_simulation(replace(cfg, workers=w)) for w in (1, 2)]
        assert sized[1] == sized[0]
        assert fixed == [sized[0], sized[0]]

    def test_early_stop_block_granularity(self):
        params = SystemParams(p0_over_n0_db=0.0, block_len=64)
        cfg = SimConfig(params=params, schemes=(SchemeId.SC,),
                        max_blocks=10_000, min_errors=100, seed=2)
        est = run_simulation(cfg)[0]
        assert est.bit_errors >= 100
        assert est.bits % 64 == 0
        # Stop point must not depend on the chunking: rerun with a cap just
        # above the used block count and get the identical estimate.
        cfg2 = SimConfig(params=params, schemes=(SchemeId.SC,),
                         max_blocks=est.bits // 64 + 5, min_errors=100, seed=2)
        est2 = run_simulation(cfg2)[0]
        assert (est2.bit_errors, est2.bits) == (est.bit_errors, est.bits)

    def test_estimate_invariants(self):
        params = SystemParams(p0_over_n0_db=5.0, block_len=16)
        cfg = SimConfig(params=params, schemes=(SchemeId.SC, SchemeId.LAR),
                        max_blocks=500, min_errors=0, seed=4)
        for est in run_simulation(cfg):
            assert est.ber == est.bit_errors / est.bits
            assert 0.0 <= est.ci95_low <= est.ber <= est.ci95_high <= 1.0

    def test_config_validation(self):
        params = SystemParams(p0_over_n0_db=0.0)
        for kwargs in (dict(max_blocks=0), dict(min_errors=-1), dict(beta_wsc1=0.0),
                       dict(beta_wsc1=float("nan")), dict(beta_wsc1=float("inf")),
                       dict(workers=0), dict(schemes=()), dict(seed=-1),
                       dict(schemes=(SchemeId.SC, SchemeId.WSC2, SchemeId.SC))):
            with pytest.raises(ValueError):
                SimConfig(params=params, **kwargs)


class _Recorded:
    """A pool future whose result() is logged once it returns, that is, just before the fold."""

    def __init__(self, future, events, key):
        self._future, self._events, self._key = future, events, key

    def result(self, timeout=None):
        out = self._future.result(timeout)
        self._events.append(("result", *self._key))
        return out


def _recording_pool(events):
    """A simulator.ProcessPoolExecutor that logs ("submit"|"result", seed, start, count) per chunk."""

    class RecordingPool(simulator.ProcessPoolExecutor):
        def submit(self, fn, /, *args, **kwargs):
            key = args[3:6]  # seed, start, count
            events.append(("submit", *key))
            return _Recorded(super().submit(fn, *args, **kwargs), events, key)

    return RecordingPool


def _snr_points(cfg: SimConfig, snrs) -> list[SimConfig]:
    return [replace(cfg, params=replace(cfg.params, p0_over_n0_db=snr)) for snr in snrs]


class TestSweep:
    def test_empty_points_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            sweep([])

    def test_points_must_share_workers(self, monkeypatch):
        def fail(*args):
            raise AssertionError("simulated a sweep whose points disagree on workers")

        monkeypatch.setattr(simulator, "_chunk_errors", fail)
        cfg = SimConfig(params=SystemParams(p0_over_n0_db=0.0), max_blocks=10)
        with pytest.raises(ValueError, match="same workers"):
            sweep([cfg, replace(cfg, workers=2)])

    @pytest.mark.parametrize("workers", [1, 2])
    def test_run_simulation_is_a_one_point_sweep(self, workers):
        cfg = SimConfig(params=SystemParams(p0_over_n0_db=5.0, block_len=16),
                        schemes=(SchemeId.SC, SchemeId.WSC1, SchemeId.LAR), beta_wsc1=0.4,
                        max_blocks=500, min_errors=30, seed=3, workers=workers)
        assert run_simulation(cfg) == sweep([cfg])[0]

    def test_point_seeds_are_offset_by_index(self):
        cfg = SimConfig(params=SystemParams(p0_over_n0_db=5.0, block_len=16),
                        max_blocks=100, min_errors=20, seed=4)
        points = _snr_points(cfg, [0.0, 5.0, 10.0])
        expected = [run_simulation(replace(p, seed=4 + simulator._SWEEP_SEED_STRIDE * i))
                    for i, p in enumerate(points)]
        assert sweep(points) == expected

    def test_snr_sweep_wsc2_never_worse_than_sc(self):
        params = SystemParams(p0_over_n0_db=0.0, block_len=128)
        cfg = SimConfig(params=params, schemes=(SchemeId.SC, SchemeId.WSC2),
                        max_blocks=4000, min_errors=300, seed=6)
        for estimates in sweep(_snr_points(cfg, [0.0, 5.0, 10.0, 15.0, 20.0])):
            by_scheme = {e.scheme: e for e in estimates}
            assert by_scheme[SchemeId.WSC2].ber <= by_scheme[SchemeId.SC].ber

    def test_one_pool_per_sweep(self, monkeypatch):
        pools = []

        class CountingPool(simulator.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                pools.append(self)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(simulator, "ProcessPoolExecutor", CountingPool)
        params = SystemParams(p0_over_n0_db=0.0, block_len=16)
        cfg = SimConfig(params=params, schemes=(SchemeId.SC, SchemeId.WSC1, SchemeId.WSC2),
                        max_blocks=300, min_errors=40, seed=11)
        points = [replace(p, beta_wsc1=optimize_beta(ClosedFormContext(*p.params.gamma_bars))[0])
                  for p in _snr_points(cfg, [0.0, 5.0, 10.0])]
        serial = sweep(points)
        assert pools == []
        pooled = sweep([replace(p, workers=2) for p in points])
        assert len(pools) == 1
        assert pooled == serial

    def test_paired_dominance_at_optimum(self):
        # On shared realizations the optimized weight cannot lose to SC by
        # more than noise.
        ctx = ClosedFormContext.from_db(15.0)
        beta_opt, _ = optimize_beta(ctx)
        params = SystemParams(p0_over_n0_db=15.0, block_len=128)
        cfg = SimConfig(params=params, schemes=(SchemeId.SC, SchemeId.WSC1),
                        beta_wsc1=beta_opt, max_blocks=30_000, min_errors=500, seed=8)
        by_scheme = {e.scheme: e for e in run_simulation(cfg)}
        assert by_scheme[SchemeId.WSC1].ber <= by_scheme[SchemeId.SC].ber * 1.02


class TestDispatch:
    """One chunk queue serves a whole sweep: points overlap, and no count moves."""

    # Every point stops mid-chunk on min_errors, after 1 to 7 chunks of 240 blocks.
    CFG = SimConfig(params=SystemParams(p0_over_n0_db=0.0, block_len=16),
                    schemes=(SchemeId.SC, SchemeId.WSC2), max_blocks=6000, min_errors=150, seed=12)
    SNRS = [0.0, 2.0, 4.0, 6.0, 8.0, 10.0, 12.0]

    def _sweep(self, monkeypatch, workers):
        events = []
        monkeypatch.setattr(simulator, "ProcessPoolExecutor", _recording_pool(events))
        cfg = replace(self.CFG, workers=workers)
        results = sweep(_snr_points(cfg, self.SNRS))
        point = {cfg.seed + simulator._SWEEP_SEED_STRIDE * i: i for i in range(len(self.SNRS))}
        used = [estimates[0].bits // cfg.params.block_len for estimates in results]
        assert all(u < cfg.max_blocks for u in used)
        # (kind, point, start, count, whether the chunk holds the point's stopping block)
        return [(kind, point[seed], start, count, start < used[point[seed]] <= start + count)
                for kind, seed, start, count in events]

    @pytest.mark.parametrize("workers", [2, 3])
    def test_queue_holds_workers_plus_one_chunks(self, monkeypatch, workers):
        in_flight, depth = 0, []
        for kind, *_ in self._sweep(monkeypatch, workers):
            in_flight += 1 if kind == "submit" else -1
            depth.append(in_flight)
        assert max(depth) == workers + 1
        assert in_flight == 0

    def test_second_chunk_only_when_no_run_is_idle(self, monkeypatch):
        n = len(self.SNRS)
        in_flight, stopped, speculative = [0] * n, [False] * n, 0
        for kind, i, _, _, stops in self._sweep(monkeypatch, 2):
            if kind == "result":
                in_flight[i] -= 1
                stopped[i] |= stops
                continue
            if in_flight[i]:
                # Every other open run already has a chunk in flight, and
                # the extra chunk goes to the lowest open run.
                speculative += 1
                assert all(stopped[j] or in_flight[j] for j in range(n) if j != i)
                assert not any(not stopped[j] for j in range(i))
            in_flight[i] += 1
        assert speculative > 0

    def test_next_point_starts_before_the_previous_stops(self, monkeypatch):
        events = self._sweep(monkeypatch, 2)
        for i in range(1, len(self.SNRS)):
            first_submit = next(k for k, e in enumerate(events) if e[:2] == ("submit", i))
            last_fold = next(k for k, e in enumerate(events) if e[:2] == ("result", i - 1) and e[4])
            assert first_submit < last_fold

    def test_records_do_not_depend_on_workers(self):
        serial = sweep(_snr_points(self.CFG, self.SNRS))
        blocks = [estimates[0].bits // 16 for estimates in serial]
        assert all(b < self.CFG.max_blocks and b % simulator._chunk_len(16) for b in blocks)
        for workers in (2, 3, 8):
            assert sweep(_snr_points(replace(self.CFG, workers=workers), self.SNRS)) == serial
